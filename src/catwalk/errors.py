"""Exception and warning types shared across the package."""


class CatwalkError(Exception):
    """Base class for package-specific errors."""


class DegenerateState(CatwalkError):
    """A conditioned outcome's probability is at or below DEGENERACY_CUTOFF,
    in any model (dyad step, measurement chain or Fock projection): its
    components cancel destructively and the state cannot be normalized.
    Also raised when kick-label overlaps overflow, or dyad weights cancel
    past the floating-point floor.
    """


class RegimeViolation(CatwalkError):
    """Physical parameters fall outside the validity window of the model."""


class CutoffTooSmall(CatwalkError):
    """Fock-space truncation too small for the requested state or evolution."""


class ConfigError(CatwalkError):
    """Invalid or contradictory experiment configuration."""


class GridTooCoarse(UserWarning):
    """Phase-space grid too coarse: the negativity volume moves by more than
    5% under 2x refinement, or the grid step resolves no coherent state."""
