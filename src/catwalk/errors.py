"""Exception and warning types shared across the package."""


class CatwalkError(Exception):
    """Base class for package-specific errors."""


class DegenerateState(CatwalkError):
    """Superposition components cancel destructively; normalization impossible.

    Signals an unphysical parameter choice (e.g. a zero-kick protocol whose
    interference phase annihilates the conditioned state).
    """


class RegimeViolation(CatwalkError):
    """Physical parameters fall outside the validity window of the model."""


class CutoffTooSmall(CatwalkError):
    """Fock-space truncation too small for the requested state or evolution."""


class ZeroProbabilityOutcome(CatwalkError):
    """Requested measurement outcome has numerically zero probability."""


class ConfigError(CatwalkError):
    """Invalid or contradictory experiment configuration."""


class GridTooCoarse(UserWarning):
    """Phase-space grid too coarse: the negativity volume moves by more than
    5% under 2x refinement, or the grid step resolves no coherent state."""
