"""Conditioned coherent-state superpositions of a kicked qubit-resonator system.

The package is organized in five layers:

* :mod:`catwalk.algebra`: exact coherent-state algebra (displacements,
  rotations, the composite kick operator, overlaps, normalization).
* :mod:`catwalk.protocol`: physical-to-dimensionless parameter mapping,
  the labels of the two conditioned protocols (n-pulse walk and
  two-component cat) and :func:`run_conditioned_walk`, the walk measured
  cycle by cycle.
* :mod:`catwalk.dephasing`: density matrices in the coherent-dyad basis
  (:class:`DyadEnsemble`: the labels' amplitude and phase arrays, one
  weight matrix and the labels' Gram matrix, all read-only; a pure state is
  its rank-1 :func:`projector`), the per-pulse dephasing recursion
  (:func:`evolve_dyads`, one conditioning step) and the cat as one such
  step on two labels, with its outcome probability (:func:`cat_density`).
* :mod:`catwalk.observables`: position densities and Wigner functions on
  phase-space grids, the grid-free :func:`diagnostics`, and
  :func:`read_wigner`, which reads every figure of a density's field; each
  reads a :class:`DyadEnsemble`.
* :mod:`catwalk.fock`: independent truncated-Fock-space evolution used to
  cross-check the closed forms.

All types are immutable values and all operations pure functions, safe to
use from concurrent workers without synchronization.
"""

from .algebra import (
    CoherentLabel,
    PulseOperatorSpec,
    SuperposedState,
    apply_pulse_operator,
    displace,
    gram_matrix,
    norm_squared,
    normalize,
    overlap,
    rotate,
    state_overlap,
)
from .dephasing import (
    DyadEnsemble,
    cat_density,
    cross_term_weight,
    dyad_trace,
    evolve_dyads,
    min_eigenvalue,
    projector,
    pure_walk_density,
    purity,
    trace_distance,
    walk_density,
    walk_density_steps,
)
from .errors import (
    CatwalkError,
    ConfigError,
    CutoffTooSmall,
    DegenerateState,
    GridTooCoarse,
    RegimeViolation,
    ZeroProbabilityOutcome,
)
from .observables import (
    GridField,
    PhaseSpaceGrid,
    default_grid,
    diagnostics,
    grid_for,
    negativity_volume,
    position_density,
    read_wigner,
    wigner_mixed,
    wigner_pure,
)
from .protocol import (
    PhysicalParams,
    ProtocolParams,
    cat_labels,
    derive_protocol,
    kick_labels,
    run_conditioned_walk,
    walk_components,
    walk_state,
)

__version__ = "0.1.0"
