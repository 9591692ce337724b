"""Conditioned coherent-state superpositions of a kicked qubit-resonator system.

The package is organized in five layers:

* :mod:`catwalk.algebra`: exact coherent-state algebra (displacements,
  rotations, the composite kick operator, overlaps, normalization).
* :mod:`catwalk.protocol`: physical-to-dimensionless parameter mapping and
  the two conditioned protocols (n-pulse walk and two-component cat).
* :mod:`catwalk.dephasing`: density matrices in the coherent-dyad basis
  (:class:`DyadEnsemble`; a pure state is its rank-1 :func:`projector`) and
  the per-pulse dephasing recursion.
* :mod:`catwalk.observables`: position densities, Wigner functions, and
  scalar diagnostics on phase-space grids.  Everything but the position
  density reads a :class:`DyadEnsemble`.
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
    qubit_coherence_decay,
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
    position_wavefunction,
    wigner_mixed,
    wigner_pure,
)
from .protocol import (
    JointState,
    MeasurementOutcome,
    PhysicalParams,
    ProtocolParams,
    cat_labels,
    cat_state,
    cat_success_probability,
    derive_protocol,
    embed_ground,
    initial_joint,
    kick_labels,
    project_qubit,
    run_conditioned_walk,
    single_cycle,
    walk_components,
    walk_record_probabilities,
    walk_state,
)

__version__ = "0.1.0"
