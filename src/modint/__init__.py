"""Modular-variable toolkit for matter-wave interference and entanglement detection.

Positions split into an integer multiple of a period plus a modular remainder;
momenta likewise against the conjugate period. The variance-based separability
criterion, its robustness to classical admixtures, measurement sampling, and
free-space dynamics all live in the submodules re-exported here. Units: hbar = 1.
"""

from .criterion import (
    CriterionReport,
    admixture_state,
    criterion_bound,
    evaluate_criterion,
    robustness_threshold,
    visibility_of_admixture,
)
from .dynamics import (
    PropagationParams,
    ProtocolSpec,
    far_field_map,
    far_field_momentum_density,
    fit_fringe_visibility,
    free_propagate,
    protocol_visibility,
)
from .grids import (
    GridSpec,
    GridState,
    IncommensurateGridError,
    TwoParticleGridState,
    commutator_expectation,
    observable_stats,
    observable_values,
)
from .modvar import (
    H_PLANCK,
    ModularScale,
    ModularValue,
    fringe_function,
    integer_part,
    modular_decompose,
    modular_part,
    mpe_modular_relative_variance,
    smp_commutator_expectation,
    smp_integer_momentum_variance,
    smp_modular_position_variance,
    squeezing_s1,
    squeezing_s2,
)
from .sampling import (
    EstimateReport,
    SampleSet,
    estimate_criterion,
    sample_measurements,
)
from .spectral import EigenSolveReport, brute_force_c, kummer_M, perturbative_c, solve_c
from .states import (
    Envelope,
    GaussianEnvelope,
    MixtureState,
    SincEnvelope,
    SuperposedState,
    TwoParticleState,
    WavePacket,
    build_classical_correlated,
    build_mpe,
    build_multislit,
    build_smp,
    default_grid,
    discretize,
    joint_position_density,
    mix,
    momentum_density,
    position_density,
    state_from_descriptor,
)

__version__ = "0.1.0"
