"""Optimal-precision costs for multiparameter quantum metrology.

Computes quantum Fisher information matrices and the associated
Cramer-Rao (many-repetition) costs, minimax (single-experiment,
Heisenberg-limit) cost constants, optimal resource allocation between
separately estimated parameters, reparametrization optimization, and the
variational machinery (cross-polytope ground state, Airy bound, inscribed
ball, covariant phase costs) behind the joint minimax constants.
"""

# numpy imports numpy.random on first use, and the searches and the phase
# Monte-Carlo seed it: loading it here keeps that out of each command.
import numpy.random  # noqa: F401

from .bounds import (
    AllocationPlan,
    CostEstimate,
    allocate,
    c_optimal_variance,
    elfving_variance_oracle,
    jnt_lower_bound,
    orthogonal_restricted_sep_plus,
    paradigm_constants,
    per_parameter_spread_constants,
    sep_cost,
    sep_plus_lower_bound,
    sep_plus_optimize,
    spread_variance_oracle,
)
from .catalog import (
    CatalogEntry,
    ModelRecord,
    figure_ball_data,
    figure_ratio_data,
    get_model,
    ordering_violations,
    table_one,
)
from .errors import (
    ConvergenceError,
    HlboundsError,
    InvalidArgumentError,
    NumericalError,
    ResourceLimitError,
    UnsupportedConfigurationError,
)
from .operators import (
    GeneratorSet,
    HermitianOperator,
    ReparamMatrix,
    build_fixed_atom_generators,
    build_free_atom_generators,
    build_pauli_generators,
    build_two_sector_generators,
    combine,
    eigenvalue_patterns,
    max_spread_over_sphere,
    optimize_orthogonal_bound,
    rotated_spreads,
    rotation_bound_ceiling,
    rotation_bound_value,
    spread,
    walsh_hadamard,
)
from .qfi import (
    QfiMatrix,
    SaturabilityReport,
    nuisance_variance,
    qfi_pure,
    saturability,
    trace_inverse,
)
from .states import (
    PhaseStateCoefficients,
    PureState,
    evolve,
    noon_coefficients,
    sin_coefficients,
    superposed_noon_state,
    uniform_state,
)
from .variational import (
    AiryBoundResult,
    PhaseMeasurementModel,
    SimplexSpectrum,
    airy_lower_bound,
    ball_upper_bound,
    phase_cost_analytic,
    phase_cost_monte_carlo,
    simplex_ground_energy,
)

__version__ = "0.1.0"
