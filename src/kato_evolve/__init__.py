"""Numerics for age-structured population equations.

Frozen-time semigroups built on an exactly-discretized renewal equation,
time-ordered semigroup products with their stability bounds, the
piecewise-frozen evolution system with a doubling-ladder convergence test,
mild solutions of the forced problem, a Picard solver for state-coupled
fields, and an independent characteristics stepper for cross-validation.
"""

from .core import (
    AgeGrid,
    BirthKernel,
    ConfigError,
    ConvergenceError,
    GridAlignmentError,
    OperatorField,
    PRESET_NAMES,
    PROFILE_NAMES,
    Scenario,
    StabilityConstants,
    StateVector,
    TimeGrid,
    Tolerances,
    ValidationError,
    apply_generator,
    birth_quadrature,
    build_scenario,
    check_birth_balance,
    graph_state_norm,
    lp_age_norm,
    make_profile,
    matrix_norm,
    neumann_laplacian,
    preset_scenario,
    refine_scenario,
    spatial_norm,
    state_norm,
    upwind_derivative,
)
from .evolution import (
    EvolutionResult,
    allowed_partitions,
    apply_approximant,
    apply_evolution,
    approximant_plan,
    convergence_study,
    eta_constant,
    evolution_bound_margin,
    evolution_cocycle_residual,
    right_derivative_residual,
    s_derivative_residual,
)
from .mild import (
    FORCING_NAMES,
    ForcedTrajectory,
    duhamel_residual,
    forced_bound_margin,
    forcing_preset,
    solve_forced,
)
from .oracle import CompareRow, OracleTrajectory, compare, solve_direct
from .products import (
    ProductPlan,
    apply_product_direct,
    apply_product_sequential,
    birth_chain_margin,
    lp_stability_margin,
    parse_plan,
    stability_margin,
)
from .propagator import (
    chain_matrices,
    default_constants,
    estimate_bounds,
    growth_bound,
)
from .quasilinear import (
    IteratesReport,
    LipschitzReport,
    QuasilinearProblem,
    QuasilinearTrajectory,
    check_lipschitz,
    continuous_dependence_gap,
    contraction_estimate,
    fixed_point_residual,
    norm_coupled_diffusion,
    solve_quasilinear,
)
from .renewal import (
    BirthTrajectory,
    birth_derivative_residual,
    birth_identity_residual,
    branch_values,
    solve_birth,
)
from .semigroup import (
    admissibility_residual,
    apply_semigroup,
    enforce_birth_balance,
    generator_residual,
    semigroup_property_residual,
    strong_continuity_gap,
)
from .verify import CheckResult, VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
