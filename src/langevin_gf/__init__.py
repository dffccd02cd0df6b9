"""Conformal symplectic generating-function integrator for stochastic
Langevin equations with additive noise.

The package is organized in layers: model descriptions (``models``), the
one-step maps and exact linear machinery (``integrators``), the augmented
generating-function derivation of the same scheme (``genfun``), reproducible
Monte Carlo estimation (``mc``), quadrature references and order fitting
(``analysis``), the test-function catalog (``observables``), and a
config-driven CSV-producing command line (``cli``).
"""

from __future__ import annotations

from .analysis import (
    ErgodicReport,
    ErgodicSeries,
    WeakOrderPoint,
    WeakOrderReport,
    conformal_defect,
    ergodic_reference,
    ergodic_report,
    fit_order,
    gauss_expectation,
    linear_ergodic_series,
    linear_weak_order,
    local_ms_error,
    mc_weak_order,
    quad2d,
    temporal_average,
    weak_error_linear,
    weak_order_report,
)
from .errors import (
    ArgumentError,
    CapabilityError,
    ConfigError,
    DegenerateDensityError,
    Error,
    EstimationError,
    EvaluationError,
    RangeError,
    StepSizeError,
)
from .genfun import (
    AugmentedState,
    MultiIndex,
    from_augmented,
    g_alpha,
    gf2_step_augmented,
    hamiltonians,
    to_augmented,
)
from .integrators import (
    AffineStepMap,
    GaussianLaw,
    Trajectory,
    em_step,
    gf2_affine_map,
    gf2_jacobian,
    gf2_step,
    linear_exact_moments,
    propagate_gaussian_chain,
    simulate,
)
from .mc import (
    EstimatorResult,
    IncrementBlock,
    SeedPlan,
    derive_seed,
    generator_for,
    mc_expectation,
    mc_step_means,
    mean_and_se,
    one_step_ms_gap,
    pairwise_sum,
    sample_increments,
    weak_error_mc,
)
from .models import (
    Assumption1Report,
    DoubleWell,
    LangevinModel,
    LinearOscillator,
    PhaseState,
    check_assumption1,
    eval_model,
    gibbs_density,
    gibbs_density_fn,
    lyapunov_v,
    make_quadratic_model,
)
from .observables import TEST_FUNCTIONS, cos_sum, exp_negsq, get_test_function, sin_sumsq

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "Error",
    "ArgumentError",
    "EvaluationError",
    "StepSizeError",
    "CapabilityError",
    "RangeError",
    "EstimationError",
    "DegenerateDensityError",
    "ConfigError",
    # models
    "PhaseState",
    "LangevinModel",
    "LinearOscillator",
    "DoubleWell",
    "Assumption1Report",
    "make_quadratic_model",
    "eval_model",
    "lyapunov_v",
    "check_assumption1",
    "gibbs_density",
    "gibbs_density_fn",
    # integrators
    "GaussianLaw",
    "AffineStepMap",
    "Trajectory",
    "gf2_step",
    "gf2_jacobian",
    "em_step",
    "simulate",
    "linear_exact_moments",
    "gf2_affine_map",
    "propagate_gaussian_chain",
    # genfun
    "AugmentedState",
    "MultiIndex",
    "to_augmented",
    "from_augmented",
    "hamiltonians",
    "g_alpha",
    "gf2_step_augmented",
    # mc
    "SeedPlan",
    "IncrementBlock",
    "EstimatorResult",
    "derive_seed",
    "generator_for",
    "sample_increments",
    "pairwise_sum",
    "mean_and_se",
    "mc_expectation",
    "weak_error_mc",
    "one_step_ms_gap",
    "mc_step_means",
    # analysis
    "quad2d",
    "ergodic_reference",
    "gauss_expectation",
    "weak_error_linear",
    "fit_order",
    "conformal_defect",
    "temporal_average",
    "WeakOrderPoint",
    "WeakOrderReport",
    "weak_order_report",
    "ErgodicSeries",
    "ErgodicReport",
    "ergodic_report",
    "linear_ergodic_series",
    "linear_weak_order",
    "mc_weak_order",
    "local_ms_error",
    # observables
    "TEST_FUNCTIONS",
    "cos_sum",
    "exp_negsq",
    "sin_sumsq",
    "get_test_function",
]
