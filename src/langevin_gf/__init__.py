"""Conformal symplectic generating-function integrator for stochastic
Langevin equations with additive noise.

The package is organized in layers: model descriptions (``models``), the
one-step maps and exact linear machinery (``integrators``), the augmented
generating-function derivation of the same scheme (``genfun``), reproducible
Monte Carlo estimation (``mc``), quadrature references and order fitting
(``analysis``), the test-function catalog (``observables``), and a
config-driven CSV-producing command line (``cli``).

Only the names in ``__all__`` are re-exported here, the ones the pipelines,
tests and demos take from the root; everything else is imported from its
module, e.g. ``from langevin_gf.mc import one_step_ms_gap``.
"""

from .analysis import (
    conformal_defect,
    ergodic_reference,
    linear_ergodic_series,
    linear_weak_order,
    mc_weak_order,
    temporal_average,
)
from .genfun import (
    AugmentedState,
    from_augmented,
    g_alpha,
    gf2_step_augmented,
    hamiltonians,
    to_augmented,
)
from .integrators import em_step, gf2_jacobian, gf2_step
from .mc import SeedPlan, derive_seed, mc_expectation, mc_step_means, weak_error_mc
from .models import DoubleWell, LinearOscillator, PhaseState, make_quadratic_model

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # models
    "PhaseState",
    "LinearOscillator",
    "DoubleWell",
    "make_quadratic_model",
    # integrators
    "gf2_step",
    "gf2_jacobian",
    "em_step",
    # genfun
    "AugmentedState",
    "to_augmented",
    "from_augmented",
    "hamiltonians",
    "g_alpha",
    "gf2_step_augmented",
    # mc
    "SeedPlan",
    "derive_seed",
    "mc_expectation",
    "weak_error_mc",
    "mc_step_means",
    # analysis
    "ergodic_reference",
    "conformal_defect",
    "temporal_average",
    "linear_ergodic_series",
    "linear_weak_order",
    "mc_weak_order",
]
