"""Running temporal averages forgetting their initial conditions.

The dynamics is ergodic: time averages of a test function along one family
of solutions converge to the spatial average under the stationary
Boltzmann-Gibbs density, no matter where the trajectory starts.  The
reference value on the right of each table is that spatial average computed
with tensor Gauss-Legendre quadrature on [-10, 10]^2; everything else is the
scheme.  The linear model uses the deterministic Gaussian-law pipeline, the
double well uses ensemble Monte Carlo.
"""

from __future__ import annotations

import numpy as np

from langevin_gf import (
    DoubleWell,
    LinearOscillator,
    PhaseState,
    SeedPlan,
    ergodic_reference,
    linear_ergodic_series,
    mc_step_means,
    temporal_average,
)
from langevin_gf.observables import TEST_FUNCTIONS

INITIALS = [
    ("(-10, 1)", PhaseState([-10.0], [1.0])),
    ("(2, 0)", PhaseState([2.0], [0.0])),
    ("(0, 3)", PhaseState([0.0], [3.0])),
    ("(4, 2)", PhaseState([4.0], [2.0])),
]
NAMES = list(TEST_FUNCTIONS)
PSIS = [TEST_FUNCTIONS[name] for name in NAMES]
h = 2.0**-6

# --- linear oscillator, deterministic pipeline ---------------------------
linear = LinearOscillator(a=1.0, v=2.0, sigma=0.5)
T = 60.0
n_steps = round(T / h)
print(f"linear oscillator, h = {h}, averaging window T = {T}")
print(f"{'initial':>10}  " + "".join(f"{name:>12}" for name in NAMES))
_, all_means = linear_ergodic_series(linear, PSIS, [z0 for _, z0 in INITIALS], h, n_steps)
for (label, _), means in zip(INITIALS, all_means):
    finals = [temporal_average(series)[-1] for series in means]
    print(f"{label:>10}  " + "".join(f"{value:>12.6f}" for value in finals))
refs = ergodic_reference(linear, PSIS)
print(f"{'reference':>10}  " + "".join(f"{value:>12.6f}" for value in refs))

# --- double well, Monte Carlo pipeline ------------------------------------
double_well = DoubleWell(v=4.0, beta=2.0)
model = double_well.build()
T = 50.0
n_steps = round(T / h)
n_realizations = 2000
print(
    f"\ndouble well, h = {h}, averaging window T = {T}, "
    f"{n_realizations} realizations per initial"
)
print(f"{'initial':>10}  " + "".join(f"{name:>12}" for name in NAMES))
for i, (label, z0) in enumerate(INITIALS):
    _, means = mc_step_means(model, PSIS, z0, h, n_steps, n_realizations, SeedPlan(50 + i))
    finals = [temporal_average(series)[-1] for series in means]
    print(f"{label:>10}  " + "".join(f"{value:>12.6f}" for value in finals))
refs = ergodic_reference(double_well, PSIS)
print(f"{'reference':>10}  " + "".join(f"{value:>12.6f}" for value in refs))
print(
    "\nthe double-well rows carry Monte Carlo noise of a few parts in a"
    " hundred;\nlengthen T or raise the realization count to tighten them."
)
