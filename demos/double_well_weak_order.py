"""Weak order on the double-well model via coupled Monte Carlo.

No closed-form law exists here, so each coarse chain is compared with a fine
chain driven by the same Brownian path: the fine step is h/refine and every
coarse increment is the sum of its refine fine increments.  Differencing
psi(coarse endpoint) - psi(fine endpoint) realization by realization cancels
most of the sampling noise, which is what makes the order visible at modest
sample sizes.  Points whose error is statistically indistinguishable from
zero (|error| < 2 standard errors) are excluded from the fit and flagged.
"""

from __future__ import annotations

import time

from langevin_gf import DoubleWell, PhaseState, SeedPlan, mc_weak_order
from langevin_gf.observables import TEST_FUNCTIONS

model = DoubleWell(v=4.0, beta=2.0).build()
z0 = PhaseState([-2.0], [-2.0])
T = 1.0
step_sizes = [2.0**-k for k in range(3, 8)]
n_realizations = 20_000
refine = 16
plan = SeedPlan(master_seed=424242)

print(
    f"double well v=4, beta=2, start (-2, -2), T={T}, "
    f"{n_realizations} realizations, fine step h/{refine}"
)
start = time.perf_counter()
reports = mc_weak_order(
    model, list(TEST_FUNCTIONS.values()), z0, T, step_sizes, n_realizations, refine, plan
)
print(f"one coupled pass for every step size and test function: "
      f"{time.perf_counter() - start:.1f} s\n")
for name, report in zip(TEST_FUNCTIONS, reports):
    print(f"test function {name}:")
    print(f"  {'h':>12} {'weak error':>14} {'std error':>12}  pipeline")
    for point in report.points:
        print(
            f"  {point.h:>12.6f} {point.error:>14.6e} {point.std_error:>12.2e}  {point.pipeline}"
        )
    print(f"  fitted slope = {report.slope:.4f}\n")
