"""Weak order of the scheme on the linear oscillator, with no sampling at all.

For the linear model the scheme's one-step map is affine with Gaussian noise,
so the distribution after n steps is an exactly computable Gaussian, and the
true solution's first two moments follow from the matrix exponential of the
drift.  Weak errors |E psi(Z(T)) - E psi(Z_N)| are therefore quadrature
numbers, not Monte Carlo estimates, and the fitted order is free of
statistical noise.
"""

from __future__ import annotations

from langevin_gf import LinearOscillator, PhaseState, linear_weak_order
from langevin_gf.observables import TEST_FUNCTIONS

model = LinearOscillator(a=1.0, v=2.0, sigma=0.5)
z0 = PhaseState([3.0], [1.0])
T = 1.0
step_sizes = [2.0**-k for k in range(3, 8)]

print(f"linear oscillator a=1, v=2, sigma=0.5, start (3, 1), horizon T={T}\n")
reports = linear_weak_order(model, list(TEST_FUNCTIONS.values()), z0, T, step_sizes)
for name, report in zip(TEST_FUNCTIONS, reports):
    print(f"test function {name}:")
    print(f"  {'h':>12} {'weak error':>14}")
    for point in report.points:
        print(f"  {point.h:>12.6f} {point.error:>14.6e}")
    print(f"  fitted slope = {report.slope:.4f} (intercept {report.intercept:+.4f})\n")
