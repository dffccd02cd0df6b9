"""Bit-identical Monte Carlo, however the realizations are grouped.

Three ingredients make every estimate in this package a pure function of
(master seed, realization count):

1. each realization's generator seed is derived from the master seed and the
   realization index alone, so no draw depends on which task advances it;
2. the kernel is elementwise over realizations, so the task width and the
   number of steps drawn at a time change no bit;
3. reductions use a fixed-shape pairwise tree over realization indices, so
   the additions happen in the same order whatever the layout that produced
   the values.  Node i of level L covers realizations [i 2^L, (i+1) 2^L), and
   task bounds are multiples of 2^L, so a task can build its own subtrees and
   the joined subtrees finish into the very same tree.

The kernel tasks run on one process per CPU (``mc.resolve_threads``): each
worker writes only its own slots of a shared buffer (its realizations'
values, or for ``mc_step_means`` its subtree sums), so the worker count is
one more layout that changes no bit.

This script derives a few seeds, then computes the same estimate under
several master seeds and, for each, under different kernel widths and draw
blocks, and compares the results bit for bit.  Last, it runs a weak-error
estimate and per-step ensemble means on one worker and on several.
"""

from __future__ import annotations

import time

from langevin_gf import (
    DoubleWell,
    PhaseState,
    SeedPlan,
    derive_seed,
    mc_expectation,
    mc_step_means,
    weak_error_mc,
)
from langevin_gf import mc
from langevin_gf.observables import TEST_FUNCTIONS

plan = SeedPlan(master_seed=20240817)
print("per-realization seeds derived from master seed"
      f" {plan.master_seed} (splitmix64):")
for index in (0, 1, 2, 1_000_000):
    print(f"  realization {index:>8} -> {derive_seed(plan, index):>20}")

model = DoubleWell(v=4.0, beta=2.0).build()
z0 = PhaseState([-2.0], [-2.0])
psi = TEST_FUNCTIONS["cos_sum"]
# (kernel width, draw block): the defaults, then two other layouts.
layouts = [(mc.BATCH_SIZE, mc.DRAW_BLOCK), (512, 2**20), (1000, 2**12)]
defaults = layouts[0]

for master in (plan.master_seed, 0, 2**64 - 1):
    seeded = SeedPlan(master_seed=master)
    results = []
    for width, block in layouts:
        mc.BATCH_SIZE, mc.DRAW_BLOCK = width, block
        est = mc_expectation(model, "gf2", psi, z0, 0.125, 2.0, 4096, seeded)
        results.append((est.mean, est.std_error))
    mc.BATCH_SIZE, mc.DRAW_BLOCK = defaults
    mean, se = results[0]
    print(f"\nmaster seed {master}: mean = {mean!r}, std error = {se!r}")
    print(f"  distinct (mean, std_error) pairs over {len(layouts)} layouts:"
          f" {len(set(results))}")

# The coupled estimator inherits the same contract: the fine chain reuses the
# coarse chain's generators, so the coupling is part of the derivation too.
[[coupled]] = weak_error_mc(model, [psi], z0, [0.125], 2.0, 4096, 8, plan)
print(
    f"\ncoupled weak-error estimate at h=0.125 vs h/8: "
    f"{coupled.mean:+.6e} +- {coupled.std_error:.2e}"
)

# Worker processes: the same calls on one process and on several.  Assigning
# mc.resolve_threads, as the layouts above assign mc.BATCH_SIZE, is for
# demonstration; the engine itself always uses every CPU it may run on.
resolve_threads = mc.resolve_threads
cpus = resolve_threads()
outputs, seconds = [], []
for workers in (1, max(2, cpus)):
    mc.resolve_threads = lambda: workers
    start = time.perf_counter()
    weak = weak_error_mc(model, [psi], z0, [0.25, 0.125], 2.0, 16_384, 8, plan)
    _, means = mc_step_means(model, [psi], z0, 2.0**-6, 400, 8192, plan)
    seconds.append(time.perf_counter() - start)
    outputs.append(
        (tuple((r.mean, r.std_error) for row in weak for r in row), means.tobytes())
    )
mc.resolve_threads = resolve_threads
print(
    f"\n1 worker vs {max(2, cpus)} workers ({cpus} CPUs): outputs identical:"
    f" {outputs[0] == outputs[1]}"
)
print("re-running this script reproduces every digit above.")
print(f"(wall time, which varies: {seconds[0]:.2f} s on 1 worker, {seconds[1]:.2f} s on"
      f" {max(2, cpus)})")
