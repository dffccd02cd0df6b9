from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from langevin_gf import mc
from langevin_gf.errors import (
    ArgumentError,
    EstimationError,
    EvaluationError,
    RangeError,
    StepSizeError,
)
from langevin_gf.analysis import (
    conformal_defect,
    ergodic_reference,
    fit_order,
    linear_ergodic_series,
    linear_weak_order,
    mc_weak_order,
    weak_error_linear,
)
from langevin_gf.cli import _structure_rows, _StructureTrial, main
from langevin_gf.genfun import gf2_step_augmented, to_augmented
from langevin_gf.integrators import (
    AffineStepMap,
    GaussianLaw,
    gf2_affine_map,
    gf2_jacobian,
    gf2_step,
    linear_exact_moments,
    propagate_gaussian_chain,
    simulate,
)
from langevin_gf.mc import (
    BATCH_SIZE,
    DRAW_BLOCK,
    SPLIT_SIZE,
    EstimatorResult,
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
from langevin_gf.models import (
    DoubleWell,
    LangevinModel,
    LinearOscillator,
    PhaseState,
    make_quadratic_model,
)
from test_digests import (
    COUPLED_DIGESTS,
    DIGESTS,
    MODELS,
    PSIS,
    SEEDS,
    _coupled_bytes,
    _output_bytes,
)


def cos_sum(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.cos(np.sum(p, axis=-1) + np.sum(q, axis=-1))


def gaussian_cos_expectation(mean: np.ndarray, cov: np.ndarray) -> float:
    """E cos(u^T Z) under Z ~ N(mean, cov), closed form for u = (1, ..., 1)."""
    u = np.ones(len(mean))
    return math.cos(float(u @ mean)) * math.exp(-0.5 * float(u @ cov @ u))


def quadratic_d2() -> LangevinModel:
    """A d=2 model with coupled stiffness, a non-identity mass and two noises."""
    return make_quadratic_model(
        np.array([[2.0, 0.5], [0.5, 1.0]]),
        np.array([[1.0, 0.2], [0.2, 0.8]]),
        friction=1.0,
        noise=np.array([[0.7, 0.1], [0.0, 0.6]]),
    )


def deterministic_linear(a: float = 1.0, v: float = 2.0) -> LangevinModel:
    """Zero-noise linear model routed through the batched engine path."""
    return LangevinModel(
        force=lambda q: a * q,
        potential=lambda q: 0.5 * a * np.sum(q * q, axis=-1),
        force_jacobian=lambda q: np.full(np.shape(q) + (1,), a),
        mass=np.array([[1.0]]),
        friction=v,
        noise=np.array([[0.0]]),
        force_third=lambda q: np.zeros(np.shape(q) + (1, 1)),
    )


def test_derive_seed_repeatable():
    plan = SeedPlan(master_seed=987654321)
    assert derive_seed(plan, 10) == derive_seed(plan, 10)
    assert derive_seed(plan, 0) != derive_seed(plan, 1)


def test_derive_seed_collision_scan():
    plan = SeedPlan(master_seed=42)
    seeds = {derive_seed(plan, i) for i in range(1_000_000)}
    assert len(seeds) == 1_000_000


def test_derive_seed_master_separation():
    rng = np.random.default_rng(5)
    masters = rng.integers(0, 2**63, size=(10_000, 2))
    indices = rng.integers(0, 1_000_000, size=10_000)
    for (m1, m2), i in zip(masters, indices):
        if m1 == m2:
            continue
        assert derive_seed(SeedPlan(int(m1)), int(i)) != derive_seed(
            SeedPlan(int(m2)), int(i)
        )


def test_derive_seed_rejects_negative_index():
    with pytest.raises(ArgumentError):
        derive_seed(SeedPlan(1), -1)


def test_seed_plan_validation():
    with pytest.raises(ArgumentError):
        SeedPlan(master_seed=-1)
    with pytest.raises(ArgumentError):
        SeedPlan(master_seed=2**64)
    # Only integers, as the CLI's master_seed key: no truncation, no parsing.
    for seed in (1.5, 1.2, 1.0, "7", True, np.float64(1.0), None):
        with pytest.raises(ArgumentError, match="^master_seed must be an unsigned 64-bit integer$"):
            SeedPlan(master_seed=seed)
    assert SeedPlan(np.uint64(2**64 - 1)).master_seed == 2**64 - 1
    assert type(SeedPlan(np.int32(7)).master_seed) is int


def test_sample_increments_moments():
    h = 0.25
    block = sample_increments(2024, 1_000_000, 1, h)
    flat = block.ravel()
    assert abs(float(np.mean(flat))) <= 4.0 * math.sqrt(h / flat.size)
    assert h * 0.99 <= float(np.var(flat)) <= h * 1.01


def test_sample_increments_reproducible():
    a = sample_increments(7, 50, 3, 0.1)
    b = sample_increments(7, 50, 3, 0.1)
    assert np.array_equal(a, b)
    assert a.shape == (50, 3)


def test_generator_stream_is_chunking_invariant():
    whole = generator_for(777).standard_normal((100, 2))
    gen = generator_for(777)
    parts = np.concatenate([gen.standard_normal((37, 2)), gen.standard_normal((63, 2))])
    assert np.array_equal(whole, parts)


def test_sample_increments_validation():
    with pytest.raises(ArgumentError):
        sample_increments(1, 0, 1, 0.1)
    with pytest.raises(ArgumentError):
        sample_increments(1, 10, 1, -0.5)


def test_pairwise_sum_values():
    ints = np.arange(1, 1001, dtype=float)
    assert pairwise_sum(ints) == 500500.0
    rng = np.random.default_rng(13)
    vals = rng.normal(size=10_001)
    assert_allclose(pairwise_sum(vals), math.fsum(vals), rtol=1e-13)


def test_pairwise_sum_axis():
    rng = np.random.default_rng(17)
    table = rng.normal(size=(3, 7))
    rows = pairwise_sum(table, axis=1)
    for i in range(3):
        assert rows[i] == pairwise_sum(table[i])
    with pytest.raises(ArgumentError):
        pairwise_sum(np.empty((0,)))


# Realization counts of the split-tree test: one task, a grain's edges, and
# splits that leave a short last task or a partial last block.
_SPLIT_SIZES = (1, 255, 256, 257, 2049, 4999, 5000, 7919, 16384)


def test_task_subtrees_join_into_the_whole_tree(monkeypatch):
    # Each task reduces the first L levels of the tree over its own
    # realizations and the caller finishes the joined nodes.  That gives the
    # whole tree's bits only because every task bound is a multiple of 2^L;
    # values of widely spread magnitude make a misplaced bound show.
    rng = np.random.default_rng(2024)
    for workers in range(1, 8):
        monkeypatch.setattr(mc, "resolve_threads", lambda: workers)
        for n in _SPLIT_SIZES:
            values = rng.normal(size=(3, n)) * 10.0 ** rng.integers(-8, 9, size=(3, n))
            bounds = mc._batch_bounds(n)
            levels = min(8, int(math.log2(n // len(bounds))))
            nodes = np.concatenate(
                [pairwise_sum(values[:, lo:hi], axis=1, levels=levels) for lo, hi in bounds],
                axis=1,
            )
            assert nodes.shape == (3, math.ceil(n / 2**levels))
            joined = pairwise_sum(nodes, axis=1)
            assert joined.tobytes() == pairwise_sum(values, axis=1).tobytes()


def test_mean_and_se_matches_numpy():
    rng = np.random.default_rng(19)
    vals = rng.normal(size=4097)
    res = mean_and_se(vals)
    assert_allclose(res.mean, np.mean(vals), rtol=1e-12)
    assert_allclose(res.std_error, np.std(vals, ddof=1) / math.sqrt(vals.size), rtol=1e-12)
    assert res.n_samples == 4097


def test_mean_and_se_degenerate():
    res = mean_and_se(np.full(16, 2.5))
    assert res.mean == 2.5
    assert res.std_error == 0.0
    single = mean_and_se([3.0])
    assert single.std_error == 0.0 and single.n_samples == 1


def test_estimator_result_validation():
    with pytest.raises(ArgumentError):
        EstimatorResult(mean=0.0, std_error=-1.0, n_samples=2)
    with pytest.raises(ArgumentError):
        EstimatorResult(mean=0.0, std_error=0.0, n_samples=0)


def test_resolve_threads(monkeypatch):
    # The one worker count: the CPUs this process may run on; no variable moves it.
    for value in (None, "1", "6"):
        if value is None:
            monkeypatch.delenv("LANGEVIN_GF_THREADS", raising=False)
        else:
            monkeypatch.setenv("LANGEVIN_GF_THREADS", value)
        assert mc.resolve_threads() == len(os.sched_getaffinity(0))


def test_mc_expectation_deterministic_dynamics():
    model = deterministic_linear()
    z0 = PhaseState([3.0], [1.0])
    h, n = 0.125, 8
    res = mc_expectation(model, "gf2", cos_sum, z0, h, 1.0, 128, SeedPlan(1))
    _, p, q = simulate(model, z0, h, np.zeros((n, 1)))
    expected = float(cos_sum(p[-1:], q[-1:])[0])
    assert res.std_error == 0.0
    assert_allclose(res.mean, expected, rtol=1e-12)


def test_mc_expectation_constant_psi():
    model = DoubleWell(v=4.0, beta=2.0).build()
    ones = lambda p, q: np.ones(p.shape[0])
    res = mc_expectation(model, "gf2", ones, PhaseState([0.0], [1.0]), 0.125, 1.0, 64, SeedPlan(3))
    assert res.mean == 1.0
    assert res.std_error == 0.0


def test_mc_expectation_gaussian_chain_oracle():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    z0 = PhaseState([3.0], [1.0])
    h, n = 2.0**-4, 16
    res = mc_expectation(model, "gf2", cos_sum, z0, h, 1.0, 32_768, SeedPlan(2718))
    amap = gf2_affine_map(model, h)
    law = propagate_gaussian_chain(
        amap, GaussianLaw(np.array([3.0, 1.0]), np.zeros((2, 2))), n, h
    )
    exact = gaussian_cos_expectation(law.mean, law.cov)
    assert res.std_error > 0
    assert abs(res.mean - exact) <= 4.0 * res.std_error


def test_d2_mc_expectation_agrees_with_the_exact_scheme_law():
    # On a quadratic model the gf2 chain is Gaussian, with the law that the
    # affine map propagates; the band of 5 standard errors is fixed in advance.
    model = quadratic_d2()
    z0 = PhaseState([1.0, 0.0], [0.0, 1.0])
    h, n = 2.0**-4, 16
    res = mc_expectation(model, "gf2", cos_sum, z0, h, 1.0, 1024, SeedPlan(1))
    start = GaussianLaw(np.concatenate([z0.p, z0.q]), np.zeros((4, 4)))
    law = propagate_gaussian_chain(gf2_affine_map(model, h), start, n, h)
    exact = gaussian_cos_expectation(law.mean, law.cov)
    assert res.std_error > 0
    assert abs(res.mean - exact) <= 5.0 * res.std_error


def test_mc_expectation_blowup_reports_location():
    model = DoubleWell(v=4.0, beta=2.0).build()
    with pytest.raises(EstimationError) as info:
        mc_expectation(model, "gf2", cos_sum, PhaseState([0.0], [30.0]), 0.25, 2.0, 4, SeedPlan(8))
    assert str(info.value) == (
        "realization 0, step 5: step produced a non-finite state at h=0.25"
    )
    assert info.value.where == (5, 1, 0)


def test_mc_expectation_worker_invariance():
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0 = PhaseState([0.0], [1.0])
    n_real = BATCH_SIZE * 2 + 6
    first = mc_expectation(model, "gf2", cos_sum, z0, 0.125, 0.5, n_real, SeedPlan(99))
    second = mc_expectation(model, "gf2", cos_sum, z0, 0.125, 0.5, n_real, SeedPlan(99))
    assert first.mean == second.mean
    assert first.std_error == second.std_error


# Seeds where the 32-bit entropy words of SeedSequence change shape.
_EDGE_SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 2, 2**64 - 1]


def test_seed_words_match_seed_sequence():
    rng = np.random.default_rng(8)
    seeds = _EDGE_SEEDS + [int(s) for s in rng.integers(0, 2**64, 500, dtype=np.uint64)]
    words = mc._seed_words(np.array(seeds, dtype=np.uint64))
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
    for seed, row in zip(seeds, words):
        assert np.array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))


def test_vectorised_splitmix_matches_derive_seed():
    for master in (0, 2**64 - 1, 987654321):
        plan = SeedPlan(master)
        seeds = mc._derive_seeds(plan, 1000, 3000)
        assert seeds.dtype == np.uint64
        assert [int(s) for s in seeds] == [derive_seed(plan, i) for i in range(1000, 3000)]


@pytest.mark.parametrize("master", [0, 2**64 - 1, 20240817])
def test_batch_generators_equal_generator_for_derive_seed(master):
    plan = SeedPlan(master)
    lo, hi = 37, 5037
    state = mc._BatchState(PhaseState([0.0], [1.0]), plan, lo, hi)
    assert len(state.generators) == hi - lo
    for index, gen in zip(range(lo, hi), state.generators):
        expected = generator_for(derive_seed(plan, index))
        assert gen.bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize("noise", [[[0.7]], [[0.7, -0.3]]])
def test_chunk_kicks_equal_per_step_matmul(noise):
    sigma = np.array(noise)
    model = dataclasses.replace(deterministic_linear(), noise=sigma)
    dw = np.random.default_rng(3).standard_normal((50, 7, model.noise_dim))
    dw[4, 2] = -0.0
    # Each kick is a sum onto +0.0, one product per noise dimension, in the
    # order of a matmul without fused multiply-adds.
    expected = np.zeros((7, 50))
    for s in range(7):
        for b in range(50):
            for j in range(model.noise_dim):
                expected[s, b] = expected[s, b] + dw[b, s, j] * sigma[0, j]
    if model.noise_dim == 1:
        assert expected.tobytes() == np.stack([dw[:, s, :] @ sigma[0] for s in range(7)]).tobytes()
    kicks = mc._matvec(model.noise, dw.transpose(1, 0, 2))
    assert kicks.flags.c_contiguous
    assert kicks.tobytes() == expected.tobytes()
    # The same sum for a stack of (R, 2, 2) matrices, as the Jacobian passes
    # them, and for one (2, 2) K on (R, 2) rows, where row 3's products are all
    # -0.0: a sum onto +0.0 gives +0.0.
    rng = np.random.default_rng(11)
    rows, stack = rng.standard_normal((40, 2)), rng.standard_normal((40, 2, 2))
    kmat = np.array([[2.0, 0.5], [0.5, 1.0]])
    rows[3] = -0.0
    for matrices, result in (
        (stack, mc._matvec(stack, rows)),
        (np.broadcast_to(kmat, stack.shape), mc._matvec(kmat, rows)),
    ):
        expected = np.zeros(rows.shape)
        for r in range(40):
            for i in range(2):
                for j in range(2):
                    expected[r, i] = expected[r, i] + rows[r, j] * matrices[r, i, j]
        assert result.flags.c_contiguous
        assert result.tobytes() == expected.tobytes()
    assert not np.signbit(expected[3]).any()


def test_blowup_mid_chunk_names_first_realization_and_step(monkeypatch):
    # h = 0.55 from q = 1.5: realizations leave the well within a few steps, at
    # different steps; all 20 steps fit one chunk of every task.  On two
    # workers, tasks in both processes fail.
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0 = PhaseState([0.0], [1.5])
    h, plan = 0.55, SeedPlan(8)
    expected = r"^realization 13, step 6: step produced a non-finite state at h=0\.55$"
    for workers in (1, 2):
        monkeypatch.setattr(mc, "resolve_threads", lambda: workers)
        with pytest.raises(EstimationError, match=expected) as info:
            mc_expectation(model, "gf2", cos_sum, z0, h, 20 * h, 5000, plan)
        assert info.value.where == (6, 1, 13)
        _assert_no_child_left()
    # One step fewer runs clean, so step 6 is the first non-finite one.
    res = mc_expectation(model, "gf2", cos_sum, z0, h, 6 * h, 5000, plan)
    assert math.isfinite(res.mean)


def test_blowup_report_does_not_depend_on_the_task_width(monkeypatch):
    # The run above with tasks of 8 realizations: the first task's realization
    # 0 blows up at step 7 before the task holding realization 13 runs.
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0, h = PhaseState([0.0], [1.5]), 0.55
    for width in (4, 8, 16, 2048):
        monkeypatch.setattr(mc, "BATCH_SIZE", width)
        with pytest.raises(EstimationError) as info:
            mc_expectation(model, "gf2", cos_sum, z0, h, 20 * h, 5000, SeedPlan(8))
        assert str(info.value) == (
            "realization 13, step 6: step produced a non-finite state at h=0.55"
        )
        assert info.value.where == (6, 1, 13)


@pytest.mark.parametrize("width", [BATCH_SIZE, 2])
def test_coupled_failure_does_not_depend_on_the_task_width(monkeypatch, width):
    # Realization 4's fine chain fails at fine step 25, within coarse step 3;
    # realization 30's coarse chain fails at coarse step 4.  In step units of
    # their own chains 4 < 25, but the fine steps of coarse step 3 run first.
    base = DoubleWell(v=1.0, beta=0.5).build()
    model = dataclasses.replace(
        base, force=lambda q: np.where(np.abs(q) > 1.6, np.nan, base.force(q))
    )
    monkeypatch.setattr(mc, "resolve_threads", lambda: 1)
    monkeypatch.setattr(mc, "BATCH_SIZE", width)
    with pytest.raises(EstimationError) as info:
        weak_error_mc(
            model, [cos_sum], PhaseState([2.0], [-1.0]), [0.25], 2.0, 64, 8, SeedPlan(0)
        )
    assert str(info.value) == (
        "realization 4, step 25: step produced a non-finite state at h=0.03125"
    )
    assert info.value.where == (25, 1, 4)


def test_blowup_in_a_worker_share_reports_as_on_one_worker(monkeypatch):
    # From q = 1.5 at h = 0.28 under seed 5, realization 4253 is the first to
    # leave the finite numbers, at step 10, while realizations below 2560 stay
    # finite through step 10.  On two workers the failure therefore arises in
    # the forked worker's task alone and reaches the caller pickled.
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0, h, plan = PhaseState([0.0], [1.5]), 0.28, SeedPlan(5)
    for workers in (1, 2):
        monkeypatch.setattr(mc, "resolve_threads", lambda: workers)
        assert mc._batch_bounds(5000) == [(0, 2560), (2560, 5000)]
        with pytest.raises(EstimationError) as info:
            mc_expectation(model, "gf2", cos_sum, z0, h, 11 * h, 5000, plan)
        assert str(info.value) == (
            "realization 4253, step 10: step produced a non-finite state at h=0.28"
        )
        assert info.value.where == (10, 1, 4253)
        _assert_no_child_left()
    res = mc_expectation(model, "gf2", cos_sum, z0, h, 11 * h, 2560, plan)
    assert math.isfinite(res.mean)


def test_step_means_failure_is_the_earliest_across_processes_and_chunks(monkeypatch):
    # The run above through mc_step_means with one step per draw chunk: the
    # second task fails at step 10 while the first runs on through later
    # chunks, so the report must not depend on which process or chunk a
    # task has reached when another fails.
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0, h, plan = PhaseState([0.0], [1.5]), 0.28, SeedPlan(5)
    monkeypatch.setattr(mc, "DRAW_BLOCK", 2**12)
    assert mc._block_steps(model.noise_dim) == 1
    for workers in (1, 2):
        monkeypatch.setattr(mc, "resolve_threads", lambda: workers)
        with pytest.raises(EstimationError) as info:
            mc_step_means(model, [cos_sum], z0, h, 40, 5000, plan)
        assert str(info.value) == (
            "realization 4253, step 10: step produced a non-finite state at h=0.28"
        )
        assert info.value.where == (10, 1, 4253)
        _assert_no_child_left()


def test_every_estimator_call_reaches_the_pool_through_one_map_batches(monkeypatch):
    # _map_batches is the one door to the workers, which the benchmark
    # tracer wraps: every estimator call enters it once, with two tasks,
    # and forks its one worker there.
    monkeypatch.setattr(mc, "resolve_threads", lambda: 2)
    entries, forks = [], []
    map_batches, fork = mc._map_batches, os.fork

    def counted_map(task, n_batches):
        entries.append(n_batches)
        return map_batches(task, n_batches)

    monkeypatch.setattr(mc, "_map_batches", counted_map)
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    model, z0, plan = DoubleWell(v=4.0, beta=2.0).build(), PhaseState([0.0], [1.0]), SeedPlan(1)
    for call in (
        lambda: mc_expectation(model, "gf2", cos_sum, z0, 0.125, 0.5, 5000, plan),
        lambda: weak_error_mc(model, [cos_sum], z0, [0.25, 0.125], 0.5, 5000, 2, plan),
        lambda: one_step_ms_gap(model, z0, [0.25, 0.125], 4, 5000, plan),
        lambda: mc_step_means(model, [cos_sum], z0, 0.125, 4, 5000, plan),
    ):
        entries.clear()
        forks.clear()
        call()
        assert entries == [2]
        assert forks == [os.getpid()]
    _assert_no_child_left()


def test_a_package_error_without_a_row_propagates_unchanged(monkeypatch):
    # A force that itself raises EvaluationError is not a refused state: the
    # engine adds no realization and keeps its class and its row None, on
    # either worker count, and the structure command adds no trial.  The
    # stepping loop that every path shares names the step, as simulate
    # always did.
    def force(q):
        raise EvaluationError("custom force refused")

    model = dataclasses.replace(DoubleWell(v=4.0, beta=2.0).build(), force=force)
    z0 = PhaseState([0.0], [1.0])
    calls = [
        (lambda: simulate(model, z0, 0.25, np.zeros((4, 1))), (1,)),
        (lambda: mc_expectation(model, "gf2", cos_sum, z0, 0.25, 1.0, 5000, SeedPlan(1)), (1, 2)),
        (lambda: mc_expectation(model, "em", cos_sum, z0, 0.25, 1.0, 5000, SeedPlan(1)), (1, 2)),
        (lambda: weak_error_mc(model, [cos_sum], z0, [0.5, 0.25], 1.0, 5000, 4, SeedPlan(1)),
         (1, 2)),
        (lambda: mc_step_means(model, [cos_sum], z0, 0.25, 4, 5000, SeedPlan(1)), (1, 2)),
    ]
    for call, worker_counts in calls:
        for workers in worker_counts:
            monkeypatch.setattr(mc, "resolve_threads", lambda: workers)
            with pytest.raises(EvaluationError) as info:
                call()
            assert type(info.value) is EvaluationError
            assert str(info.value) == "step 0: custom force refused"
            assert info.value.row is None
            _assert_no_child_left()
    trials = [
        _StructureTrial(PhaseState([0.0], [0.1 * i]), h, 0.5, np.zeros(1), np.zeros((4, 1)))
        for i, h in enumerate([0.1, 0.2])
    ]
    with pytest.raises(EvaluationError) as info:
        _structure_rows(model, trials, 4)
    assert type(info.value) is EvaluationError
    assert str(info.value) == "step 0: custom force refused"
    assert info.value.row is None


# (step, 0 refused / 1 non-finite, realization): a refused step s comes
# before a non-finite state after step s, as it does inside one task.
_TASK_FAILURES = {
    0: EstimationError("realization 1, non-finite at step 7", where=(7, 1, 1)),
    2: EstimationError("realization 30, non-finite at step 5", where=(5, 1, 30)),
    3: EstimationError("realization 41 failed at step 5", where=(5, 0, 41)),
    4: EstimationError("realization 45 failed at step 5", where=(5, 0, 45)),
}


def test_failure_reported_is_the_earliest_over_all_tasks(monkeypatch):
    # One process, so the parent-side list sees every task run.
    monkeypatch.setattr(mc, "resolve_threads", lambda: 1)
    failures = _TASK_FAILURES
    ran = []

    def task(b):
        ran.append(b)
        if b in failures:
            raise failures[b]

    with pytest.raises(EstimationError) as info:
        mc._map_batches(task, 6)
    assert info.value is failures[3]
    assert ran == list(range(6))

    def other(b):
        if b == 1:
            raise EstimationError("not a trajectory failure")
        raise failures[0]

    with pytest.raises(EstimationError, match="^not a trajectory failure$"):
        mc._map_batches(other, 3)


def _nan_right_of_zero(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.where(q[..., 0] > 0.0, np.nan, 1.0)


def _one(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.ones(p.shape[0])


@pytest.mark.parametrize("workers", [1, 2])
def test_a_nonfinite_test_function_value_is_refused(monkeypatch, workers):
    # As the deterministic path refuses it: the endpoint estimators name the
    # test function and the first realization, mc_step_means the first step.
    monkeypatch.setattr(mc, "resolve_threads", lambda: workers)
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0, plan = PhaseState([0.0], [-1.0]), SeedPlan(3)
    calls = [
        (
            lambda: mc_expectation(model, "gf2", _nan_right_of_zero, z0, 0.125, 1.0, 4096, plan),
            "psi 0 is non-finite at realization 867, h=0.125",
        ),
        (
            lambda: weak_error_mc(
                model, [_one, _nan_right_of_zero], z0, [0.25, 0.125], 1.0, 4096, 2, plan
            ),
            "psi 1 is non-finite at realization 867, h=0.25",
        ),
        (
            lambda: mc_step_means(model, [_one, _nan_right_of_zero], z0, 0.125, 8, 4096, plan),
            "the mean of psi 1 is non-finite at step 7",
        ),
    ]
    for call, message in calls:
        with pytest.raises(EvaluationError) as info:
            call()
        assert str(info.value) == message
    _assert_no_child_left()


def test_failure_reported_across_worker_processes(monkeypatch):
    # The twin of the test above on two processes: tasks 3-5 fail in a
    # forked worker, so only the raised exception can be checked.
    monkeypatch.setattr(mc, "resolve_threads", lambda: 2)

    def task(b):
        if b in _TASK_FAILURES:
            raise _TASK_FAILURES[b]

    with pytest.raises(EstimationError) as info:
        mc._map_batches(task, 6)
    assert str(info.value) == "realization 41 failed at step 5"
    assert info.value.where == (5, 0, 41)
    _assert_no_child_left()

    def other(b):
        if b == 2:
            raise EstimationError("not a trajectory failure")
        raise _TASK_FAILURES[0]

    with pytest.raises(EstimationError, match="^not a trajectory failure$") as info:
        mc._map_batches(other, 3)
    assert info.value.where is None
    _assert_no_child_left()

    def two(b):
        # Non-trajectory failures in both processes: the lower task's wins.
        if b in (1, 3):
            raise ValueError(f"task {b} refused")
        raise _TASK_FAILURES[0]

    with pytest.raises(ValueError, match="^task 1 refused$"):
        mc._map_batches(two, 4)
    _assert_no_child_left()

    class Local(Exception):
        """Defined in a function, so pickle cannot find it by name."""

    def unpicklable(b):
        if b == 1:
            raise Local("cannot cross")

    with pytest.raises(EstimationError, match="^Local: cannot cross$"):
        mc._map_batches(unpicklable, 2)
    _assert_no_child_left()


# (realizations, workers) -> task bounds.  Every cut is a multiple of 256,
# the grain, placed at or below its balanced position on the 256-block grid.
# The weak-order benchmark's 16384 realizations run as four tasks of 4096;
# 4096 and 2500 fit one task but still split over the workers.
_BOUNDS = {
    (5000, 1): [(0, 2560), (2560, 5000)],
    (5000, 2): [(0, 2560), (2560, 5000)],
    (5000, 3): [(0, 1536), (1536, 3328), (3328, 5000)],
    (16384, 2): [(0, 4096), (4096, 8192), (8192, 12288), (12288, 16384)],
    (4096, 1): [(0, 4096)],
    (4096, 2): [(0, 2048), (2048, 4096)],
    (2500, 1): [(0, 2500)],
    (2500, 2): [(0, 1280), (1280, 2500)],
    (2100, 7): [(0, 256), (256, 512), (512, 768), (768, 1280), (1280, 1536),
                (1536, 1792), (1792, 2100)],
    (1024, 2): [(0, 1024)],
    (3, 3): [(0, 3)],
}


def test_batch_bounds_are_balanced(monkeypatch):
    # More than one task, or more than SPLIT_SIZE realizations, is rounded up
    # to a multiple of the worker count, so every worker runs as many tasks;
    # a smaller one-task call stays one task.
    for (n, workers), expected in _BOUNDS.items():
        monkeypatch.setattr(mc, "resolve_threads", lambda: workers)
        assert mc._batch_bounds(n) == expected
    for workers in (1, 2, 3, 7):
        monkeypatch.setattr(mc, "resolve_threads", lambda: workers)
        _assert_bounds_split(workers)


def _assert_bounds_split(workers):
    sizes = (1, SPLIT_SIZE, SPLIT_SIZE + 1, BATCH_SIZE, BATCH_SIZE + 1, 2 * BATCH_SIZE + 1)
    for n in (*sizes, 2100, 16384, 100_000):
        bounds = mc._batch_bounds(n)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        n_tasks = math.ceil(n / BATCH_SIZE)
        if n_tasks > 1 or n > SPLIT_SIZE:
            n_tasks = math.ceil(n_tasks / workers) * workers
        assert len(bounds) == n_tasks
        # The grain is 2^L with L = min(8, floor(log2(n / n_tasks))); each
        # width differs by less than a grain from the balanced share of the
        # grain-sized blocks, so none is empty or wider than BATCH_SIZE.
        grain = 2 ** min(8, int(math.log2(n // n_tasks)))
        assert all(lo % grain == 0 for lo, _ in bounds)
        balanced = math.ceil(n / grain) * grain / n_tasks
        for lo, hi in bounds:
            assert 0 < hi - lo <= BATCH_SIZE and abs(hi - lo - balanced) < grain


def test_import_loads_no_process_pool_module():
    # The workers are plain forks; the pool modules would add to every
    # process's start-up time.
    code = (
        "import sys, langevin_gf.mc; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(mc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_FORK_AFTER_BLAS = """
import os
import numpy as np
from langevin_gf import mc
from langevin_gf.models import DoubleWell, PhaseState
from langevin_gf.observables import cos_sum

a = np.random.default_rng(0).standard_normal((1024, 1024))
a @ a
fork, forks = os.fork, []
os.fork = lambda: forks.append(os.getpid()) or fork()
model, z0 = DoubleWell(v=4.0, beta=2.0).build(), PhaseState([2.0], [0.0])
means = []
for workers in (2, 1):
    mc.resolve_threads = lambda: workers
    means.append(mc.mc_step_means(model, [cos_sum], z0, 0.125, 16, 4200, mc.SeedPlan(5))[1])
print(len(forks), means[0].tobytes() == means[1].tobytes())
"""


def test_a_fork_after_a_blas_call_in_the_caller_keeps_the_bits():
    # The CLI's ergodic command runs the Gibbs quadrature, whose products go
    # through BLAS and may start its threads, in the caller just before the
    # engine forks; _map_batches counts only Python threads.  4200 realizations
    # are two tasks, so the two-worker run forks once.  A separate process
    # and a timeout keep a deadlocked fork from hanging the suite.
    src = os.path.dirname(os.path.dirname(mc.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _FORK_AFTER_BLAS],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 True"


def _assert_no_child_left():
    # Every worker process was reaped: the caller has no child at all.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_outputs_are_identical_on_one_and_two_workers(monkeypatch, name):
    # The digest runs: mc_expectation (gf2 and EM), weak_error_mc,
    # one_step_ms_gap and mc_step_means.  The d = 2 model's kernel calls
    # LAPACK inside the forked worker.  The digest runs' realizations split
    # over two workers, so the second arm must fork.
    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(mc, "resolve_threads", lambda: workers)
        forks.clear()
        outputs.append((_output_bytes(name), _coupled_bytes(name)))
        assert bool(forks) == (workers > 1)
        _assert_no_child_left()
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[1][0]).hexdigest() == DIGESTS[name]
    assert hashlib.sha256(outputs[1][1]).hexdigest() == COUPLED_DIGESTS[name]


# (kernel width, draw block, test functions, steps) of the runs below.  A
# small draw block ends a chunk every few steps, fewer than a task stages
# before it reduces them.  With the large one each run is one chunk
# whose last stage is short.  A width of 512 gives more tasks than workers.
_ROUNDS = [
    (1000, 2**12, PSIS[:1], 20),
    *(
        (width, 2**20, psis, 2_000_000 // (len(psis) * 5000) + 1)
        for width in (BATCH_SIZE, 512)
        for psis in (PSIS[:1], PSIS)
    ),
]
# sha256 of their step means, recorded when the caller reduced every chunk
# alone over all realizations, so it pins those bits.
_STEP_MEANS_DIGEST = "b3d33bd2deead0cf1be3f4c24fec81b28f692440f47d05e6ec77bbe26e689801"


def test_step_means_are_identical_over_many_rounds(monkeypatch):
    # Up to five workers, usually more than there are CPUs, write their
    # tasks' tree nodes into disjoint slots of one shared buffer, which a
    # lost or misplaced write would break.
    build, p0, q0 = MODELS["double_well"]
    model, z0 = build(), PhaseState(p0, q0)
    outputs = []
    for workers in (1, 2, 3, 5):
        monkeypatch.setattr(mc, "resolve_threads", lambda: workers)
        runs = []
        for width, block, psis, n_steps in _ROUNDS:
            monkeypatch.setattr(mc, "BATCH_SIZE", width)
            monkeypatch.setattr(mc, "DRAW_BLOCK", block)
            plan = SeedPlan(SEEDS[2])
            _, means = mc_step_means(model, psis, z0, 0.125, n_steps, 5000, plan)
            runs.append(means.astype("<f8").tobytes())
        outputs.append(b"".join(runs))
        _assert_no_child_left()
    assert outputs[1:] == outputs[:1] * 3
    assert hashlib.sha256(outputs[0]).hexdigest() == _STEP_MEANS_DIGEST


def test_worker_exception_is_reraised_with_its_class_and_message(monkeypatch):
    monkeypatch.setattr(mc, "resolve_threads", lambda: 2)
    model, z0 = DoubleWell(v=4.0, beta=2.0).build(), PhaseState([0.0], [1.0])
    parent = os.getpid()
    lo, hi = mc._batch_bounds(5000)[-1]  # a task that runs in the worker

    def psi(p, q):
        if os.getpid() != parent:
            raise ValueError(f"psi refused {p.shape[0]} states")
        return np.zeros(p.shape[0])

    for run in (
        lambda: mc_expectation(model, "gf2", psi, z0, 0.125, 0.5, 5000, SeedPlan(1)),
        lambda: mc_step_means(model, [psi], z0, 0.125, 4, 5000, SeedPlan(1)),
    ):
        with pytest.raises(ValueError, match=f"^psi refused {hi - lo} states$"):
            run()
        _assert_no_child_left()


def test_dead_worker_is_reported_with_its_exit_status(monkeypatch):
    monkeypatch.setattr(mc, "resolve_threads", lambda: 2)
    parent = os.getpid()

    def dying(name):
        original = getattr(mc, name)

        def call(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return original(*args, **kwargs)

        return call

    model, z0 = DoubleWell(v=4.0, beta=2.0).build(), PhaseState([0.0], [1.0])

    def hung(signum, frame):
        raise TimeoutError("the caller is still waiting for the dead worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        for name, run in (
            ("_advance_chunk", lambda: mc_expectation(
                model, "gf2", cos_sum, z0, 0.125, 0.5, 5000, SeedPlan(1))),
            ("_advance_chunk", lambda: mc_step_means(
                model, [cos_sum], z0, 0.125, 4, 5000, SeedPlan(1))),
            # The worker dies in the tree routine it runs on its own
            # realizations inside its task.
            ("pairwise_sum", lambda: mc_step_means(
                model, [cos_sum], z0, 0.125, 4, 5000, SeedPlan(1))),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(mc, name, dying(name))
                with pytest.raises(
                    EstimationError, match=r"^a Monte Carlo worker process exited with status 3$"
                ):
                    run()
            _assert_no_child_left()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_caller_interrupted_in_its_own_share_kills_and_reaps_its_worker(monkeypatch):
    # The worker would sleep through its share; the caller's interrupt must
    # not wait for it.
    monkeypatch.setattr(mc, "resolve_threads", lambda: 2)
    parent = os.getpid()

    def advance(*args, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30)

    monkeypatch.setattr(mc, "_advance_chunk", advance)
    model, z0 = DoubleWell(v=4.0, beta=2.0).build(), PhaseState([0.0], [1.0])
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        mc_expectation(model, "gf2", cos_sum, z0, 0.125, 0.5, 5000, SeedPlan(1))
    assert time.monotonic() - start < 10
    _assert_no_child_left()


def test_a_failed_fork_kills_and_reaps_the_worker_already_forked(monkeypatch):
    # 9000 realizations are three tasks on three workers: the first fork
    # succeeds, the second fails, and that failure is what the call raises.
    monkeypatch.setattr(mc, "resolve_threads", lambda: 3)
    assert len(mc._batch_bounds(9000)) == 3
    fork, attempts = os.fork, []
    refused = OSError("fork refused")

    def failing_fork():
        attempts.append(os.getpid())
        if len(attempts) == 2:
            raise refused
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    model, z0 = DoubleWell(v=4.0, beta=2.0).build(), PhaseState([0.0], [1.0])
    with pytest.raises(OSError) as info:
        mc_expectation(model, "gf2", cos_sum, z0, 0.125, 0.5, 9000, SeedPlan(1))
    assert info.value is refused
    assert len(attempts) == 2
    _assert_no_child_left()


# (kernel width, draw block): the first pair is the old fixed layout, the
# others give uneven task widths and several draws per chunk of steps; at
# (1000, 2^12) a block holds less than one coarse step of refine 16.
_LAYOUTS = [(512, 2**20), (1000, 2**12), (2048, 2**12), (BATCH_SIZE, DRAW_BLOCK)]
# sha256 of the refine-16 pass over three step sizes below, per input; the
# earlier engine (2560-wide tasks, 2^18-normal blocks, each chain scaling
# its whole block) gave the same bits.
_COUPLED_DIGESTS = [
    "cdc10a4584ace5b266bd7a6e93de8ff215382aa1f704495028fdf175202e5ec5",
    "6a74ed58cbd1525c99ba8cd293ce12cd55b43bd36192f30ca6e97cb9c13e2bf8",
]


def test_estimates_are_width_and_block_invariant(monkeypatch):
    quartic = lambda p, q: (np.sum(p * p, axis=-1) + np.sum(q * q, axis=-1)) ** 2
    n_real = 2500
    inputs = [
        (DoubleWell(v=4.0, beta=2.0).build(), PhaseState([0.0], [1.0])),
        (quadratic_d2(), PhaseState([1.0, 0.0], [0.0, 1.0])),
    ]
    for (model, z0), pinned in zip(inputs, _COUPLED_DIGESTS):
        outputs = []
        for width, block in _LAYOUTS:
            monkeypatch.setattr(mc, "BATCH_SIZE", width)
            monkeypatch.setattr(mc, "DRAW_BLOCK", block)
            plans = SeedPlan(41), SeedPlan(42), SeedPlan(43)
            expectation = mc_expectation(model, "gf2", cos_sum, z0, 0.125, 1.0, n_real, plans[0])
            weak = weak_error_mc(model, [cos_sum], z0, [0.25], 1.0, n_real, 4, plans[1])[0][0]
            coupled = weak_error_mc(
                model, PSIS[:2], z0, [0.25, 0.125, 0.0625], 1.0, n_real, 16, plans[1]
            )
            coupled = [(res.mean, res.std_error) for row in coupled for res in row]
            _, means = mc_step_means(model, [cos_sum, quartic], z0, 0.125, 12, n_real, plans[2])
            outputs.append(
                (expectation.mean, expectation.std_error, weak.mean, weak.std_error,
                 means.tobytes(), np.array(coupled, dtype="<f8").tobytes())
            )
        assert all(out == outputs[0] for out in outputs[1:])
        assert hashlib.sha256(outputs[0][-1]).hexdigest() == pinned


def test_coupled_pass_draws_wide_and_holds_one_block(monkeypatch):
    # One worker, so the recorders see every task.  Each generator call
    # fills at least 128 normals but a task's last, and the normals block is
    # the only array of its size a task makes: a chain scales and kicks one
    # coarse step of it at a time.
    monkeypatch.setattr(mc, "resolve_threads", lambda: 1)
    draws, sizes = [], []

    def record(array):
        sizes.append(array.size)
        return array

    draw, advance, matvec, empty = (
        mc._BatchState.draw, mc._advance_chunk, mc._matvec, np.empty
    )

    def recorded_draw(state, n_steps, m, h):
        draws.append((state.lo, state.hi - state.lo, n_steps * m))
        return draw(state, n_steps, m, h)

    def recorded_advance(model, scheme, state, h, dw, *rest):
        return advance(model, scheme, state, h, record(dw), *rest)

    monkeypatch.setattr(mc._BatchState, "draw", recorded_draw)
    monkeypatch.setattr(mc, "_advance_chunk", recorded_advance)
    monkeypatch.setattr(mc, "_matvec", lambda noise, dw: record(matvec(noise, dw)))
    monkeypatch.setattr(np, "empty", lambda *args, **kwargs: record(empty(*args, **kwargs)))
    model = DoubleWell(v=4.0, beta=2.0).build()
    steps = [0.25, 0.125, 0.0625]
    weak_error_mc(model, PSIS[:2], PhaseState([-2.0], [-2.0]), steps, 1.0, 5000, 16, SeedPlan(6))
    monkeypatch.undo()
    tasks = {lo: [(width, normals) for start, width, normals in draws if start == lo]
             for lo, _, _ in draws}
    assert len(tasks) == 2
    blocks = []
    for calls in tasks.values():
        assert len(calls) > 1 and all(normals >= 128 for _, normals in calls[:-1])
        blocks.append(max(width * normals for width, normals in calls))
    for m in (1, 2, 3):
        assert mc._block_steps(m) * BATCH_SIZE * m <= DRAW_BLOCK
    assert sorted(size for size in sizes if size >= min(blocks)) == sorted(blocks)


def test_batch_draw_matches_fresh_generator_stream():
    plan = SeedPlan(1234)
    h, m = 0.1, 3
    state = mc._BatchState(PhaseState([0.0], [1.0]), plan, 5, 9)
    first = state.draw(6, m, h).copy()
    second = state.draw(2, m, h)  # shorter chunk: a prefix of the same buffer
    for b, index in enumerate(range(5, 9)):
        gen = generator_for(derive_seed(plan, index))
        assert np.array_equal(first[b], gen.standard_normal((6, m)) * math.sqrt(h))
        assert np.array_equal(second[b], gen.standard_normal((2, m)) * math.sqrt(h))


def test_weak_error_builds_one_generator_per_realization(monkeypatch):
    created = []
    original = mc.generator_for

    def counting(seed):
        created.append(seed)
        return original(seed)

    monkeypatch.setattr(mc, "generator_for", counting)
    # One process, so the parent-side list sees every generator.
    monkeypatch.setattr(mc, "resolve_threads", lambda: 1)
    model = DoubleWell(v=4.0, beta=2.0).build()
    n_real = BATCH_SIZE + 40
    z0, steps = PhaseState([0.0], [1.0]), [0.25, 0.125, 0.0625]
    weak_error_mc(model, [cos_sum], z0, steps, 0.5, n_real, 2, SeedPlan(3))
    assert len(created) == len(set(created)) == n_real


def test_mc_expectation_em_scheme_runs():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    res = mc_expectation(model, "em", cos_sum, PhaseState([0.5], [0.5]), 0.0625, 0.5, 256, SeedPlan(4))
    assert math.isfinite(res.mean) and res.std_error > 0


def test_mc_expectation_argument_errors():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    z0 = PhaseState([0.0], [1.0])
    with pytest.raises(ArgumentError):
        mc_expectation(model, "gf2", cos_sum, z0, 0.3, 1.0, 16, SeedPlan(1))
    with pytest.raises(ArgumentError):
        mc_expectation(model, "gf2", cos_sum, z0, 0.25, 1.0, 1, SeedPlan(1))
    with pytest.raises(ArgumentError):
        mc_expectation(model, "rk4", cos_sum, z0, 0.25, 1.0, 16, SeedPlan(1))
    with pytest.raises(ArgumentError):
        mc_expectation(model, "gf2", cos_sum, PhaseState([0.0, 0.0], [1.0, 1.0]), 0.25, 1.0, 16, SeedPlan(1))


_LINEAR = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
_Z0 = PhaseState([0.0], [1.0])
# Counts that are not integers, and bools as an index or a step size.
_STEP = "step size must be positive and finite, got "
_TIME = "time must be nonnegative and finite, got "
_STATE = "state dimension does not match the model"
_NO_PSI = "need at least one test function"
_FRICTION = "friction must be nonnegative and finite"
_Z0_D2 = PhaseState([0.0, 0.0], [1.0, 1.0])
_LAW = GaussianLaw(np.zeros(2), np.zeros((2, 2)))

# name -> (whole message, call): each argument kind has one rule and one
# message, raised before any work on every entry point that takes it.
_WRONG_TYPES = {
    "realizations_float": (
        "need at least 2 realizations; got 100.0, not an integer",
        lambda: mc_expectation(_LINEAR, "gf2", cos_sum, _Z0, 0.25, 1.0, 100.0, SeedPlan(1)),
    ),
    "refine_float": (
        "refinement factor must be at least 2; got 2.5, not an integer",
        lambda: weak_error_mc(_LINEAR, [cos_sum], _Z0, [0.25], 1.0, 16, 2.5, SeedPlan(1)),
    ),
    "step_means_n_steps_float": (
        "step count must be nonnegative; got 4.0, not an integer",
        lambda: mc_step_means(_LINEAR, [cos_sum], _Z0, 0.25, 4.0, 16, SeedPlan(1)),
    ),
    "increments_n_float": (
        "step count and noise dimension must be at least 1; got 4.0, not an integer",
        lambda: sample_increments(1, 4.0, 1, 0.1),
    ),
    "ergodic_series_n_steps_float": (
        "step count must be nonnegative; got 4.0, not an integer",
        lambda: linear_ergodic_series(_LINEAR, [cos_sum], [_Z0], 0.25, 4.0),
    ),
    "chain_n_float": (
        "step count must be nonnegative; got 2.0, not an integer",
        lambda: propagate_gaussian_chain(gf2_affine_map(_LINEAR, 0.25), _LAW, 2.0, 0.25),
    ),
    "ergodic_reference_nodes_float": (
        "need at least 2 quadrature nodes per axis; got 50.0, not an integer",
        lambda: ergodic_reference(_LINEAR, [cos_sum], n_nodes=50.0),
    ),
    "weak_error_linear_nodes_float": (
        "need at least 1 quadrature node per axis; got 8.0, not an integer",
        lambda: weak_error_linear(_LINEAR, [cos_sum], _Z0, 0.25, 1.0, n_nodes=8.0),
    ),
    "seed_index_bool": (
        "realization index must be nonnegative; got True, not an integer",
        lambda: derive_seed(SeedPlan(1), True),
    ),
    "step_size_bool": (_STEP + "True", lambda: simulate(_LINEAR, _Z0, True, np.zeros((2, 1)))),
    "coupled_step_size_bool": (
        _STEP + "True",
        lambda: weak_error_mc(_LINEAR, [cos_sum], _Z0, [True], 1.0, 16, 2, SeedPlan(1)),
    ),
    # Step sizes.
    "step_size_huge_int": (_STEP + str(10**400), lambda: gf2_step(_LINEAR, _Z0, 10**400)),
    "step_size_none": (
        _STEP + "None",
        lambda: mc_expectation(_LINEAR, "gf2", cos_sum, _Z0, None, 1.0, 16, SeedPlan(1)),
    ),
    "coupled_step_size_array": (
        _STEP + "array([0.125])",
        lambda: weak_error_mc(
            _LINEAR, [cos_sum], _Z0, [np.array([0.125])], 1.0, 16, 2, SeedPlan(1)
        ),
    ),
    "chain_step_size_bool": (
        _STEP + "True",
        lambda: propagate_gaussian_chain(gf2_affine_map(_LINEAR, 1.0), _LAW, 2, True),
    ),
    "affine_map_step_size_str": (
        _STEP + "'0.1'",
        lambda: AffineStepMap(np.eye(2), np.ones((2, 1)), friction=0.0, h="0.1"),
    ),
    "linear_weak_order_step_size_str": (
        _STEP + "'0.1'",
        lambda: linear_weak_order(_LINEAR, [cos_sum], _Z0, 1.0, ["0.1", 0.25]),
    ),
    "mc_weak_order_step_size_none": (
        _STEP + "None",
        lambda: mc_weak_order(_LINEAR, [cos_sum], _Z0, 1.0, [None, 0.25], 16, 2, SeedPlan(1)),
    ),
    "fit_order_step_size_bool": (_STEP + "True", lambda: fit_order([(True, 1.0), (0.5, 2.0)])),
    # Times and horizons.
    "horizon_none": (
        _TIME + "None",
        lambda: mc_expectation(_LINEAR, "gf2", cos_sum, _Z0, 0.25, None, 16, SeedPlan(1)),
    ),
    "horizon_bool": (
        _TIME + "True",
        lambda: mc_expectation(_LINEAR, "gf2", cos_sum, _Z0, 0.25, True, 16, SeedPlan(1)),
    ),
    "coupled_horizon_none": (
        _TIME + "None",
        lambda: weak_error_mc(_LINEAR, [cos_sum], _Z0, [0.25], None, 16, 2, SeedPlan(1)),
    ),
    "coupled_horizon_str": (
        _TIME + "'1'",
        lambda: weak_error_mc(_LINEAR, [cos_sum], _Z0, [0.25], "1", 16, 2, SeedPlan(1)),
    ),
    "weak_error_linear_horizon_array": (
        _TIME + "array([1.])",
        lambda: weak_error_linear(_LINEAR, [cos_sum], _Z0, 0.25, np.array([1.0])),
    ),
    "linear_weak_order_horizon_none": (
        _TIME + "None",
        lambda: linear_weak_order(_LINEAR, [cos_sum], _Z0, None, [0.5, 0.25]),
    ),
    "mc_weak_order_horizon_str": (
        _TIME + "'1'",
        lambda: mc_weak_order(_LINEAR, [cos_sum], _Z0, "1", [0.5, 0.25], 16, 2, SeedPlan(1)),
    ),
    "exact_moments_time_bool": (_TIME + "True", lambda: linear_exact_moments(_LINEAR, _Z0, True)),
    "to_augmented_time_none": (_TIME + "None", lambda: to_augmented(_Z0, None, _LINEAR)),
    "conformal_defect_time_str": (_TIME + "'1'", lambda: conformal_defect(np.eye(2), 2.0, "1")),
    # Frictions.
    "model_friction_nan": (_FRICTION, lambda: dataclasses.replace(_LINEAR, friction=math.nan)),
    "conformal_defect_friction_nan": (
        _FRICTION, lambda: conformal_defect(np.eye(2), math.nan, 1.0)
    ),
    "conformal_defect_friction_negative": (
        _FRICTION, lambda: conformal_defect(np.eye(2), -1000.0, 1.0)
    ),
    "affine_map_friction_negative": (
        _FRICTION, lambda: AffineStepMap(np.eye(2), np.ones((2, 1)), friction=-1000.0, h=1.0)
    ),
    # Lists of test functions.
    "weak_error_linear_no_psi": (
        _NO_PSI, lambda: weak_error_linear(_LINEAR, [], _Z0, 0.25, 1.0)
    ),
    "linear_weak_order_no_psi": (
        _NO_PSI, lambda: linear_weak_order(_LINEAR, [], _Z0, 1.0, [0.5, 0.25])
    ),
    "ergodic_series_no_psi": (
        _NO_PSI, lambda: linear_ergodic_series(_LINEAR, [], [_Z0], 0.25, 2)
    ),
    "ergodic_reference_no_psi": (_NO_PSI, lambda: ergodic_reference(_LINEAR, [], n_nodes=20)),
    # Non-finite laws, maps and samples, and tree levels that are not counts.
    "law_mean_nan": (
        "mean contains non-finite entries", lambda: GaussianLaw([math.nan, 0.0], np.eye(2))
    ),
    # Checked before symmetry, whose inf - inf would warn.
    "law_cov_inf": (
        "cov contains non-finite entries",
        lambda: GaussianLaw(np.zeros(2), [[math.inf, 0.0], [0.0, 1.0]]),
    ),
    "affine_map_G_nan": (
        "G contains non-finite entries",
        lambda: AffineStepMap(np.eye(2), [[math.nan], [0.0]], friction=0.0, h=0.1),
    ),
    "mean_and_se_nan": (
        "sample contains non-finite entries", lambda: mean_and_se([1.0, math.nan])
    ),
    "pairwise_levels_negative": (
        "tree levels must be nonnegative", lambda: pairwise_sum(np.ones(4), levels=-1)
    ),
    "pairwise_levels_float": (
        "tree levels must be nonnegative; got 1.5, not an integer",
        lambda: pairwise_sum(np.ones(4), levels=1.5),
    ),
    "pairwise_levels_bool": (
        "tree levels must be nonnegative; got True, not an integer",
        lambda: pairwise_sum(np.ones(4), levels=True),
    ),
    # States of another dimension than the model's.
    "simulate_state_d2": (_STATE, lambda: simulate(_LINEAR, _Z0_D2, 0.1, np.zeros((2, 1)))),
    "expectation_state_d2": (
        _STATE,
        lambda: mc_expectation(_LINEAR, "gf2", cos_sum, _Z0_D2, 0.25, 1.0, 16, SeedPlan(1)),
    ),
    "coupled_state_d2": (
        _STATE,
        lambda: weak_error_mc(_LINEAR, [cos_sum], _Z0_D2, [0.25], 1.0, 16, 2, SeedPlan(1)),
    ),
    "ms_gap_state_d2": (
        _STATE, lambda: one_step_ms_gap(_LINEAR, _Z0_D2, [0.25], 2, 16, SeedPlan(1))
    ),
    "step_means_state_d2": (
        _STATE, lambda: mc_step_means(_LINEAR, [cos_sum], _Z0_D2, 0.25, 2, 16, SeedPlan(1))
    ),
    "weak_error_linear_state_d2": (
        _STATE, lambda: weak_error_linear(_LINEAR, [cos_sum], _Z0_D2, 0.25, 1.0)
    ),
    "linear_weak_order_state_d2": (
        _STATE, lambda: linear_weak_order(_LINEAR, [cos_sum], _Z0_D2, 1.0, [0.5, 0.25])
    ),
    "ergodic_series_state_d2": (
        _STATE, lambda: linear_ergodic_series(_LINEAR, [cos_sum], [_Z0, _Z0_D2], 0.25, 2)
    ),
}


@pytest.mark.parametrize("name", sorted(_WRONG_TYPES))
def test_counts_and_step_sizes_of_the_wrong_type_are_refused(name):
    message, call = _WRONG_TYPES[name]
    with pytest.raises(ArgumentError) as info:
        call()
    assert str(info.value) == message


def test_every_gf2_path_refuses_an_overflowing_e_vh(tmp_path, monkeypatch, capsys):
    # e^{vh} overflows a float past v h = 709.8; every path that would form
    # it refuses v h = 800 with one RangeError, the estimators before any fork.
    model, z0, plan = LinearOscillator(1.0, 800.0, 1.0).build(), _Z0, SeedPlan(1)
    monkeypatch.setattr(mc, "resolve_threads", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked before refusing"))
    calls = [
        lambda: gf2_step(model, z0, 1.0),
        lambda: gf2_jacobian(model, z0, 1.0),
        lambda: simulate(model, z0, 1.0, np.zeros((2, 1))),
        lambda: gf2_affine_map(model, 1.0),
        lambda: gf2_step_augmented(model, [0.0, 0.0], [1.0, 0.0], 1.0),
        lambda: mc_expectation(model, "gf2", cos_sum, z0, 1.0, 2.0, 5000, plan),
        lambda: weak_error_mc(model, [cos_sum], z0, [1.0], 2.0, 5000, 2, plan),
        lambda: one_step_ms_gap(model, z0, [1.0], 2, 5000, plan),
        lambda: mc_step_means(model, [cos_sum], z0, 1.0, 2, 5000, plan),
    ]
    for call in calls:
        with pytest.raises(RangeError) as info:
            call()
        assert str(info.value) == "e^(vt) overflows at v*t = 800.0"
    model_section = {"kind": "linear", "a": 1.0, "v": 800.0, "sigma": 1.0}
    runs = {
        "simulate": {"step_size": 1.0, "n_steps": 2, "initials": [[0.0, 1.0]]},
        # h >= 1e-3 puts every trial's v h past the limit.
        "structure": {"trials": 2, "volume_steps": 2},
    }
    for command, experiment in runs.items():
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps({
            "model": {**model_section, "v": 800.0 if command == "simulate" else 1e6},
            "experiment": experiment,
            "output": {"directory": str(tmp_path / command)},
        }))
        assert main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: e^(vt) overflows at v*t = ") and err.count("\n") == 1
        assert not (tmp_path / command).exists()


def test_numpy_integer_counts_give_the_bits_of_python_integers():
    assert derive_seed(SeedPlan(7), np.int64(3)) == derive_seed(SeedPlan(7), 3)
    results = [
        mc_expectation(_LINEAR, "gf2", cos_sum, _Z0, 0.25, 1.0, n, SeedPlan(2))
        for n in (64, np.int64(64))
    ]
    assert results[0] == results[1]
    assert type(results[1].n_samples) is int
    means = [
        mc_step_means(_LINEAR, [cos_sum], _Z0, 0.25, n, 64, SeedPlan(2)) for n in (4, np.int32(4))
    ]
    assert all(np.array_equal(a, b) for a, b in zip(*means))


def test_fast_path_matches_per_state_path():
    # Each realization's endpoint in the batched engine equals, bit for bit,
    # gf2_step iterated from one state on that realization's own increments.
    # A custom copy without the analytic third derivative steps alike.
    custom = dataclasses.replace(DoubleWell(v=4.0, beta=2.0).build(), force_third=None)
    inputs = [
        (custom, PhaseState([-2.0], [-2.0])),
        (quadratic_d2(), PhaseState([1.0, 0.0], [0.0, 1.0])),
    ]
    plan, h, n, n_real = SeedPlan(31337), 0.125, 8, 40
    for model, z0 in inputs:
        ends = []

        def record(p, q):
            ends.append((p.copy(), q.copy()))
            return np.zeros(p.shape[0])

        mc_expectation(model, "gf2", record, z0, h, n * h, n_real, plan)
        p_mc = np.concatenate([p for p, _ in ends])
        q_mc = np.concatenate([q for _, q in ends])
        assert p_mc.shape == (n_real, model.dim)
        for i in range(n_real):
            gen = generator_for(derive_seed(plan, i))
            incs = gen.standard_normal((n, model.noise_dim)) * math.sqrt(h)
            _, p, q = simulate(model, z0, h, incs)
            assert p_mc[i].tobytes() == p[-1].tobytes()
            assert q_mc[i].tobytes() == q[-1].tobytes()


def test_singular_step_matrix_fails_alike_for_every_kind():
    # At h = sqrt(1/2) from q = 0 the double well's step matrix is
    # 1 + (h^2/2)(-4) = -2.2e-16.  At h = sqrt(2) the d = 2 model's is
    # about diag(1, 1e-13).
    built = DoubleWell(v=4.0, beta=2.0).build()
    d1_start, d1_h = PhaseState([0.0], [0.0]), math.sqrt(0.5)
    cases = [
        (built, d1_start, d1_h, "9.007e+15"),
        (dataclasses.replace(built, force_third=None), d1_start, d1_h, "9.007e+15"),
        (
            make_quadratic_model(np.diag([0.0, -1.0 + 1e-13]), np.eye(2), 1.0, np.eye(2)),
            PhaseState([1.0, 0.0], [0.0, 1.0]),
            math.sqrt(2.0),
            "1.002e+13",
        ),
    ]
    for model, z0, h, estimate in cases:
        reason = (
            f"implicit step matrix has condition estimate {estimate} at h={h}; "
            "reduce the step size"
        )
        with pytest.raises(StepSizeError) as info:
            gf2_step(model, z0, h)
        assert str(info.value) == reason
        with pytest.raises(StepSizeError) as info:
            simulate(model, z0, h, np.zeros((1, model.noise_dim)))
        assert str(info.value) == f"step 0: {reason}"
        with pytest.raises(EstimationError) as info:
            mc_expectation(model, "gf2", cos_sum, z0, h, h, 8, SeedPlan(1))
        assert str(info.value) == f"realization 0, step 0: {reason}"
        assert info.value.where == (0, 0, 0)
        with pytest.raises(EstimationError) as info:
            mc_step_means(model, [cos_sum], z0, h, 1, 8, SeedPlan(1))
        assert str(info.value) == f"realization 0, step 0: {reason}"
        assert info.value.where == (0, 0, 0)


# The default draw block, the earlier default of 2^18 normals, and a block of
# one coarse step.
@pytest.mark.parametrize("block", [DRAW_BLOCK, 2**18, 2**12])
def test_weak_error_raises_the_first_failing_step_size(monkeypatch, block):
    # From (-2, -2), run one h at a time, h = 0.25 diverges at step 9 and
    # h = 0.375 already at step 7.  The error is the first failing h's, in
    # the order given, as that loop raised it; with one coarse step per draw
    # block, h = 0.375 fails in an earlier block than h = 0.25, so this also
    # shows that a failure stops only its own chain.
    monkeypatch.setattr(mc, "DRAW_BLOCK", block)
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0 = PhaseState([-2.0], [-2.0])
    steps = [0.125, 0.25, 0.375, 0.1875]
    for workers in (1, 2):
        monkeypatch.setattr(mc, "resolve_threads", lambda: workers)
        with pytest.raises(EstimationError) as info:
            weak_error_mc(model, [cos_sum], z0, steps, 3.0, 3000, 4, SeedPlan(8))
        assert str(info.value) == (
            "realization 0, step 9: step produced a non-finite state at h=0.25"
        )
        assert info.value.where == (9, 1, 0)
        _assert_no_child_left()


def test_weak_error_identical_chains_vanish():
    # refine = 1 couples two identical chains on one path, so every
    # realization's psi gap is exactly zero.
    model = DoubleWell(v=4.0, beta=2.0).build()

    def gap(coarse, fine):
        return cos_sum(coarse.p, coarse.q) - cos_sum(fine.p, fine.q)

    [[res]] = mc._endpoint_values(
        model, "gf2", PhaseState([0.0], [1.0]), [(0.125, 8)], 64, SeedPlan(5), 1, [gap]
    )
    assert res.mean == 0.0
    assert res.std_error == 0.0


def test_weak_error_refine_validation():
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0 = PhaseState([0.0], [1.0])
    with pytest.raises(ArgumentError):
        weak_error_mc(model, [cos_sum], z0, [0.125], 1.0, 32, 1, SeedPlan(5))
    with pytest.raises(ArgumentError):
        weak_error_mc(model, [cos_sum], z0, [0.125], 1.0, 32, 0, SeedPlan(5))


def test_weak_error_gaussian_chain_oracle():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    z0 = PhaseState([3.0], [1.0])
    h, refine = 0.25, 4
    [[res]] = weak_error_mc(model, [cos_sum], z0, [h], 1.0, 32_768, refine, SeedPlan(314))
    init = GaussianLaw(np.array([3.0, 1.0]), np.zeros((2, 2)))
    coarse = propagate_gaussian_chain(gf2_affine_map(model, h), init, 4, h)
    fine = propagate_gaussian_chain(gf2_affine_map(model, h / refine), init, 16, h / refine)
    exact = gaussian_cos_expectation(coarse.mean, coarse.cov) - gaussian_cos_expectation(
        fine.mean, fine.cov
    )
    assert abs(res.mean - exact) <= 4.0 * res.std_error


def test_weak_error_se_scaling():
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0 = PhaseState([-2.0], [-2.0])
    [[small]] = weak_error_mc(model, [cos_sum], z0, [0.125], 1.0, 4096, 2, SeedPlan(21))
    [[large]] = weak_error_mc(model, [cos_sum], z0, [0.125], 1.0, 8192, 2, SeedPlan(21))
    ratio = large.std_error / small.std_error
    assert 0.7071 * 0.8 <= ratio <= 0.7071 * 1.2


def test_weak_error_worker_invariance():
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0 = PhaseState([0.0], [1.0])
    n_real = BATCH_SIZE + 40
    [[first]] = weak_error_mc(model, [cos_sum], z0, [0.25], 1.0, n_real, 2, SeedPlan(77))
    [[second]] = weak_error_mc(model, [cos_sum], z0, [0.25], 1.0, n_real, 2, SeedPlan(77))
    assert first.mean == second.mean
    assert first.std_error == second.std_error


def test_mc_step_means_deterministic_dynamics():
    model = deterministic_linear()
    z0 = PhaseState([3.0], [1.0])
    h, n = 0.125, 10
    times, means = mc_step_means(model, [cos_sum], z0, h, n, 8, SeedPlan(6))
    _, p, q = simulate(model, z0, h, np.zeros((n, 1)))
    expected = cos_sum(p, q)
    assert_allclose(times, h * np.arange(n + 1))
    assert_allclose(means[0], expected, rtol=1e-12)


def test_mc_step_means_multiple_functions_and_workers():
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0 = PhaseState([0.0], [1.0])
    quartic = lambda p, q: (np.sum(p * p, axis=-1) + np.sum(q * q, axis=-1)) ** 2
    n_real = BATCH_SIZE * 2 + 6
    t1, m1 = mc_step_means(model, [cos_sum, quartic], z0, 0.125, 40, n_real, SeedPlan(55))
    t2, m2 = mc_step_means(model, [cos_sum, quartic], z0, 0.125, 40, n_real, SeedPlan(55))
    assert np.array_equal(m1, m2)
    assert np.array_equal(t1, t2)
    assert m1.shape == (2, 41)
    assert np.all(np.isfinite(m1))


def test_mc_step_means_zero_steps():
    model = DoubleWell(v=4.0, beta=2.0).build()
    times, means = mc_step_means(model, [cos_sum], PhaseState([0.5], [0.5]), 0.1, 0, 4, SeedPlan(1))
    assert times.shape == (1,) and times[0] == 0.0
    assert_allclose(means[0, 0], math.cos(1.0))



# sha256 of the step means of the indicator psi below, recorded before the
# tasks reduced their own realizations.
_INDICATOR_DIGEST = "b56c6e747a5968c25df839e696434719a299b754ea350f594847dd0449d81b08"


def test_step_means_cast_every_psi_output():
    # Column 0 takes a psi's output as the later columns and the endpoint
    # driver do: integer and boolean values are cast to floats.  A scalar psi,
    # which once raised IndexError there, is refused on every path
    # (test_analysis.py::test_psi_off_the_row_contract_is_refused_on_every_path).
    build, p0, q0 = MODELS["double_well"]
    model, z0, plan = build(), PhaseState(p0, q0), SeedPlan(SEEDS[0])
    one = lambda p, q: np.ones(p.shape[:-1], dtype=int)
    _, means = mc_step_means(model, [one], z0, 0.125, 12, 5000, plan)
    assert np.array_equal(means, np.ones((1, 13)))
    assert mc_expectation(model, "gf2", one, z0, 0.125, 1.5, 5000, plan).mean == 1.0
    _, means = mc_step_means(model, [lambda p, q: q[:, 0] > 0], z0, 0.125, 12, 5000, plan)
    assert hashlib.sha256(means.astype("<f8").tobytes()).hexdigest() == _INDICATOR_DIGEST


def test_step_means_share_tree_nodes_not_realizations(monkeypatch):
    # Each task reduces its own realizations, so no buffer shared with the
    # workers holds more than n_steps x k x ceil(R / 2^L) values.
    monkeypatch.setattr(mc, "resolve_threads", lambda: 2)
    shared_empty, shapes = mc._shared_empty, []
    monkeypatch.setattr(
        mc, "_shared_empty", lambda shape: shapes.append(shape) or shared_empty(shape)
    )
    model, z0 = DoubleWell(v=4.0, beta=2.0).build(), PhaseState([0.0], [1.0])
    bounds = mc._batch_bounds(5000)
    n_steps = mc._block_steps(model.noise_dim) + 5  # more than one draw chunk
    mc_step_means(model, PSIS, z0, 0.125, n_steps, 5000, SeedPlan(3))
    assert shapes
    assert max(math.prod(shape) for shape in shapes) <= n_steps * 3 * math.ceil(5000 / 256)
    _assert_no_child_left()


def test_step_count_tolerance_is_relative_to_the_horizon():
    # An absolute 1e-9 below T = 1 once gave 0 steps for (1e-9, 5e-10), a
    # point-mass estimate at z0, and 2 steps for (1e-10, 1.5e-10).
    for h, T in ((1e-9, 5e-10), (1e-10, 1.5e-10)):
        with pytest.raises(ArgumentError, match="not an integer multiple"):
            mc._steps_for(h, T)
    assert mc._steps_for(0.1, 0.3) == 3
    assert mc._steps_for(0.1, 0.0) == 0
    model, z0 = DoubleWell(v=4.0, beta=2.0).build(), PhaseState([0.5], [0.5])
    with pytest.raises(ArgumentError, match="not an integer multiple"):
        mc_expectation(model, "gf2", cos_sum, z0, 1e-9, 5e-10, 4, SeedPlan(0))
