from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from langevin_gf import mc
from langevin_gf.errors import ArgumentError, EstimationError
from langevin_gf.integrators import (
    GaussianLaw,
    gf2_affine_map,
    propagate_gaussian_chain,
    simulate,
)
from langevin_gf.mc import (
    BATCH_SIZE,
    DRAW_BLOCK,
    EstimatorResult,
    IncrementBlock,
    SeedPlan,
    coarsen,
    derive_seed,
    generator_for,
    mc_expectation,
    mc_running_average,
    mc_step_means,
    mean_and_se,
    pairwise_sum,
    sample_increments,
    weak_error_mc,
)
from langevin_gf.models import (
    DoubleWell,
    LangevinModel,
    LinearOscillator,
    PhaseState,
)


def cos_sum(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.cos(np.sum(p, axis=-1) + np.sum(q, axis=-1))


def gaussian_cos_expectation(mean: np.ndarray, cov: np.ndarray) -> float:
    """E cos(P + Q) under N(mean, cov), closed form for u = (1, 1)."""
    u = np.ones(2)
    return math.cos(float(u @ mean)) * math.exp(-0.5 * float(u @ cov @ u))


def deterministic_linear(a: float = 1.0, v: float = 2.0) -> LangevinModel:
    """Zero-noise linear model routed through the batched engine path."""
    return LangevinModel(
        dim=1,
        noise_dim=1,
        force=lambda q: a * q,
        potential=lambda q: 0.5 * a * float(np.sum(q * q)),
        force_jacobian=lambda q: np.full_like(q, a),
        mass=np.array([[1.0]]),
        friction=v,
        noise=np.array([[0.0]]),
        kind="linear",
        force_third=lambda q: np.zeros((1, 1, 1)),
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
    with pytest.raises(ArgumentError):
        SeedPlan(master_seed=1, derivation="md5")


def test_sample_increments_moments():
    h = 0.25
    block = sample_increments(2024, 1_000_000, 1, h)
    flat = block.values.ravel()
    assert abs(float(np.mean(flat))) <= 4.0 * math.sqrt(h / flat.size)
    assert h * 0.99 <= float(np.var(flat)) <= h * 1.01


def test_sample_increments_reproducible():
    a = sample_increments(7, 50, 3, 0.1)
    b = sample_increments(7, 50, 3, 0.1)
    assert np.array_equal(a.values, b.values)
    assert (a.h, a.m, a.n) == (0.1, 3, 50)


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


def test_coarsen_pairs():
    block = IncrementBlock(h=0.5, m=1, n=2, values=np.array([[0.1], [-0.2]]))
    out = coarsen(block, 2)
    assert out.n == 1 and out.m == 1
    assert out.h == 1.0
    assert out.values[0, 0] == np.float64(0.1) + np.float64(-0.2)


def test_coarsen_identity_and_errors():
    block = sample_increments(3, 12, 2, 0.01)
    same = coarsen(block, 1)
    assert np.array_equal(same.values, block.values)
    with pytest.raises(ArgumentError):
        coarsen(block, 5)
    with pytest.raises(ArgumentError):
        coarsen(block, 0)


def test_coarsen_exact_sums():
    rng = np.random.default_rng(9)
    dyadic = rng.integers(-(2**20), 2**20, size=(64, 2)).astype(float) * 2.0**-10
    block = IncrementBlock(h=0.125, m=2, n=64, values=dyadic)
    out = coarsen(block, 16)
    expected = np.array(
        [
            [math.fsum(dyadic[i * 16: (i + 1) * 16, j]) for j in range(2)]
            for i in range(4)
        ]
    )
    assert np.array_equal(out.values, expected)


def test_coarsen_variance_law():
    block = sample_increments(11, 200_000, 1, 0.01)
    out = coarsen(block, 4)
    var = float(np.var(out.values.ravel()))
    assert abs(var - 0.04) <= 0.04 * 4.0 * math.sqrt(2.0 / out.values.size)


def test_increment_block_validation():
    with pytest.raises(ArgumentError):
        IncrementBlock(h=0.1, m=2, n=3, values=np.zeros((3, 1)))
    with pytest.raises(ArgumentError):
        IncrementBlock(h=0.1, m=1, n=1, values=np.array([[np.inf]]))
    with pytest.raises(ArgumentError):
        IncrementBlock(h=0.0, m=1, n=1, values=np.zeros((1, 1)))


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
    from langevin_gf.mc import resolve_threads

    for value in (None, "", "0", "1", "6", "abc", "-2"):
        if value is None:
            monkeypatch.delenv("LANGEVIN_GF_THREADS", raising=False)
        else:
            monkeypatch.setenv("LANGEVIN_GF_THREADS", value)
        assert resolve_threads() == 1


def test_mc_expectation_deterministic_dynamics():
    model = deterministic_linear()
    z0 = PhaseState([3.0], [1.0])
    h, n = 0.125, 8
    res = mc_expectation(model, "gf2", cos_sum, z0, h, 1.0, 128, SeedPlan(1))
    path = simulate(model, "gf2", z0, h, n, np.zeros((n, 1)))
    end = path.states[-1]
    expected = float(cos_sum(end.p[None, :], end.q[None, :])[0])
    assert res.std_error == 0.0
    assert_allclose(res.mean, expected, rtol=1e-12)


def test_mc_expectation_constant_psi():
    model = DoubleWell(v=4.0, beta=2.0).build()
    ones = lambda p, q: np.ones(p.shape[0])
    res = mc_expectation(model, "gf2", ones, PhaseState([0.0], [1.0]), 0.125, 1.0, 64, SeedPlan(3))
    assert res.mean == 1.0
    assert res.std_error == 0.0


def test_mc_expectation_gaussian_chain_oracle():
    osc = LinearOscillator(a=1.0, v=2.0, sigma=0.5)
    model = osc.build()
    z0 = PhaseState([3.0], [1.0])
    h, n = 2.0**-4, 16
    res = mc_expectation(model, "gf2", cos_sum, z0, h, 1.0, 32_768, SeedPlan(2718))
    amap = gf2_affine_map(osc, h)
    law = propagate_gaussian_chain(
        amap, GaussianLaw(np.array([3.0, 1.0]), np.zeros((2, 2))), n, h
    )
    exact = gaussian_cos_expectation(law.mean, law.cov)
    assert res.std_error > 0
    assert abs(res.mean - exact) <= 4.0 * res.std_error


def test_mc_expectation_blowup_reports_location():
    model = DoubleWell(v=4.0, beta=2.0).build()
    with pytest.raises(EstimationError, match=r"realization \d+ .*step \d+"):
        mc_expectation(model, "gf2", cos_sum, PhaseState([0.0], [30.0]), 0.25, 2.0, 4, SeedPlan(8))


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
    model = DoubleWell(v=4.0, beta=2.0).build()
    lo, hi = 37, 5037
    state = mc._BatchState(model, PhaseState([0.0], [1.0]), plan, lo, hi)
    assert len(state.generators) == hi - lo
    for index, gen in zip(range(lo, hi), state.generators):
        expected = generator_for(derive_seed(plan, index))
        assert gen.bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize("noise", [[[0.7]], [[0.7, -0.3]]])
def test_chunk_kicks_equal_per_step_matmul(noise):
    sigma = np.array(noise)
    model = dataclasses.replace(deterministic_linear(), noise=sigma, noise_dim=sigma.shape[1])
    dw = np.random.default_rng(3).standard_normal((50, 7, model.noise_dim))
    dw[4, 2] = -0.0
    expected = np.stack([dw[:, s, :] @ model.noise[0] for s in range(7)])
    kicks = mc._kicks(model, dw)
    assert kicks.flags.c_contiguous
    assert kicks.tobytes() == expected.tobytes()


def test_blowup_mid_chunk_names_first_realization_and_step():
    # h = 0.55 from q = 1.5: realizations leave the well within a few steps, at
    # different steps; all 20 steps fit one chunk of every task.
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0 = PhaseState([0.0], [1.5])
    h, plan = 0.55, SeedPlan(8)
    expected = r"^realization 13 produced a non-finite state at step 6$"
    with pytest.raises(EstimationError, match=expected):
        mc_expectation(model, "gf2", cos_sum, z0, h, 20 * h, 5000, plan)
    # One step fewer runs clean, so step 6 is the first non-finite one.
    res = mc_expectation(model, "gf2", cos_sum, z0, h, 6 * h, 5000, plan)
    assert math.isfinite(res.mean)


def test_batch_bounds_are_balanced():
    assert mc._batch_bounds(16384) == [(lo, lo + 2048) for lo in range(0, 16384, 2048)]
    assert mc._batch_bounds(5000) == [(0, 1667), (1667, 3334), (3334, 5000)]
    assert mc._batch_bounds(3) == [(0, 3)]
    for n in (1, 2047, 2048, 2049, 4097, 100_000):
        bounds = mc._batch_bounds(n)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        widths = [hi - lo for lo, hi in bounds]
        assert len(bounds) == math.ceil(n / BATCH_SIZE)
        assert set(widths[:-1]) <= {widths[0]} and 0 < widths[-1] <= widths[0] <= BATCH_SIZE


# (kernel width, draw block): the first pair is the old fixed layout, the
# others give uneven task widths and several draws per chunk of steps.
_LAYOUTS = [(512, 2**20), (1000, 2**12), (2048, 2**12), (BATCH_SIZE, DRAW_BLOCK)]


def test_estimates_are_width_and_block_invariant(monkeypatch):
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0 = PhaseState([0.0], [1.0])
    quartic = lambda p, q: (np.sum(p * p, axis=-1) + np.sum(q * q, axis=-1)) ** 2
    n_real = 2500
    outputs = []
    for width, block in _LAYOUTS:
        monkeypatch.setattr(mc, "BATCH_SIZE", width)
        monkeypatch.setattr(mc, "DRAW_BLOCK", block)
        expectation = mc_expectation(model, "gf2", cos_sum, z0, 0.125, 1.0, n_real, SeedPlan(41))
        weak = weak_error_mc(model, cos_sum, z0, 0.25, 1.0, n_real, 4, SeedPlan(42))
        _, means = mc_step_means(model, [cos_sum, quartic], z0, 0.125, 12, n_real, SeedPlan(43))
        outputs.append(
            (expectation.mean, expectation.std_error, weak.mean, weak.std_error, means.tobytes())
        )
    assert all(out == outputs[0] for out in outputs[1:])


def test_batch_draw_matches_fresh_generator_stream():
    model = DoubleWell(v=4.0, beta=2.0).build()
    plan = SeedPlan(1234)
    h, m = 0.1, 3
    state = mc._BatchState(model, PhaseState([0.0], [1.0]), plan, 5, 9)
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
    model = DoubleWell(v=4.0, beta=2.0).build()
    n_real = BATCH_SIZE + 40
    weak_error_mc(model, cos_sum, PhaseState([0.0], [1.0]), 0.25, 0.5, n_real, 2, SeedPlan(3))
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


def test_fast_path_matches_per_state_path():
    built = DoubleWell(v=4.0, beta=2.0).build()
    # Same dynamics, but the "custom" kind forces the per-realization route.
    custom = dataclasses.replace(built, kind="custom")
    z0 = PhaseState([-2.0], [-2.0])
    plan = SeedPlan(31337)
    fast = mc_expectation(built, "gf2", cos_sum, z0, 0.125, 1.0, 256, plan)
    slow = mc_expectation(custom, "gf2", cos_sum, z0, 0.125, 1.0, 256, plan)
    assert_allclose(fast.mean, slow.mean, rtol=1e-12)
    assert_allclose(fast.std_error, slow.std_error, rtol=1e-10, atol=1e-15)


def test_weak_error_identical_chains_vanish():
    model = DoubleWell(v=4.0, beta=2.0).build()
    res = weak_error_mc(
        model,
        cos_sum,
        PhaseState([0.0], [1.0]),
        0.125,
        1.0,
        64,
        1,
        SeedPlan(5),
        allow_equal_steps=True,
    )
    assert res.mean == 0.0
    assert res.std_error == 0.0


def test_weak_error_refine_validation():
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0 = PhaseState([0.0], [1.0])
    with pytest.raises(ArgumentError):
        weak_error_mc(model, cos_sum, z0, 0.125, 1.0, 32, 1, SeedPlan(5))
    with pytest.raises(ArgumentError):
        weak_error_mc(model, cos_sum, z0, 0.125, 1.0, 32, 0, SeedPlan(5), allow_equal_steps=True)


def test_weak_error_gaussian_chain_oracle():
    osc = LinearOscillator(a=1.0, v=2.0, sigma=0.5)
    model = osc.build()
    z0 = PhaseState([3.0], [1.0])
    h, refine = 0.25, 4
    res = weak_error_mc(model, cos_sum, z0, h, 1.0, 32_768, refine, SeedPlan(314))
    init = GaussianLaw(np.array([3.0, 1.0]), np.zeros((2, 2)))
    coarse = propagate_gaussian_chain(gf2_affine_map(osc, h), init, 4, h)
    fine = propagate_gaussian_chain(gf2_affine_map(osc, h / refine), init, 16, h / refine)
    exact = gaussian_cos_expectation(coarse.mean, coarse.cov) - gaussian_cos_expectation(
        fine.mean, fine.cov
    )
    assert abs(res.mean - exact) <= 4.0 * res.std_error


def test_weak_error_se_scaling():
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0 = PhaseState([-2.0], [-2.0])
    small = weak_error_mc(model, cos_sum, z0, 0.125, 1.0, 4096, 2, SeedPlan(21))
    large = weak_error_mc(model, cos_sum, z0, 0.125, 1.0, 8192, 2, SeedPlan(21))
    ratio = large.std_error / small.std_error
    assert 0.7071 * 0.8 <= ratio <= 0.7071 * 1.2


def test_weak_error_worker_invariance():
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0 = PhaseState([0.0], [1.0])
    n_real = BATCH_SIZE + 40
    first = weak_error_mc(model, cos_sum, z0, 0.25, 1.0, n_real, 2, SeedPlan(77))
    second = weak_error_mc(model, cos_sum, z0, 0.25, 1.0, n_real, 2, SeedPlan(77))
    assert first.mean == second.mean
    assert first.std_error == second.std_error


def test_mc_step_means_deterministic_dynamics():
    model = deterministic_linear()
    z0 = PhaseState([3.0], [1.0])
    h, n = 0.125, 10
    times, means = mc_step_means(model, [cos_sum], z0, h, n, 8, SeedPlan(6))
    path = simulate(model, "gf2", z0, h, n, np.zeros((n, 1)))
    expected = np.array(
        [float(cos_sum(z.p[None, :], z.q[None, :])[0]) for z in path.states]
    )
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


def test_mc_running_average_deterministic():
    model = deterministic_linear()
    z0 = PhaseState([3.0], [1.0])
    h, n = 0.125, 12
    times, running = mc_running_average(model, cos_sum, z0, h, n, 8, SeedPlan(6))
    path = simulate(model, "gf2", z0, h, n, np.zeros((n, 1)))
    series = np.array(
        [float(cos_sum(z.p[None, :], z.q[None, :])[0]) for z in path.states]
    )
    assert_allclose(running, np.cumsum(series) / np.arange(1, n + 2), rtol=1e-12)
    assert times[-1] == pytest.approx(n * h)
