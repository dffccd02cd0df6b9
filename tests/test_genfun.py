from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from langevin_gf.errors import ArgumentError, CapabilityError, RangeError
from langevin_gf.genfun import (
    AugmentedState,
    from_augmented,
    g_alpha,
    gf2_step_augmented,
    hamiltonians,
    to_augmented,
)
from langevin_gf.integrators import gf2_jacobian, gf2_step
from langevin_gf.models import (
    DoubleWell,
    LangevinModel,
    LinearOscillator,
    PhaseState,
    make_quadratic_model,
)

OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])


def conformal_defect(jac: np.ndarray, friction: float, h: float) -> float:
    d = jac.shape[0] // 2
    omega = np.block(
        [[np.zeros((d, d)), np.eye(d)], [-np.eye(d), np.zeros((d, d))]]
    )
    return float(np.max(np.abs(jac.T @ omega @ jac - math.exp(-friction * h) * omega)))


def zero_noise_model(friction: float = 1.5) -> LangevinModel:
    return LangevinModel(
        force=lambda q: 2.0 * q,
        potential=lambda q: float(q[0]) ** 2,
        force_jacobian=lambda q: np.full_like(q, 2.0),
        mass=np.array([[1.0]]),
        friction=friction,
        noise=np.array([[0.0]]),
        force_third=lambda q: np.zeros((1, 1, 1)),
    )


def random_quadratic(rng: np.random.Generator) -> LangevinModel:
    raw = rng.uniform(-1.0, 1.0, size=(2, 2))
    stiffness = 0.5 * (raw + raw.T)
    root = rng.uniform(-0.6, 0.6, size=(2, 2))
    mass = root @ root.T + 0.5 * np.eye(2)
    noise = rng.uniform(-1.0, 1.0, size=(2, 2)) + 0.3 * np.eye(2)
    return make_quadratic_model(stiffness, mass, rng.uniform(0.5, 4.0), noise)


def random_model(rng: np.random.Generator, trial: int) -> LangevinModel:
    which = trial % 3
    if which == 0:
        return LinearOscillator(
            a=rng.uniform(0.5, 3.0), v=rng.uniform(0.5, 4.0), sigma=rng.uniform(0.2, 1.5)
        ).build()
    if which == 1:
        return DoubleWell(v=rng.uniform(0.5, 4.0), beta=rng.uniform(0.5, 4.0)).build()
    return random_quadratic(rng)


def test_to_augmented_at_time_zero():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    s = to_augmented(PhaseState([1.0], [1.0]), 0.0, model)
    assert_allclose(s.X[0], 1.0)
    assert_allclose(s.Y, [1.0, 0.0])
    # F(1) + p M p / 2 + sigma * q = 0.5 + 0.5 + 0.5
    assert_allclose(s.X[1], 1.5)


def test_to_augmented_scales_momentum():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    t = 0.5 * math.log(3.0)
    s = to_augmented(PhaseState([2.0], [-1.0]), t, model)
    assert_allclose(s.X[0], 6.0, rtol=1e-14)
    assert_allclose(s.Y, [-1.0, t])


def test_to_augmented_rejects_negative_time():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    with pytest.raises(ArgumentError):
        to_augmented(PhaseState([1.0], [1.0]), -0.1, model)


def test_to_augmented_rejects_dim_mismatch():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    with pytest.raises(ArgumentError):
        to_augmented(PhaseState([1.0, 2.0], [1.0, 2.0]), 0.0, model)


def test_from_augmented_frozen_point():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    s = AugmentedState(X=[2.0, 0.0], Y=[0.3, math.log(2.0) / 2.0])
    z, t = from_augmented(s, model)
    assert_allclose(t, math.log(2.0) / 2.0)
    assert_allclose(z.p, [1.0], rtol=1e-15)
    assert_allclose(z.q, [0.3])


def test_round_trip():
    rng = np.random.default_rng(7)
    for trial in range(60):
        model = random_model(rng, trial)
        z = PhaseState(
            rng.uniform(-2.0, 2.0, size=model.dim), rng.uniform(-2.0, 2.0, size=model.dim)
        )
        t = rng.uniform(0.0, 3.0)
        z2, t2 = from_augmented(to_augmented(z, t, model), model)
        assert_allclose(t2, t)
        assert_allclose(z2.p, z.p, rtol=1e-14, atol=1e-14)
        assert_allclose(z2.q, z.q, rtol=0, atol=0)


def test_hamiltonians_frozen_values():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    s = to_augmented(PhaseState([1.0], [1.0]), 0.0, model)
    h0, hr = hamiltonians(model, s)
    # F(1) + X M X / 2 + X_2 = 0.5 + 0.5 + 1.5
    assert_allclose(h0, 2.5, rtol=1e-14)
    # sigma = 0.5 in the generating-function sign convention
    assert_allclose(hr, [0.5], rtol=1e-14)


def test_hamiltonians_zero_noise():
    model = zero_noise_model()
    s = AugmentedState(X=[0.7, 0.0], Y=[-0.4, 1.2])
    _, hr = hamiltonians(model, s)
    assert_allclose(hr, [0.0])


def test_hamiltonians_overflow():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    s = AugmentedState(X=[1.0, 0.0], Y=[1.0, 400.0])
    with pytest.raises(RangeError):
        hamiltonians(model, s)


def test_g_alpha_zero_patterns_are_exact():
    rng = np.random.default_rng(11)
    zero_indices = [(1, 2), (1, 0), (1, 2, 1), (1, 2, 0), (1, 0, 2)]
    for trial in range(40):
        model = random_quadratic(rng)
        x = rng.uniform(-3.0, 3.0, size=3)
        y = np.append(rng.uniform(-3.0, 3.0, size=2), rng.uniform(0.0, 2.0))
        for alpha in zero_indices:
            assert g_alpha(model, alpha, x, y) == 0.0


def test_g_alpha_noise_pair_frozen():
    model = LinearOscillator(a=2.0, v=1.0, sigma=0.7).build()
    x = np.array([3.0, -1.0])
    value = g_alpha(model, (0, 1, 1), x, np.array([0.4, 0.0]))
    # C1 sigma M sigma = 1 * 0.7 * 2 * 0.7
    assert_allclose(value, 0.98, rtol=1e-14)
    t = 0.8
    scaled = g_alpha(model, (0, 1, 1), x, np.array([0.4, t]))
    assert_allclose(scaled, 0.98 * math.exp(model.friction * t), rtol=1e-14)


def test_g_alpha_drift_pair_frozen():
    model = LinearOscillator(a=2.0, v=3.0, sigma=0.5).build()
    # Zero momentum block: only v C1 F(y) survives.
    assert_allclose(g_alpha(model, (0, 0), [0.0, 5.0], [2.0, 0.0]), 12.0, rtol=1e-14)
    # f M x + v C1 F - v C2 x M x / 2 = 8 + 12 - 3 at x = 1, q = 2, t = 0.
    assert_allclose(g_alpha(model, (0, 0), [1.0, 5.0], [2.0, 0.0]), 17.0, rtol=1e-14)


def test_g_alpha_noise_single_frozen():
    model = LinearOscillator(a=2.0, v=3.0, sigma=0.5).build()
    # sigma M x + v C1 sigma q = 0.5*2*4 + 3*0.5*2 at t = 0.
    assert_allclose(g_alpha(model, (0, 1), [4.0, 9.0], [2.0, 0.0]), 7.0, rtol=1e-14)


def test_g_alpha_noise_single_gradient():
    rng = np.random.default_rng(3)
    model = random_quadratic(rng)
    sig = -model.noise
    y = np.array([0.3, -0.7, 0.9])
    x = rng.uniform(-2.0, 2.0, size=3)
    eps = 1e-6
    for r in (1, 2):
        grad = np.empty(3)
        for i in range(3):
            bump = np.zeros(3)
            bump[i] = eps
            grad[i] = (
                g_alpha(model, (0, r), x + bump, y) - g_alpha(model, (0, r), x - bump, y)
            ) / (2 * eps)
        expected = np.append(sig[:, r - 1] @ model.mass, 0.0)
        assert_allclose(grad, expected, atol=1e-8)


def test_g_alpha_catalog_errors():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    x = np.array([1.0, 0.0])
    y = np.array([1.0, 0.0])
    for alpha in [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]:
        with pytest.raises(CapabilityError):
            g_alpha(model, alpha, x, y)
    with pytest.raises(ArgumentError):
        g_alpha(model, (0, 2), x, y)  # noise index beyond noise_dim
    with pytest.raises(ArgumentError):
        g_alpha(model, (1,), x, y)
    with pytest.raises(ArgumentError):
        g_alpha(model, (0, 1, 1, 0), x, y)


def test_multi_index_validation():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    x = np.array([1.0, 0.0])
    y = np.array([1.0, 0.0])
    assert g_alpha(model, [np.int64(0), 1.0], x, y) == g_alpha(model, (0, 1), x, y)
    cases = [
        ((1,), "multi-index length must be 2 or 3"),
        ((0, -1), "multi-index entries must be nonnegative"),
    ]
    for alpha, message in cases:
        with pytest.raises(ArgumentError) as info:
            g_alpha(model, alpha, x, y)
        assert str(info.value) == message


def test_augmented_free_case():
    model = LangevinModel(
        force=lambda q: np.zeros_like(q),
        potential=lambda q: 0.0,
        force_jacobian=lambda q: np.zeros_like(q),
        mass=np.array([[2.0]]),
        friction=0.0,
        noise=np.array([[0.0]]),
        force_third=lambda q: np.zeros((1, 1, 1)),
    )
    xg, yg = gf2_step_augmented(model, [3.0, 4.0], [1.0, 0.25], 0.5, [0.9])
    assert_allclose(xg, [3.0, 4.0], rtol=0, atol=0)
    assert_allclose(yg[0], 1.0 + 0.5 * 2.0 * 3.0, rtol=1e-15)
    assert yg[1] == 0.75


def test_augmented_clock_advances_exactly():
    model = DoubleWell(v=4.0, beta=2.0).build()
    _, yg = gf2_step_augmented(model, [0.3, 0.0], [-1.2, 0.625], 0.125, [0.1])
    assert yg[1] == 0.75


def test_augmented_matches_direct_map():
    rng = np.random.default_rng(29)
    worst = 0.0
    for trial in range(1000):
        model = random_model(rng, trial)
        d = model.dim
        z = PhaseState(
            rng.uniform(-2.0, 2.0, size=d), rng.uniform(-2.0, 2.0, size=d)
        )
        t = rng.uniform(0.0, 1.0)
        h = rng.uniform(1e-3, 0.25)
        dw = rng.normal(0.0, math.sqrt(h), size=model.noise_dim)
        direct = gf2_step(model, z, h, dw)
        s = to_augmented(z, t, model)
        xg, yg = gf2_step_augmented(model, s.X, s.Y, h, dw)
        z2, t2 = from_augmented(AugmentedState(X=xg, Y=yg), model)
        assert t2 == t + h
        gap = max(
            float(np.max(np.abs(z2.p - direct.p))), float(np.max(np.abs(z2.q - direct.q)))
        )
        worst = max(worst, gap)
    assert worst <= 1e-12


def test_augmented_conformal_after_conjugation():
    rng = np.random.default_rng(41)
    for trial in range(6):
        model = random_model(rng, trial)
        d = model.dim
        z = PhaseState(rng.uniform(-1.5, 1.5, size=d), rng.uniform(-1.5, 1.5, size=d))
        t = 0.7
        h = 0.1
        dw = rng.normal(0.0, math.sqrt(h), size=model.noise_dim)
        s = to_augmented(z, t, model)
        aux = s.X[d]

        def aug_map(vec: np.ndarray) -> np.ndarray:
            x = np.append(vec[:d], aux)
            y = np.append(vec[d:], t)
            xg, yg = gf2_step_augmented(model, x, y, h, dw)
            return np.concatenate([xg[:d], yg[:d]])

        base = np.concatenate([s.X[:d], s.Y[:d]])
        eps = 1e-6
        jac_aug = np.empty((2 * d, 2 * d))
        for j in range(2 * d):
            bump = np.zeros(2 * d)
            bump[j] = eps
            jac_aug[:, j] = (aug_map(base + bump) - aug_map(base - bump)) / (2 * eps)

        v = model.friction
        t_in = np.diag(np.concatenate([np.full(d, math.exp(v * t)), np.ones(d)]))
        t_out = np.diag(
            np.concatenate([np.full(d, math.exp(-v * (t + h))), np.ones(d)])
        )
        jac_phase = t_out @ jac_aug @ t_in
        assert conformal_defect(jac_phase, v, h) <= 1e-5
        assert_allclose(jac_phase, gf2_jacobian(model, z, h, dw), atol=1e-5)


def test_augmented_small_step_continuity():
    model = DoubleWell(v=4.0, beta=2.0).build()
    x = np.array([0.4, 1.1])
    y = np.array([-0.9, 0.3])
    xg, yg = gf2_step_augmented(model, x, y, 1e-10, [7e-8])
    assert_allclose(xg, x, atol=1e-5)
    assert_allclose(yg[0], y[0], atol=1e-5)


def test_augmented_step_errors():
    model = DoubleWell(v=4.0, beta=2.0).build()
    with pytest.raises(ArgumentError):
        gf2_step_augmented(model, [0.1, 0.0], [0.2, 0.1], -0.5, None)
    with pytest.raises(ArgumentError):
        gf2_step_augmented(model, [0.1, 0.0], [0.2, -0.1], 0.5, None)
    with pytest.raises(ArgumentError):
        gf2_step_augmented(model, [0.1, 0.0], [0.2, 0.1], 0.5, [0.1, 0.2])
    with pytest.raises(RangeError):
        gf2_step_augmented(model, [0.1, 0.0], [0.2, 300.0], 0.5, None)


def test_augmented_state_validation():
    with pytest.raises(ArgumentError):
        AugmentedState(X=[1.0, 2.0], Y=[0.0, -0.5])
    with pytest.raises(ArgumentError):
        AugmentedState(X=[1.0, np.nan], Y=[0.0, 0.5])
    with pytest.raises(ArgumentError):
        AugmentedState(X=[1.0, 2.0, 3.0], Y=[0.0, 0.5])
