"""Tests for langevin_gf.integrators."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from langevin_gf.errors import (
    ArgumentError,
    CapabilityError,
    EstimationError,
    EvaluationError,
    RangeError,
    StepSizeError,
)
from langevin_gf.integrators import (
    AffineStepMap,
    GaussianLaw,
    _check_step_matrix,
    _Gf2Kernel,
    em_step,
    gf2_affine_map,
    gf2_jacobian,
    gf2_step,
    linear_exact_moments,
    propagate_gaussian_chain,
    simulate,
)
from langevin_gf.cli import _structure_rows, _StructureTrial
from langevin_gf.mc import SeedPlan, mc_expectation, mc_step_means
from langevin_gf.models import (
    DoubleWell,
    LangevinModel,
    LinearOscillator,
    PhaseState,
    _matvec,
    eval_model,
    make_quadratic_model,
)
from langevin_gf.observables import get_test_function

OMEGA_1D = np.array([[0.0, 1.0], [-1.0, 0.0]])


def free_model(mass: np.ndarray) -> LangevinModel:
    d = mass.shape[0]
    return LangevinModel(
        force=lambda q: np.zeros_like(q),
        potential=lambda q: np.zeros(np.shape(q)[:-1]),
        force_jacobian=lambda q: np.zeros(np.shape(q) + (d,)),
        mass=mass,
        friction=0.0,
        noise=np.zeros((d, d)),
        force_third=lambda q: np.zeros(np.shape(q) + (d, d)),
    )


def symplectic_defect(jac: np.ndarray, v: float, h: float) -> float:
    d = jac.shape[0] // 2
    omega = np.block(
        [[np.zeros((d, d)), np.eye(d)], [-np.eye(d), np.zeros((d, d))]]
    )
    return float(np.max(np.abs(jac.T @ omega @ jac - math.exp(-v * h) * omega)))


def random_quadratic(rng: np.random.Generator) -> LangevinModel:
    base = rng.uniform(-1.0, 1.0, size=(2, 2))
    kmat = 0.5 * (base + base.T)
    mroot = rng.uniform(-1.0, 1.0, size=(2, 2))
    mass = mroot @ mroot.T + 0.5 * np.eye(2)
    noise = rng.uniform(0.3, 1.0) * np.eye(2)
    return make_quadratic_model(kmat, mass, friction=rng.uniform(0.5, 4.0), noise=noise)


def test_gf2_free_flight():
    mass = np.array([[2.0, 0.5], [0.5, 1.0]])
    model = free_model(mass)
    z = PhaseState([0.3, -0.7], [1.0, 2.0])
    out = gf2_step(model, z, h=0.2)
    assert_allclose(out.p, z.p, rtol=0, atol=0)
    assert_allclose(out.q, z.q + 0.2 * mass @ z.p, rtol=0, atol=1e-16)


def test_gf2_linear_golden_value():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    out = gf2_step(model, PhaseState([3.0], [1.0]), h=0.125)

    # Independent scalar evaluation of the same update.
    h, v = 0.125, 2.0
    evm, evp = math.exp(-v * h), math.exp(v * h)
    den = 1.0 + 0.5 * h * h
    p1 = (evm * 3.0 - h * (1.0 + 0.5 * v * h) * evm * 1.0) / den
    q1 = 1.0 + h * (1.0 - 0.5 * v * h) * evp * p1 + 0.5 * h * h * 1.0
    assert_allclose(out.p[0], p1, rtol=1e-15)
    assert_allclose(out.q[0], q1, rtol=1e-15)
    # Frozen goldens.
    assert_allclose(out.p[0], 2.209620826388637, rtol=1e-13)
    assert_allclose(out.q[0], 1.3181322674418605, rtol=1e-13)


def test_gf2_zero_noise_ignores_increment():
    mass = np.eye(1)
    model = LangevinModel(
        force=lambda q: 1.5 * q,
        potential=lambda q: 0.75 * q[..., 0] ** 2,
        force_jacobian=lambda q: np.full(np.shape(q) + (1,), 1.5),
        mass=mass,
        friction=1.0,
        noise=np.zeros((1, 1)),
    )
    z = PhaseState([0.4], [-0.2])
    out_zero = gf2_step(model, z, h=0.1, dW=[0.0])
    out_any = gf2_step(model, z, h=0.1, dW=[17.0])
    assert_allclose(out_any.p, out_zero.p, rtol=0)
    assert_allclose(out_any.q, out_zero.q, rtol=0)


def test_gf2_step_size_guard_scalar():
    # grad^2 F * M = -2/h^2 makes the 1x1 step matrix exactly singular.
    model = LangevinModel(
        force=lambda q: -2.0 * q,
        potential=lambda q: -(q[..., 0] ** 2),
        force_jacobian=lambda q: np.full(np.shape(q) + (1,), -2.0),
        mass=np.eye(1),
        friction=1.0,
        noise=np.eye(1),
    )
    with pytest.raises(StepSizeError):
        gf2_step(model, PhaseState([1.0], [1.0]), h=1.0)
    with pytest.raises(StepSizeError):
        gf2_jacobian(model, PhaseState([1.0], [1.0]), h=1.0)


def test_gf2_step_size_guard_matrix():
    kmat = np.diag([0.0, -1.0 + 1e-13])
    model = make_quadratic_model(kmat, np.eye(2), friction=1.0, noise=np.eye(2))
    with pytest.raises(StepSizeError):
        gf2_step(model, PhaseState([1.0, 0.0], [0.0, 1.0]), h=math.sqrt(2.0))


def test_step_size_guard_names_first_bad_row_of_a_batch():
    # 1 + c = 1.5e-12 gives the ratio (1 + |c|) / |1 + c| = 1.3e12, past the
    # 1e12 limit; 3e-12 gives 6.7e11, inside it.
    with pytest.raises(StepSizeError, match=r"condition estimate 1\.333e\+12 at h=0\.5;") as info:
        _check_step_matrix(np.array([1.0, 2.0, 1.5e-12])[:, None, None], 0.5)
    assert info.value.row == 2
    _check_step_matrix(np.array([1.0, -0.5, 3e-12, np.nan])[:, None, None], 0.5)
    batch = np.stack([np.eye(2), np.diag([1.0, 1e-13]), np.full((2, 2), np.inf)])
    with pytest.raises(StepSizeError, match=r"condition estimate 1\.000e\+13") as info:
        _check_step_matrix(batch, 0.5)
    assert info.value.row == 1


def _full_svd_guard(batch: np.ndarray, h) -> tuple[int, str] | None:
    """The d > 1 guard without a screen: the SVD on every finite row."""
    finite = np.all(np.isfinite(batch), axis=(1, 2))
    ratio = np.full(batch.shape[0], np.nan)
    ratio[finite] = np.linalg.cond(batch[finite])
    bad = ratio > 1e12
    if not np.any(bad):
        return None
    row = int(np.argmax(bad))
    at = h if np.ndim(h) == 0 else h[row]
    return row, (
        f"implicit step matrix has condition estimate {ratio[row]:.3e} at h={at}; "
        "reduce the step size"
    )


def test_step_matrix_screen_runs_the_svd_on_flagged_rows_only(monkeypatch):
    rng = np.random.default_rng(12)
    svd_rows = []
    cond = np.linalg.cond

    def counted_cond(x, *args):
        svd_rows.append(len(x))
        return cond(x, *args)

    for trial in range(40):
        batch = np.eye(2) + 0.2 * rng.standard_normal((300, 2, 2))
        # Near-singular rows with condition numbers from 1e10 to 1e14.
        rows = rng.choice(300, size=3, replace=False)
        for row, gap in zip(rows, 10.0 ** rng.uniform(-14.0, -10.0, 3)):
            u = rng.standard_normal(2)
            batch[row] = np.outer(u, u) + gap * np.outer(u[::-1] * [1, -1], u[::-1] * [1, -1])
        if trial % 4 == 0:
            batch[rows[0]] = np.inf
        h = 0.5 if trial % 2 else rng.uniform(0.1, 0.2, 300)
        expected = _full_svd_guard(batch, h)
        svd_rows.clear()
        monkeypatch.setattr(np.linalg, "cond", counted_cond)
        try:
            if expected is None:
                _check_step_matrix(batch, h)
            else:
                with pytest.raises(StepSizeError) as info:
                    _check_step_matrix(batch, h)
                assert (info.value.row, str(info.value)) == expected
        finally:
            monkeypatch.setattr(np.linalg, "cond", cond)
        assert sum(svd_rows) <= 3


def _kernel_inputs(model, rows: int, seed: int):
    """Random states, one step size per row, and their increments and kicks."""
    rng = np.random.default_rng(seed)
    d = model.dim
    p = rng.uniform(-2.0, 2.0, (rows, d))
    q = rng.uniform(-2.0, 2.0, (rows, d))
    hs = rng.uniform(1e-3, 0.25, rows)
    dw = rng.normal(0.0, 0.3, (rows, model.noise_dim))
    return p, q, hs, dw, _matvec(model.noise, dw)


_KERNEL_MODELS = {
    "linear": LinearOscillator(a=1.3, v=2.0, sigma=0.5).build(),
    "double_well": DoubleWell(v=4.0, beta=2.0).build(),
    "quadratic_d2": make_quadratic_model(
        np.array([[2.0, 0.5], [0.5, 1.0]]),
        np.array([[1.0, 0.2], [0.2, 0.8]]),
        friction=1.0,
        noise=np.array([[0.7, 0.1], [0.0, 0.6]]),
    ),
}


@pytest.mark.parametrize("name", sorted(_KERNEL_MODELS))
def test_per_row_step_sizes_equal_the_scalar_kernel(name):
    model = _KERNEL_MODELS[name]
    p, q, hs, _, kick = _kernel_inputs(model, 9, 17)
    batch = _Gf2Kernel(model, hs).update(p, q, kick)
    for i, h in enumerate(hs):
        single = _Gf2Kernel(model, float(h)).update(p[i: i + 1], q[i: i + 1], kick[i: i + 1])
        for got, want in zip(batch, single):
            assert got[i].tobytes() == want[0].tobytes()


def reference_jacobian(model, z, h, dw):
    """The analytic Jacobian with an explicit inverse and BLAS products."""
    d, v, mass = model.dim, model.friction, model.mass
    evm, half = math.exp(-v * h), 0.5 * v * h
    hess = np.asarray(model.force_jacobian(z.q), dtype=float).reshape(d, d)
    third = np.asarray(model.force_third(z.q), dtype=float).reshape(d, d, d)
    step_matrix = np.eye(d) + 0.5 * h * h * hess @ mass
    rhs = (
        evm * z.p
        - h * (1.0 + half) * evm * model.force(z.q)
        + (1.0 + half) * evm * model.noise @ dw
    )
    p1 = np.linalg.solve(step_matrix, rhs)
    dmat = np.linalg.inv(step_matrix)
    jpq = np.empty((d, d))
    for j in range(d):
        col = -h * (1.0 + half) * evm * hess[:, j] - 0.5 * h * h * ((third[:, :, j] @ mass) @ p1)
        jpq[:, j] = dmat @ col
    gain = h * (1.0 - half) * math.exp(v * h)
    jqq = np.eye(d) + 0.5 * h * h * (mass @ hess) + gain * (mass @ jpq)
    return np.block([[evm * dmat, jpq], [gain * (mass @ (evm * dmat)), jqq]])


@pytest.mark.parametrize("name", sorted(_KERNEL_MODELS))
def test_batched_jacobian_equals_gf2_jacobian_row_by_row(name):
    model = _KERNEL_MODELS[name]
    p, q, hs, dw, kick = _kernel_inputs(model, 9, 23)
    kernel = _Gf2Kernel(model, hs)
    hess, step_matrix, p1, _ = kernel.update(p, q, kick)
    jac = kernel.jacobian(q, hess, step_matrix, p1)
    assert jac.shape == (9, 2 * model.dim, 2 * model.dim)
    for i, h in enumerate(hs):
        z = PhaseState(p[i], q[i])
        assert jac[i].tobytes() == gf2_jacobian(model, z, float(h), dw[i]).tobytes()
        reference = reference_jacobian(model, z, float(h), dw[i])
        if model.dim == 1:
            assert jac[i].tobytes() == reference.tobytes()
        else:
            # Term-by-term sums instead of BLAS: agreement to the last ulp.
            assert np.max(np.abs(jac[i] - reference)) <= 1e-15 * np.max(np.abs(reference))


# The double well's callables, each with a result off the row contract (the
# force of shape (R,), the derivatives of q's shape (R, 1)), and the contract.
_OFF_CONTRACT = {
    "force": (lambda q: (q * (4.0 * q * q - 4.0) - 0.5)[..., 0], "(..., d)"),
    "force_jacobian": (lambda q: 12.0 * q**2 - 4.0, "(..., d, d)"),
    "force_third": (lambda q: 24.0 * q, "(..., d, d, d)"),
}


@pytest.mark.parametrize("name", sorted(_OFF_CONTRACT))
def test_off_contract_model_callables_are_refused_alike_on_every_path(name):
    callable_, contract = _OFF_CONTRACT[name]
    model = dataclasses.replace(DoubleWell(v=2.0, beta=2.0).build(), **{name: callable_})
    z0, h = PhaseState([0.7], [-1.1]), 0.125
    shape = "(1,)" if name == "force" else "(1, 1)"
    message = (
        f"{name} returned shape {shape} on points of shape (1, 1); "
        f"it must map (..., d) rows to {contract}"
    )
    with pytest.raises(EvaluationError) as info:
        gf2_jacobian(model, z0, h, [0.3])
    assert str(info.value) == message
    if name == "force_third":
        return  # nothing else reads the third derivative
    with pytest.raises(EvaluationError) as info:
        gf2_step(model, z0, h, [0.3])
    assert str(info.value) == message
    reason = f"^{name} returned shape "
    with pytest.raises(EvaluationError, match=reason):
        eval_model(model, [0.4])
    with pytest.raises(EvaluationError, match="^step 0: " + name + " returned shape "):
        simulate(model, z0, h, np.zeros((4, 1)))
    cos_sum = get_test_function("cos_sum")
    with pytest.raises(EvaluationError, match=reason):
        mc_expectation(model, "gf2", cos_sum, z0, h, 4 * h, 64, SeedPlan(1))
    with pytest.raises(EvaluationError, match=reason):
        mc_step_means(model, [cos_sum], z0, h, 4, 64, SeedPlan(1))
    if name == "force":
        with pytest.raises(EvaluationError, match=reason):
            em_step(model, z0, h, [0.3])
        with pytest.raises(EvaluationError, match=reason):
            mc_expectation(model, "em", cos_sum, z0, h, 4 * h, 64, SeedPlan(1))


def test_gf2_jacobian_determinant():
    h = 0.125
    for model in (
        LinearOscillator(a=1.0, v=2.0, sigma=0.5).build(),
        DoubleWell(v=2.0, beta=2.0).build(),
    ):
        jac = gf2_jacobian(model, PhaseState([0.7], [-1.1]), h)
        assert_allclose(np.linalg.det(jac), math.exp(-0.25), rtol=1e-12)


def test_gf2_jacobian_identity_limit():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    h = 1e-6
    jac = gf2_jacobian(model, PhaseState([0.3], [-0.7]), h)
    assert float(np.max(np.abs(jac - np.eye(2)))) <= 50.0 * h


def test_gf2_jacobian_matches_affine_map():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    amap = gf2_affine_map(model, h=0.125)
    rng = np.random.default_rng(7)
    for _ in range(5):
        z = PhaseState(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1))
        jac = gf2_jacobian(model, z, h=0.125)
        assert_allclose(jac, amap.B, rtol=0, atol=1e-14)


def central_difference_jacobian(model, z, h, dw, eps=1e-6):
    d = model.dim
    jac = np.empty((2 * d, 2 * d))
    for j in range(2 * d):
        dp, dq = np.zeros(d), np.zeros(d)
        (dp if j < d else dq)[j % d] = eps
        plus = gf2_step(model, PhaseState(z.p + dp, z.q + dq), h, dw)
        minus = gf2_step(model, PhaseState(z.p - dp, z.q - dq), h, dw)
        jac[:d, j] = (plus.p - minus.p) / (2 * eps)
        jac[d:, j] = (plus.q - minus.q) / (2 * eps)
    return jac


def test_gf2_jacobian_matches_finite_differences():
    rng = np.random.default_rng(21)
    models = [
        LinearOscillator(a=1.3, v=2.0, sigma=0.5).build(),
        DoubleWell(v=4.0, beta=2.0).build(),
    ]
    for model in models:
        for _ in range(10):
            z = PhaseState(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1))
            h = rng.uniform(0.01, 0.25)
            dw = rng.normal(0.0, math.sqrt(h), size=1)
            jac = gf2_jacobian(model, z, h, dw)
            fd = central_difference_jacobian(model, z, h, dw)
            assert_allclose(jac, fd, rtol=0, atol=1e-5)


def test_gf2_jacobian_refuses_a_model_without_force_third():
    built = DoubleWell(v=4.0, beta=2.0).build()
    model = dataclasses.replace(built, force_third=None)
    reason = "the Jacobian of the gf2 map needs the model's force_third"
    z = PhaseState([0.3], [-0.5])
    with pytest.raises(CapabilityError) as info:
        gf2_jacobian(model, z, 0.1, [0.2])
    assert str(info.value) == reason
    # The structure command's batched Jacobian refuses it alike.
    trials = [_StructureTrial(z, h, 0.5, np.zeros(1), np.zeros((4, 1))) for h in (0.1, 0.2)]
    with pytest.raises(CapabilityError) as info:
        _structure_rows(model, trials, 4)
    assert str(info.value) == f"step 0: {reason}"
    # The step itself never reads the third derivative.
    got, want = gf2_step(model, z, 0.1, [0.2]), gf2_step(built, z, 0.1, [0.2])
    assert (got.p.tobytes(), got.q.tobytes()) == (want.p.tobytes(), want.q.tobytes())


def test_conformal_symplecticity_analytic_models():
    rng = np.random.default_rng(99)
    for trial in range(100):
        h = rng.uniform(1e-3, 0.25)
        family = trial % 3
        if family == 0:
            model = LinearOscillator(
                a=rng.uniform(0.5, 3.0),
                v=rng.uniform(0.5, 4.0),
                sigma=rng.uniform(0.2, 1.0),
            ).build()
        elif family == 1:
            model = DoubleWell(v=rng.uniform(0.5, 4.0), beta=rng.uniform(0.5, 4.0)).build()
        else:
            model = random_quadratic(rng)
        d = model.dim
        z = PhaseState(rng.uniform(-2, 2, d), rng.uniform(-2, 2, d))
        dw = rng.normal(0.0, math.sqrt(h), size=model.noise_dim)
        jac = gf2_jacobian(model, z, h, dw)
        assert symplectic_defect(jac, model.friction, h) <= 1e-8


def test_phase_volume_dissipation_1024_steps():
    rng = np.random.default_rng(5)
    h, n = 0.01, 1024
    for model in (
        LinearOscillator(a=1.0, v=2.0, sigma=0.5).build(),
        DoubleWell(v=2.0, beta=2.0).build(),
    ):
        z = PhaseState([0.5], [1.2])
        product = np.eye(2)
        for _ in range(n):
            dw = rng.normal(0.0, math.sqrt(h), size=1)
            product = gf2_jacobian(model, z, h, dw) @ product
            z = gf2_step(model, z, h, dw)
        expected = math.exp(-model.friction * n * h)
        assert_allclose(np.linalg.det(product), expected, rtol=1e-6)


def test_phase_volume_dissipation_d2():
    rng = np.random.default_rng(6)
    kmat = np.array([[2.0, 0.4], [0.4, 1.0]])
    model = make_quadratic_model(kmat, np.eye(2), friction=2.0, noise=0.5 * np.eye(2))
    h, n = 0.01, 1024
    z = PhaseState([0.1, -0.3], [0.8, 0.2])
    product = np.eye(4)
    for _ in range(n):
        dw = rng.normal(0.0, math.sqrt(h), size=2)
        product = gf2_jacobian(model, z, h, dw) @ product
        z = gf2_step(model, z, h, dw)
    expected = math.exp(-model.friction * n * h * 2)
    assert_allclose(np.linalg.det(product), expected, rtol=1e-6)


def test_em_step_values():
    mass = np.array([[2.0, 0.5], [0.5, 1.0]])
    model = free_model(mass)
    z = PhaseState([0.3, -0.7], [1.0, 2.0])
    out = em_step(model, z, h=0.2)
    assert_allclose(out.p, z.p)
    assert_allclose(out.q, z.q + 0.2 * mass @ z.p)

    lin = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    out = em_step(lin, PhaseState([1.0], [0.0]), h=0.1)
    assert_allclose(out.p, [0.8], rtol=1e-15)
    assert_allclose(out.q, [0.1], rtol=1e-15)

    # Output is affine in dW with gain Sigma, entering p only.
    base = em_step(lin, PhaseState([1.0], [0.3]), h=0.1, dW=[0.0])
    kicked = em_step(lin, PhaseState([1.0], [0.3]), h=0.1, dW=[0.7])
    assert_allclose(kicked.p - base.p, lin.noise @ [0.7])
    assert_allclose(kicked.q, base.q)


def test_em_step_overflow():
    model = DoubleWell(v=4.0, beta=2.0).build()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RangeError):
            em_step(model, PhaseState([0.0], [1e103]), h=1.0)


def test_simulate_basics():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    z0 = PhaseState([3.0], [1.0])
    times, p, q = simulate(model, z0, h=0.1, noise=np.zeros((0, 1)))
    assert times.tolist() == [0.0]
    assert p.tolist() == [[3.0]] and q.tolist() == [[1.0]]

    rng = np.random.default_rng(8)
    incs = rng.normal(0.0, math.sqrt(0.1), size=(20, 1))
    times, p, q = simulate(model, z0, h=0.1, noise=incs)
    assert times.shape == (21,) and p.shape == q.shape == (21, 1)
    assert times.tobytes() == (0.1 * np.arange(21)).tobytes()
    z = z0
    for k in range(20):
        z = gf2_step(model, z, 0.1, incs[k])
    assert_allclose(p[-1], z.p, rtol=0)
    assert_allclose(q[-1], z.q, rtol=0)

    repeat = simulate(model, z0, h=0.1, noise=incs)
    assert [a.tobytes() for a in repeat] == [a.tobytes() for a in (times, p, q)]


def test_simulate_refuses_noise_of_the_wrong_shape():
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0 = PhaseState([0.0], [1.0])
    for noise, shape in ((np.zeros(3), "(3,)"), (np.zeros((3, 2)), "(3, 2)")):
        with pytest.raises(ArgumentError) as info:
            simulate(model, z0, 0.1, noise)
        assert str(info.value) == f"noise must have shape (n, 1), got {shape}"


def test_simulate_equals_iterated_gf2_steps():
    model = DoubleWell(v=4.0, beta=2.0).build()
    z0 = PhaseState([0.5], [-1.0])
    incs = np.random.default_rng(4).normal(0.0, math.sqrt(0.05), size=(40, 1))
    _, p, q = simulate(model, z0, h=0.05, noise=incs)
    z = z0
    for k in range(40):
        z = gf2_step(model, z, 0.05, incs[k])
        assert p[k + 1].tobytes() == z.p.tobytes()
        assert q[k + 1].tobytes() == z.q.tobytes()


def test_simulate_names_the_failing_step():
    model = DoubleWell(v=4.0, beta=2.0).build()
    nan_row = np.zeros((6, 1))
    nan_row[3, 0] = np.nan
    cases = [
        ([0.0, 30.0], 0.5, np.zeros((10, 1)), EvaluationError,
         "step 4: step produced a non-finite state at h=0.5"),
        ([0.0, 1.0], 0.1, nan_row, EvaluationError,
         "step 3: increment contains non-finite entries"),
        ([0.0, 0.0], math.sqrt(0.5), np.zeros((3, 1)), StepSizeError,
         "step 0: implicit step matrix has condition estimate 9.007e+15 "
         "at h=0.7071067811865476; reduce the step size"),
        ([0.0, 0.0], -1.0, np.zeros((3, 1)), ArgumentError,
         "step 0: step size must be positive and finite, got -1.0"),
        # An empty run validates its inputs as a one-step run does.
        ([[0.0, 0.0], [1.0, 1.0]], -1.0, np.zeros((0, 1)), ArgumentError,
         "step 0: state dimension does not match the model"),
        ([0.0, 1.0], math.nan, np.zeros((0, 1)), ArgumentError,
         "step 0: step size must be positive and finite, got nan"),
    ]
    for (p0, q0), h, noise, error, message in cases:
        with np.errstate(all="ignore"), pytest.raises(error) as info:
            simulate(model, PhaseState(p0, q0), h, noise)
        assert str(info.value) == message


def test_infinite_hessian_leaves_the_finite_numbers_on_every_path():
    # F(q) = |q|^1.5 has f(0) = 0 and an infinite Hessian at 0, so the step
    # matrix I + (h^2/2) inf would solve to P1 = 0 without the kernel's screen.
    with np.errstate(all="ignore"):
        model = LangevinModel(
            force=lambda q: 1.5 * np.sign(q) * np.sqrt(np.abs(q)),
            potential=lambda q: np.abs(q[..., 0]) ** 1.5,
            force_jacobian=lambda q: (0.75 / np.sqrt(np.abs(q)))[..., None],
            mass=np.eye(1),
            friction=1.0,
            noise=np.eye(1),
            force_third=lambda q: (-0.375 * np.sign(q) / np.abs(q) ** 1.5)[..., None, None],
        )
    z0 = PhaseState([1.0], [0.0])
    message = "step produced a non-finite state at h=0.1"
    for step in (gf2_step, gf2_jacobian):
        with pytest.raises(EvaluationError) as info:
            step(model, z0, 0.1, [0.3])
        assert str(info.value) == message
    with pytest.raises(EvaluationError) as info:
        simulate(model, z0, 0.1, [[0.3]])
    assert str(info.value) == f"step 0: {message}"
    cos_sum = get_test_function("cos_sum")
    with pytest.raises(EstimationError) as info:
        mc_expectation(model, "gf2", cos_sum, z0, 0.1, 0.1, 2, SeedPlan(0))
    assert str(info.value) == f"realization 0, step 0: {message}"


class _TwoArgumentError(Exception):
    def __init__(self, code: int, detail: str) -> None:
        super().__init__(code, detail)
        self.code = code


def test_simulate_propagates_foreign_exceptions_unchanged():
    calls = []

    def force(q):
        calls.append(q)
        if len(calls) > 2:
            raise _TwoArgumentError(7, "custom force refused")
        return q

    model = dataclasses.replace(LinearOscillator(a=1.0, v=2.0, sigma=0.5).build(), force=force)
    with pytest.raises(_TwoArgumentError) as info:
        simulate(model, PhaseState([0.0], [1.0]), h=0.1, noise=np.zeros((5, 1)))
    assert info.value.code == 7
    assert info.value.args == (7, "custom force refused")


def test_linear_exact_moments_endpoints():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    z0 = PhaseState([3.0], [1.0])
    law0 = linear_exact_moments(model, z0, 0.0)
    assert_allclose(law0.mean, [3.0, 1.0])
    assert_allclose(law0.cov, np.zeros((2, 2)))

    for t in (-1.0, math.inf, math.nan):
        with pytest.raises(ArgumentError) as info:
            linear_exact_moments(model, z0, t)
        assert str(info.value) == f"time must be nonnegative and finite, got {t}"

    #

    stationary = linear_exact_moments(model, z0, 20.0)
    assert_allclose(stationary.cov, 0.0625 * np.eye(2), atol=1e-8)


@pytest.mark.parametrize("a, v, t", [(1.0, 4.0, 20.0), (1.0, 8.0, 10.0), (0.5, 2.0, 40.0)])
def test_linear_exact_moments_long_horizon(a, v, t):
    # cov(t) = sigma^2/(2v) (I - phi phi^T) with phi = e^{At}; a single Van
    # Loan block at these t |A| leaves a covariance with a negative eigenvalue.
    model = LinearOscillator(a=a, v=v, sigma=0.5).build()
    law = linear_exact_moments(model, PhaseState([3.0], [1.0]), t)
    phi = scipy_expm(np.array([[-v, -a], [a, 0.0]]) * t)
    assert_allclose(law.mean, phi @ [3.0, 1.0], rtol=1e-12, atol=1e-300)
    assert_allclose(law.cov, 0.25 / (2.0 * v) * (np.eye(2) - phi @ phi.T), rtol=0, atol=2e-15)


def test_linear_exact_moments_rotation_at_zero_friction():
    model = dataclasses.replace(LinearOscillator(a=1.5, v=1.0, sigma=0.5).build(), friction=0.0)
    t = 0.7
    cols = []
    for basis in ([1.0, 0.0], [0.0, 1.0]):
        law = linear_exact_moments(model, PhaseState([basis[0]], [basis[1]]), t)
        cols.append(law.mean)
    phi = np.stack(cols, axis=1)
    angle = 1.5 * t
    rotation = np.array(
        [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    )
    assert_allclose(phi, rotation, atol=1e-12)


def test_linear_exact_moments_against_quadrature():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    t = 1.0
    law = linear_exact_moments(model, PhaseState([3.0], [1.0]), t)

    amat = np.array([[-2.0, -1.0], [1.0, 0.0]])
    nmat = np.array([[0.25, 0.0], [0.0, 0.0]])
    grid = np.linspace(0.0, t, 4001)
    total = np.zeros((2, 2))
    values = []
    for s in grid:
        expo = scipy_expm(amat * (t - s))
        values.append(expo @ nmat @ expo.T)
    values = np.array(values)
    # Simpson weights on the uniform grid.
    weights = np.ones(len(grid))
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    total = np.tensordot(weights, values, axes=(0, 0)) * (grid[1] - grid[0]) / 3.0
    assert_allclose(law.cov, total, atol=1e-10)


def scipy_expm(mat):
    import scipy.linalg

    return scipy.linalg.expm(mat)


def test_gf2_affine_map_structure():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    amap = gf2_affine_map(model, h=0.125)
    assert abs(np.linalg.det(amap.B) - math.exp(-0.25)) <= 1e-12

    tiny = gf2_affine_map(model, h=1e-8)
    assert_allclose(tiny.B, np.eye(2), atol=1e-6)
    assert_allclose(tiny.G, [[-0.5], [0.0]], atol=1e-7)


def closed_form_affine(a, v, sigma, h):
    """B and G of the gf2 map on the linear oscillator, solved by hand.

    With f(q) = a q and M = a the implicit solve is a division by
    1 + (h^2/2) a^2, and Sigma = -sigma; an oracle independent of the kernel.
    """
    noise = -sigma
    evm = math.exp(-v * h)
    evp = math.exp(v * h)
    half_vh = 0.5 * v * h
    den = 1.0 + 0.5 * h * h * a * a
    b00 = evm / den
    b01 = -h * (1.0 + half_vh) * evm * a / den
    lower_gain = h * (1.0 - half_vh) * evp * a
    b10 = lower_gain * b00
    b11 = 1.0 + 0.5 * h * h * a * a + lower_gain * b01
    g0 = (1.0 + half_vh) * evm * noise / den
    g1 = lower_gain * g0 - 0.5 * h * a * noise
    return np.array([[b00, b01], [b10, b11]]), np.array([[g0], [g1]])


def test_gf2_affine_map_matches_closed_form():
    grid = itertools.product((0.3, 1.0, 2.5, 4.0), (0.0, 0.1, 2.0, 5.0), (1e-6, 1e-3, 0.125, 0.5))
    for a, v, h in grid:
        model = dataclasses.replace(LinearOscillator(a=a, v=1.0, sigma=0.5).build(), friction=v)
        amap = gf2_affine_map(model, h)
        for got, want in zip((amap.B, amap.G), closed_form_affine(a, v, 0.5, h)):
            assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want)), (a, v, h)
    # Bit for bit at the shipped parameters.
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    for k in range(3, 8):
        B, G = closed_form_affine(1.0, 2.0, 0.5, 2.0**-k)
        amap = gf2_affine_map(model, 2.0**-k)
        assert amap.B.tobytes() == B.tobytes() and amap.G.tobytes() == G.tobytes()
    with pytest.raises(CapabilityError):
        gf2_affine_map(DoubleWell(v=2.0, beta=2.0).build(), 0.125)


def test_affine_consistency_with_gf2_step():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    amap = gf2_affine_map(model, h=0.125)
    rng = np.random.default_rng(10)
    for _ in range(20):
        z = PhaseState(rng.uniform(-3, 3, 1), rng.uniform(-3, 3, 1))
        dw = rng.normal(0.0, math.sqrt(0.125), size=1)
        stepped = gf2_step(model, z, 0.125, dw)
        vec = amap.B @ np.array([z.p[0], z.q[0]]) + amap.G @ dw
        assert_allclose(np.array([stepped.p[0], stepped.q[0]]), vec, atol=1e-13)


def test_affine_map_of_a_d2_quadratic_model_equals_gf2_step():
    model = _KERNEL_MODELS["quadratic_d2"]
    h = 0.1
    amap = gf2_affine_map(model, h)
    rng = np.random.default_rng(12)
    for _ in range(50):
        p, q = rng.uniform(-3.0, 3.0, (2, 2))
        dw = rng.normal(0.0, math.sqrt(h), 2)
        stepped = gf2_step(model, PhaseState(p, q), h, dw)
        vec = amap.B @ np.concatenate([p, q]) + amap.G @ dw
        assert_allclose(np.concatenate([stepped.p, stepped.q]), vec, rtol=0, atol=1e-14)


def test_linear_exact_moments_of_a_d2_model_reach_the_lyapunov_covariance():
    # A = [[-v I, -K], [M, 0]] and N = [Sigma; 0]: at t = 40 the covariance
    # has settled, to rounding, on the solution of A C + C A^T + N N^T = 0.
    import scipy.linalg

    model = _KERNEL_MODELS["quadratic_d2"]
    z0 = PhaseState([1.0, -0.5], [0.3, 2.0])
    kmat = np.array([[2.0, 0.5], [0.5, 1.0]])
    amat = np.block([[-model.friction * np.eye(2), -kmat], [model.mass, np.zeros((2, 2))]])
    nmat = np.vstack([model.noise, np.zeros((2, 2))])
    stationary = scipy.linalg.solve_continuous_lyapunov(amat, -nmat @ nmat.T)
    law = linear_exact_moments(model, z0, 40.0)
    assert np.max(np.abs(law.cov - stationary)) <= 1e-12
    z = np.concatenate([z0.p, z0.q])
    assert_allclose(law.mean, scipy_expm(40.0 * amat) @ z, rtol=1e-9, atol=1e-20)
    short = linear_exact_moments(model, z0, 0.5)
    assert_allclose(short.mean, scipy_expm(0.5 * amat) @ z, rtol=1e-12)


def test_linear_closed_forms_read_the_stiffness_off_the_force():
    z0 = PhaseState([1.0], [0.5])
    # A hand-written linear model gets the closed forms of its own slope 2
    # and unit mass, not of a model whose mass equals its slope.
    slope2 = LangevinModel(
        force=lambda q: 2.0 * q,
        potential=lambda q: q[..., 0] ** 2,
        force_jacobian=lambda q: np.full(np.shape(q) + (1,), 2.0),
        mass=np.eye(1),
        friction=2.0,
        noise=np.zeros((1, 1)),
    )
    amat = np.array([[-2.0, -2.0], [1.0, 0.0]])
    law = linear_exact_moments(slope2, z0, 1.0)
    assert_allclose(law.mean, scipy_expm(amat) @ np.array([1.0, 0.5]), rtol=1e-12)
    assert not np.any(law.cov)
    amap = gf2_affine_map(slope2, 0.125)
    for p, q in ((1.0, 0.5), (-0.3, 2.0)):
        stepped = gf2_step(slope2, PhaseState([p], [q]), 0.125, [0.0])
        assert_allclose(amap.B @ [p, q], [stepped.p[0], stepped.q[0]], rtol=0, atol=1e-15)
    # A force whose Hessian at the origin differs from its values at the unit
    # vectors, compared exactly, is no quadratic model.
    built = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    refused = (
        DoubleWell(v=2.0, beta=2.0).build(),
        dataclasses.replace(built, force=lambda q: 2.0 * q),
        dataclasses.replace(built, force=lambda q: np.nextafter(1.0, 2.0) * q),
        dataclasses.replace(built, force=lambda q: q + 0.5),
        dataclasses.replace(built, force_jacobian=lambda q: np.full(np.shape(q) + (1,), 2.0)),
    )
    for model in refused:
        for call in (lambda: gf2_affine_map(model, 0.125), lambda: linear_exact_moments(model, z0, 1.0)):
            with pytest.raises(CapabilityError, match="^this operation needs a quadratic model: "):
                call()
    # A copy whose callables give the same values, as a tracing wrapper's
    # do, keeps its bits.
    wrapped = dataclasses.replace(
        built, force=lambda q: built.force(q), force_jacobian=lambda q: built.force_jacobian(q)
    )
    assert gf2_affine_map(wrapped, 0.125).B.tobytes() == gf2_affine_map(built, 0.125).B.tobytes()


def test_propagate_gaussian_chain_basics():
    init = GaussianLaw(mean=[1.0, 2.0], cov=np.diag([0.1, 0.2]))
    identity = AffineStepMap(
        B=np.eye(2), G=np.zeros((2, 1)), friction=0.0, h=0.1
    )
    out = propagate_gaussian_chain(identity, init, 0, 0.1)
    assert_allclose(out.mean, init.mean)
    assert_allclose(out.cov, init.cov)
    out = propagate_gaussian_chain(identity, init, 5, 0.1)
    assert_allclose(out.mean, init.mean)
    assert_allclose(out.cov, init.cov)
    # The map carries its step size; another h is refused, not used.
    with pytest.raises(ArgumentError) as info:
        propagate_gaussian_chain(identity, init, 5, 0.2)
    assert str(info.value) == "step size 0.2 differs from the map's h=0.1"

    # A uniform contraction s I_4 with det s^4 = e^{-vhd} for d = 2.
    s = math.exp(-0.15)
    contraction = AffineStepMap(
        B=s * np.eye(4),
        G=np.eye(4)[:, :1],
        friction=1.0,
        h=0.3,
    )
    init4 = GaussianLaw(mean=np.ones(4), cov=np.eye(4))
    for n in (1, 3):
        out = propagate_gaussian_chain(contraction, init4, n, 0.3)
        assert_allclose(out.mean, s**n * np.ones(4))
        kept = sum(s ** (2 * i) for i in range(n))
        noise_cov = 0.3 * contraction.G @ contraction.G.T
        assert_allclose(out.cov, s ** (2 * n) * np.eye(4) + kept * noise_cov)

    # The chain's bits do not depend on the memory layout B and G arrive in.
    h = 2.0**-6
    amap = gf2_affine_map(LinearOscillator(a=1.0, v=2.0, sigma=0.5).build(), h)
    fortran = dataclasses.replace(amap, B=np.asfortranarray(amap.B), G=np.asfortranarray(amap.G))
    start = GaussianLaw(mean=[-10.0, 1.0], cov=np.zeros((2, 2)))
    laws = [propagate_gaussian_chain(m, start, 160, h) for m in (amap, fortran)]
    assert laws[0].mean.tobytes() == laws[1].mean.tobytes()
    assert laws[0].cov.tobytes() == laws[1].cov.tobytes()


def test_affine_step_map_checks_conformal_determinant_in_every_dimension():
    v, h = 1.0, 0.3
    s = math.exp(-v * h / 2.0)
    rotation = np.array([[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0, 0.5], [0.0, 0.0, 0.0, 1.0]])
    AffineStepMap(B=s * rotation, G=np.eye(4)[:, :2], friction=v, h=h)
    off = s * rotation
    off[2, 2] *= 1.0 + 1e-9
    # Off in the ninth digit, singular, and the d = 1 factor e^{-vh}.
    for bad in (off, np.zeros((4, 4)), math.exp(-v * h / 4.0) * np.eye(4)):
        with pytest.raises(ArgumentError, match=r"exp\(-vhd\)"):
            AffineStepMap(B=bad, G=np.eye(4)[:, :2], friction=v, h=h)
    with pytest.raises(ArgumentError, match="2d x 2d"):
        AffineStepMap(B=np.eye(3), G=np.eye(3)[:, :1], friction=0.0, h=h)


def test_gaussian_chain_matches_monte_carlo():
    model = LinearOscillator(a=1.0, v=2.0, sigma=0.5).build()
    h, n_steps, n_paths = 0.125, 8, 100_000
    amap = gf2_affine_map(model, h)
    init = GaussianLaw(mean=[3.0, 1.0], cov=np.zeros((2, 2)))
    chain = propagate_gaussian_chain(amap, init, n_steps, h)

    # gf2_step equals the affine map exactly (see the consistency test), so
    # the ensemble can be advanced in affine batch form.
    rng = np.random.default_rng(123)
    states = np.tile(np.array([3.0, 1.0])[:, None], (1, n_paths))
    for _ in range(n_steps):
        dw = rng.normal(0.0, math.sqrt(h), size=(1, n_paths))
        states = amap.B @ states + amap.G @ dw
    mean = states.mean(axis=1)
    se_mean = states.std(axis=1, ddof=1) / math.sqrt(n_paths)
    assert np.all(np.abs(mean - chain.mean) <= 4.0 * se_mean)

    centered = states - mean[:, None]
    for i in range(2):
        for j in range(2):
            prods = centered[i] * centered[j]
            cov_ij = prods.mean()
            se_ij = prods.std(ddof=1) / math.sqrt(n_paths)
            assert abs(cov_ij - chain.cov[i, j]) <= 4.0 * se_ij


def test_gaussian_law_validation():
    with pytest.raises(ArgumentError):
        GaussianLaw(mean=[0.0, 0.0], cov=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ArgumentError):
        GaussianLaw(mean=[0.0, 0.0], cov=np.array([[1.0, 0.0], [0.0, -1.0]]))
    law = GaussianLaw(mean=[0.0, 0.0], cov=np.array([[1.0, 0.0], [0.0, -1e-13]]))
    assert law.cov[1, 1] == -1e-13
