"""Tests for langevin_gf.models."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from langevin_gf.errors import ArgumentError, CapabilityError
from langevin_gf.models import (
    DoubleWell,
    LangevinModel,
    LinearOscillator,
    PhaseState,
    eval_model,
    gibbs_density_fn,
    make_quadratic_model,
)


def test_eval_model_double_well_origin():
    model = DoubleWell(v=4.0, beta=1.0).build()
    pot, frc, hess = eval_model(model, 0.0)
    assert_allclose(pot, 1.0, rtol=0, atol=0)
    assert_allclose(frc, [-0.5], rtol=0, atol=0)
    assert_allclose(hess, [[-4.0]], rtol=0, atol=0)


def test_eval_model_linear_oscillator():
    model = LinearOscillator(a=2.0, v=1.0, sigma=0.5).build()
    pot, frc, hess = eval_model(model, 3.0)
    assert_allclose(pot, 9.0)
    assert_allclose(frc, [6.0])
    assert_allclose(hess, [[2.0]])

    model1 = LinearOscillator(a=1.0, v=1.0, sigma=0.5).build()
    pot, frc, hess = eval_model(model1, 0.0)
    assert pot == 0.0
    assert frc[0] == 0.0
    assert hess[0, 0] == 1.0


def test_force_matches_potential_gradient():
    rng = np.random.default_rng(11)
    eps = 1e-4
    for builder in (LinearOscillator(1.3, 2.0, 0.5), DoubleWell(4.0, 2.0)):
        model = builder.build()
        for _ in range(100):
            q = rng.uniform(-2.0, 2.0)
            _, frc, hess = eval_model(model, q)
            fplus, _, _ = eval_model(model, q + eps)
            fminus, _, _ = eval_model(model, q - eps)
            assert_allclose(frc[0], (fplus - fminus) / (2 * eps), atol=1e-6)
            _, gplus, _ = eval_model(model, q + eps)
            _, gminus, _ = eval_model(model, q - eps)
            assert_allclose(
                hess[0, 0], (gplus[0] - gminus[0]) / (2 * eps), atol=1e-6
            )


def test_quadratic_model_gradient_consistency():
    rng = np.random.default_rng(12)
    kmat = np.array([[2.0, 0.5], [0.5, 1.0]])
    model = make_quadratic_model(kmat, np.eye(2), friction=1.0, noise=np.eye(2))
    eps = 1e-4
    for _ in range(50):
        q = rng.uniform(-2.0, 2.0, size=2)
        _, frc, hess = eval_model(model, q)
        for i in range(2):
            step = np.zeros(2)
            step[i] = eps
            fplus, _, _ = eval_model(model, q + step)
            fminus, _, _ = eval_model(model, q - step)
            assert_allclose(frc[i], (fplus - fminus) / (2 * eps), atol=1e-6)
        assert_allclose(hess, kmat)


def test_gibbs_density_values():
    zero, one = np.zeros(1), np.ones(1)
    dw = gibbs_density_fn(DoubleWell(v=4.0, beta=2.0).build())
    assert_allclose(dw(zero, zero), math.exp(-2.0), rtol=1e-15)

    lin = gibbs_density_fn(LinearOscillator(a=1.0, v=2.0, sigma=0.5).build())
    assert_allclose(lin(zero, zero), 1.0, rtol=0)
    assert_allclose(lin(one, zero), math.exp(-8.0), rtol=1e-15)


def test_gibbs_density_rejects_unsupported_models():
    # Sigma Sigma^T M = diag(1, 2) is no multiple of I: exp(-beta H) is not
    # stationary for any beta.
    kmat = np.array([[2.0, 0.5], [0.5, 1.0]])
    quad = make_quadratic_model(kmat, np.diag([1.0, 2.0]), friction=1.0, noise=np.eye(2))
    reason = r"^fluctuation-dissipation fails: Sigma Sigma\^T M is not c I$"
    with pytest.raises(CapabilityError, match=reason):
        gibbs_density_fn(quad)


def test_gibbs_density_of_a_d2_model_under_fluctuation_dissipation():
    # Sigma Sigma^T M = 0.49 I, so beta = 2 v / 0.49.
    kmat = np.array([[2.0, 0.5], [0.5, 1.0]])
    rho = gibbs_density_fn(make_quadratic_model(kmat, np.eye(2), 1.0, 0.7 * np.eye(2)))
    rng = np.random.default_rng(5)
    p, q = rng.normal(size=(2, 3, 4, 2))
    energy = 0.5 * np.einsum("...i,...i->...", p, p) + 0.5 * np.einsum("...i,ij,...j->...", q, kmat, q)
    assert rho(p, q).shape == (3, 4)
    # exp(-x) turns an absolute error in x into a relative one, and x reaches
    # about 20 here.
    assert_allclose(rho(p, q), np.exp(-2.0 / 0.49 * energy), rtol=1e-13)


@pytest.mark.parametrize(
    "spec", [LinearOscillator(a=1.0, v=2.0, sigma=0.5), DoubleWell(v=4.0, beta=2.0)]
)
def test_gibbs_density_refuses_a_noiseless_model(spec):
    # The rate is read off Sigma, so a copy without noise would divide by zero.
    model = dataclasses.replace(spec.build(), noise=[[0.0]])
    with pytest.raises(CapabilityError, match="^a model without noise has no stationary density$"):
        gibbs_density_fn(model)


def test_phase_state_validation():
    with pytest.raises(ArgumentError):
        PhaseState([np.nan], [0.0])
    with pytest.raises(ArgumentError):
        PhaseState([0.0, 1.0], [0.0])
    state = PhaseState([1.0], [2.0])
    assert state.dim == 1


def test_builtin_parameter_validation():
    with pytest.raises(ArgumentError):
        LinearOscillator(a=0.0, v=2.0, sigma=0.5)
    with pytest.raises(ArgumentError):
        LinearOscillator(a=1.0, v=-1.0, sigma=0.5)
    with pytest.raises(ArgumentError):
        LinearOscillator(a=1.0, v=2.0, sigma=0.0)
    with pytest.raises(ArgumentError):
        DoubleWell(v=0.0, beta=1.0)
    with pytest.raises(ArgumentError):
        DoubleWell(v=1.0, beta=0.0)
    # Both builders refuse v = 0 on construction; a frictionless diagnostic
    # model is dataclasses.replace(model, friction=0.0) of a built one.
    with pytest.raises(ArgumentError, match="friction v must be positive"):
        LinearOscillator(a=1.0, v=0.0, sigma=0.5)


def test_model_matrix_validation():
    base = dict(
        force=lambda q: q,
        potential=lambda q: 0.5 * float(q @ q),
        force_jacobian=lambda q: np.eye(2),
        friction=1.0,
    )
    with pytest.raises(ArgumentError):
        LangevinModel(mass=np.array([[1.0, 0.5], [0.0, 1.0]]), noise=np.eye(2), **base)
    with pytest.raises(ArgumentError):
        LangevinModel(mass=np.array([[1.0, 0.0], [0.0, -1.0]]), noise=np.eye(2), **base)
    with pytest.raises(ArgumentError):
        LangevinModel(
            mass=np.eye(2), noise=np.array([[1.0, 0.0], [1.0, 0.0]]), **base
        )
    # The dimensions are read off the arrays; any other shape is refused,
    # naming both, never reshaped.
    shapes = "mass must be (d, d) and noise (d, m) with 1 <= d <= m, got {} and {}"
    cases = [
        (np.eye(2), [[0.3, 0.7, 0.1, 0.9]], (2, 2), (1, 4)),
        (np.eye(2), [0.5, 0.5], (2, 2), (2,)),
        (np.eye(3), np.eye(2), (3, 3), (2, 2)),
        (np.eye(2), np.ones((2, 1)), (2, 2), (2, 1)),
        (np.eye(2), 1.0, (2, 2), ()),
    ]
    for mass, noise, mass_shape, noise_shape in cases:
        with pytest.raises(ArgumentError) as info:
            LangevinModel(mass=mass, noise=noise, **base)
        assert str(info.value) == shapes.format(mass_shape, noise_shape)
    for mass, noise_shape in ((np.eye(2), (2,)), (np.eye(3), (2,))):
        with pytest.raises(ArgumentError) as info:
            make_quadratic_model(np.eye(2), mass, 1.0, np.array([0.5, 0.5]))
        assert str(info.value) == shapes.format(mass.shape, noise_shape)
    # The stiffness is checked against d at construction, not at the first step.
    stiffness = "stiffness must be a finite (2, 2) matrix, got {}"
    for kmat in (np.eye(3), np.ones(2), np.array([[1.0, 0.0], [0.0, np.inf]])):
        with pytest.raises(ArgumentError) as info:
            make_quadratic_model(kmat, np.eye(2), 1.0, np.eye(2))
        assert str(info.value) == stiffness.format(kmat.shape)
    with pytest.raises(ArgumentError, match="^stiffness must be symmetric$"):
        make_quadratic_model([[1.0, 0.5], [0.0, 1.0]], np.eye(2), 1.0, np.eye(2))
    # The exactly-zero noise matrix is the documented deterministic limit.
    model = LangevinModel(mass=np.eye(2), noise=np.zeros((2, 2)), **base)
    assert (model.dim, model.noise_dim) == (2, 2)
