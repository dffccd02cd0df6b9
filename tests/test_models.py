"""Tests for langevin_gf.models."""

from __future__ import annotations

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
    dw = gibbs_density_fn(DoubleWell(v=4.0, beta=2.0).build())
    assert_allclose(dw(0.0, 0.0), math.exp(-2.0), rtol=1e-15)

    lin = gibbs_density_fn(LinearOscillator(a=1.0, v=2.0, sigma=0.5).build())
    assert_allclose(lin(0.0, 0.0), 1.0, rtol=0)
    assert_allclose(lin(1.0, 0.0), math.exp(-8.0), rtol=1e-15)


def test_gibbs_density_rejects_unsupported_models():
    quad = make_quadratic_model(np.eye(2), np.eye(2), friction=1.0, noise=np.eye(2))
    with pytest.raises(CapabilityError):
        gibbs_density_fn(quad)


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
        dim=2,
        noise_dim=2,
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
    # The exactly-zero noise matrix is the documented deterministic limit.
    model = LangevinModel(mass=np.eye(2), noise=np.zeros((2, 2)), **base)
    assert model.noise_dim == 2
