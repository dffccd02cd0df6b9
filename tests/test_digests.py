"""Committed sha256 digests of the Monte Carlo estimators' output bits.

Each digest hashes the little-endian float64 bytes of every estimator's
output for one model over three master seeds.  A change that moves any bit
of any estimate fails here; a change that moves bits on purpose updates the
digest and says why in CHANGES.md.

The coupled d = 2 quadratic model has its own digest: its per-state
``np.linalg.solve`` goes through LAPACK, so a mismatch there on another
numeric stack points at the stack rather than at the engine.

The deterministic linear pipeline is pinned the same way: the affine
one-step map's B and G, ``weak_error_linear`` and ``linear_ergodic_series``
on the shipped linear parameters.  Their quadrature sums are BLAS dot
products and ``eigh`` calls, so these digests, too, belong to this numeric
stack.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from langevin_gf.analysis import linear_ergodic_series, weak_error_linear
from langevin_gf.errors import EstimationError
from langevin_gf.integrators import gf2_affine_map
from langevin_gf.mc import (
    SeedPlan,
    mc_expectation,
    mc_step_means,
    one_step_ms_gap,
    weak_error_mc,
)
from langevin_gf.models import DoubleWell, LinearOscillator, PhaseState, make_quadratic_model
from langevin_gf.observables import cos_sum, exp_negsq, sin_sumsq

SEEDS = (0, 2**64 - 1, 20240817)
N_REALIZATIONS = 2500
H, T, REFINE = 0.125, 1.0, 4


def _quadratic_d2():
    return make_quadratic_model(
        np.array([[2.0, 0.5], [0.5, 1.0]]),
        np.array([[1.0, 0.2], [0.2, 0.8]]),
        friction=1.0,
        noise=np.array([[0.7, 0.1, -0.3], [0.0, 0.6, 0.2]]),
    )


MODELS = {
    "double_well": (lambda: DoubleWell(v=1.0, beta=2.0).build(), [0.3], [-0.5]),
    "linear_a1.3": (lambda: LinearOscillator(a=1.3, v=0.8, sigma=0.5).build(), [0.4], [1.0]),
    "quadratic_d2": (_quadratic_d2, [0.2, -0.1], [0.5, 0.3]),
}

DIGESTS = {
    "double_well": "129e32874284aa4f4338ccf31282744c7ec6aedc0918c805706cc5fea118d283",
    "linear_a1.3": "50bba7fbc040639a0b3c948852b3c756e84a1db09e313780c745e1cf8e54474f",
    "quadratic_d2": "11ffe02ee78a2112fd20068960b10d15e5af769b109b7c6a27de0c155465b3c7",
}


def _output_bytes(name: str) -> bytes:
    build, p0, q0 = MODELS[name]
    model, z0 = build(), PhaseState(p0, q0)
    chunks = []
    for seed in SEEDS:
        plan = SeedPlan(seed)
        results = [
            mc_expectation(model, "gf2", cos_sum, z0, H, T, N_REALIZATIONS, plan),
            mc_expectation(model, "em", exp_negsq, z0, H, T, N_REALIZATIONS, plan),
            weak_error_mc(model, sin_sumsq, z0, H, T, N_REALIZATIONS, REFINE, plan),
            one_step_ms_gap(model, z0, H, REFINE, N_REALIZATIONS, plan),
        ]
        for result in results:
            chunks.append(np.array([result.mean, result.std_error], dtype="<f8").tobytes())
        times, means = mc_step_means(
            model, [cos_sum, exp_negsq, sin_sumsq], z0, H, 8, N_REALIZATIONS, plan
        )
        chunks.append(np.ascontiguousarray(times, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(means, dtype="<f8").tobytes())
    return b"".join(chunks)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_mc_output_digest(name):
    assert hashlib.sha256(_output_bytes(name)).hexdigest() == DIGESTS[name]


def test_blowup_message_is_pinned():
    model = DoubleWell(v=4.0, beta=2.0).build()
    h = 0.55
    with pytest.raises(EstimationError) as info:
        mc_expectation(
            model, "gf2", cos_sum, PhaseState([0.0], [1.5]), h, 20 * h, 5000, SeedPlan(8)
        )
    assert str(info.value) == "realization 13 produced a non-finite state at step 6"


LINEAR = LinearOscillator(a=1.0, v=2.0, sigma=0.5)
PSIS = (cos_sum, exp_negsq, sin_sumsq)
STEP_SIZES = tuple(2.0**-k for k in range(3, 8))


def _affine_map_bytes() -> bytes:
    maps = [gf2_affine_map(LINEAR, h) for h in STEP_SIZES]
    return b"".join(m.B.astype("<f8").tobytes() + m.G.astype("<f8").tobytes() for m in maps)


def _weak_error_linear_bytes() -> bytes:
    z0 = PhaseState([3.0], [1.0])
    errors = np.array([weak_error_linear(LINEAR, PSIS, z0, h, 1.0) for h in STEP_SIZES])
    return np.ascontiguousarray(errors.T, dtype="<f8").tobytes()


def _linear_ergodic_series_bytes() -> bytes:
    initials = (PhaseState([-10.0], [1.0]), PhaseState([4.0], [2.0]))
    times, means = linear_ergodic_series(LINEAR, PSIS, initials, 2.0**-6, 160)
    chunks = []
    for series in means:
        chunks.append(np.ascontiguousarray(times, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(series, dtype="<f8").tobytes())
    return b"".join(chunks)


DETERMINISTIC = {
    "gf2_affine_map": _affine_map_bytes,
    "weak_error_linear": _weak_error_linear_bytes,
    "linear_ergodic_series": _linear_ergodic_series_bytes,
}

DETERMINISTIC_DIGESTS = {
    "gf2_affine_map": "1da4914008f4342169f4c1f676c17dfa21dcf509ce1e9a808ecf36867a7b66ed",
    "weak_error_linear": "31ec8212f2d561c6cd355cc1a327fc697f82badac55d83a0fa7663bae2b5c5e6",
    "linear_ergodic_series": "95b886f883165431d93d9898b141fd28d9a99c93c4d35268cb0b22f058d06011",
}


@pytest.mark.parametrize("name", sorted(DETERMINISTIC))
def test_deterministic_output_digest(name):
    output = DETERMINISTIC[name]()
    assert hashlib.sha256(output).hexdigest() == DETERMINISTIC_DIGESTS[name]
