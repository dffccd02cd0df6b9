"""The catalog test functions, pinned bit for bit to their reduction forms."""

from __future__ import annotations

import numpy as np
import pytest

from langevin_gf.observables import TEST_FUNCTIONS, get_test_function
from langevin_gf.errors import CapabilityError

# The catalog as first written, with np.sum over the last axis: the oracle
# the column-by-column forms must match in every bit.
ORACLES = {
    "cos_sum": lambda p, q: np.cos(np.sum(p, axis=-1) + np.sum(q, axis=-1)),
    "exp_negsq": lambda p, q: np.exp(
        -0.5 * np.sum(p * p, axis=-1) - 0.5 * np.sum(q * q, axis=-1)
    ),
    "sin_sumsq": lambda p, q: np.sin(np.sum(p * p, axis=-1) + np.sum(q * q, axis=-1)),
}

# Signed zeros, subnormals, values whose squares overflow, and non-finite entries.
SPECIALS = np.array([
    0.0, -0.0, 5e-324, -5e-324, 1e-160, 1.0, -2.5, 1e16, 1.4e154, -1e154,
    1e300, -1e300, np.inf, -np.inf, np.nan, -np.nan,
])


def _inputs(d: int) -> list[tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(100 + d)
    n = 4000
    scale = rng.choice([1e-3, 1.0, 1e3, 1e10], (n, 2 * d))
    z = rng.standard_normal((n, 2 * d)) * scale
    z[: n // 2] = rng.choice(SPECIALS, (n // 2, 2 * d))
    grid = np.stack(np.meshgrid(SPECIALS, SPECIALS), axis=-1).reshape(-1, 2)
    z[: grid.shape[0], [0, d]] = grid  # every (p_1, q_1) pair of specials
    # Separate arrays, the strided column views the kernel and the quadrature
    # hand over, and a stacked (steps, R, d) batch.
    p, q = z[:, :d].copy(), z[:, d:].copy()
    return [(p, q), (z[:, :d], z[:, d:]), (p.reshape(8, -1, d), q.reshape(8, -1, d))]


@pytest.mark.parametrize("d", [1, 2, 3, 7, 9])
@pytest.mark.parametrize("name", sorted(TEST_FUNCTIONS))
def test_catalog_matches_its_reduction_form_bit_for_bit(name, d):
    psi, oracle = TEST_FUNCTIONS[name], ORACLES[name]
    with np.errstate(all="ignore"):
        for p, q in _inputs(d):
            expected, got = oracle(p, q), psi(p, q)
            assert got.shape == expected.shape == p.shape[:-1]
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()


def test_catalog_lookup_refuses_unknown_names():
    assert get_test_function("cos_sum") is TEST_FUNCTIONS["cos_sum"]
    with pytest.raises(CapabilityError, match="unknown test function"):
        get_test_function("cos")
