"""The closed catalog of test functions used by experiments.

Every function maps momentum and position blocks of shape (..., d) to values
of shape (...); the batch axes are whatever the caller needs (realizations,
quadrature grids).  Every test function, catalog or not, keeps that contract;
a scalar or a (..., 1) column is refused wherever it is read.  The catalog is
closed so configuration files and CSV columns always refer to a known,
spelled-out observable.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import CapabilityError

Array = np.ndarray
TestFunction = Callable[[Array, Array], Array]


def _sum(x: Array) -> Array:
    """Sum over the last axis in the order of ``np.sum(x, axis=-1)``.

    Rows shorter than eight are summed column by column from the left.  That
    is NumPy's order for them, except that NumPy turns a sum of negative
    zeros into +0.0, a sign no catalog function can see.  Columns avoid the
    reduction's per-call cost and the products on (N, 1) views.  Longer rows
    go to ``np.sum``, which sums them in interleaved blocks of eight.
    """
    if x.shape[-1] >= 8:
        return np.sum(x, axis=-1)
    total = x[..., 0]
    for j in range(1, x.shape[-1]):
        total = total + x[..., j]
    return total


def _sumsq(x: Array) -> Array:
    """|x|^2 over the last axis, in the order of :func:`_sum`."""
    if x.shape[-1] >= 8:
        return np.sum(x * x, axis=-1)
    col = x[..., 0]
    total = col * col
    for j in range(1, x.shape[-1]):
        col = x[..., j]
        total = total + col * col
    return total


def cos_sum(p: Array, q: Array) -> Array:
    """cos(sum p_i + sum q_i); bounded, sensitive to the law's mean and spread."""
    return np.cos(_sum(p) + _sum(q))


def exp_negsq(p: Array, q: Array) -> Array:
    """exp(-|p|^2/2 - |q|^2/2); bounded, concentrates near the origin."""
    return np.exp(-0.5 * _sumsq(p) - 0.5 * _sumsq(q))


def sin_sumsq(p: Array, q: Array) -> Array:
    """sin(|p|^2 + |q|^2); bounded, oscillatory in the radius."""
    return np.sin(_sumsq(p) + _sumsq(q))


TEST_FUNCTIONS: dict[str, TestFunction] = {
    "cos_sum": cos_sum,
    "exp_negsq": exp_negsq,
    "sin_sumsq": sin_sumsq,
}


def get_test_function(name: str) -> TestFunction:
    """Look up a catalog function by name; unknown names are refused."""
    try:
        return TEST_FUNCTIONS[name]
    except KeyError:
        raise CapabilityError(
            f"unknown test function {name!r}; catalog: {sorted(TEST_FUNCTIONS)}"
        ) from None
