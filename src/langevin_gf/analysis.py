"""Deterministic expectation machinery and convergence diagnostics.

Quadrature over Gibbs and Gaussian laws, weak-error curves with order
fitting, conformal-defect metrics, temporal averages, and the local
mean-square order probe.  Everything here is deterministic; the Monte Carlo
legs delegate to :mod:`langevin_gf.mc` and inherit its reproducibility
contract.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    DegenerateDensityError,
    EvaluationError,
)
from .integrators import (
    GaussianLaw,
    _check_step_size,
    gf2_affine_map,
    linear_exact_moments,
    propagate_gaussian_chain,
)
from .mc import SeedPlan, _steps_for, one_step_ms_gap, weak_error_mc
from .models import PhaseState, gibbs_density_fn

Array = np.ndarray

DEFAULT_BOX = (-10.0, 10.0)
DEFAULT_LEGENDRE_NODES = 200
DEFAULT_HERMITE_NODES = 64

_PIPELINES = ("deterministic", "mc", "mc-censored")


@functools.lru_cache(maxsize=64)
def _leggauss(n_nodes: int) -> tuple[Array, Array]:
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@functools.lru_cache(maxsize=64)
def _hermgauss(n_nodes: int) -> tuple[Array, Array]:
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def quad2d(
    f: Callable[[Array, Array], Array],
    box: tuple[float, float] = DEFAULT_BOX,
    n_nodes: int = DEFAULT_LEGENDRE_NODES,
) -> float:
    """Tensor-product Gauss-Legendre integral of f over box x box.

    The integrand must be vectorized: it receives two (n, n) grids and must
    return an (n, n) array of values.
    """
    lo, hi = float(box[0]), float(box[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ArgumentError(f"box must satisfy lo < hi, got ({lo}, {hi})")
    if n_nodes < 2:
        raise ArgumentError("need at least 2 quadrature nodes per axis")
    ref_nodes, weights = _leggauss(n_nodes)
    nodes = 0.5 * (hi - lo) * ref_nodes + 0.5 * (hi + lo)
    pgrid, qgrid = np.meshgrid(nodes, nodes, indexing="ij")
    values = np.asarray(f(pgrid, qgrid), dtype=float)
    if values.shape != pgrid.shape:
        raise ArgumentError(
            f"integrand returned shape {values.shape}, expected {pgrid.shape}"
        )
    finite = np.isfinite(values)
    if not np.all(finite):
        i, j = np.unravel_index(int(np.argmax(~finite)), values.shape)
        raise EvaluationError(
            f"integrand is non-finite at node (p={pgrid[i, j]}, q={qgrid[i, j]})"
        )
    scale = (0.5 * (hi - lo)) ** 2
    return float(scale * (weights @ values @ weights))


def ergodic_reference(
    model: object,
    psi: Callable[[Array, Array], Array],
    box: tuple[float, float] = DEFAULT_BOX,
    n_nodes: int = DEFAULT_LEGENDRE_NODES,
) -> float:
    """Spatial average of psi under the model's Gibbs density.

    Computes quad2d(psi * rho) / quad2d(rho); the normalization is computed,
    never assumed.  psi follows the test-function convention (momentum and
    position blocks with a trailing coordinate axis).
    """
    rho = gibbs_density_fn(model)
    norm = quad2d(rho, box, n_nodes)
    if not norm > 1e-300:
        raise DegenerateDensityError(
            f"Gibbs normalization integral {norm} is numerically zero on {box}"
        )
    weighted = quad2d(
        lambda p, q: np.asarray(psi(p[..., None], q[..., None]), dtype=float) * rho(p, q),
        box,
        n_nodes,
    )
    return weighted / norm


def _gauss_grid(law: GaussianLaw, n_nodes: int) -> tuple[Array, Array]:
    """Gauss-Hermite tensor grid adapted to the law's eigenstructure.

    Directions with (numerically) zero variance collapse to point masses, so
    degenerate laws cost nothing extra and stay exact.
    """
    cov = law.cov
    k = cov.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    top = max(float(eigvals[-1]), 0.0)
    coords: list[Array] = []
    weights: list[Array] = []
    for lam in eigvals:
        if lam > 0.0 and lam > top * 1e-14:
            x, w = _hermgauss(n_nodes)
            coords.append(x)
            weights.append(w)
        else:
            coords.append(np.zeros(1))
            weights.append(np.full(1, math.sqrt(math.pi)))
    mesh = np.meshgrid(*coords, indexing="ij")
    wmesh = np.meshgrid(*weights, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    total_w = np.prod(np.stack([m.ravel() for m in wmesh], axis=1), axis=1)
    scales = np.sqrt(2.0 * np.clip(eigvals, 0.0, None))
    points = law.mean + (grid * scales) @ eigvecs.T
    return points, total_w / math.pi ** (k / 2.0)


def gauss_expectation(
    psi: Callable[[Array], Array],
    law: GaussianLaw,
    n_nodes: int = DEFAULT_HERMITE_NODES,
) -> float:
    """E psi(Z) for Z ~ law, by Gauss-Hermite quadrature after factoring cov.

    psi receives an (N, k) block of sample points and returns (N,) values.
    Exact (to rounding) for polynomials of total degree <= 2*n_nodes - 1.
    """
    if n_nodes < 1:
        raise ArgumentError("need at least 1 quadrature node per axis")
    points, weights = _gauss_grid(law, n_nodes)
    values = np.asarray(psi(points), dtype=float).reshape(weights.shape)
    if not np.all(np.isfinite(values)):
        bad = int(np.argmax(~np.isfinite(values)))
        raise EvaluationError(f"psi is non-finite at quadrature point {points[bad]}")
    return float(weights @ values)


def _phase_psi(psi: Callable[[Array, Array], Array]) -> Callable[[Array], Array]:
    """Adapt a (p, q) test function to flat (N, 2) phase points."""
    return lambda z: psi(z[..., :1], z[..., 1:])


def weak_error_linear(
    model: object,
    psi: Callable[[Array, Array], Array],
    z0: PhaseState,
    h: float,
    T: float,
    n_nodes: int = DEFAULT_HERMITE_NODES,
) -> float:
    """|E psi(exact law at T) - E psi(numerical Gaussian chain at T)|.

    Fully deterministic: the exact law comes from the augmented matrix
    exponential, the numerical law from propagating the affine one-step map,
    and both expectations from Gauss-Hermite quadrature.
    """
    if z0.dim != 1:
        raise ArgumentError("the deterministic weak-error pipeline is one-dimensional")
    n_steps = _steps_for(h, T)
    exact = linear_exact_moments(model, z0, T)
    start = GaussianLaw(np.array([z0.p[0], z0.q[0]]), np.zeros((2, 2)))
    numeric = propagate_gaussian_chain(gf2_affine_map(model, h), start, n_steps, h)
    fn = _phase_psi(psi)
    return abs(gauss_expectation(fn, exact, n_nodes) - gauss_expectation(fn, numeric, n_nodes))


def fit_order(points: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope and intercept of log(error) against log(h)."""
    pts = [(float(h), float(err)) for h, err in points]
    if len(pts) < 2:
        raise ArgumentError("need at least 2 points to fit an order")
    hs = [h for h, _ in pts]
    errs = [err for _, err in pts]
    if any(not (h > 0 and math.isfinite(h)) for h in hs):
        raise ArgumentError("step sizes must be positive and finite")
    if len(set(hs)) != len(hs):
        raise ArgumentError("step sizes must be distinct")
    if any(not (err > 0 and math.isfinite(err)) for err in errs):
        raise ArgumentError(
            "errors must be positive and finite; floor values at the noise level first"
        )
    slope, intercept = np.polyfit(np.log(hs), np.log(errs), 1)
    return float(slope), float(intercept)


def conformal_defect(jac: Array, friction: float, h: float) -> float:
    """Max-norm defect of J^T Omega J = e^(-vh) Omega on the 2d phase space."""
    mat = np.asarray(jac, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2 != 0:
        raise ArgumentError(f"need a square even-dimensional matrix, got {mat.shape}")
    d = mat.shape[0] // 2
    omega = np.block(
        [[np.zeros((d, d)), np.eye(d)], [-np.eye(d), np.zeros((d, d))]]
    )
    return float(np.max(np.abs(mat.T @ omega @ mat - math.exp(-friction * h) * omega)))


def temporal_average(series: Array) -> Array:
    """Running averages: k-th output is the mean of the first k entries."""
    arr = np.asarray(series, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ArgumentError("series must be non-empty")
    return np.cumsum(arr) / np.arange(1, arr.size + 1)


@dataclasses.dataclass(frozen=True)
class WeakOrderPoint:
    """One weak-error measurement with its provenance."""

    h: float
    error: float
    std_error: float
    pipeline: str

    def __post_init__(self) -> None:
        _check_step_size(self.h)
        if not self.std_error >= 0:
            raise ArgumentError("std_error must be nonnegative")
        if self.pipeline not in _PIPELINES:
            raise ArgumentError(
                f"unknown pipeline {self.pipeline!r}; expected one of {_PIPELINES}"
            )


@dataclasses.dataclass(frozen=True)
class WeakOrderReport:
    """Measured (h, error) points plus the fitted log-log line."""

    points: tuple[WeakOrderPoint, ...]
    slope: float
    intercept: float

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ArgumentError("a weak-order report needs at least 2 points")
        hs = [pt.h for pt in self.points]
        if len(set(hs)) != len(hs):
            raise ArgumentError("step sizes must be distinct")
        if not math.isfinite(self.slope):
            raise ArgumentError("fitted slope must be finite")


def weak_order_report(points: Sequence[WeakOrderPoint]) -> WeakOrderReport:
    """Censor noise-dominated MC points, fit the rest, keep all for display.

    An MC point whose |error| is below twice its standard error carries no
    order information; it is relabeled "mc-censored" and excluded from the
    fit.  Fewer than two surviving points is an error.
    """
    pts = tuple(points)
    survivors: list[tuple[float, float]] = []
    labeled: list[WeakOrderPoint] = []
    for pt in pts:
        if pt.pipeline == "mc" and abs(pt.error) < 2.0 * pt.std_error:
            labeled.append(dataclasses.replace(pt, pipeline="mc-censored"))
        else:
            labeled.append(pt)
            survivors.append((pt.h, abs(pt.error)))
    if len(survivors) < 2:
        raise ArgumentError(
            "fewer than 2 points survive censoring; increase realizations"
        )
    slope, intercept = fit_order(survivors)
    return WeakOrderReport(points=tuple(labeled), slope=slope, intercept=intercept)


@dataclasses.dataclass(frozen=True)
class ErgodicSeries:
    """Per-step expectations and their running average for one initial value."""

    label: str
    times: Array
    values: Array
    running: Array

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float).reshape(-1)
        values = np.asarray(self.values, dtype=float).reshape(-1)
        running = np.asarray(self.running, dtype=float).reshape(-1)
        if not (times.shape == values.shape == running.shape) or times.size == 0:
            raise ArgumentError("times, values and running must be equal-length and non-empty")
        if np.any(np.diff(times) <= 0):
            raise ArgumentError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "running", running)


@dataclasses.dataclass(frozen=True)
class ErgodicReport:
    """Running temporal averages per initial value against one reference."""

    psi: str
    series: tuple[ErgodicSeries, ...]
    reference: float
    final_deviations: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.series:
            raise ArgumentError("a report needs at least one series")
        length = self.series[0].times.size
        if any(s.times.size != length for s in self.series):
            raise ArgumentError("all series must have equal length")
        if not math.isfinite(self.reference):
            raise ArgumentError("reference must be finite")
        if len(self.final_deviations) != len(self.series):
            raise ArgumentError("one final deviation per series is required")


def ergodic_report(
    psi_label: str, series: Sequence[ErgodicSeries], reference: float
) -> ErgodicReport:
    """Assemble an ErgodicReport, computing final deviations from the data."""
    tup = tuple(series)
    deviations = tuple(abs(float(s.running[-1]) - reference) for s in tup)
    return ErgodicReport(
        psi=psi_label, series=tup, reference=reference, final_deviations=deviations
    )


def linear_ergodic_series(
    model: object,
    psis: Sequence[Callable[[Array, Array], Array]],
    z0: PhaseState,
    h: float,
    n_steps: int,
    n_nodes: int = DEFAULT_HERMITE_NODES,
) -> tuple[Array, Array]:
    """Deterministic per-step expectations E psi(Z_n) on the linear model.

    Propagates the exact Gaussian law of the scheme step by step and applies
    Gauss-Hermite quadrature for every test function on a shared node grid.
    Returns (times, means) with means of shape (len(psis), n_steps + 1).
    """
    if n_steps < 0:
        raise ArgumentError("step count must be nonnegative")
    if z0.dim != 1:
        raise ArgumentError("the deterministic ergodic pipeline is one-dimensional")
    amap = gf2_affine_map(model, h)
    law = GaussianLaw(np.array([z0.p[0], z0.q[0]]), np.zeros((2, 2)))
    fns = [_phase_psi(psi) for psi in psis]
    means = np.empty((len(fns), n_steps + 1))
    for step in range(n_steps + 1):
        if step > 0:
            law = propagate_gaussian_chain(amap, law, 1, h)
        points, weights = _gauss_grid(law, n_nodes)
        for j, fn in enumerate(fns):
            means[j, step] = float(weights @ np.asarray(fn(points), dtype=float))
    return h * np.arange(n_steps + 1), means


def linear_weak_order(
    model: object,
    psi: Callable[[Array, Array], Array],
    z0: PhaseState,
    T: float,
    step_sizes: Sequence[float],
    n_nodes: int = DEFAULT_HERMITE_NODES,
) -> WeakOrderReport:
    """Weak-order curve on the linear model, fully deterministic pipeline."""
    points = [
        WeakOrderPoint(
            h=float(h),
            error=weak_error_linear(model, psi, z0, h, T, n_nodes),
            std_error=0.0,
            pipeline="deterministic",
        )
        for h in step_sizes
    ]
    return weak_order_report(points)


def mc_weak_order(
    model: object,
    psi: Callable[[Array, Array], Array],
    z0: PhaseState,
    T: float,
    step_sizes: Sequence[float],
    n_realizations: int,
    refine: int,
    plan: SeedPlan,
) -> WeakOrderReport:
    """Weak-order curve against a common-random-number fine reference."""
    points = []
    for h in step_sizes:
        est = weak_error_mc(model, psi, z0, float(h), T, n_realizations, refine, plan)
        points.append(
            WeakOrderPoint(
                h=float(h), error=est.mean, std_error=est.std_error, pipeline="mc"
            )
        )
    return weak_order_report(points)


def local_ms_error(
    model: object,
    z0: PhaseState,
    step_sizes: Sequence[float],
    refine: int,
    n_realizations: int,
    plan: SeedPlan,
) -> WeakOrderReport:
    """Order fit of the one-step mean-square gap E ||Z(h) - Z_1||^2."""
    points = []
    for h in step_sizes:
        est = one_step_ms_gap(model, z0, float(h), refine, n_realizations, plan)
        points.append(
            WeakOrderPoint(
                h=float(h), error=est.mean, std_error=est.std_error, pipeline="mc"
            )
        )
    return weak_order_report(points)
