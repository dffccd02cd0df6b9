"""Deterministic expectation machinery and convergence diagnostics.

Quadrature over Gibbs and Gaussian laws, weak-error curves with order
fitting, conformal-defect metrics, temporal averages, and the local
mean-square order probe.  Everything here is deterministic; the Monte Carlo
legs delegate to :mod:`langevin_gf.mc` and inherit its reproducibility
contract.  Gaussian expectations, single or per step of the linear chain,
go through one routine that refuses a non-finite psi value; the tensor
Gauss-Hermite grid is built once per process and only rotated and scaled
to each covariance.  Every function takes the sequence of test functions
and does the law-dependent work once for all of them: one Gibbs density
for the ergodic references, one exact and one chain law per step size for
the deterministic weak order, and, in the ergodic series, one covariance
chain for all initial points, with exact reuse once the chain stops
moving in floating point.  The three order curves (deterministic, Monte
Carlo weak error and local mean-square gap) share one point loop.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    DegenerateDensityError,
    EvaluationError,
)
from .integrators import (
    GaussianLaw,
    _chain_step,
    _check_spectrum,
    _check_step_size,
    gf2_affine_map,
    linear_exact_moments,
    propagate_gaussian_chain,
)
from .mc import SeedPlan, _steps_for, one_step_ms_gap, weak_error_mc
from .models import LangevinModel, PhaseState, _count, _on_rows, gibbs_density_fn

Array = np.ndarray

DEFAULT_BOX = (-10.0, 10.0)
DEFAULT_LEGENDRE_NODES = 200
DEFAULT_HERMITE_NODES = 64

_PIPELINES = ("deterministic", "mc", "mc-censored")
# Grid rows per block when a test function or density is evaluated on the
# Gauss-Legendre grid.
_ROW_BLOCK = 25

_mean_se = operator.attrgetter("mean", "std_error")


@functools.lru_cache(maxsize=64)
def _gauss_rule(rule: Callable[[int], tuple[Array, Array]], n_nodes: int) -> tuple[Array, Array]:
    """Read-only nodes and weights of a numpy Gauss rule, computed once per (rule, n)."""
    nodes, weights = rule(n_nodes)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _legendre_grid(
    box: tuple[float, float], n_nodes: int
) -> tuple[Array, Array, Array, float]:
    """(p, q) node grids, axis weights and area factor of Gauss-Legendre on box x box."""
    lo, hi = float(box[0]), float(box[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ArgumentError(f"box must satisfy lo < hi, got ({lo}, {hi})")
    n_nodes = _count(n_nodes, 2, "need at least 2 quadrature nodes per axis")
    ref_nodes, weights = _gauss_rule(np.polynomial.legendre.leggauss, n_nodes)
    nodes = 0.5 * (hi - lo) * ref_nodes + 0.5 * (hi + lo)
    # Read-only broadcast views: a full copy of each grid would add 2 n^2 floats.
    pgrid = np.broadcast_to(nodes[:, None], (n_nodes, n_nodes))
    qgrid = np.broadcast_to(nodes[None, :], (n_nodes, n_nodes))
    return pgrid, qgrid, weights, (0.5 * (hi - lo)) ** 2


def quad2d(
    f: Callable[[Array, Array], Array],
    box: tuple[float, float] = DEFAULT_BOX,
    n_nodes: int = DEFAULT_LEGENDRE_NODES,
) -> float:
    """Tensor-product Gauss-Legendre integral of f over box x box.

    The integrand must be vectorized: it receives two read-only (n, n) grids
    and must return an (n, n) array of values.
    """
    pgrid, qgrid, weights, scale = _legendre_grid(box, n_nodes)
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
    return float(scale * (weights @ values @ weights))


def ergodic_reference(
    model: LangevinModel,
    psis: Sequence[Callable[[Array, Array], Array]],
    box: tuple[float, float] = DEFAULT_BOX,
    n_nodes: int = DEFAULT_LEGENDRE_NODES,
) -> list[float]:
    """Spatial average of each psi under the model's Gibbs density.

    Computes quad2d(psi * rho) / quad2d(rho) over the (p, q) plane, so d
    must be 1; the normalization is computed, never assumed, once for all
    psis.  psi and rho take (momentum, position) blocks with a trailing
    coordinate axis and are evaluated on blocks of grid rows, which keeps
    every bit and the memory small.
    """
    if model.dim != 1:
        raise ArgumentError(f"the Gibbs quadrature is two-dimensional, got d = {model.dim}")
    rho = _by_row_blocks(gibbs_density_fn(model), *_legendre_grid(box, n_nodes)[:2], "rho")
    # quad2d integrates on the same grid, so its integrands reuse rho as is.
    norm = quad2d(lambda p, q: rho, box, n_nodes)
    if not norm > 1e-300:
        raise DegenerateDensityError(
            f"Gibbs normalization integral {norm} is numerically zero on {box}"
        )

    def weighted(p: Array, q: Array, psi: Callable[[Array, Array], Array]) -> Array:
        values = _by_row_blocks(psi, p, q, "psi")
        values *= rho
        return values

    return [
        quad2d(functools.partial(weighted, psi=psi), box, n_nodes) / norm for psi in psis
    ]


def _by_row_blocks(fn: Callable[[Array, Array], Array], p: Array, q: Array, what: str) -> Array:
    """fn on the (p, q) grid points, given as (..., 1) blocks, per block of grid rows.

    The values are those of one call on the whole grid, but fn's temporaries
    stay the size of a block rather than of the grid.
    """
    out = np.empty(p.shape)
    for lo in range(0, p.shape[0], _ROW_BLOCK):
        block = [x[lo: lo + _ROW_BLOCK, :, None] for x in (p, q)]
        out[lo: lo + _ROW_BLOCK] = _on_rows(fn(*block), block[0], (), what)
    return out


@functools.lru_cache(maxsize=16)
def _hermite_grid(live: tuple[bool, ...], n_nodes: int) -> tuple[Array, Array]:
    """Read-only tensor Gauss-Hermite nodes and normalised weights, built once per pattern.

    A direction that is not live is a point mass: one node at 0.
    """
    coords: list[Array] = []
    weights: list[Array] = []
    for alive in live:
        if alive:
            x, w = _gauss_rule(np.polynomial.hermite.hermgauss, n_nodes)
            coords.append(x)
            weights.append(w)
        else:
            coords.append(np.zeros(1))
            weights.append(np.full(1, math.sqrt(math.pi)))
    mesh = np.meshgrid(*coords, indexing="ij")
    wmesh = np.meshgrid(*weights, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    total_w = np.prod(np.stack([m.ravel() for m in wmesh], axis=1), axis=1)
    total_w = total_w / math.pi ** (len(live) / 2.0)
    grid.setflags(write=False)
    total_w.setflags(write=False)
    return grid, total_w


def _gauss_grid(cov: Array, n_nodes: int) -> tuple[Array, Array]:
    """Offsets from the mean and weights of the Gauss-Hermite grid adapted to cov.

    The grid follows cov's eigenstructure.  Directions with (numerically)
    zero variance collapse to point masses, so degenerate laws cost nothing
    extra and stay exact.  A significantly negative eigenvalue is refused.
    """
    n_nodes = _count(n_nodes, 1, "need at least 1 quadrature node per axis")
    eigvals, eigvecs = np.linalg.eigh(cov)
    _check_spectrum(eigvals, cov)
    top = max(float(eigvals[-1]), 0.0)
    live = tuple(bool(lam > 0.0 and lam > top * 1e-14) for lam in eigvals)
    grid, weights = _hermite_grid(live, n_nodes)
    scales = np.sqrt(2.0 * np.clip(eigvals, 0.0, None))
    # grid * scales, as one flat product: broadcasting over the short last
    # axis costs about twice as much for the same bits.
    scaled = (grid.ravel() * np.tile(scales, len(grid))).reshape(grid.shape)
    return scaled @ eigvecs.T, weights


def _gauss_means(
    psis: Sequence[Callable[[Array], Array]], points: Array, weights: Array
) -> Array:
    """weights @ psi(points) for each psi; a non-finite psi value names its point."""
    means = np.empty(len(psis))
    for j, psi in enumerate(psis):
        values = _on_rows(psi(points), points, (), "psi")
        if not np.all(np.isfinite(values)):
            bad = int(np.argmax(~np.isfinite(values)))
            raise EvaluationError(f"psi is non-finite at quadrature point {points[bad]}")
        means[j] = weights @ values
    return means


def _law_means(
    psis: Sequence[Callable[[Array], Array]], law: GaussianLaw, n_nodes: int
) -> Array:
    """E psi(Z) for Z ~ law and each psi, all on one Gauss-Hermite grid."""
    offsets, weights = _gauss_grid(law.cov, n_nodes)
    return _gauss_means(psis, law.mean + offsets, weights)


def _phase_psi(psi: Callable[[Array, Array], Array]) -> Callable[[Array], Array]:
    """Adapt a (p, q) test function to flat (N, 2) phase points."""
    return lambda z: psi(z[..., :1], z[..., 1:])


def weak_error_linear(
    model: LangevinModel,
    psis: Sequence[Callable[[Array, Array], Array]],
    z0: PhaseState,
    h: float,
    T: float,
    n_nodes: int = DEFAULT_HERMITE_NODES,
) -> Array:
    """|E psi(exact law at T) - E psi(numerical Gaussian chain at T)| for each psi.

    Fully deterministic: the exact law comes from the augmented matrix
    exponential, the numerical law from propagating the affine one-step map,
    and both expectations from Gauss-Hermite quadrature.  Each law is
    computed, and its grid built, once for all psis.
    """
    if model.dim != 1 or z0.dim != 1:
        raise ArgumentError("the deterministic weak-error pipeline is one-dimensional")
    n_steps = _steps_for(h, T)
    exact = linear_exact_moments(model, z0, T)
    start = GaussianLaw(np.array([z0.p[0], z0.q[0]]), np.zeros((2, 2)))
    numeric = propagate_gaussian_chain(gf2_affine_map(model, h), start, n_steps, h)
    fns = [_phase_psi(psi) for psi in psis]
    return np.abs(_law_means(fns, exact, n_nodes) - _law_means(fns, numeric, n_nodes))


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


def linear_ergodic_series(
    model: LangevinModel,
    psis: Sequence[Callable[[Array, Array], Array]],
    initials: Sequence[PhaseState],
    h: float,
    n_steps: int,
    n_nodes: int = DEFAULT_HERMITE_NODES,
) -> tuple[Array, Array]:
    """Deterministic per-step expectations E psi(Z_n) on a d = 1 quadratic model.

    Propagates the exact Gaussian law of the scheme from each initial point
    step by step and applies Gauss-Hermite quadrature for every test
    function on a shared node grid.  The covariance starts at zero for every
    initial, so it is stepped and factored once per step for all of them,
    and a covariance that repeats the previous step's byte for byte reuses
    its grid offsets.  An initial whose quadrature points repeat the previous
    step's byte for byte copies that step's means instead of calling psi,
    which must therefore be a pure function of its points.  Every value is
    bit-identical to composing :func:`propagate_gaussian_chain` and
    :func:`_law_means` step by step.

    Returns (times, means) with means of shape
    (len(initials), len(psis), n_steps + 1).
    """
    n_steps = _count(n_steps, 0, "step count must be nonnegative")
    if model.dim != 1 or any(z0.dim != 1 for z0 in initials):
        raise ArgumentError("the deterministic ergodic pipeline is one-dimensional")
    amap = gf2_affine_map(model, h)
    noise_cov = h * (amap.G @ amap.G.T)
    centres = [np.array([z0.p[0], z0.q[0]]) for z0 in initials]
    cov = np.zeros((2, 2))
    fns = [_phase_psi(psi) for psi in psis]
    means = np.empty((len(centres), len(fns), n_steps + 1))
    cov_key = None
    point_keys: list[bytes | None] = [None] * len(centres)
    for step in range(n_steps + 1):
        if step > 0:
            centres, cov = _chain_step(amap, centres, cov, noise_cov)
        if cov.tobytes() != cov_key:
            cov_key = cov.tobytes()
            offsets, weights = _gauss_grid(cov, n_nodes)
            pairs = offsets.view(np.complex128)
        for i, centre in enumerate(centres):
            # centre + offsets, as one complex sum per point: the real and
            # imaginary parts add separately, so the floats are the same, and
            # it avoids broadcasting over a length-2 axis, which costs 8x more.
            points = (pairs + complex(centre[0], centre[1])).view(np.float64)
            # Grids with as many points have the same weights, so equal
            # points give equal means.
            key = points.tobytes()
            if key == point_keys[i]:
                means[i, :, step] = means[i, :, step - 1]
            else:
                means[i, :, step] = _gauss_means(fns, points, weights)
                point_keys[i] = key
    return h * np.arange(n_steps + 1), means


def _order_report(
    step_sizes: Sequence[float], pipeline: str, estimate: Callable[[float], tuple[float, float]]
) -> WeakOrderReport:
    """Fit the order of (error, std_error) = estimate(h) over the step sizes."""
    return weak_order_report(
        [WeakOrderPoint(float(h), *estimate(float(h)), pipeline) for h in step_sizes]
    )


def linear_weak_order(
    model: LangevinModel,
    psis: Sequence[Callable[[Array, Array], Array]],
    z0: PhaseState,
    T: float,
    step_sizes: Sequence[float],
    n_nodes: int = DEFAULT_HERMITE_NODES,
) -> list[WeakOrderReport]:
    """Weak-order curve of each psi on a d = 1 quadratic model, fully deterministic.

    The laws of each step size are computed once for all psis.
    """
    errors = {
        float(h): weak_error_linear(model, psis, z0, float(h), T, n_nodes) for h in step_sizes
    }
    return [
        _order_report(step_sizes, "deterministic", lambda h, j=j: (float(errors[h][j]), 0.0))
        for j in range(len(psis))
    ]


def mc_weak_order(
    model: LangevinModel,
    psis: Sequence[Callable[[Array, Array], Array]],
    z0: PhaseState,
    T: float,
    step_sizes: Sequence[float],
    n_realizations: int,
    refine: int,
    plan: SeedPlan,
) -> list[WeakOrderReport]:
    """Weak-order curve of each psi against a common-random-number fine reference.

    One coupled Monte Carlo pass serves every step size and every psi.
    """
    results = weak_error_mc(model, psis, z0, step_sizes, T, n_realizations, refine, plan)
    errors = {float(h): row for h, row in zip(step_sizes, results)}
    return [
        _order_report(step_sizes, "mc", lambda h, j=j: _mean_se(errors[h][j]))
        for j in range(len(psis))
    ]


def local_ms_error(
    model: LangevinModel,
    z0: PhaseState,
    step_sizes: Sequence[float],
    refine: int,
    n_realizations: int,
    plan: SeedPlan,
) -> WeakOrderReport:
    """Order fit of the one-step mean-square gap E ||Z(h) - Z_1||^2."""
    results = one_step_ms_gap(model, z0, step_sizes, refine, n_realizations, plan)
    gaps = {float(h): result for h, result in zip(step_sizes, results)}
    return _order_report(step_sizes, "mc", lambda h: _mean_se(gaps[h]))
