"""Langevin problem definitions.

A model describes the damped-driven Hamiltonian system

    dP = -f(Q) dt - v P dt + Sigma dW,      dQ = M P dt,

with force f = grad F, symmetric positive definite mass M, friction v > 0 and
additive noise matrix Sigma of full row rank.  This module provides the model
container, builders of the two built-in test systems (a linear oscillator and
a tilted double well), a d-dimensional quadratic model, evaluation of
(F, f, grad^2 F) on rows or at one point, and the Boltzmann-Gibbs density
of any model under fluctuation-dissipation.  Everything that reads a model
takes the built :class:`LangevinModel`; :class:`LinearOscillator` and
:class:`DoubleWell` only validate their parameters and build one.

It also owns the argument rules that every public entry point of the package
applies first, before any model call, draw or fork, each with its one
message: a count (:func:`_count`), a step size (:func:`_step_size`, a finite
real > 0), a time or horizon (:func:`_time`, a finite real >= 0), a
friction (:func:`_friction`, a finite real >= 0), a phase state of the
model's dimension (:func:`_check_state`) and a non-empty list of test
functions (:func:`_test_functions`).  A bool is refused as a count, a step
size, a time or a friction; a count is returned as an int, the others as a float.
:func:`_exp_vt` refuses an e^{vt} past the float range with RangeError.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import Callable, Iterable

import numpy as np

from .errors import ArgumentError, CapabilityError, EvaluationError, RangeError

Array = np.ndarray

# Relative floor for the smallest singular value of the noise matrix.
_NOISE_RANK_TOL = 1e-12
# exp() overflows just above exp(709); refuse earlier with a clear error.
_EXP_LIMIT = 700.0


def _is_integer(value: object) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _count(value: object, minimum: int, message: str) -> int:
    """``value`` as an int; ArgumentError(message) unless it is an integer >= ``minimum``."""
    if not _is_integer(value):
        raise ArgumentError(f"{message}; got {value!r}, not an integer")
    if value < minimum:
        raise ArgumentError(message)
    return int(value)


def _finite_real(value: object) -> bool:
    """A real number, not a bool, that a float holds finitely."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _step_size(h: object) -> float:
    """``h`` as a float; ArgumentError unless it is a finite real > 0."""
    if not (_finite_real(h) and h > 0):
        raise ArgumentError(f"step size must be positive and finite, got {h!r}")
    return float(h)


def _time(t: object) -> float:
    """``t`` as a float; ArgumentError unless it is a finite real >= 0."""
    if not (_finite_real(t) and t >= 0):
        raise ArgumentError(f"time must be nonnegative and finite, got {t!r}")
    return float(t)


def _friction(v: object) -> float:
    """``v`` as a float; ArgumentError unless it is a finite real >= 0."""
    if not (_finite_real(v) and v >= 0):
        raise ArgumentError("friction must be nonnegative and finite")
    return float(v)


def _exp_vt(v: float, t: float, row: int | None = None) -> float:
    """e^{vt}, or RangeError once |vt| is past _EXP_LIMIT, naming ``row`` as its row."""
    if abs(v * t) > _EXP_LIMIT:
        raise RangeError(f"e^(vt) overflows at v*t = {v * t}", row=row)
    return math.exp(v * t)


def _check_state(model: LangevinModel, z: PhaseState) -> None:
    """ArgumentError unless the phase state z has the model's dimension."""
    if z.dim != model.dim:
        raise ArgumentError("state dimension does not match the model")


def _test_functions(psis: Iterable[Callable]) -> list[Callable]:
    """psis as a list; ArgumentError unless it holds at least one test function."""
    psis = list(psis)
    if not psis:
        raise ArgumentError("need at least one test function")
    return psis


def _check_finite(values: Array, what: str) -> None:
    """ArgumentError unless every entry of ``values`` is finite."""
    if not np.all(np.isfinite(values)):
        raise ArgumentError(f"{what} contains non-finite entries")


def _check_symmetric(matrix: Array, message: str) -> None:
    """ArgumentError(message) unless max|A - A^T| <= 1e-12 max(1, max|A|)."""
    scale = max(1.0, float(np.max(np.abs(matrix))))
    if float(np.max(np.abs(matrix - matrix.T))) > 1e-12 * scale:
        raise ArgumentError(message)


def _matvec(matrix: Array, x: Array) -> Array:
    """matrix @ x along the last axis of x, summed term by term, C-ordered.

    ``matrix`` is one (d, k) matrix, such as Sigma for Sigma dW, or a stack
    (..., d, k) matching x's rows.  The sum starts from +0.0, as a matmul's
    does, which keeps its signs of zeros.  No BLAS call is involved, so each
    row's bits depend on that row alone, never on how many rows are stacked
    with it.
    """
    out = np.multiply(x[..., :1], matrix[..., :, 0], order="C")
    out += 0.0
    for j in range(1, matrix.shape[-1]):
        out += x[..., j: j + 1] * matrix[..., :, j]
    return out


def _on_rows(values: object, x: Array, trailing: tuple[int, ...], what: str) -> Array:
    """``values`` as floats, refused unless their shape is x's rows then ``trailing``:
    the one row contract of every model callable and test function."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != x.shape[:-1] + trailing:
        raise EvaluationError(
            f"{what} returned shape {arr.shape} on points of shape {x.shape}; "
            f"it must map (..., d) rows to (...{', d' * len(trailing)})"
        )
    return arr


@dataclasses.dataclass(frozen=True)
class PhaseState:
    """Momentum/position pair (p, q), both in R^d with finite entries."""

    p: Array
    q: Array

    def __post_init__(self) -> None:
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        if p.ndim != 1 or q.ndim != 1 or p.shape != q.shape:
            raise ArgumentError(
                f"p and q must be 1-d arrays of equal length, got {p.shape} and {q.shape}"
            )
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            raise ArgumentError("phase state contains non-finite entries")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def dim(self) -> int:
        return self.p.shape[0]


@dataclasses.dataclass(frozen=True)
class LangevinModel:
    """Container for one Langevin system.

    ``dim`` (d) and ``noise_dim`` (m) are read off ``noise``, and the closed
    forms read their numbers off ``mass``, ``friction``, ``noise`` and the
    callables: no number is stored twice.

    Each callable maps a block of positions q (..., d) row by row to the one
    result shape named below; any other shape, a constant that would
    broadcast included, is refused with EvaluationError wherever it is read.

    Parameters
    ----------
    force : callable
        q (..., d) -> f(q) (..., d).  Every step, single or Monte Carlo,
        passes a batch of R positions of shape (R, d), so the callable must
        act row by row.  For d > 1 a plain ``K @ q`` does not: it raises
        unless R == d, and when R == d it silently returns K Q instead of
        the rows K q_r.  ``q @ K.T`` is correct, but BLAS may round a row
        differently with another R; :func:`make_quadratic_model` sums term
        by term, so Monte Carlo bits do not depend on the kernel width.
    potential : callable
        q (..., d) -> F(q) (...) with f = grad F.
    force_jacobian : callable
        q (..., d) -> (..., d, d) symmetric matrices grad^2 F(q).
    mass : ndarray
        (d, d) symmetric positive definite matrix M.
    friction : float
        Absorption coefficient v > 0 for the dissipative setting; v = 0 is
        tolerated so diagnostics can exercise the frictionless limit, as
        ``dataclasses.replace(model, friction=0.0)`` of a built model.
    noise : ndarray
        (d, m) matrix Sigma, 1 <= d <= m, of rank d; the model SDE carries
        +Sigma dW.  An exactly zero matrix is the deterministic limit used by
        diagnostics; any nonzero matrix must have full row rank.
    force_third : callable or None
        Optional q (..., d) -> (..., d, d, d) third derivative tensors of F;
        the Jacobian of the structure command passes all trials' positions
        at once.  Only Jacobians of the implicit scheme read it, and they
        refuse a model without it.
    """

    force: Callable[[Array], Array]
    potential: Callable[[Array], Array]
    force_jacobian: Callable[[Array], Array]
    mass: Array
    friction: float
    noise: Array
    force_third: Callable[[Array], Array] | None = None
    dim: int = dataclasses.field(init=False)
    noise_dim: int = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        mass = np.asarray(self.mass, dtype=float)
        noise = np.asarray(self.noise, dtype=float)
        d, m = noise.shape if noise.ndim == 2 else (0, 0)
        if mass.shape != (d, d) or not 1 <= d <= m:
            raise ArgumentError(
                "mass must be (d, d) and noise (d, m) with 1 <= d <= m, "
                f"got {mass.shape} and {noise.shape}"
            )
        _check_finite(mass, "mass")
        _check_finite(noise, "noise")
        _check_symmetric(mass, "mass matrix is not symmetric")
        if float(np.min(np.linalg.eigvalsh(mass))) <= 0.0:
            raise ArgumentError("mass matrix is not positive definite")
        friction = _friction(self.friction)
        sing = np.linalg.svd(noise, compute_uv=False)
        if sing[0] > 0.0 and sing[-1] <= _NOISE_RANK_TOL * sing[0]:
            raise ArgumentError(
                "noise matrix is rank deficient (smallest singular value "
                f"{sing[-1]:.3e} vs largest {sing[0]:.3e})"
            )
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "noise", noise)
        object.__setattr__(self, "friction", friction)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "noise_dim", m)


@dataclasses.dataclass(frozen=True)
class LinearOscillator:
    """Builder of the linear test system: f(q) = a q, M = a, Sigma = -sigma.

    Its stationary law is N(0, sigma^2/(2v) I) whatever a is.
    """

    a: float
    v: float
    sigma: float

    def __post_init__(self) -> None:
        if not self.a > 0.0:
            raise ArgumentError("stiffness a must be positive")
        if not self.v > 0.0:
            raise ArgumentError("friction v must be positive")
        if self.sigma == 0.0:
            raise ArgumentError("noise amplitude sigma must be nonzero")

    def build(self) -> LangevinModel:
        return make_quadratic_model([[self.a]], [[self.a]], self.v, [[-self.sigma]])


@dataclasses.dataclass(frozen=True)
class DoubleWell:
    """Builder of the tilted double-well system.

    f(q) = 4q^3 - 4q - 1/2, F(q) = (1 - q^2)^2 - q/2 (so F(0) = 1 and
    f = grad F exactly), M = 1, Sigma = +sqrt(2 v / beta).  The force is
    evaluated in Horner form, q (4q^2 - 4) - 1/2, which avoids a power call.
    """

    v: float
    beta: float

    def __post_init__(self) -> None:
        if not self.v > 0.0:
            raise ArgumentError("friction v must be positive")
        if not self.beta > 0.0:
            raise ArgumentError("inverse temperature beta must be positive")

    def build(self) -> LangevinModel:
        return LangevinModel(
            force=lambda q: q * (4.0 * q * q - 4.0) - 0.5,
            potential=lambda q: ((1.0 - q**2) ** 2 - 0.5 * q)[..., 0],
            force_jacobian=lambda q: (12.0 * q**2 - 4.0)[..., None],
            mass=np.array([[1.0]]),
            friction=self.v,
            noise=np.array([[math.sqrt(2.0 * self.v / self.beta)]]),
            force_third=lambda q: (24.0 * np.asarray(q, dtype=float))[..., None, None],
        )


def make_quadratic_model(
    stiffness: Array,
    mass: Array,
    friction: float,
    noise: Array,
) -> LangevinModel:
    """Build a d-dimensional quadratic model F(q) = q^T K q / 2, f(q) = K q.

    The force, its derivatives and the potential are all derived from one
    copy of K, which must be a finite symmetric (d, d) matrix for the d of
    the mass; the force and the potential sum term by term, row by row.
    """
    kmat = np.array(stiffness, dtype=float)
    model = LangevinModel(
        force=lambda q: _matvec(kmat, q),
        potential=lambda q: 0.5 * np.sum(q * _matvec(kmat, q), axis=-1),
        force_jacobian=lambda q: np.broadcast_to(kmat, np.shape(q) + (d,)),
        mass=mass,
        friction=friction,
        noise=noise,
        force_third=lambda q: np.zeros(np.shape(q) + (d, d)),
    )
    d = model.dim  # read by the closures above, which run only after this check
    if kmat.shape != (d, d) or not np.all(np.isfinite(kmat)):
        raise ArgumentError(f"stiffness must be a finite {(d, d)} matrix, got {kmat.shape}")
    _check_symmetric(kmat, "stiffness must be symmetric")
    return model


def _model_rows(model: LangevinModel, q: Array) -> tuple[Array, Array, Array]:
    """(F(q), f(q), grad^2 F(q)) on (R, d) positions; EvaluationError off the row
    contract or, naming the first such ``row``, where a value is not finite."""
    d = model.dim
    pot = _on_rows(model.potential(q), q, (), "potential")
    frc = _on_rows(model.force(q), q, (d,), "force")
    hess = _on_rows(model.force_jacobian(q), q, (d, d), "force_jacobian")
    bad = ~(np.isfinite(pot) & np.all(np.isfinite(frc), axis=-1))
    bad |= ~np.all(np.isfinite(hess), axis=(-2, -1))
    if np.any(bad):
        row = int(np.argmax(bad))
        raise EvaluationError(f"model evaluation is non-finite at q={q[row]}", row=row)
    return pot, frc, hess


def eval_model(model: LangevinModel, q: object) -> tuple[float, Array, Array]:
    """(F(q), f(q), grad^2 F(q)) at a single finite point q of shape (d,):
    :func:`_model_rows` on one row."""
    point = np.atleast_1d(np.asarray(q, dtype=float))
    if point.shape != (model.dim,):
        raise ArgumentError(f"expected a point of dimension {model.dim}, got shape {point.shape}")
    _check_finite(point, "point")
    pot, frc, hess = _model_rows(model, point[None])
    return float(pot[0]), frc[0], hess[0]


def gibbs_density_fn(model: LangevinModel) -> Callable[[Array, Array], Array]:
    """Unnormalized Boltzmann-Gibbs density exp(-beta H), H = p^T M p / 2 + F(q).

    Returns a callable rho(p, q) on (..., d) momentum and position blocks,
    with values (...).  exp(-beta H) is stationary exactly under
    fluctuation-dissipation, Sigma Sigma^T M = (2 v / beta) I; beta is read
    as 2 v / c with c = (Sigma Sigma^T M)[0, 0], and any model whose
    Sigma Sigma^T M differs from c I by more than 1e-12 |c| is refused.
    """
    if not model.friction > 0:
        raise CapabilityError("a model without friction has no stationary law")
    if not np.any(model.noise):
        raise CapabilityError("a model without noise has no stationary density")
    balance = model.noise @ model.noise.T @ model.mass
    c = balance[0, 0]
    if float(np.max(np.abs(balance - c * np.eye(model.dim)))) > 1e-12 * abs(c):
        raise CapabilityError("fluctuation-dissipation fails: Sigma Sigma^T M is not c I")
    beta = 2.0 * model.friction / c

    def rho(p: Array, q: Array) -> Array:
        potential = _on_rows(model.potential(q), q, (), "potential")
        kinetic = 0.5 * np.sum(p * _matvec(model.mass, p), axis=-1)
        return np.exp(-beta * (kinetic + potential))

    return rho
