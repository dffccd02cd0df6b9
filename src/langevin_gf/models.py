"""Langevin problem definitions.

A model describes the damped-driven Hamiltonian system

    dP = -f(Q) dt - v P dt + Sigma dW,      dQ = M P dt,

with force f = grad F, symmetric positive definite mass M, friction v > 0 and
additive noise matrix Sigma of full row rank.  This module provides the model
container, builders of the two built-in test systems (a linear oscillator and
a tilted double well), a d-dimensional quadratic model, single-point
evaluation of (F, f, grad^2 F), and the Boltzmann-Gibbs density of any model
under fluctuation-dissipation.  Everything that reads a model takes the built
:class:`LangevinModel`; :class:`LinearOscillator` and :class:`DoubleWell`
only validate their parameters and build one.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .errors import ArgumentError, CapabilityError, EvaluationError

Array = np.ndarray

# Relative floor for the smallest singular value of the noise matrix.
_NOISE_RANK_TOL = 1e-12


def _as_point(q: object, dim: int) -> Array:
    """Coerce a position argument to a finite (dim,) float array."""
    arr = np.atleast_1d(np.asarray(q, dtype=float))
    if arr.shape != (dim,):
        raise ArgumentError(
            f"expected a point of dimension {dim}, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ArgumentError("point contains non-finite entries")
    return arr


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
        if not np.all(np.isfinite(mass)):
            raise ArgumentError("mass contains non-finite entries")
        if not np.all(np.isfinite(noise)):
            raise ArgumentError("noise contains non-finite entries")
        _check_symmetric(mass, "mass matrix is not symmetric")
        if float(np.min(np.linalg.eigvalsh(mass))) <= 0.0:
            raise ArgumentError("mass matrix is not positive definite")
        if not (self.friction >= 0.0 and math.isfinite(self.friction)):
            raise ArgumentError("friction must be nonnegative and finite")
        sing = np.linalg.svd(noise, compute_uv=False)
        if sing[0] > 0.0 and sing[-1] <= _NOISE_RANK_TOL * sing[0]:
            raise ArgumentError(
                "noise matrix is rank deficient (smallest singular value "
                f"{sing[-1]:.3e} vs largest {sing[0]:.3e})"
            )
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "noise", noise)
        object.__setattr__(self, "friction", float(self.friction))
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


def eval_model(model: LangevinModel, q: object) -> tuple[float, Array, Array]:
    """Evaluate (F(q), f(q), grad^2 F(q)) at a single point.

    Parameters
    ----------
    model : LangevinModel
    q : array_like
        Position, coerced to shape (d,).

    Returns
    -------
    (float, (d,) ndarray, (d, d) ndarray)

    Raises
    ------
    EvaluationError
        If any output is non-finite or off its row contract.
    """
    point, d = _as_point(q, model.dim), model.dim
    pot = float(_on_rows(model.potential(point), point, (), "potential"))
    frc = _on_rows(model.force(point), point, (d,), "force")
    hess = _on_rows(model.force_jacobian(point), point, (d, d), "force_jacobian")
    if not (
        math.isfinite(pot)
        and np.all(np.isfinite(frc))
        and np.all(np.isfinite(hess))
    ):
        raise EvaluationError(f"model evaluation is non-finite at q={point}")
    return pot, frc, hess


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
