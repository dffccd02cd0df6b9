"""Langevin problem definitions.

A model describes the damped-driven Hamiltonian system

    dP = -f(Q) dt - v P dt + Sigma dW,      dQ = M P dt,

with force f = grad F, symmetric positive definite mass M, friction v > 0 and
additive noise matrix Sigma of full row rank.  This module provides the model
container, builders of the two built-in test systems (a linear oscillator and
a tilted double well), a d-dimensional quadratic model, single-point
evaluation of (F, f, grad^2 F), and the closed-form Boltzmann-Gibbs densities
of the built-ins.  Everything that reads a model takes the built
:class:`LangevinModel`; :class:`LinearOscillator` and :class:`DoubleWell`
only validate their parameters and build one.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping

import numpy as np

from .errors import ArgumentError, CapabilityError, EvaluationError

Array = np.ndarray

# Relative floor for the smallest singular value of the noise matrix.
_NOISE_RANK_TOL = 1e-12
# Absolute tolerance for symmetry of the mass matrix.
_MASS_SYM_TOL = 1e-12


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


def _matvec(matrix: Array, x: Array) -> Array:
    """matrix @ x along the last axis of x, summed term by term.

    ``matrix`` is one (d, d) matrix or a stack (..., d, d) matching x's rows.
    No BLAS call is involved, so each row's bits depend on that row alone,
    never on how many rows are stacked with it.
    """
    out = x[..., :1] * matrix[..., :, 0]
    for j in range(1, matrix.shape[-1]):
        out = out + x[..., j: j + 1] * matrix[..., :, j]
    return out


def _scalar(value: object, what: str) -> float:
    arr = np.asarray(value, dtype=float)
    if arr.size != 1:
        raise EvaluationError(f"{what} returned {arr.size} values, expected a scalar")
    return float(arr.reshape(-1)[0])


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

    Parameters
    ----------
    dim : int
        State dimension d per component.
    noise_dim : int
        Number of driving Wiener processes, m >= d.
    force : callable
        q (..., d) -> f(q) (..., d).  Every step, single or Monte Carlo,
        passes a batch of R positions of shape (R, d), so the callable must
        act row by row.  For d > 1 a plain ``K @ q`` does not: it raises
        unless R == d, and when R == d it silently returns K Q instead of
        the rows K q_r.  ``q @ K.T`` is correct, but BLAS may round a row
        differently with another R; :func:`make_quadratic_model` sums term
        by term, so Monte Carlo bits do not depend on the kernel width.
    potential : callable
        q (d,) -> scalar F(q) with f = grad F.
    force_jacobian : callable
        q (..., d) -> (..., d, d) symmetric matrices grad^2 F(q).  A
        constant (d, d) matrix broadcasts; for d = 1 a result of q's shape
        is also accepted.
    mass : ndarray
        (d, d) symmetric positive definite matrix M.
    friction : float
        Absorption coefficient v > 0 for the dissipative setting; v = 0 is
        tolerated so diagnostics can exercise the frictionless limit, as
        ``dataclasses.replace(model, friction=0.0)`` of a built model.
    noise : ndarray
        (d, m) matrix Sigma with rank d.  Convention: the model SDE carries
        +Sigma dW.  An exactly zero matrix is accepted as the deterministic
        limit used by diagnostics; any nonzero matrix must have full row rank.
    kind : str
        Dispatch tag; "linear" and "double_well" enable closed-form densities.
    params : mapping
        Scalar parameters of the built-in kinds other than the friction,
        which is read from ``friction`` alone.
    force_third : callable or None
        Optional q (..., d) -> (..., d, d, d) third derivative tensors of F,
        row by row like ``force``; the Jacobian of the structure command
        passes all trials' positions at once.  A constant (d, d, d) tensor
        broadcasts, and for d = 1 a result of q's shape is also accepted.
        When absent, Jacobians of the implicit scheme fall back to finite
        differences.
    """

    dim: int
    noise_dim: int
    force: Callable[[Array], Array]
    potential: Callable[[Array], float]
    force_jacobian: Callable[[Array], Array]
    mass: Array
    friction: float
    noise: Array
    kind: str = "custom"
    params: Mapping[str, float] = dataclasses.field(default_factory=dict)
    force_third: Callable[[Array], Array] | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ArgumentError("dim must be a positive integer")
        if self.noise_dim < self.dim:
            raise ArgumentError("noise_dim must be at least dim")
        mass = np.asarray(self.mass, dtype=float).reshape(self.dim, self.dim)
        noise = np.asarray(self.noise, dtype=float).reshape(self.dim, self.noise_dim)
        if not np.all(np.isfinite(mass)):
            raise ArgumentError("mass contains non-finite entries")
        if not np.all(np.isfinite(noise)):
            raise ArgumentError("noise contains non-finite entries")
        scale = max(1.0, float(np.max(np.abs(mass))))
        if float(np.max(np.abs(mass - mass.T))) > _MASS_SYM_TOL * scale:
            raise ArgumentError("mass matrix is not symmetric")
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
        a = float(self.a)
        return LangevinModel(
            dim=1,
            noise_dim=1,
            force=lambda q: a * q,
            potential=lambda q: 0.5 * a * q**2,
            force_jacobian=lambda q: np.full(np.shape(q) + (1,), a),
            mass=np.array([[a]]),
            friction=self.v,
            noise=np.array([[-self.sigma]]),
            kind="linear",
            params={"a": a, "sigma": float(self.sigma)},
            force_third=lambda q: np.zeros((1, 1, 1)),
        )


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
            dim=1,
            noise_dim=1,
            force=lambda q: q * (4.0 * q * q - 4.0) - 0.5,
            potential=lambda q: (1.0 - q**2) ** 2 - 0.5 * q,
            force_jacobian=lambda q: (12.0 * q**2 - 4.0)[..., None],
            mass=np.array([[1.0]]),
            friction=self.v,
            noise=np.array([[math.sqrt(2.0 * self.v / self.beta)]]),
            kind="double_well",
            params={"beta": float(self.beta)},
            force_third=lambda q: (24.0 * np.asarray(q, dtype=float))[..., None, None],
        )


def make_quadratic_model(
    stiffness: Array,
    mass: Array,
    friction: float,
    noise: Array,
) -> LangevinModel:
    """Build a d-dimensional quadratic model F(q) = q^T K q / 2, f(q) = K q.

    Used by tests and demos that need an exactly quadratic potential in d > 1.
    """
    kmat = np.asarray(stiffness, dtype=float)
    if kmat.ndim != 2 or kmat.shape[0] != kmat.shape[1]:
        raise ArgumentError("stiffness must be a square matrix")
    if float(np.max(np.abs(kmat - kmat.T))) > 1e-12 * max(1.0, float(np.max(np.abs(kmat)))):
        raise ArgumentError("stiffness must be symmetric")
    d = kmat.shape[0]
    noise_arr = np.asarray(noise, dtype=float)
    return LangevinModel(
        dim=d,
        noise_dim=noise_arr.shape[1],
        force=lambda q: _matvec(kmat, q),
        potential=lambda q: 0.5 * float(q @ kmat @ q),
        force_jacobian=lambda q: np.broadcast_to(kmat, np.shape(q) + (d,)),
        mass=np.asarray(mass, dtype=float),
        friction=friction,
        noise=noise_arr,
        kind="quadratic",
        params={},
        force_third=lambda q: np.zeros((d, d, d)),
    )


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
        If any output is non-finite or has the wrong size.
    """
    point = _as_point(q, model.dim)
    pot = _scalar(model.potential(point), "potential")
    frc = np.asarray(model.force(point), dtype=float).reshape(model.dim)
    hess = np.asarray(model.force_jacobian(point), dtype=float).reshape(
        model.dim, model.dim
    )
    if not (
        math.isfinite(pot)
        and np.all(np.isfinite(frc))
        and np.all(np.isfinite(hess))
    ):
        raise EvaluationError(f"model evaluation is non-finite at q={point}")
    return pot, frc, hess


def gibbs_density_fn(model: LangevinModel) -> Callable[[Array, Array], Array]:
    """Vectorized unnormalized stationary density of a built-in model.

    Returns a callable rho(p, q) operating elementwise on arrays.  Only the
    two built-in kinds with friction carry a closed-form density.
    """
    if not model.friction > 0:
        raise CapabilityError("a model without friction has no stationary law")
    if model.kind == "linear":
        rate = model.friction / model.params["sigma"] ** 2

        def rho(p: Array, q: Array) -> Array:
            return np.exp(-rate * (np.asarray(p) ** 2 + np.asarray(q) ** 2))

    elif model.kind == "double_well":
        b = model.params["beta"]

        def rho(p: Array, q: Array) -> Array:
            q = np.asarray(q)
            return np.exp(-b * (0.5 * np.asarray(p) ** 2 + (1.0 - q**2) ** 2 - 0.5 * q))

    else:
        raise CapabilityError(
            "closed-form Gibbs densities exist only for the built-in kinds "
            "'linear' and 'double_well'"
        )
    return rho
