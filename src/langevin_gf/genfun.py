"""Generating-function layer behind the one-step map.

The map of :mod:`langevin_gf.integrators` arises from an autonomous
Hamiltonian system in an augmented phase space: positions gain a clock
coordinate y_{d+1} = t, momenta gain an energy-like partner x_{d+1}, and the
physical momenta are rescaled as x_i = e^{vt} p_i.  This module implements
that transformation, the augmented Hamiltonians, the closed-form G
coefficients of the truncated generating function, the modified-Hamiltonian
derivative choices, and the one-step scheme in augmented coordinates.
Composing the augmented scheme with the transformation reproduces the direct
map exactly, which the test suite certifies numerically.

Notation: the model stores Sigma with the +Sigma dW sign convention; the
generating-function formulas are written in sigma = -Sigma.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ArgumentError, CapabilityError, EvaluationError, RangeError
from .integrators import _check_step_matrix, _check_step_size
from .models import LangevinModel, PhaseState, eval_model

Array = np.ndarray

# exp() overflows just above exp(709); refuse earlier with a clear error.
_EXP_LIMIT = 700.0


@dataclasses.dataclass(frozen=True)
class AugmentedState:
    """State (X, Y) in R^{d+1} x R^{d+1}.

    Components 1..d carry (e^{vt} P, Q); component d+1 carries the auxiliary
    energy coordinate and the clock Y_{d+1} = t >= 0.
    """

    X: Array
    Y: Array

    def __post_init__(self) -> None:
        x = np.asarray(self.X, dtype=float).reshape(-1)
        y = np.asarray(self.Y, dtype=float).reshape(-1)
        if x.shape != y.shape or x.shape[0] < 2:
            raise ArgumentError("X and Y must be equal-length vectors in R^{d+1}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ArgumentError("augmented state contains non-finite entries")
        if y[-1] < 0.0:
            raise ArgumentError("the clock coordinate Y_{d+1} must be nonnegative")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Y", y)


@dataclasses.dataclass(frozen=True)
class MultiIndex:
    """Index alpha = (j_1, ..., j_l) with l in {2, 3} and entries >= 0."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(int(j) for j in self.entries)
        if len(entries) not in (2, 3):
            raise ArgumentError("multi-index length must be 2 or 3")
        if any(j < 0 for j in entries):
            raise ArgumentError("multi-index entries must be nonnegative")
        object.__setattr__(self, "entries", entries)


@dataclasses.dataclass(frozen=True)
class H1Derivatives:
    """Partial derivatives of the modified-Hamiltonian corrections.

    The x_{d+1} slots are identically zero; the y_{d+1} slot of the H_0
    correction is not pinned by the matching procedure and is stored as zero
    (``unpinned_clock_slot`` records that choice).
    """

    dHr_dx: Array
    dHr_dy: Array
    dH0_dx: Array
    dH0_dy: Array
    unpinned_clock_slot: bool = True

    def __post_init__(self) -> None:
        for name in ("dHr_dx", "dHr_dy", "dH0_dx", "dH0_dy"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(self.dHr_dx[:, -1] != 0.0) or self.dH0_dx[-1] != 0.0:
            raise ArgumentError("the x_{d+1} derivative slots must be zero")


def _paper_noise(model: LangevinModel) -> Array:
    """Noise columns in the generating-function sign convention."""
    return -model.noise


def to_augmented(z: PhaseState, t: float, model: LangevinModel) -> AugmentedState:
    """Lift a phase state at time t to augmented coordinates.

    X_i = e^{vt} p_i and Y_i = q_i for i <= d; Y_{d+1} = t.  The auxiliary
    coordinate is initialized from the interval-start formula
    X_{d+1} = F(q) + p^T M p / 2 + sum_{r,i} sigma_r^i q_i; downstream maps
    carry it but never read it back.
    """
    if t < 0:
        raise ArgumentError("time must be nonnegative")
    if z.dim != model.dim:
        raise ArgumentError("state dimension does not match the model")
    if model.friction * t > _EXP_LIMIT:
        raise RangeError(f"e^(vt) overflows at v*t = {model.friction * t}")
    pot, _, _ = eval_model(model, z.q)
    sig = _paper_noise(model)
    scale = math.exp(model.friction * t)
    x = np.empty(model.dim + 1)
    y = np.empty(model.dim + 1)
    x[: model.dim] = scale * z.p
    x[model.dim] = pot + 0.5 * float(z.p @ model.mass @ z.p) + float(np.sum(sig.T @ z.q))
    y[: model.dim] = z.q
    y[model.dim] = t
    return AugmentedState(X=x, Y=y)


def from_augmented(s: AugmentedState, model: LangevinModel) -> tuple[PhaseState, float]:
    """Invert the lift: t = Y_{d+1}, p_i = e^{-vt} X_i, q_i = Y_i."""
    d = model.dim
    t = float(s.Y[d])
    scale = math.exp(-model.friction * t)
    return PhaseState(scale * s.X[:d], s.Y[:d].copy()), t


def hamiltonians(model: LangevinModel, s: AugmentedState) -> tuple[float, Array]:
    """Evaluate the augmented Hamiltonians (H_0, H_1..H_m).

    H_0 = e^{v y_{d+1}} F(y) + e^{-v y_{d+1}} X^T M X / 2 + X_{d+1} and
    H_r = e^{v y_{d+1}} sum_i sigma_r^i y_i.
    """
    d = model.dim
    t = float(s.Y[d])
    if abs(model.friction * t) > _EXP_LIMIT:
        raise RangeError(f"e^(v y_(d+1)) overflows at v*y = {model.friction * t}")
    c1 = math.exp(model.friction * t)
    c2 = math.exp(-model.friction * t)
    pot, _, _ = eval_model(model, s.Y[:d])
    xpos = s.X[:d]
    h0 = c1 * pot + 0.5 * c2 * float(xpos @ model.mass @ xpos) + float(s.X[d])
    sig = _paper_noise(model)
    hr = c1 * (sig.T @ s.Y[:d])
    return h0, hr


def _catalog_key(alpha: object, m: int) -> tuple[int, ...]:
    entries = alpha.entries if isinstance(alpha, MultiIndex) else MultiIndex(tuple(alpha)).entries
    if any(j > m for j in entries):
        raise ArgumentError(f"multi-index entries must not exceed noise_dim={m}")
    return entries


def g_alpha(model: LangevinModel, alpha: object, X: Array, y: Array) -> float:
    """Closed-form generating-function coefficient G_alpha at (X, y).

    The catalog covers exactly the index patterns with printed closed forms;
    any other pattern raises CapabilityError.  Patterns whose closed form is
    identically zero return exactly 0.0.
    """
    d = model.dim
    entries = _catalog_key(alpha, model.noise_dim)
    x = np.asarray(X, dtype=float).reshape(d + 1)
    yv = np.asarray(y, dtype=float).reshape(d + 1)
    pattern = tuple(j > 0 for j in entries)

    if len(entries) == 2 and pattern in ((True, False), (True, True)):
        return 0.0  # (r, 0) and (r1, r2)
    if len(entries) == 3:
        if pattern in ((True, True, True), (True, True, False), (True, False, True)):
            return 0.0  # (r1, r2, r3), (r1, r2, 0) and (r1, 0, r2)
        if pattern != (False, True, True):
            raise CapabilityError(
                f"multi-index {entries} is outside the closed-form catalog"
            )

    t = float(yv[d])
    if abs(model.friction * t) > _EXP_LIMIT:
        raise RangeError(f"e^(v y_(d+1)) overflows at v*y = {model.friction * t}")
    c1 = math.exp(model.friction * t)
    sig = _paper_noise(model)

    if entries == (0, 0):
        pot, frc, _ = eval_model(model, yv[:d])
        c2 = math.exp(-model.friction * t)
        xpos = x[:d]
        return (
            float(frc @ model.mass @ xpos)
            + model.friction * c1 * pot
            - 0.5 * model.friction * c2 * float(xpos @ model.mass @ xpos)
        )
    if len(entries) == 2 and entries[0] == 0:
        r = entries[1]
        col = sig[:, r - 1]
        return float(col @ model.mass @ x[:d]) + model.friction * c1 * float(col @ yv[:d])
    if len(entries) == 3 and entries[0] == 0 and entries[1] > 0 and entries[2] > 0:
        r1, r2 = entries[1], entries[2]
        return c1 * float(sig[:, r1 - 1] @ model.mass @ sig[:, r2 - 1])
    raise CapabilityError(
        f"multi-index {entries} is outside the closed-form catalog"
    )


def h1_derivatives(model: LangevinModel, x: Array, y: Array) -> H1Derivatives:
    """Derivative tables of the modified-Hamiltonian corrections at (x, y).

    dH_r/dx_i = (M sigma_r)_i / 2, dH_r/dy_i = v C_1 sigma_r^i / 2,
    dH_0/dx_i = (M (f - v C_2 x))_i / 2 and
    dH_0/dy_i = ((grad^2 F) M x)_i / 2 + v C_1 f_i / 2, with all x_{d+1}
    slots zero and the unpinned dH_0/dy_{d+1} slot stored as zero.
    """
    d, m = model.dim, model.noise_dim
    xv = np.asarray(x, dtype=float).reshape(d + 1)
    yv = np.asarray(y, dtype=float).reshape(d + 1)
    t = float(yv[d])
    if abs(model.friction * t) > _EXP_LIMIT:
        raise RangeError(f"e^(v y_(d+1)) overflows at v*y = {model.friction * t}")
    c1 = math.exp(model.friction * t)
    c2 = math.exp(-model.friction * t)
    _, frc, hess = eval_model(model, yv[:d])
    sig = _paper_noise(model)

    dhr_dx = np.zeros((m, d + 1))
    dhr_dy = np.zeros((m, d + 1))
    dhr_dx[:, :d] = 0.5 * (model.mass @ sig).T
    dhr_dy[:, :d] = 0.5 * model.friction * c1 * sig.T

    dh0_dx = np.zeros(d + 1)
    dh0_dx[:d] = 0.5 * (model.mass @ (frc - model.friction * c2 * xv[:d]))
    dh0_dy = np.zeros(d + 1)
    dh0_dy[:d] = 0.5 * (hess @ model.mass @ xv[:d]) + 0.5 * model.friction * c1 * frc
    return H1Derivatives(dHr_dx=dhr_dx, dHr_dy=dhr_dy, dH0_dx=dh0_dx, dH0_dy=dh0_dy)


def gf2_step_augmented(
    model: LangevinModel, x: Array, y: Array, h: float, dW: object = None
) -> tuple[Array, Array]:
    """One step of the scheme in augmented coordinates, started at t_n = y_{d+1}.

    The only implicit coupling is the (h^2/2) (grad^2 F) M X^G term in the
    first d components; the clock advances exactly, Y^G_{d+1} = t_n + h, and
    the auxiliary coordinate X^G_{d+1} is carried but never read downstream.

    Returns
    -------
    (XG, YG) : pair of (d+1,) ndarrays
    """
    d = model.dim
    xv = np.asarray(x, dtype=float).reshape(d + 1)
    yv = np.asarray(y, dtype=float).reshape(d + 1)
    t = float(yv[d])
    if t < 0:
        raise ArgumentError("the clock coordinate must be nonnegative")
    _check_step_size(h)
    dw = np.zeros(model.noise_dim) if dW is None else np.asarray(dW, dtype=float).reshape(-1)
    if dw.shape[0] != model.noise_dim:
        raise ArgumentError("increment dimension does not match the model")
    if model.friction * (t + h) > _EXP_LIMIT:
        raise RangeError(f"e^(vt) overflows at v*t = {model.friction * (t + h)}")

    v = model.friction
    c1 = math.exp(v * t)
    c2 = math.exp(-v * t)
    half_vh = 0.5 * v * h
    pot, frc, hess = eval_model(model, yv[:d])
    mass = model.mass
    sig = _paper_noise(model)
    sig_dw = sig @ dw

    step_matrix = np.eye(d) + 0.5 * h * h * (hess @ mass)
    _check_step_matrix(step_matrix, h)
    rhs = xv[:d] - c1 * h * (1.0 + half_vh) * frc - c1 * (1.0 + half_vh) * sig_dw
    xg_pos = np.linalg.solve(step_matrix, rhs)

    yg_pos = (
        yv[:d]
        + h * (1.0 - half_vh) * c2 * (mass @ xg_pos)
        + 0.5 * h * h * (mass @ frc)
        + 0.5 * h * (mass @ sig_dw)
    )

    # Auxiliary coordinate: clock derivative of H_0 evaluated at X^G, the
    # h^2-level diagonal G_(r,r) contribution, and the noise coupling through
    # the clock derivative of H_r.
    quad = float(xg_pos @ mass @ xg_pos)
    diag_gain = sum(
        float(sig[:, r] @ mass @ sig[:, r]) for r in range(model.noise_dim)
    )
    xg_aux = (
        float(xv[d])
        - h * v * (c1 * pot - 0.5 * c2 * quad)
        - 0.25 * v * c1 * h * h * (1.0 + half_vh) * diag_gain
        - v * c1 * float((sig.T @ yv[:d]) @ dw)
    )

    xg = np.empty(d + 1)
    xg[:d] = xg_pos
    xg[d] = xg_aux
    yg = np.empty(d + 1)
    yg[:d] = yg_pos
    yg[d] = t + h
    if not (np.all(np.isfinite(xg)) and np.all(np.isfinite(yg))):
        raise EvaluationError("augmented step produced non-finite output")
    return xg, yg
