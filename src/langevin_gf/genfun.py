"""Generating-function layer behind the one-step map.

The map of :mod:`langevin_gf.integrators` arises from an autonomous
Hamiltonian system in an augmented phase space: positions gain a clock
coordinate y_{d+1} = t, momenta gain an energy-like partner x_{d+1}, and the
physical momenta are rescaled as x_i = e^{vt} p_i.  This module implements
that transformation, the augmented Hamiltonians, the closed-form G
coefficients of the truncated generating function, and the one-step scheme
in augmented coordinates.
Composing the augmented scheme with the transformation reproduces the direct
map exactly, which the test suite certifies numerically.

The lift, the augmented step and the inverse lift run on (R, d + 1) rows,
one step size and clock per row; :func:`to_augmented`,
:func:`gf2_step_augmented` and :func:`from_augmented` are their R = 1 calls.
The route shares no code with the gf2 kernel, which it certifies.

Notation: the model stores Sigma with the +Sigma dW sign convention; the
generating-function formulas are written in sigma = -Sigma.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

from .errors import ArgumentError, CapabilityError, EvaluationError
from .integrators import _check_step_matrix, _increment
from .models import LangevinModel, PhaseState, _count, _matvec, _model_rows, eval_model
from .models import _check_finite, _check_state, _exp_vt, _step_size, _time

Array = np.ndarray


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
        _check_finite(np.append(x, y), "augmented state")
        if y[-1] < 0.0:
            raise ArgumentError("the clock coordinate Y_{d+1} must be nonnegative")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Y", y)


def _exp_rows(v: float, clocks: Array) -> Array:
    """(R, 1) column of e^{vt}, one per clock by :func:`_exp_vt`, which names a refused row."""
    return np.array([[_exp_vt(v, t, row)] for row, t in enumerate(clocks.tolist())])


def _lift(model: LangevinModel, p: Array, q: Array, t: Array) -> tuple[Array, Array]:
    """(X, Y) rows (R, d + 1) of the (R, d) states (p, q) at the (R,) clocks t."""
    scale = _exp_rows(model.friction, t)
    pot = _model_rows(model, q)[0]
    kinetic = np.sum(p * _matvec(model.mass, p), axis=-1)
    aux = pot + 0.5 * kinetic + np.sum(_matvec(-model.noise.T, q), axis=-1)
    return np.column_stack([scale * p, aux]), np.column_stack([q, t])


def _lower(model: LangevinModel, x: Array, y: Array) -> tuple[Array, Array]:
    """(p, q) rows of the augmented rows (X, Y): the inverse of :func:`_lift`."""
    scale = np.array([[math.exp(-model.friction * t)] for t in y[:, -1].tolist()])
    return scale * x[:, :-1], y[:, :-1].copy()


def to_augmented(z: PhaseState, t: float, model: LangevinModel) -> AugmentedState:
    """Lift a phase state at time t to augmented coordinates.

    X_i = e^{vt} p_i and Y_i = q_i for i <= d; Y_{d+1} = t.  The auxiliary
    coordinate is initialized from the interval-start formula
    X_{d+1} = F(q) + p^T M p / 2 + sum_{r,i} sigma_r^i q_i; downstream maps
    carry it but never read it back.
    """
    _check_state(model, z)
    x, y = _lift(model, z.p[None], z.q[None], np.array([_time(t)]))
    return AugmentedState(X=x[0], Y=y[0])


def _augmented(model: LangevinModel, s: AugmentedState) -> tuple[Array, Array, float]:
    """(X, Y, t) of an augmented state, refused unless it has dimension d + 1."""
    if len(s.X) != model.dim + 1:
        raise ArgumentError(f"augmented state has dimension {len(s.X)}, expected {model.dim + 1}")
    return s.X, s.Y, float(s.Y[-1])


def from_augmented(s: AugmentedState, model: LangevinModel) -> tuple[PhaseState, float]:
    """Invert the lift: t = Y_{d+1}, p_i = e^{-vt} X_i, q_i = Y_i."""
    x, y, t = _augmented(model, s)
    p, q = _lower(model, x[None], y[None])
    return PhaseState(p[0], q[0]), t


def hamiltonians(model: LangevinModel, s: AugmentedState) -> tuple[float, Array]:
    """Evaluate the augmented Hamiltonians (H_0, H_1..H_m).

    H_0 = e^{v y_{d+1}} F(y) + e^{-v y_{d+1}} X^T M X / 2 + X_{d+1} and
    H_r = e^{v y_{d+1}} sum_i sigma_r^i y_i.
    """
    x, y, t = _augmented(model, s)
    c1 = _exp_vt(model.friction, t)
    c2 = math.exp(-model.friction * t)
    pot, _, _ = eval_model(model, y[:-1])
    xpos = x[:-1]
    h0 = c1 * pot + 0.5 * c2 * float(xpos @ model.mass @ xpos) + float(x[-1])
    sig = -model.noise
    hr = c1 * (sig.T @ y[:-1])
    return h0, hr


# Sign patterns (entry > 0) of the multi-indices in the closed-form catalog:
# those whose G_alpha is identically zero, (r, 0), (r1, r2), (r1, r2, r3),
# (r1, r2, 0) and (r1, 0, r2), and those with a nonzero closed form, (0, 0),
# (0, r) and (0, r1, r2).
_ZERO_PATTERNS = {
    (True, False), (True, True), (True, True, True), (True, True, False), (True, False, True)
}
_CLOSED_PATTERNS = {(False, False), (False, True), (False, True, True)}


def g_alpha(model: LangevinModel, alpha: object, X: Array, y: Array) -> float:
    """Closed-form generating-function coefficient G_alpha at (X, y).

    alpha = (j_1, ..., j_l) needs l = 2 or 3 and integer entries in [0, m],
    and (X, y) must be an :class:`AugmentedState` of dimension d + 1; else
    ArgumentError.  A pattern outside the catalog raises CapabilityError;
    one whose closed form is identically zero returns exactly 0.0.
    """
    d = model.dim
    if not isinstance(alpha, (Sequence, np.ndarray)):
        raise ArgumentError(f"multi-index must be a sequence of integers, got {alpha!r}")
    entries = tuple(_count(j, 0, "multi-index entries must be nonnegative") for j in alpha)
    if len(entries) not in (2, 3):
        raise ArgumentError("multi-index length must be 2 or 3")
    if max(entries) > model.noise_dim:
        raise ArgumentError(f"multi-index entries must not exceed noise_dim={model.noise_dim}")
    x, yv, t = _augmented(model, AugmentedState(X=X, Y=y))
    pattern = tuple(j > 0 for j in entries)
    if pattern in _ZERO_PATTERNS:
        return 0.0
    if pattern not in _CLOSED_PATTERNS:
        raise CapabilityError(f"multi-index {entries} is outside the closed-form catalog")

    c1 = _exp_vt(model.friction, t)
    sig = -model.noise

    if entries == (0, 0):
        pot, frc, _ = eval_model(model, yv[:d])
        c2 = math.exp(-model.friction * t)
        xpos = x[:d]
        return (
            float(frc @ model.mass @ xpos)
            + model.friction * c1 * pot
            - 0.5 * model.friction * c2 * float(xpos @ model.mass @ xpos)
        )
    if len(entries) == 2:
        col = sig[:, entries[1] - 1]
        return float(col @ model.mass @ x[:d]) + model.friction * c1 * float(col @ yv[:d])
    r1, r2 = entries[1], entries[2]
    return c1 * float(sig[:, r1 - 1] @ model.mass @ sig[:, r2 - 1])


def _augmented_step(
    model: LangevinModel, x: Array, y: Array, h: Array, dw: Array
) -> tuple[Array, Array]:
    """(XG, YG) rows (R, d + 1) of one step from the rows (X, Y), with (R,) step
    sizes h and (R, m) increments dw; a row's bits never depend on R.  Checks,
    in order, name the first refused row: a clock past e^{vt}'s range, a
    non-finite model value, a near-singular step matrix, a non-finite result."""
    d, v, mass, sig = model.dim, model.friction, model.mass, -model.noise
    t = y[:, d]
    _exp_rows(v, t + h)  # the step's end clock must stay within range too
    c1, c2 = _exp_rows(v, t), np.array([[math.exp(-v * s)] for s in t.tolist()])
    pot, frc, hess = _model_rows(model, y[:, :d])

    step_matrix = np.eye(d) + 0.5 * h[:, None, None] * h[:, None, None] * _matvec(mass.T, hess)
    _check_step_matrix(step_matrix, h)
    h, sig_dw = h[:, None], _matvec(sig, dw)
    half_vh = 0.5 * v * h
    rhs = x[:, :d] - c1 * h * (1.0 + half_vh) * frc - c1 * (1.0 + half_vh) * sig_dw
    xg_pos = np.linalg.solve(step_matrix, rhs[..., None])[..., 0]

    yg_pos = (
        y[:, :d]
        + h * (1.0 - half_vh) * c2 * _matvec(mass, xg_pos)
        + 0.5 * h * h * _matvec(mass, frc)
        + 0.5 * h * _matvec(mass, sig_dw)
    )

    # Auxiliary coordinate: clock derivative of H_0 evaluated at X^G, the
    # h^2-level diagonal G_(r,r) contribution, and the noise coupling through
    # the clock derivative of H_r.
    quad = np.sum(xg_pos * _matvec(mass, xg_pos), axis=-1, keepdims=True)
    diag_gain = sum(float(col @ mass @ col) for col in sig.T)
    coupling = np.sum(_matvec(sig.T, y[:, :d]) * dw, axis=-1, keepdims=True)
    xg_aux = (
        x[:, d:]
        - h * v * (c1 * pot[:, None] - 0.5 * c2 * quad)
        - 0.25 * v * c1 * h * h * (1.0 + half_vh) * diag_gain
        - v * c1 * coupling
    )

    xg = np.hstack([xg_pos, xg_aux])
    yg = np.hstack([yg_pos, t[:, None] + h])
    bad = ~np.all(np.isfinite(xg) & np.isfinite(yg), axis=1)
    if np.any(bad):
        raise EvaluationError("augmented step produced non-finite output", row=int(np.argmax(bad)))
    return xg, yg


def gf2_step_augmented(
    model: LangevinModel, x: Array, y: Array, h: float, dW: object = None
) -> tuple[Array, Array]:
    """One step of the scheme in augmented coordinates, started at t_n = y_{d+1}.

    The only implicit coupling is the (h^2/2) (grad^2 F) M X^G term in the
    first d components; the clock advances exactly, Y^G_{d+1} = t_n + h, and
    the auxiliary coordinate X^G_{d+1} is carried but never read downstream.
    (x, y) must form an :class:`AugmentedState` of dimension d + 1, and h and
    dW pass :func:`langevin_gf.integrators.gf2_step`'s checks, with its
    messages.  Returns (XG, YG), each of shape (d + 1,).
    """
    xv, yv, _ = _augmented(model, AugmentedState(X=x, Y=y))
    h, dw = np.array([_step_size(h)]), _increment(model, dW)[None]
    with np.errstate(all="ignore"):
        xg, yg = _augmented_step(model, xv[None], yv[None], h, dw)
    return xg[0], yg[0]
