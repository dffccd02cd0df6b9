"""One-step maps and Gaussian law propagation.

The central object is the weak second order conformal symplectic map

    (I + (h^2/2) H(q) M) P1 = e^{-vh} p - h(1 + vh/2) e^{-vh} f(q)
                              + (1 + vh/2) e^{-vh} Sigma dW
    Q1 = q + h(1 - vh/2) e^{vh} M P1 + (h^2/2) M f(q) - (h/2) M Sigma dW

with H = grad^2 F.  Its Jacobian with respect to (p, q) scales the canonical
two-form by exactly e^{-vh}, hence the one-step phase-volume factor e^{-vhd}.
An explicit Euler-Maruyama baseline, trajectory iteration, and the exact and
per-step Gaussian laws of the linear oscillator complete the module.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np
import scipy.linalg

from .errors import (
    ArgumentError,
    CapabilityError,
    Error,
    EvaluationError,
    RangeError,
    StepSizeError,
)
from .models import LangevinModel, LinearOscillator, PhaseState, eval_model

Array = np.ndarray

# Condition-estimate ceiling for the implicit step matrix.
_COND_LIMIT = 1e12
# Central-difference step for the Jacobian fallback.
_FD_STEP = 1e-6


@dataclasses.dataclass(frozen=True)
class GaussianLaw:
    """Mean and covariance of a Gaussian phase-space law in (p, q) ordering."""

    mean: Array
    cov: Array

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        n = mean.shape[0]
        if cov.shape != (n, n):
            raise ArgumentError(f"cov shape {cov.shape} does not match mean length {n}")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if float(np.max(np.abs(cov - cov.T))) > 1e-12 * scale:
            raise ArgumentError("cov is not symmetric")
        if float(np.min(np.linalg.eigvalsh(cov))) < -1e-12 * scale:
            raise ArgumentError("cov has a significantly negative eigenvalue")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclasses.dataclass(frozen=True)
class AffineStepMap:
    """One-step affine map Z_{n+1} = B Z_n + c + G dW with dW ~ N(0, h I_m).

    ``friction`` and ``h`` are carried so the conformal determinant identity
    det B = e^{-vh} can be checked at construction (d = 1).
    """

    B: Array
    c: Array
    G: Array
    friction: float
    h: float

    def __post_init__(self) -> None:
        B = np.asarray(self.B, dtype=float)
        c = np.asarray(self.c, dtype=float).reshape(-1)
        G = np.asarray(self.G, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ArgumentError("B must be square")
        if c.shape[0] != B.shape[0] or G.shape[0] != B.shape[0]:
            raise ArgumentError("c and G must match the state dimension of B")
        if B.shape[0] == 2:
            expected = math.exp(-self.friction * self.h)
            if abs(float(np.linalg.det(B)) - expected) > 1e-12:
                raise ArgumentError(
                    "det(B) deviates from the conformal factor exp(-vh)"
                )
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "G", G)


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """Time grid t_n = n h with the state after each step."""

    times: Array
    states: tuple[PhaseState, ...]

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float).reshape(-1)
        states = tuple(self.states)
        if times.shape[0] != len(states):
            raise ArgumentError("times and states have different lengths")
        if times.shape[0] >= 2 and not np.all(np.diff(times) > 0.0):
            raise ArgumentError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)


def _check_step_matrix(step_matrix: Array, h: float) -> None:
    """Refuse near-singular implicit solves.

    For d = 1 the matrix is 1x1 and its condition number is always 1, so the
    guard measures the cancellation ratio (1 + |c|) / |1 + c| of the scalar
    1 + c instead; both metrics flag the same loss of precision.
    """
    d = step_matrix.shape[0]
    if d == 1:
        c = step_matrix[0, 0] - 1.0
        denom = abs(1.0 + c)
        ratio = math.inf if denom == 0.0 else (1.0 + abs(c)) / denom
    else:
        ratio = float(np.linalg.cond(step_matrix))
    if not math.isfinite(ratio) or ratio > _COND_LIMIT:
        raise StepSizeError(
            f"implicit step matrix has condition estimate {ratio:.3e} at h={h}; "
            "reduce the step size"
        )


def _check_step_size(h: object) -> None:
    if not (isinstance(h, numbers.Real) and h > 0 and math.isfinite(h)):
        raise ArgumentError(f"step size must be positive and finite, got {h}")


def _step_inputs(model: LangevinModel, z: PhaseState, h: float, dW: object) -> tuple:
    if z.dim != model.dim:
        raise ArgumentError("state dimension does not match the model")
    _check_step_size(h)
    dw = np.zeros(model.noise_dim) if dW is None else np.asarray(dW, dtype=float).reshape(-1)
    if dw.shape[0] != model.noise_dim:
        raise ArgumentError(
            f"increment has dimension {dw.shape[0]}, expected {model.noise_dim}"
        )
    if not np.all(np.isfinite(dw)):
        raise EvaluationError("increment contains non-finite entries")
    return float(h), dw


def gf2_step(model: LangevinModel, z: PhaseState, h: float, dW: object = None) -> PhaseState:
    """Advance one step of the conformal symplectic map.

    Parameters
    ----------
    model : LangevinModel
    z : PhaseState
        State (p, q) at the start of the step.
    h : float
        Step size.
    dW : array_like of shape (m,), optional
        Brownian increment; zeros when omitted.

    Returns
    -------
    PhaseState
        The state (P1, Q1) after one step.

    Raises
    ------
    StepSizeError
        If the implicit step matrix I + (h^2/2) grad^2F(q) M is too
        ill-conditioned (condition estimate above 1e12).
    EvaluationError
        On non-finite inputs or outputs.
    """
    h, dw = _step_inputs(model, z, h, dW)
    _, frc, hess = eval_model(model, z.q)
    mass = model.mass
    evm = math.exp(-model.friction * h)
    evp = math.exp(model.friction * h)
    half_vh = 0.5 * model.friction * h
    step_matrix = np.eye(model.dim) + 0.5 * h * h * (hess @ mass)
    _check_step_matrix(step_matrix, h)
    noise_kick = model.noise @ dw
    rhs = evm * z.p - h * (1.0 + half_vh) * evm * frc + (1.0 + half_vh) * evm * noise_kick
    p1 = np.linalg.solve(step_matrix, rhs)
    q1 = (
        z.q
        + h * (1.0 - half_vh) * evp * (mass @ p1)
        + 0.5 * h * h * (mass @ frc)
        - 0.5 * h * (mass @ noise_kick)
    )
    if not (np.all(np.isfinite(p1)) and np.all(np.isfinite(q1))):
        raise EvaluationError(f"step produced a non-finite state at h={h}")
    return PhaseState(p1, q1)


def gf2_jacobian(
    model: LangevinModel, z: PhaseState, h: float, dW: object = None
) -> Array:
    """Jacobian of the one-step map with respect to (p, q).

    Analytic when the model supplies ``force_third``; otherwise central finite
    differences of :func:`gf2_step` with step 1e-6 are used, which degrades
    the conformal-defect guarantee from 1e-8 to about 1e-5.

    Returns
    -------
    (2d, 2d) ndarray in (p, q) block ordering.
    """
    h, dw = _step_inputs(model, z, h, dW)
    d = model.dim
    if model.force_third is None:
        return _fd_jacobian(model, z, h, dw)
    _, frc, hess = eval_model(model, z.q)
    mass = model.mass
    evm = math.exp(-model.friction * h)
    evp = math.exp(model.friction * h)
    half_vh = 0.5 * model.friction * h
    step_matrix = np.eye(d) + 0.5 * h * h * (hess @ mass)
    _check_step_matrix(step_matrix, h)
    dmat = np.linalg.inv(step_matrix)
    third = np.asarray(model.force_third(z.q), dtype=float).reshape(d, d, d)

    noise_kick = model.noise @ dw
    rhs = evm * z.p - h * (1.0 + half_vh) * evm * frc + (1.0 + half_vh) * evm * noise_kick
    p1 = dmat @ rhs

    jpp = evm * dmat
    jpq = np.empty((d, d))
    for j in range(d):
        col = -h * (1.0 + half_vh) * evm * hess[:, j] - 0.5 * h * h * (
            (third[:, :, j] @ mass) @ p1
        )
        jpq[:, j] = dmat @ col
    lower_gain = h * (1.0 - half_vh) * evp
    jqp = lower_gain * (mass @ jpp)
    jqq = np.eye(d) + 0.5 * h * h * (mass @ hess) + lower_gain * (mass @ jpq)
    top = np.hstack([jpp, jpq])
    bottom = np.hstack([jqp, jqq])
    return np.vstack([top, bottom])


def _fd_jacobian(model: LangevinModel, z: PhaseState, h: float, dw: Array) -> Array:
    d = model.dim
    jac = np.empty((2 * d, 2 * d))
    for j in range(2 * d):
        dp = np.zeros(d)
        dq = np.zeros(d)
        (dp if j < d else dq)[j % d] = _FD_STEP
        plus = gf2_step(model, PhaseState(z.p + dp, z.q + dq), h, dw)
        minus = gf2_step(model, PhaseState(z.p - dp, z.q - dq), h, dw)
        jac[:d, j] = (plus.p - minus.p) / (2.0 * _FD_STEP)
        jac[d:, j] = (plus.q - minus.q) / (2.0 * _FD_STEP)
    return jac


def em_step(model: LangevinModel, z: PhaseState, h: float, dW: object = None) -> PhaseState:
    """Explicit Euler-Maruyama baseline step.

    P1 = p - (f(q) + v p) h + Sigma dW,  Q1 = q + h M p.
    """
    h, dw = _step_inputs(model, z, h, dW)
    # Only the force enters; evaluate it directly so an overflowing update is
    # classified by the output check below rather than by eval_model.
    with np.errstate(over="ignore", invalid="ignore"):
        frc = np.asarray(model.force(z.q), dtype=float).reshape(model.dim)
        p1 = z.p - (frc + model.friction * z.p) * h + model.noise @ dw
        q1 = z.q + h * (model.mass @ z.p)
    if not (np.all(np.isfinite(p1)) and np.all(np.isfinite(q1))):
        raise RangeError(f"explicit step overflowed at h={h}")
    return PhaseState(p1, q1)


_SCHEMES = {"gf2": gf2_step, "em": em_step}


def simulate(
    model: LangevinModel,
    scheme: str,
    z0: PhaseState,
    h: float,
    n_steps: int,
    noise: object,
) -> Trajectory:
    """Iterate a one-step map over a supplied increment sequence.

    Parameters
    ----------
    scheme : {"gf2", "em"}
    noise : IncrementBlock or array_like of shape (n_steps, m)
        Brownian increments; row k drives step k.

    Returns
    -------
    Trajectory
        n_steps + 1 states on the grid t_n = n h.

    Raises
    ------
    Error subclasses from the step, re-raised with the failing step index;
    other exceptions (e.g. from a custom force) propagate unchanged.
    """
    if scheme not in _SCHEMES:
        raise ArgumentError(f"unknown scheme {scheme!r}; choose from {sorted(_SCHEMES)}")
    if n_steps < 0:
        raise ArgumentError("n_steps must be nonnegative")
    values = np.asarray(getattr(noise, "values", noise), dtype=float)
    if n_steps > 0:
        values = values.reshape(n_steps, model.noise_dim)
    step = _SCHEMES[scheme]
    states = [z0]
    current = z0
    for k in range(n_steps):
        try:
            current = step(model, current, h, values[k])
        except Error as exc:
            raise type(exc)(f"step {k}: {exc}") from exc
        states.append(current)
    times = h * np.arange(n_steps + 1)
    return Trajectory(times=times, states=tuple(states))


def _linear_params(model: object) -> tuple[float, float, float]:
    if isinstance(model, LinearOscillator):
        return float(model.a), float(model.v), float(model.sigma)
    if isinstance(model, LangevinModel) and model.kind == "linear":
        p = model.params
        return float(p["a"]), float(p["v"]), float(p["sigma"])
    raise CapabilityError("this operation supports only the linear oscillator")


def linear_exact_moments(model: object, z0: PhaseState, t: float) -> GaussianLaw:
    """Exact Gaussian law of the linear oscillator at time t.

    mean = e^{At} z0 and cov = int_0^t e^{A(t-s)} N N^T e^{A^T(t-s)} ds with
    A = [[-v, -a], [a, 0]] and N = (sigma, 0)^T, both computed from one
    augmented matrix exponential (Van Loan block trick), accurate to
    relative 1e-12.
    """
    a, v, sigma = _linear_params(model)
    if t < 0:
        raise ArgumentError("time must be nonnegative")
    z = np.array([z0.p[0], z0.q[0]])
    if t == 0.0:
        return GaussianLaw(mean=z, cov=np.zeros((2, 2)))
    amat = np.array([[-v, -a], [a, 0.0]])
    qmat = np.array([[sigma * sigma, 0.0], [0.0, 0.0]])
    block = np.zeros((4, 4))
    block[:2, :2] = amat
    block[:2, 2:] = qmat
    block[2:, 2:] = -amat.T
    expo = scipy.linalg.expm(block * t)
    phi = expo[:2, :2]
    cov = expo[:2, 2:] @ phi.T
    cov = 0.5 * (cov + cov.T)
    return GaussianLaw(mean=phi @ z, cov=cov)


def gf2_affine_map(model: object, h: float) -> AffineStepMap:
    """Exact affine form of the one-step map on the linear oscillator.

    With f(q) = a q and M = a the implicit solve is scalar and the map is
    Z_{n+1} = B Z_n + G dW (no drift offset).  det B = e^{-vh} to rounding.
    """
    a, v, sigma = _linear_params(model)
    _check_step_size(h)
    noise = -sigma  # model noise convention Sigma = -sigma
    evm = math.exp(-v * h)
    evp = math.exp(v * h)
    half_vh = 0.5 * v * h
    den = 1.0 + 0.5 * h * h * a * a
    b00 = evm / den
    b01 = -h * (1.0 + half_vh) * evm * a / den
    lower_gain = h * (1.0 - half_vh) * evp * a
    b10 = lower_gain * b00
    b11 = 1.0 + 0.5 * h * h * a * a + lower_gain * b01
    g0 = (1.0 + half_vh) * evm * noise / den
    g1 = lower_gain * g0 - 0.5 * h * a * noise
    return AffineStepMap(
        B=np.array([[b00, b01], [b10, b11]]),
        c=np.zeros(2),
        G=np.array([[g0], [g1]]),
        friction=v,
        h=h,
    )


def propagate_gaussian_chain(
    amap: AffineStepMap, init: GaussianLaw, n: int, h: float
) -> GaussianLaw:
    """Push a Gaussian law through n steps of an affine map.

    mean_{k+1} = B mean_k + c and cov_{k+1} = B cov_k B^T + h G G^T.
    """
    if n < 0:
        raise ArgumentError("step count must be nonnegative")
    if amap.B.shape[0] != init.mean.shape[0]:
        raise ArgumentError("map and law dimensions disagree")
    mean = init.mean.copy()
    cov = init.cov.copy()
    noise_cov = h * (amap.G @ amap.G.T)
    for _ in range(n):
        mean = amap.B @ mean + amap.c
        cov = amap.B @ cov @ amap.B.T + noise_cov
        cov = 0.5 * (cov + cov.T)
    return GaussianLaw(mean=mean, cov=cov)
