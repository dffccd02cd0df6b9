"""One-step maps and Gaussian law propagation.

The central object is the weak second order conformal symplectic map

    (I + (h^2/2) H(q) M) P1 = e^{-vh} p - h(1 + vh/2) e^{-vh} f(q)
                              + (1 + vh/2) e^{-vh} Sigma dW
    Q1 = q + h(1 - vh/2) e^{vh} M P1 + (h^2/2) M f(q) - (h/2) M Sigma dW

with H = grad^2 F.  Its Jacobian with respect to (p, q) scales the canonical
two-form by exactly e^{-vh}, hence the one-step phase-volume factor e^{-vhd}.
An explicit Euler-Maruyama baseline, gf2 trajectory iteration, and the exact
and per-step Gaussian laws of a quadratic model complete the module.  Each
map is written once, as a kernel over (R, d) arrays of states that the
single-state steps, :func:`simulate`, the Monte Carlo engine and the CLI's
structure command share; the gf2 kernel also takes one step size per state
and gives the analytic Jacobians of the states it stepped, which
:func:`gf2_jacobian` returns for R = 1.  :func:`simulate` builds one gf2
kernel per run, steps (1, d) rows of preallocated (n + 1, d) arrays and
returns them with the time grid.  On a quadratic model the gf2 map is
affine, and :func:`gf2_affine_map` reads its B and G off the same kernel
rather than from a second copy of the update.  Each kernel refuses a
singular step matrix or a non-finite result itself, naming the first refused
state as the error's ``row``; :func:`_iterate`, the one stepping loop, adds the step.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterator

import numpy as np

from .errors import (
    ArgumentError,
    CapabilityError,
    Error,
    EvaluationError,
    RangeError,
    StepSizeError,
)
from .models import LangevinModel, PhaseState, _check_finite, _check_symmetric, _count, _matvec
from .models import _check_state, _exp_rows, _exp_vt, _friction, _on_rows, _step_size, _time

Array = np.ndarray

# Condition-estimate ceiling for the implicit step matrix.
_COND_LIMIT = 1e12
# Relative tolerance of the conformal determinant identity of AffineStepMap.
_DET_RTOL = 1e-12
# Relative tolerance of a covariance's negative eigenvalues.
_COV_RTOL = 1e-12


def _check_spectrum(eigvals: Array, cov: Array) -> None:
    """Refuse a covariance whose smallest eigenvalue is significantly negative."""
    if float(np.min(eigvals)) < -_COV_RTOL * max(1.0, float(np.max(np.abs(cov)))):
        raise ArgumentError("cov has a significantly negative eigenvalue")


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
        _check_finite(mean, "mean")
        _check_finite(cov, "cov")
        _check_symmetric(cov, "cov is not symmetric")
        _check_spectrum(np.linalg.eigvalsh(cov), cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclasses.dataclass(frozen=True)
class AffineStepMap:
    """One-step linear map Z_{n+1} = B Z_n + G dW with dW ~ N(0, h I_m).

    A quadratic model's force vanishes at the origin, so the map has no
    offset.  B acts on (p, q) in R^d x R^d.  ``friction`` and ``h`` are
    carried so the conformal determinant identity det B = e^{-vhd} can be
    checked at construction, to a relative 1e-12.  B and G are stored
    C-ordered: the BLAS products of :func:`propagate_gaussian_chain` round
    differently for another memory layout.
    """

    B: Array
    G: Array
    friction: float
    h: float

    def __post_init__(self) -> None:
        B = np.ascontiguousarray(self.B, dtype=float)
        G = np.ascontiguousarray(self.G, dtype=float)
        friction, h = _friction(self.friction), _step_size(self.h)
        if (B.ndim, G.ndim) != (2, 2) or B.shape != (len(G),) * 2 or len(G) % 2:
            raise ArgumentError(f"B must be 2d x 2d and G 2d x m, got {B.shape} and {G.shape}")
        _check_finite(B, "B")
        _check_finite(G, "G")
        expected = math.exp(-friction * h * (B.shape[0] // 2))
        if not abs(float(np.linalg.det(B)) - expected) <= _DET_RTOL * expected:
            raise ArgumentError(
                "det(B) deviates from the conformal factor exp(-vhd)"
            )
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "friction", friction)
        object.__setattr__(self, "h", h)


def _check_step_matrix(step_matrix: Array, h: float | Array) -> None:
    """Refuse near-singular implicit solves, naming the first offending row.

    ``step_matrix`` has shape (..., d, d); ``h`` is a float or one step size
    per row.  For d = 1 the condition number is always 1, so the guard
    measures the cancellation ratio (1 + |c|) / |1 + c| of each scalar 1 + c
    instead; it can pass the limit only where 1 + c < 2e-12, so one reduction
    screens a batch.  For d > 1 Guggenheimer's bound
    cond(S) <= (2 / |det S|) (|S|_F / sqrt(d))^d screens, and the SVD runs
    only on the rows whose bound passes half the limit (headroom for the
    rounding of det near singularity).  Non-finite matrices are left to the
    kernel's state screen.
    """
    d = step_matrix.shape[-1]
    if d == 1:
        if not np.fmin.reduce(step_matrix, axis=None) <= 4.0 / _COND_LIMIT:
            return
        c = step_matrix.reshape(-1) - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (1.0 + np.abs(c)) / np.abs(1.0 + c)
    else:
        flat = step_matrix.reshape(-1, d, d)
        with np.errstate(all="ignore"):
            frobenius = np.sqrt(np.sum(flat * flat, axis=(1, 2)) / d)
            bound = 2.0 / np.abs(np.linalg.det(flat)) * frobenius**d
        flagged = np.all(np.isfinite(flat), axis=(1, 2)) & ~(bound <= 0.5 * _COND_LIMIT)
        if not np.any(flagged):
            return
        ratio = np.full(flat.shape[0], np.nan)
        ratio[flagged] = np.linalg.cond(flat[flagged])
    bad = ratio > _COND_LIMIT
    if np.any(bad):
        row = int(np.argmax(bad))
        at = h if np.ndim(h) == 0 else np.ravel(h)[row]
        raise StepSizeError(
            f"implicit step matrix has condition estimate {ratio[row]:.3e} at h={at}; "
            "reduce the step size",
            row=row,
        )


def _refuse_nonfinite(
    error: type[Error], what: str, h: float | Array, p1: Array, q1: Array
) -> None:
    """Raise ``error(f"{what} at h=...")`` with the first row of the (R, d)
    states (p1, q1) that has a non-finite entry; ``h`` is a float or one step
    size per row.  Any non-finite entry makes p1 . q1 non-finite, so one dot
    product screens.
    """
    if math.isfinite(np.vdot(p1, q1)):
        return
    bad = ~np.all(np.isfinite(p1) & np.isfinite(q1), axis=1)
    if np.any(bad):
        row = int(np.argmax(bad))
        at = h if np.ndim(h) == 0 else np.ravel(h)[row]
        raise error(f"{what} at h={at}", row=row)


def _mass_map(mass: Array) -> Callable[[Array], Array]:
    """x -> mass @ x along the last axis; an identity, which changes no value, is skipped."""
    if np.array_equal(mass, np.eye(mass.shape[0])):
        return lambda x: x
    return lambda x: _matvec(mass, x)


def _gf2_coefficients(v: float, h: float | Array, evp: float | Array, evm: float | Array) -> tuple:
    """(e^{-vh}, h^2/2, h(1 + vh/2)e^{-vh}, (1 + vh/2)e^{-vh}, h(1 - vh/2)e^{vh}, h/2)
    from e^{vh} and e^{-vh}, for a float h or an (R, 1) column of step sizes."""
    half_vh = 0.5 * v * h
    drift_p, kick_p = h * (1.0 + half_vh) * evm, (1.0 + half_vh) * evm
    return evm, 0.5 * h * h, drift_p, kick_p, h * (1.0 - half_vh) * evp, 0.5 * h


class _Gf2Kernel:
    """The gf2 map at fixed (model, h) on R states at once, shape (R, d).

    Every gf2 step of the package runs here: :func:`gf2_step` with R = 1,
    the Monte Carlo engine with a whole task, and the structure command with
    one state per trial.  ``h`` is a float, or a 1-d array of R step sizes,
    one per state; each coefficient is then an (R, 1) column of the same
    formula, and a refused e^{vh} names its row.  The operations follow the map
    in the module docstring left to right, with M applied before the scalar
    coefficients.  The implicit solve is a division for d = 1 and one LAPACK
    solve per state for d > 1; all other products are elementwise, so a
    state's bits never depend on R.
    """

    def __init__(self, model: LangevinModel, h: float | Array) -> None:
        v = model.friction
        self.model, self.h = model, h
        if np.ndim(h) == 0:
            coefficients = _gf2_coefficients(v, h, _exp_vt(v, h), math.exp(-v * h))
        else:
            coefficients = _gf2_coefficients(v, h[:, None], *_exp_rows(v, h))
        self.evm, self.hh, self.drift_p, self.kick_p, self.gain_q, self.kick_q = coefficients
        self.hh_matrix = self.hh if np.ndim(h) == 0 else self.hh[..., None]
        self.eye = np.eye(model.dim)
        self.times_mass = _mass_map(model.mass)
        self.hess_times_mass = _mass_map(model.mass.T)

    def update(self, p: Array, q: Array, kick: Array) -> tuple[Array, Array, Array, Array]:
        """(grad^2 F(q), step matrix, P1, Q1); a near-singular step matrix raises
        StepSizeError and a non-finite state EvaluationError, with its ``row``."""
        model, d = self.model, self.model.dim
        frc = _on_rows(model.force(q), q, (d,), "force")
        hess = _on_rows(model.force_jacobian(q), q, (d, d), "force_jacobian")
        # In-place sums round as the map's left-to-right order does; they
        # only spare the per-step temporaries.
        step_matrix = self.hh_matrix * self.hess_times_mass(hess)
        step_matrix += self.eye
        _check_step_matrix(step_matrix, self.h)
        p1 = self.evm * p
        p1 -= self.drift_p * frc
        p1 += self.kick_p * kick
        if d == 1:
            p1 /= step_matrix[..., 0]
        else:
            p1 = np.linalg.solve(step_matrix, p1[..., None])[..., 0]
        if not math.isfinite(np.add.reduce(hess, axis=None)):
            # I + (h^2/2) inf M would solve to P1 = 0: leave the finite numbers.
            p1[~np.all(np.isfinite(hess), axis=(-2, -1))] = np.nan
        q1 = self.gain_q * self.times_mass(p1)
        q1 += q
        q1 += self.hh * self.times_mass(frc)
        q1 -= self.kick_q * self.times_mass(kick)
        _refuse_nonfinite(EvaluationError, "step produced a non-finite state", self.h, p1, q1)
        return hess, step_matrix, p1, q1

    def __call__(self, p: Array, q: Array, kick: Array) -> tuple[Array, Array]:
        return self.update(p, q, kick)[2:]

    def jacobian(self, q: Array, hess: Array, step_matrix: Array, p1: Array) -> Array:
        """(R, 2d, 2d) Jacobians in (p, q) blocks of the step from q that :meth:`update` took.

        Takes the update's Hessian, step matrix and P1, and the model's
        ``force_third``, refused when absent; each column is formed as the
        derivative of the update along one coordinate, term by term.
        """
        model, d = self.model, self.model.dim
        if model.force_third is None:
            raise CapabilityError("the Jacobian of the gf2 map needs the model's force_third")
        third = _on_rows(model.force_third(q), q, (d, d, d), "force_third")
        dmat = np.linalg.inv(step_matrix)
        jac = np.empty(q.shape[:-1] + (2 * d, 2 * d))
        for j in range(d):
            dp = self.evm * dmat[..., :, j]
            jac[..., :d, j] = dp
            jac[..., d:, j] = self.gain_q * self.times_mass(dp)
            col = -self.drift_p * hess[..., :, j] - self.hh * _matvec(
                self.hess_times_mass(third[..., j]), p1
            )
            dp = _matvec(dmat, col)
            jac[..., :d, d + j] = dp
            jac[..., d:, d + j] = (
                self.eye[j]
                + self.hh * self.times_mass(hess[..., :, j])
                + self.gain_q * self.times_mass(dp)
            )
        return jac


def _em_kernel(model: LangevinModel, h: float) -> Callable[[Array, Array, Array], tuple]:
    """The Euler-Maruyama step (see :func:`em_step`) at fixed (model, h) on (R, d)
    states; a non-finite state raises RangeError with its ``row``."""
    v, force, times_mass = model.friction, model.force, _mass_map(model.mass)

    def step(p: Array, q: Array, kick: Array) -> tuple[Array, Array]:
        p1 = p - (_on_rows(force(q), q, (model.dim,), "force") + v * p) * h + kick
        q1 = q + h * times_mass(p)
        _refuse_nonfinite(RangeError, "explicit step overflowed", h, p1, q1)
        return p1, q1

    return step


# Each maps (model, h) to a step (p, q, Sigma dW) -> (P1, Q1) on (R, d) arrays.
_KERNELS = {"gf2": _Gf2Kernel, "em": _em_kernel}


def _iterate(step: Callable, p: Array, q: Array, kicks: Array, first: int = 0) -> Iterator:
    """Yield ``step(p, q, kick)`` for each (R, d) kick, going on from each result's
    last two entries.  A package Error from step k (counted from ``first``) is
    prefixed ``step k: `` in place and records k as its ``step``; others pass through."""
    try:
        with np.errstate(all="ignore"):
            for k, kick in enumerate(kicks, first):
                stepped = step(p, q, kick)
                p, q = stepped[-2:]
                yield stepped
    except Error as exc:
        exc.step = k
        exc.args = (f"step {k}: {exc}",)
        raise


def _increment(model: LangevinModel, dW: object) -> Array:
    """The (m,) increment of one step, zeros if omitted; refused unless finite and of size m."""
    dw = np.zeros(model.noise_dim) if dW is None else np.asarray(dW, dtype=float).reshape(-1)
    if dw.shape[0] != model.noise_dim:
        raise ArgumentError(f"increment has dimension {dw.shape[0]}, expected {model.noise_dim}")
    if not np.all(np.isfinite(dw)):
        raise EvaluationError("increment contains non-finite entries")
    return dw


def _step_inputs(model: LangevinModel, z: PhaseState, h: float, dW: object) -> tuple:
    """Validated (h, Sigma dW) of one step from a single state."""
    _check_state(model, z)
    return _step_size(h), _matvec(model.noise, _increment(model, dW)[None])


def _single_step(
    model: LangevinModel, scheme: str, z: PhaseState, h: float, dW: object
) -> PhaseState:
    h, kick = _step_inputs(model, z, h, dW)
    with np.errstate(all="ignore"):
        p1, q1 = _KERNELS[scheme](model, h)(z.p[None], z.q[None], kick)
    return PhaseState(p1[0], q1[0])


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
    return _single_step(model, "gf2", z, h, dW)


def gf2_jacobian(
    model: LangevinModel, z: PhaseState, h: float, dW: object = None
) -> Array:
    """Analytic Jacobian of the one-step map with respect to (p, q).

    It reads the model's ``force_third``; a model without one is refused
    with CapabilityError.

    Returns
    -------
    (2d, 2d) ndarray in (p, q) block ordering.
    """
    h, kick = _step_inputs(model, z, h, dW)
    kernel = _Gf2Kernel(model, h)
    q = z.q[None]
    with np.errstate(all="ignore"):
        hess, step_matrix, p1, _ = kernel.update(z.p[None], q, kick)
    return kernel.jacobian(q, hess, step_matrix, p1)[0]


def em_step(model: LangevinModel, z: PhaseState, h: float, dW: object = None) -> PhaseState:
    """Explicit Euler-Maruyama baseline step.

    P1 = p - (f(q) + v p) h + Sigma dW,  Q1 = q + h M p.
    """
    return _single_step(model, "em", z, h, dW)


def simulate(
    model: LangevinModel, z0: PhaseState, h: float, noise: Array
) -> tuple[Array, Array, Array]:
    """Iterate the gf2 map over a supplied increment sequence.

    Parameters
    ----------
    noise : ndarray of shape (n, m)
        Brownian increments; row k drives step k.

    Returns
    -------
    (times, p, q)
        The grid t_k = k h of shape (n + 1,) and the states on it, of shape
        (n + 1, d) each; row 0 is z0.

    Raises
    ------
    ArgumentError
        Before any step, for a state, step size or noise array that its rule
        refuses; the message names no step.
    Error subclasses from step k
        The step's own exception, its message prefixed in place with
        ``step k: ``, so its type and ``row`` survive, k recorded as its
        ``step``; other exceptions (e.g. from a custom force) pass through.
    """
    _check_state(model, z0)
    h = _step_size(h)
    values = np.asarray(noise, dtype=float)
    if values.ndim != 2 or values.shape[1] != model.noise_dim:
        raise ArgumentError(
            f"noise must have shape (n, {model.noise_dim}), got {values.shape}"
        )
    n_steps = values.shape[0]
    finite_rows = np.all(np.isfinite(values), axis=1)
    n_ok = n_steps if finite_rows.all() else int(np.argmin(finite_rows))
    p = np.empty((n_steps + 1, model.dim))
    q = np.empty((n_steps + 1, model.dim))
    p[0], q[0] = z0.p, z0.q
    kicks = _matvec(model.noise, values[:n_ok, None])  # (n, 1, d)
    for k, (p1, q1) in enumerate(_iterate(_Gf2Kernel(model, h), p[:1], q[:1], kicks), 1):
        p[k], q[k] = p1[0], q1[0]
    if n_ok < n_steps:
        raise EvaluationError(f"step {n_ok}: increment contains non-finite entries")
    return h * np.arange(n_steps + 1), p, q


def _stiffness(model: LangevinModel) -> Array:
    """K of a quadratic model: the force at the unit vectors, once the Hessian at 0 equals it."""
    d = model.dim
    eye, origin = np.eye(d), np.zeros((1, d))
    kmat = _on_rows(model.force(eye), eye, (d,), "force").T
    hess = _on_rows(model.force_jacobian(origin), origin, (d, d), "force_jacobian")
    if not np.array_equal(hess[0], kmat):
        raise CapabilityError(
            "this operation needs a quadratic model: its force at the unit vectors "
            "and its Hessian at the origin differ"
        )
    return kmat


def linear_exact_moments(model: LangevinModel, z0: PhaseState, t: float) -> GaussianLaw:
    """Exact Gaussian law of a quadratic model at time t.

    mean = e^{At} z0 and cov = int_0^t e^{A(t-s)} N N^T e^{A^T(t-s)} ds with
    A = [[-v I, -K], [M, 0]] and N = [Sigma; 0], both computed from one
    augmented matrix exponential (Van Loan block trick), accurate to
    relative 1e-12.  The block's e^{-A^T s} grows like e^{|A| s}, so when t |A|_1 > 4
    it is taken at s = t / 2^k and doubled k times by cov(2s) = phi(s) cov(s)
    phi(s)^T + cov(s), a sum of positive semidefinite terms: nothing cancels.
    """
    # Imported here: scipy.linalg adds about 28 MB and 0.3 s to every process
    # that imports the package, and only this function uses it.
    import scipy.linalg

    _check_state(model, z0)
    t = _time(t)
    kmat, d, n = _stiffness(model), model.dim, 2 * model.dim
    z = np.concatenate([z0.p, z0.q])
    if t == 0.0:
        return GaussianLaw(mean=z, cov=np.zeros((n, n)))
    amat = np.block([[-model.friction * np.eye(d), -kmat], [model.mass, np.zeros((d, d))]])
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = amat
    block[:d, n: n + d] = model.noise @ model.noise.T
    block[n:, n:] = -amat.T
    doublings = max(0, math.ceil(math.log2(t * np.linalg.norm(amat, 1) / 4.0)))
    expo = scipy.linalg.expm(block * (t / 2**doublings))
    phi = expo[:n, :n]
    cov = expo[:n, n:] @ phi.T
    for _ in range(doublings):
        cov = phi @ cov @ phi.T + cov
        phi = phi @ phi
    cov = 0.5 * (cov + cov.T)
    return GaussianLaw(mean=phi @ z, cov=cov)


def gf2_affine_map(model: LangevinModel, h: float) -> AffineStepMap:
    """Exact affine form of the one-step map on a quadratic model.

    The map is Z_{n+1} = B Z_n + G dW, read off the gf2 kernel in one
    batch: the images of the 2d unit states are the columns of B, and those
    of the origin under the m unit noise kicks are the columns of G.  The
    force vanishes at the origin, so the map has no offset, and
    det B = e^{-vhd} to rounding.
    """
    h = _step_size(h)
    _stiffness(model)  # refuses every other model
    d, m = model.dim, model.noise_dim
    states = np.vstack([np.zeros((m, 2 * d)), np.eye(2 * d)])
    kick = _matvec(model.noise, np.eye(m + 2 * d, m))
    images = np.hstack(_Gf2Kernel(model, h)(states[:, :d], states[:, d:], kick))
    return AffineStepMap(B=images[m:].T, G=images[:m].T, friction=model.friction, h=h)


def propagate_gaussian_chain(
    amap: AffineStepMap, init: GaussianLaw, n: int, h: float
) -> GaussianLaw:
    """Push a Gaussian law through n steps of an affine map.

    mean_{k+1} = B mean_k and cov_{k+1} = B cov_k B^T + h G G^T; h must equal amap.h.
    """
    n = _count(n, 0, "step count must be nonnegative")
    h = _step_size(h)
    if h != amap.h:
        raise ArgumentError(f"step size {h} differs from the map's h={amap.h}")
    if amap.B.shape[0] != init.mean.shape[0]:
        raise ArgumentError("map and law dimensions disagree")
    means, cov = [init.mean.copy()], init.cov.copy()
    noise_cov = h * (amap.G @ amap.G.T)
    for _ in range(n):
        means, cov = _chain_step(amap, means, cov, noise_cov)
    return GaussianLaw(mean=means[0], cov=cov)


def _chain_step(
    amap: AffineStepMap, means: list[Array], cov: Array, noise_cov: Array
) -> tuple[list[Array], Array]:
    """One step of Gaussian laws that share a covariance.

    Returns B m for each mean m and the symmetrised B cov B^T + noise_cov.
    Each mean is its own matrix-vector product, so the bits of a law do not
    depend on how many others are stepped with it.
    """
    cov = amap.B @ cov @ amap.B.T + noise_cov
    return [amap.B @ mean for mean in means], 0.5 * (cov + cov.T)
