"""Reproducible Monte Carlo drivers for trajectory ensembles.

Reproducibility contract
------------------------
Every estimator in this module is bit-identical across runs, worker counts,
kernel widths and draw block sizes for a fixed :class:`SeedPlan`:

* each realization owns a private generator seeded by an avalanche-style
  mixing of (master_seed, realization index), so no generator state is shared
  and no draw order depends on scheduling;
* seed granularity is one generator per realization, and it alone defines
  the bits: kernel tasks span balanced runs of at most :data:`BATCH_SIZE`
  realizations, each draw block holds at most :data:`DRAW_BLOCK` normals, and
  neither size changes a result, because every kernel operation is
  elementwise over realizations; workers write into disjoint slices of
  preallocated arrays;
* reductions over realizations use a fixed-shape pairwise summation tree
  keyed by realization index, never a scheduling-dependent accumulation;
* Brownian increments are drawn in chunks along the step axis, which yields
  the same stream as a single draw (a NumPy generator guarantee the test
  suite pins down).

The normal transform is pinned in exactly one place, :func:`generator_for`,
so regression goldens survive refactors elsewhere.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    ConfigError,
    Error,
    EstimationError,
)
from .integrators import em_step, gf2_step
from .models import LangevinModel, PhaseState

Array = np.ndarray

# Most realizations one kernel task advances (the kernel width).
BATCH_SIZE = 2048
# Most normals one task draws at a time, unless a single coarse step of a
# coupled estimator needs more; bounds the per-task draw buffer.
DRAW_BLOCK = 2**18

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_DERIVATIONS = ("splitmix64-v1",)

_STEP_FUNCTIONS = {"gf2": gf2_step, "em": em_step}
# Built-in one-dimensional models whose callables broadcast over batches.
_BATCHED_KINDS = ("linear", "double_well")


@dataclasses.dataclass(frozen=True)
class SeedPlan:
    """Master seed plus the name of the index-to-seed derivation."""

    master_seed: int
    derivation: str = "splitmix64-v1"

    def __post_init__(self) -> None:
        seed = int(self.master_seed)
        if not 0 <= seed <= _MASK64:
            raise ArgumentError("master_seed must be an unsigned 64-bit integer")
        if self.derivation not in _DERIVATIONS:
            raise ArgumentError(
                f"unknown derivation {self.derivation!r}; supported: {_DERIVATIONS}"
            )
        object.__setattr__(self, "master_seed", seed)


def _mix64(value: int) -> int:
    """Finalizer of the splitmix64 generator (Steele, Lea, Flood 2014)."""
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return value ^ (value >> 31)


def derive_seed(plan: SeedPlan, index: int) -> int:
    """Per-trajectory seed derived from (master_seed, index).

    Walks the splitmix64 sequence: seed_i = mix64(master + (i+1) * gamma).
    Deterministic, platform-independent, and collision-free over the tested
    index range.
    """
    if index < 0:
        raise ArgumentError("realization index must be nonnegative")
    return _mix64((plan.master_seed + (index + 1) * _GAMMA) & _MASK64)


def generator_for(seed: int) -> np.random.Generator:
    """The one pinned RNG choice: PCG64 behind the Generator front end.

    ``standard_normal`` on this stack uses the ziggurat transform; all normal
    draws in the package flow through generators built here, so goldens only
    depend on this single function.
    """
    return np.random.Generator(np.random.PCG64(seed))


@dataclasses.dataclass(frozen=True)
class IncrementBlock:
    """n Brownian increments of step h in m noise dimensions, entries N(0, h)."""

    h: float
    m: int
    n: int
    values: Array

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ArgumentError(f"step size must be positive and finite, got {self.h}")
        if self.n < 1 or self.m < 1:
            raise ArgumentError("step count and noise dimension must be at least 1")
        if values.shape != (self.n, self.m):
            raise ArgumentError(
                f"values must have shape ({self.n}, {self.m}), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ArgumentError("increments contain non-finite entries")
        object.__setattr__(self, "values", values)


def sample_increments(seed: int, n: int, m: int, h: float) -> IncrementBlock:
    """Draw an n-by-m block of N(0, h) increments from the seeded generator."""
    if n < 1 or m < 1:
        raise ArgumentError("step count and noise dimension must be at least 1")
    if not (h > 0 and math.isfinite(h)):
        raise ArgumentError(f"step size must be positive and finite, got {h}")
    gen = generator_for(seed)
    return IncrementBlock(h=h, m=m, n=n, values=gen.standard_normal((n, m)) * math.sqrt(h))


def coarsen(block: IncrementBlock, k: int) -> IncrementBlock:
    """Sum groups of k consecutive increments, coupling step k*h to step h."""
    if k < 1:
        raise ArgumentError("coarsening factor must be at least 1")
    if block.n % k != 0:
        raise ArgumentError(f"coarsening factor {k} does not divide n={block.n}")
    if k == 1:
        return block
    summed = block.values.reshape(block.n // k, k, block.m).sum(axis=1)
    return IncrementBlock(h=block.h * k, m=block.m, n=block.n // k, values=summed)


def pairwise_sum(values: Array, axis: int = 0) -> Array:
    """Fixed-shape pairwise summation tree along one axis.

    Each level adds even-index to odd-index entries and carries an odd
    leftover unchanged, so the reduction order depends only on the array
    length, never on how the entries were produced or scheduled.
    """
    arr = np.asarray(values, dtype=float)
    if arr.shape[axis] == 0:
        raise ArgumentError("cannot reduce an empty axis")
    arr = np.moveaxis(arr, axis, 0)
    while arr.shape[0] > 1:
        n = arr.shape[0]
        even = n - (n % 2)
        paired = arr[0:even:2] + arr[1:even:2]
        arr = np.concatenate([paired, arr[even:]], axis=0) if n % 2 else paired
    return arr[0]


@dataclasses.dataclass(frozen=True)
class EstimatorResult:
    """Sample mean, its standard error, and the sample count."""

    mean: float
    std_error: float
    n_samples: int

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ArgumentError("n_samples must be at least 1")
        if not self.std_error >= 0:
            raise ArgumentError("std_error must be nonnegative")


def mean_and_se(values: Array) -> EstimatorResult:
    """Tree-reduced sample mean and standard error of a 1-d value array."""
    arr = np.asarray(values, dtype=float).reshape(-1)
    n = arr.size
    if n < 1:
        raise ArgumentError("need at least one sample")
    mean = float(pairwise_sum(arr)) / n
    if n == 1:
        return EstimatorResult(mean=mean, std_error=0.0, n_samples=1)
    var = float(pairwise_sum((arr - mean) ** 2)) / (n - 1)
    return EstimatorResult(mean=mean, std_error=math.sqrt(max(var, 0.0) / n), n_samples=n)


def _usable_cpus() -> int:
    """CPUs this process may run on, falling back to the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_threads() -> int:
    """Worker count from LANGEVIN_GF_THREADS (unset or 0 means auto)."""
    raw = os.environ.get("LANGEVIN_GF_THREADS")
    if raw is None or raw.strip() == "":
        return _usable_cpus()
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"LANGEVIN_GF_THREADS must be a nonnegative integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigError(f"LANGEVIN_GF_THREADS must be nonnegative, got {value}")
    return value if value > 0 else _usable_cpus()


def _map_batches(task: Callable[[int], None], n_batches: int) -> None:
    workers = min(resolve_threads(), n_batches)
    if workers <= 1:
        for b in range(n_batches):
            task(b)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task, b) for b in range(n_batches)]
        for future in futures:
            future.result()


def _batch_bounds(n_realizations: int) -> list[tuple[int, int]]:
    """Balanced task ranges of at most BATCH_SIZE realizations each."""
    n_tasks = -(-n_realizations // BATCH_SIZE)
    width = -(-n_realizations // n_tasks)
    return [
        (lo, min(lo + width, n_realizations))
        for lo in range(0, n_realizations, width)
    ]


def _block_steps(bounds: list[tuple[int, int]], m: int) -> int:
    """Steps per draw that keep each task's draw block within DRAW_BLOCK."""
    width = bounds[0][1] - bounds[0][0]
    return max(1, DRAW_BLOCK // (width * m))


def _steps_for(h: float, horizon: float) -> int:
    if not (h > 0 and math.isfinite(h)):
        raise ArgumentError(f"step size must be positive and finite, got {h}")
    if horizon < 0 or not math.isfinite(horizon):
        raise ArgumentError(f"time horizon must be nonnegative and finite, got {horizon}")
    n = round(horizon / h)
    if abs(n * h - horizon) > 1e-9 * max(1.0, abs(horizon)):
        raise ArgumentError(f"horizon {horizon} is not an integer multiple of h={h}")
    return n


def _use_batched_path(model: LangevinModel) -> bool:
    return model.dim == 1 and model.kind in _BATCHED_KINDS


def _gf2_batch_step(
    model: LangevinModel, p: Array, q: Array, h: float, dw: Array
) -> tuple[Array, Array]:
    v = model.friction
    ms = model.mass[0, 0]
    evm = math.exp(-v * h)
    evp = math.exp(v * h)
    half = 0.5 * v * h
    with np.errstate(all="ignore"):
        frc = np.asarray(model.force(q), dtype=float)
        hess = np.asarray(model.force_jacobian(q), dtype=float)
        kick = dw @ model.noise[0]
        den = 1.0 + 0.5 * h * h * hess * ms
        p1 = (evm * p - h * (1.0 + half) * evm * frc + (1.0 + half) * evm * kick) / den
        q1 = q + h * (1.0 - half) * evp * ms * p1 + 0.5 * h * h * ms * frc - 0.5 * h * ms * kick
    return p1, q1


def _em_batch_step(
    model: LangevinModel, p: Array, q: Array, h: float, dw: Array
) -> tuple[Array, Array]:
    v = model.friction
    ms = model.mass[0, 0]
    with np.errstate(all="ignore"):
        frc = np.asarray(model.force(q), dtype=float)
        p1 = p - (frc + v * p) * h + dw @ model.noise[0]
        q1 = q + h * ms * p
    return p1, q1


_BATCH_STEPS = {"gf2": _gf2_batch_step, "em": _em_batch_step}


def _check_batch_finite(p: Array, q: Array, lo: int, step: int) -> None:
    bad = ~(np.isfinite(p) & np.isfinite(q))
    if np.any(bad):
        index = lo + int(np.argmax(bad))
        raise EstimationError(
            f"realization {index} produced a non-finite state at step {step}"
        )


def _chunk_lengths(total: int, chunk: int) -> list[int]:
    return [min(chunk, total - start) for start in range(0, total, chunk)]


class _BatchState:
    """Mutable per-batch ensemble state for the chunked drivers."""

    def __init__(
        self,
        model: LangevinModel,
        z0: PhaseState,
        plan: SeedPlan,
        lo: int,
        hi: int,
        generators: list[np.random.Generator] | None = None,
    ) -> None:
        size = hi - lo
        self.lo = lo
        self.hi = hi
        if generators is None:
            generators = [generator_for(derive_seed(plan, i)) for i in range(lo, hi)]
        self.generators = generators
        self._buffer = np.empty(0)
        if _use_batched_path(model):
            self.p = np.full(size, z0.p[0])
            self.q = np.full(size, z0.q[0])
        else:
            self.states = [z0] * size

    def draw(self, n_steps: int, m: int, h: float) -> Array:
        """N(0, h) increments of shape (size, n_steps, m), filled in place.

        The result is a view of a buffer that the next call overwrites.
        """
        size = (self.hi - self.lo) * n_steps * m
        if self._buffer.size < size:
            self._buffer = np.empty(size)
        block = self._buffer[:size].reshape(self.hi - self.lo, n_steps, m)
        for b, gen in enumerate(self.generators):
            gen.standard_normal(out=block[b])
        block *= math.sqrt(h)
        return block


def _advance_batched(
    model: LangevinModel,
    scheme: str,
    state: _BatchState,
    h: float,
    dw: Array,
    first_step: int,
    psi_rows: Sequence[Callable[[Array, Array], Array]] | None = None,
    out: Array | None = None,
) -> None:
    step_fn = _BATCH_STEPS[scheme]
    for s in range(dw.shape[1]):
        state.p, state.q = step_fn(model, state.p, state.q, h, dw[:, s, :])
        _check_batch_finite(state.p, state.q, state.lo, first_step + s)
        if psi_rows is not None and out is not None:
            pcol = state.p[:, None]
            qcol = state.q[:, None]
            for j, psi in enumerate(psi_rows):
                out[s, j, state.lo: state.hi] = psi(pcol, qcol)


def _advance_fallback(
    model: LangevinModel,
    scheme: str,
    state: _BatchState,
    h: float,
    dw: Array,
    first_step: int,
    psi_rows: Sequence[Callable[[Array, Array], Array]] | None = None,
    out: Array | None = None,
) -> None:
    step_fn = _STEP_FUNCTIONS[scheme]
    for b in range(dw.shape[0]):
        z = state.states[b]
        for s in range(dw.shape[1]):
            try:
                z = step_fn(model, z, h, dw[b, s])
            except Error as exc:
                raise EstimationError(
                    f"realization {state.lo + b} failed at step {first_step + s}: {exc}"
                ) from exc
            if psi_rows is not None and out is not None:
                for j, psi in enumerate(psi_rows):
                    out[s, j, state.lo + b] = float(psi(z.p[None, :], z.q[None, :])[0])
        state.states[b] = z


def _advance_chunk(
    model: LangevinModel,
    scheme: str,
    state: _BatchState,
    h: float,
    dw: Array,
    first_step: int,
    psi_rows: Sequence[Callable[[Array, Array], Array]] | None = None,
    out: Array | None = None,
) -> None:
    if _use_batched_path(model):
        _advance_batched(model, scheme, state, h, dw, first_step, psi_rows, out)
    else:
        _advance_fallback(model, scheme, state, h, dw, first_step, psi_rows, out)


def _endpoint_arrays(model: LangevinModel, state: _BatchState) -> tuple[Array, Array]:
    if _use_batched_path(model):
        return state.p[:, None], state.q[:, None]
    return np.stack([z.p for z in state.states]), np.stack([z.q for z in state.states])


def _endpoint_psi(
    model: LangevinModel, state: _BatchState, psi: Callable[[Array, Array], Array]
) -> Array:
    pts_p, pts_q = _endpoint_arrays(model, state)
    return np.asarray(psi(pts_p, pts_q), dtype=float)


def _validate_run(
    model: LangevinModel, scheme: str, z0: PhaseState, n_realizations: int, plan: SeedPlan
) -> None:
    if scheme not in _STEP_FUNCTIONS:
        raise ArgumentError(
            f"unknown scheme {scheme!r}; expected one of {sorted(_STEP_FUNCTIONS)}"
        )
    if z0.dim != model.dim:
        raise ArgumentError("initial state dimension does not match the model")
    if n_realizations < 2:
        raise ArgumentError("need at least 2 realizations")
    if not isinstance(plan, SeedPlan):
        raise ArgumentError("plan must be a SeedPlan")


def mc_expectation(
    model: LangevinModel,
    scheme: str,
    psi: Callable[[Array, Array], Array],
    z0: PhaseState,
    h: float,
    T: float,
    n_realizations: int,
    plan: SeedPlan,
) -> EstimatorResult:
    """Estimate E psi(Z_N) at time T over independent trajectories.

    The result is bit-identical across runs and worker counts; see the module
    docstring for the contract.  A trajectory leaving the numeric domain
    raises EstimationError naming the realization index and step.
    """
    _validate_run(model, scheme, z0, n_realizations, plan)
    n_steps = _steps_for(h, T)
    values = np.empty(n_realizations)
    bounds = _batch_bounds(n_realizations)
    chunk = _block_steps(bounds, model.noise_dim)

    def task(b: int) -> None:
        lo, hi = bounds[b]
        state = _BatchState(model, z0, plan, lo, hi)
        done = 0
        for length in _chunk_lengths(n_steps, chunk):
            dw = state.draw(length, model.noise_dim, h)
            _advance_chunk(model, scheme, state, h, dw, done)
            done += length
        values[lo:hi] = _endpoint_psi(model, state, psi)

    _map_batches(task, len(bounds))
    return mean_and_se(values)


def weak_error_mc(
    model: LangevinModel,
    psi: Callable[[Array, Array], Array],
    z0: PhaseState,
    h: float,
    T: float,
    n_realizations: int,
    refine: int,
    plan: SeedPlan,
    *,
    allow_equal_steps: bool = False,
) -> EstimatorResult:
    """Coupled estimate of E psi(coarse endpoint) - E psi(fine endpoint).

    The fine chain runs at step h/refine on the same Brownian path; coarse
    increments are exact sums of refine consecutive fine increments (common
    random numbers).  ``allow_equal_steps`` admits refine=1, where both
    chains coincide and the estimate is exactly zero; it exists for test
    calibration only.
    """
    _validate_run(model, "gf2", z0, n_realizations, plan)
    if refine < 2 and not (allow_equal_steps and refine == 1):
        raise ArgumentError("refinement factor must be at least 2")
    n_coarse = _steps_for(h, T)
    h_fine = h / refine
    values = np.empty(n_realizations)
    bounds = _batch_bounds(n_realizations)
    chunk_coarse = max(1, _block_steps(bounds, model.noise_dim) // refine)

    def task(b: int) -> None:
        lo, hi = bounds[b]
        coarse = _BatchState(model, z0, plan, lo, hi)
        # One Brownian path per realization: the fine chain shares the generators.
        fine = _BatchState(model, z0, plan, lo, hi, coarse.generators)
        done = 0
        for length in _chunk_lengths(n_coarse, chunk_coarse):
            dw_fine = coarse.draw(length * refine, model.noise_dim, h_fine)
            shape = (hi - lo, length, refine, model.noise_dim)
            dw_coarse = dw_fine.reshape(shape).sum(axis=2)
            _advance_chunk(model, "gf2", fine, h_fine, dw_fine, done * refine)
            _advance_chunk(model, "gf2", coarse, h, dw_coarse, done)
            done += length
        values[lo:hi] = _endpoint_psi(model, coarse, psi) - _endpoint_psi(
            model, fine, psi
        )

    _map_batches(task, len(bounds))
    return mean_and_se(values)


def one_step_ms_gap(
    model: LangevinModel,
    z0: PhaseState,
    h: float,
    refine: int,
    n_realizations: int,
    plan: SeedPlan,
    *,
    allow_equal_steps: bool = False,
) -> EstimatorResult:
    """E ||Z(one coarse step) - Z(refine fine steps)||^2 on a shared path.

    The local mean-square probe behind third-order step-error measurements.
    ``allow_equal_steps`` admits refine=1 (identical chains, gap exactly 0).
    """
    _validate_run(model, "gf2", z0, n_realizations, plan)
    if refine < 2 and not (allow_equal_steps and refine == 1):
        raise ArgumentError("refinement factor must be at least 2")
    if not (h > 0 and math.isfinite(h)):
        raise ArgumentError(f"step size must be positive and finite, got {h}")
    values = np.empty(n_realizations)
    bounds = _batch_bounds(n_realizations)

    def task(b: int) -> None:
        lo, hi = bounds[b]
        coarse = _BatchState(model, z0, plan, lo, hi)
        fine = _BatchState(model, z0, plan, lo, hi, coarse.generators)
        dw_fine = coarse.draw(refine, model.noise_dim, h / refine)
        dw_coarse = dw_fine.reshape(hi - lo, 1, refine, model.noise_dim).sum(axis=2)
        _advance_chunk(model, "gf2", fine, h / refine, dw_fine, 0)
        _advance_chunk(model, "gf2", coarse, h, dw_coarse, 0)
        pc, qc = _endpoint_arrays(model, coarse)
        pf, qf = _endpoint_arrays(model, fine)
        values[lo:hi] = np.sum((pc - pf) ** 2 + (qc - qf) ** 2, axis=1)

    _map_batches(task, len(bounds))
    return mean_and_se(values)


def mc_step_means(
    model: LangevinModel,
    psis: Sequence[Callable[[Array, Array], Array]],
    z0: PhaseState,
    h: float,
    n_steps: int,
    n_realizations: int,
    plan: SeedPlan,
    scheme: str = "gf2",
) -> tuple[Array, Array]:
    """Ensemble mean of each test function after every step.

    Returns (times, means) with times of shape (n_steps+1,) and means of
    shape (len(psis), n_steps+1); column 0 is the point mass at z0.  Memory
    stays bounded: psi values are buffered per step chunk and tree-reduced
    over realizations before the next chunk starts.
    """
    _validate_run(model, scheme, z0, n_realizations, plan)
    if n_steps < 0:
        raise ArgumentError("step count must be nonnegative")
    if not (h > 0 and math.isfinite(h)):
        raise ArgumentError(f"step size must be positive and finite, got {h}")
    k = len(psis)
    if k == 0:
        raise ArgumentError("need at least one test function")
    means = np.empty((k, n_steps + 1))
    for j, psi in enumerate(psis):
        means[j, 0] = float(np.asarray(psi(z0.p[None, :], z0.q[None, :]))[0])
    bounds = _batch_bounds(n_realizations)
    states = [_BatchState(model, z0, plan, lo, hi) for lo, hi in bounds]
    chunk = max(
        1,
        min(_block_steps(bounds, model.noise_dim), 4_000_000 // max(1, k * n_realizations)),
    )

    done = 0
    for length in _chunk_lengths(n_steps, chunk):
        buffer = np.empty((length, k, n_realizations))

        def task(b: int, length: int = length, done: int = done) -> None:
            state = states[b]
            dw = state.draw(length, model.noise_dim, h)
            _advance_chunk(model, scheme, state, h, dw, done, psis, buffer)

        _map_batches(task, len(bounds))
        reduced = pairwise_sum(buffer, axis=2) / n_realizations
        means[:, done + 1: done + 1 + length] = reduced.T
        done += length
    return h * np.arange(n_steps + 1), means


def mc_running_average(
    model: LangevinModel,
    psi: Callable[[Array, Array], Array],
    z0: PhaseState,
    h: float,
    n_steps: int,
    n_realizations: int,
    plan: SeedPlan,
) -> tuple[Array, Array]:
    """Cumulative time average of the ensemble mean of psi along the chain."""
    times, means = mc_step_means(model, [psi], z0, h, n_steps, n_realizations, plan)
    running = np.cumsum(means[0]) / np.arange(1, n_steps + 2)
    return times, running
