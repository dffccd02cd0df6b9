"""Reproducible Monte Carlo drivers for trajectory ensembles.

Reproducibility contract
------------------------
Every estimator in this module is bit-identical across runs, worker
counts, kernel widths and draw block sizes for a fixed :class:`SeedPlan`:

* each realization owns a private generator seeded by an avalanche-style
  mixing of (master_seed, realization index), so no generator state is shared
  and no draw order depends on how realizations are grouped;
* seed granularity is one generator per realization, and it alone defines
  the bits: kernel tasks span balanced runs of at most :data:`BATCH_SIZE`
  realizations, each draw block holds at most :data:`DRAW_BLOCK` normals,
  and neither size changes a result, because every kernel operation acts on
  each realization alone;
* the tasks run on :func:`resolve_threads` processes through
  :func:`_map_batches`, which forks the workers once per estimator call and
  runs the first share of the tasks on the caller.  A task writes only its
  own slots of a buffer shared with the workers, and failures come back to
  the caller, which raises the one a run in task order would raise, so the
  worker count changes neither a value nor an error;
* reductions over realizations use a fixed-shape pairwise summation tree
  keyed by realization index, never an order-dependent accumulation;
* Brownian increments are drawn in chunks along the step axis, which yields
  the same stream as a single draw (a NumPy generator guarantee the test
  suite pins down).

Every model and dimension is stepped by the (R, d) step kernels of
:mod:`.integrators` that ``gf2_step`` and ``em_step`` run with one state, so
a realization's trajectory equals, bit for bit, the single-state map on its
own increments, and both fail alike: the loop ``simulate`` steps in names
the step, the engine a refused state's realization.  A failing run reports
the earliest failing step, then the lowest realization failing there, over
all tasks (a coupled run ranks by chain, then coarse step, fine first).

The endpoint estimators (``mc_expectation``, ``weak_error_mc`` and
``one_step_ms_gap``) are validation around :func:`_endpoint_values`, in
which a process runs a whole task before its next, holding one task's state
at a time.  A task seeds its generators once and draws each block of
unscaled normals once; one chain (or coupled coarse/fine pair) per step size
advances on it one coarse step at a time, scaling only that step's slice, so
the block is the task's one large buffer and every step size keeps the bits
of a call with it alone.
``mc_step_means`` runs each task once through every step, drawing chunk by
chunk: the task reduces each step's values over its own realizations to the
level-L nodes (L <= 8) of that step's pairwise tree, and the caller finishes
each tree after the tasks end.  Task bounds sit on the tree's grid, so the
joined subtrees are the whole tree.

Seeding is one vectorised pass per task that reproduces
``SeedSequence(derive_seed(plan, i))`` word for word; the normal transform
is pinned in one place, :func:`generator_for`.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import pickle
import threading
from typing import BinaryIO, Callable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ArgumentError, Error, EstimationError, EvaluationError, StepSizeError
from .integrators import _KERNELS, _iterate
from .models import LangevinModel, PhaseState, _check_finite, _count, _is_integer, _matvec
from .models import _check_state, _exp_vt, _on_rows, _step_size, _test_functions, _time

Array = np.ndarray

# Most realizations one kernel task advances (the kernel width).
BATCH_SIZE = 4096
# Realizations above which a call is split over the workers even as one task.
SPLIT_SIZE = 2048
# Most normals one task draws at a time, unless a single coarse step of a
# coupled estimator needs more; bounds the per-task draw buffer.  A
# BATCH_SIZE-wide task fills it with 128 steps per generator call at m = 1.
DRAW_BLOCK = 2**19
# Most levels of the pairwise tree a task builds over its own realizations.
_TASK_LEVELS = 8
# Steps whose psi values an mc_step_means task holds before reducing them.
_STAGE = 8

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


@dataclasses.dataclass(frozen=True)
class SeedPlan:
    """Master seed of the per-realization seeds that :func:`derive_seed` derives."""

    master_seed: int

    def __post_init__(self) -> None:
        seed = self.master_seed
        if not (_is_integer(seed) and 0 <= seed <= _MASK64):
            raise ArgumentError("master_seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "master_seed", int(seed))


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
    index = _count(index, 0, "realization index must be nonnegative")
    return _mix64((plan.master_seed + (index + 1) * _GAMMA) & _MASK64)


def generator_for(seed: int) -> np.random.Generator:
    """The one pinned RNG choice: PCG64 behind the Generator front end.

    ``standard_normal`` on this stack uses the ziggurat transform; all normal
    draws in the package flow through generators built here, so goldens only
    depend on this single function.
    """
    return np.random.Generator(np.random.PCG64(seed))


def _derive_seeds(plan: SeedPlan, lo: int, hi: int) -> Array:
    """derive_seed(plan, i) for i in [lo, hi): uint64 arithmetic wraps mod 2^64."""
    return _mix64(plan.master_seed + np.arange(lo + 1, hi + 1, dtype=np.uint64) * _GAMMA)


def _seed_words(seeds: Array) -> Array:
    """SeedSequence(seed).generate_state(4, np.uint64) for each uint64 seed.

    NumPy's algorithm, vectorised: the entropy [lo32, hi32, 0, 0] is hashed
    into the pool, mixed pairwise, then hashed out as eight uint32 words that
    pair up little-endian.
    """
    const = 0x43B0D7E5

    def hashmix(value: Array, mult: int) -> Array:
        nonlocal const
        xor, const = const, const * mult & _MASK32
        value = (value ^ xor) * const
        return value ^ (value >> 16)

    zero = np.zeros(seeds.shape, dtype=np.uint32)
    entropy = (seeds.astype(np.uint32), (seeds >> 32).astype(np.uint32), zero, zero)
    pool = [hashmix(word, 0x931E8875) for word in entropy]
    for src, dst in itertools.permutations(range(4), 2):
        mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src], 0x931E8875)
        pool[dst] = mixed ^ (mixed >> 16)
    const = 0x8B51F9DD
    words = np.stack([hashmix(pool[i % 4], 0x58F38DED) for i in range(8)], axis=-1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Precomputed seed words, which PCG64 accepts in place of a seed."""

    def __init__(self, words: Array) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype: object = np.uint32) -> Array:
        return self.words


def sample_increments(seed: int, n: int, m: int, h: float) -> Array:
    """Draw an (n, m) array of N(0, h) increments from the seeded generator."""
    n, m = (_count(x, 1, "step count and noise dimension must be at least 1") for x in (n, m))
    h = _step_size(h)
    return generator_for(seed).standard_normal((n, m)) * math.sqrt(h)


def pairwise_sum(values: Array, axis: int = 0, levels: int | None = None) -> Array:
    """Fixed-shape pairwise summation tree along one axis.

    Each level adds even-index to odd-index entries and carries an odd
    leftover unchanged, so the reduction order depends only on the array
    length, never on how the entries were produced or scheduled.  Node i of
    level L sums entries [i 2^L, (i+1) 2^L), so runs of entries cut at
    multiples of 2^L build their nodes apart: ``levels=L``, L >= 0, returns them.
    """
    levels = levels if levels is None else _count(levels, 0, "tree levels must be nonnegative")
    arr = np.asarray(values, dtype=float)
    if arr.shape[axis] == 0:
        raise ArgumentError("cannot reduce an empty axis")
    arr = np.moveaxis(arr, axis, 0)
    level = 0
    while arr.shape[0] > 1 and level != levels:
        n = arr.shape[0]
        even = n - (n % 2)
        paired = arr[0:even:2] + arr[1:even:2]
        arr = np.concatenate([paired, arr[even:]], axis=0) if n % 2 else paired
        level += 1
    return arr[0] if levels is None else np.moveaxis(arr, 0, axis)


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
    _check_finite(arr, "sample")
    mean = float(pairwise_sum(arr)) / n
    if n == 1:
        return EstimatorResult(mean=mean, std_error=0.0, n_samples=1)
    var = float(pairwise_sum((arr - mean) ** 2)) / (n - 1)
    return EstimatorResult(mean=mean, std_error=math.sqrt(max(var, 0.0) / n), n_samples=n)


def resolve_threads() -> int:
    """Processes the Monte Carlo engine runs its kernel tasks on: the CPUs it may use.

    One where the CPU affinity cannot be read (macOS, Windows), which keeps
    every task on the calling process there.
    """
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _is_trajectory_failure(exc: BaseException) -> bool:
    return isinstance(exc, EstimationError) and exc.where is not None


def _run_share(task: Callable[[int], None], share: range) -> list[tuple[int, Exception]]:
    """Failures of the tasks in share, in order up to the first non-trajectory one."""
    failures = []
    for b in share:
        try:
            task(b)
        except Exception as exc:
            failures.append((b, exc))
            if not _is_trajectory_failure(exc):
                break
    return failures


def _portable(exc: Exception) -> Exception:
    """exc if it survives pickling, else an EstimationError that names it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return EstimationError(f"{type(exc).__name__}: {exc}")


def _map_batches(task: Callable[[int], None], n_batches: int) -> None:
    """Run the kernel tasks once each, on up to :func:`resolve_threads` processes.

    The caller runs the first contiguous share of the task indices itself;
    each worker, forked first, runs one later share, sends back its pickled
    (task, exception) failures on its own pipe and exits.  Tasks write their
    values into memory mapped before the fork (:func:`_shared_empty`).  One
    task, one CPU or another live thread (which a fork would not copy) keeps
    every task on the caller.  The workers are killed unless every share has
    reported (a failed fork, a dead worker, an exception in the caller's
    share), and are all reaped.

    A trajectory failure stops only its own task.  The one raised is the
    earliest (step, realization) over all tasks, so it does not depend on
    how realizations are grouped into tasks or processes; any other failure
    wins over it, the lowest task's first, as in a run in index order.
    """
    n = 1 if threading.active_count() > 1 else min(resolve_threads(), n_batches)
    shares = [range(w * n_batches // n, (w + 1) * n_batches // n) for w in range(n)]
    children: dict[int, BinaryIO] = {}  # live pid -> results pipe
    reported = False
    try:
        for share in shares[1:]:
            results_r, results_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(results_r)
                os.close(results_w)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(results_r)
                    for results in children.values():
                        results.close()
                    with open(results_w, "wb") as out:
                        pickle.dump([(b, _portable(e)) for b, e in _run_share(task, share)], out)
                    status = 0
                finally:
                    os._exit(status)
            os.close(results_w)
            children[pid] = open(results_r, "rb")
        failures = _run_share(task, shares[0])
        for pid, results in list(children.items()):
            try:
                failures += pickle.load(results)
            except (EOFError, pickle.UnpicklingError):
                del children[pid]
                results.close()
                _, status = os.waitpid(pid, 0)
                raise EstimationError(
                    "a Monte Carlo worker process exited with status "
                    f"{os.waitstatus_to_exitcode(status)}"
                ) from None
        reported = True
    finally:
        for pid, results in children.items():
            results.close()
            if not reported:
                import signal  # only a failed call kills its workers

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    others = [(b, exc) for b, exc in failures if not _is_trajectory_failure(exc)]
    if others:
        raise min(others, key=lambda failure: failure[0])[1]
    if failures:
        raise min((exc for _, exc in failures), key=lambda exc: exc.where)


def _shared_empty(shape: tuple[int, ...]) -> Array:
    """Uninitialised float array in anonymous shared memory, visible to forked workers."""
    import mmap

    size = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * max(1, size)), count=size).reshape(shape)


def _batch_bounds(n_realizations: int) -> list[tuple[int, int]]:
    """Balanced task ranges of at most BATCH_SIZE realizations each.

    More than one task, or more than SPLIT_SIZE realizations, is rounded up
    to a multiple of the worker count, so that every worker gets the same
    number of tasks.  The tasks share out blocks of a grain (a power of two,
    at most 2^_TASK_LEVELS and the balanced width, that divides BATCH_SIZE)
    as evenly as they go, so each holds whole nodes of a pairwise tree.
    """
    n_tasks = -(-n_realizations // BATCH_SIZE)
    if n_tasks > 1 or n_realizations > SPLIT_SIZE:
        workers = resolve_threads()
        n_tasks = -(-n_tasks // workers) * workers
    balanced = max(1, n_realizations // n_tasks)
    grain = math.gcd(BATCH_SIZE, 1 << _TASK_LEVELS, 1 << balanced.bit_length() - 1)
    blocks = -(-n_realizations // grain)
    n_tasks = min(n_tasks, blocks)
    cuts = [b * blocks // n_tasks * grain for b in range(n_tasks)] + [n_realizations]
    return list(zip(cuts, cuts[1:]))


def _block_steps(m: int) -> int:
    """Steps per draw: DRAW_BLOCK normals in a BATCH_SIZE-wide task, whatever the width."""
    return max(1, DRAW_BLOCK // (BATCH_SIZE * m))


def _steps_for(h: float, horizon: float) -> int:
    """Step count n with n * h equal to the horizon, to a relative 1e-9, for a
    step size and a horizon that have passed their rules."""
    n = round(horizon / h)
    if abs(n * h - horizon) > 1e-9 * abs(horizon):
        raise ArgumentError(f"horizon {horizon} is not an integer multiple of h={h}")
    return n


class _BatchState:
    """Per-batch ensemble state; ``step`` is the kernel its first advance builds."""

    def __init__(
        self,
        z0: PhaseState,
        plan: SeedPlan,
        lo: int,
        hi: int,
        generators: list[np.random.Generator] | None = None,
    ) -> None:
        self.lo, self.hi = lo, hi
        if generators is None:
            words = _seed_words(_derive_seeds(plan, lo, hi))
            generators = [generator_for(_SeedWords(row)) for row in words]
        self.generators = generators
        self._buffer = np.empty(0)
        self.step: Callable[[Array, Array, Array], tuple] | None = None
        self.p = np.tile(z0.p, (hi - lo, 1))
        self.q = np.tile(z0.q, (hi - lo, 1))

    def draw(self, n_steps: int, m: int, h: float) -> Array:
        """N(0, h) increments of shape (size, n_steps, m), filled in place.

        The result is a view of a buffer that the next call overwrites.
        Unscaled normals (h = 1) skip the multiply, which would not change them.
        """
        size = (self.hi - self.lo) * n_steps * m
        if self._buffer.size < size:
            self._buffer = np.empty(size)
        block = self._buffer[:size].reshape(self.hi - self.lo, n_steps, m)
        for row, gen in zip(block, self.generators):
            gen.standard_normal(out=row)
        if h != 1.0:
            block *= math.sqrt(h)
        return block


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
    """Advance a task through one chunk of increments, on the kernel of (scheme, h).

    With psi_rows, psi_rows[j] after step s is written to out[s, j], one
    value per realization of the task.  The stepping loop names a failing
    step k; a refused state is raised as ``realization i, step k: <reason>``.
    """
    if state.step is None:
        state.step = _KERNELS[scheme](model, h)
    # Sigma dw[:, s, :] for every step s, step-major: shape (n_steps, R, d).
    kicks = _matvec(model.noise, dw.transpose(1, 0, 2))
    try:
        for s, (p, q) in enumerate(_iterate(state.step, state.p, state.q, kicks, first_step)):
            state.p, state.q = p, q
            for j, psi in enumerate(psi_rows or ()):
                out[s, j] = _on_rows(psi(p, q), p, (), "psi")
    except Error as exc:
        if exc.row is None or exc.step is None:
            raise
        index = state.lo + exc.row
        kind = 0 if isinstance(exc, StepSizeError) else 1
        raise EstimationError(f"realization {index}, {exc}", where=(exc.step, kind, index)) from exc


def _validate_run(
    model: LangevinModel, scheme: str, z0: PhaseState, step_sizes: Sequence[float],
    T: float | None, n_realizations: int, plan: SeedPlan, refine: int | None = None,
) -> tuple[list[tuple[float, int]], int]:
    """The (h, n_steps) chains, each to the horizon T or one step if T is None, and
    the realization count of a call; every argument is checked once, before any
    fork.  The callers that take a horizon pass it through :func:`_time`."""
    if scheme not in _KERNELS:
        raise ArgumentError(f"unknown scheme {scheme!r}; expected one of {sorted(_KERNELS)}")
    _check_state(model, z0)
    n_realizations = _count(n_realizations, 2, "need at least 2 realizations")
    if not isinstance(plan, SeedPlan):
        raise ArgumentError("plan must be a SeedPlan")
    if refine is not None:
        _count(refine, 2, "refinement factor must be at least 2")
    hs = [_step_size(h) for h in step_sizes]
    if not hs:
        raise ArgumentError("need at least one step size")
    if scheme == "gf2":
        for h in hs:
            _exp_vt(model.friction, h)  # the kernel's e^{vh}, refused before any fork
    return [(h, 1 if T is None else _steps_for(h, T)) for h in hs], n_realizations


def _endpoint_values(
    model: LangevinModel,
    scheme: str,
    z0: PhaseState,
    chains: Sequence[tuple[float, int]],
    n_realizations: int,
    plan: SeedPlan,
    refine: int | None,
    endpoints: Sequence[Callable[..., Array]],
) -> list[list[EstimatorResult]]:
    """Mean and standard error of each endpoint, for each (h, n_steps) chain.

    With ``refine=None`` a chain runs n_steps steps of h and the endpoints
    receive its final batch state.  Otherwise a fine chain at step h/refine
    runs beside it on the same Brownian path: coarse increments are exact
    sums of refine consecutive fine increments (common random numbers), and
    the endpoints receive the coarse and fine final states.  Fine step k of
    every chain uses normal k of its realization's stream.

    A failing realization stops only its own chain in its task.  The error
    raised is the first failing chain's, in ``chains`` order, at its earliest
    coarse step over all tasks (fine steps before the coarse one), then at its
    earliest (step, realization): the order one task runs them in, so the
    kernel width does not pick the error.  Returns results indexed [chain][endpoint].
    """
    m = model.noise_dim
    factor = refine or 1
    bounds = _batch_bounds(n_realizations)
    chunk = max(1, _block_steps(m) // factor)
    longest = max(n_steps for _, n_steps in chains)
    values = _shared_empty((len(chains), len(endpoints), n_realizations))

    def task(b: int) -> None:
        lo, hi = bounds[b]
        source = _BatchState(z0, plan, lo, hi)
        n_states = 1 if refine is None else 2
        runs = {
            j: [_BatchState(z0, plan, lo, hi, source.generators) for _ in range(n_states)]
            for j in range(len(chains))
        }
        failed: dict[int, EstimationError] = {}
        for done in range(0, longest, chunk):
            length = min(chunk, longest - done)
            z = source.draw(length * factor, m, 1.0)
            for j, (h, n_steps) in enumerate(chains):
                for at in range(done, min(done + length, n_steps)):
                    if j not in runs:
                        break
                    first = (at - done) * factor
                    dw = z[:, first: first + factor] * math.sqrt(h / factor)
                    coarse = refine is None
                    try:
                        if not coarse:
                            _advance_chunk(model, scheme, runs[j][1], h / refine, dw, at * refine)
                            dw = dw.reshape(hi - lo, 1, refine, m).sum(axis=2)
                            coarse = True
                        _advance_chunk(model, scheme, runs[j][0], h, dw, at)
                    except EstimationError as exc:
                        if exc.where is None:
                            raise
                        # (chain, coarse step, 0 fine or 1 coarse, step, kind, realization)
                        # ranks failures as one task runs them; the driver strips the first three.
                        where = (j, at, int(coarse), *exc.where)
                        failed[j] = EstimationError(str(exc), where=where)
                        del runs[j]
        for j, states in runs.items():
            for k, endpoint in enumerate(endpoints):
                values[j, k, lo:hi] = _on_rows(endpoint(*states), states[0].p, (), "psi")
        if failed:
            raise failed[min(failed)]

    try:
        _map_batches(task, len(bounds))
    except EstimationError as exc:
        if exc.where is None:
            raise
        raise EstimationError(str(exc), where=exc.where[3:]) from None
    if not np.isfinite(values).all():
        j, k, i = np.argwhere(~np.isfinite(values))[0]
        raise EvaluationError(f"psi {k} is non-finite at realization {i}, h={chains[j][0]}")
    return [[mean_and_se(row) for row in rows] for rows in values]


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

    The result is bit-identical across runs and kernel widths; see the module
    docstring for the contract.  A trajectory leaving the numeric domain
    raises EstimationError naming the realization index, the step and h.
    """
    chains, n_realizations = _validate_run(model, scheme, z0, [h], _time(T), n_realizations, plan)

    def endpoint(state: _BatchState) -> Array:
        return psi(state.p, state.q)

    [[result]] = _endpoint_values(
        model, scheme, z0, chains, n_realizations, plan, None, [endpoint]
    )
    return result


def weak_error_mc(
    model: LangevinModel,
    psis: Sequence[Callable[[Array, Array], Array]],
    z0: PhaseState,
    step_sizes: Sequence[float],
    T: float,
    n_realizations: int,
    refine: int,
    plan: SeedPlan,
) -> list[list[EstimatorResult]]:
    """Coupled estimates of E psi(coarse endpoint) - E psi(fine endpoint).

    For each step size h the fine chain runs at step h/refine on the same
    Brownian path; coarse increments are exact sums of refine consecutive
    fine increments (common random numbers).  Every psi is evaluated on the
    same endpoints.  Returns results indexed [h][psi].
    """
    psis = _test_functions(psis)
    chains, n_realizations = _validate_run(
        model, "gf2", z0, step_sizes, _time(T), n_realizations, plan, refine
    )

    def gap(psi: Callable[[Array, Array], Array]) -> Callable[..., Array]:
        return lambda coarse, fine: np.subtract(
            psi(coarse.p, coarse.q), psi(fine.p, fine.q), dtype=float
        )

    endpoints = [gap(psi) for psi in psis]
    return _endpoint_values(model, "gf2", z0, chains, n_realizations, plan, int(refine), endpoints)


def one_step_ms_gap(
    model: LangevinModel,
    z0: PhaseState,
    step_sizes: Sequence[float],
    refine: int,
    n_realizations: int,
    plan: SeedPlan,
) -> list[EstimatorResult]:
    """E ||Z(one coarse step) - Z(refine fine steps)||^2 on a shared path, per h.

    The local mean-square probe behind third-order step-error measurements.
    """
    chains, n_realizations = _validate_run(
        model, "gf2", z0, step_sizes, None, n_realizations, plan, refine
    )

    def gap(coarse: _BatchState, fine: _BatchState) -> Array:
        return np.sum((coarse.p - fine.p) ** 2 + (coarse.q - fine.q) ** 2, axis=1)

    results = _endpoint_values(model, "gf2", z0, chains, n_realizations, plan, int(refine), [gap])
    return [row[0] for row in results]


def mc_step_means(
    model: LangevinModel,
    psis: Sequence[Callable[[Array, Array], Array]],
    z0: PhaseState,
    h: float,
    n_steps: int,
    n_realizations: int,
    plan: SeedPlan,
) -> tuple[Array, Array]:
    """Ensemble mean of each test function after every step.

    Returns (times, means) with times of shape (n_steps+1,) and means of
    shape (len(psis), n_steps+1); column 0 is the point mass at z0.  A task
    holds _STAGE steps' psi values at a time and reduces them to the level-L
    nodes of each step's tree, which it writes to one buffer shared with the
    workers: 8 k n_steps ceil(R / 2^L) bytes for k test functions and R
    realizations, L <= 8.  The caller joins those subtrees at the aligned
    task bounds.
    """
    psis = _test_functions(psis)
    [(h, _)], n_realizations = _validate_run(model, "gf2", z0, [h], None, n_realizations, plan)
    n_steps = _count(n_steps, 0, "step count must be nonnegative")
    k = len(psis)
    means = np.empty((k, n_steps + 1))
    for j, psi in enumerate(psis):
        means[j, :1] = _on_rows(psi(z0.p[None], z0.q[None]), z0.p[None], (), "psi")
    bounds = _batch_bounds(n_realizations)
    chunk = _block_steps(model.noise_dim)
    # Every task bound is a multiple of the grain, so each task builds the
    # tree's level-L nodes of its own realizations and the caller the rest.
    grain = math.gcd(1 << _TASK_LEVELS, *(lo for lo, _ in bounds))
    levels = grain.bit_length() - 1
    nodes = _shared_empty((n_steps, k, -(-n_realizations // grain)))

    def task(b: int) -> None:
        lo, hi = bounds[b]
        state = _BatchState(z0, plan, lo, hi)
        staged = np.empty((_STAGE, k, hi - lo))
        for done in range(0, n_steps, chunk):
            dw = state.draw(min(chunk, n_steps - done), model.noise_dim, h)
            for s in range(done, done + dw.shape[1], _STAGE):
                rows = dw[:, s - done: s - done + _STAGE]
                _advance_chunk(model, "gf2", state, h, rows, s, psis, staged)
                own = pairwise_sum(staged[: rows.shape[1]], axis=2, levels=levels)
                nodes[s: s + rows.shape[1], :, lo // grain: -(-hi // grain)] = own

    _map_batches(task, len(bounds))
    for start in range(0, n_steps, chunk):
        sums = pairwise_sum(nodes[start: start + chunk], axis=2)
        means[:, start + 1: start + 1 + len(sums)] = sums.T / n_realizations
    if not np.isfinite(means).all():
        s, j = np.argwhere(~np.isfinite(means.T))[0]
        raise EvaluationError(f"the mean of psi {j} is non-finite at step {s}")
    return h * np.arange(n_steps + 1), means
