"""Spans and counters for one traced repetition, applied from outside the package.

:class:`Tracer` replaces public functions of ``langevin_gf`` with timing
wrappers for the duration of a ``with tracer.installed():`` block and puts
the originals back afterwards; no file of the package changes.  Every
reference the package holds to a wrapped function is replaced, including
the ones captured in module-level dicts such as ``mc._STEP_FUNCTIONS`` or
``observables.TEST_FUNCTIONS``, so internal calls are traced too.

A span's self time is its duration minus the durations of the spans it
directly encloses on the same thread.  Each thread keeps its own stack and
tables, so the two pool workers of the Monte Carlo engine are accounted
separately and merged at the end.  Private helpers (``_gf2_batch_step``,
``_gauss_grid``, ...) get no span of their own: their time is self time of
the public caller.  Three private hooks of ``mc`` are wrapped because they
are the only place the work is visible: ``_map_batches`` (pool tasks, the
``mc.kernel`` span), ``_BatchState.draw`` (normal draws) and
``_advance_chunk`` (realization-steps, counted without a span).
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Iterator

import numpy as np

# Per-layer metrics every traced run reports, in order, with their units.
# A layer a workload never reaches reads 0.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("models.force.calls", "count"),
    ("models.force.elements", "count"),
    ("models.force.self_s", "s"),
    ("models.force_jacobian.calls", "count"),
    ("models.force_jacobian.self_s", "s"),
    ("models.eval_model.calls", "count"),
    ("models.eval_model.self_s", "s"),
    ("models.force_third.calls", "count"),
    ("mc.realization_steps", "count"),
    ("mc.kernel.self_s", "s"),
    ("mc.kernel.ns_per_rstep", "ns"),
    ("mc.generators_created", "count"),
    ("mc.seed.self_s", "s"),
    ("mc.normals_drawn", "count"),
    ("mc.draw.self_s", "s"),
    ("mc.draw.ns_per_normal", "ns"),
    ("mc.pairwise_sum.calls", "count"),
    ("mc.pairwise_sum.elements", "count"),
    ("mc.pairwise_sum.self_s", "s"),
    ("mc.pool.workers", "count"),
    ("mc.pool.tasks", "count"),
    ("mc.pool.busy_s", "s"),
    ("mc.pool.efficiency", "ratio"),
    ("mc.pool.scaling", "ratio"),
    ("observables.psi.calls", "count"),
    ("observables.psi.elements", "count"),
    ("observables.psi.self_s", "s"),
    ("observables.psi.ns_per_element", "ns"),
    ("integrators.propagate_gaussian_chain.calls", "count"),
    ("integrators.propagate_gaussian_chain.self_s", "s"),
    ("analysis.linear_ergodic_series.self_s", "s"),
    ("analysis.linear_ergodic_series.us_per_step", "us"),
    ("analysis.quad2d.calls", "count"),
    ("analysis.quad2d.self_s", "s"),
    ("integrators.gf2_step.calls", "count"),
    ("integrators.gf2_step.self_s", "s"),
    ("integrators.gf2_jacobian.calls", "count"),
    ("integrators.gf2_jacobian.self_s", "s"),
    ("genfun.gf2_step_augmented.calls", "count"),
    ("genfun.self_s", "s"),
    ("cli.parse.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_frac", "ratio"),
    ("trace.bit_mismatches", "count"),
)

# Public functions that get a span, as (module, attribute, span name).
_SPANS: tuple[tuple[str, str, str], ...] = (
    ("models", "eval_model", "models.eval_model"),
    ("integrators", "gf2_step", "integrators.gf2_step"),
    ("integrators", "gf2_jacobian", "integrators.gf2_jacobian"),
    ("integrators", "simulate", "integrators.simulate"),
    ("integrators", "gf2_affine_map", "integrators.gf2_affine_map"),
    ("integrators", "propagate_gaussian_chain", "integrators.propagate_gaussian_chain"),
    ("genfun", "to_augmented", "genfun.to_augmented"),
    ("genfun", "from_augmented", "genfun.from_augmented"),
    ("genfun", "gf2_step_augmented", "genfun.gf2_step_augmented"),
    ("mc", "derive_seed", "mc.seed"),
    ("mc", "mc_expectation", "mc.estimator"),
    ("mc", "weak_error_mc", "mc.estimator"),
    ("mc", "mc_step_means", "mc.estimator"),
    ("mc", "mean_and_se", "mc.estimator"),
    ("analysis", "quad2d", "analysis.quad2d"),
    ("analysis", "ergodic_reference", "analysis.ergodic_reference"),
    ("analysis", "linear_ergodic_series", "analysis.linear_ergodic_series"),
    ("analysis", "mc_weak_order", "analysis.mc_weak_order"),
    ("analysis", "weak_order_report", "analysis.weak_order_report"),
    ("analysis", "temporal_average", "analysis.temporal_average"),
    ("analysis", "conformal_defect", "analysis.conformal_defect"),
    ("cli", "main", "cli.parse"),
    ("cli", "load_config", "cli.parse"),
    ("cli", "parse_config", "cli.parse"),
)


class _ThreadTable:
    """Span stack and accumulators of one thread."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)


class Tracer:
    """Collects span self times and work counts while installed."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[_ThreadTable] = []
        self._undo: list[Callable[[], None]] = []
        self.pool_workers = 0

    # -- recording ---------------------------------------------------------

    def _table(self) -> _ThreadTable:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = _ThreadTable()
            with self._lock:
                self._tables.append(table)
        return table

    def count(self, name: str, amount: float = 1) -> None:
        self._table().counts[name] += amount

    def span(
        self,
        name: str,
        fn: Callable,
        elements: Callable[[tuple, object], int] | None = None,
    ) -> Callable:
        """Wrap fn so each call records a span and, optionally, an element count."""
        tracer = self

        def traced(*args, **kwargs):
            table = tracer._table()
            table.counts[name + ".calls"] += 1
            frame = [0.0]
            table.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                table.stack.pop()
                table.self_s[name] += duration - frame[0]
                table.total_s[name] += duration
                if table.stack:
                    table.stack[-1][0] += duration
            if elements is not None:
                table.counts[name + ".elements"] += elements(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def merged(self) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
        """Self seconds, total seconds and counts summed over all threads."""
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for src, dst in ((table.self_s, self_s), (table.total_s, total_s), (table.counts, counts)):
                for key, value in src.items():
                    dst[key] += value
        return self_s, total_s, counts

    # -- installing --------------------------------------------------------

    def _replace_everywhere(self, target: object, replacement: object) -> None:
        """Point every reference to target held by the package at replacement."""
        seen: set[int] = set()
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == "langevin_gf" or name.startswith("langevin_gf.")
        ]
        found = False
        for mod in modules:
            namespace = vars(mod)
            containers = [namespace] + [
                value for key, value in namespace.items()
                if isinstance(value, dict) and not key.startswith("__")
            ]
            for container in containers:
                if id(container) in seen:
                    continue
                seen.add(id(container))
                for key, value in list(container.items()):
                    if value is target:
                        container[key] = replacement
                        self._undo.append(
                            lambda c=container, k=key, v=target: c.__setitem__(k, v)
                        )
                        found = True
        if not found:
            raise LookupError(f"no reference to {target!r} in the package")

    def _set_attr(self, owner: object, name: str, replacement: object) -> None:
        original = getattr(owner, name)
        setattr(owner, name, replacement)
        self._undo.append(lambda: setattr(owner, name, original))

    def wrap_model(self, model):
        """Copy of a LangevinModel whose force callables record spans."""
        changes = {
            "force": self.span("models.force", model.force, _size_of_first),
            "force_jacobian": self.span("models.force_jacobian", model.force_jacobian),
        }
        if model.force_third is not None:
            changes["force_third"] = self.span("models.force_third", model.force_third)
        return dataclasses.replace(model, **changes)

    def _install(self) -> None:
        import langevin_gf.cli as cli
        import langevin_gf.mc as mc
        import langevin_gf.models as models

        package = sys.modules["langevin_gf"]
        for module, attr, name in _SPANS:
            original = getattr(getattr(package, module), attr)
            self._replace_everywhere(original, self.span(name, original))

        self._replace_everywhere(
            mc.pairwise_sum, self.span("mc.pairwise_sum", mc.pairwise_sum, _size_of_first)
        )

        generator_for = mc.generator_for

        def counted_generator(seed):
            self.count("mc.generators_created")
            return generator_for(seed)

        self._replace_everywhere(generator_for, self.span("mc.seed", counted_generator))

        sample_increments = mc.sample_increments

        def counted_increments(seed, n, m, h):
            self.count("mc.normals_drawn", n * m)
            return sample_increments(seed, n, m, h)

        self._replace_everywhere(
            sample_increments, self.span("mc.draw", counted_increments)
        )

        draw = mc._BatchState.draw

        def counted_draw(state, n_steps, m, h):
            self.count("mc.normals_drawn", (state.hi - state.lo) * n_steps * m)
            return draw(state, n_steps, m, h)

        self._set_attr(mc._BatchState, "draw", self.span("mc.draw", counted_draw))

        advance_chunk = mc._advance_chunk

        def counted_advance(model, scheme, state, h, dw, *rest):
            self.count("mc.realization_steps", dw.shape[0] * dw.shape[1])
            return advance_chunk(model, scheme, state, h, dw, *rest)

        self._replace_everywhere(advance_chunk, counted_advance)

        map_batches = mc._map_batches

        def pooled(task, n_batches):
            workers = min(mc.resolve_threads(), n_batches)
            self.pool_workers = max(self.pool_workers, workers)
            self.count("mc.pool.tasks", n_batches)
            start = time.perf_counter()
            map_batches(self.span("mc.kernel", task), n_batches)
            self.count("mc.pool.capacity_s", workers * (time.perf_counter() - start))

        self._replace_everywhere(map_batches, self.span("mc.pool", pooled))

        run = cli.run

        def counted_run(config, command):
            paths = run(config, command)
            self.count("cli.bytes_written", sum(path.stat().st_size for path in paths))
            return paths

        self._replace_everywhere(run, self.span("cli.run", counted_run))

        for spec_class in (models.LinearOscillator, models.DoubleWell):
            build = spec_class.build
            self._set_attr(
                spec_class, "build", lambda spec, build=build: self.wrap_model(build(spec))
            )

        for psi in list(sys.modules["langevin_gf.observables"].TEST_FUNCTIONS.values()):
            self._replace_everywhere(psi, self.span("observables.psi", psi, _size_of_result))

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install every wrapper for the duration of the block."""
        try:
            self._install()
            yield self
        finally:
            while self._undo:
                self._undo.pop()()

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric that the trace itself determines."""
        self_s, total_s, counts = self.merged()
        rsteps = counts["mc.realization_steps"]
        normals = counts["mc.normals_drawn"]
        psi_elements = counts["observables.psi.elements"]
        law_steps = counts["integrators.propagate_gaussian_chain.calls"]
        capacity = counts["mc.pool.capacity_s"]
        out = {
            "models.force.calls": counts["models.force.calls"],
            "models.force.elements": counts["models.force.elements"],
            "models.force.self_s": self_s["models.force"],
            "models.force_jacobian.calls": counts["models.force_jacobian.calls"],
            "models.force_jacobian.self_s": self_s["models.force_jacobian"],
            "models.eval_model.calls": counts["models.eval_model.calls"],
            "models.eval_model.self_s": self_s["models.eval_model"],
            "models.force_third.calls": counts["models.force_third.calls"],
            "mc.realization_steps": rsteps,
            "mc.kernel.self_s": self_s["mc.kernel"],
            "mc.kernel.ns_per_rstep": _ratio(self_s["mc.kernel"] * 1e9, rsteps),
            "mc.generators_created": counts["mc.generators_created"],
            "mc.seed.self_s": self_s["mc.seed"],
            "mc.normals_drawn": normals,
            "mc.draw.self_s": self_s["mc.draw"],
            "mc.draw.ns_per_normal": _ratio(self_s["mc.draw"] * 1e9, normals),
            "mc.pairwise_sum.calls": counts["mc.pairwise_sum.calls"],
            "mc.pairwise_sum.elements": counts["mc.pairwise_sum.elements"],
            "mc.pairwise_sum.self_s": self_s["mc.pairwise_sum"],
            "mc.pool.workers": self.pool_workers,
            "mc.pool.tasks": counts["mc.pool.tasks"],
            "mc.pool.busy_s": total_s["mc.kernel"],
            "mc.pool.efficiency": _ratio(total_s["mc.kernel"], capacity),
            "observables.psi.calls": counts["observables.psi.calls"],
            "observables.psi.elements": psi_elements,
            "observables.psi.self_s": self_s["observables.psi"],
            "observables.psi.ns_per_element": _ratio(
                self_s["observables.psi"] * 1e9, psi_elements
            ),
            "integrators.propagate_gaussian_chain.calls": law_steps,
            "integrators.propagate_gaussian_chain.self_s": self_s[
                "integrators.propagate_gaussian_chain"
            ],
            "analysis.linear_ergodic_series.self_s": self_s["analysis.linear_ergodic_series"],
            "analysis.linear_ergodic_series.us_per_step": _ratio(
                self_s["analysis.linear_ergodic_series"] * 1e6, law_steps
            ),
            "analysis.quad2d.calls": counts["analysis.quad2d.calls"],
            "analysis.quad2d.self_s": self_s["analysis.quad2d"],
            "integrators.gf2_step.calls": counts["integrators.gf2_step.calls"],
            "integrators.gf2_step.self_s": self_s["integrators.gf2_step"],
            "integrators.gf2_jacobian.calls": counts["integrators.gf2_jacobian.calls"],
            "integrators.gf2_jacobian.self_s": self_s["integrators.gf2_jacobian"],
            "genfun.gf2_step_augmented.calls": counts["genfun.gf2_step_augmented.calls"],
            "genfun.self_s": sum(v for k, v in self_s.items() if k.startswith("genfun.")),
            "cli.parse.self_s": self_s["cli.parse"],
            "cli.run.self_s": self_s["cli.run"],
            "cli.bytes_written": counts["cli.bytes_written"],
        }
        return {key: float(value) for key, value in out.items()}


def _size_of_first(args: tuple, result: object) -> int:
    return int(np.size(args[0]))


def _size_of_result(args: tuple, result: object) -> int:
    return int(np.size(result))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
