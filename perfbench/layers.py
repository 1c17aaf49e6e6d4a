"""Layer spans for the traced benchmark run.

The traced run wraps the public functions of each layer of the program
from outside: :func:`install` swaps a timing wrapper into the module or
class attribute the program calls through, and :meth:`SpanRecorder.
uninstall` puts the originals back.  No file of the program is edited,
and the wrappers exist only while the traced rounds run.

Every wrapped call records one span (name, start, end, parent).  Spans
live in flat in-memory arrays until the run ends; :meth:`SpanRecorder.
save` writes them out.  A layer's self time is its spans' duration
minus the time covered by their child spans.

A target the program no longer defines is skipped and counted in
``tracing.unwrapped``, so a refactor of the program shows up in the
trace instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from time import perf_counter

import numpy as np

#: (span name, module, attribute path, counter function or None).
#: Module-level functions that other program modules import by name are
#: listed once per module that calls them, under the same span name.
#: A counter function maps (args, result) to {counter name: amount}.
TARGETS = (
    ("faults.campaign.golden", "repro.faults.campaign", "run_golden", None),
    ("faults.campaign.golden", "repro.faults.parallel", "run_golden", None),
    ("faults.campaign.plan", "repro.faults.campaign", "prune_masked_trials",
     lambda args, plan: {
         "faults.campaign.planned_trials": len(plan.trials),
         "faults.campaign.trials_pruned": plan.n_pruned,
     }),
    ("faults.campaign.trial", "repro.faults.campaign", "run_trial", None),
    ("faults.campaign.trial", "repro.faults.parallel", "run_trial", None),
    ("faults.campaign.inject_draw", "repro.faults.campaign",
     "make_injector", None),
    ("faults.campaign.classify", "repro.faults.campaign",
     "classify_trial", None),
    ("ir.interp.run", "repro.ir.interp", "Interpreter.run",
     lambda args, result: {"ir.interp.instructions": result.instructions}),
    ("analysis.masking.analyze", "repro.analysis.masking",
     "analyze_masking", None),
    ("faults.parallel.parent", "repro.faults.parallel",
     "run_campaign_parallel", None),
    ("perf.pool.map", "repro.perf.pool", "WarmPool.map",
     lambda args, result: {"perf.pool.chunks": len(args[2])}),
    ("service.ingest.produce", "repro.service.ingest",
     "ShardIngest.produce", None),
    ("service.ingest.source_row", "repro.service.ingest",
     "ReplaySource.row", None),
    ("service.ingest.assemble", "repro.service.ingest",
     "ShardIngest.assemble", None),
    ("service.shard.step_tick", "repro.service.shard",
     "ShardScorer.step_tick", None),
    ("detect.fleet.step", "repro.detect.fleet", "FleetScorer.step",
     lambda args, step: {"detect.fleet.rows_scored": step.n_scored}),
    ("service.supervisor.apply", "repro.service.supervisor",
     "FleetSupervisor.apply", None),
    ("service.supervisor.checkpoint", "repro.service.supervisor",
     "FleetSupervisor.checkpoint", None),
    ("service.shard.snapshot", "repro.service.shard",
     "ShardScorer.snapshot", None),
    ("service.metrics.record", "repro.service.metrics",
     "DecisionLatencyTracker.record", None),
)

#: Span names in report order (each reports self time, share, calls).
LAYERS = tuple(dict.fromkeys(name for name, _, _, _ in TARGETS))

#: Counters the counter functions above can produce.
COUNTERS = (
    "faults.campaign.planned_trials",
    "faults.campaign.trials_pruned",
    "ir.interp.instructions",
    "perf.pool.chunks",
    "detect.fleet.rows_scored",
)


class SpanRecorder:
    """Collects spans from the wrappers :meth:`install` puts in place."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.unwrapped: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # A pool forked while wrappers are installed inherits them; its
        # spans would be lost with the child, so children record nothing.
        self._enabled = True
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self._enabled = False

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, count):
        name_id = self._name_id(name)
        stack = self._stack
        span_name, parent = self.span_name, self.parent
        start, end = self.start, self.end
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._enabled:
                return fn(*args, **kwargs)
            index = len(span_name)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if count is not None:
                for key, amount in count(args, result).items():
                    counters[key] += amount
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target of :data:`TARGETS` that the program defines."""
        for name, module_name, path, count in TARGETS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = (
                vars(owner).get(attr) if owner is not None else None
            )
            if not callable(original):
                self.unwrapped.append(f"{module_name}.{path}")
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        """Put back every original the wrappers replaced."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name ids, parent indices, durations) of every recorded span."""
        names = np.array(self.span_name, dtype=np.int32)
        parents = np.array(self.parent, dtype=np.int32)
        duration = (
            np.array(self.end, dtype=np.float64)
            - np.array(self.start, dtype=np.float64)
        )
        return names, parents, duration

    def layer_times(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (total duration, self time, calls)."""
        names, parents, duration = self.arrays()
        n = len(duration)
        child = np.zeros(n)
        has_parent = parents >= 0
        if has_parent.any():
            child = np.bincount(
                parents[has_parent], weights=duration[has_parent],
                minlength=n,
            )
        self_time = duration - child
        k = len(self.names)
        total = np.bincount(names, weights=duration, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        calls = np.bincount(names, minlength=k)
        return {
            name: (float(total[i]), float(own[i]), int(calls[i]))
            for i, name in enumerate(self.names)
        }

    def child_duration(self, parent_name: str, child_name: str) -> float:
        """Summed duration of ``child_name`` spans directly under
        ``parent_name`` spans."""
        if parent_name not in self._name_ids:
            return 0.0
        names, parents, duration = self.arrays()
        parent_id = self._name_ids[parent_name]
        child_id = self._name_ids.get(child_name, -1)
        under = parents >= 0
        under[under] = names[parents[under]] == parent_id
        return float(duration[under & (names == child_id)].sum())

    def save(self, path) -> None:
        """Write every span (name, start, end, parent) to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
        )
