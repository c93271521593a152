"""In-memory span tracing around the public calls into each layer.

The traced run installs wrappers on class and module attributes (see
:data:`LAYER_CALLS`), records one span per call — name, start, end,
parent span, round, an optional work count and whether the call
succeeded — and removes every wrapper afterwards.  Nothing inside
``src/`` is edited: the spans sit at the layer boundaries, seen from the
caller.

A span nested in a span of the *same* name is not recorded (the outer
span already covers it): ``EventDrivenVodSimulator.step`` calling
``VodSimulator.step`` is one engine step.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span record fields, in list order.
NAME, START, END, PARENT, ROUND, COUNT, OK = range(7)


def _size(value: Any) -> int:
    return int(value.size) if hasattr(value, "size") else len(value)


def _tuple_head_size(result, args, kwargs) -> int:
    """Work count of calls returning ``(array, ...)`` tuples or lists."""
    if result is None:
        return 0
    if isinstance(result, tuple):
        return _size(result[0])
    return len(result)


def _entered(result, args, kwargs) -> int:
    """Entries of one ``SwarmRegistry.enter_batch(video_ids, box_ids, time)`` call."""
    return _size(args[1])


def _one(result, args, kwargs) -> int:
    return 1


def _deficit_rows(result, args, kwargs) -> int:
    rows = kwargs.get("rows")
    return 0 if rows is None else _size(rows)


def _payload_bytes(result, args, kwargs) -> int:
    return len(result.payload)


#: (module, owner attribute or "" for a module function, attribute, span
#: name, work count).  Span names are the layer names the per-layer
#: metrics report under.
LAYER_CALLS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.sim.engine", "VodSimulator", "step", "sim.engine.step", None),
    ("repro.events.engine", "EventDrivenVodSimulator", "step", "sim.engine.step", None),
    ("repro.scenarios.phases", "PhasedWorkload", "demand_arrays_for_round",
     "workloads.demand", _tuple_head_size),
    ("repro.scenarios.phases", "PhasedWorkload", "demands_for_round",
     "workloads.demand", _tuple_head_size),
    ("repro.sim.engine", "", "admission_mask", "sim.rules.admission", None),
    ("repro.sim.rules", "", "admission_mask", "sim.rules.admission", None),
    ("repro.sim.engine", "", "detect_playback_starts", "sim.rules.playback", None),
    ("repro.sim.swarm", "SwarmRegistry", "enter", "sim.swarm.enter", _one),
    ("repro.sim.swarm", "SwarmRegistry", "enter_batch", "sim.swarm.enter", _entered),
    ("repro.core.preloading", "PreloadingScheduler", "on_demand_arrays",
     "core.preloading.schedule", _tuple_head_size),
    ("repro.core.preloading", "PreloadingScheduler", "on_demands_batch",
     "core.preloading.schedule", _tuple_head_size),
    ("repro.core.preloading", "PreloadingScheduler", "on_demand",
     "core.preloading.schedule", _tuple_head_size),
    ("repro.core.preloading", "PreloadingScheduler", "due_arrays",
     "core.preloading.schedule", _tuple_head_size),
    ("repro.core.preloading", "PreloadingScheduler", "requests_due",
     "core.preloading.schedule", _tuple_head_size),
    ("repro.sim.scheduler", "ActiveRequestPool", "drop_expired_keeping",
     "sim.scheduler.pool", None),
    ("repro.sim.scheduler", "ActiveRequestPool", "extend_from_arrays",
     "sim.scheduler.pool", None),
    ("repro.sim.scheduler", "ActiveRequestPool", "add", "sim.scheduler.pool", None),
    ("repro.sim.scheduler", "ActiveRequestPool", "request_set", "sim.scheduler.pool", None),
    ("repro.sim.scheduler", "ActiveRequestPool", "assigned_snapshot",
     "sim.scheduler.pool", None),
    ("repro.sim.scheduler", "ActiveRequestPool", "apply_matching",
     "sim.scheduler.pool", None),
    ("repro.core.matching", "PossessionIndex", "evict_before",
     "core.matching.possession", None),
    ("repro.core.matching", "PossessionIndex", "record_downloads",
     "core.matching.possession", None),
    ("repro.core.matching", "PossessionIndex", "record_download",
     "core.matching.possession", None),
    ("repro.core.matching", "PossessionIndex", "adjacency_for",
     "core.matching.adjacency", None),
    ("repro.core.matching", "PossessionIndex", "adjacency_delta_for",
     "core.matching.adjacency", _deficit_rows),
    ("repro.core.matching", "ConnectionMatcher", "match", "core.matching.match", None),
    ("repro.core.matching", "", "hopcroft_karp_matching", "flow.hk", None),
    ("repro.core.matching", "", "repair_matching", "flow.repair", None),
    ("repro.core.matching", "", "solve_b_matching", "flow.dinic", None),
    ("repro.api.session", "VodSession", "snapshot", "api.session.snapshot",
     _payload_bytes),
    ("repro.api.session", "VodSession", "restore", "api.session.restore", None),
    ("repro.events.queue", "EventQueue", "push", "events.queue", None),
    ("repro.events.queue", "EventQueue", "drain_until", "events.queue", None),
    ("repro.faults.plan", "FaultDriver", "apply", "faults.driver", None),
    ("repro.api.system", "VodSystem", "allocate", "api.system.allocate", None),
    ("repro.api.system", "VodSystem", "build_simulator", "api.system.build_simulator",
     None),
)

#: Span names whose call result is the success flag (``repair_matching``
#: returns ``False`` when some request has no augmenting path).
RESULT_IS_OK = frozenset({"flow.repair"})


class Tracer:
    """Records spans while :attr:`active`; wrappers live between install/remove."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.active = False
        #: Round stamped on new spans (the benchmark's round counter).
        self.round = -1
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- span recording ------------------------------------------------- #
    def _open(self, name: str) -> int:
        stack = self._stack
        index = len(self.spans)
        parent = stack[-1] if stack else -1
        self.spans.append([name, 0, 0, parent, self.round, 0, True])
        stack.append(index)
        self.spans[index][START] = time.perf_counter_ns()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self._stack.pop()

    def _skip(self, name: str) -> bool:
        stack = self._stack
        return not self.active or bool(stack and self.spans[stack[-1]][NAME] == name)

    def _function_wrapper(self, fn: Callable, name: str, count: Optional[Callable]):
        tracer = self
        result_is_ok = name in RESULT_IS_OK

        def wrapper(*args, **kwargs):
            if tracer._skip(name):
                return fn(*args, **kwargs)
            index = tracer._open(name)
            span = tracer.spans[index]
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[OK] = False
                raise
            finally:
                tracer._close(index)
            if count is not None:
                span[COUNT] = count(result, args, kwargs)
            if result_is_ok:
                span[OK] = bool(result)
            return result

        return wrapper

    def _generator_wrapper(self, fn: Callable, name: str):
        """Time each ``next()`` on the generator, not the consumer's loop body."""
        tracer = self

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                if tracer._skip(name):
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                else:
                    index = tracer._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                yield item

        return wrapper

    # -- wrapper lifetime ----------------------------------------------- #
    def install(self) -> None:
        """Wrap every attribute in :data:`LAYER_CALLS`."""
        for module_name, owner_name, attr, name, count in LAYER_CALLS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(
                    self._function_wrapper(original.__func__, name, count)
                )
            elif inspect.isgeneratorfunction(original):
                replacement = self._generator_wrapper(original, name)
            else:
                replacement = self._function_wrapper(original, name, count)
            setattr(owner, attr, replacement)
            self._installed.append((owner, attr, original))

    def remove(self) -> List[str]:
        """Put every original back; returns the attributes still wrapped."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._installed
            if vars(owner)[attr] is not original
        ]
        self._installed.clear()
        return left

    # -- analysis -------------------------------------------------------- #
    def self_times_ns(self) -> List[int]:
        """Per span: its duration minus the time its direct children cover."""
        spans = self.spans
        own = [span[END] - span[START] for span in spans]
        for span in spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def write_jsonl(self, path) -> None:
        """Write the spans out as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "start_ns": span[START],
                            "end_ns": span[END],
                            "parent": span[PARENT],
                            "round": span[ROUND],
                            "count": span[COUNT],
                            "ok": span[OK],
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def layer_totals(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Aggregate spans by name: calls, self ms, total ms, counts, failures."""
    totals: Dict[str, Dict[str, float]] = {}
    for span, own in zip(tracer.spans, tracer.self_times_ns()):
        entry = totals.setdefault(
            span[NAME],
            {"calls": 0, "self_ms": 0.0, "total_ms": 0.0, "count": 0,
             "failed": 0, "failed_total_ms": 0.0},
        )
        duration = (span[END] - span[START]) / 1e6
        entry["calls"] += 1
        entry["self_ms"] += own / 1e6
        entry["total_ms"] += duration
        entry["count"] += span[COUNT]
        if not span[OK]:
            entry["failed"] += 1
            entry["failed_total_ms"] += duration
    return totals
