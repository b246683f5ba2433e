"""Per-layer tracing for the traced benchmark run.

The benchmark never edits the program.  A traced run instead wraps the
public functions of each layer from the outside (the name the caller looks
up, e.g. ``repro.core.runtime.pick_replica_machines``) for the duration of
one replay, and restores them afterwards so untraced replays in the same
process run the original code.

Three kinds of wrapper:

* ``span``: coarse calls.  Every call is kept in memory as a span record
  ``(name, start, end, parent)`` and written out when the run ends.
* ``timed``: frequent calls.  Calls and inclusive time are accumulated per
  name; no record per call is kept.
* ``counted``: hot calls (millions per replay).  Only a call counter.

Spans and timed calls share one call stack, so each layer's *self time*
is its inclusive time minus the time of the wrapped calls made inside it.
"""

from __future__ import annotations

import inspect
import json
import os
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Optional


class LayerTrace:
    """Wrappers, counters and spans of one traced run (one ``run_id``)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = defaultdict(float)
        #: ``(name, start, end, parent_index)``; parent -1 is the root.
        self.spans: list[tuple[str, float, float, int]] = []
        # One frame per active wrapped call: [child seconds, span index].
        self._stack: list[list[Any]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def _install(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, property):
            wrapped: Any = property(make(original.fget))
        elif isinstance(original, classmethod):
            wrapped = classmethod(make(original.__func__))
        elif isinstance(original, staticmethod):
            wrapped = staticmethod(make(original.__func__))
        else:
            wrapped = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def counted(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` under ``name`` (hot calls)."""
        calls = self.calls

        def make(fn: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        self._install(owner, attr, make)

    def timed(
        self,
        owner: Any,
        attr: str,
        name: str,
        keep_spans: bool = False,
        after: Optional[Callable[[Any, tuple, dict], None]] = None,
    ) -> None:
        """Count and time calls of ``owner.attr`` under ``name``.

        ``keep_spans`` also keeps one span record per call.  ``after`` is
        called with ``(result, args, kwargs)`` once the call returned, to
        read work counts off the call (rows out, bytes written...).
        """
        stack = self._stack
        spans = self.spans
        calls = self.calls
        seconds = self.seconds
        self_seconds = self.self_seconds

        def make(fn: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                parent = stack[-1] if stack else None
                parent_span = parent[1] if parent is not None else -1
                frame = [0.0, parent_span]
                if keep_spans:
                    frame[1] = len(spans)
                    spans.append((name, 0.0, 0.0, parent_span))
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    elapsed = end - start
                    calls[name] += 1
                    seconds[name] += elapsed
                    self_seconds[name] += elapsed - frame[0]
                    if parent is not None:
                        parent[0] += elapsed
                    if keep_spans:
                        spans[frame[1]] = (name, start, end, parent_span)
                if after is not None:
                    after(result, args, kwargs)
                return result
            return wrapper

        self._install(owner, attr, make)

    def span(self, owner: Any, attr: str, name: str, **kwargs: Any) -> None:
        """A coarse call: timed, with a span record per call."""
        self.timed(owner, attr, name, keep_spans=True, **kwargs)

    # ------------------------------------------------------------------
    # Reading the trace
    # ------------------------------------------------------------------
    def add(self, name: str, value: float) -> None:
        """Accumulate a work count read from a result (not a call count)."""
        self.values[name] += value

    def layer_self_seconds(self, prefix: str) -> float:
        """Self time summed over every wrapped name under ``prefix.``."""
        return sum(
            value for name, value in self.self_seconds.items()
            if name.startswith(prefix + ".")
        )

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines (one object per span)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id,
                    "id": index,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                }) + "\n")


#: Layers whose self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = ("engine", "scheduler", "shuffle", "cache_worker", "gateway", "sql")

#: Ledger methods the runtime calls; every one counts as an audit call.
_LEDGER_METHODS = (
    "conn_registered", "conn_released", "cache_written", "cache_spilled",
    "cache_released", "cache_dropped_all", "cache_replica_written",
    "cache_replica_released", "reconcile_network", "reconcile_cache_worker",
    "reconcile_executors", "reconcile",
)


def instrument(trace: LayerTrace) -> None:
    """Wrap the public entry points of every layer (see README.md)."""
    from repro.api import simulation, swift_policy
    from repro.audit.ledger import ResourceLedger
    from repro.core import runtime
    from repro.core.cache_worker import CacheWorker
    from repro.core.scheduler import ResourceScheduler
    from repro.core.shuffle import ShuffleCostModel, ShuffleModeController
    from repro.service.gateway import JobGateway
    from repro.sim.cluster import Machine
    from repro.sim.engine import Simulator
    from repro.sql import dispatch
    from repro.sql.batch import ColumnBatch, ColumnTable
    from repro.sql.columnar import ColumnarExecutor, walk_ops

    # sim.engine
    for attr in ("schedule", "schedule_at", "schedule_batch"):
        trace.timed(Simulator, attr, "engine.schedule")
    # core.runtime; submit_all calls not made by Runtime.submit come from
    # the gateway's dispatcher.
    trace.span(runtime.SwiftRuntime, "run", "runtime.run")
    trace.counted(runtime.SwiftRuntime, "submit_all", "runtime.submit_all")
    trace.counted(simulation.Runtime, "submit", "api.runtime_submit")
    # core.partition (the partitioner of the default Swift policy)
    trace.timed(type(swift_policy().partitioner), "partition", "partition.partition")
    # core.scheduler
    trace.timed(ResourceScheduler, "request", "scheduler.request")
    trace.timed(
        ResourceScheduler, "schedule", "scheduler.schedule",
        after=lambda grants, args, kwargs: trace.add("scheduler.grants", len(grants)),
    )
    trace.timed(ResourceScheduler, "pool_pressure", "scheduler.pool_pressure")
    trace.timed(runtime, "pick_replica_machines", "scheduler.pick_replica")
    trace.timed(runtime, "pick_locality_machines", "scheduler.pick_locality")
    # sim.cluster: load() calls busy_count(), both count.
    trace.counted(Machine, "load", "cluster.machine_load")
    trace.counted(Machine, "busy_count", "cluster.machine_load")
    # core.shuffle
    trace.timed(ShuffleCostModel, "edge_cost", "shuffle.edge_cost")
    trace.timed(ShuffleModeController, "resolve", "shuffle.resolve")
    trace.counted(runtime, "plan_partition_merge", "shuffle.merge")
    # core.cache_worker
    trace.timed(
        CacheWorker, "write", "cache_worker.write",
        after=lambda result, args, kwargs: trace.add(
            "cache_worker.write.bytes",
            kwargs["n_bytes"] if "n_bytes" in kwargs else args[3],
        ),
    )
    trace.timed(CacheWorker, "read", "cache_worker.read")
    trace.counted(CacheWorker, "consume", "cache_worker.consume")
    trace.timed(CacheWorker, "release_job", "cache_worker.release_job")
    trace.counted(CacheWorker, "memory_used", "cache_worker.memory_used")
    # core.failure
    trace.span(runtime, "plan_recovery", "failure.plan_recovery")
    # audit.ledger
    for attr in _LEDGER_METHODS:
        name = "audit.reconcile" if attr == "reconcile" else f"audit.{attr}"
        trace.timed(ResourceLedger, attr, name, keep_spans=attr == "reconcile")
    # service.gateway (its on_job_done hook is wrapped per instance)
    trace.span(JobGateway, "submit_trace", "gateway.submit_trace")
    # sql.parser / sql.logical / sql.columnar / sql.batch / sql.datagen

    def operator_rows(rows: Any, args: tuple, kwargs: dict) -> None:
        for op in walk_ops(args[1]):
            trace.add(f"sql.{op.kind}.rows", op.rows_out)

    trace.span(dispatch, "parse", "sql.parse")
    trace.span(dispatch, "plan_statement", "sql.plan")
    trace.span(ColumnarExecutor, "compile", "sql.compile")
    trace.span(ColumnarExecutor, "run", "sql.run", after=operator_rows)
    trace.timed(ColumnBatch, "to_rows", "sql.to_rows")
    trace.span(ColumnTable, "from_rows", "datagen.encode")
