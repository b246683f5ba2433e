"""Repo benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_replay --seed 7 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced replays and reports the
per-layer metrics (see README.md).  Progress goes to stderr; the last line
of stdout is ``{"correct", "attempted", "failed", "metrics"}``.

``--record`` replays once and stores the output digests of that seed in
``references.json`` (the default seed gets one digest per operation,
other seeds one digest per run).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
DEFAULT_SEED = 7
#: Replays (or query rounds) per run, at least: run-to-run equality needs
#: two, and ten query rounds give at least ten samples above p90.
MIN_REPLAYS = 2
MIN_SQL_ROUNDS = 10
#: Query rounds per database generation.  The generations are spread over
#: the run, like the simulator set-ups, so ``setup_s`` (their median) does
#: not depend on how fast the host happens to be in the run's first seconds.
SQL_ROUNDS_PER_SETUP = 8


def _load_program() -> tuple[Any, Any]:
    """The benchmark's own modules, once the program's sources are importable."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perfbench: no program sources at {src}/repro")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import layers
    import workloads

    return workloads, layers


def _say(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Replay loop
# ----------------------------------------------------------------------

class Run:
    """Timed replays of one workload, with every output checked."""

    def __init__(self, wl: Any, workload: Any, seed: int, references: dict) -> None:
        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.reference = references.get(workload.name, {}).get(str(seed))
        self.setups: list[float] = []
        self.outcomes: list[Any] = []
        started = perf_counter()
        self.context = workload.prepare(seed)
        _say(f"prepared {workload.name} seed {seed} in {perf_counter() - started:.2f}s")
        # Checks made once per run count as operations too.
        self.attempted = self.context.checked
        self.failed = len(self.context.problems)
        self.problems = [f"{k}: {m}" for k, m in self.context.problems]

    def setup(self) -> Any:
        gc.collect()
        started = perf_counter()
        prepared = self.workload.setup(self.context)
        self.setups.append(perf_counter() - started)
        return prepared

    def replay(self, prepared: Any) -> Any:
        # Freeze what exists before the timed region (the inputs and the
        # benchmark's own bookkeeping), so the collector's work in it is
        # the program's: objects the replay allocates are still tracked.
        gc.collect()
        gc.freeze()
        try:
            outcome = prepared.run()
        finally:
            gc.unfreeze()
        self.check(outcome)
        self.outcomes.append(outcome)
        return outcome

    def check(self, outcome: Any) -> None:
        """Count failed operations of one outcome against the reference."""
        expected_ops = expected_extra = expected_run = None
        if self.reference is not None:
            expected_ops = self.reference.get("ops")
            expected_extra = self.reference.get("extra")
            expected_run = self.reference.get("run")
        elif self.outcomes:
            expected_ops = self.outcomes[0].ops
            expected_extra = self.outcomes[0].extra
        failed: set[str] = set()
        whole = False
        if expected_ops is not None:
            for op in set(expected_ops) | set(outcome.ops):
                if expected_ops.get(op) != outcome.ops.get(op):
                    failed.add(op)
        if expected_extra is not None and expected_extra != outcome.extra:
            whole = True
            self.problems.append(f"whole-run outputs differ: {sorted(outcome.extra)}")
        if expected_run is not None and expected_run != self.wl.run_digest(outcome.ops):
            whole = True
            self.problems.append("run digest differs from the stored reference")
        for key, message in outcome.problems:
            self.problems.append(f"{key or 'all'}: {message}")
            if key == self.wl.ALL_OPS:
                whole = True
            else:
                failed.add(key)
        if failed:
            self.problems.append(f"{len(failed)} operations failed, e.g. {sorted(failed)[:3]}")
        ops = set(outcome.ops) | set(expected_ops or ())
        self.attempted += len(ops)
        self.failed += len(ops) if whole else len(failed)

    def measure(self, seconds: float, replay: Any, minimum: int) -> None:
        """Call ``replay()`` until the next call would end past the window."""
        deadline = perf_counter() + seconds
        count = 0
        while True:
            began = perf_counter()
            replay()
            count += 1
            now = perf_counter()
            if count >= minimum and now + (now - began) > deadline:
                break


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    """The untraced run: every end-to-end metric.

    The host's speed changes by up to 1.5x for seconds at a time, so each
    figure averages over the whole run rather than taking the replay of the
    run's dominant speed: the rate is total work over total timed seconds,
    a simulator latency percentile is the mean over the replays of each
    replay's percentile, and the query latency percentiles are taken over
    every query of the run.
    """
    workload = run.workload
    if workload.single_use:
        run.measure(seconds, lambda: run.replay(run.setup()), MIN_REPLAYS)
    else:
        state: dict[str, Any] = {"rounds": 0, "db": None}

        def sql_round() -> None:
            if state["rounds"] % SQL_ROUNDS_PER_SETUP == 0:
                state["db"] = None  # free the old database before the next
                state["db"] = run.setup()
            state["rounds"] += 1
            run.replay(state["db"])

        run.measure(seconds, sql_round, MIN_SQL_ROUNDS)
    outcomes = run.outcomes
    if workload.single_use:
        cuts = [statistics.quantiles(o.latencies_ms, n=10) for o in outcomes]
        p50 = statistics.fmean(c[4] for c in cuts)
        p90 = statistics.fmean(c[8] for c in cuts)
        samples = f"{len(outcomes[0].latencies_ms)} job results per replay"
    else:
        cut = statistics.quantiles([ms for o in outcomes for ms in o.latencies_ms], n=10)
        p50, p90 = cut[4], cut[8]
        samples = f"{sum(len(o.latencies_ms) for o in outcomes)} queries"
    _say(
        f"{len(outcomes)} timed replays or query rounds, {samples} "
        f"(at least 10 above p90), {len(run.setups)} set-ups; "
        "replay seconds: " + " ".join(f"{o.seconds:.3f}" for o in outcomes)
    )
    return {
        "tasks_per_s": sum(o.tasks for o in outcomes) / sum(o.seconds for o in outcomes),
        "query_ms_p50": p50,
        "query_ms_p90": p90,
        "setup_s": _median(run.setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "correct_frac": (run.attempted - run.failed) / run.attempted,
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------

def traced(run: Run, seconds: float, layers: Any) -> dict[str, float]:
    """Alternate untraced and traced replays; every per-layer metric."""
    trace = layers.LayerTrace(f"{run.workload.name}-seed{run.seed}-{os.getpid()}")
    plain: list[float] = []
    with_trace: list[float] = []
    readings: dict[str, float] = {"engine.peak_pending": 0.0, "tasks": 0.0, "setups": 0.0}

    def read(prepared: Any, outcome: Any) -> None:
        readings["tasks"] += outcome.tasks
        if not run.workload.single_use:
            return
        inner = prepared.inner
        trace.add("engine.events", inner.sim.events_processed)
        readings["engine.peak_pending"] = max(
            readings["engine.peak_pending"], inner.sim.peak_pending
        )
        trace.add("shuffle.switches", inner.mode_controller.switches)
        runs = list(inner.job_runs.values())
        trace.add("recovery.task_reruns", sum(r.metrics.task_reruns for r in runs))
        trace.add("recovery.planned_reruns", sum(r.metrics.planned_rerun_tasks for r in runs))
        trace.add("recovery.failovers", sum(
            1 for r in inner.shuffle_recovery_log if r["action"] == "failover"
        ))
        if hasattr(prepared.result, "entries"):
            trace.add("gateway.submitted", prepared.result.submitted)
            trace.add("gateway.admitted", prepared.result.admitted)

    def traced_setup() -> Any:
        layers.instrument(trace)
        try:
            prepared = run.setup()
        finally:
            trace.restore()
        readings["setups"] += 1
        return prepared

    def traced_replay(prepared: Any) -> Any:
        layers.instrument(trace)
        if run.workload.name == "tenant_service":
            trace.timed(prepared.inner, "on_job_done", "gateway.on_job_done")
        try:
            outcome = run.replay(prepared)
        finally:
            trace.restore()
        with_trace.append(outcome.seconds)
        read(prepared, outcome)

    if run.workload.single_use:
        def pair() -> None:
            plain.append(run.replay(run.setup()).seconds)
            traced_replay(traced_setup())
    else:
        prepared = traced_setup()

        def pair() -> None:
            plain.append(run.replay(prepared).seconds)
            traced_replay(prepared)

    # One pair already holds two replays (or rounds) to compare.
    run.measure(seconds, pair, 1)
    path = os.path.join(ROOT, ".perfbench_out", f"{trace.run_id}.spans.jsonl")
    trace.write_spans(path)
    _say(f"{len(with_trace)} traced replays; {len(trace.spans)} spans written to {path}")
    return layer_metrics(trace, layers, readings, len(with_trace), plain, with_trace)


def layer_metrics(
    trace: Any, layers: Any, readings: dict[str, float], n: int,
    plain: list[float], with_trace: list[float],
) -> dict[str, float]:
    calls, secs, values = trace.calls, trace.seconds, trace.values

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    def prefixed(table: dict[str, float], prefix: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    m = {
        "engine.events": values["engine.events"],
        "engine.schedule.calls": calls["engine.schedule"],
        "engine.schedule.s": secs["engine.schedule"],
        "runtime.run.s": secs["runtime.run"],
        "runtime.self_s": trace.self_seconds["runtime.run"],
        "partition.calls": calls["partition.partition"],
        "partition.s": secs["partition.partition"],
        "scheduler.request.calls": calls["scheduler.request"],
        "scheduler.schedule.calls": calls["scheduler.schedule"],
        "scheduler.schedule.s": secs["scheduler.schedule"],
        "scheduler.grants": values["scheduler.grants"],
        "scheduler.pick_replica.calls": calls["scheduler.pick_replica"],
        "scheduler.pick_replica.s": secs["scheduler.pick_replica"],
        "scheduler.pick_locality.calls": calls["scheduler.pick_locality"],
        "scheduler.pick_locality.s": secs["scheduler.pick_locality"],
        "scheduler.pool_pressure.calls": calls["scheduler.pool_pressure"],
        "scheduler.pool_pressure.s": secs["scheduler.pool_pressure"],
        "cluster.machine_load.calls": calls["cluster.machine_load"],
        "shuffle.edge_cost.calls": calls["shuffle.edge_cost"],
        "shuffle.edge_cost.s": secs["shuffle.edge_cost"],
        "shuffle.resolve.calls": calls["shuffle.resolve"],
        "shuffle.resolve.s": secs["shuffle.resolve"],
        "shuffle.switches": values["shuffle.switches"],
        "shuffle.merge.calls": calls["shuffle.merge"],
        "cache_worker.write.calls": calls["cache_worker.write"],
        "cache_worker.write.s": secs["cache_worker.write"],
        "cache_worker.write.bytes": values["cache_worker.write.bytes"],
        "cache_worker.read.calls": calls["cache_worker.read"],
        "cache_worker.read.s": secs["cache_worker.read"],
        "cache_worker.consume.calls": calls["cache_worker.consume"],
        "cache_worker.release_job.s": secs["cache_worker.release_job"],
        "cache_worker.memory_used.calls": calls["cache_worker.memory_used"],
        "failure.plan_recovery.calls": calls["failure.plan_recovery"],
        "failure.plan_recovery.s": secs["failure.plan_recovery"],
        "recovery.task_reruns": values["recovery.task_reruns"],
        "recovery.failovers": values["recovery.failovers"],
        "audit.calls": prefixed(calls, "audit."),
        "audit.s": trace.layer_self_seconds("audit"),
        "audit.reconcile.s": prefixed(trace.self_seconds, "audit.reconcile"),
        "gateway.submit_trace.s": secs["gateway.submit_trace"],
        "gateway.dispatch_batches": calls["runtime.submit_all"] - calls["api.runtime_submit"],
        "gateway.on_job_done.calls": calls["gateway.on_job_done"],
        "gateway.on_job_done.s": secs["gateway.on_job_done"],
        "sql.parse.s": secs["sql.parse"],
        "sql.plan.s": secs["sql.plan"],
        "sql.compile.s": secs["sql.compile"],
        "sql.run.s": secs["sql.run"],
        "sql.to_rows.s": secs["sql.to_rows"],
        "sql.scan.rows": values["sql.scan.rows"],
        "sql.filter.rows": values["sql.filter.rows"],
        "sql.join.rows": values["sql.join.rows"],
        "sql.aggregate.rows": values["sql.aggregate.rows"],
    }
    for layer in layers.SELF_TIME_LAYERS:
        m[f"{layer}.self_s"] = trace.layer_self_seconds(layer)
    # Everything above is a total over the traced replays: report it per
    # replay (per query round for tpch_sql).  Encoding happens in set-up.
    metrics = {name: value / n for name, value in m.items()}
    metrics["sql.encode.s"] = ratio(secs["datagen.encode"], readings["setups"])
    metrics["engine.peak_pending"] = readings["engine.peak_pending"]
    metrics["scheduler.grant_ratio"] = ratio(
        values["scheduler.grants"], calls["scheduler.schedule"]
    )
    metrics["cluster.machine_load.per_task"] = ratio(
        calls["cluster.machine_load"], readings["tasks"]
    )
    metrics["cache_worker.read_ratio"] = ratio(
        calls["cache_worker.read"], calls["cache_worker.write"]
    )
    metrics["recovery.rerun_ratio"] = ratio(
        values["recovery.task_reruns"], values["recovery.planned_reruns"]
    )
    metrics["gateway.admit_ratio"] = ratio(
        values["gateway.admitted"], values["gateway.submitted"]
    )
    metrics["trace.overhead_frac"] = _median(with_trace) / _median(plain) - 1.0
    return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def _units(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def record(wl: Any, workload: Any, seed: int) -> None:
    """Replay once and store this seed's output digests."""
    references: dict = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES, encoding="utf-8") as fh:
            references = json.load(fh)
    run = Run(wl, workload, seed, {})
    run.replay(run.setup())
    if run.failed:
        sys.exit(f"perfbench: not recording a failing run: {run.problems[:5]}")
    outcome = run.outcomes[0]
    entry: dict[str, Any] = {"run": wl.run_digest(outcome.ops)}
    if seed == DEFAULT_SEED:
        entry.update(ops=outcome.ops, extra=outcome.extra)
    references.setdefault(workload.name, {})[str(seed)] = entry
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    _say(f"recorded {workload.name} seed {seed}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    wl, layers = _load_program()
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    if args.record:
        record(wl, workload, args.seed)
        return 0
    with open(REFERENCES, encoding="utf-8") as fh:
        references = json.load(fh)
    run = Run(wl, workload, args.seed, references)
    if args.trace:
        values = traced(run, args.seconds, layers)
        units = _units("per_layer")
    else:
        values = end_to_end(run, args.seconds)
        units = _units("end_to_end")
    if set(values) != set(units):
        sys.exit(f"perfbench: metric names differ from BENCHMARK.json: "
                 f"{sorted(set(values) ^ set(units))}")
    for problem in run.problems[:20]:
        _say(f"FAILED {problem}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
