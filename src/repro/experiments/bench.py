"""Substrate benchmarks: event kernel, end-to-end runtime, and parallel harness.

``python -m repro bench`` runs these scenarios and writes
``BENCH_simulator.json`` so the array kernel's speedup is tracked in-repo
against the legacy kernel measured in the same file:

* **event_engine** — raw event throughput of the simulation kernel.
* **cancel_heavy** — throughput when most scheduled events are cancelled
  (exercises lazy deletion + heap compaction).
* **terasort** — end-to-end simulation rate of a 100x100 Terasort job
  through the runtime.  The baseline runs on the legacy object-heap
  kernel driven by its ``peek``/``step`` loop; the measured run uses the
  array kernel and ``run()``.  Results of the two kernels are
  byte-identical (see the determinism tests) — only the wall-clock
  differs.
* **parallel_replay** — wall-clock of a three-system trace replay,
  serial vs fanned across worker processes.
* **tracing** — Terasort simulation rate with the tracer disabled (the
  null-tracer hook threaded through the hot paths) vs recording every
  span; the disabled overhead is the guarded <2% regression budget.
* **chaos_smoke** — a fixed-seed chaos sweep (Terasort, standard
  profile): campaign throughput plus the invariant pass fraction, which
  is gated so a recovery regression fails ``repro bench --check``.
* **service** — the multi-tenant job gateway replaying the tenant
  arrival trace vs. direct ``submit_all`` of the same jobs; the
  gateway's wall-clock overhead is gated under a 10% budget.

All timings are min-of-rounds ``perf_counter`` measurements; min (not
mean) is the standard way to suppress scheduler noise on shared machines.
"""

from __future__ import annotations

import gc
import json
import os
import time
from typing import Callable, Optional

from ..core.policies import swift_policy
from ..core.runtime import SwiftRuntime
from ..obs.tracer import RecordingTracer, Tracer
from ..sim.cluster import Cluster
from ..sim.engine import LegacySimulator, Simulator
from ..workloads import terasort
from ..workloads.traces import (
    PAPER_SCALE_EXECUTORS,
    PAPER_SCALE_MACHINES,
    paper_scale_trace,
    tenant_arrival_trace,
)
from .parallel import Cell, clear_memory_cache, execution_plan, run_cells

#: Module that hosts the picklable cell functions.
_CELLS = "repro.experiments.cells"


def _min_time(fn: Callable[[], object], rounds: int) -> tuple[float, object]:
    """Best-of-``rounds`` wall time in seconds, plus the last return value.

    GC is paused during the timed region so a collection triggered by one
    scenario's allocations does not land in another scenario's timing.
    """
    best = float("inf")
    value: object = None
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            gc.collect()
            started = time.perf_counter()
            value = fn()
            best = min(best, time.perf_counter() - started)
    finally:
        if was_enabled:
            gc.enable()
        gc.collect()
    return best, value


def bench_event_engine(n_events: int = 100_000, rounds: int = 3) -> dict[str, float]:
    """Raw kernel throughput: schedule ``n_events`` no-op callbacks, drain."""
    def scenario() -> int:
        sim = Simulator()
        for i in range(n_events):
            sim.schedule(float(i % 97) / 10, _noop)
        sim.run()
        return sim.events_processed

    elapsed, processed = _min_time(scenario, rounds)
    assert processed == n_events
    return {
        "n_events": n_events,
        "best_ms": 1e3 * elapsed,
        "events_per_s": n_events / elapsed,
    }


def _noop() -> None:
    return None


def bench_cancel_heavy(
    n_events: int = 100_000, cancel_fraction: float = 0.75, rounds: int = 3
) -> dict[str, float]:
    """Kernel throughput when most events are cancelled before running.

    Mirrors failure-recovery replays, which schedule speculative recovery
    events and cancel nearly all of them; lazy deletion plus compaction
    must keep the heap small and ``pending_events`` O(1).
    """
    n_cancelled = int(n_events * cancel_fraction)

    def scenario() -> int:
        sim = Simulator()
        events = [
            sim.schedule(float(i % 97) / 10, _noop) for i in range(n_events)
        ]
        for event in events[:n_cancelled]:
            event.cancel()
        assert sim.pending_events() == n_events - n_cancelled
        sim.run()
        return sim.events_processed

    elapsed, processed = _min_time(scenario, rounds)
    assert processed == n_events - n_cancelled
    return {
        "n_events": n_events,
        "cancel_fraction": cancel_fraction,
        "best_ms": 1e3 * elapsed,
        "events_per_s": n_events / elapsed,
    }


def _run_terasort(m: int, n: int, kernel: str) -> int:
    """One Terasort run on ``kernel``; returns the task count.  The legacy
    kernel is driven by its peek/step loop, the array kernel by ``run()``."""
    runtime = SwiftRuntime(Cluster.build(20, 16), swift_policy(), kernel=kernel)
    runtime.submit(terasort.terasort_job(m, n))
    if kernel == "legacy":
        sim = runtime.sim
        while sim.peek_time() is not None:
            sim.step()
        results = runtime.results
    else:
        results = runtime.run()
    return len(results[0].metrics.tasks)


def bench_terasort(m: int = 100, n: int = 100, rounds: int = 5) -> dict[str, float]:
    """End-to-end simulation rate: legacy kernel baseline vs array kernel."""
    base_s, tasks = _min_time(lambda: _run_terasort(m, n, "legacy"), rounds)
    array_s, array_tasks = _min_time(lambda: _run_terasort(m, n, "array"), rounds)
    assert tasks == array_tasks
    return {
        "job": f"terasort_{m}x{n}",
        "tasks": tasks,
        "baseline_ms": 1e3 * base_s,
        "array_ms": 1e3 * array_s,
        "baseline_tasks_per_s": tasks / base_s,
        "array_tasks_per_s": tasks / array_s,
        "speedup": base_s / array_s,
    }


def _run_traced_terasort(m: int, n: int, tracer: Optional[Tracer]) -> int:
    """One Terasort run with ``tracer`` threaded through."""
    runtime = SwiftRuntime(Cluster.build(20, 16), swift_policy(), tracer=tracer)
    runtime.submit(terasort.terasort_job(m, n))
    results = runtime.run()
    return len(results[0].metrics.tasks)


def bench_tracing(m: int = 100, n: int = 100, rounds: int = 5) -> dict[str, float]:
    """Tracer-disabled vs recording simulation rate on Terasort."""
    off_s, tasks = _min_time(lambda: _run_traced_terasort(m, n, None), rounds)
    on_s, on_tasks = _min_time(
        lambda: _run_traced_terasort(m, n, RecordingTracer()), rounds
    )
    assert tasks == on_tasks
    return {
        "job": f"terasort_{m}x{n}",
        "tasks": tasks,
        "disabled_ms": 1e3 * off_s,
        "recording_ms": 1e3 * on_s,
        "disabled_tasks_per_s": tasks / off_s,
        "recording_tasks_per_s": tasks / on_s,
        "recording_overhead_pct": 100.0 * (on_s / off_s - 1.0),
    }


def bench_chaos_smoke(
    runs: int = 10, rounds: int = 1, audit: bool = True
) -> dict[str, float]:
    """Fixed-seed chaos sweep: campaign throughput plus pass fraction.

    The pass fraction doubles as a correctness gate: campaigns are fully
    deterministic, so any drop means a recovery-path regression, not
    timer noise.  ``audit`` additionally wires a resource-accounting
    ledger through every campaign, so unbalanced register/release pairs
    fail the ``resource-conservation`` invariant (and thus the gate).
    """
    from ..chaos import ChaosEngine

    def scenario() -> object:
        engine = ChaosEngine(
            workload="terasort", profile="standard", audit=audit
        )
        return engine.sweep(range(runs), shrink=False)

    elapsed, report = _min_time(scenario, rounds)
    passed = report.passed  # type: ignore[union-attr]
    return {
        "workload": "terasort",
        "profile": "standard",
        "runs": runs,
        "audit": audit,
        "passed": passed,
        "passed_fraction": passed / runs,
        "best_ms": 1e3 * elapsed,
        "campaigns_per_s": runs / elapsed,
    }


def bench_parallel_replay(
    n_jobs: int = 120, workers: int = 3, rounds: int = 1
) -> dict[str, float]:
    """Wall-clock of the three-system trace replay, serial vs fanned out.

    The result payloads are identical either way (the determinism tests
    assert it); this measures only the harness speedup.  Caches are
    cleared before each measurement so both runs do the full work.
    """
    cells = [
        Cell(_CELLS, "trace_replay_cell",
             {"policy": name, "n_jobs": n_jobs, "mean_interarrival": 0.08})
        for name in ("swift", "bubble", "jetscope")
    ]
    mode, effective_workers = execution_plan(len(cells), workers)
    saved_cache_env = os.environ.pop("REPRO_CACHE_DIR", None)
    try:
        def serial() -> object:
            clear_memory_cache()
            return run_cells(cells, jobs=1)

        def fanned() -> object:
            clear_memory_cache()
            return run_cells(cells, jobs=workers)

        serial_s, _ = _min_time(serial, rounds)
        if mode == "process-pool":
            fanned_s, _ = _min_time(fanned, rounds)
        else:
            # run_cells degrades the fanned run to serial (one usable CPU
            # or too few cells), so measuring it again would only report
            # timer noise as a fake sub-1x "speedup".
            fanned_s = serial_s
    finally:
        clear_memory_cache()
        if saved_cache_env is not None:
            os.environ["REPRO_CACHE_DIR"] = saved_cache_env
    return {
        "n_jobs": n_jobs,
        "workers": workers,
        "effective_workers": effective_workers,
        "mode": mode,
        # Fan-out only beats serial with real cores to spread across; the
        # count makes the serial degrade on a 1-core box interpretable.
        "cpu_count": os.cpu_count() or 1,
        "serial_s": serial_s,
        "parallel_s": fanned_s,
        "speedup": serial_s / fanned_s,
    }


# ----------------------------------------------------------------------
# Paper-scale replay (``repro bench --suite scale``)
# ----------------------------------------------------------------------

def _run_scale_replay(kernel: str, jobs: list, n_machines: int, executors: int) -> object:
    """One end-to-end trace replay on ``kernel``; returns the runtime."""
    runtime = SwiftRuntime(
        Cluster.build(n_machines, executors),
        swift_policy(),
        # Every task finish is a kernel event, so the replay exercises the
        # kernel queue at the trace's real depths.
        kernel=kernel,
    )
    runtime.submit_all(jobs)
    runtime.run()
    return runtime


def _kernel_event_plan(jobs: list) -> list[tuple[float, Callable[..., object], tuple]]:
    """Flatten a trace into raw kernel events (two per task).

    The plan preserves the trace's arrival process and stage structure —
    event times are the task start/finish instants a replay would schedule —
    but drops the runtime, so feeding it to a kernel measures pure
    event-queue throughput at the replay's real queue depths.
    """
    items: list[tuple[float, Callable[..., object], tuple]] = []
    for job in jobs:
        offset = 0.0
        for stage in job.dag:
            duration = stage.work_seconds_per_task or 1.0
            for index in range(stage.task_count):
                start = job.submit_time + offset + (index % 97) * 0.003
                items.append((start, _noop, ()))
                items.append((start + duration, _noop, ()))
            offset += duration + 1.0
    return items


def _replay_kernel_events(
    sim_cls: type, items: list, cancel_every: int = 4
) -> tuple[int, int]:
    """Push the event plan through one kernel; returns (executed, peak).

    A quarter of the events are shadowed by speculative duplicates that are
    cancelled before running — the recovery-churn pattern that exercises
    lazy deletion and compaction at scale.
    """
    sim = sim_cls()
    scheduled = sim.schedule_batch(items)
    assert scheduled == len(items)
    speculative = [
        sim.schedule(items[i][0] + 0.5, _noop)
        for i in range(0, len(items), cancel_every)
    ]
    for event in speculative:
        event.cancel()
    sim.run()
    return sim.events_processed, sim.peak_pending


def _replay_scaling(
    jobs: list, sizes: tuple[int, int], executors: int, rounds: int
) -> tuple[float, float]:
    """Best-of-``rounds`` replay wall time of ``jobs`` at two cluster sizes.

    The sizes alternate within each round, so a slow phase of a shared
    host lands on both sides of the ratio instead of on one.
    """
    small_s = large_s = float("inf")
    small, large = sizes
    for _ in range(rounds):
        small_s = min(small_s, _min_time(
            lambda: _run_scale_replay("array", jobs, small, executors), 1
        )[0])
        large_s = min(large_s, _min_time(
            lambda: _run_scale_replay("array", jobs, large, executors), 1
        )[0])
    return small_s, large_s


def bench_scale(quick: bool = False, rounds: int = 2) -> dict[str, float]:
    """Paper-scale calibrated replay: 2,000 machines, Fig. 8 trace.

    Three measurements share the same calibrated trace generator:

    * **end-to-end** — the full runtime replays the trace on a
      2,000-machine cluster through the per-task-event path, on the
      array-backed kernel and on the legacy object-heap oracle; wall
      time, events, queue high-water mark, and makespan come from here.
    * **kernel replay** — the same trace flattened to raw task start/finish
      events (plus a cancelled speculative shadow) drives both kernels
      directly; this is the paper-scale ``events_per_s`` headline and the
      undiluted kernel comparison.
    * **scaling** — the end-to-end replay on 500 and 2,000 machines (200
      and 800 in quick mode); ``replay_scaling`` is the wall-time ratio.
      The trace is the same, so placement that stays O(k log M) per
      decision keeps it near 1, and per-decision scans over the machines
      push it past 2 on any host.

    Quick mode shrinks the trace and cluster but keeps the measurements'
    structure, so ``--check`` ratios compare across modes.
    """
    n_machines = 200 if quick else PAPER_SCALE_MACHINES
    executors = PAPER_SCALE_EXECUTORS
    max_stage_tasks = 150 if quick else 700
    replay_jobs = paper_scale_trace(
        n_jobs=60 if quick else 200, max_stage_tasks=max_stage_tasks
    )
    kernel_jobs = paper_scale_trace(
        n_jobs=300 if quick else 2000, max_stage_tasks=max_stage_tasks
    )

    replay_s, runtime = _min_time(
        lambda: _run_scale_replay("array", replay_jobs, n_machines, executors),
        rounds,
    )
    legacy_replay_s, legacy_runtime = _min_time(
        lambda: _run_scale_replay("legacy", replay_jobs, n_machines, executors),
        rounds,
    )
    sim = runtime.sim  # type: ignore[attr-defined]
    results = runtime.results  # type: ignore[attr-defined]
    tasks = sum(len(r.metrics.tasks) for r in results)
    legacy_results = legacy_runtime.results  # type: ignore[attr-defined]
    assert tasks == sum(len(r.metrics.tasks) for r in legacy_results)

    plan = _kernel_event_plan(kernel_jobs)
    kernel_s, stats = _min_time(
        lambda: _replay_kernel_events(Simulator, plan), rounds
    )
    legacy_kernel_s, legacy_stats = _min_time(
        lambda: _replay_kernel_events(LegacySimulator, plan), rounds
    )
    executed, peak = stats  # type: ignore[misc]
    assert (executed, peak) == legacy_stats

    # Quick mode keeps a 4x spread at sizes where a per-decision scan
    # over the machines already dominates the replay.
    sizes = (200, 800) if quick else (PAPER_SCALE_MACHINES // 4, PAPER_SCALE_MACHINES)
    small_s, large_s = _replay_scaling(replay_jobs, sizes, executors, rounds=3)

    return {
        "n_machines": n_machines,
        "executors_per_machine": executors,
        "replay_jobs": len(replay_jobs),
        "replay_tasks": tasks,
        "replay_wall_s": replay_s,
        "replay_legacy_wall_s": legacy_replay_s,
        "replay_tasks_per_s": tasks / replay_s,
        "replay_events": sim.events_processed,
        "replay_peak_pending": sim.peak_pending,
        "replay_makespan_s": max(r.metrics.finish_time for r in results),
        "replay_speedup": legacy_replay_s / replay_s,
        "kernel_jobs": len(kernel_jobs),
        "kernel_events": executed,
        "kernel_peak_pending": peak,
        "kernel_wall_ms": 1e3 * kernel_s,
        "kernel_legacy_wall_ms": 1e3 * legacy_kernel_s,
        "events_per_s": executed / kernel_s,
        "kernel_speedup": legacy_kernel_s / kernel_s,
        "scaling_machines": list(sizes),
        "scaling_wall_s": [small_s, large_s],
        "replay_scaling": large_s / small_s,
    }


# ----------------------------------------------------------------------
# Service gateway benchmark (``--suite service``)
# ----------------------------------------------------------------------


def bench_service(quick: bool = False, rounds: int = 2) -> dict[str, float]:
    """Gateway overhead vs. direct ``submit_all`` on the tenant trace.

    Both modes replay the same multi-tenant Poisson arrival trace
    (:func:`repro.workloads.traces.tenant_arrival_trace`) on the same
    cluster.  **direct** hands the whole batch to
    ``SwiftRuntime.submit_all`` up front; **gateway** streams every
    arrival through a permissive :class:`repro.service.JobGateway`
    (unlimited quotas, admission disabled), so the measured delta is
    pure gateway machinery — per-arrival admission checks, fair-share /
    EDF queue maintenance, slot-claim bookkeeping — rather than
    admission shaping.  ``overhead_frac`` is gated against the <10%
    wall-clock budget; ``direct_vs_gateway`` rides the usual relative
    ``--check`` machinery.
    """
    from ..service.gateway import JobGateway
    from ..service.stats import distribution

    n_machines = 200 if quick else PAPER_SCALE_MACHINES
    executors = PAPER_SCALE_EXECUTORS
    # Quick mode caps stages at 100 tasks so the largest graphlet gang
    # (738 slots) still fits the 800-slot quick cluster — the direct
    # path has no admission control to shed oversize jobs.
    jobs = tenant_arrival_trace(
        n_tenants=200 if quick else 1000,
        n_jobs=400 if quick else 2000,
        max_stage_tasks=100 if quick else 700,
    )
    # The gateway stamps dispatch times back onto ``Job.submit_time``,
    # so each round restores the trace's arrival schedule first.
    schedule = [(job, job.submit_time) for job in jobs]

    def restore() -> None:
        for job, at in schedule:
            job.submit_time = at

    def run_direct() -> SwiftRuntime:
        restore()
        runtime = SwiftRuntime(Cluster.build(n_machines, executors), swift_policy())
        runtime.submit_all(jobs)
        runtime.run()
        return runtime

    def run_gateway() -> JobGateway:
        restore()
        runtime = SwiftRuntime(Cluster.build(n_machines, executors), swift_policy())
        gateway = JobGateway(runtime)
        gateway.submit_trace(jobs)
        runtime.run()
        return gateway

    direct_s, direct_runtime = _min_time(run_direct, rounds)
    gateway_s, gateway = _min_time(run_gateway, rounds)

    results = direct_runtime.results  # type: ignore[attr-defined]
    entries = gateway.entries  # type: ignore[attr-defined]
    finished = [e for e in entries if e.status in ("completed", "failed")]
    # A permissive gateway must not shape the workload: every arrival
    # dispatches and finishes, exactly as in the direct replay.
    assert len(finished) == len(results) == len(jobs)
    queue_dist = distribution([e.queue_time for e in finished])

    return {
        "n_machines": n_machines,
        "executors_per_machine": executors,
        "n_arrivals": len(jobs),
        "n_tenants": len({job.tenant for job in jobs}),
        "direct_s": direct_s,
        "gateway_s": gateway_s,
        "overhead_frac": gateway_s / direct_s - 1.0,
        "direct_vs_gateway": direct_s / gateway_s,
        "queue_time_p50_s": queue_dist["p50"],
        "queue_time_p95_s": queue_dist["p95"],
        "queue_time_p99_s": queue_dist["p99"],
        "rejected": sum(1 for e in entries if e.status == "rejected"),
        "deadline_overruns": sum(1 for e in finished if e.overrun > 0.0),
    }


def run_service_benchmarks(
    quick: bool = False, echo: Optional[Callable[[str], None]] = None
) -> dict[str, object]:
    """Run only the service gateway scenario (``--suite service``).

    Returns a payload fragment with just the ``service`` entry; writers
    merge it into the committed BENCH_simulator.json.
    """
    if echo:
        echo("service gateway vs direct submit_all ...")
    return {"service": bench_service(quick=quick)}


# ----------------------------------------------------------------------
# Shuffle v2 recovery benchmark (``--suite shuffle``)
# ----------------------------------------------------------------------


def _run_shuffle_loss(
    replication_factor: int, m: int, n: int, machine_id: int, at_fraction: float
) -> dict[str, float]:
    """One variant: baseline makespan, then makespan under a single
    injected Cache Worker loss.  All times are *simulated* seconds, so the
    measurement is deterministic and host-independent."""
    from ..sim.config import SimConfig
    from ..sim.failures import FailureKind, FailurePlan, FailureSpec

    config = SimConfig()
    config.shuffle.replication_factor = replication_factor

    baseline_rt = SwiftRuntime(Cluster.build(20, 16), swift_policy(), config=config)
    baseline = baseline_rt.execute(terasort.terasort_job(m, n))
    assert baseline.completed
    baseline_makespan = baseline.metrics.finish_time

    plan = FailurePlan().add(
        FailureSpec(
            kind=FailureKind.CACHE_WORKER_LOSS,
            machine_id=machine_id,
            at_fraction=at_fraction,
        )
    )
    loss_rt = SwiftRuntime(
        Cluster.build(20, 16),
        swift_policy(),
        config=config,
        failure_plan=plan,
        reference_duration=baseline_makespan,
    )
    result = loss_rt.execute(terasort.terasort_job(m, n))
    assert result.completed
    log = loss_rt.shuffle_recovery_log
    return {
        "baseline_makespan_s": baseline_makespan,
        "loss_makespan_s": result.metrics.finish_time,
        "recovery_s": result.metrics.finish_time - baseline_makespan,
        "reruns": sum(1 for r in log if r["action"] == "rerun"),
        "failovers": sum(1 for r in log if r["action"] == "failover"),
    }


#: Smallest recovery time credited to a variant; a perfect failover
#: recovers in zero *simulated* seconds, and a ratio against exactly 0
#: would be infinite (and unserializable as strict JSON).
_RECOVERY_FLOOR_S = 1e-3


def bench_shuffle_recovery(
    quick: bool = False, m: int = 128, n: int = 128, at_fraction: float = 0.55
) -> dict[str, float]:
    """Recovery time under Cache Worker loss: shuffle v2 vs v1.

    Both variants replay the same Terasort (its cross-unit edge is large
    enough to resolve to Remote Shuffle, so the data lives in Cache
    Workers) and lose the same Cache Worker at the same fraction of the
    failure-free makespan.  **v1** (``replication_factor=1``) must
    re-generate the lost shares through producer re-runs; **v2** (the
    default factor 2) fails over to surviving replicas.  The
    ``recovery_improvement`` ratio (v1 recovery time over v2's) is gated
    strictly above 1.0 by ``--check``.  Simulated-time measurement: the
    numbers are deterministic, so the usual relative tolerance only ever
    trips on a real behaviour change.
    """
    machine_id = 0  # always a primary under the [:y] placement
    v1 = _run_shuffle_loss(1, m, n, machine_id, at_fraction)
    v2 = _run_shuffle_loss(2, m, n, machine_id, at_fraction)
    # The gate is only meaningful if the injection really exercised both
    # paths: v1 re-ran producers, v2 served every share from replicas.
    assert v1["reruns"] > 0, "v1 run never hit the producer-rerun path"
    assert v2["reruns"] == 0 and v2["failovers"] > 0, (
        "v2 run did not fail over to replicas"
    )
    v1_recovery = max(v1["recovery_s"], _RECOVERY_FLOOR_S)
    v2_recovery = max(v2["recovery_s"], _RECOVERY_FLOOR_S)
    return {
        "job": f"terasort_{m}x{n}",
        "machine_lost": machine_id,
        "at_fraction": at_fraction,
        "baseline_makespan_s": v2["baseline_makespan_s"],
        "v1_makespan_s": v1["loss_makespan_s"],
        "v2_makespan_s": v2["loss_makespan_s"],
        "v1_recovery_s": v1["recovery_s"],
        "v2_recovery_s": v2["recovery_s"],
        "v1_reruns": v1["reruns"],
        "v2_failovers": v2["failovers"],
        "recovery_improvement": v1_recovery / v2_recovery,
    }


def run_shuffle_benchmarks(
    quick: bool = False, echo: Optional[Callable[[str], None]] = None
) -> dict[str, object]:
    """Run only the shuffle recovery scenario (``--suite shuffle``).

    Returns a payload fragment with just the ``shuffle`` entry; writers
    merge it into the committed BENCH_simulator.json.
    """
    if echo:
        echo("shuffle v2 vs v1 recovery under cache worker loss ...")
    return {"shuffle": bench_shuffle_recovery(quick=quick)}


# ----------------------------------------------------------------------
# SQL engine benchmarks (BENCH_sql.json)
# ----------------------------------------------------------------------

def _synthetic_tables(n_rows: int, seed: int = 7) -> dict[str, list[dict]]:
    """A lineitem/orders pair sized for SQL benchmarking.

    Wider value ranges than :func:`repro.sql.datagen.generate_database`
    (which targets example-sized databases) so selective predicates keep
    realistic selectivity at 100k rows.
    """
    import random

    rng = random.Random(seed)
    n_orders = max(1, n_rows // 10)
    flags, statuses = ("A", "N", "R"), ("F", "O")
    modes = ("AIR", "MAIL", "RAIL", "SHIP", "TRUCK")
    priorities = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
    lineitem = [
        {
            "l_orderkey": rng.randint(1, n_orders),
            "l_quantity": float(rng.randint(1, 50)),
            "l_extendedprice": round(rng.uniform(900.0, 105000.0), 2),
            "l_discount": round(rng.uniform(0.0, 0.10), 2),
            "l_tax": round(rng.uniform(0.0, 0.08), 2),
            "l_returnflag": rng.choice(flags),
            "l_linestatus": rng.choice(statuses),
            "l_shipdate": f"199{rng.randint(4, 8)}-{rng.randint(1, 12):02d}"
                          f"-{rng.randint(1, 28):02d}",
            "l_shipmode": rng.choice(modes),
        }
        for _ in range(n_rows)
    ]
    orders = [
        {
            "o_orderkey": key,
            "o_orderpriority": rng.choice(priorities),
            "o_totalprice": round(rng.uniform(1000.0, 400000.0), 2),
        }
        for key in range(1, n_orders + 1)
    ]
    return {"lineitem": lineitem, "orders": orders}


#: Q1-style grouped aggregation — the acceptance-criteria query.
_SQL_Q1 = """
    select l_returnflag, l_linestatus,
        sum(l_quantity) as sum_qty,
        sum(l_extendedprice) as sum_base_price,
        sum(l_extendedprice * (1 - l_discount)) as sum_disc_price,
        sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge,
        avg(l_quantity) as avg_qty,
        avg(l_extendedprice) as avg_price,
        avg(l_discount) as avg_disc,
        count(*) as count_order
    from lineitem
    where l_shipdate <= '1998-09-02'
    group by l_returnflag, l_linestatus
    order by l_returnflag, l_linestatus
"""

_SQL_FILTER_PROJECT = """
    select l_orderkey, l_extendedprice * (1 - l_discount) as revenue,
        l_shipmode
    from lineitem
    where l_shipdate >= '1996-01-01' and l_discount < 0.05
        and l_shipmode in ('AIR', 'RAIL')
"""

_SQL_HASH_JOIN = """
    select o_orderpriority, count(*) as n_items,
        sum(l_extendedprice) as total_price
    from lineitem l
    join orders o on l.l_orderkey = o.o_orderkey
    group by o_orderpriority
    order by o_orderpriority
"""


def _bench_sql_scenario(
    sql: str, database: dict[str, list[dict]], n_rows: int,
    row_rounds: int, columnar_rounds: int,
) -> dict[str, object]:
    """Row vs columnar wall time for one query; asserts identical rows.

    The row engine scans the row-dict lists directly; the columnar engine
    scans the same logical data pre-encoded as :class:`ColumnTable` arrays
    (its native resident layout), so each engine is timed on the storage
    format it would own in a real deployment.  Encoding happens once here,
    outside the timed region, and the result sets are asserted identical.
    """
    from ..sql import DEFAULT_CATALOG, parse, plan_statement
    from ..sql.batch import ColumnTable
    from ..sql.columnar import ColumnarExecutor
    from ..sql.executor import QueryExecutor

    plan = plan_statement(parse(sql), DEFAULT_CATALOG)
    columnar_db = {
        name: ColumnTable.from_rows(rows) for name, rows in database.items()
    }
    row_s, row_rows = _min_time(
        lambda: QueryExecutor(database, DEFAULT_CATALOG).execute(plan),
        row_rounds,
    )
    columnar_s, columnar_rows = _min_time(
        lambda: ColumnarExecutor(columnar_db, DEFAULT_CATALOG).execute(plan),
        columnar_rounds,
    )
    if row_rows != columnar_rows:
        raise AssertionError("columnar result differs from the row engine")
    return {
        "n_rows": n_rows,
        "result_rows": len(row_rows),  # type: ignore[arg-type]
        "row_ms": 1e3 * row_s,
        "columnar_ms": 1e3 * columnar_s,
        "row_rows_per_s": n_rows / row_s,
        "columnar_rows_per_s": n_rows / columnar_s,
        "speedup": row_s / columnar_s,
    }


def run_sql_benchmarks(
    quick: bool = False, echo: Optional[Callable[[str], None]] = None
) -> dict[str, object]:
    """Run the SQL engine scenarios; the BENCH_sql.json payload."""
    def say(message: str) -> None:
        if echo:
            echo(message)

    n_rows = 20_000 if quick else 100_000
    # Two rounds keep the row baseline robust to a transient load spike
    # (min-of-rounds); quick mode stays single-round for speed.
    row_rounds = 1 if quick else 2
    columnar_rounds = 2 if quick else 3
    database = _synthetic_tables(n_rows)
    payload: dict[str, object] = {
        "generated_by": "python -m repro bench --suite sql"
                        + (" --quick" if quick else ""),
    }
    scenarios = [
        ("q1_aggregate", "sql q1-style grouped aggregation ...", _SQL_Q1),
        ("filter_project", "sql filter + project ...", _SQL_FILTER_PROJECT),
        ("hash_join", "sql hash join + aggregate ...", _SQL_HASH_JOIN),
    ]
    for key, banner, sql in scenarios:
        say(banner)
        payload[key] = _bench_sql_scenario(
            sql, database, n_rows, row_rounds, columnar_rounds
        )
    if not quick:
        # 1M-row scenarios: the row engine takes tens of seconds per pass
        # here, so a single row round (min-of-1) keeps the suite tractable.
        large_rows = 1_000_000
        large_db = _synthetic_tables(large_rows)
        for key, banner, sql in scenarios:
            say(banner.replace("sql ", "sql 1M-row "))
            payload[f"{key}_1m"] = _bench_sql_scenario(
                sql, large_db, large_rows, row_rounds=1, columnar_rounds=2
            )
    return payload


def write_sql_bench_file(
    path: str = "BENCH_sql.json",
    quick: bool = False,
    echo: Optional[Callable[[str], None]] = None,
) -> dict[str, object]:
    """Run the SQL benchmarks and write the JSON document to ``path``."""
    payload = run_sql_benchmarks(quick=quick, echo=echo)
    write_payload(path, payload)
    return payload


# ----------------------------------------------------------------------
# Regression checking (``repro bench --check``)
# ----------------------------------------------------------------------

#: Gated metrics per scenario.  Only *relative* measures (speedups):
#: absolute event/row rates vary too much across hosts to gate on.
CHECK_METRICS: dict[str, tuple[str, ...]] = {
    "terasort": ("speedup",),
    # Deterministic invariant pass fraction — a correctness gate, immune
    # to host speed, so it rides the same relative-drop machinery.
    "chaos_smoke": ("passed_fraction",),
    "parallel_replay": ("speedup",),
    # Paper-scale replay: the kernel-vs-legacy ratio is host-relative and
    # kernel-dominated.  replay_speedup stays ungated: the end-to-end
    # replay dilutes the kernel with scheduling work, so its ratio is too
    # close to 1 to separate regressions from timer noise on quick runs.
    # Neither ratio sees a placement regression (both sides pay it), so
    # replay_scaling gets an absolute ceiling below.
    "scale": ("kernel_speedup",),
    # SQL engines: only the row-vs-columnar speedup is gated — absolute
    # per-engine ms swing with host load, the ratio does not.  A fresh
    # run at a different n_rows (e.g. --quick's 20k vs the committed
    # 100k) is skipped entirely in compare_payloads: columnar speedups
    # grow with batch size, so cross-size ratios are not comparable.
    "q1_aggregate": ("speedup",),
    "filter_project": ("speedup",),
    "hash_join": ("speedup",),
    "q1_aggregate_1m": ("speedup",),
    "filter_project_1m": ("speedup",),
    "hash_join_1m": ("speedup",),
    # Gateway wall-clock relative to direct submit_all (~1.0 when the
    # gateway is free); the absolute <10% overhead budget is enforced
    # separately below.
    "service": ("direct_vs_gateway",),
    # Simulated (deterministic) recovery-time ratio of shuffle v1 over v2
    # under an injected Cache Worker loss; the absolute >1.0 floor is
    # enforced separately below.
    "shuffle": ("recovery_improvement",),
}

#: Hard ceiling on ``service.overhead_frac`` — the gateway must cost
#: less than 10% wall-clock over direct ``submit_all`` (ISSUE 7
#: acceptance gate), regardless of what the committed payload recorded.
SERVICE_OVERHEAD_CEILING = 0.10

#: Hard ceiling on ``scale.replay_scaling`` — the same trace replayed on
#: 4x the machines must take less than 1.5x the wall time.  O(k log M)
#: placement measures 1.04-1.14; per-decision scans over the machines
#: measured 2.1-2.9 on the same host.
REPLAY_SCALING_CEILING = 1.5

#: Hard floor on ``shuffle.recovery_improvement`` — v2 (replicated
#: failover) must recover strictly faster than v1 (producer reruns)
#: under the same Cache Worker loss, regardless of the committed value.
SHUFFLE_RECOVERY_FLOOR = 1.0


def compare_payloads(
    committed: dict[str, object],
    fresh: dict[str, object],
    tolerance: float = 0.25,
) -> list[str]:
    """Regression messages for gated metrics that dropped below tolerance.

    A metric regresses when ``fresh < committed * (1 - tolerance)``.
    Scenarios or metrics missing from either payload are skipped, so old
    bench files and ``--quick`` runs compare cleanly.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    problems: list[str] = []
    for scenario, metrics in CHECK_METRICS.items():
        old, new = committed.get(scenario), fresh.get(scenario)
        if not isinstance(old, dict) or not isinstance(new, dict):
            continue
        if scenario == "parallel_replay" and (
            old.get("mode") != "process-pool" or new.get("mode") != "process-pool"
        ):
            # A serial-degraded run (1-CPU host, too few cells) commits
            # speedup 1.0 by construction; gating on that degenerate
            # number would flag any healthy multi-core run that later
            # compares against it (or vice versa).
            continue
        if (
            "n_rows" in old
            and "n_rows" in new
            and old["n_rows"] != new["n_rows"]
        ):
            # Different table sizes measure different regimes (quick runs
            # use 20k rows against a committed 100k payload; columnar
            # speedup scales with batch size), so the ratio comparison
            # would be apples-to-oranges.
            continue
        for metric in metrics:
            if metric not in old or metric not in new:
                continue
            committed_value = float(old[metric])
            fresh_value = float(new[metric])
            floor = committed_value * (1.0 - tolerance)
            if fresh_value < floor:
                problems.append(
                    f"{scenario}.{metric}: fresh {fresh_value:.2f} < "
                    f"committed {committed_value:.2f} - {tolerance:.0%} "
                    f"tolerance (floor {floor:.2f})"
                )
    service = fresh.get("service")
    if isinstance(service, dict) and "overhead_frac" in service:
        overhead = float(service["overhead_frac"])
        if overhead >= SERVICE_OVERHEAD_CEILING:
            problems.append(
                f"service.overhead_frac: fresh {overhead:.1%} >= "
                f"{SERVICE_OVERHEAD_CEILING:.0%} gateway overhead budget"
            )
    scale = fresh.get("scale")
    if isinstance(scale, dict) and "replay_scaling" in scale:
        scaling = float(scale["replay_scaling"])
        if scaling >= REPLAY_SCALING_CEILING:
            problems.append(
                f"scale.replay_scaling: fresh {scaling:.2f} >= "
                f"{REPLAY_SCALING_CEILING:.2f} — replay wall time grows with "
                "cluster size, so some placement path scans the machines"
            )
    shuffle = fresh.get("shuffle")
    if isinstance(shuffle, dict) and "recovery_improvement" in shuffle:
        improvement = float(shuffle["recovery_improvement"])
        if improvement <= SHUFFLE_RECOVERY_FLOOR:
            problems.append(
                f"shuffle.recovery_improvement: fresh {improvement:.2f} <= "
                f"{SHUFFLE_RECOVERY_FLOOR:.1f} — replicated failover must "
                "beat producer-rerun recovery"
            )
    return problems


def write_payload(path: str, payload: dict[str, object]) -> None:
    """Write one benchmark payload as an indented JSON document."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def run_benchmarks(
    quick: bool = False,
    echo: Optional[Callable[[str], None]] = None,
    audit: bool = True,
) -> dict[str, object]:
    """Run every scenario and return the BENCH_simulator.json payload.

    ``audit`` wires the resource-accounting ledger through the chaos
    smoke sweep (the committed payloads are generated with it on).
    """
    def say(message: str) -> None:
        if echo:
            echo(message)

    n_events = 20_000 if quick else 100_000
    rounds = 2 if quick else 5
    payload: dict[str, object] = {
        "generated_by": "python -m repro bench" + (" --quick" if quick else ""),
    }
    # Full rounds for the two kernel scenarios: they are the cheapest to
    # repeat and the most timer-noise-sensitive (sub-300ms best times).
    say("event engine ...")
    payload["event_engine"] = bench_event_engine(n_events=n_events, rounds=rounds)
    say("cancel-heavy engine ...")
    payload["cancel_heavy"] = bench_cancel_heavy(n_events=n_events, rounds=rounds)

    def resample_kernels() -> None:
        # Shared hosts drift by 1.3-1.5x on a timescale of minutes, which
        # is longer than one scenario's rounds but shorter than the whole
        # suite.  A second sample of the cheap kernel scenarios at the end
        # of the run keeps the best-of-rounds principle while spanning the
        # drift window; the faster sample wins.
        say("event engine (resample) ...")
        for key, fn in (
            ("event_engine", bench_event_engine),
            ("cancel_heavy", bench_cancel_heavy),
        ):
            first = payload[key]
            second = fn(n_events=n_events, rounds=rounds)
            assert isinstance(first, dict)
            if second["events_per_s"] > first["events_per_s"]:
                payload[key] = second
    say("terasort array vs legacy kernel ...")
    payload["terasort"] = bench_terasort(rounds=rounds)
    say("tracing disabled vs recording ...")
    payload["tracing"] = bench_tracing(rounds=rounds)
    say("parallel replay harness ...")
    payload["parallel_replay"] = bench_parallel_replay(
        n_jobs=60 if quick else 120
    )
    say("chaos smoke sweep ...")
    payload["chaos_smoke"] = bench_chaos_smoke(
        runs=5 if quick else 10, audit=audit
    )
    say("paper-scale trace replay ...")
    payload["scale"] = bench_scale(quick=quick)
    say("service gateway vs direct submit_all ...")
    payload["service"] = bench_service(quick=quick)
    say("shuffle v2 vs v1 recovery under cache worker loss ...")
    payload["shuffle"] = bench_shuffle_recovery(quick=quick)
    resample_kernels()
    return payload


def run_scale_benchmarks(
    quick: bool = False, echo: Optional[Callable[[str], None]] = None
) -> dict[str, object]:
    """Run only the paper-scale scenario (``--suite scale``).

    Returns a payload fragment with just the ``scale`` entry; writers merge
    it into the committed BENCH_simulator.json instead of replacing the
    other scenarios.
    """
    if echo:
        echo("paper-scale trace replay ...")
    return {"scale": bench_scale(quick=quick)}


def merge_payload(path: str, payload: dict[str, object]) -> dict[str, object]:
    """Merge ``payload`` scenarios into the JSON document at ``path``.

    Existing scenarios not present in ``payload`` are preserved, so a
    single-suite run (``--suite scale``) updates its entry in place.
    """
    merged: dict[str, object] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            merged = json.load(handle)
    merged.update(payload)
    write_payload(path, merged)
    return merged


def write_bench_file(
    path: str = "BENCH_simulator.json",
    quick: bool = False,
    echo: Optional[Callable[[str], None]] = None,
) -> dict[str, object]:
    """Run the benchmarks and write the JSON document to ``path``."""
    payload = run_benchmarks(quick=quick, echo=echo)
    write_payload(path, payload)
    return payload
