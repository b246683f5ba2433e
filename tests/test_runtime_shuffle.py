"""Runtime integration tests: shuffle schemes and Cache Worker interplay."""

from __future__ import annotations

import pytest

from repro.core.cache_worker import CacheWorker
from repro.core.policies import swift_policy
from repro.core.runtime import SwiftRuntime
from repro.core.shuffle import ShuffleScheme
from repro.sim.cluster import Cluster
from repro.sim.config import SimConfig
from repro.sim.failures import FailureKind, FailurePlan, FailureSpec

from conftest import MB, as_job, chain_dag, make_stage
from repro.core.dag import Edge, JobDAG


def wide_barrier_dag(m: int, n: int, mb_per_task: float = 10.0) -> JobDAG:
    stages = [
        make_stage("src", tasks=m, blocking=True, scan_mb=mb_per_task,
                   out_mb=mb_per_task),
        make_stage("dst", tasks=n, out_mb=0.0),
    ]
    return JobDAG(f"wide_{m}x{n}", stages, [Edge("src", "dst")])


def run(dag, policy=None, machines=8, executors=32, config=None):
    cluster = Cluster.build(machines, executors, config=config)
    runtime = SwiftRuntime(cluster, policy or swift_policy(), config=config)
    return runtime.execute(as_job(dag)), runtime


def test_adaptive_selects_by_edge_size():
    small, _ = run(wide_barrier_dag(20, 20))          # 400 edges
    assert small.metrics.shuffle_schemes["src->dst"] == "direct"
    medium, _ = run(wide_barrier_dag(150, 150))       # 22,500 edges
    assert medium.metrics.shuffle_schemes["src->dst"] == "remote"
    large, _ = run(wide_barrier_dag(320, 320), machines=16, executors=32)
    assert large.metrics.shuffle_schemes["src->dst"] == "local"


def test_fixed_scheme_policy_overrides_adaptive():
    result, _ = run(
        wide_barrier_dag(20, 20), policy=swift_policy(shuffle=ShuffleScheme.LOCAL)
    )
    assert result.metrics.shuffle_schemes["src->dst"] == "local"


def test_cache_worker_entries_released_after_consumption():
    _, runtime = run(
        wide_barrier_dag(150, 150),
        policy=swift_policy(shuffle=ShuffleScheme.REMOTE),
    )
    for machine in runtime.cluster.machines:
        worker: CacheWorker = machine.cache_worker
        assert len(worker) == 0
        assert worker.memory_used == 0.0


def test_cache_pressure_spills_and_still_completes():
    config = SimConfig()
    config.cache_worker.memory_capacity = 4 * 1024 ** 2  # 4 MiB per machine
    result, runtime = run(
        wide_barrier_dag(100, 100, mb_per_task=30.0),
        policy=swift_policy(shuffle=ShuffleScheme.LOCAL),
        config=config,
    )
    assert result.completed
    spilled = sum(m.cache_worker.bytes_spilled_total for m in runtime.cluster.machines)
    assert spilled > 0


def test_connections_fully_released_after_run():
    _, runtime = run(wide_barrier_dag(100, 100))
    assert runtime.cluster.network.open_connections == 0


def test_disk_scheme_is_slowest_for_wide_shuffles():
    times = {}
    for scheme in (ShuffleScheme.LOCAL, ShuffleScheme.DISK):
        result, _ = run(
            wide_barrier_dag(200, 200, mb_per_task=40.0),
            policy=swift_policy(shuffle=scheme),
            machines=16,
        )
        times[scheme] = result.metrics.run_time
    assert times[ShuffleScheme.DISK] > times[ShuffleScheme.LOCAL]


def test_pipeline_edges_have_no_barrier_wait():
    dag = chain_dag("noidle", n_stages=3)
    result, _ = run(dag)
    # Pipelined consumers begin within a launch-overhead of their plan.
    for t in result.metrics.tasks:
        assert t.data_arrive - t.plan_arrive < 2.0


# ----------------------------------------------------------------------
# Cache Worker replication and failover
# ----------------------------------------------------------------------

def run_with_cache_loss(replication_factor, machine_id=0, at_fraction=0.5):
    """A REMOTE-scheme wide shuffle with one Cache Worker killed mid-read."""
    config = SimConfig()
    config.shuffle.replication_factor = replication_factor

    def build():
        return wide_barrier_dag(120, 120, mb_per_task=10.0)  # 14,400 edges

    baseline_rt = SwiftRuntime(Cluster.build(8, 32), swift_policy(),
                               config=config)
    baseline = baseline_rt.execute(as_job(build()))
    assert baseline.completed
    plan = FailurePlan().add(FailureSpec(
        kind=FailureKind.CACHE_WORKER_LOSS,
        machine_id=machine_id, at_fraction=at_fraction,
    ))
    runtime = SwiftRuntime(
        Cluster.build(8, 32), swift_policy(), config=config,
        failure_plan=plan, reference_duration=baseline.metrics.finish_time,
    )
    result = runtime.execute(as_job(build()))
    return baseline, result, runtime


def test_cache_worker_loss_fails_over_to_replica():
    baseline, result, runtime = run_with_cache_loss(replication_factor=2)
    assert result.completed
    assert runtime.shuffle_recovery_log, "the loss never touched live entries"
    assert {r["action"] for r in runtime.shuffle_recovery_log} == {"failover"}
    assert all(r["survivors"] >= 1 for r in runtime.shuffle_recovery_log)
    # Failover serves the share from a replica: no producer re-runs, and no
    # recovery time added over the failure-free baseline.
    assert result.metrics.task_reruns == 0
    assert result.metrics.finish_time == pytest.approx(
        baseline.metrics.finish_time, rel=0.01
    )


def test_cache_worker_loss_without_replicas_reruns_producers():
    baseline, result, runtime = run_with_cache_loss(replication_factor=1)
    assert result.completed
    assert any(r["action"] == "rerun" for r in runtime.shuffle_recovery_log)
    assert result.metrics.task_reruns > 0
    # v1 pays the producer-rerun recovery penalty.
    assert result.metrics.finish_time > baseline.metrics.finish_time


def test_failover_emits_recovery_observability():
    from repro.obs import RecordingTracer

    config = SimConfig()
    config.shuffle.replication_factor = 2
    baseline_rt = SwiftRuntime(Cluster.build(8, 32), swift_policy(),
                               config=config)
    baseline = baseline_rt.execute(as_job(wide_barrier_dag(120, 120)))
    plan = FailurePlan().add(FailureSpec(
        kind=FailureKind.CACHE_WORKER_LOSS, machine_id=0, at_fraction=0.5,
    ))
    runtime = SwiftRuntime(
        Cluster.build(8, 32), swift_policy(), config=config,
        failure_plan=plan, reference_duration=baseline.metrics.finish_time,
        tracer=RecordingTracer(),
    )
    result = runtime.execute(as_job(wide_barrier_dag(120, 120)))
    assert result.completed
    names = {r.name for r in runtime.tracer.records}
    assert "shuffle.failover" in names
    assert "cache.drop_all" in names


# ----------------------------------------------------------------------
# Mode switching is result-preserving (differential test)
# ----------------------------------------------------------------------

def borderline_diamond() -> JobDAG:
    """a -> {b, c} -> d with every edge at 12,100 shuffle size: statically
    REMOTE, within the demotion margin of the 10k Direct threshold."""
    stages = [
        make_stage("a", tasks=110, blocking=True, scan_mb=10.0, out_mb=10.0),
        make_stage("b", tasks=110, blocking=True, out_mb=10.0),
        make_stage("c", tasks=110, blocking=True, out_mb=10.0),
        make_stage("d", tasks=110, out_mb=0.0),
    ]
    edges = [Edge("a", "b"), Edge("a", "c"), Edge("b", "d"), Edge("c", "d")]
    return JobDAG("diff", stages, edges)


def coverage(result):
    cov: dict[str, set[int]] = {}
    for t in result.metrics.tasks:
        cov.setdefault(t.stage, set()).add(t.index)
    return cov


def differential_run(mode_switching: bool):
    config = SimConfig()
    config.shuffle.mode_switching = mode_switching
    # Hair-trigger pressure threshold so demotions actually fire mid-job.
    config.shuffle.pressure_demote_utilization = 1e-6
    runtime = SwiftRuntime(Cluster.build(8, 32), swift_policy(), config=config)
    result = runtime.execute(as_job(borderline_diamond()))
    return result, runtime


def test_mode_switching_never_changes_results():
    switched, rt_on = differential_run(mode_switching=True)
    static, rt_off = differential_run(mode_switching=False)
    assert switched.completed and static.completed
    # Adaptivity actually engaged in the switching run ...
    assert rt_on.mode_controller.switches > 0
    assert rt_off.mode_controller.switches == 0
    assert "direct" in switched.metrics.shuffle_schemes.values()
    # ... yet both runs finalize exactly the same (stage, index) outputs.
    assert coverage(switched) == coverage(static)


def test_loss_of_superseded_replica_is_neither_failover_nor_rerun():
    """A producer rerun rewrites its cross-unit edge onto new replica
    groups; the first write's copies stay in their Cache Workers.  Losing
    a worker that holds only such a copy serves no reads, so it must log
    no failover (there is no survivor to fail over to) and re-run nothing."""
    from repro.chaos.campaign import Campaign, ChaosEvent
    from repro.chaos.invariants import check_bounded_shuffle_recovery
    from repro.obs import Category, RecordingTracer

    # 120x120 over 16x32: the edge lands on machines 0-3 with replicas on
    # 4-7.  The src[0] crash at 1.21 s (before dst reads) re-runs it, and
    # the rewrite at ~2.68 s places the replicas on 8-11.  Machine 5 is
    # lost at 3.0 s, while dst still runs.
    events = [
        ChaosEvent(kind=FailureKind.TASK_CRASH.value, at_fraction=0.121,
                   stage="src", task_index=0),
        ChaosEvent(kind=FailureKind.CACHE_WORKER_LOSS.value, at_fraction=0.3,
                   machine_id=5),
    ]
    campaign = Campaign(seed=0, workload="terasort", profile="light",
                        events=events)
    tracer = RecordingTracer()
    runtime = SwiftRuntime(
        Cluster.build(16, 32), swift_policy(),
        failure_plan=campaign.to_failure_plan(), reference_duration=10.0,
        tracer=tracer,
    )
    result = runtime.execute(as_job(wide_barrier_dag(120, 120)))
    assert result.completed
    rewrites = tracer.of_category(Category.STAGE)
    assert [r.name for r in rewrites] == ["src", "src", "dst"]
    (lost,) = [
        r for r in tracer.of_category(Category.FAILURE)
        if r.name == "cache_worker.lost"
    ]
    assert lost.scope == "machine5" and lost.args["entries"] == 1
    assert rewrites[1].end < lost.ts < rewrites[2].end
    assert check_bounded_shuffle_recovery(campaign, runtime) == []
    assert runtime.shuffle_recovery_log == []
    assert result.metrics.task_reruns == 1


def _fresh_cache_utilization(cluster: Cluster) -> float:
    """Reference: one pass over the alive machines, summing in order."""
    used = capacity = 0.0
    for machine in cluster.machines:
        worker = machine.cache_worker
        if worker is None or not machine.alive:
            continue
        used += worker.memory_used
        capacity += worker.config.memory_capacity
    return used / capacity if capacity > 0 else 0.0


def test_cache_utilization_is_bit_identical_to_a_fresh_pass():
    # The mode controller reads this value, so the cached worker list must
    # not change a single bit of it, across health transitions too.
    runtime = SwiftRuntime(Cluster.build(6, 2), swift_policy())
    cluster = runtime.cluster
    for i, machine in enumerate(cluster.machines):
        machine.cache_worker.write("j", f"e{i}", 0.1 * MB * (i + 1) / 3, 1, now=0.0)
    assert runtime._cache_utilization() == _fresh_cache_utilization(cluster) > 0
    cluster.machines[2].mark_dead()
    cluster.machines[3].mark_read_only()
    cluster.machines[4].cache_worker.write("j", "late", 7.7 * MB, 1, now=1.0)
    assert runtime._cache_utilization() == _fresh_cache_utilization(cluster)
