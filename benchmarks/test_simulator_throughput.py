"""Microbenchmarks of the substrate itself (not a paper figure).

These keep the simulator honest: the paper-scale experiments replay
hundreds of thousands of task events, so event throughput and end-to-end
job simulation rate are tracked here with real multi-round statistics.
"""

from repro.core.policies import swift_policy
from repro.core.runtime import SwiftRuntime
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.workloads import terasort


def test_event_engine_throughput(benchmark):
    def run_events():
        sim = Simulator()
        for i in range(10_000):
            sim.schedule(float(i % 97) / 10, lambda: None)
        sim.run()
        return sim.events_processed

    processed = benchmark(run_events)
    assert processed == 10_000


def test_terasort_simulation_rate(benchmark):
    def run_job():
        runtime = SwiftRuntime(Cluster.build(20, 16), swift_policy())
        return runtime.execute(terasort.terasort_job(100, 100))

    result = benchmark.pedantic(run_job, rounds=3, iterations=1)
    assert result.completed


def test_cancel_heavy_engine_throughput(benchmark):
    """Lazy deletion + compaction under a 75%-cancelled event load."""

    def run_events():
        sim = Simulator()
        events = [sim.schedule(float(i % 97) / 10, lambda: None)
                  for i in range(10_000)]
        for event in events[:7_500]:
            event.cancel()
        sim.run()
        return sim.events_processed

    processed = benchmark(run_events)
    assert processed == 2_500


def test_terasort_legacy_kernel_rate(benchmark):
    """The ``terasort`` bench baseline tracked alongside the array-kernel
    run above: the legacy object-heap kernel, driven by its peek/step loop."""
    from repro.experiments.bench import _run_terasort

    tasks = benchmark.pedantic(
        lambda: _run_terasort(100, 100, "legacy"),
        rounds=3, iterations=1,
    )
    assert tasks == 200


def test_multi_job_trace_replay_rate(benchmark):
    """End-to-end replay of a multi-job trace (the Fig. 10 workload shape)
    through the cell harness, including result normalization."""
    from repro.experiments.bench import bench_parallel_replay

    stats = benchmark.pedantic(
        lambda: bench_parallel_replay(n_jobs=60, workers=2),
        rounds=2, iterations=1,
    )
    assert stats["n_jobs"] == 60
    assert stats["serial_s"] > 0 and stats["parallel_s"] > 0


def test_partitioning_rate(benchmark):
    from repro.core.partition import partition_job
    from repro.workloads import tpch

    dag = tpch.query_dag(9)
    graph = benchmark(partition_job, dag)
    assert len(graph) == 4
