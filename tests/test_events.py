"""Tests for the runtime event log."""

from __future__ import annotations

from repro.core.events import EventKind, EventLog, RuntimeEvent
from repro.core.policies import swift_policy
from repro.core.runtime import SwiftRuntime
from repro.baselines import restart_policy
from repro.sim.cluster import Cluster
from repro.sim.failures import FailureKind, FailurePlan, FailureSpec

from conftest import as_job, chain_dag


def test_event_log_record_and_query():
    log = EventLog()
    log.record(1.0, EventKind.JOB_SUBMITTED, "a")
    log.record(2.0, EventKind.JOB_COMPLETED, "a")
    log.record(1.5, EventKind.JOB_SUBMITTED, "b")
    assert len(log) == 3
    assert len(log.of_kind(EventKind.JOB_SUBMITTED)) == 2
    assert len(log.for_job("a")) == 2
    assert log.first(EventKind.JOB_COMPLETED).job_id == "a"
    assert log.first(EventKind.JOB_FAILED) is None


def test_event_log_capacity_bound():
    log = EventLog(capacity=5)
    for i in range(12):
        log.record(float(i), EventKind.STAGE_COMPLETED, "j", f"s{i}")
    assert len(log) == 5
    assert log.dropped == 7
    assert log.events[0].detail == "s7"


def test_event_log_overflow_keeps_the_tail():
    log = EventLog(capacity=3)
    for i in range(1_000):
        kind = EventKind.JOB_SUBMITTED if i % 2 else EventKind.JOB_COMPLETED
        log.record(float(i), kind, f"j{i}")
    assert len(log) == 3
    assert log.dropped == 997
    assert [e.job_id for e in log] == ["j997", "j998", "j999"]
    assert [e.job_id for e in log.of_kind(EventKind.JOB_SUBMITTED)] == ["j997", "j999"]
    assert log.for_job("j0") == []
    assert log.first(EventKind.JOB_COMPLETED).job_id == "j998"
    assert log.format_tail(2).splitlines() == [
        str(log.events[1]), str(log.events[2])
    ]


def test_event_str_and_tail():
    event = RuntimeEvent(1.25, EventKind.UNIT_GRANTED, "job", "unit 1")
    assert "unit_granted" in str(event)
    log = EventLog()
    log.record(1.0, EventKind.JOB_SUBMITTED, "x")
    assert "job_submitted" in log.format_tail()


def test_runtime_records_job_lifecycle():
    runtime = SwiftRuntime(Cluster.build(4, 8), swift_policy())
    runtime.execute(as_job(chain_dag("lc", blocking_stages=(1,))))
    kinds = [e.kind for e in runtime.events]
    assert EventKind.JOB_SUBMITTED in kinds
    assert EventKind.UNIT_REQUESTED in kinds
    assert EventKind.UNIT_GRANTED in kinds
    assert EventKind.STAGE_COMPLETED in kinds
    assert EventKind.JOB_COMPLETED in kinds
    # Two graphlets: two grants, in order, before completion.
    grants = runtime.events.of_kind(EventKind.UNIT_GRANTED)
    assert len(grants) == 2
    done = runtime.events.first(EventKind.JOB_COMPLETED)
    assert all(g.time <= done.time for g in grants)


def test_runtime_records_failure_and_recovery():
    dag = chain_dag("flog", blocking_stages=(1,), tasks=4)
    spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1", at_fraction=0.3)
    runtime = SwiftRuntime(
        Cluster.build(4, 8), swift_policy(),
        failure_plan=FailurePlan([spec]), reference_duration=5.0,
    )
    runtime.execute(as_job(dag))
    assert runtime.events.first(EventKind.FAILURE_INJECTED) is not None
    assert runtime.events.first(EventKind.TASK_RECOVERED) is not None


def test_runtime_records_restart():
    baseline = SwiftRuntime(Cluster.build(4, 8), restart_policy()).execute(
        as_job(chain_dag("rlog0", tasks=2))
    ).metrics.run_time
    dag = chain_dag("rlog", tasks=2)
    spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1", at_fraction=0.3)
    runtime = SwiftRuntime(
        Cluster.build(4, 8), restart_policy(),
        failure_plan=FailurePlan([spec]), reference_duration=baseline,
    )
    runtime.execute(as_job(dag))
    assert runtime.events.first(EventKind.JOB_RESTARTED) is not None
