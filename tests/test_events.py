"""Tests for the runtime's controller-event records in the tracer."""

from __future__ import annotations

from repro.core.policies import swift_policy
from repro.core.runtime import SwiftRuntime
from repro.baselines import restart_policy
from repro.obs import Category, RecordingTracer
from repro.obs.records import RecordKind
from repro.sim.cluster import Cluster
from repro.sim.failures import FailureKind, FailurePlan, FailureSpec

from conftest import as_job, chain_dag


def test_runtime_records_job_lifecycle():
    tracer = RecordingTracer()
    runtime = SwiftRuntime(Cluster.build(4, 8), swift_policy(), tracer=tracer)
    job = as_job(chain_dag("lc", blocking_stages=(1,)))
    runtime.execute(job)
    names = {r.name for r in tracer.records}
    assert {"job.submitted", "unit.requested", "unit.granted"} <= names
    stages = tracer.of_category(Category.STAGE)
    assert {r.name for r in stages} == set(job.dag.stages)
    assert all(r.kind is RecordKind.SPAN for r in stages)
    (job_span,) = [
        r for r in tracer.of_category(Category.JOB) if r.kind is RecordKind.SPAN
    ]
    assert job_span.name == job.job_id
    # Two graphlets: two grants, in order, before completion.
    grants = [r for r in tracer.of_category(Category.UNIT) if r.name == "unit.granted"]
    assert len(grants) == 2
    assert grants[0].ts <= grants[1].ts <= job_span.end


def test_runtime_records_failure_and_recovery():
    dag = chain_dag("flog", blocking_stages=(1,), tasks=4)
    spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1", at_fraction=0.3)
    tracer = RecordingTracer()
    runtime = SwiftRuntime(
        Cluster.build(4, 8), swift_policy(),
        failure_plan=FailurePlan([spec]), reference_duration=5.0, tracer=tracer,
    )
    runtime.execute(as_job(dag))
    names = [r.name for r in tracer.records]
    assert "failure.injected" in names
    assert "recovery.rerun" in names or "recovery.noop" in names


def test_runtime_records_restart():
    baseline = SwiftRuntime(Cluster.build(4, 8), restart_policy()).execute(
        as_job(chain_dag("rlog0", tasks=2))
    ).metrics.run_time
    dag = chain_dag("rlog", tasks=2)
    spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1", at_fraction=0.3)
    tracer = RecordingTracer()
    runtime = SwiftRuntime(
        Cluster.build(4, 8), restart_policy(),
        failure_plan=FailurePlan([spec]), reference_duration=baseline,
        tracer=tracer,
    )
    runtime.execute(as_job(dag))
    restarts = [r for r in tracer.of_category(Category.JOB) if r.name == "job.restarted"]
    assert [r.job_id for r in restarts] == [dag.job_id]
