"""Differential tests: indexed placement against whole-cluster-scan oracles.

Random clusters (heterogeneous executor counts, random busy states, tied
Cache Worker memory use, read-only / dead / re-healed machines, machine ids
out of cluster order) must get exactly the placements the reference scans
in ``placement_oracles`` choose, and the cluster's load index must equal
``sorted((load, id))`` over the schedulable machines after any sequence of
executor and health transitions.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import (
    ReqItem,
    ResourceScheduler,
    pick_locality_machines,
    pick_replica_machines,
)
from repro.sim.cluster import Cluster, ExecutorState, Machine
from repro.sim.config import SimConfig

from placement_oracles import (
    OracleScheduler,
    expected_load_index,
    oracle_pick_executors,
    oracle_pick_locality_machines,
    oracle_pick_replica_machines,
)

OPS = ("assign", "release", "revoke", "relaunch", "read_only", "healthy", "dead")


class _Worker:
    """Stand-in Cache Worker: placement only reads ``memory_used``."""

    def __init__(self, memory_used: float) -> None:
        self.memory_used = memory_used


@st.composite
def cluster_specs(draw: st.DrawFn) -> dict:
    n = draw(st.integers(1, 10))
    return {
        # Distinct ids in arbitrary order, so id order != cluster order.
        "ids": draw(st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True)),
        "executors": draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
        # Few distinct values, so memory-use ties are common.
        "memory": draw(
            st.lists(
                st.none() | st.sampled_from([0.0, 1.0, 2.0]), min_size=n, max_size=n
            )
        ),
        "per_machine": draw(st.integers(1, 4)),
        "ops": draw(
            st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, n - 1)), max_size=40)
        ),
    }


def apply_op(machine: Machine, op: str) -> None:
    executors = machine.executors
    if op == "assign":
        # The bottom of the free stack exercises the remove() fallback.
        if machine._free_stack:
            machine._free_stack[0].assign("task")
    elif op == "release":
        busy = [
            e for e in executors
            if e.state in (ExecutorState.ASSIGNED, ExecutorState.RUNNING)
        ]
        if busy:
            busy[0].release()
    elif op == "revoke":
        if executors:
            executors[-1].revoke()
    elif op == "relaunch":
        if executors:
            executors[0].relaunch()
    elif op == "read_only":
        machine.mark_read_only()
    elif op == "healthy":
        machine.mark_healthy()
    else:
        machine.mark_dead()


def build(spec: dict) -> Cluster:
    machines = [Machine(i, k) for i, k in zip(spec["ids"], spec["executors"])]
    for machine, memory in zip(machines, spec["memory"]):
        if memory is not None:
            machine.cache_worker = _Worker(memory)
    cluster = Cluster(machines, SimConfig(executors_per_machine=spec["per_machine"]))
    for op, index in spec["ops"]:
        apply_op(cluster.machines[index], op)
    return cluster


def executor_ids(executors: list | None) -> list[int] | None:
    return None if executors is None else [e.executor_id for e in executors]


@given(cluster_specs())
@settings(max_examples=100, deadline=None)
def test_load_index_tracks_transitions(spec):
    cluster = build(spec)
    assert cluster.load_index() == expected_load_index(cluster)
    assert cluster.idle_machine_count() == sum(
        1 for m in cluster.schedulable_machines() if m.idle_count > 0
    )
    assert [m.machine_id for m in cluster.machines_by_load()] == [
        mid for _, mid in expected_load_index(cluster)
    ]


@given(cluster_specs(), st.integers(-2, 40))
@settings(max_examples=100, deadline=None)
def test_pick_locality_machines_matches_oracle(spec, n_tasks):
    cluster = build(spec)
    assert pick_locality_machines(cluster, n_tasks) == oracle_pick_locality_machines(
        cluster, n_tasks
    )


@given(cluster_specs(), st.data())
@settings(max_examples=100, deadline=None)
def test_pick_replica_machines_matches_oracle(spec, data):
    cluster = build(spec)
    candidates = data.draw(
        st.sampled_from(
            [cluster.schedulable_machines(), cluster.alive_machines(), cluster.machines]
        )
    )
    primaries = data.draw(st.lists(st.sampled_from(cluster.machines), max_size=6))
    factor = data.draw(st.integers(0, 5))
    got = pick_replica_machines(primaries, candidates, factor)
    want = oracle_pick_replica_machines(primaries, candidates, factor)
    assert [[m.machine_id for m in g] for g in got] == [
        [m.machine_id for m in g] for g in want
    ]


@given(cluster_specs(), st.data())
@settings(max_examples=100, deadline=None)
def test_pick_executors_matches_oracle(spec, data):
    cluster = build(spec)
    ids = spec["ids"]
    # Preferred ids may repeat, name unschedulable machines, or be unknown.
    locality = tuple(data.draw(st.lists(st.sampled_from(ids + [99]), max_size=5)))
    needed = data.draw(st.integers(1, cluster.free_executor_count() + 1))
    item = ReqItem(request_id=1, job_id="j", unit_id=1, n_executors=needed, locality=locality)
    scheduler = ResourceScheduler(cluster)
    assert executor_ids(scheduler._pick_executors(item, needed)) == executor_ids(
        oracle_pick_executors(cluster, item, needed)
    )


@given(cluster_specs(), st.data())
@settings(max_examples=60, deadline=None)
def test_schedule_matches_oracle_with_overlapping_locality(spec, data):
    """Whole scheduling rounds, bulk state update included, on two copies
    of one cluster: the indexed scheduler and the oracle scheduler must
    grant the same executors, round after round."""
    clusters = (build(spec), build(spec))
    schedulers = (ResourceScheduler(clusters[0]), OracleScheduler(clusters[1]))
    total = clusters[0].total_executors()
    ids = spec["ids"]
    for _ in range(data.draw(st.integers(1, 4))):
        for _ in range(data.draw(st.integers(0, 3))):
            # Requests draw from one small id set, so localities overlap.
            locality = tuple(data.draw(st.lists(st.sampled_from(ids), max_size=4)))
            n = data.draw(st.integers(1, max(1, total)))
            gang = data.draw(st.booleans()) and n <= total
            for scheduler in schedulers:
                scheduler.request("j", 1, n_executors=n, locality=locality, gang=gang)
        grants = [scheduler.schedule() for scheduler in schedulers]
        assert [executor_ids(g.executors) for g in grants[0]] == [
            executor_ids(g.executors) for g in grants[1]
        ]
        for cluster in clusters:
            assert cluster.load_index() == expected_load_index(cluster)
        # Finish some granted work and disturb machine health, identically
        # on both copies.
        release = data.draw(st.integers(0, 3))
        op = data.draw(st.tuples(st.sampled_from(OPS[4:]), st.integers(0, len(ids) - 1)))
        for cluster, cluster_grants in zip(clusters, grants):
            for grant in cluster_grants[:release]:
                for executor in grant.executors:
                    executor.release()
            apply_op(cluster.machines[op[1]], op[0])
            assert cluster.load_index() == expected_load_index(cluster)
