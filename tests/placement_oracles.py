"""Reference placement implementations for differential tests.

These are the straightforward whole-cluster scans the Resource Scheduler
used before it kept a load index: ``min()`` over the replica pool per pick,
``nsmallest`` over every schedulable machine, and a heapified candidate
list of every machine with an idle executor.  They define the placements
the indexed versions in ``repro.core.scheduler`` must reproduce exactly.
"""

from __future__ import annotations

from heapq import heapify, heappop, nsmallest
from typing import Optional

from repro.core.scheduler import ReqItem, ResourceScheduler
from repro.sim.cluster import Cluster, Executor, Machine


def oracle_pick_replica_machines(
    primaries: list[Machine],
    candidates: list[Machine],
    replication_factor: int,
) -> list[list[Machine]]:
    """One ``min()`` over the pool for every replica picked."""
    groups = [[p] for p in primaries]
    if replication_factor <= 1:
        return groups
    pool = [m for m in candidates if m.cache_worker is not None]
    if len(pool) < 2:
        return groups
    primary_ids = {p.machine_id for p in primaries}
    assigned = {m.machine_id: 0 for m in pool}
    for group in groups:
        in_group = {group[0].machine_id}
        while len(group) < replication_factor:
            best = min(
                (m for m in pool if m.machine_id not in in_group),
                key=lambda m: (
                    assigned[m.machine_id],
                    m.machine_id in primary_ids,
                    m.cache_worker.memory_used,  # type: ignore[union-attr]
                    m.machine_id,
                ),
                default=None,
            )
            if best is None:
                break
            group.append(best)
            in_group.add(best.machine_id)
            assigned[best.machine_id] += 1
    return groups


def oracle_pick_locality_machines(cluster: Cluster, n_tasks: int) -> tuple[int, ...]:
    """``nsmallest`` by (load, id) over every schedulable machine."""
    machines = cluster.schedulable_machines()
    take = max(1, min(len(machines), -(-n_tasks // max(1, cluster.config.executors_per_machine))))
    best = nsmallest(take, machines, key=lambda m: (m.load(), m.machine_id))
    return tuple(m.machine_id for m in best)


def oracle_pick_executors(
    cluster: Cluster, item: ReqItem, needed: int
) -> Optional[list[Executor]]:
    """Locality pass over every schedulable machine, then a load pass over
    a heap of every schedulable machine with an idle executor."""
    chosen: list[Executor] = []
    if item.locality:
        preferred = set(item.locality)
        for machine in cluster.schedulable_machines():
            if machine.machine_id not in preferred:
                continue
            for executor in reversed(machine._free_stack):
                chosen.append(executor)
                if len(chosen) == needed:
                    return chosen
    cand = [
        (machine.load(), machine.machine_id, machine)
        for machine in cluster.schedulable_machines()
        if machine.idle_count > 0
    ]
    n_idle_machines = len(cand)
    heapify(cand)
    chosen_ids = {id(e) for e in chosen}
    still_needed = needed - len(chosen)
    target_pools = min(still_needed, n_idle_machines)
    pools: list[list[Executor]] = []
    available = 0
    while cand and (available < still_needed or len(pools) < target_pools):
        machine = heappop(cand)[2]
        pool = [e for e in machine._free_stack if id(e) not in chosen_ids]
        if pool:
            pools.append(pool)
            available += len(pool)
    cursor = 0
    active = [pool for pool in pools if pool]
    while len(chosen) < needed and active:
        pool = active[cursor % len(active)]
        chosen.append(pool.pop())
        if not pool:
            active.remove(pool)
        else:
            cursor += 1
    if len(chosen) < needed:
        return None
    return chosen


class OracleScheduler(ResourceScheduler):
    """A ResourceScheduler whose executor picks come from the oracle."""

    def _pick_executors(self, item: ReqItem, needed: int) -> Optional[list[Executor]]:
        return oracle_pick_executors(self.cluster, item, needed)


def expected_load_index(cluster: Cluster) -> list[tuple[float, int]]:
    """What the load index must hold: every schedulable machine by (load, id)."""
    return sorted(
        (m.load(), m.machine_id) for m in cluster.machines if m.accepts_tasks
    )
