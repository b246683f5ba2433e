"""Placement cost must not grow with cluster size.

Replays one trace through the runtime on 250 and on 1,000 machines and
counts Python and C function calls with ``sys.setprofile``.  The count is
host-independent, so a per-decision loop over every machine fails this test
on any machine, however fast.  Both replays run the same trace, so they
make about the same number of placement decisions.
"""

from __future__ import annotations

import sys

from repro.core.policies import swift_policy
from repro.core.runtime import SwiftRuntime
from repro.sim.cluster import Cluster
from repro.workloads.traces import paper_scale_trace

#: Call-count ratio allowed between the 1,000- and 250-machine replays.
#: Per-decision O(M) scans give about 3.3; O(k log M) placement about 1.0.
MAX_CALL_RATIO = 1.6


def _replay_calls(n_machines: int) -> tuple[int, float]:
    jobs = paper_scale_trace(n_jobs=40, max_stage_tasks=150)
    runtime = SwiftRuntime(Cluster.build(n_machines, 4), swift_policy())
    calls = 0

    def count(frame: object, event: str, arg: object) -> None:
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(count)
    try:
        runtime.submit_all(jobs)
        runtime.run()
    finally:
        sys.setprofile(None)
    assert len(runtime.results) == len(jobs)
    return calls, max(r.metrics.finish_time for r in runtime.results)


def test_replay_calls_do_not_scale_with_cluster_size():
    small, small_makespan = _replay_calls(250)
    large, large_makespan = _replay_calls(1000)
    assert small_makespan > 0 and large_makespan > 0
    ratio = large / small
    assert ratio <= MAX_CALL_RATIO, (
        f"replay made {large} calls on 1,000 machines vs {small} on 250 "
        f"(ratio {ratio:.2f} > {MAX_CALL_RATIO}): some placement path scans "
        "the cluster per decision"
    )
