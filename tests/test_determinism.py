"""Determinism guarantees of this reproduction.

Two invariants the performance work must never break:

* The parallel cell harness returns byte-identical experiment rows for
  any worker count (``--jobs N`` is a wall-clock knob, not a semantic
  one).
* The result-neutral knobs (event kernel, tracing, audit) never change
  JobMetrics, for every policy and with or without injected failures.
* Tracing observes without steering: a run with a RecordingTracer
  attached produces byte-identical results to an untraced run, and the
  tracer's task spans reproduce the runtime's busy intervals exactly.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from repro.baselines import bubble_policy, jetscope_policy, restart_policy
from repro.core.policies import swift_policy
from repro.core.runtime import SwiftRuntime
from repro.obs import Category, RecordingTracer
from repro.experiments import figures
from repro.experiments.harness import build_cluster
from repro.experiments.parallel import clear_memory_cache, set_default_jobs
from repro.sim.failures import sample_trace_failures
from repro.workloads import traces


@pytest.fixture(autouse=True)
def _clean_harness_state():
    clear_memory_cache()
    set_default_jobs(None)
    yield
    clear_memory_cache()
    set_default_jobs(None)


def test_serial_and_parallel_harness_rows_identical():
    """`--jobs 4` must reproduce the serial rows exactly."""
    serial = figures.fig9a_tpch(queries=(1, 6), scale=0.2)
    clear_memory_cache()
    set_default_jobs(4)
    parallel = figures.fig9a_tpch(queries=(1, 6), scale=0.2)
    assert parallel.rows == serial.rows
    assert parallel.to_json() == serial.to_json()


def test_parallel_cells_recompute_identically_without_cache():
    """Same experiment, fresh worker processes: identical payloads (no
    hidden per-process RNG state leaks into the cells).  Compared via
    to_json because off-paper sizes report paper_speedup as NaN."""
    set_default_jobs(2)
    sizes = ((30, 30), (60, 60))
    first = figures.table1_terasort(sizes=sizes)
    clear_memory_cache()
    second = figures.table1_terasort(sizes=sizes)
    assert first.to_json() == second.to_json()


def _failure_plan(jobs):
    return sample_trace_failures(
        [j.job_id for j in jobs], 0.5, random.Random(99)
    )


def _replay(make_policy, jobs, plan, *, kernel="array", tracer=None, audit=False):
    """``run_jobs`` with the result-neutral knobs exposed."""
    runtime = SwiftRuntime(
        build_cluster(),
        make_policy(),
        failure_plan=plan,
        kernel=kernel,
        tracer=tracer,
        audit=audit,
    )
    runtime.submit_all(list(jobs))
    return runtime.run(), runtime


def _assert_same_run(expected, actual):
    (expected_results, expected_rt), (actual_results, actual_rt) = expected, actual
    assert len(actual_results) == len(expected_results)
    for want, got in zip(expected_results, actual_results):
        assert got.job_id == want.job_id
        assert got.completed == want.completed
        assert got.metrics == want.metrics
    assert actual_rt.admin.stats.__dict__ == expected_rt.admin.stats.__dict__
    if expected_rt.tracer.enabled and actual_rt.tracer.enabled:
        # Busy intervals, aborted attempts included, live in the trace.
        assert actual_rt.tracer.task_intervals() == expected_rt.tracer.task_intervals()


@pytest.mark.parametrize("make_policy", [swift_policy, jetscope_policy, bubble_policy])
@pytest.mark.parametrize("with_failures", [False, True])
def test_result_neutral_knobs(make_policy, with_failures):
    """Kernel choice, tracing and audit are observation or implementation
    knobs, not model changes: every combination reproduces the plain
    array-kernel run's JobMetrics (timestamps, phase times, attempts) and
    admin stats exactly, with or without injected failures; the traced
    combinations also agree on every task interval, aborted ones included."""
    jobs = traces.generate_trace(
        traces.TraceConfig(n_jobs=8, mean_interarrival=0.2)
    )
    plan = _failure_plan(jobs) if with_failures else None
    reference = _replay(make_policy, jobs, plan)
    traced_reference = None
    for kernel, traced, audit in itertools.product(
        ("array", "legacy"), (False, True), (False, True)
    ):
        tracer = RecordingTracer() if traced else None
        run = _replay(
            make_policy, jobs, plan, kernel=kernel, tracer=tracer, audit=audit
        )
        _assert_same_run(reference, run)
        if traced:
            traced_reference = traced_reference or run
            _assert_same_run(traced_reference, run)


@pytest.mark.parametrize("make_policy", [swift_policy, restart_policy])
@pytest.mark.parametrize("with_failures", [False, True])
@pytest.mark.parametrize("audit", [True, False])
def test_tracing_does_not_perturb_simulation(make_policy, with_failures, audit):
    """Attaching a RecordingTracer is pure observation: results and admin
    stats stay byte-identical, and the finished task-attempt spans are
    exactly the ``(plan_arrive, finish)`` intervals of the returned
    JobMetrics (the record stream the figure scripts consume).  The audit
    ledger emits through the same tracer, so both audit settings are
    covered."""
    jobs = traces.generate_trace(
        traces.TraceConfig(n_jobs=6, mean_interarrival=0.2)
    )
    plan = _failure_plan(jobs) if with_failures else None
    plain = _replay(make_policy, jobs, plan, audit=audit)
    tracer = RecordingTracer()
    traced = _replay(make_policy, jobs, plan, tracer=tracer, audit=audit)
    _assert_same_run(plain, traced)
    finished = Counter(
        (r.ts, r.args["finish"])
        for r in tracer.of_category(Category.TASK)
        if not r.args.get("aborted")
    )
    assert finished == Counter(
        (t.plan_arrive, t.finish) for r in traced[0] for t in r.metrics.tasks
    )


# ----------------------------------------------------------------------
# Differential kernel property: array kernel vs legacy oracle
# ----------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.sim.engine import LegacySimulator, Simulator  # noqa: E402

_DELAYS = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)

#: One kernel operation: mirrors the full public surface the runtime uses.
_KERNEL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS, st.sampled_from([0, 10, 20])),
        st.tuples(st.just("batch"), st.lists(_DELAYS, max_size=12)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=255)),
        st.tuples(st.just("run_until"), _DELAYS),
        st.just(("run",)),
        st.just(("step",)),
        st.just(("clear",)),
    ),
    max_size=40,
)


def _recorder(log: list, tag: int, sim) -> object:
    def callback() -> None:
        log.append((tag, sim.now))
    return callback


@settings(max_examples=60, deadline=None)
@given(ops=_KERNEL_OPS)
def test_kernels_agree_on_random_interleavings(ops):
    """The array-backed kernel and the legacy object-heap oracle must be
    observationally identical under any schedule/cancel/clear/run
    interleaving: same execution order, same clock, same pending counts."""
    sims = (Simulator(), LegacySimulator())
    logs: tuple[list, list] = ([], [])
    handles: tuple[list, list] = ([], [])
    tag = 0
    for op in ops:
        kind = op[0]
        if kind == "schedule":
            _, delay, prio = op
            for sim, log, hs in zip(sims, logs, handles):
                hs.append(
                    sim.schedule(delay, _recorder(log, tag, sim), priority=prio)
                )
            tag += 1
        elif kind == "batch":
            _, delays = op
            for sim, log in zip(sims, logs):
                sim.schedule_batch(
                    [
                        (sim.now + delay, _recorder(log, tag + i, sim), ())
                        for i, delay in enumerate(delays)
                    ]
                )
            tag += len(delays)
        elif kind == "cancel":
            _, index = op
            if handles[0]:
                for hs in handles:
                    hs[index % len(hs)].cancel()
        elif kind == "run_until":
            _, delta = op
            for sim in sims:
                sim.run(until=sim.now + delta)
        elif kind == "run":
            for sim in sims:
                sim.run()
        elif kind == "step":
            stepped = [sim.step() for sim in sims]
            assert stepped[0] == stepped[1]
        else:  # clear
            cleared = [sim.clear_pending() for sim in sims]
            assert cleared[0] == cleared[1]
        assert sims[0].now == sims[1].now
        assert sims[0].pending_events() == sims[1].pending_events()
        assert logs[0] == logs[1]
    for sim in sims:
        sim.run()
    assert sims[0].now == sims[1].now
    assert logs[0] == logs[1]
    assert sims[0].events_processed == sims[1].events_processed
    assert sims[0].peek_time() == sims[1].peek_time()
    assert sims[0].peak_pending == sims[1].peak_pending
