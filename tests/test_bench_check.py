"""Unit tests for the bench regression gate (``repro bench --check``)."""

from __future__ import annotations

import pytest

from repro.experiments.bench import CHECK_METRICS, compare_payloads


def _payload(**speedups):
    return {name: {"speedup": value} for name, value in speedups.items()}


def test_identical_payloads_pass():
    payload = _payload(terasort=3.0, q1_aggregate=6.0)
    assert compare_payloads(payload, payload) == []


def test_regression_beyond_tolerance_is_reported():
    committed = _payload(q1_aggregate=8.0)
    fresh = _payload(q1_aggregate=5.0)  # 37.5% drop > 25% tolerance
    problems = compare_payloads(committed, fresh)
    assert len(problems) == 1
    assert "q1_aggregate.speedup" in problems[0]


def test_drop_within_tolerance_passes():
    committed = _payload(hash_join=4.0)
    fresh = _payload(hash_join=3.2)  # 20% drop < 25% tolerance
    assert compare_payloads(committed, fresh) == []


def test_improvement_always_passes():
    assert compare_payloads(_payload(terasort=2.0), _payload(terasort=9.0)) == []


def test_custom_tolerance():
    committed = _payload(filter_project=10.0)
    fresh = _payload(filter_project=9.4)
    assert compare_payloads(committed, fresh, tolerance=0.1) == []
    assert compare_payloads(committed, fresh, tolerance=0.05)


def test_missing_scenarios_are_skipped():
    # An old committed file without the SQL scenarios compares cleanly.
    committed = _payload(terasort=3.0)
    fresh = _payload(terasort=3.0, q1_aggregate=6.0)
    assert compare_payloads(committed, fresh) == []
    assert compare_payloads(fresh, committed) == []


def test_ungated_metrics_are_ignored():
    committed = {"terasort": {"speedup": 3.0, "array_tasks_per_s": 100.0}}
    fresh = {"terasort": {"speedup": 3.0, "array_tasks_per_s": 1.0}}
    assert compare_payloads(committed, fresh) == []


def test_invalid_tolerance_rejected():
    with pytest.raises(ValueError):
        compare_payloads({}, {}, tolerance=1.5)
    with pytest.raises(ValueError):
        compare_payloads({}, {}, tolerance=-0.1)


def test_gated_metrics_are_relative_only():
    # Absolute rates are host-dependent; the gate must only watch ratios.
    for metrics in CHECK_METRICS.values():
        assert all("per_s" not in metric and "ms" not in metric
                   for metric in metrics)


def test_parallel_replay_serial_mode_skips_speedup_gate():
    # A serial-degraded run (1-CPU host) commits speedup 1.0 by
    # construction; neither direction of the comparison may gate on it.
    pooled = {"parallel_replay": {"speedup": 2.5, "mode": "process-pool"}}
    degraded = {"parallel_replay": {"speedup": 1.0, "mode": "serial"}}
    assert compare_payloads(pooled, degraded) == []
    assert compare_payloads(degraded, pooled) == []
    assert compare_payloads(degraded, degraded) == []


def test_parallel_replay_pooled_runs_still_gated():
    committed = {"parallel_replay": {"speedup": 2.5, "mode": "process-pool"}}
    fresh = {"parallel_replay": {"speedup": 1.2, "mode": "process-pool"}}
    problems = compare_payloads(committed, fresh)
    assert len(problems) == 1
    assert "parallel_replay.speedup" in problems[0]


def test_scale_kernel_speedup_is_gated():
    committed = {"scale": {"kernel_speedup": 2.5, "events_per_s": 4e5}}
    fresh = {"scale": {"kernel_speedup": 1.0, "events_per_s": 1e5}}
    problems = compare_payloads(committed, fresh)
    assert len(problems) == 1
    assert "scale.kernel_speedup" in problems[0]


def test_replay_scaling_ceiling_is_absolute():
    # The cluster-size scaling ceiling fires on the fresh payload alone:
    # a committed value that was already too high must not excuse it.
    committed = {"scale": {"replay_scaling": 2.9}}
    fresh_bad = {"scale": {"replay_scaling": 2.2}}
    problems = compare_payloads(committed, fresh_bad)
    assert len(problems) == 1
    assert "scale.replay_scaling" in problems[0]
    assert compare_payloads(committed, {"scale": {"replay_scaling": 1.05}}) == []


def test_merge_payload_preserves_other_scenarios(tmp_path):
    import json

    from repro.experiments.bench import merge_payload, write_payload

    path = str(tmp_path / "bench.json")
    write_payload(path, {"terasort": {"speedup": 2.0}, "scale": {"kernel_speedup": 1.0}})
    merged = merge_payload(path, {"scale": {"kernel_speedup": 2.5}})
    assert merged["terasort"] == {"speedup": 2.0}
    assert merged["scale"] == {"kernel_speedup": 2.5}
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle) == merged


def test_service_overhead_ceiling_is_absolute():
    # The <10% gateway overhead budget fires on the fresh payload alone,
    # even when the committed file predates the service scenario.
    fresh_bad = {"service": {"direct_vs_gateway": 0.9, "overhead_frac": 0.12}}
    problems = compare_payloads({}, fresh_bad)
    assert len(problems) == 1
    assert "overhead budget" in problems[0]
    fresh_good = {"service": {"direct_vs_gateway": 1.0, "overhead_frac": 0.04}}
    assert compare_payloads({}, fresh_good) == []


def test_service_ratio_rides_relative_gate():
    committed = {"service": {"direct_vs_gateway": 1.0, "overhead_frac": 0.0}}
    fresh = {"service": {"direct_vs_gateway": 0.5, "overhead_frac": 0.05}}
    problems = compare_payloads(committed, fresh)
    assert len(problems) == 1
    assert "service.direct_vs_gateway" in problems[0]


def test_shuffle_recovery_floor_is_absolute():
    # v2 failover must beat v1 producer rerun on the fresh payload alone,
    # regardless of what (if anything) the committed file holds.
    fresh_bad = {"shuffle": {"recovery_improvement": 0.8}}
    problems = compare_payloads({}, fresh_bad)
    assert len(problems) == 1
    assert "failover" in problems[0]
    fresh_good = {"shuffle": {"recovery_improvement": 50.0}}
    assert compare_payloads({}, fresh_good) == []


def test_shuffle_improvement_rides_relative_gate():
    committed = {"shuffle": {"recovery_improvement": 100.0}}
    fresh = {"shuffle": {"recovery_improvement": 10.0}}
    problems = compare_payloads(committed, fresh)
    assert len(problems) == 1
    assert "shuffle.recovery_improvement" in problems[0]
