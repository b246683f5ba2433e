"""Typed configuration for the public API.

:class:`RuntimeConfig` consolidates what used to be a spread of ad-hoc
``SwiftRuntime.__init__`` keyword arguments plus the
:class:`~repro.sim.config.SimConfig` knobs into one validated dataclass
with a ``to_dict``/``from_dict`` round trip, so experiment specs and CLI
invocations can be persisted and replayed exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping, Union

from ..core.partition import (
    BubblePartitioner,
    Partitioner,
    StagePartitioner,
    SwiftPartitioner,
    WholeJobPartitioner,
)
from ..core.policies import (
    ExecutionPolicy,
    FailureRecovery,
    LaunchModel,
    SubmissionOrder,
    swift_policy,
)
from ..core.shuffle import ShuffleScheme
from ..sim.config import (
    AdminConfig,
    CacheWorkerConfig,
    DiskConfig,
    ExecutorConfig,
    NetworkConfig,
    RetryConfig,
    ShuffleConfig,
    SimConfig,
)
from ..sim.failures import FailureKind, FailurePlan, FailureSpec

#: Partitioner registry used by the policy round trip.
_PARTITIONERS: dict[str, type] = {
    "swift": SwiftPartitioner,
    "whole_job": WholeJobPartitioner,
    "per_stage": StagePartitioner,
    "bubble": BubblePartitioner,
}

#: ``reference_duration`` accepts one global value or a per-job mapping.
ReferenceDuration = Union[float, dict[str, float]]


def _policy_to_dict(policy: ExecutionPolicy) -> dict[str, Any]:
    return {
        "name": policy.name,
        "partitioner": policy.partitioner.name,
        "submission": policy.submission.value,
        "shuffle": policy.shuffle.value,
        "cross_unit_shuffle": (
            None if policy.cross_unit_shuffle is None
            else policy.cross_unit_shuffle.value
        ),
        "launch": policy.launch.value,
        "recovery": policy.recovery.value,
        "pipelined_execution": policy.pipelined_execution,
        "gang": policy.gang,
    }


def _policy_from_dict(payload: Mapping[str, Any]) -> ExecutionPolicy:
    partitioner_name = str(payload.get("partitioner", "swift"))
    partitioner_cls = _PARTITIONERS.get(partitioner_name)
    if partitioner_cls is None:
        raise ValueError(f"unknown partitioner {partitioner_name!r}")
    partitioner: Partitioner = partitioner_cls()
    cross = payload.get("cross_unit_shuffle")
    return ExecutionPolicy(
        name=str(payload.get("name", "swift")),
        partitioner=partitioner,
        submission=SubmissionOrder(payload.get("submission", "conservative")),
        shuffle=ShuffleScheme(payload.get("shuffle", "adaptive")),
        cross_unit_shuffle=None if cross is None else ShuffleScheme(cross),
        launch=LaunchModel(payload.get("launch", "prelaunched")),
        recovery=FailureRecovery(payload.get("recovery", "fine_grained")),
        pipelined_execution=bool(payload.get("pipelined_execution", True)),
        gang=bool(payload.get("gang", True)),
    )


def _sim_config_to_dict(config: SimConfig) -> dict[str, Any]:
    payload = dataclasses.asdict(config)
    # Tuples JSON-serialize as lists; normalise here so the round trip is
    # exact after a json.dumps/json.loads cycle as well.
    payload["admin"]["heartbeat_intervals"] = [
        list(pair) for pair in config.admin.heartbeat_intervals
    ]
    return payload


def _sim_config_from_dict(payload: Mapping[str, Any]) -> SimConfig:
    admin_payload = dict(payload.get("admin", {}))
    if "heartbeat_intervals" in admin_payload:
        admin_payload["heartbeat_intervals"] = tuple(
            (int(limit), float(interval))
            for limit, interval in admin_payload["heartbeat_intervals"]
        )
    top = {
        key: payload[key]
        for key in ("executors_per_machine", "task_processing_rate",
                    "pipeline_flush_latency", "seed")
        if key in payload
    }
    return SimConfig(
        network=NetworkConfig(**payload.get("network", {})),
        disk=DiskConfig(**payload.get("disk", {})),
        cache_worker=CacheWorkerConfig(**payload.get("cache_worker", {})),
        shuffle=ShuffleConfig(**payload.get("shuffle", {})),
        admin=AdminConfig(**admin_payload),
        executor=ExecutorConfig(**payload.get("executor", {})),
        retry=RetryConfig(**payload.get("retry", {})),
        **top,
    )


def _failure_plan_to_list(plan: FailurePlan) -> list[dict[str, Any]]:
    return [
        {
            "kind": spec.kind.value,
            "stage": spec.stage,
            "task_index": spec.task_index,
            "machine_id": spec.machine_id,
            "at_time": spec.at_time,
            "at_fraction": spec.at_fraction,
            "job_id": spec.job_id,
            "duration": spec.duration,
        }
        for spec in plan.specs
    ]


def _failure_plan_from_list(items: list[Mapping[str, Any]]) -> FailurePlan:
    plan = FailurePlan()
    for item in items:
        plan.add(
            FailureSpec(
                kind=FailureKind(item.get("kind", "task_crash")),
                stage=item.get("stage"),
                task_index=item.get("task_index"),
                machine_id=item.get("machine_id"),
                at_time=item.get("at_time"),
                at_fraction=item.get("at_fraction"),
                job_id=item.get("job_id"),
                duration=item.get("duration"),
            )
        )
    return plan


@dataclass
class RuntimeConfig:
    """Everything needed to build a runnable cluster + runtime pair.

    Consolidates the cluster shape, the execution policy, the simulator
    calibration (:class:`~repro.sim.config.SimConfig`), the failure plan,
    and the runtime switches that used to be loose keyword arguments.
    """

    #: Cluster shape (the paper's testbed is 100 machines x 32 executors).
    n_machines: int = 100
    executors_per_machine: int = 32
    #: System under test; defaults to Swift's production bundle.
    policy: ExecutionPolicy = field(default_factory=swift_policy)
    #: Simulator calibration constants.
    sim: SimConfig = field(default_factory=SimConfig)
    #: Failures to inject (empty plan = failure-free run).
    failure_plan: FailurePlan = field(default_factory=FailurePlan)
    #: Non-failure job duration used to resolve ``at_fraction`` failures.
    reference_duration: ReferenceDuration = 100.0
    #: Wire a :class:`repro.audit.ResourceLedger` through the runtime so
    #: every register/release of connections, Cache Worker bytes, and
    #: executor slots is reconciled at checkpoints.
    audit: bool = False
    #: Strict audit raises :class:`repro.audit.AuditError` on the first
    #: violation; non-strict records violations and emits obs instants.
    audit_strict: bool = True

    def validate(self) -> "RuntimeConfig":
        """Validate every field; returns self so calls can chain."""
        if self.n_machines < 1:
            raise ValueError("n_machines must be >= 1")
        if self.executors_per_machine < 1:
            raise ValueError("executors_per_machine must be >= 1")
        if isinstance(self.reference_duration, dict):
            if any(v <= 0 for v in self.reference_duration.values()):
                raise ValueError("reference durations must be positive")
        elif self.reference_duration <= 0:
            raise ValueError("reference_duration must be positive")
        self.sim.validate()
        return self

    def to_dict(self) -> dict[str, Any]:
        """Flatten to a JSON-serializable document (see :meth:`from_dict`)."""
        return {
            "n_machines": self.n_machines,
            "executors_per_machine": self.executors_per_machine,
            "policy": _policy_to_dict(self.policy),
            "sim": _sim_config_to_dict(self.sim),
            "failure_plan": _failure_plan_to_list(self.failure_plan),
            "reference_duration": self.reference_duration,
            "audit": self.audit,
            "audit_strict": self.audit_strict,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RuntimeConfig":
        """Rebuild a validated config from :meth:`to_dict` output."""
        reference: ReferenceDuration
        raw_reference = payload.get("reference_duration", 100.0)
        if isinstance(raw_reference, Mapping):
            reference = {str(k): float(v) for k, v in raw_reference.items()}
        else:
            reference = float(raw_reference)
        config = cls(
            n_machines=int(payload.get("n_machines", 100)),
            executors_per_machine=int(payload.get("executors_per_machine", 32)),
            policy=_policy_from_dict(payload.get("policy", {})),
            sim=_sim_config_from_dict(payload.get("sim", {})),
            failure_plan=_failure_plan_from_list(
                list(payload.get("failure_plan", []))
            ),
            reference_duration=reference,
            audit=bool(payload.get("audit", False)),
            audit_strict=bool(payload.get("audit_strict", True)),
        )
        return config.validate()
