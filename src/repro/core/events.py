"""Structured runtime event log.

The Swift Admin works in an event-driven manner (Section II-C); this module
gives the runtime an inspectable audit trail of those events — job
admission, graphlet submission, resource grants, stage/unit/job completion,
failures, and recoveries.  Tests and debugging tools consume it; the
overhead is a single append per event.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, Optional


class EventKind(enum.Enum):
    """Controller-level event types recorded in the audit trail."""
    JOB_SUBMITTED = "job_submitted"
    UNIT_REQUESTED = "unit_requested"
    UNIT_GRANTED = "unit_granted"
    STAGE_COMPLETED = "stage_completed"
    UNIT_COMPLETED = "unit_completed"
    JOB_COMPLETED = "job_completed"
    JOB_FAILED = "job_failed"
    JOB_RESTARTED = "job_restarted"
    FAILURE_INJECTED = "failure_injected"
    TASK_RECOVERED = "task_recovered"
    MACHINE_QUARANTINED = "machine_quarantined"
    MACHINE_RECOVERED = "machine_recovered"
    CACHE_WORKER_LOST = "cache_worker_lost"


@dataclass(frozen=True)
class RuntimeEvent:
    """One entry in the audit trail."""

    time: float
    kind: EventKind
    job_id: str
    detail: str = ""

    def __str__(self) -> str:
        suffix = f" {self.detail}" if self.detail else ""
        return f"[{self.time:10.3f}] {self.kind.value:<18} {self.job_id}{suffix}"


@dataclass
class EventLog:
    """Append-only event log with query helpers.

    ``capacity`` bounds memory for long replays; once it is reached each
    append drops the oldest event in O(1) (0 means unbounded).
    """

    capacity: int = 0
    events: deque[RuntimeEvent] = field(init=False)
    dropped: int = 0

    def __post_init__(self) -> None:
        self.events = deque(maxlen=self.capacity or None)

    def record(
        self, time: float, kind: EventKind, job_id: str, detail: str = ""
    ) -> None:
        """Append one event, dropping the oldest past ``capacity``."""
        events = self.events
        if len(events) == events.maxlen:
            self.dropped += 1
        events.append(RuntimeEvent(time, kind, job_id, detail))

    def of_kind(self, kind: EventKind) -> list[RuntimeEvent]:
        """All events of one kind, in order."""
        return [e for e in self.events if e.kind == kind]

    def for_job(self, job_id: str) -> list[RuntimeEvent]:
        """All events of one job, in order."""
        return [e for e in self.events if e.job_id == job_id]

    def first(self, kind: EventKind, job_id: Optional[str] = None) -> Optional[RuntimeEvent]:
        """The earliest event of ``kind`` (optionally for one job)."""
        for event in self.events:
            if event.kind == kind and (job_id is None or event.job_id == job_id):
                return event
        return None

    def __iter__(self) -> Iterator[RuntimeEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def format_tail(self, n: int = 20) -> str:
        """Render the last ``n`` events, one per line."""
        tail = list(islice(reversed(self.events), n))
        return "\n".join(str(e) for e in reversed(tail))
