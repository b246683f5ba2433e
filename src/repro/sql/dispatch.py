"""Engine dispatch: route each query to the columnar or row executor.

The dispatcher compiles the logical plan for the columnar engine first;
if every operator is supported the query runs vectorized, otherwise it
falls back to the row executor (``engine="auto"``, the default).  Callers
can force either engine with ``engine="row"`` / ``engine="columnar"`` —
forcing columnar on an unsupported plan raises
:class:`~repro.sql.columnar.UnsupportedFeature`.  Both engines run the
plan after :func:`~repro.sql.logical.push_down_filters`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from .catalog import DEFAULT_CATALOG, Catalog
from .columnar import (
    ColumnarExecutor,
    UnsupportedFeature,
)
from .executor import Database, QueryExecutor, Row
from .logical import LogicalNode, plan_statement, push_down_filters
from .parser import parse

#: Accepted values for the ``engine`` parameter.
ENGINES = ("auto", "row", "columnar")


@dataclass
class QueryOutcome:
    """One executed query: its rows plus how and where it ran."""

    rows: list[Row] = field(default_factory=list)
    #: Engine that actually ran the query: ``"row"`` or ``"columnar"``.
    engine: str = "row"
    #: Engine the caller asked for (``"auto"`` when dispatched).
    requested: str = "auto"
    #: Why the dispatcher picked ``engine``.
    reason: str = ""
    elapsed_s: float = 0.0


def choose_engine(
    plan: LogicalNode,
    database: Database,
    catalog: Optional[Catalog] = None,
    batch_size: Optional[int] = None,
) -> tuple[str, str]:
    """``(engine, reason)`` the dispatcher would pick for ``plan``."""
    try:
        ColumnarExecutor(database, catalog, batch_size).compile(plan)
    except UnsupportedFeature as exc:
        return "row", f"columnar fallback: {exc}"
    return "columnar", "all operators supported"


def engine_for(
    sql: str, database: Database, catalog: Optional[Catalog] = None
) -> tuple[str, str]:
    """``(engine, reason)`` auto-dispatch would pick for ``sql``."""
    active = catalog or DEFAULT_CATALOG
    plan = plan_statement(parse(sql), active)
    return choose_engine(plan, database, active)


def execute_plan(
    plan: LogicalNode,
    database: Database,
    catalog: Optional[Catalog] = None,
    engine: str = "auto",
    batch_size: Optional[int] = None,
    tracer=None,
    metrics=None,
) -> QueryOutcome:
    """Push filters down in ``plan``, then run it on the selected (or auto-picked) engine."""
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    active_catalog = catalog or DEFAULT_CATALOG
    plan = push_down_filters(plan, active_catalog)
    chosen, reason, compiled = engine, "", None
    if engine in ("auto", "columnar"):
        executor = ColumnarExecutor(
            database, active_catalog, batch_size, tracer=tracer, metrics=metrics
        )
        try:
            compiled = executor.compile(plan)
            chosen, reason = "columnar", "all operators supported"
        except UnsupportedFeature as exc:
            if engine == "columnar":
                raise
            chosen, reason = "row", f"columnar fallback: {exc}"
    else:
        chosen, reason = "row", "row engine requested"
    started = perf_counter()
    if compiled is not None:
        rows = executor.run(compiled)
    else:
        rows = QueryExecutor(database, active_catalog).execute(plan)
    elapsed = perf_counter() - started
    if metrics is not None:
        metrics.counter("sql_queries").inc()
        metrics.counter(f"sql_engine_{chosen}").inc()
        metrics.histogram("sql_query_s").observe(elapsed)
    if tracer is not None and tracer.enabled:
        tracer.instant(
            "sql", "dispatch", 0.0,
            engine=chosen, requested=engine, reason=reason,
            rows=len(rows), elapsed_s=round(elapsed, 6),
        )
        if chosen == "row":
            tracer.span("sql", "row.execute", 0.0, elapsed, rows=len(rows))
    return QueryOutcome(
        rows=rows, engine=chosen, requested=engine,
        reason=reason, elapsed_s=elapsed,
    )


def execute_sql(
    sql: str,
    database: Database,
    catalog: Optional[Catalog] = None,
    engine: str = "auto",
    batch_size: Optional[int] = None,
    tracer=None,
    metrics=None,
) -> QueryOutcome:
    """Parse, plan, and run ``sql``; returns the full outcome."""
    active = catalog or DEFAULT_CATALOG
    plan = plan_statement(parse(sql), active)
    return execute_plan(
        plan, database, active, engine=engine, batch_size=batch_size,
        tracer=tracer, metrics=metrics,
    )


def run_query(
    sql: str,
    database: Database,
    catalog: Optional[Catalog] = None,
    engine: str = "auto",
    batch_size: Optional[int] = None,
    tracer=None,
    metrics=None,
) -> list[Row]:
    """Parse, plan, and execute ``sql`` over ``database``.

    Drop-in replacement for the row-only
    :func:`repro.sql.executor.run_query`, with engine dispatch.
    """
    return execute_sql(
        sql, database, catalog, engine=engine, batch_size=batch_size,
        tracer=tracer, metrics=metrics,
    ).rows
