"""Query execution: plan, push filters down, run on one engine.

``engine="auto"`` (the default everywhere) runs the query on the
vectorized columnar engine (:mod:`repro.sql.columnar`), which executes
every plan the planner emits.  ``engine="row"`` runs the row-at-a-time
:class:`~repro.sql.executor.QueryExecutor` instead: the reference oracle
that differential tests and benchmarks compare the columnar engine
against.  Both engines run the plan after
:func:`~repro.sql.logical.push_down_filters`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from .catalog import DEFAULT_CATALOG, Catalog
from .columnar import ColumnarExecutor
from .executor import Database, QueryExecutor, Row
from .logical import LogicalNode, plan_statement, push_down_filters
from .parser import parse

#: Accepted values for the ``engine`` parameter: ``"auto"`` is the
#: columnar engine, ``"row"`` the reference executor.
ENGINES = ("auto", "row")


@dataclass
class QueryOutcome:
    """One executed query: its rows plus where it ran."""

    rows: list[Row] = field(default_factory=list)
    #: Engine that ran the query: ``"columnar"`` or ``"row"``.
    engine: str = "columnar"
    #: Wall time of compiling (columnar) and running the plan.
    elapsed_s: float = 0.0


def execute_plan(
    plan: LogicalNode,
    database: Database,
    catalog: Optional[Catalog] = None,
    engine: str = "auto",
    batch_size: Optional[int] = None,
    tracer=None,
    metrics=None,
) -> QueryOutcome:
    """Push filters down in ``plan``, then run it on the selected engine."""
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    active_catalog = catalog or DEFAULT_CATALOG
    plan = push_down_filters(plan, active_catalog)
    started = perf_counter()
    if engine == "auto":
        chosen = "columnar"
        rows = ColumnarExecutor(
            database, active_catalog, batch_size, tracer=tracer, metrics=metrics
        ).execute(plan)
    else:
        chosen = "row"
        rows = QueryExecutor(database, active_catalog).execute(plan)
    elapsed = perf_counter() - started
    if metrics is not None:
        metrics.counter("sql_queries").inc()
        metrics.counter(f"sql_engine_{chosen}").inc()
        metrics.histogram("sql_query_s").observe(elapsed)
    if tracer is not None and tracer.enabled:
        tracer.instant(
            "sql", "dispatch", 0.0,
            engine=chosen, rows=len(rows), elapsed_s=round(elapsed, 6),
        )
        if chosen == "row":
            tracer.span("sql", "row.execute", 0.0, elapsed, rows=len(rows))
    return QueryOutcome(rows=rows, engine=chosen, elapsed_s=elapsed)


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
    """Parse, plan, and execute ``sql`` over ``database``; only the rows.

    The rows of :func:`execute_sql`'s outcome.
    """
    return execute_sql(
        sql, database, catalog, engine=engine, batch_size=batch_size,
        tracer=tracer, metrics=metrics,
    ).rows
