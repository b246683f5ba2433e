"""Tests for logical planning and physical DAG compilation."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.dag import EdgeMode
from repro.core.operators import OperatorKind as K
from repro.core.partition import partition_job
from repro.sql import FIG1_QUERY
from repro.sql.catalog import Catalog, CatalogError, DEFAULT_CATALOG, TableSchema, _cols
from repro.sql.logical import (
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    PlanError,
    explain,
    plan_children,
    plan_statement,
    push_down_filters,
    scans_in,
)
from repro.sql.parser import parse
from repro.sql.physical import PhysicalPlanner, compile_sql
from repro.workloads.tpch_sql import query_sql


def plan(sql):
    return plan_statement(parse(sql), DEFAULT_CATALOG)


def test_scan_filter_project():
    node = plan("select l_orderkey from lineitem where l_quantity > 10")
    assert isinstance(node, LogicalProject)
    assert isinstance(node.child, LogicalFilter)
    assert isinstance(node.child.child, LogicalScan)
    assert node.child.child.table == "lineitem"


def test_join_tree_left_deep():
    node = plan(
        "select 1 from lineitem l join orders o on l.l_orderkey = o.o_orderkey "
        "join part p on p.p_partkey = l.l_partkey"
    )
    assert isinstance(node, LogicalProject)
    top = node.child
    assert isinstance(top, LogicalJoin)
    assert isinstance(top.left, LogicalJoin)
    assert isinstance(top.right, LogicalScan)


def test_aggregate_sort_limit_stack():
    node = plan(
        "select l_returnflag, sum(l_quantity) q from lineitem "
        "group by l_returnflag order by q desc limit 5"
    )
    assert isinstance(node, LogicalLimit)
    assert isinstance(node.child, LogicalSort)
    assert isinstance(node.child.child, LogicalAggregate)


def test_aggregate_without_group_by():
    node = plan("select sum(l_quantity) from lineitem")
    assert isinstance(node, LogicalAggregate)
    assert node.group_by == []


def test_tpch_prefix_resolves():
    node = plan("select 1 from tpch_lineitem")
    assert scans_in(node)[0].table == "lineitem"


def test_unknown_table_raises():
    with pytest.raises(CatalogError):
        plan("select 1 from nonexistent")


def test_select_without_from_rejected():
    with pytest.raises(PlanError):
        plan("select 1")


def test_explain_renders_tree():
    text = explain(plan("select a from lineitem where l_quantity > 1 order by a"))
    assert "Scan(lineitem" in text
    assert "Sort" in text


def test_compile_produces_valid_dag():
    dag = compile_sql(
        "select l_returnflag, sum(l_quantity) from lineitem group by l_returnflag",
        scale_factor=100,
    )
    dag.validate()
    kinds = [op.kind for s in dag.stages.values() for op in s.operators]
    assert K.TABLE_SCAN in kinds
    assert K.STREAMED_AGGREGATE in kinds
    assert K.ADHOC_SINK in kinds


def test_compile_join_stages_are_blocking():
    """Sort-merge joins produce blocking stages, so their outgoing edges
    are barriers — the Fig. 4 pattern."""
    dag = compile_sql(
        "select 1 from lineitem l join orders o on l.l_orderkey = o.o_orderkey",
        scale_factor=100,
    )
    join_stages = [s for s in dag.stages.values() if s.name.startswith("J")]
    assert join_stages and all(s.is_blocking for s in join_stages)
    for stage in join_stages:
        for edge in dag.out_edges(stage.name):
            assert dag.edge_mode(edge) == EdgeMode.BARRIER


def test_compile_fig1_matches_q9_shape():
    """The Fig. 1 text compiles to a DAG with Q9's structure: 6 scans,
    5 joins, an aggregate, a sort, and a sink, partitioned into multiple
    graphlets."""
    dag = compile_sql(FIG1_QUERY, scale_factor=1000, job_id="q9")
    scans = [s for s in dag.stages.values() if s.name.startswith("M")]
    joins = [s for s in dag.stages.values() if s.name.startswith("J")]
    assert len(scans) == 6
    assert len(joins) == 5
    graph = partition_job(dag)
    assert len(graph) >= 4
    assert dag.sinks() == [dag.topo_order()[-1]]


def test_scale_factor_scales_tasks():
    small = compile_sql("select 1 from lineitem", scale_factor=1)
    large = compile_sql("select 1 from lineitem", scale_factor=1000)
    assert large.total_tasks() > small.total_tasks()


def test_compiled_dag_runs_on_simulator():
    from repro import Cluster, Job, SwiftRuntime, swift_policy

    dag = compile_sql(FIG1_QUERY, scale_factor=50, job_id="sim_q9")
    runtime = SwiftRuntime(Cluster.build(20, 16), swift_policy())
    result = runtime.execute(Job(dag=dag))
    assert result.completed
    assert result.metrics.run_time > 0


def test_custom_catalog_registration():
    from repro.sql.catalog import Column, TableSchema

    catalog = Catalog()
    catalog.register(
        TableSchema("events", (Column("ts", "int"),), base_rows=10, bytes_per_row=8)
    )
    node = plan_statement(parse("select ts from events"), catalog)
    assert scans_in(node)[0].table == "events"


# ----------------------------------------------------------------------
# Filter pushdown
# ----------------------------------------------------------------------

#: sha256 prefixes of ``_dag_text(compile_sql(sql, scale_factor=100))``,
#: recorded before filter pushdown existed: execution-only pushdown must
#: leave every simulated DAG as it was.
DAG_DIGESTS = {
    "fig1": "d3ac4b84c4697c75",
    1: "9ce2f2069598f3b3",
    3: "bbeb5ee615c74a31",
    5: "e89bd0c1663d1175",
    6: "03ca77dbdea427e0",
    9: "d3ac4b84c4697c75",
    10: "ca06e48afbea02e7",
    12: "4a9cc0c488763a9f",
    13: "b2466789ecd03cff",
    14: "fa96fdfbb5293999",
    19: "d92f7f008a378879",
}


def _dag_text(dag) -> str:
    lines = [
        f"{s.name} x{s.task_count} scan={s.scan_bytes_per_task!r} "
        f"out={s.output_bytes_per_task!r} [{', '.join(map(str, s.operators))}]"
        for s in dag
    ]
    lines += [f"{e.src}->{e.dst} {dag.edge_mode(e).name}" for e in dag.edges]
    return "\n".join(lines)


def _digest(dag) -> str:
    return hashlib.sha256(_dag_text(dag).encode()).hexdigest()[:16]


def _pushed(sql, catalog=DEFAULT_CATALOG):
    return push_down_filters(plan_statement(parse(sql), catalog), catalog)


@pytest.mark.parametrize("key", list(DAG_DIGESTS), ids=str)
def test_pushdown_is_execution_only(key):
    sql = FIG1_QUERY if key == "fig1" else query_sql(key)
    assert _digest(compile_sql(sql, scale_factor=100)) == DAG_DIGESTS[key]


def test_pushed_plan_would_change_the_dag():
    """The digests above can tell: lowering the pushed Q9 plan differs."""
    planner = PhysicalPlanner(scale_factor=100)
    assert _digest(planner.plan(_pushed(query_sql(9)))) != DAG_DIGESTS[9]


def test_q9_like_filter_sits_on_part_scan():
    lines = explain(_pushed(query_sql(9))).splitlines()
    at = lines.index("                Filter((p_name like '%green%'))")
    assert lines[at + 1] == "                  Scan(part as p)"
    assert not any(line.strip().startswith("Filter") for line in lines[:at])


def _shared_catalog() -> Catalog:
    catalog = Catalog()
    catalog.register(TableSchema(
        "a", _cols("x:int", "k:int", "v:str"), base_rows=10, bytes_per_row=8
    ))
    catalog.register(TableSchema(
        "b", _cols("y:int", "k:int", "w:str"), base_rows=10, bytes_per_row=8
    ))
    return catalog


def _filters(node) -> dict[str, str]:
    """Scan binding (or "join" above the joins) -> its filter predicate."""
    found = {}
    for item in _walk(node):
        if isinstance(item, LogicalFilter):
            below = item.child
            found[below.binding if isinstance(below, LogicalScan) else "join"] = str(
                item.predicate
            )
    return found


def _walk(node):
    yield node
    for child in plan_children(node):
        yield from _walk(child)


@pytest.mark.parametrize("where,expected", [
    # Bare names found in one table move; the shared bare `k` stays.
    ("v = 'p' and w > 'q' and k = 1",
     {"a": "(v = 'p')", "b": "(w > 'q')", "join": "(k = 1)"}),
    # A qualified name resolves by its binding.
    ("a.k = 1 or a.k is null", {"a": "((a.k = 1) or is_null(a.k))"}),
    ("not (y in (1, 2)) and x between 1 and 5",
     {"a": "((x >= 1) and (x <= 5))", "b": "(not (y in (1, 2)))"}),
    # Column against column, arithmetic, functions: could raise, stay.
    ("x = y", {"join": "(x = y)"}),
    ("x + 1 > 2 and length(v) = 1", {"join": "(((x + 1) > 2) and (length(v) = 1))"}),
    # Ordering a str column against a number raises; equality never does.
    ("v < 3 and v = 3", {"join": "(v < 3)", "a": "(v = 3)"}),
])
def test_pushdown_rules(where, expected):
    catalog = _shared_catalog()
    sql = f"select v, w from a join b on a.x = b.y where {where}"
    assert _filters(_pushed(sql, catalog)) == expected


@pytest.mark.parametrize("kind,expected", [
    ("join", {"a": "(v = 'p')", "b": "(w = 'q')"}),
    ("left join", {"a": "(v = 'p')", "join": "(w = 'q')"}),
])
def test_pushdown_keeps_left_join_right_side(kind, expected):
    catalog = _shared_catalog()
    sql = f"select v, w from a {kind} b on a.x = b.y where v = 'p' and w = 'q'"
    assert _filters(_pushed(sql, catalog)) == expected


def test_pushdown_recurses_into_subqueries_only_for_their_own_where():
    catalog = _shared_catalog()
    sql = ("select v, n from a join (select y, w as n from b join a on b.y = a.x "
           "where w = 'q') s on a.x = s.y where n = 'r' and v = 'p'")
    pushed = _pushed(sql, catalog)
    # The outer conjunct on the subquery's output stays above the join.
    assert _filters(pushed) == {"a": "(v = 'p')", "b": "(w = 'q')", "join": "(n = 'r')"}


def test_pushdown_leaves_input_plan_alone_and_is_idempotent():
    plan = plan_statement(parse(query_sql(3)), DEFAULT_CATALOG)
    before = explain(plan)
    once = push_down_filters(plan)
    assert explain(plan) == before
    assert explain(push_down_filters(once)) == explain(once)
    assert explain(once) != before
