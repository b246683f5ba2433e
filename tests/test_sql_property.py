"""Property-based differential test: columnar engine == row engine.

Hypothesis generates random tables (mixed int/float/string columns with
NULLs) crossed with random supported query fragments; every sample must
produce the same multiset of rows from both engines.  Results are
compared after canonical row sorting because not every generated
fragment carries a total ORDER BY.

The generators deliberately avoid the documented engine divergences:
no division or modulo (the row engine raises on a zero divisor mid-scan
where numpy masks the lane) and no NaN values (NaN group keys force the
columnar engine down its Python fallback anyway, which the conformance
corpus covers directly).
"""

from __future__ import annotations

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sql import (
    Catalog,
    QueryExecutor,
    TableSchema,
    execute_sql,
    parse,
    plan_statement,
)
from repro.sql.catalog import _cols

CATALOG = Catalog()
CATALOG.register(TableSchema(
    "t",
    _cols("i:int", "f:float", "s:str", "g:str"),
    base_rows=25, bytes_per_row=40,
))
# Join partners for the pushdown property: ``u`` shares the bare name ``i``
# with ``t``, ``v`` shares ``k`` with ``u`` and ``s`` with ``t``.
CATALOG.register(TableSchema(
    "u", _cols("k:int", "i:int", "h:str"), base_rows=10, bytes_per_row=20,
))
CATALOG.register(TableSchema(
    "v", _cols("k:int", "s:str", "w:float"), base_rows=10, bytes_per_row=20,
))

_FLOATS = (-2.5, -1.0, 0.0, 0.5, 1.25, 3.0, 7.5, 100.0)
_STRINGS = ("", "a", "ab", "abc", "b%", "c_d", "e*f", "x[y")
_GROUPS = ("g1", "g2", "g3")

_row = st.fixed_dictionaries({
    "i": st.one_of(st.none(), st.integers(-5, 20)),
    "f": st.one_of(st.none(), st.sampled_from(_FLOATS)),
    "s": st.one_of(st.none(), st.sampled_from(_STRINGS)),
    "g": st.sampled_from(_GROUPS),
})
_table = st.lists(_row, min_size=0, max_size=25)

_predicates = st.sampled_from([
    "i > {c}",
    "i <= {c}",
    "f >= {c}",
    "i + 1 < f",
    "i = {c} or f > {c}",
    "i is null",
    "f is not null",
    "s is null",
    "s = 'ab'",
    "s like 'a%'",
    "s like '%_%'",
    "s like 'e*f'",
    "s like '%b'",
    "s like '%[y'",
    "s in ('a', 'b%', 'zzz')",
    "g in ('g1', 'g3')",
    "not (i > {c})",
    "case when i > {c} then f > 0 else g = 'g2' end",
])

#: (select list, ORDER BY clauses valid over that output schema).
_SELECTS = [
    ("i, f, s, g", ("", " order by g, i", " order by f desc, i, s")),
    ("i + 1 as i2, f * 2 as f2, g", ("", " order by g, i2")),
    ("i - f as delta, s", ("", " order by delta, s")),
    ("-i as neg, f", ("", " order by neg desc, f")),
    ("case when i > {c} then 'hi' when i is null then 'null' "
     "else 'lo' end as bucket, g", ("", " order by bucket, g")),
    ("g || '-' || i as label, f", ("", " order by label")),
    ("coalesce(i, {c}) as filled, g", ("", " order by filled, g")),
    ("distinct g, s", ("", " order by g, s")),
]
_select_lists = st.sampled_from(_SELECTS)

_agg_lists = st.sampled_from([
    "count(*) as n, sum(f) as total",
    "count(i) as n, avg(f) as mean",
    "min(i) as lo, max(i) as hi",
    "min(s) as first_s, max(f) as peak",
    "sum(i) as si, count(s) as cs",
])

_limits = st.sampled_from(["", " limit 5"])


def _canon(rows: list[dict]) -> list[str]:
    return sorted(json.dumps(r, sort_keys=True, default=str) for r in rows)


def _run_both(sql: str, rows: list[dict]) -> None:
    database = {"t": rows}
    row = execute_sql(sql, database, CATALOG, engine="row").rows
    columnar = execute_sql(sql, database, CATALOG, engine="columnar").rows
    assert _canon(columnar) == _canon(row), sql


@settings(max_examples=60, deadline=None)
@given(rows=_table, select=_select_lists, pred=_predicates,
       c=st.integers(-3, 12), order_pick=st.integers(0, 7),
       limit=_limits)
def test_scan_fragments_agree(rows, select, pred, c, order_pick, limit):
    select_list, orders = select
    order = orders[order_pick % len(orders)]
    if limit and not order:
        # Both engines take a deterministic scan-order prefix, but the
        # canonical (sorted) comparison cannot express "any 5 of the
        # matches" — so only pair LIMIT with ORDER BY.
        limit = ""
    sql = (f"select {select_list.format(c=c)} from t "
           f"where {pred.format(c=c)}{order}{limit}")
    _run_both(sql, rows)


@settings(max_examples=60, deadline=None)
@given(rows=_table, aggs=_agg_lists, pred=_predicates, c=st.integers(-3, 12),
       grouped=st.booleans())
def test_aggregate_fragments_agree(rows, aggs, pred, c, grouped):
    group = " group by g" if grouped else ""
    head = f"g, {aggs}" if grouped else aggs
    sql = f"select {head} from t where {pred.format(c=c)}{group}"
    _run_both(sql, rows)


@settings(max_examples=40, deadline=None)
@given(left=_table, right=_table, c=st.integers(-3, 12),
       kind=st.sampled_from(["join", "left join"]))
def test_join_fragments_agree(left, right, c, kind):
    # Self-join keyed on a nullable int column: NULL keys never match.
    sql = (f"select a.i, a.g, b.f from t a {kind} t b on a.i = b.i "
           f"where a.f > {c} or a.f is null")
    _run_both(sql, left + right)


# Narrow key domains, so that joins match often and NULL keys are common.
_t_row = st.fixed_dictionaries({
    "i": st.one_of(st.none(), st.integers(0, 4)),
    "f": st.one_of(st.none(), st.sampled_from(_FLOATS)),
    "s": st.one_of(st.none(), st.sampled_from(_STRINGS)),
    "g": st.sampled_from(_GROUPS),
})
_u_row = st.fixed_dictionaries({
    "k": st.one_of(st.none(), st.integers(0, 3)),
    "i": st.one_of(st.none(), st.integers(0, 4)),
    "h": st.one_of(st.none(), st.sampled_from(("x", "y", "xy"))),
})
_v_row = st.fixed_dictionaries({
    "k": st.one_of(st.none(), st.integers(0, 3)),
    "s": st.one_of(st.none(), st.sampled_from(_STRINGS)),
    "w": st.one_of(st.none(), st.sampled_from(_FLOATS)),
})

#: WHERE conjuncts over ``t a`` and ``u b``.  The bare ``i`` and ``k``
#: name columns of two tables and must stay above the joins (``s`` too
#: once ``v c`` joins); ``g``/``h`` are unique and may move; the last
#: two mix tables or could raise, so they stay as well.
_CONJUNCTS = [
    "a.i > {c}",
    "a.f <= {c} or a.f is null",
    "g in ('g1', 'g3')",
    "s like 'a%'",
    "a.s like '%b%'",
    "b.k = {c}",
    "b.k is null",
    "h = 'x' or h is null",
    "not (h like 'x%')",
    "i = {c}",
    "k >= {c}",
    "a.i = b.i + 1",
]
#: Conjuncts that also need ``v c``.
_CONJUNCTS_V = [
    "c.k <> {c}",
    "w between -1.0 and 3.0",
    "c.s is not null",
    "coalesce(w, 0.0) < a.f",
]


_T_PAIR = [
    {"i": 1, "f": 0.5, "s": "a", "g": "g1"},
    {"i": 2, "f": 1.25, "s": "b%", "g": "g2"},
]


@settings(max_examples=150, deadline=None)
# A matched row failing a test of the NULL-filled side must go, an
# unmatched one stay: the test cannot move below the LEFT join.
@example(left=_T_PAIR, middle=[{"k": 0, "i": 1, "h": "x"}], right=[], c=2,
         kinds=("left join", None), picks=[_CONJUNCTS.index("b.k is null")])
# After a LEFT join the bare ``i`` is the right side's (NULL when
# unmatched), so it cannot move onto the left scan either.
@example(left=_T_PAIR, middle=[{"k": 0, "i": 1, "h": "x"}], right=[], c=2,
         kinds=("left join", None), picks=[_CONJUNCTS.index("i = {c}")])
@given(left=st.lists(_t_row, max_size=12), middle=st.lists(_u_row, max_size=12),
       right=st.lists(_v_row, max_size=12), c=st.integers(-1, 5),
       kinds=st.tuples(st.sampled_from(["join", "left join"]),
                       st.sampled_from(["join", "left join", None])),
       picks=st.lists(st.integers(0, 15), min_size=1, max_size=4))
def test_pushdown_matches_unpushed_plan(left, middle, right, c, kinds, picks):
    """Random WHERE conjuncts over 2-3-way inner/LEFT joins with NULL keys:
    every engine, running the pushed-down plan, returns exactly the rows of
    the row engine on the unpushed plan, in the same order."""
    first, second = kinds
    sql = f"select a.i, a.s, b.k, b.h from t a {first} u b on a.i = b.i"
    pool = _CONJUNCTS
    if second is not None:
        sql = sql.replace("b.h from", "b.h, c.s as cs, w from")
        sql += f" {second} v c on b.k = c.k"
        pool = _CONJUNCTS + _CONJUNCTS_V
    where = [pool[p % len(pool)].format(c=c) for p in picks]
    sql += " where " + " and ".join(f"({w})" for w in where)
    database = {"t": left, "u": middle, "v": right}
    plan = plan_statement(parse(sql), CATALOG)
    oracle = QueryExecutor(database, CATALOG).execute(plan)
    for engine in ("row", "columnar"):
        assert execute_sql(sql, database, CATALOG, engine=engine).rows == oracle, sql
