"""The benchmark's own ad-hoc query generator.

A copy of the ad-hoc grammar of ``repro.tpch.querygen`` (paper §7.1) as it
stood when this benchmark was defined, kept here so that the ``adhoc-cold``
workload does not change when the program's generator is fixed.  It keeps
that grammar's known defect on purpose: the WHERE clause joins predicates
with a bare ``AND``, so the pooled condition ``p_size > 40 OR p_type LIKE
'%COPPER%'`` is not parenthesised and swallows the join conjuncts.  Queries
of that shape plan as a ``NestedLoopJoin`` over a cross product.

The join graph, placement and condition pools are copied as data for the
same reason; only the table schemas (column names) are read from the
program, because the generated SQL must bind against them.
"""

from __future__ import annotations

import random

from repro.tpch import ALL_TABLES

_COLUMNS = {schema.name: list(schema.column_names) for schema in ALL_TABLES}

#: Home location of each table (Table 2 placement).
LOCATION = {
    "customer": "Europe",
    "orders": "Europe",
    "supplier": "Africa",
    "partsupp": "Africa",
    "part": "Asia",
    "lineitem": "NorthAmerica",
    "nation": "MiddleEast",
    "region": "MiddleEast",
}

#: Undirected PK-FK join graph: (table_a, col_a, table_b, col_b).
JOIN_EDGES = [
    ("nation", "n_regionkey", "region", "r_regionkey"),
    ("supplier", "s_nationkey", "nation", "n_nationkey"),
    ("customer", "c_nationkey", "nation", "n_nationkey"),
    ("partsupp", "ps_partkey", "part", "p_partkey"),
    ("partsupp", "ps_suppkey", "supplier", "s_suppkey"),
    ("orders", "o_custkey", "customer", "c_custkey"),
    ("lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem", "l_partkey", "part", "p_partkey"),
    ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
]

#: Per-table aggregation attributes, grouping attributes and predicates.
PROPERTIES: dict[str, dict[str, list[str]]] = {
    "customer": {
        "aggregatable": ["c_acctbal"],
        "groupable": ["c_nationkey", "c_mktsegment", "c_custkey"],
        "conditions": [
            "c_mktsegment = 'BUILDING'",
            "c_mktsegment = 'AUTOMOBILE'",
            "c_acctbal > 0",
            "c_nationkey < 10",
        ],
    },
    "orders": {
        "aggregatable": ["o_totalprice"],
        "groupable": ["o_custkey", "o_orderdate", "o_orderkey"],
        "conditions": [
            "o_orderdate >= DATE '1994-01-01'",
            "o_orderdate < DATE '1995-01-01'",
            "o_totalprice > 50000",
            "o_orderstatus = 'F'",
        ],
    },
    "lineitem": {
        "aggregatable": ["l_quantity", "l_extendedprice", "l_discount"],
        "groupable": ["l_orderkey", "l_suppkey", "l_partkey"],
        "conditions": [
            "l_shipdate > DATE '1995-03-15'",
            "l_returnflag = 'R'",
            "l_quantity < 25",
            "l_discount <= 0.05",
        ],
    },
    "supplier": {
        "aggregatable": ["s_acctbal"],
        "groupable": ["s_nationkey", "s_suppkey"],
        "conditions": ["s_acctbal > 0", "s_nationkey < 10"],
    },
    "partsupp": {
        "aggregatable": ["ps_supplycost", "ps_availqty"],
        "groupable": ["ps_partkey", "ps_suppkey"],
        "conditions": ["ps_availqty > 100", "ps_supplycost < 500"],
    },
    "part": {
        "aggregatable": ["p_retailprice", "p_size"],
        "groupable": ["p_brand", "p_mfgr", "p_partkey"],
        "conditions": [
            "p_size > 40 OR p_type LIKE '%COPPER%'",
            "p_size = 15",
            "p_retailprice < 1500",
        ],
    },
    "nation": {
        "aggregatable": [],
        "groupable": ["n_nationkey", "n_regionkey"],
        "conditions": ["n_regionkey < 3"],
    },
    "region": {
        "aggregatable": [],
        "groupable": ["r_regionkey"],
        "conditions": ["r_name = 'EUROPE'"],
    },
}


def generate(seed: int, count: int) -> list[str]:
    """``count`` ad-hoc queries from the grammar, seeded with ``seed``."""
    rng = random.Random(seed)
    return [_one(rng) for _ in range(count)]


def _one(rng: random.Random) -> str:
    n_tables = rng.choices([2, 3, 4], weights=[55, 35, 10])[0]
    tables, join_conjuncts = _join_subgraph(rng, n_tables)
    is_aggregate = rng.random() < 0.30
    # The bare " AND " join is the defect this workload keeps.
    where = " AND ".join(join_conjuncts + _predicates(rng, tables))
    if is_aggregate:
        select, group_by = _aggregate_outputs(rng, tables)
        sql = f"SELECT {select} FROM {', '.join(tables)} WHERE {where}"
        if group_by:
            sql += f" GROUP BY {', '.join(group_by)}"
        return sql
    select = ", ".join(_output_columns(rng, tables))
    return f"SELECT {select} FROM {', '.join(tables)} WHERE {where}"


def _neighbors(table: str) -> list[tuple[str, str, str]]:
    out = []
    for a, ca, b, cb in JOIN_EDGES:
        if a == table:
            out.append((b, ca, cb))
        elif b == table:
            out.append((a, cb, ca))
    return out


def _join_subgraph(rng: random.Random, n_tables: int) -> tuple[list[str], list[str]]:
    """Random connected FK subgraph spanning at least two locations."""
    for _attempt in range(200):
        tables = [rng.choice(sorted(_COLUMNS))]
        conjuncts: list[str] = []
        while len(tables) < n_tables:
            frontier = [
                (t, other, col, ocol)
                for t in tables
                for other, col, ocol in _neighbors(t)
                if other not in tables
            ]
            if not frontier:
                break
            t, other, col, ocol = rng.choice(frontier)
            tables.append(other)
            conjuncts.append(f"{t}.{col} = {other}.{ocol}")
        if len(tables) == n_tables and len({LOCATION[t] for t in tables}) >= 2:
            return tables, conjuncts
    raise RuntimeError("could not generate a multi-location join subgraph")


def _output_columns(rng: random.Random, tables: list[str], target: int = 4) -> list[str]:
    pool = [
        f"{t}.{col}"
        for t in tables
        for col in _COLUMNS[t]
        if not col.endswith("comment")
    ]
    k = min(len(pool), max(2, int(rng.gauss(target, 1))))
    return sorted(rng.sample(pool, k))


def _predicates(rng: random.Random, tables: list[str]) -> list[str]:
    pool = [
        _qualify(condition, t)
        for t in tables
        for condition in PROPERTIES[t]["conditions"]
    ]
    k = min(len(pool), rng.choice([3, 3, 4, 4]))
    return rng.sample(pool, k) if pool else []


def _aggregate_outputs(rng: random.Random, tables: list[str]) -> tuple[str, list[str]]:
    agg_pool = [(t, col) for t in tables for col in PROPERTIES[t]["aggregatable"]]
    group_pool = [(t, col) for t in tables for col in PROPERTIES[t]["groupable"]]
    items: list[str] = []
    group_by: list[str] = []
    if group_pool and rng.random() < 0.9:
        for t, col in rng.sample(group_pool, min(len(group_pool), rng.randint(1, 2))):
            group_by.append(f"{t}.{col}")
            items.append(f"{t}.{col}")
    if agg_pool:
        for t, col in rng.sample(agg_pool, min(len(agg_pool), rng.randint(1, 2))):
            func = rng.choice(["SUM", "AVG", "MIN", "MAX", "COUNT"])
            items.append(f"{func}({t}.{col}) AS {func.lower()}_{col}")
    else:
        items.append("COUNT(*) AS cnt")
    return ", ".join(items), group_by


def _qualify(condition: str, table: str) -> str:
    """Qualify bare column names with the table name (tables are their
    own aliases in the generated SQL)."""
    out = condition
    for col in _COLUMNS[table]:
        out = out.replace(col, f"{table}.{col}")
    return out
