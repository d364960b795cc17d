"""Connected components: driver-side union-find vs the DuckDB
recursive-CTE oracle."""
import pandas as pd
import pytest

from repro.cc.union_find import components_from_edges
from repro.graph import generators as gen
from repro.oracle import assert_equivalent
from tests.oracle_sql import COMPONENTS


def _to_spark(spark, edges, n):
    e = spark.createDataFrame(pd.DataFrame(edges, columns=["u", "v"])) if edges else (
        spark.createDataFrame([], "u long, v long")
    )
    v = spark.createDataFrame(pd.DataFrame({"v": range(1, n + 1)}))
    return e, v


CASES = [
    ("path", [(1, 2), (2, 3), (3, 4), (4, 5)], 5),
    ("two_components", [(1, 2), (2, 3), (4, 5)], 6),
    ("star", [(1, x) for x in range(2, 8)], 7),
    ("cycle", [(1, 2), (2, 3), (3, 4), (4, 1)], 4),
    ("singletons", [], 4),
]


@pytest.mark.parametrize("name,edges,n", CASES, ids=[c[0] for c in CASES])
def test_union_find_matches_duckdb_cases(spark, name, edges, n):
    got = components_from_edges(edges, range(1, n + 1))
    e, v = _to_spark(spark, edges, n)
    pdf = pd.DataFrame(
        sorted(got.items()), columns=["v", "cluster"]
    )
    import duckdb

    con = duckdb.connect()
    con.register("edges", e.toPandas())
    con.register("verts", v.toPandas())
    expect = con.execute(COMPONENTS).fetchdf().sort_values("v").reset_index(drop=True)
    con.close()
    assert pdf.astype("int64").equals(expect.astype("int64"))


@pytest.mark.parametrize("seed", [0, 1])
def test_union_find_vs_duckdb_random(spark, seed):
    edges = gen.gnp_edges_pandas(50, 0.05, seed)[["u", "v"]]
    got = components_from_edges(list(map(tuple, edges.to_numpy())), range(1, 51))
    labels = spark.createDataFrame(
        pd.DataFrame(sorted(got.items()), columns=["v", "cluster"])
    )
    verts = pd.DataFrame({"v": range(1, 51)})
    assert_equivalent(labels, COMPONENTS, edges=edges, verts=verts)


def test_union_find_canonical_min_labels():
    got = components_from_edges([(3, 7), (7, 9)], [1, 3, 7, 9])
    assert got == {1: 1, 3: 3, 7: 3, 9: 3}
