"""Undirected-graph representation over Spark DataFrames.

The canonical form of a graph is an edge DataFrame with columns
``u: long, v: long, w: double`` where ``u < v``, no duplicate edges and
no self-loops (the paper only considers simple graphs, §2.2). Vertices
are the integers ``1..n`` (the paper compacts IDs the same way, §7.1).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

#: Schema of the canonical edge DataFrame.
EDGE_COLUMNS = ("u", "v", "w")


def canonical_edges(df: DataFrame) -> DataFrame:
    """Normalize an edge DataFrame to canonical form.

    Accepts columns ``(u, v)`` or ``(u, v, w)``; missing weights default
    to 1.0 (unweighted graphs are weight-1 graphs throughout the repo).
    Orients each edge so ``u < v``, drops self-loops and duplicates.
    """
    if "w" not in df.columns:
        df = df.withColumn("w", F.lit(1.0))
    return (
        df.select(
            F.least("u", "v").cast("long").alias("u"),
            F.greatest("u", "v").cast("long").alias("v"),
            F.col("w").cast("double").alias("w"),
        )
        .where(F.col("u") < F.col("v"))
        .dropDuplicates(["u", "v"])
    )


def _check_edge_list(pdf: pd.DataFrame, num_vertices: int) -> None:
    """Reject a non-empty pandas edge list that does not describe a
    graph on ``1..num_vertices`` with finite positive weights."""
    ids = pdf[["u", "v"]]
    if not all(pd.api.types.is_integer_dtype(t) for t in ids.dtypes):
        raise ValueError(f"vertex ids must be integers, got dtypes {list(ids.dtypes)}")
    lo, hi = int(ids.min().min()), int(ids.max().max())
    if lo < 1 or hi > num_vertices:
        raise ValueError(
            f"vertex ids must lie in 1..{num_vertices}, got ids in {lo}..{hi}"
        )
    if "w" in pdf.columns:
        w = pdf["w"].to_numpy(dtype=float)
        bad = ~(np.isfinite(w) & (w > 0))
        if bad.any():
            raise ValueError(
                f"edge weights must be finite and > 0, got {w[bad][0]!r} "
                f"({int(bad.sum())} bad)"
            )


@dataclass
class UndirectedGraph:
    """A simple undirected (optionally weighted) graph.

    ``edges`` is canonical (see :func:`canonical_edges`);
    ``num_vertices`` fixes the vertex universe ``1..num_vertices`` so
    zero-degree vertices exist (they are trivial SCAN outliers).
    """

    edges: DataFrame
    num_vertices: int
    weighted: bool = False
    _num_edges: int | None = field(default=None, repr=False)

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_pandas(
        spark: SparkSession,
        pdf: pd.DataFrame,
        num_vertices: int | None = None,
        weighted: bool = False,
    ) -> "UndirectedGraph":
        """Build from a pandas edge list with columns (u, v[, w]).

        Raises ``ValueError`` for vertex ids that are not integers in
        ``1..num_vertices`` and for weights that are not finite and
        positive: an edge to a vertex outside the universe, or one NaN
        weight, would otherwise give silently wrong similarities.
        """
        if num_vertices is None:
            num_vertices = 0 if pdf.empty else int(pdf[["u", "v"]].to_numpy().max())
        if pdf.empty:
            # createDataFrame cannot infer a schema from zero rows.
            edges = spark.createDataFrame([], "u long, v long, w double")
        else:
            _check_edge_list(pdf, num_vertices)
            edges = canonical_edges(spark.createDataFrame(pdf))
        return UndirectedGraph(edges, num_vertices, weighted)

    @staticmethod
    def from_edge_list(
        spark: SparkSession,
        edge_list: list[tuple],
        num_vertices: int | None = None,
        weighted: bool = False,
    ) -> "UndirectedGraph":
        """Build from a python list of (u, v) or (u, v, w) tuples."""
        cols = ["u", "v", "w"][: len(edge_list[0])] if edge_list else ["u", "v"]
        pdf = pd.DataFrame(edge_list, columns=cols)
        return UndirectedGraph.from_pandas(spark, pdf, num_vertices, weighted)

    # -- views -------------------------------------------------------

    @property
    def spark(self) -> SparkSession:
        return self.edges.sparkSession

    def vertices(self) -> DataFrame:
        """DataFrame of all vertex IDs, column ``v``."""
        return self.spark.range(1, self.num_vertices + 1).select(
            F.col("id").alias("v")
        )

    def adjacency(self) -> DataFrame:
        """Symmetrized edges: one row per *directed* pair, (u, v, w)."""
        e = self.edges
        return e.unionByName(
            e.select(F.col("v").alias("u"), F.col("u").alias("v"), "w")
        )

    def degrees(self) -> DataFrame:
        """Open-neighborhood degree per vertex, (v, deg); includes 0s."""
        d = self.adjacency().groupBy(F.col("u").alias("v")).agg(
            F.count("*").alias("deg")
        )
        return (
            self.vertices()
            .join(d, "v", "left")
            .select("v", F.coalesce("deg", F.lit(0)).alias("deg"))
        )

    # -- scalars -----------------------------------------------------

    def num_edges(self) -> int:
        if self._num_edges is None:
            self._num_edges = self.edges.count()
        return self._num_edges

    # -- lifecycle ---------------------------------------------------

    def materialize(self) -> "UndirectedGraph":
        """Persist the edge DataFrame and force evaluation.

        All downstream algorithms read ``edges`` several times; caching
        once here keeps generator lineage (driver pandas upload) from
        being replayed per action.
        """
        self.edges = self.edges.persist()
        self._num_edges = self.edges.count()
        return self

    def unpersist(self) -> None:
        self.edges.unpersist()

    # -- export ------------------------------------------------------

    def to_pandas(self) -> pd.DataFrame:
        """Canonical edges as pandas, sorted by (u, v)."""
        return (
            self.edges.toPandas()
            .sort_values(["u", "v"])
            .reset_index(drop=True)
        )
