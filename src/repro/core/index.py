"""The SCAN index: neighbor order and core order (paper §3.2, §4.1.2).

Neighbor order ``NO[v]`` is the closed neighborhood of v sorted by
descending similarity; since sigma(v, v) = 1 is always the maximum, the
vertex itself is the implicit rank-1 entry and real neighbors occupy
ranks 2..deg(v)+1. NO is the rows ``(u, v, sim, rank)`` (rank ≥ 2).
Construction collects one similarity per edge to the driver, lists
each edge in both directions and ranks all of them with one numpy
lexsort by (u, sim descending, v) — GS*-Index's per-list sorts become
one sort over all lists, the driver-side counterpart of the paper's
"one single integer sort over all lists" trick (§4.1.2).

Core order ``CO[mu]`` lists every vertex with closed degree ≥ mu along
with its *core threshold* — its similarity with NO[v][mu] — sorted
descending. Because NO[v][mu] exists exactly when closed degree ≥ mu,
CO is precisely a re-keying of NO: row (v, x, sim, rank=mu) of NO is
row (mu, v, threshold=sim) of CO. So only NO is stored (O(m) rows);
CO is a column projection of it, derived on read.

Construction ends with NO on the driver: one collect brings one
similarity per edge (the one-stage builds of :mod:`repro.core.similarity`
and :mod:`repro.core.approx`), and the ranked rows become sorted
arrays (:mod:`repro.core.arrays`), which answer every query without a
Spark job. ``neighbor_order`` is a DataFrame made from those arrays on
first use: saving the index and CO read it, queries never do. The
index saves as one Parquet dataset plus a small metadata file; loading
it validates the rows and builds the same arrays. Construction
(expensive) is paid once and queries (cheap) are paid per (mu, eps) —
the paper's whole point. :func:`neighbor_order_from_similarities`
is the same ranking as a frame, for callers that hold similarities as
a frame.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.arrays import IndexArrays, rank_neighbor_order, validate_rows
from repro.core.similarity import exact_rows
from repro.graph.graphframe import UndirectedGraph
from repro.graph.triangles import collect_csr

#: Schema of the NO rows.
NO_SCHEMA = "u long, v long, sim double, rank int"


@dataclass
class SCANIndex:
    """Materialized SCAN index for one graph + similarity measure."""

    spark: SparkSession = field(repr=False)
    num_vertices: int
    measure: str
    # NO as (u, v, sim, rank) rows — rank >= 2, self implicit. A built
    # index makes it from its arrays on first use (neighbor_order).
    _neighbor_order: DataFrame | None = field(default=None, init=False, repr=False, compare=False)
    # The driver's sorted copy of NO and CO that queries read; made by
    # the build and by load(), dropped by unpersist().
    _arrays: IndexArrays | None = field(default=None, init=False, repr=False, compare=False)
    _released: bool = field(default=False, init=False, repr=False, compare=False)

    @staticmethod
    def from_similarities(
        spark: SparkSession, edges: pd.DataFrame, num_vertices: int, measure: str
    ) -> "SCANIndex":
        """The index of one similarity per edge, ``edges`` (u, v, sim),
        ranked on the driver."""
        u, v, sim, rank, order = rank_neighbor_order(
            edges["u"].to_numpy(np.int64),
            edges["v"].to_numpy(np.int64),
            edges["sim"].to_numpy(np.float64),
        )
        index = SCANIndex(spark, num_vertices, measure)
        index._arrays = IndexArrays.from_sorted(
            u[order], v[order], sim[order], rank[order], num_vertices
        )
        return index

    @property
    def neighbor_order(self) -> DataFrame:
        """NO: (u, v, sim, rank) — rank >= 2, self implicit.

        A built index makes this frame from its arrays on first use.
        """
        if self._neighbor_order is None:
            rows = self.arrays.rows()
            rows["rank"] = rows["rank"].astype(np.int32)
            self._neighbor_order = self.spark.createDataFrame(rows, NO_SCHEMA)
        return self._neighbor_order

    @property
    def core_order(self) -> DataFrame:
        """CO as a view of NO: (mu, v, threshold) — mu >= 2."""
        return self.neighbor_order.select(
            F.col("rank").alias("mu"),
            F.col("u").alias("v"),
            F.col("sim").alias("threshold"),
        )

    @property
    def arrays(self) -> IndexArrays:
        """The driver's sorted NO and CO, which queries read; the build
        and load() make them. Raises IndexReleasedError after
        unpersist().
        """
        if self._released:
            raise IndexReleasedError(
                "this SCAN index was released by unpersist(); build or load it again"
            )
        return self._arrays

    def persist(self) -> "SCANIndex":
        """End construction: make sure the driver arrays exist.

        A built or loaded index already holds them and stores no Spark
        block, so this only returns the index.
        """
        self.arrays
        return self

    def unpersist(self) -> None:
        """Drop the driver's arrays; later queries on this index raise
        IndexReleasedError."""
        self._arrays = None
        self._released = True

    # -- filesystem persistence (the "index" artifact) ----------------

    def save(self, path: str) -> None:
        self.neighbor_order.write.mode("overwrite").parquet(
            os.path.join(path, "neighbor_order")
        )
        with open(os.path.join(path, "meta.json"), "w") as f:
            json.dump(
                {"num_vertices": self.num_vertices, "measure": self.measure}, f
            )

    @staticmethod
    def load(spark: SparkSession, path: str) -> "SCANIndex":
        """Read a saved index and build its driver arrays.

        Raises ValueError when the stored NO is not a well-formed
        neighbor order over the saved vertex count (ids out of range,
        ranks not 2..deg+1, similarity rising along the ranks, or a row
        without its mirror), so a corrupt or mismatched artifact never
        answers a query.
        """
        with open(os.path.join(path, "meta.json")) as f:
            meta = json.load(f)
        index = SCANIndex(spark, meta["num_vertices"], meta["measure"])
        index._neighbor_order = spark.read.parquet(os.path.join(path, "neighbor_order"))
        rows = index.neighbor_order.toPandas()
        try:
            validate_rows(rows, index.num_vertices)
        except ValueError as e:
            raise ValueError(f"index at {path}: {e}") from e
        index._arrays = IndexArrays.from_rows(rows, index.num_vertices)
        return index


class IndexReleasedError(RuntimeError):
    """A query on an index that unpersist() released."""


def neighbor_order_from_similarities(similarities: DataFrame) -> DataFrame:
    """NO rows (u, v, sim, rank) of one similarity per canonical edge,
    ``similarities`` (u, v, sim): collected once and ranked on the
    driver by :func:`~repro.core.arrays.rank_neighbor_order`, as builds
    rank. Each edge appears in both directions; ``rank`` starts at 2
    (rank 1 is the implicit self-entry with sigma = 1), ties by
    ascending neighbor id (paper §7.3.4).
    """
    pdf = similarities.select("u", "v", "sim").toPandas()
    u, v, sim, rank, order = rank_neighbor_order(
        pdf["u"].to_numpy(np.int64), pdf["v"].to_numpy(np.int64), pdf["sim"].to_numpy(np.float64)
    )
    rows = pd.DataFrame(
        {"u": u[order], "v": v[order], "sim": sim[order], "rank": rank[order].astype(np.int32)}
    )
    return similarities.sparkSession.createDataFrame(rows, NO_SCHEMA)


def build_index(g: UndirectedGraph, measure: str = "cosine") -> SCANIndex:
    """Construct the SCAN index: one collect of the similarities, then
    NO ranked and held on the driver.

    The exact similarities come from one stage over the edges with the
    CSR broadcast (:func:`repro.core.similarity.exact_rows`).
    """
    edges = exact_rows(collect_csr(g), g.edges, measure)
    return SCANIndex.from_similarities(g.spark, edges, g.num_vertices, measure)
