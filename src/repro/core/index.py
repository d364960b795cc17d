"""The SCAN index: neighbor order and core order (paper §3.2, §4.1.2).

Neighbor order ``NO[v]`` is the closed neighborhood of v sorted by
descending similarity; since sigma(v, v) = 1 is always the maximum, the
vertex itself is the implicit rank-1 entry and real neighbors occupy
ranks 2..deg(v)+1. We materialize NO as a DataFrame
``(u, v, sim, rank)`` (rank ≥ 2) — GS*-Index's per-list sorts become
one engine-wide window sort, the Spark counterpart of the paper's
"one single integer sort over all lists" trick (§4.1.2).

Core order ``CO[mu]`` lists every vertex with closed degree ≥ mu along
with its *core threshold* — its similarity with NO[v][mu] — sorted
descending. Because NO[v][mu] exists exactly when closed degree ≥ mu,
CO is precisely a re-keying of NO: row (v, x, sim, rank=mu) of NO is
row (mu, v, threshold=sim) of CO. So only NO is stored (O(m) rows);
CO is a column projection of it, derived on read.

Construction ends with ``SCANIndex.persist()``, an eager local
checkpoint: NO's rows are stored and its lineage is cut, so a query
plans over the stored rows only and never re-plans the neighbor-list,
similarity and window passes. The index also saves as one Parquet
dataset plus a small metadata file. Construction (expensive) is paid
once and queries (cheap) are paid per (mu, eps) — the paper's whole
point.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.core.similarity import edge_similarities
from repro.graph.graphframe import UndirectedGraph


@dataclass
class SCANIndex:
    """Materialized SCAN index for one graph + similarity measure."""

    neighbor_order: DataFrame  # (u, v, sim, rank) — rank >= 2, self implicit
    num_vertices: int
    measure: str
    # A frame the build cached because NO's plan reads it several times;
    # persist() and unpersist() release it. Not part of the index.
    build_cache: DataFrame | None = field(default=None, repr=False, compare=False)

    @property
    def core_order(self) -> DataFrame:
        """CO as a view of NO: (mu, v, threshold) — mu >= 2."""
        return self.neighbor_order.select(
            F.col("rank").alias("mu"),
            F.col("u").alias("v"),
            F.col("sim").alias("threshold"),
        )

    @property
    def spark(self) -> SparkSession:
        return self.neighbor_order.sparkSession

    def max_mu(self) -> int:
        """Largest mu with any candidate core (max closed degree)."""
        row = self.core_order.agg(F.max("mu").alias("m")).collect()[0]
        return int(row["m"]) if row["m"] is not None else 1

    def persist(self) -> "SCANIndex":
        """Materialize NO and cut its lineage (ends "construction").

        An eager local checkpoint stores NO's rows in the block manager
        and replaces the neighbor-list/similarity/window plan by a scan of
        those rows, so a query plans and runs over the stored index
        only, as it does over a Parquet-loaded one.
        """
        self.neighbor_order = self.neighbor_order.localCheckpoint(eager=True)
        self._release_build_cache()
        return self

    def unpersist(self) -> None:
        """Free the checkpointed NO blocks; later queries on this index
        fail. ``DataFrame.unpersist`` does not reach a checkpoint, so
        the checkpointed RDD under NO's plan is released instead."""
        plan = self.neighbor_order._jdf.queryExecution().logical()
        if plan.getClass().getSimpleName() == "LogicalRDD":
            plan.rdd().unpersist(True)
        self._release_build_cache()

    def _release_build_cache(self) -> None:
        if self.build_cache is not None:
            self.build_cache.unpersist()
            self.build_cache = None

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
        with open(os.path.join(path, "meta.json")) as f:
            meta = json.load(f)
        return SCANIndex(
            neighbor_order=spark.read.parquet(os.path.join(path, "neighbor_order")),
            num_vertices=meta["num_vertices"],
            measure=meta["measure"],
        )


def neighbor_order_from_similarities(similarities: DataFrame) -> DataFrame:
    """Rank each vertex's neighbors by descending similarity.

    ``similarities`` has one row per canonical edge (u, v, sim); the
    output has one row per directed pair with ``rank`` starting at 2
    (rank 1 is the implicit self-entry with sigma = 1). Ties break by
    ascending neighbor id, matching the deterministic variant the paper
    uses for its quality experiments (§7.3.4).

    Each row is emitted in both directions by one generator, so the
    similarity plan is read once; a union of the two directions would
    plan and run it twice.
    """
    sym = similarities.select(
        F.inline(
            F.array(
                F.struct("u", "v", "sim"),
                F.struct(F.col("v").alias("u"), F.col("u").alias("v"), "sim"),
            )
        )
    )
    win = Window.partitionBy("u").orderBy(F.col("sim").desc(), F.col("v").asc())
    return sym.withColumn("rank", F.row_number().over(win) + F.lit(1))


def build_index(
    g: UndirectedGraph,
    measure: str = "cosine",
    similarities: DataFrame | None = None,
) -> SCANIndex:
    """Construct the SCAN index (not yet materialized; see persist()).

    Passing precomputed ``similarities`` (u, v, sim) swaps in e.g. the
    LSH-approximate similarities of :mod:`repro.core.approx`.
    """
    if similarities is None:
        similarities = edge_similarities(g, measure)
    no = neighbor_order_from_similarities(similarities)
    return SCANIndex(no, g.num_vertices, measure)
