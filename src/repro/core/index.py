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
checkpoint: NO's rows are stored and its lineage is cut. The stored
rows are then collected once into sorted arrays on the driver
(:mod:`repro.core.arrays`), which answer every query without a Spark
job. The index also saves as one Parquet dataset plus a small metadata
file; loading it validates the rows and builds the same arrays.
Construction (expensive) is paid once and queries (cheap) are paid per
(mu, eps) — the paper's whole point.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.core.arrays import IndexArrays, validate_rows
from repro.core.similarity import edge_similarities
from repro.graph.graphframe import UndirectedGraph


@dataclass
class SCANIndex:
    """Materialized SCAN index for one graph + similarity measure."""

    neighbor_order: DataFrame  # (u, v, sim, rank) — rank >= 2, self implicit
    num_vertices: int
    measure: str
    # Frames the build stored (cached or checkpointed) because NO's plan
    # reads them several times; persist() and unpersist() release them.
    # Not part of the index.
    build_cache: list[DataFrame] = field(default_factory=list, repr=False, compare=False)
    # The driver's sorted copy of NO and CO that queries read; made by
    # persist() and load(), dropped by unpersist().
    _arrays: IndexArrays | None = field(default=None, init=False, repr=False, compare=False)
    _released: bool = field(default=False, init=False, repr=False, compare=False)

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

    @property
    def arrays(self) -> IndexArrays:
        """The driver's sorted NO and CO, which queries read.

        persist() and load() make them; an index queried before either
        collects its NO here, once. Raises IndexReleasedError after
        unpersist().
        """
        if self._released:
            raise IndexReleasedError(
                "this SCAN index was released by unpersist(); build or load it again"
            )
        if self._arrays is None:
            self._arrays = self._collect_arrays()
        return self._arrays

    def _collect_arrays(self) -> IndexArrays:
        return IndexArrays.from_rows(self.neighbor_order.toPandas(), self.num_vertices)

    def persist(self) -> "SCANIndex":
        """Materialize NO and cut its lineage (ends "construction").

        An eager local checkpoint stores NO's rows in the block manager
        and replaces the neighbor-list/similarity/window plan by a scan of
        those rows. The stored rows are then collected once into the
        driver's sorted arrays, so queries run no Spark job.
        """
        self.neighbor_order = self.neighbor_order.localCheckpoint(eager=True)
        self._release_build_cache()
        self._arrays = self._collect_arrays()
        return self

    def unpersist(self) -> None:
        """Free the checkpointed NO blocks and the driver's arrays; later
        queries on this index raise IndexReleasedError."""
        release(self.neighbor_order)
        self._release_build_cache()
        self._arrays = None
        self._released = True

    def _release_build_cache(self) -> None:
        for df in self.build_cache:
            release(df)
        self.build_cache = []

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
        index = SCANIndex(
            neighbor_order=spark.read.parquet(os.path.join(path, "neighbor_order")),
            num_vertices=meta["num_vertices"],
            measure=meta["measure"],
        )
        rows = index.neighbor_order.toPandas()
        try:
            validate_rows(rows, index.num_vertices)
        except ValueError as e:
            raise ValueError(f"index at {path}: {e}") from e
        index._arrays = IndexArrays.from_rows(rows, index.num_vertices)
        return index


class IndexReleasedError(RuntimeError):
    """A query on an index whose stored rows unpersist() freed."""


def release(df: DataFrame) -> None:
    """Free the blocks ``df`` stored, whether cached or checkpointed.

    ``DataFrame.unpersist`` does not reach a checkpoint, so for a
    checkpointed frame the RDD under its plan is released instead.
    """
    plan = df._jdf.queryExecution().logical()
    if plan.getClass().getSimpleName() == "LogicalRDD":
        plan.rdd().unpersist(True)
    else:
        df.unpersist(blocking=True)


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
