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
row (mu, v, threshold=sim) of CO. So CO is a column projection of NO,
and both derive on read from the m similarities an index stores.

Construction ends with NO on the driver: one collect brings one
similarity per edge (the one-stage builds of :mod:`repro.core.similarity`
and :mod:`repro.core.approx`), and ``IndexArrays.from_similarities``
checks and ranks them into sorted arrays (:mod:`repro.core.arrays`),
which answer every query without a Spark job. A built, given or loaded
index is made by that one function. ``neighbor_order`` is a DataFrame
made from the arrays on first use; queries never read it. The index
saves with numpy, on the driver, as its m similarity rows (u < v) and
a small metadata file, written aside and moved into place. Construction
(expensive) is paid once and queries (cheap) are paid per (mu, eps) —
the paper's whole point. :func:`neighbor_order_from_similarities` is
the same ranking as a frame, for callers that hold similarities as one.
"""
from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.arrays import IndexArrays
from repro.core.similarity import exact_rows
from repro.graph.graphframe import UndirectedGraph
from repro.graph.triangles import collect_csr

#: Schema of the NO rows.
NO_SCHEMA = "u long, v long, sim double, rank int"
#: Version of the saved layout: meta.json (META_FIELDS) plus the arrays
#: of similarities.npz (SAVED_ARRAYS), the m rows with u < v. Earlier
#: layouts, Spark-written rows, are refused on load.
FORMAT = 3
META_FIELDS = {"format": int, "num_vertices": int, "num_edges": int, "measure": str}
SAVED_ARRAYS = {"u": "int64", "v": "int64", "sim": "float64"}


@dataclass
class SCANIndex:
    """Materialized SCAN index for one graph + similarity measure."""

    spark: SparkSession = field(repr=False)
    num_vertices: int
    measure: str
    # NO as (u, v, sim, rank) rows — rank >= 2, self implicit. A built
    # or loaded index makes it from its arrays on first use.
    _neighbor_order: DataFrame | None = field(default=None, init=False, repr=False, compare=False)
    # The driver's sorted copy of NO and CO that queries read; made by
    # from_similarities(), dropped by unpersist().
    _arrays: IndexArrays | None = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def from_similarities(
        spark: SparkSession, edges: pd.DataFrame | dict, num_vertices: int, measure: str
    ) -> "SCANIndex":
        """The index of one similarity per edge, ``edges`` (u, v, sim)
        with u < v, ranked on the driver; raises ValueError for rows that
        :meth:`IndexArrays.from_similarities` rejects."""
        index = SCANIndex(spark, num_vertices, measure)
        index._arrays = IndexArrays.from_similarities(
            edges["u"], edges["v"], edges["sim"], num_vertices
        )
        return index

    @property
    def neighbor_order(self) -> DataFrame:
        """NO: (u, v, sim, rank) — rank >= 2, self implicit — as a frame
        made from the arrays on first use."""
        if self._neighbor_order is None:
            self._neighbor_order = _no_frame(self.spark, self.arrays)
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
        """The driver's sorted NO and CO, which queries read; made by
        from_similarities(). Raises IndexReleasedError after unpersist()."""
        if self._arrays is None:
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
        """Drop the driver's arrays and the NO frame; later queries and
        reads of NO or CO on this index raise IndexReleasedError."""
        self._arrays = None
        self._neighbor_order = None

    # -- filesystem persistence (the "index" artifact) ----------------

    def save(self, path: str) -> None:
        """Write the index to the directory ``path``, with no Spark job:
        ``meta.json`` and the m similarity rows (u, v, sim), u < v.

        The artifact is written into a temporary sibling directory and
        then moved to ``path``, so a save that fails partway leaves what
        was there before. Raises FileExistsError, and writes nothing,
        when ``path`` is a file or a non-empty directory that is not a
        saved index.
        """
        path = os.path.abspath(path)
        if os.path.exists(path) and not os.path.exists(os.path.join(path, "meta.json")):
            if not os.path.isdir(path) or os.listdir(path):
                raise FileExistsError(f"{path} is not a saved index; not replacing it")
        rows = self.arrays.rows()
        rows = rows[rows["u"] < rows["v"]]
        meta = {"format": FORMAT, "num_vertices": self.num_vertices,
                "num_edges": len(rows), "measure": self.measure}
        parent = os.path.dirname(path)
        os.makedirs(parent, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=f".{os.path.basename(path)}.", dir=parent)
        try:
            np.savez_compressed(
                os.path.join(tmp, "similarities.npz"),
                **{name: rows[name].to_numpy(dtype) for name, dtype in SAVED_ARRAYS.items()},
            )
            with open(os.path.join(tmp, "meta.json"), "w") as f:
                json.dump(meta, f)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        old = tmp + ".old"
        if os.path.lexists(path):
            os.rename(path, old)
        os.rename(tmp, path)
        shutil.rmtree(old, ignore_errors=True)

    @staticmethod
    def load(spark: SparkSession, path: str) -> "SCANIndex":
        """Read a saved index and build its driver arrays, with no Spark job.

        Raises ValueError naming ``path`` for another format, a missing
        or mistyped meta field, arrays other than those saved (an object
        array is refused, never unpickled), a row count other than
        ``num_edges``, or rows that :meth:`IndexArrays.from_similarities`
        rejects, so a corrupt or mismatched artifact never answers a query.
        """
        try:
            with open(os.path.join(path, "meta.json")) as f:
                meta = json.load(f)
            if meta.get("format") != FORMAT:
                raise ValueError(f"format {meta.get('format')!r}, not {FORMAT}")
            for name, kind in META_FIELDS.items():
                if type(meta.get(name)) is not kind:
                    raise ValueError(f"meta.json {name} is {meta.get(name)!r}, not {kind.__name__}")
            with np.load(os.path.join(path, "similarities.npz"), allow_pickle=False) as z:
                edges = {name: z[name] for name in z.files}
            got = {name: (str(a.dtype), a.shape) for name, a in edges.items()}
            want = {name: (t, (meta["num_edges"],)) for name, t in SAVED_ARRAYS.items()}
            if got != want:
                raise ValueError(f"arrays {got}, not {want} (num_edges rows each)")
            return SCANIndex.from_similarities(
                spark, edges, meta["num_vertices"], meta["measure"]
            )
        except ValueError as e:
            raise ValueError(f"index at {path}: {e}") from e


class IndexReleasedError(RuntimeError):
    """A query on an index that unpersist() released."""


def neighbor_order_from_similarities(similarities: DataFrame) -> DataFrame:
    """NO rows (u, v, sim, rank) of one similarity per canonical edge,
    ``similarities`` (u, v, sim): collected once and ranked on the
    driver as builds rank (:meth:`IndexArrays.from_similarities`), over
    vertices 1..(largest id).
    """
    e = similarities.select("u", "v", "sim").toPandas()
    n = int(e["v"].to_numpy().max(initial=0))
    arrays = IndexArrays.from_similarities(e["u"], e["v"], e["sim"], n)
    return _no_frame(similarities.sparkSession, arrays)


def _no_frame(spark: SparkSession, arrays: IndexArrays) -> DataFrame:
    """NO of ``arrays`` as a frame of the driver's rows, sorted by (u, rank)."""
    rows = arrays.rows()
    rows["rank"] = rows["rank"].astype(np.int32)
    return spark.createDataFrame(rows, NO_SCHEMA)


def build_index(g: UndirectedGraph, measure: str = "cosine") -> SCANIndex:
    """Construct the SCAN index: one collect of the similarities, then
    NO ranked and held on the driver.

    The exact similarities come from one stage over the edges with the
    CSR broadcast (:func:`repro.core.similarity.exact_rows`).
    """
    edges = exact_rows(collect_csr(g), g.edges, measure)
    return SCANIndex.from_similarities(g.spark, edges, g.num_vertices, measure)
