"""Common neighbors of each edge over a CSR adjacency (paper §4.1.1 / §6.1).

This is the substrate of every index build. The driver collects the
canonical edges once (one Spark job) into a CSR: per-vertex offsets,
each vertex's neighbor ids ascending and the weights beside them. One
``sc.broadcast`` ships the CSR to the executors, one ``mapInPandas``
stage over the edge partitions runs a numpy kernel on every Arrow
batch, and one collect brings its rows back; the broadcast is
destroyed then (:func:`map_with_csr`). So every build is two Spark
jobs, whatever the measure, and the per-edge work is the paper's
parallel loop over the edges in numpy.

Each edge (u, v) intersects its endpoints' sorted lists the way
GS*-Index does, from the lower-degree side: each neighbor x of that
endpoint is looked up as ``b * (n + 1) + x`` in the CSR's ascending
key array (b the other endpoint), one ``searchsorted`` for the whole
batch (:func:`common_neighbors`). The work is O(Σ_e min(d(u), d(v))
log m) against the O(αm) of the paper's degree-oriented counting; at
the graph sizes here Spark's per-job cost, not this work, sets the
build's time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.graph.graphframe import UndirectedGraph


@dataclass(frozen=True)
class CSR:
    """The adjacency of a graph on vertices 1..num_vertices, sorted."""

    off: np.ndarray  # (n + 2,) int64: v's neighbors are nbr[off[v]:off[v + 1]]
    nbr: np.ndarray  # (2m,) int64, ascending within each vertex
    wt: np.ndarray  # (2m,) float64: w(v, nbr) beside each neighbor
    key: np.ndarray  # (2m,) int64, ascending: v * (n + 1) + nbr
    num_vertices: int

    @staticmethod
    def from_edges(u: np.ndarray, v: np.ndarray, w: np.ndarray, num_vertices: int) -> "CSR":
        """The CSR of the canonical edges (u, v, w), each listed once."""
        src, dst = np.concatenate((u, v)), np.concatenate((v, u))
        wt = np.concatenate((w, w)).astype(np.float64)
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        counts = np.bincount(src, minlength=num_vertices + 1)
        return CSR(
            off=np.concatenate(([0], np.cumsum(counts))),
            nbr=dst,
            wt=wt[order],
            key=src * (num_vertices + 1) + dst,
            num_vertices=num_vertices,
        )

    @property
    def degrees(self) -> np.ndarray:
        """(n + 1,) int64: deg(v) at index v (index 0 is no vertex)."""
        return np.diff(self.off)

    @property
    def src(self) -> np.ndarray:
        """(2m,) int64: the vertex each neighbor entry belongs to."""
        return self.key // (self.num_vertices + 1)

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The canonical edges (u, v), u < v, ascending."""
        src = self.src
        keep = src < self.nbr
        return src[keep], self.nbr[keep]

    def find(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The position of each pair (u, v) in the CSR, -1 for a non-edge."""
        return self.find_keys(u * (self.num_vertices + 1) + v)

    def find_keys(self, probe: np.ndarray) -> np.ndarray:
        """The position of each key of ``probe`` in ``key``, -1 where absent."""
        if not len(self.key):
            return np.full(len(probe), -1)
        pos = np.minimum(np.searchsorted(self.key, probe), len(self.key) - 1)
        return np.where(self.key[pos] == probe, pos, -1)

    def norms(self) -> np.ndarray:
        """(n + 1,) sqrt(1 + Σ_{x∈N(v)} w(v, x)²): the weighted closed-
        neighborhood 2-norm, with the implicit self weight w(v, v) = 1."""
        return np.sqrt(1.0 + np.bincount(self.src, self.wt * self.wt, self.num_vertices + 1))

    def closed(self, v: int, weighted: bool) -> tuple[np.ndarray, np.ndarray]:
        """v's closed neighborhood: its ids ascending (uint64, v inserted
        at weight 1) and their weights (all 1 unless ``weighted``)."""
        lo, hi = self.off[v], self.off[v + 1]
        nbrs = self.nbr[lo:hi]
        at = np.searchsorted(nbrs, v)
        xs = np.insert(nbrs, at, v).astype(np.uint64)
        w = np.insert(self.wt[lo:hi], at, 1.0) if weighted else np.ones(len(xs))
        return xs, w


def collect_csr(g: UndirectedGraph) -> CSR:
    """The CSR of ``g``, from one collect of its edges."""
    pdf = g.edges.select("u", "v", "w").toPandas()
    return CSR.from_edges(
        pdf["u"].to_numpy(np.int64),
        pdf["v"].to_numpy(np.int64),
        pdf["w"].to_numpy(np.float64),
        g.num_vertices,
    )


def common_neighbors(csr: CSR, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, cw) per edge (u[i], v[i]): t = |N(u) ∩ N(v)| and
    cw = Σ_{x ∈ N(u)∩N(v)} w(u, x)·w(v, x).

    Every neighbor x of the lower-degree endpoint a is probed as
    ``b * (n + 1) + x`` in ``csr.key``, b being the other endpoint.
    """
    deg = csr.degrees
    swap = deg[u] > deg[v]
    a, b = np.where(swap, v, u), np.where(swap, u, v)
    cnt = deg[a]
    edge = np.repeat(np.arange(len(u)), cnt)
    # Position of each probed neighbor in a's list: a's offset plus its
    # rank among the edge's probes.
    first = np.cumsum(cnt) - cnt
    at = np.arange(len(edge)) + np.repeat(csr.off[a] - first, cnt)
    pos = csr.find_keys(np.repeat(b, cnt) * (csr.num_vertices + 1) + csr.nbr[at])
    hit = pos >= 0
    edge, at, pos = edge[hit], at[hit], pos[hit]
    t = np.bincount(edge, minlength=len(u))
    cw = np.bincount(edge, csr.wt[at] * csr.wt[pos], minlength=len(u))
    return t, cw


#: A task of :func:`map_with_csr`: called once per partition with the
#: CSR, it returns the function applied to each Arrow batch.
Task = Callable[[CSR], Callable[[pd.DataFrame], pd.DataFrame]]


def map_with_csr(csr: CSR, rows: DataFrame, task: Task, schema: str) -> pd.DataFrame:
    """``task`` over every batch of ``rows``, in one ``mapInPandas``
    stage with the CSR broadcast; the output rows, collected.

    The broadcast is destroyed once the rows are on the driver, so
    nothing of the stage stays stored. A task keeps state across its
    partition's batches (the sketch cache of an approximate build).
    """
    bc = rows.sparkSession.sparkContext.broadcast(csr)

    def per_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        fn = task(bc.value)
        for pdf in batches:
            yield fn(pdf)

    try:
        return rows.mapInPandas(per_partition, schema).toPandas()
    finally:
        bc.destroy()


def triangle_edge_aggregates(g: UndirectedGraph) -> DataFrame:
    """Per-edge triangle aggregates: (u, v, tri, cw) with u < v.

    ``tri``  = |N(u) ∩ N(v)|, the number of triangles through the edge;
    ``cw``   = sum over common neighbors x of w(u,x) * w(v,x), the
    weighted-cosine numerator term (paper §4.1.1).

    Only edges that appear in at least one triangle are returned. The
    rows are computed by :func:`common_neighbors` in one stage and
    held by the driver.
    """
    schema = "u long, v long, tri long, cw double"

    def task(csr: CSR):
        def batch(pdf: pd.DataFrame) -> pd.DataFrame:
            u, v = pdf["u"].to_numpy(np.int64), pdf["v"].to_numpy(np.int64)
            t, cw = common_neighbors(csr, u, v)
            keep = t > 0
            return pd.DataFrame({"u": u[keep], "v": v[keep], "tri": t[keep], "cw": cw[keep]})

        return batch

    rows = map_with_csr(collect_csr(g), g.edges.select("u", "v"), task, schema)
    return g.spark.createDataFrame(rows, schema)
