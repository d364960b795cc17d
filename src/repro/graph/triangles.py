"""Common neighbors of each edge over a CSR adjacency (paper §4.1.1 / §6.1).

This is the substrate of every index build. The driver collects the
canonical edges once (one Spark job) into a CSR: per-vertex offsets,
each vertex's neighbor ids ascending and the weights beside them; it
rejects edges that do not form a simple graph on 1..n. A build ships
the CSR to one stage over the edges
(:func:`repro.core.similarity.similarity_rows`), where
:func:`common_neighbors` is the per-edge work of the paper's parallel
loop, in numpy. :func:`triangle_edge_aggregates` runs the same kernel
over all edges on the driver.

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
        """The CSR of the canonical edges (u, v, w), each listed once.

        Raises ValueError unless every id lies in 1..num_vertices, every
        edge has u < v, no pair appears twice and every weight is finite
        and positive: a build over such rows would answer silently wrong.
        """
        if len(u):
            lo, hi = min(u.min(), v.min()), max(u.max(), v.max())
            if lo < 1 or hi > num_vertices:
                raise ValueError(
                    f"vertex ids must lie in 1..{num_vertices}, got ids in {lo}..{hi}"
                )
            if not (u < v).all():
                raise ValueError("every edge must have u < v")
            if not (np.isfinite(w) & (w > 0)).all():
                raise ValueError("edge weights must be finite and > 0")
        src, dst = np.concatenate((u, v)), np.concatenate((v, u))
        wt = np.concatenate((w, w)).astype(np.float64)
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        key = src * (num_vertices + 1) + dst
        if (np.diff(key) == 0).any():
            raise ValueError("an edge appears twice")
        counts = np.bincount(src, minlength=num_vertices + 1)
        return CSR(
            off=np.concatenate(([0], np.cumsum(counts))),
            nbr=dst,
            wt=wt[order],
            key=key,
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

    def closed(
        self, vs: np.ndarray, weighted: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The closed neighborhoods of ``vs``, one after another: their
        offsets (len(vs) + 1,), the ids of each ascending (v inserted at
        weight 1) and their weights (all 1 unless ``weighted``)."""
        cnt = self.degrees[vs]
        # Position of each open neighbor in the CSR, as in common_neighbors.
        first = np.cumsum(cnt) - cnt
        at = np.arange(cnt.sum()) + np.repeat(self.off[vs] - first, cnt)
        row = np.concatenate((np.repeat(np.arange(len(vs)), cnt), np.arange(len(vs))))
        xs = np.concatenate((self.nbr[at], vs))
        w = np.concatenate((self.wt[at] if weighted else np.ones(len(at)), np.ones(len(vs))))
        order = np.lexsort((xs, row))
        return np.concatenate(([0], np.cumsum(cnt + 1))), xs[order], w[order]


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


def triangle_edge_aggregates(g: UndirectedGraph) -> DataFrame:
    """Per-edge triangle aggregates: (u, v, tri, cw) with u < v.

    ``tri``  = |N(u) ∩ N(v)|, the number of triangles through the edge;
    ``cw``   = sum over common neighbors x of w(u,x) * w(v,x), the
    weighted-cosine numerator term (paper §4.1.1).

    Only edges that appear in at least one triangle are returned. The
    rows are computed on the driver by :func:`common_neighbors` over
    the collected CSR.
    """
    csr = collect_csr(g)
    u, v = csr.edges()
    t, cw = common_neighbors(csr, u, v)
    keep = t > 0
    rows = pd.DataFrame({"u": u[keep], "v": v[keep], "tri": t[keep], "cw": cw[keep]})
    return g.spark.createDataFrame(rows, "u long, v long, tri long, cw double")
