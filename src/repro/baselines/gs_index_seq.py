"""Sequential GS*-Index reference (paper §3.2; Wen et al., VLDB 2017).

Single-threaded, no Spark. Index construction computes per-edge
similarities with sorted-neighbor-array intersections (the merge-based
approach of §6.1, vectorized per edge with numpy — standing in for the
authors' optimized C++), then sorts each neighbor list by descending
similarity (NO) and each candidate-core list by descending core
threshold (CO). Queries scan the sorted CO[mu]/NO[v] prefixes and BFS
over cores — exactly GS*-Index's query procedure.

Used two ways: as the sequential baseline timed in the Figure 5–7
experiments, and as the correctness reference for differential tests
(cluster ids are canonical min-core-id, borders deterministic, so
results are directly comparable with the Spark engine).
"""
from __future__ import annotations

from collections import deque

import numpy as np
import pandas as pd


class SequentialGSIndex:
    """GS*-Index over an in-memory edge list.

    Parameters
    ----------
    edges : pandas DataFrame with columns (u, v[, w]), canonical u < v.
    num_vertices : vertex universe size (ids 1..n).
    measure : "cosine" | "jaccard" | "wcosine".
    """

    def __init__(self, edges: pd.DataFrame, num_vertices: int, measure: str = "cosine"):
        self.n = num_vertices
        self.measure = measure
        if "w" not in edges.columns:
            edges = edges.assign(w=1.0)
        self._edges = edges.reset_index(drop=True)
        self._built = False

    # -- construction --------------------------------------------------

    @staticmethod
    def from_similarities(
        edges_with_sim: pd.DataFrame, num_vertices: int
    ) -> "SequentialGSIndex":
        """Index over externally computed per-edge similarities.

        ``edges_with_sim``: canonical (u, v[, w], sim). The benchmark
        uses it as an independent oracle for an approximate build: it
        orders and queries the index's own similarities sequentially.
        """
        idx = SequentialGSIndex(
            edges_with_sim.drop(columns=["sim"]), num_vertices, measure="given"
        )
        idx._build_adjacency()
        u = edges_with_sim["u"].to_numpy(np.int64)
        v = edges_with_sim["v"].to_numpy(np.int64)
        s = edges_with_sim["sim"].to_numpy(np.float64)
        idx.sim_lookup = {
            (int(a), int(b)): float(x) for a, b, x in zip(u, v, s)
        }
        idx._build_orders()
        idx._built = True
        return idx

    def build(self) -> "SequentialGSIndex":
        """Compute similarities, neighbor order and core order."""
        self._build_adjacency()
        self._compute_similarities()
        self._build_orders()
        self._built = True
        return self

    def _build_adjacency(self) -> None:
        u = self._edges["u"].to_numpy(dtype=np.int64)
        v = self._edges["v"].to_numpy(dtype=np.int64)
        w = self._edges["w"].to_numpy(dtype=np.float64)

        # adjacency: per vertex, neighbor ids sorted ascending + weights
        sym = pd.DataFrame(
            {
                "s": np.concatenate([u, v]),
                "d": np.concatenate([v, u]),
                "w": np.concatenate([w, w]),
            }
        ).sort_values(["s", "d"])
        nbrs: dict[int, np.ndarray] = {}
        wts: dict[int, np.ndarray] = {}
        for s, grp in sym.groupby("s", sort=False):
            nbrs[int(s)] = grp["d"].to_numpy()
            wts[int(s)] = grp["w"].to_numpy()
        self.nbrs, self.wts = nbrs, wts
        self.deg = {x: len(nbrs.get(x, ())) for x in range(1, self.n + 1)}

    def _compute_similarities(self) -> None:
        u = self._edges["u"].to_numpy(dtype=np.int64)
        v = self._edges["v"].to_numpy(dtype=np.int64)
        w = self._edges["w"].to_numpy(dtype=np.float64)
        nbrs, wts, deg = self.nbrs, self.wts, self.deg
        norms = {
            x: float(np.sqrt(1.0 + (wts[x] ** 2).sum())) if x in wts else 1.0
            for x in range(1, self.n + 1)
        }

        # per-edge similarity via sorted-array intersection ("merge")
        sims = np.empty(len(u), dtype=np.float64)
        for i in range(len(u)):
            a, b = int(u[i]), int(v[i])
            common, ia, ib = np.intersect1d(
                nbrs[a], nbrs[b], assume_unique=True, return_indices=True
            )
            t = len(common)
            if self.measure == "cosine":
                sims[i] = (t + 2) / np.sqrt((deg[a] + 1) * (deg[b] + 1))
            elif self.measure == "jaccard":
                sims[i] = (t + 2) / (deg[a] + deg[b] - t)
            elif self.measure == "wcosine":
                cw = float((wts[a][ia] * wts[b][ib]).sum())
                sims[i] = (2.0 * w[i] + cw) / (norms[a] * norms[b])
            else:
                raise ValueError(f"unknown measure {self.measure!r}")
        self.sim_lookup = {
            (int(a), int(b)): float(s) for a, b, s in zip(u, v, sims)
        }

    def _build_orders(self) -> None:
        nbrs, deg = self.nbrs, self.deg
        # neighbor order: per vertex, (nbr, sim) sorted by (-sim, nbr)
        self.NO: dict[int, list[tuple[int, float]]] = {}
        for x in range(1, self.n + 1):
            if x not in nbrs:
                self.NO[x] = []
                continue
            entries = [
                (int(y), self.sim_lookup[(min(x, y), max(x, y))]) for y in nbrs[x]
            ]
            entries.sort(key=lambda e: (-e[1], e[0]))
            self.NO[x] = entries

        # core order: CO[mu] = [(v, threshold)] sorted by (-threshold, v)
        # threshold(v, mu) = sim of NO[v][mu] counting the implicit
        # self entry as rank 1, i.e. entries[mu - 2].
        max_mu = max((d for d in deg.values()), default=0) + 1
        self.CO: dict[int, list[tuple[int, float]]] = {}
        for mu in range(2, max_mu + 1):
            lst = [
                (x, self.NO[x][mu - 2][1])
                for x in range(1, self.n + 1)
                if deg[x] >= mu - 1
            ]
            lst.sort(key=lambda e: (-e[1], e[0]))
            self.CO[mu] = lst

    # -- queries --------------------------------------------------------

    def cores(self, mu: int, eps: float) -> list[int]:
        """Prefix scan of the sorted CO[mu] (GS*-Index core lookup)."""
        assert self._built
        out = []
        for x, thr in self.CO.get(mu, []):
            if thr < eps:
                break  # sorted descending: rest of the list fails too
            out.append(x)
        return out

    def query(self, mu: int, eps: float) -> dict[int, int]:
        """{vertex: cluster} for clustered vertices.

        BFS over cores through eps-similar NO prefixes; cluster ids
        relabeled to the minimum core id per cluster; borders attach to
        the most similar core (ties: lower core id).
        """
        cores = self.cores(mu, eps)
        core_set = set(cores)
        label: dict[int, int] = {}
        for c in sorted(cores):  # ascending: BFS root is the min core id
            if c in label:
                continue
            label[c] = c
            q = deque([c])
            while q:
                x = q.popleft()
                for y, s in self.NO[x]:
                    if s < eps:
                        break  # sorted prefix exhausted
                    if y in core_set and y not in label:
                        label[y] = c
                        q.append(y)
        # borders: best (sim desc, core id asc) eps-similar core
        best: dict[int, tuple[float, int]] = {}
        for c in cores:
            for y, s in self.NO[c]:
                if s < eps:
                    break
                if y in core_set:
                    continue
                key = (-s, c)
                if y not in best or key < best[y]:
                    best[y] = key
        out = dict(label)
        for y, (_negs, c) in best.items():
            out[y] = label[c]
        return out

    def hubs_outliers(self, clustering: dict[int, int]) -> dict[int, str]:
        """{unclustered vertex: "hub" | "outlier"} (paper §4.3)."""
        out = {}
        for x in range(1, self.n + 1):
            if x in clustering:
                continue
            neighbor_clusters = {
                clustering[y] for y in self.nbrs.get(x, ()) if y in clustering
            }
            out[x] = "hub" if len(neighbor_clusters) >= 2 else "outlier"
        return out

    def similarities_pandas(self) -> pd.DataFrame:
        """(u, v, sim) per canonical edge — for oracle comparisons."""
        assert self._built
        rows = [(a, b, s) for (a, b), s in sorted(self.sim_lookup.items())]
        return pd.DataFrame(rows, columns=["u", "v", "sim"])
