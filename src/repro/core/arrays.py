"""The SCAN index as sorted arrays on the driver (paper §4.2, §6.2).

The paper queries a shared-memory index: cores are a prefix of the
sorted CO[mu], eps-similar edges are prefixes of the sorted NO[v], and
the work is bounded by the output (Theorem 4.3). Here the same arrays
are held by the driver, made once from one similarity per edge at the
end of construction or on load, so a query runs no Spark job:

- NO: every row sorted by (u, rank); u's neighbors, most similar first,
  are ``no_v[no_off[u]:no_off[u + 1]]`` with similarities ``no_sim``.
- CO: every row sorted by (mu, threshold descending); CO[mu] is
  ``co_off[mu]:co_off[mu + 1]`` of ``co_v`` and ``co_neg``, which holds
  the negated thresholds so that each segment ascends. Negation is
  exact, so ``-threshold <= -eps`` holds exactly when
  ``threshold >= eps``.

The eps-prefixes of all cores are found by one binary search over an
integer key. ``sims`` holds the distinct similarities ascending, and
each NO row's key is ``u * K + (K - 1 - j)`` where ``sims[j]`` is its
similarity and K = ``len(sims)``: keys ascend along NO (by u, then by
similarity descending). Comparing eps with ``sims`` gives the count t
of similarities below eps, and u's rows with sim >= eps are exactly its
rows with key <= ``u * K + (K - 1 - t)``. Both steps compare exactly;
a float key such as ``u + (1 - sim) / 2`` would not, since its rounding
can admit a similarity just below eps. Keys fit in int64 while n * 2m
stays below 2^63.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class IndexArrays:
    """NO and CO of one index, sorted, on the driver."""

    no_off: np.ndarray  # (n + 2,) int64: u's block is no_off[u]:no_off[u + 1]
    no_v: np.ndarray  # (2m,) int64
    no_sim: np.ndarray  # (2m,) float64, descending within each block
    no_key: np.ndarray  # (2m,) int64, ascending: u * K + (K - 1 - sim's index in sims)
    sims: np.ndarray  # (K,) float64: the distinct similarities, ascending
    co_off: np.ndarray  # (max closed degree + 2,) int64: CO[mu] segment bounds
    co_v: np.ndarray  # (2m,) int64
    co_neg: np.ndarray  # (2m,) float64: -threshold, ascending within CO[mu]

    @staticmethod
    def from_similarities(
        u: np.ndarray, v: np.ndarray, sim: np.ndarray, num_vertices: int
    ) -> "IndexArrays":
        """The index of one similarity per edge, given as canonical rows
        (u[i], v[i], sim[i]) with u < v, in any row order.

        Raises ValueError unless every id is in 1..num_vertices, u < v
        on every row, no pair is listed twice and every similarity is
        finite. Each edge is then listed in both directions and each
        vertex's rows are ranked by descending similarity, ties by
        ascending neighbor id (paper §7.3.4), from rank 2: rank 1 is the
        implicit self entry.
        """
        u = np.asarray(u, np.int64)
        v = np.asarray(v, np.int64)
        sim = np.asarray(sim, np.float64)

        def fail(what: str) -> None:
            raise ValueError(f"invalid edge similarities: {what}")

        if (u >= v).any():
            fail("a row has u >= v")
        if len(u) and (u.min() < 1 or v.max() > num_vertices):
            fail(f"vertex ids outside 1..{num_vertices}")
        if len(np.unique(u * (num_vertices + 1) + v)) < len(u):
            fail("a (u, v) pair is listed twice")
        if not np.isfinite(sim).all():
            fail("a similarity is not finite")
        u, v = np.concatenate((u, v)), np.concatenate((v, u))
        sim = np.concatenate((sim, sim))
        no = np.lexsort((v, -sim, u))
        u, v, sim = u[no], v[no], sim[no]
        no_off = _offsets(u, num_vertices + 1)
        rank = np.arange(len(u)) - np.repeat(no_off[:-1], np.diff(no_off)) + 2
        co = np.lexsort((u, -sim, rank))
        sims, j = np.unique(sim, return_inverse=True)
        k = len(sims)
        return IndexArrays(
            no_off=no_off,
            no_v=v,
            no_sim=sim,
            no_key=u * k + (k - 1 - j),
            sims=sims,
            co_off=_offsets(rank, 2),
            co_v=u[co],
            co_neg=-sim[co],
        )

    def rows(self) -> pd.DataFrame:
        """NO as rows (u, v, sim, rank), sorted by (u, rank)."""
        deg = np.diff(self.no_off)
        u = np.repeat(np.arange(len(deg)), deg)
        rank = np.arange(len(u)) - np.repeat(self.no_off[:-1], deg) + 2
        return pd.DataFrame({"u": u, "v": self.no_v, "sim": self.no_sim, "rank": rank})

    @property
    def max_degree(self) -> int:
        """The largest vertex degree (0 for an edgeless graph)."""
        return len(self.co_off) - 3

    def cores(self, mu: int, eps: float) -> np.ndarray:
        """The CO[mu] prefix with threshold >= eps (Algorithm 3): one
        binary search. Empty when mu exceeds every closed degree."""
        if mu + 1 >= len(self.co_off):
            return np.empty(0, np.int64)
        lo, hi = self.co_off[mu], self.co_off[mu + 1]
        k = np.searchsorted(self.co_neg[lo:hi], -eps, side="right")
        return self.co_v[lo : lo + k]

    def eps_edges(self, cores: np.ndarray, eps: float):
        """(u, v, sim) arrays: every u in ``cores`` and every v in u's NO
        prefix with sim >= eps (line 4 of Algorithm 5)."""
        k = len(self.sims)
        t = np.searchsorted(self.sims, eps)  # similarities below eps
        lo = self.no_off[cores]
        cnt = np.searchsorted(self.no_key, cores * k + (k - 1 - t), side="right") - lo
        idx = np.arange(cnt.sum()) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
        return np.repeat(cores, cnt), self.no_v[idx], self.no_sim[idx]


def _offsets(keys: np.ndarray, min_keys: int) -> np.ndarray:
    """Bounds of each key's run in ``keys`` sorted: key k spans
    ``off[k]:off[k + 1]``."""
    return np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=min_keys))))

