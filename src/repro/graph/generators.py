"""Seeded synthetic graph generators.

The paper evaluates on six large real-world graphs (Table 2). Those are
not downloadable here (no network) and exceed container memory, so each
experiment runs on a scaled-down synthetic analog built by these
generators (substitution documented in DESIGN.md §3). Pure-numpy edge
builders (``*_edges_pandas``) are separated from the Spark wrappers so
they are fast to property-test and reusable by the pure-Python
baselines.

Every generator is deterministic in ``seed``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.graph.graphframe import UndirectedGraph, canonical_pandas

#: Edges of the paper's Figure-1 worked example, reconstructed from the
#: numbers printed in the paper (sigma(5,6)=2/sqrt(12)~=.58,
#: sigma(2,3)=3/sqrt(12)~=.87, CO[2] threshold .75 for vertex 6, and
#: the clustering at (mu=3, eps=.6): clusters {1,2,3,4} and {6,7,8,11},
#: hub 5, outliers 9 and 10). Verified end-to-end in tests.
FIG1_EDGES = [
    (1, 2), (1, 3), (1, 4), (2, 3), (3, 4),
    (4, 5), (5, 6),
    (6, 7), (6, 8), (7, 8), (7, 11),
    (8, 9), (9, 10),
]
FIG1_NUM_VERTICES = 11


def fig1_graph(spark: SparkSession) -> UndirectedGraph:
    """The paper's Figure-1 example graph (11 vertices, 13 edges)."""
    return UndirectedGraph.from_edge_list(spark, FIG1_EDGES, FIG1_NUM_VERTICES)


def _dedup(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> pd.DataFrame:
    """Canonicalize numpy endpoint arrays: orient, drop loops + dups."""
    pdf = canonical_pandas(u, v, w)
    return pdf.sort_values(["u", "v"]).reset_index(drop=True)


def gnp_edges_pandas(
    n: int, p: float, seed: int = 0, weighted: bool = False
) -> pd.DataFrame:
    """Erdos–Renyi G(n, p) edge list (dense sampling; keep n modest)."""
    g = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    mask = g.random(iu.shape[0]) < p
    u, v = iu[mask] + 1, iv[mask] + 1
    w = g.uniform(0.05, 1.0, u.shape[0]) if weighted else np.ones(u.shape[0])
    return _dedup(u, v, w)


def sbm_edges_pandas(
    n: int,
    n_blocks: int,
    p_in: float,
    p_out: float,
    seed: int = 0,
    weighted: bool = False,
    w_in: tuple[float, float] = (0.6, 1.0),
    w_out: tuple[float, float] = (0.05, 0.45),
) -> pd.DataFrame:
    """Planted-partition (stochastic block model) edge list.

    Vertices ``1..n`` split into ``n_blocks`` contiguous blocks; each
    intra-block pair is an edge w.p. ``p_in`` and each inter-block pair
    w.p. ``p_out``. With ``weighted``, intra-block weights are sampled
    uniformly from ``w_in`` and inter-block from ``w_out`` — the SCAN
    analog of HumanBase's "probability of functional relationship"
    weights (strong inside communities, weak across).
    """
    g = np.random.default_rng(seed)
    block = np.arange(n) % n_blocks  # round-robin keeps block sizes even
    iu, iv = np.triu_indices(n, k=1)
    same = block[iu] == block[iv]
    r = g.random(iu.shape[0])
    mask = np.where(same, r < p_in, r < p_out)
    u, v, same = iu[mask] + 1, iv[mask] + 1, same[mask]
    if weighted:
        w = np.where(
            same,
            g.uniform(w_in[0], w_in[1], u.shape[0]),
            g.uniform(w_out[0], w_out[1], u.shape[0]),
        )
    else:
        w = np.ones(u.shape[0])
    return _dedup(u, v, w)


def sbm_blocks(n: int, n_blocks: int) -> dict[int, int]:
    """Planted community of each vertex (matches :func:`sbm_edges_pandas`)."""
    return {v: (v - 1) % n_blocks for v in range(1, n + 1)}


def powerlaw_edges_pandas(
    n: int, m: int, gamma: float = 2.3, seed: int = 0
) -> pd.DataFrame:
    """Chung–Lu power-law graph: ~m edges, degree weights ~ i^(-1/(g-1)).

    A sparse, skewed-degree, low-arboricity graph — the analog of the
    paper's WebBase crawl. Endpoints of each candidate edge are drawn
    proportionally to the weight sequence; loops/duplicates dropped, so
    the realized edge count is slightly below the requested ``m``.
    """
    g = np.random.default_rng(seed)
    w = (np.arange(1, n + 1)) ** (-1.0 / (gamma - 1.0))
    p = w / w.sum()
    draws = int(m * 1.25)
    u = g.choice(n, size=draws, p=p) + 1
    v = g.choice(n, size=draws, p=p) + 1
    pdf = _dedup(u, v, np.ones(draws))
    return pdf.head(m).reset_index(drop=True)


def _wrap(
    spark: SparkSession, pdf: pd.DataFrame, n: int, weighted: bool
) -> UndirectedGraph:
    return UndirectedGraph.from_pandas(spark, pdf, num_vertices=n, weighted=weighted)


def gnp_graph(
    spark: SparkSession, n: int, p: float, seed: int = 0, weighted: bool = False
) -> UndirectedGraph:
    return _wrap(spark, gnp_edges_pandas(n, p, seed, weighted), n, weighted)


def sbm_graph(
    spark: SparkSession,
    n: int,
    n_blocks: int,
    p_in: float,
    p_out: float,
    seed: int = 0,
    weighted: bool = False,
    **kw,
) -> UndirectedGraph:
    pdf = sbm_edges_pandas(n, n_blocks, p_in, p_out, seed, weighted, **kw)
    return _wrap(spark, pdf, n, weighted)


def powerlaw_graph(
    spark: SparkSession, n: int, m: int, gamma: float = 2.3, seed: int = 0
) -> UndirectedGraph:
    return _wrap(spark, powerlaw_edges_pandas(n, m, gamma, seed), n, False)
