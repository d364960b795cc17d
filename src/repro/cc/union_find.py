"""Driver-side union-find over arrays: link roots, compress paths.

The paper's query implementation replaces a full parallel connectivity
algorithm with concurrent union-find over the (small) core subgraph
(§6.2). This is its bulk-synchronous form in numpy: each round links,
for every edge whose endpoints have different roots, the larger root
under the smaller one, then compresses every path by pointer jumping.
Links only ever point to a smaller id, so the forest stays acyclic and
each root is the smallest id of its tree: the component labels come
out canonical without a relabeling pass.
"""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np


def min_labels(src: np.ndarray, dst: np.ndarray, k: int) -> np.ndarray:
    """For vertices 0..k-1 and edges (src[i], dst[i]): each vertex's
    component label, the smallest vertex of its component."""
    parent = np.arange(k)
    while True:
        rs, rd = parent[src], parent[dst]
        if (rs == rd).all():  # no edge joins two trees
            return parent
        np.minimum.at(parent, np.maximum(rs, rd), np.minimum(rs, rd))
        while True:  # pointer jumping: every vertex points at its root
            grand = parent[parent]
            if (grand == parent).all():
                break
            parent = grand


def components_from_edges(
    edges: Iterable[tuple[int, int]], vertices: Iterable[int] = ()
) -> dict[int, int]:
    """Map each vertex to its component's **minimum vertex id**.

    The min-id labeling is the canonical cluster naming used across the
    repo so different engines (Spark, union-find, DuckDB recursive CTE,
    pure-Python BFS) produce directly comparable labels. Vertex ids are
    integers; ``vertices`` adds ids that may have no edge.
    """
    e = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    ids = np.unique(np.concatenate((np.fromiter(vertices, np.int64), e.ravel())))
    lab = min_labels(np.searchsorted(ids, e[:, 0]), np.searchsorted(ids, e[:, 1]), len(ids))
    return dict(zip(ids.tolist(), ids[lab].tolist()))
