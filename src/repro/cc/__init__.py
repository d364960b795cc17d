"""Connected components for cluster queries.

The paper's theory uses Gazit's O(log n)-span connectivity; its
implementation uses union-find (§6.2). So does this repo: a query's
core subgraph is output-sized (Theorem 4.3) and already on the driver,
where a bulk-synchronous union-find over numpy arrays labels its
components.
"""
from repro.cc.union_find import components_from_edges, min_labels

__all__ = ["components_from_edges", "min_labels"]
