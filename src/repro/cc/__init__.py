"""Connected components for cluster queries.

The paper's theory uses Gazit's O(log n)-span connectivity; its
implementation uses union-find (§6.2). So does this repo: a query's
core subgraph is output-sized (Theorem 4.3), so it is collected and
its components are found with union-find on the driver.
"""
from repro.cc.union_find import UnionFind, components_from_edges

__all__ = ["UnionFind", "components_from_edges"]
