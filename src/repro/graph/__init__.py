"""Graph substrate: representation, generators, and common-neighbor counting.

PySpark has no GraphX binding, so this package *is* the graph engine
for the reproduction: an undirected graph is a canonical edge DataFrame
(``u < v``), vertex-centric steps are joins/aggregations, and sorted
adjacency structures are rank columns.
"""
from repro.graph.graphframe import UndirectedGraph, canonical_edges

__all__ = ["UndirectedGraph", "canonical_edges"]
