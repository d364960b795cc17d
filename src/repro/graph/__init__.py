"""Graph substrate: representation, generators, and common-neighbor counting.

PySpark has no GraphX binding, so this package *is* the graph engine
for the reproduction: an undirected graph is a canonical edge DataFrame
(``u < v``), and the per-edge work of a build is a numpy kernel over a
driver-made CSR, run by one Spark stage over the edge partitions
(:mod:`repro.graph.triangles`).
"""
from repro.graph.graphframe import UndirectedGraph, canonical_edges

__all__ = ["UndirectedGraph", "canonical_edges"]
