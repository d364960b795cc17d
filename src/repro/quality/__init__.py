"""Clustering quality measures used in the paper's §7.2: (weighted)
Newman modularity and the adjusted Rand index, both computed on the
driver over collected labelings."""
from repro.quality.ari import adjusted_rand_index_pandas
from repro.quality.modularity import modularity_pandas

__all__ = ["modularity_pandas", "adjusted_rand_index_pandas"]
