"""Adjusted Rand index between two clusterings (paper §7.2, Hubert &
Arabie 1985).

ARI = (sum_ij C(n_ij,2) − E) / ((sum_i C(a_i,2) + sum_j C(b_j,2))/2 − E)
with E = sum_i C(a_i,2) · sum_j C(b_j,2) / C(n,2), computed from the
contingency table of the two labelings. Both labelings must be total
over the same vertex set; callers put unclustered vertices in singleton
clusters (consistent with the modularity treatment) so the Figure 10
comparison of approximate-vs-exact clusterings penalizes wrongly
clustered *and* wrongly unclustered vertices.
"""
from __future__ import annotations

import pandas as pd


def _comb2(x):
    return x * (x - 1) / 2.0


def _ari_from_sums(sum_nij2: float, sum_a2: float, sum_b2: float, n: int) -> float:
    total = _comb2(float(n))
    if total == 0:
        return 1.0
    expected = sum_a2 * sum_b2 / total
    max_index = (sum_a2 + sum_b2) / 2.0
    if max_index == expected:  # both labelings trivial (all-singleton or all-one)
        return 1.0 if sum_nij2 == expected else 0.0
    return (sum_nij2 - expected) / (max_index - expected)


def adjusted_rand_index_pandas(
    labels_a: dict[int, int], labels_b: dict[int, int]
) -> float:
    """ARI of two total {vertex: cluster} maps."""
    if set(labels_a) != set(labels_b):
        raise ValueError("labelings must cover the same vertex set")
    df = pd.DataFrame(
        {
            "ca": pd.Series(labels_a),
            "cb": pd.Series(labels_b),
        }
    )
    n = len(df)
    nij = df.groupby(["ca", "cb"]).size().to_numpy(float)
    na = df.groupby("ca").size().to_numpy(float)
    nb = df.groupby("cb").size().to_numpy(float)
    return _ari_from_sums(
        float(_comb2(nij).sum()), float(_comb2(na).sum()), float(_comb2(nb).sum()), n
    )
