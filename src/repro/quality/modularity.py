"""Newman modularity of a clustering (paper §7.2).

Q = sum over clusters c of [ W_in(c)/W − (S(c)/(2W))² ] where W is the
total edge weight, W_in(c) the intra-cluster edge weight, and S(c) the
summed weighted degree of c's vertices — the standard per-community
form of the paper's pairwise definition, extended to weighted graphs
per Newman (2004). Unclustered vertices are treated as singleton
clusters, exactly as the paper does for its Figure 9 measurements
(§7.3.4); a singleton's W_in is 0 (simple graphs have no self-loops) so
it contributes only its −(deg/(2W))² term.

Computed with numpy/pandas on the driver: the Figure 9/10 experiments
sweep a dense (mu, eps) grid, so a driver-resident graph is scored
thousands of times.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def modularity_pandas(edges: pd.DataFrame, labels: dict[int, int]) -> float:
    """Modularity of a *total* labeling over all vertices.

    ``edges``: canonical (u, v[, w]) pandas frame; ``labels``: total
    {vertex: cluster} map (callers put unclustered vertices in their
    own singleton clusters, e.g. label = vertex id —
    :meth:`repro.core.query.ClusteringResult.full_labels` does this).
    """
    if edges.empty:
        return 0.0
    w = edges["w"].to_numpy(float) if "w" in edges.columns else np.ones(len(edges))
    lab = pd.Series(labels)
    cu = lab.reindex(edges["u"]).to_numpy()
    cv = lab.reindex(edges["v"]).to_numpy()
    W = w.sum()
    win = w[cu == cv].sum()
    wdeg = pd.concat(
        [
            pd.DataFrame({"v": edges["u"], "wd": w}),
            pd.DataFrame({"v": edges["v"], "wd": w}),
        ]
    ).groupby("v")["wd"].sum()
    S = (
        pd.DataFrame({"cluster": lab.reindex(wdeg.index).to_numpy(), "wd": wdeg.to_numpy()})
        .groupby("cluster")["wd"]
        .sum()
        .to_numpy()
    )
    return float(win / W - (S**2).sum() / (4.0 * W * W))
