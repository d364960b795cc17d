"""ppSCAN-style per-query baseline: pruning-bound soundness and
agreement with the index engine (paper: all SCAN variants return the
same clustering up to ambiguous border assignment)."""
import pytest

from repro.baselines.pscan import _bounds, pscan_query
from repro.core.query import query_clusters
from repro.core.similarity import edge_similarities

PARAMS = [(2, 0.2), (3, 0.4), (3, 0.6), (5, 0.5), (2, 0.8), (4, 0.7)]


@pytest.mark.parametrize("measure", ["cosine", "jaccard"])
def test_bounds_are_sound(sbm_small, measure):
    """lb <= sigma <= ub for every edge — the pruning precondition."""
    pdf = sbm_small.to_pandas()
    deg = dict(sbm_small.degrees().toPandas().itertuples(index=False))
    du, dv = pdf["u"].map(deg).to_numpy(), pdf["v"].map(deg).to_numpy()
    lb, ub = _bounds(measure, du, dv)
    bounds = pdf.assign(lb=lb, ub=ub).set_index(["u", "v"])
    sims = (
        edge_similarities(sbm_small, measure).toPandas().set_index(["u", "v"])["sim"]
    )
    for key in sims.index:
        assert bounds.loc[key, "lb"] <= sims[key] + 1e-12
        assert sims[key] <= bounds.loc[key, "ub"] + 1e-12


def _core_partition(labels_df):
    """{frozenset of cores per cluster} from an assignments DataFrame."""
    pdf = labels_df.where("is_core").select("v", "cluster").toPandas()
    return {
        frozenset(grp["v"]) for _, grp in pdf.groupby("cluster")
    }


@pytest.mark.parametrize("mu,eps", PARAMS)
def test_same_clusters_as_index_engine(sbm_small, sbm_small_index, mu, eps):
    """Core clusters and the clustered-vertex set must match exactly;
    border *assignments* may differ (ambiguous by definition, §3.1)."""
    via_index = query_clusters(sbm_small_index, mu, eps)
    via_pscan = pscan_query(sbm_small, mu, eps, "cosine")
    assert _core_partition(via_index.assignments) == _core_partition(
        via_pscan.assignments
    )
    a = {r.v for r in via_index.assignments.collect()}
    b = {r.v for r in via_pscan.assignments.collect()}
    assert a == b


@pytest.mark.parametrize("mu,eps", [(3, 0.5), (2, 0.7)])
def test_border_assignments_valid(sbm_small, sbm_small_index, mu, eps):
    """Every pscan border vertex must sit in a cluster containing at
    least one eps-similar core — the SCAN validity condition."""
    res = pscan_query(sbm_small, mu, eps, "cosine")
    pdf = res.assignments.toPandas()
    cores = set(pdf.loc[pdf["is_core"], "v"])
    cluster_of = dict(pdf[["v", "cluster"]].itertuples(index=False))
    sims = (
        edge_similarities(sbm_small, "cosine").toPandas().set_index(["u", "v"])["sim"]
    )

    def sim(a, b):
        return sims.get((min(a, b), max(a, b)), 0.0)

    adj = {}
    for (a, b) in sims.index:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for row in pdf[~pdf["is_core"]].itertuples(index=False):
        ok = any(
            x in cores and cluster_of[x] == row.cluster and sim(row.v, x) >= eps
            for x in adj.get(row.v, [])
        )
        assert ok, f"border {row.v} invalidly assigned to {row.cluster}"


@pytest.mark.parametrize("mu,eps", [(3, 0.4), (4, 0.6)])
def test_jaccard_agreement(sbm_small, mu, eps):
    from repro.core.index import build_index

    idx = build_index(sbm_small, "jaccard")
    via_index = query_clusters(idx, mu, eps)
    via_pscan = pscan_query(sbm_small, mu, eps, "jaccard")
    assert _core_partition(via_index.assignments) == _core_partition(
        via_pscan.assignments
    )


def test_fig1_pscan(fig1):
    res = pscan_query(fig1, 3, 0.6, "cosine")
    labels = res.labels_pandas()
    assert labels == {1: 1, 2: 1, 3: 1, 4: 1, 6: 6, 7: 6, 8: 6, 11: 6}


def test_weighted_measure_rejected(weighted_small):
    with pytest.raises(ValueError):
        pscan_query(weighted_small, 3, 0.5, "wcosine")


def test_mu_below_two_rejected(fig1):
    with pytest.raises(ValueError):
        pscan_query(fig1, 1, 0.5)
