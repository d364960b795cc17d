"""SimHash sketches and cosine estimation: determinism, statistical
convergence, and the Theorem-5.2 classification property."""
import numpy as np
import pandas as pd
import pytest

from repro.core.similarity import edge_similarities
from repro.graph.triangles import collect_csr
from repro.lsh.hashing import gaussians, hash_tuple
from repro.lsh.minhash import EMPTY, minhash_matrix, minhash_sketches
from repro.lsh.simhash import simhash_edge_similarities, simhash_matrix, simhash_sketches


def _estimates(g, k, seed=0):
    sk = simhash_sketches(g, k, seed)
    return (
        simhash_edge_similarities(g.edges, sk, k)
        .toPandas()
        .set_index(["u", "v"])["sim"]
    )


def test_sketch_length_and_coverage(fig1):
    sk = simhash_sketches(fig1, 32, 0).toPandas()
    assert len(sk) == 11
    assert all(len(s) == 1 for s in sk["sketch"])  # 32 bits fit one int64 word


def _words(sketches) -> list[tuple]:
    return [tuple(s) for s in sketches]


def test_sketches_deterministic(fig1):
    a = simhash_sketches(fig1, 16, 5).toPandas().sort_values("v")
    b = simhash_sketches(fig1, 16, 5).toPandas().sort_values("v")
    assert _words(a["sketch"]) == _words(b["sketch"])


def test_sketches_differ_across_seeds(sbm_small):
    a = simhash_sketches(sbm_small, 64, 0).toPandas().sort_values("v")
    b = simhash_sketches(sbm_small, 64, 1).toPandas().sort_values("v")
    assert _words(a["sketch"]) != _words(b["sketch"])


def test_identical_closed_neighborhoods_identical_sketches(fig1):
    # N̄(1) == N̄(3) == {1,2,3,4} in the Figure-1 graph
    sk = simhash_sketches(fig1, 64, 0).toPandas()
    sk = dict(zip(sk["v"], _words(sk["sketch"])))
    assert sk[1] == sk[3]


def test_estimate_is_one_for_identical_neighborhoods(fig1):
    sk = simhash_sketches(fig1, 32, 0)
    est = dict(
        simhash_edge_similarities(fig1.edges, sk, 32)
        .toPandas()
        .set_index(["u", "v"])["sim"]
        .items()
    )
    assert est[(1, 3)] == pytest.approx(1.0)  # exact sigma(1,3) = 1


def test_estimates_in_valid_range(sbm_small):
    est = _estimates(sbm_small, 32)
    assert (est >= -1.0).all() and (est <= 1.0).all()


@pytest.mark.parametrize("seed", [0, 1])
def test_high_k_estimates_converge(sbm_small, exact_sims, seed):
    est = _estimates(sbm_small, 512, seed)
    exact = exact_sims(sbm_small, "cosine")
    err = (est - exact).abs()
    # per-edge sd ~ pi*sqrt(p(1-p)/k) ~= 0.07; mean over ~350 edges is
    # tight, the max is a ~4-sigma order statistic
    assert err.mean() < 0.06
    assert err.max() < 0.3


def test_error_shrinks_with_k(sbm_small, exact_sims):
    est8 = _estimates(sbm_small, 8)
    exact = exact_sims(sbm_small, "cosine")
    est256 = _estimates(sbm_small, 256)
    assert (est256 - exact).abs().mean() < (est8 - exact).abs().mean()


def test_theorem_52_classification(sbm_small, exact_sims):
    """With k >= pi^2 ln(nm) / (2 delta^2), edges outside
    (eps - delta, eps + sqrt(1-eps^2) delta) classify correctly
    w.h.p. — checked exhaustively for one (eps, delta)."""
    eps, delta = 0.5, 0.35
    n, m = sbm_small.num_vertices, sbm_small.num_edges()
    k = int(np.ceil(np.pi**2 * np.log(n * m) / (2 * delta**2)))
    est = _estimates(sbm_small, k, seed=3)
    exact = exact_sims(sbm_small, "cosine")
    lo, hi = eps - delta, eps + np.sqrt(1 - eps**2) * delta
    for key in exact.index:
        s = exact[key]
        if lo < s < hi:
            continue  # theorem makes no claim inside the window
        assert (est[key] >= eps) == (s >= eps), (key, s, est[key])


def test_weighted_sketches_respect_weights(weighted_small, exact_sims):
    est = _estimates(weighted_small, 512, seed=2)
    exact = exact_sims(weighted_small, "wcosine")
    assert (est - exact).abs().mean() < 0.08


def test_scope_restricts_sketched_vertices(fig1, spark):
    import pandas as pd

    scope = spark.createDataFrame(pd.DataFrame({"v": [1, 2, 3]}))
    sk = simhash_sketches(fig1, 16, 0, scope=scope).toPandas()
    assert set(sk["v"]) == {1, 2, 3}


def test_scope_skips_isolated_and_unknown_vertices(with_isolated, spark):
    """Only scope vertices with a neighbor get a sketch, once each."""
    scope = spark.createDataFrame(pd.DataFrame({"v": [1, 5, 2, 2, 99]}))
    sk = simhash_sketches(with_isolated, 16, 0, scope=scope).toPandas()
    assert sk["v"].tolist() == [2]
    isolated = spark.createDataFrame(pd.DataFrame({"v": [1, 5]}))
    assert simhash_sketches(with_isolated, 16, 0, scope=isolated).count() == 0


def _closed_sets(g, weighted: bool) -> dict:
    """v -> (ids ascending as uint64, weights) of each closed
    neighborhood of ``g``, from its edge list in pandas."""
    pdf = g.to_pandas()
    n = g.num_vertices
    closed = pd.concat(
        [
            pdf,
            pdf.rename(columns={"u": "v", "v": "u"}),
            pd.DataFrame({"u": range(1, n + 1), "v": range(1, n + 1), "w": 1.0}),
        ]
    ).sort_values(["u", "v"])
    return {
        v: (
            rows["v"].to_numpy(np.uint64),
            rows["w"].to_numpy(np.float64) if weighted else np.ones(len(rows)),
        )
        for v, rows in closed.groupby("u")
    }


def _reference_sketch(scheme: str, xs: np.ndarray, w: np.ndarray, k: int, seed: int):
    """One vertex's sketch computed on the driver from lsh/hashing.py."""
    if scheme == "simhash":
        return np.packbits(w @ gaussians(seed, xs, k) >= 0.0).tobytes()
    if scheme == "standard":
        j = np.arange(k, dtype=np.uint64)
        h = hash_tuple(seed, xs[:, None], j[None, :], salt=0x7A)
        return h.min(axis=0).view(np.int64).tolist()
    out = [EMPTY] * k  # oph: the minimum of h div k in bin h mod k
    for h in hash_tuple(seed, xs, salt=0x7B):
        b, val = int(h % np.uint64(k)), int(h // np.uint64(k))
        out[b] = val if out[b] == EMPTY else min(out[b], val)
    # The uint64 minima, read as int64 like every sketch.
    return [x if x == EMPTY else int(np.array(x, np.uint64).view(np.int64)) for x in out]


def _assert_sketch_is(scheme: str, sketch, want) -> None:
    if scheme == "simhash":
        packed = np.asarray(sketch, np.int64).astype(">i8").tobytes()
        assert packed[: len(want)] == want  # the same bits, first bit highest
        assert not any(packed[len(want) :])  # and zeros past them
    else:
        assert list(sketch) == want


@pytest.mark.parametrize("k", [1, 24, 64, 65])
@pytest.mark.parametrize("graph", ["weighted_small", "with_isolated"])
@pytest.mark.parametrize(
    "scheme, weighted",
    [("simhash", False), ("simhash", True), ("standard", False), ("oph", False)],
)
def test_table_sketches_equal_per_vertex_reference(request, graph, k, scheme, weighted):
    """The one-table sketches of a build equal, bit for bit, each
    vertex's sketch drawn alone, for every vertex 1..n (isolated ones
    and n included)."""
    g, seed = request.getfixturevalue(graph), 5
    csr = collect_csr(g)
    vs = np.arange(1, g.num_vertices + 1)
    if scheme == "simhash":
        got = simhash_matrix(csr, vs, k, seed, weighted)
    else:
        got = minhash_matrix(csr, vs, k, seed, variant=scheme)
    assert got.shape == (len(vs), -(-k // 64) if scheme == "simhash" else k)
    closed = _closed_sets(g, weighted)
    for v, sketch in zip(vs, got):
        _assert_sketch_is(scheme, sketch, _reference_sketch(scheme, *closed[v], k, seed))


@pytest.mark.parametrize("scheme", ["simhash", "standard", "oph"])
def test_scoped_sketch_frames_equal_reference(spark, weighted_small, scheme):
    """The public frames sketch each scope vertex once, from its whole
    closed neighborhood (edge weights for SimHash)."""
    g, k, seed = weighted_small, 24, 3
    scope_ids = list(range(1, g.num_vertices + 1, 2))
    scope = spark.createDataFrame(pd.DataFrame({"v": scope_ids}))
    if scheme == "simhash":
        sk = simhash_sketches(g, k, seed, scope=scope)
    else:
        sk = minhash_sketches(g, k, seed, variant=scheme, scope=scope)
    got = sk.toPandas()
    assert got["v"].tolist() == scope_ids
    closed = _closed_sets(g, weighted=True)
    for v, sketch in zip(got["v"], got["sketch"]):
        _assert_sketch_is(scheme, sketch, _reference_sketch(scheme, *closed[v], k, seed))
