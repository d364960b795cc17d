"""Experiment harness smoke tests: registry integrity, formatting, and
one tiny end-to-end run per experiment on miniature datasets."""
import pytest

from repro.experiments import datasets
from repro.experiments.exp_approx_construction import run as run_fig8
from repro.experiments.exp_approx_quality import run as run_fig9_10
from repro.experiments.exp_index_construction import run as run_fig5
from repro.experiments.exp_query import run_sweep
from repro.experiments.harness import format_table, timed
from repro.graph import generators as gen


@pytest.fixture()
def mini_registry(monkeypatch):
    """Shrink the registry so experiment smoke tests stay fast."""
    def tiny_unweighted(spark):
        return gen.sbm_graph(spark, n=40, n_blocks=2, p_in=0.5, p_out=0.08, seed=21)

    def tiny_weighted(spark):
        return gen.sbm_graph(
            spark, n=30, n_blocks=2, p_in=0.6, p_out=0.1, seed=22, weighted=True
        )

    reg = {
        "tiny_u": datasets.DatasetSpec("tiny_u", "t", 1, 1, False, False, tiny_unweighted),
        "tiny_w": datasets.DatasetSpec("tiny_w", "t", 1, 1, True, True, tiny_weighted),
    }
    monkeypatch.setattr(datasets, "REGISTRY", reg)
    return reg


def test_registry_covers_table2():
    assert set(datasets.REGISTRY) == {
        "orkut_lite",
        "brain_lite",
        "webbase_lite",
        "friendster_lite",
        "bloodvessel_lite",
        "cochlea_lite",
    }
    weighted = {n for n, s in datasets.REGISTRY.items() if s.weighted}
    assert weighted == {"bloodvessel_lite", "cochlea_lite"}


def test_measure_for():
    assert datasets.measure_for("orkut_lite") == "cosine"
    assert datasets.measure_for("cochlea_lite") == "wcosine"


def test_dense_flags_match_paper_shape():
    dense = {n for n, s in datasets.REGISTRY.items() if s.dense}
    assert dense == {"brain_lite", "bloodvessel_lite", "cochlea_lite"}


def test_load_smallest_dataset(spark):
    g = datasets.load(spark, "bloodvessel_lite")
    assert g.num_vertices == 400
    assert g.num_edges() > 10_000
    assert g.weighted
    g.unpersist()


def test_timed_returns_result_and_positive_time():
    out, t = timed(lambda: sum(range(1000)))
    assert out == 499500 and t >= 0


def test_format_table_and_markdown():
    rows = [{"a": 1, "b": 0.123456}, {"a": 2, "c": "x"}]
    md = format_table(rows, "T")
    assert md.startswith("T\n\n| a | b | c |\n|---|---|---|\n")
    assert "| 1 | 0.1235 |  |" in md
    assert "| 2 |  | x |" in md


def test_format_empty():
    assert "(no rows)" in format_table([], "x")
    assert format_table([]) == "(no rows)"


def test_fig5_smoke(spark, mini_registry):
    rows = run_fig5(spark, ["tiny_u"])
    assert len(rows) == 1
    r = rows[0]
    assert r["dataset"] == "tiny_u" and r["m"] > 0
    assert r["seq_gs_index_s"] > 0 and r["spark_parallel_s"] > 0


def test_fig6_smoke(spark, mini_registry):
    rows = run_sweep(spark, ("tiny_u",), sweep="eps")
    assert len(rows) == 9  # eps in .1..,.9
    assert all(r["index_spark_s"] > 0 and r["ppscan_spark_s"] > 0 for r in rows)


def test_fig7_smoke(spark, mini_registry):
    rows = run_sweep(spark, ("tiny_u",), sweep="mu")
    assert {r["mu"] for r in rows} >= {2, 4, 8}
    assert all(r["eps"] == 0.6 for r in rows)


def test_fig7_weighted_skips_ppscan(spark, mini_registry):
    rows = run_sweep(spark, ("tiny_w",), sweep="eps")
    assert all(r["ppscan_spark_s"] is None for r in rows)
    assert all(r["index_spark_s"] > 0 for r in rows)


def test_fig8_smoke(spark, mini_registry):
    rows = run_fig8(spark, ["tiny_u"], ks=(4,))
    # unweighted graph: cosine + jaccard schemes
    assert {r["scheme"] for r in rows} == {"simhash", "minhash"}
    for r in rows:
        assert r["edges_approx"] + r["edges_exact"] == rows[0]["edges_approx"] + rows[0]["edges_exact"]
        assert r["approx_build_s"] > 0 and r["exact_build_s"] > 0


def test_fig9_10_smoke(spark, mini_registry):
    rows = run_fig9_10(spark, ("tiny_w",), ks=(4,), seeds=(0,))
    assert [r["k"] for r in rows] == ["exact", 4]
    exact_row, k_row = rows
    assert exact_row["ari_vs_exact"] == 1.0
    assert -1 <= k_row["best_modularity"] <= 1
    assert -1 <= k_row["ari_vs_exact"] <= 1
