"""Experiment harness smoke tests: registry integrity, formatting, and
one tiny end-to-end run per experiment on miniature datasets."""
import json
import runpy
import sys

import pytest

from repro.core.approx import ApproxStats
from repro.core.index import build_index
from repro.core.query import query_clusters
from repro.experiments import datasets
from repro.experiments import exp_approx_construction as fig8
from repro.experiments.exp_approx_construction import run as run_fig8
from repro.experiments.exp_approx_quality import run as run_fig9_10
from repro.experiments.exp_index_construction import run as run_fig5
from repro.experiments.exp_query import run_sweep
from repro.experiments import harness
from repro.experiments.harness import SHUFFLE_PARTITIONS, format_table, record_run, timed
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


def test_tests_run_on_the_jobs_session(spark):
    """The suite's session has the jobs' settings, so a test sees the
    plans and task counts that the recorded figures came from."""
    conf = spark.conf
    assert conf.get("spark.sql.shuffle.partitions") == str(SHUFFLE_PARTITIONS)
    assert conf.get("spark.sql.autoBroadcastJoinThreshold") == "-1"
    assert conf.get("spark.sql.execution.arrow.pyspark.enabled") == "true"


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


def test_fig8_times_the_exact_build_before_each_k(spark, mini_registry, monkeypatch):
    """Each k's REPS approximate builds follow REPS exact builds of
    their own, so both sides of a row are timed in the same JVM; one
    untimed exact build per graph comes first."""
    calls = []

    class Built:
        def persist(self):
            return self

        def unpersist(self):
            pass

    def exact(g, measure):
        calls.append(("exact", measure))
        return Built()

    def approx(g, k, measure, seed):
        calls.append(("approx", measure, k))
        return Built(), ApproxStats(1, 2, 3, float(k))

    monkeypatch.setattr(fig8, "build_index", exact)
    monkeypatch.setattr(fig8, "build_approx_index", approx)
    rows = run_fig8(spark, ["tiny_u"], ks=(4, 8))
    expect = [("exact", "cosine")]
    for measure in ("cosine", "jaccard"):
        for k in (4, 8):
            expect += [("exact", "cosine")] * fig8.REPS + [("approx", measure, k)] * fig8.REPS
    assert calls == expect
    assert [(r["scheme"], r["k"]) for r in rows] == [
        ("simhash", 4), ("simhash", 8), ("minhash", 4), ("minhash", 8)
    ]


def test_record_run_keeps_runs_of_the_same_code(spark, tmp_path, monkeypatch):
    """Runs of one SHA and session accumulate under their key, with the
    settings they ran on; a run of other code starts the list over, and
    other keys stay as they were."""
    path = tmp_path / "experiments.json"
    path.write_text('{"fig5": [{"x": 1}]}')
    monkeypatch.setattr(harness, "git_sha", lambda: "abc")
    record_run(spark, "fig8", [{"k": 8}], path)
    entry = record_run(spark, "fig8", [{"k": 16}], path)
    assert entry["runs"] == [[{"k": 8}], [{"k": 16}]]
    assert entry["shuffle_partitions"] == SHUFFLE_PARTITIONS
    assert entry["cores"] == spark.sparkContext.defaultParallelism
    monkeypatch.setattr(harness, "git_sha", lambda: "def")
    record_run(spark, "fig8", [{"k": 32}], path)
    data = json.loads(path.read_text())
    assert data["fig8"]["git_sha"] == "def"
    assert data["fig8"]["runs"] == [[{"k": 32}]]
    assert data["fig5"] == [{"x": 1}]


def test_git_sha_names_this_checkout():
    sha = harness.git_sha()
    assert sha == "unknown" or len(sha.removesuffix("-dirty")) >= 7


def test_fig9_10_smoke(spark, mini_registry):
    rows = run_fig9_10(spark, ("tiny_w",), ks=(4,), seeds=(0,))
    assert [r["k"] for r in rows] == ["exact", 4]
    exact_row, k_row = rows
    assert exact_row["ari_vs_exact"] == 1.0
    assert -1 <= k_row["best_modularity"] <= 1
    assert -1 <= k_row["ari_vs_exact"] <= 1


def test_build_and_query_entrypoints(spark, mini_registry, tmp_path, monkeypatch, capsys):
    """jobs/build_index.py saves an index that jobs/query_clusters.py
    loads and queries, each run from its command line: the cluster
    sizes printed are those of the same query on a built index."""
    out = str(tmp_path / "idx")
    for argv in (["build_index.py", "tiny_w", out], ["query_clusters.py", out, "3", "0.5"]):
        monkeypatch.setattr(sys, "argv", argv)
        runpy.run_path(str(harness.ROOT / "jobs" / argv[0]), run_name="__main__")
    printed = capsys.readouterr().out
    assert f"saved wcosine index for tiny_w -> {out}" in printed
    _, table = printed.split("clusters for mu=3, eps=0.5:\n")
    g = datasets.load(spark, "tiny_w")
    expect = query_clusters(build_index(g, "wcosine"), 3, 0.5).assignments_pdf
    g.unpersist()
    sizes = sorted(expect.groupby("cluster").size(), reverse=True)
    assert sizes
    assert [int(line.split()[1]) for line in table.splitlines()[1:]] == sizes[:50]


def test_figure_job_records_its_rows(spark, mini_registry, tmp_path, monkeypatch, capsys):
    """jobs/run_fig5_index_construction.py, run from its command line,
    prints its rows and records them as one run under ``fig5`` of the
    file ``harness.RESULTS`` names when it is called; the recorded
    results file stays as it was."""
    results = harness.RESULTS.read_bytes()
    out = tmp_path / "experiments.json"
    monkeypatch.setattr(harness, "RESULTS", out)
    monkeypatch.setattr(sys, "argv", ["run_fig5_index_construction.py", "tiny_u"])
    runpy.run_path(str(harness.ROOT / "jobs" / sys.argv[0]), run_name="__main__")
    entry = json.loads(out.read_text())["fig5"]
    [rows] = entry["runs"]
    assert [r["dataset"] for r in rows] == ["tiny_u"]
    assert f"recorded run 1 of {entry['git_sha']} under fig5" in capsys.readouterr().out
    assert (harness.ROOT / "results" / "experiments.json").read_bytes() == results
