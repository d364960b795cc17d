"""The traced run: per-layer spans around calls into each layer.

Each layer's output is persisted and forced before the next layer
consumes it, so a span covers that layer's own work. Where a public
function calls another layer internally, Spark answers the inner call
from the persisted output when the plans match (the triangle pass
inside ``edge_similarities``). Where it cannot, the span is inclusive:
``approx_edge_similarities`` is reported whole next to its LSH and
probe layers, and assembly's self time subtracts the separately timed
union-find. The whole build and the whole query are also timed as
users run them, next to the sum of their layers' spans.
"""
from __future__ import annotations

import statistics

import pandas as pd
from pyspark.sql import functions as F

from repro.baselines.gs_index_seq import SequentialGSIndex
from repro.baselines.pscan import pscan_query
from repro.cc.union_find import components_from_edges
from repro.core.approx import approx_edge_similarities, degree_threshold
from repro.core.index import SCANIndex, neighbor_order_from_similarities
from repro.core.query import assemble_clustering, get_cores, query_clusters, similar_edges_from_cores
from repro.core.similarity import edge_similarities, similarities_for_edges
from repro.graph.triangles import triangle_edge_aggregates
from repro.lsh.minhash import minhash_edge_similarities, minhash_sketches
from repro.lsh.simhash import simhash_edge_similarities, simhash_sketches
from spans import Tracer, force
from workloads import MEASURE, Ops, Workload, build, check_index, lsh_k, query_points

#: (name, unit, end-to-end metric it should move) of every per-layer
#: metric, in report order. The LSH and probe layers run on every
#: workload's graph at that graph's k (``workloads.lsh_k``); only
#: brain-lsh times them end to end.
METRICS = (
    ("graph.generate_s", "s", "setup_s"),
    ("graph.degrees_s", "s", "build_s"),
    ("graph.triangles.time_s", "s", "build_s (orkut-query)"),
    ("graph.triangles.jobs", "count", "build_s (orkut-query)"),
    ("graph.triangles.stages", "count", "build_s (orkut-query)"),
    ("core.similarity.exact_self_s", "s", "build_s (orkut-query)"),
    ("core.similarity.jobs", "count", "build_s (orkut-query)"),
    ("core.similarity.probe_s", "s", "build_s (brain-lsh)"),
    ("core.index.no_rank_s", "s", "build_s"),
    ("core.index.build_jobs", "count", "build_s"),
    ("core.index.build_stages", "count", "build_s"),
    ("core.index.build_tasks", "count", "build_s"),
    ("core.index.plan_lines", "count", "query_p50_s"),
    ("core.index.save_s", "s", "none: no timed workload saves"),
    ("core.index.load_s", "s", "none: no timed workload loads"),
    ("core.index.saved_bytes", "bytes", "none: no timed workload saves"),
    ("core.index.loaded_plan_lines", "count", "none: no timed workload loads"),
    ("core.query.plan_s", "s", "query_p50_s"),
    ("core.query.cores_s", "s", "query_p50_s"),
    ("core.query.eps_edges_s", "s", "query_p50_s"),
    ("core.query.assemble_s", "s", "query_p50_s"),
    ("core.query.jobs", "count", "query_p50_s"),
    ("core.query.stages", "count", "query_p50_s"),
    ("core.query.tasks", "count", "query_p50_s"),
    ("cc.union_find.time_s", "s", "query_p50_s"),
    ("core.approx.time_s", "s", "build_s, sim_accuracy (brain-lsh)"),
    ("lsh.simhash.sketch_s", "s", "build_s (brain-lsh)"),
    ("lsh.simhash.estimate_s", "s", "build_s (brain-lsh)"),
    ("lsh.minhash.sketch_s", "s", "none: no timed workload runs MinHash"),
    ("lsh.minhash.estimate_s", "s", "none: no timed workload runs MinHash"),
    ("baselines.gs_index_seq.build_s", "s", "none: Fig 5/6/7 yardsticks"),
    ("baselines.gs_index_seq.query_s", "s", "none: Fig 5/6/7 yardsticks"),
    ("baselines.pscan.query_s", "s", "none: Fig 5/6/7 yardsticks"),
    ("trace.build_e2e_s", "s", "build_s"),
    ("trace.build_self_sum_s", "s", "build_s"),
    ("trace.query_e2e_s", "s", "query_p50_s"),
    ("trace.query_self_sum_s", "s", "query_p50_s"),
)

#: Row counts that describe each layer's output rather than its cost.
#: They have no better direction, so they are printed and recorded
#: with the traced run, not reported as metrics.
COUNTS = (
    ("graph.triangles.triangles", "count"),
    ("core.similarity.probe_edges", "count"),
    ("core.index.no_rows", "count"),
    ("core.index.co_rows", "count"),
    ("core.query.cores", "count"),
    ("core.query.eps_edges", "count"),
    ("core.query.eps_edge_share", "1"),
    ("core.query.clusters", "count"),
    ("core.query.clustered", "count"),
    ("cc.union_find.edges", "count"),
    ("cc.union_find.components", "count"),
    ("core.approx.edges_approx", "count"),
    ("core.approx.edges_exact", "count"),
    ("core.approx.sketched", "count"),
    ("core.approx.approx_share", "1"),
    ("lsh.simhash.k", "1"),
    ("lsh.minhash.k", "1"),
)


def _plan_lines(df) -> int:
    return len(df._jdf.queryExecution().executedPlan().toString().splitlines())


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _split_by_degree(g, deg, thr: float):
    """The approximate (both endpoints above ``thr``) and exact edge
    sets of the §6.3 heuristic, and the vertices it sketches."""
    e = g.edges.join(
        F.broadcast(deg.withColumnRenamed("v", "u").withColumnRenamed("deg", "du")), "u"
    ).join(F.broadcast(deg.withColumnRenamed("deg", "dv")), "v")
    is_approx = (F.col("du") > thr) & (F.col("dv") > thr)
    approx = e.where(is_approx).select("u", "v", "w").persist()
    exact = e.where(~is_approx).select("u", "v").persist()
    scope = (
        approx.select(F.col("u").alias("v")).unionByName(approx.select("v")).distinct()
    ).persist()
    for df in (approx, exact, scope):
        force(df)
    return approx, exact, scope


def profile(spark, wl: Workload, g, edges: pd.DataFrame, seed: int, tr: Tracer,
            gen_s: list[float], scratch) -> tuple[dict, dict, Ops]:
    """All per-layer metrics and row counts of ``wl`` on graph ``g``."""
    ops = Ops()
    out: dict = {"graph.generate_s": statistics.median(gen_s)}
    n, m = g.num_vertices, g.num_edges()
    k_sim, k_min = lsh_k(edges, n)
    out["lsh.simhash.k"], out["lsh.minhash.k"] = k_sim, k_min

    # -- baselines (the sequential index doubles as the oracle) -------
    with tr.span("baselines.gs_index_seq.build") as s:
        oracle = SequentialGSIndex(edges, n, MEASURE).build()
    out["baselines.gs_index_seq.build_s"] = s.seconds
    mu, eps = query_points(wl, oracle, edges)[0]
    with tr.span("baselines.gs_index_seq.query") as s:
        expect = oracle.query(mu, eps)
    out["baselines.gs_index_seq.query_s"] = s.seconds
    with tr.span("baselines.pscan.query") as s:
        pscan_query(g, mu, eps, MEASURE).assignments.unpersist()
    out["baselines.pscan.query_s"] = s.seconds

    # -- the workload's build and query, as users run them ------------
    with tr.span("core.index.build") as s:
        idx = ops.run("build", lambda: build(wl, g, k_sim, seed)[0])
    out["trace.build_e2e_s"] = s.seconds
    out["core.index.build_jobs"] = s.jobs
    out["core.index.build_stages"] = s.stages
    out["core.index.build_tasks"] = s.tasks
    out["core.index.plan_lines"] = _plan_lines(idx.neighbor_order)
    out["core.index.no_rows"] = idx.neighbor_order.count()
    out["core.index.co_rows"] = idx.core_order.count()
    own = check_index(ops, idx, oracle, m, exact=not wl.approx)

    with tr.span("core.query") as s:
        labels = ops.run("query", lambda: query_clusters(idx, mu, eps).labels_pandas())
    out["trace.query_e2e_s"] = s.seconds
    out["core.query.jobs"] = s.jobs
    out["core.query.stages"] = s.stages
    out["core.query.tasks"] = s.tasks
    if wl.approx and own is not None:
        expect = own.query(mu, eps)
    ops.check(f"query({mu}, {eps})", lambda: labels == expect)

    # -- query layers, against the index as it was built --------------
    with tr.span("core.query.layers"):
        cores = get_cores(idx, mu, eps)
        sim = similar_edges_from_cores(idx, cores, eps)
        with tr.span("core.query.plan") as s_plan:
            cores._jdf.queryExecution().executedPlan()
            sim._jdf.queryExecution().executedPlan()
        with tr.span("core.query.cores") as s_cores:
            cores_pdf = cores.toPandas()
        with tr.span("core.query.eps_edges") as s_eps:
            sim_pdf = sim.toPandas()
        cores_in = spark.createDataFrame(cores_pdf, "v long").persist()
        sim_in = spark.createDataFrame(sim_pdf, "u long, v long, sim double").persist()
        force(cores_in)
        force(sim_in)
        with tr.span("core.query.assemble") as s_asm:
            res = assemble_clustering(cores_in, sim_in, mu, eps)
            force(res.assignments)
        core_set = set(cores_pdf["v"].tolist())
        cc = sim_pdf[sim_pdf["v"].isin(core_set) & (sim_pdf["u"] < sim_pdf["v"])]
        cc_edges = list(zip(cc["u"].tolist(), cc["v"].tolist()))
        with tr.span("cc.union_find") as s_uf:
            comps = components_from_edges(cc_edges, cores_pdf["v"].tolist())
        assigned = res.assignments.toPandas()
        cores_in.unpersist()
        sim_in.unpersist()
    out["core.query.plan_s"] = s_plan.seconds
    out["core.query.cores_s"] = s_cores.seconds
    out["core.query.cores"] = len(cores_pdf)
    out["core.query.eps_edges_s"] = s_eps.seconds
    out["core.query.eps_edges"] = len(sim_pdf)
    out["core.query.eps_edge_share"] = len(sim_pdf) / out["core.index.no_rows"]
    out["core.query.assemble_s"] = s_asm.seconds - s_uf.seconds
    out["core.query.clusters"] = int(assigned["cluster"].nunique())
    out["core.query.clustered"] = len(assigned)
    out["cc.union_find.time_s"] = s_uf.seconds
    out["cc.union_find.edges"] = len(cc_edges)
    out["cc.union_find.components"] = len(set(comps.values()))
    out["trace.query_self_sum_s"] = (
        s_plan.seconds + s_cores.seconds + s_eps.seconds + s_asm.seconds
    )

    # -- the index artifact ------------------------------------------
    path = scratch / "index"
    path.mkdir()
    with tr.span("core.index.save") as s:
        idx.save(str(path))
    out["core.index.save_s"] = s.seconds
    out["core.index.saved_bytes"] = _dir_bytes(path)
    with tr.span("core.index.load") as s:
        loaded = SCANIndex.load(spark, str(path))
    out["core.index.load_s"] = s.seconds
    out["core.index.loaded_plan_lines"] = _plan_lines(loaded.neighbor_order)
    idx.unpersist()

    # -- build layers -------------------------------------------------
    with tr.span("build.layers"):
        deg = g.degrees().persist()
        with tr.span("graph.degrees") as s_deg:
            force(deg)
        with tr.span("graph.triangles") as s_tri:
            tri = triangle_edge_aggregates(g).persist()
            force(tri)
        # edge_similarities runs its own triangle pass; Spark answers it
        # from the persisted one, so this span is the similarity's own.
        with tr.span("core.similarity") as s_sim:
            sims = edge_similarities(g, MEASURE).persist()
            force(sims)
        with tr.span("core.index.no_rank") as s_no:
            no = neighbor_order_from_similarities(sims).persist()
            force(no)
        total = tri.agg(F.sum("tri")).collect()[0][0]
        for df in (no, sims, tri):
            df.unpersist()
    out["graph.degrees_s"] = s_deg.seconds
    out["graph.triangles.time_s"] = s_tri.seconds
    out["graph.triangles.jobs"] = s_tri.jobs
    out["graph.triangles.stages"] = s_tri.stages
    out["graph.triangles.triangles"] = int(total or 0) // 3
    out["core.similarity.exact_self_s"] = s_sim.seconds
    out["core.similarity.jobs"] = s_sim.jobs
    out["core.index.no_rank_s"] = s_no.seconds
    exact_layers = s_tri.seconds + s_sim.seconds

    # -- approximation and LSH (degrees stay persisted) ---------------
    with tr.span("approx.layers"):
        with tr.span("core.approx") as s_apx:
            asims, stats = approx_edge_similarities(g, k_sim, MEASURE, seed=seed)
            asims = asims.persist()
            force(asims)
        asims.unpersist()
        approx, exact, scope = _split_by_degree(g, deg, degree_threshold(MEASURE, k_sim))
        with tr.span("core.similarity.probe") as s_probe:
            probe = similarities_for_edges(g, exact, MEASURE).persist()
            force(probe)
        out["core.similarity.probe_edges"] = exact.count()
        with tr.span("lsh.simhash.sketch") as s_sks:
            sk = simhash_sketches(g, k_sim, seed, scope=scope).persist()
            force(sk)
        with tr.span("lsh.simhash.estimate") as s_ests:
            est = simhash_edge_similarities(approx, sk, k_sim).persist()
            force(est)
        for df in (probe, sk, est, approx, exact, scope):
            df.unpersist()
        approx, exact, scope = _split_by_degree(g, deg, degree_threshold("jaccard", k_min))
        with tr.span("lsh.minhash.sketch") as s_skm:
            sk = minhash_sketches(g, k_min, seed, scope=scope).persist()
            force(sk)
        with tr.span("lsh.minhash.estimate") as s_estm:
            est = minhash_edge_similarities(approx, sk, k_min).persist()
            force(est)
        for df in (sk, est, approx, exact, scope, deg):
            df.unpersist()
    ops.check(
        "edges_approx + probed exact edges == m",
        lambda: stats.n_edges_approx + out["core.similarity.probe_edges"] == m,
    )
    out["core.approx.time_s"] = s_apx.seconds
    out["core.approx.edges_approx"] = stats.n_edges_approx
    out["core.approx.edges_exact"] = stats.n_edges_exact
    out["core.approx.sketched"] = stats.n_vertices_sketched
    out["core.approx.approx_share"] = stats.n_edges_approx / m
    out["core.similarity.probe_s"] = s_probe.seconds
    out["lsh.simhash.sketch_s"] = s_sks.seconds
    out["lsh.simhash.estimate_s"] = s_ests.seconds
    out["lsh.minhash.sketch_s"] = s_skm.seconds
    out["lsh.minhash.estimate_s"] = s_estm.seconds
    similarity = s_apx.seconds if wl.approx else exact_layers
    out["trace.build_self_sum_s"] = s_deg.seconds + similarity + s_no.seconds

    metrics = {name: {"value": out[name], "unit": unit} for name, unit, _ in METRICS}
    counts = {name: {"value": out[name], "unit": unit} for name, unit in COUNTS}
    return metrics, counts, ops
