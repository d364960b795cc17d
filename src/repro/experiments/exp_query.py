"""Figure 6/7 experiments: clustering-query time across (mu, eps).

Per parameter setting, three engines answer the same query:

- ``index_spark`` — our parallel index query (Algorithm 5), index
  construction excluded (paid once beforehand, as in the paper);
- ``ppscan_spark`` — the per-query baseline that recomputes (pruned)
  similarities every time, ppSCAN's algorithmic profile;
- ``index_seq`` — the sequential GS*-Index query (GS*-Index baseline).

Figure 6 sweeps eps at mu=5; Figure 7 sweeps mu at eps=0.6 up to the
largest power of two below the max degree, as in the paper. The shapes
to reproduce: the index query beats ppSCAN at every setting, and query
time falls as eps or mu grows (smaller core subgraph).
"""
from __future__ import annotations

from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.baselines.gs_index_seq import SequentialGSIndex
from repro.baselines.pscan import pscan_query
from repro.core.index import build_index
from repro.core.query import query_clusters
from repro.experiments import datasets
from repro.experiments.harness import timed

#: Figure 6/7 default parameter values (paper §7.3.2).
EPS_SWEEP = tuple(round(0.1 * i, 1) for i in range(1, 10))
FIG6_MU = 5
FIG7_EPS = 0.6


def _materialized_query(index, mu, eps):
    # query_clusters returns with the clustering on the driver, so the
    # timer covers the whole query without another Spark job.
    res = query_clusters(index, mu, eps)
    return res, len(res.labels_pandas())


def run_sweep(
    spark: SparkSession,
    dataset_names: tuple[str, ...] = ("orkut_lite", "brain_lite"),
    sweep: str = "eps",
) -> list[dict]:
    """Rows for Figure 6 (sweep="eps") or Figure 7 (sweep="mu")."""
    rows = []
    for name in dataset_names:
        g = datasets.load(spark, name)
        measure = datasets.measure_for(name)
        index = build_index(g, measure).persist()
        seq = SequentialGSIndex(g.to_pandas(), g.num_vertices, measure).build()
        if sweep == "eps":
            params = [(FIG6_MU, e) for e in EPS_SWEEP]
        else:
            max_deg = g.degrees().agg(F.max("deg")).collect()[0][0]
            mus, mu = [], 2
            while mu <= min(16384, max_deg + 1):
                mus.append(mu)
                mu *= 2
            params = [(m, FIG7_EPS) for m in mus]
        for mu, eps in params:
            (_, n_clustered), t_idx = timed(
                lambda: _materialized_query(index, mu, eps)
            )
            if measure == "wcosine":
                # Neither GS*-Index nor ppSCAN runs on weighted graphs
                # (paper §7.1); same restriction here.
                t_pp = None
            else:
                _, t_pp = timed(lambda: pscan_query(g, mu, eps, measure))
            _, t_seq = timed(lambda: seq.query(mu, eps))
            rows.append(
                {
                    "dataset": name,
                    "mu": mu,
                    "eps": eps,
                    "index_spark_s": round(t_idx, 4),
                    "ppscan_spark_s": None if t_pp is None else round(t_pp, 4),
                    "index_seq_s": round(t_seq, 4),
                    "n_clustered": n_clustered,
                }
            )
        index.unpersist()
        g.unpersist()
    return rows
