"""Figure 6/7 experiments: clustering-query time across (mu, eps).

Per parameter setting, three engines answer the same query:

- ``index_spark`` — our index query (Algorithm 5) over the persisted
  index's driver arrays, index construction excluded (paid once
  beforehand, as in the paper);
- ``ppscan_spark`` — the per-query baseline that recomputes (pruned)
  similarities every time, ppSCAN's algorithmic profile;
- ``index_seq`` — the sequential GS*-Index query (GS*-Index baseline).

Figure 6 sweeps eps at mu=5; Figure 7 sweeps mu at eps=0.6 up to the
largest power of two below the max degree, as in the paper. The shapes
to reproduce: the index query beats ppSCAN at every setting, and query
time falls as eps or mu grows (smaller core subgraph).

Each engine answers every setting once untimed, so lazy set-up is not
timed, and then at least REPS more times and until MIN_SECONDS have
passed; a row reports the median. The floor on time gives a
sub-millisecond query hundreds of samples, so one slow call does not
set its row.
"""
from __future__ import annotations

import statistics

from pyspark.sql import SparkSession

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
#: Timed calls per engine and setting, after one untimed call: at least
#: REPS, and more until MIN_SECONDS have passed.
REPS = 3
MIN_SECONDS = 0.2


def _warm_median(fn):
    """(result of one untimed call of ``fn``, median seconds of the
    timed calls that follow it)."""
    out = fn()
    times: list[float] = []
    while len(times) < REPS or sum(times) < MIN_SECONDS:
        times.append(timed(fn)[1])
    return out, statistics.median(times)


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
            mus, mu = [], 2
            while mu <= min(16384, index.arrays.max_degree + 1):
                mus.append(mu)
                mu *= 2
            params = [(m, FIG7_EPS) for m in mus]
        for mu, eps in params:
            # The query returns with the clustering on the driver, so
            # the timer covers the whole query.
            labels, t_idx = _warm_median(
                lambda: query_clusters(index, mu, eps).labels_pandas()
            )
            if measure == "wcosine":
                # Neither GS*-Index nor ppSCAN runs on weighted graphs
                # (paper §7.1); same restriction here.
                t_pp = None
            else:
                _, t_pp = _warm_median(lambda: pscan_query(g, mu, eps, measure))
            _, t_seq = _warm_median(lambda: seq.query(mu, eps))
            rows.append(
                {
                    "dataset": name,
                    "mu": mu,
                    "eps": eps,
                    "index_spark_s": round(t_idx, 6),
                    "ppscan_spark_s": None if t_pp is None else round(t_pp, 6),
                    "index_seq_s": round(t_seq, 6),
                    "n_clustered": len(labels),
                }
            )
        index.unpersist()
        g.unpersist()
    return rows
