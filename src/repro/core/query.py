"""Cluster queries against the SCAN index (paper §4.2, Algorithms 3–5).

A query (mu, eps) does no similarity computation: cores are a threshold
filter on CO[mu], eps-similar edges a threshold filter on NO prefixes
(the paper's doubling searches — on DataFrames a predicate filter is
the data-parallel prefix extraction). Both filters form one plan over
the persisted index, whose lineage ends at its checkpoint: the NO rows
with sim >= eps, left-semi-joined to the broadcast CO[mu] prefix. That
plan is collected once; connectivity then runs on the induced core
subgraph with driver-side union-find (as in the paper's own
implementation, §6.2), and border non-cores attach to a neighboring
eps-similar core. Border assignment is the deterministic variant the
paper uses for its quality measurements (§7.3.4): most similar core,
ties to the lower core id. Cluster ids are canonical: the minimum core
id in the component.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.cc.union_find import components_from_edges
from repro.core.index import SCANIndex


@dataclass
class ClusteringResult:
    """Output of one SCAN query.

    ``assignments_pdf``: (v, cluster, is_core) for every *clustered*
    vertex (cores and borders), on the driver where the query assembled
    it; unclustered vertices are absent. ``cluster`` is the minimum
    core id of the cluster's core component.
    """

    assignments_pdf: pd.DataFrame
    mu: int
    eps: float
    spark: SparkSession = field(repr=False, compare=False)

    @cached_property
    def assignments(self) -> DataFrame:
        """``assignments_pdf`` as a Spark DataFrame, made on first use:
        a query read through :meth:`labels_pandas` never uploads it."""
        return self.spark.createDataFrame(
            self.assignments_pdf, "v long, cluster long, is_core boolean"
        )

    def labels_pandas(self) -> dict[int, int]:
        """{vertex: cluster} for clustered vertices (no Spark job)."""
        pdf = self.assignments_pdf
        return dict(zip(pdf["v"].tolist(), pdf["cluster"].tolist()))


def get_cores(index: SCANIndex, mu: int, eps: float) -> DataFrame:
    """Core vertices under (mu, eps): prefix of CO[mu] (Algorithm 3).

    mu counts the vertex itself (eps-neighborhoods are closed), so
    mu=2 means "at least one eps-similar neighbor".
    """
    if mu < 2:
        raise ValueError("SCAN requires mu >= 2")
    return index.core_order.where(
        (F.col("mu") == mu) & (F.col("threshold") >= eps)
    ).select("v")


def similar_edges_from_cores(
    index: SCANIndex, cores: DataFrame, eps: float
) -> DataFrame:
    """Directed eps-similar edges out of cores: (u=core, v, sim).

    NO prefixes per core vertex (line 4 of Algorithm 5); excludes the
    implicit self entry (NO ranks start at 2). The cores only select
    rows (a left-semi join), so each NO row appears at most once.
    """
    return (
        index.neighbor_order.where(F.col("sim") >= eps)
        .join(F.broadcast(cores.withColumnRenamed("v", "u")), "u", "left_semi")
        .select("u", "v", "sim")
    )


def assemble_clustering(
    cores: DataFrame, sim: DataFrame, mu: int, eps: float
) -> ClusteringResult:
    """Clusters from precomputed cores + directed similar edges.

    ``cores``: (v), the core set ``sim`` was selected by; ``sim``: (u,
    v, sim) for every core u and every v with sigma(u, v) >= eps (both
    directions present for core-core pairs). Shared by the index query
    and the ppSCAN-style per-query baseline — the two differ only in
    how cores/similar edges are obtained.

    Only ``sim`` is collected, once, and the query finishes on the
    driver with union-find (paper §6.2). ``cores`` is not collected:
    with mu >= 2 every core has at least mu - 1 >= 1 eps-similar
    neighbor, so the core ids are exactly the distinct ``u`` of
    ``sim``. By Theorem 4.3 the eps-similar edge set out of cores is
    bounded by the output clusters, so the collect is the whole data
    movement of the query.
    """
    spark = sim.sparkSession
    sim_pdf = sim.toPandas()
    core_set = set(sim_pdf["u"].tolist())
    cc = sim_pdf[sim_pdf["v"].isin(core_set) & (sim_pdf["u"] < sim_pdf["v"])]
    labels = components_from_edges(
        edges=list(zip(cc["u"].astype(int), cc["v"].astype(int))),
        vertices=core_set,
    )
    rows = [(v, c, True) for v, c in labels.items()]
    # Border non-cores (Algorithm 4), deterministic rule: most similar
    # core first, ties to the lower core id (paper §7.3.4).
    borders = sim_pdf[~sim_pdf["v"].isin(core_set)]
    if not borders.empty:
        best = (
            borders.sort_values(["v", "sim", "u"], ascending=[True, False, True])
            .drop_duplicates("v")
        )
        rows += [
            (int(r.v), labels[int(r.u)], False) for r in best.itertuples(index=False)
        ]
    pdf = pd.DataFrame(rows, columns=["v", "cluster", "is_core"]).astype(
        {"v": "int64", "cluster": "int64", "is_core": "bool"}
    )
    return ClusteringResult(assignments_pdf=pdf, mu=mu, eps=eps, spark=spark)


def query_clusters(index: SCANIndex, mu: int, eps: float) -> ClusteringResult:
    """Retrieve the SCAN clustering for (mu, eps) (Algorithm 5): one
    collect of the eps-edges out of the CO[mu] prefix, then driver
    union-find."""
    cores = get_cores(index, mu, eps)
    sim = similar_edges_from_cores(index, cores, eps)
    return assemble_clustering(cores, sim, mu, eps)
