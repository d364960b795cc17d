"""Cluster queries against the SCAN index (paper §4.2, Algorithms 3–5).

A query (mu, eps) does no similarity computation and runs no Spark job.
It reads the index's sorted arrays on the driver
(:mod:`repro.core.arrays`): cores are one binary search over CO[mu]
(the paper's doubling search), and each core's eps-similar edges are
its NO prefix, found for all cores by one binary search over integer
keys whose comparisons with eps are exact. By Theorem 4.3 those edges
are bounded by the output clusters. Connectivity then runs on the
induced core subgraph with driver-side union-find (as in the paper's
own implementation, §6.2), and border non-cores attach to a
neighboring eps-similar core. Border assignment is the deterministic
variant the paper uses for its quality measurements (§7.3.4): most
similar core, ties to the lower core id. Cluster ids are canonical:
the minimum core id in the component.

:func:`get_cores` and :func:`similar_edges_from_cores` return the same
two steps' output as frames, and :func:`assemble_clustering` assembles
from frames.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.cc.union_find import min_labels
from repro.core.index import SCANIndex


@dataclass(eq=False)
class ClusteringResult:
    """Output of one SCAN query, on the driver where it was assembled.

    ``v``, ``cluster`` and ``is_core`` have one entry per *clustered*
    vertex (cores first, then borders, each ascending by id);
    unclustered vertices are absent. ``cluster`` is the minimum core id
    of the cluster's core component.
    """

    v: np.ndarray
    cluster: np.ndarray
    is_core: np.ndarray
    mu: int
    eps: float
    spark: SparkSession = field(repr=False)

    @cached_property
    def assignments_pdf(self) -> pd.DataFrame:
        """(v, cluster, is_core) as a pandas frame, made on first use."""
        return pd.DataFrame({"v": self.v, "cluster": self.cluster, "is_core": self.is_core})

    @cached_property
    def assignments(self) -> DataFrame:
        """(v, cluster, is_core) as a Spark DataFrame, made on first use:
        a query read through :meth:`labels_pandas` never uploads it."""
        return self.spark.createDataFrame(
            self.assignments_pdf, "v long, cluster long, is_core boolean"
        )

    def labels_pandas(self) -> dict[int, int]:
        """{vertex: cluster} for clustered vertices (no Spark job)."""
        return dict(zip(self.v.tolist(), self.cluster.tolist()))


def get_cores(index: SCANIndex, mu: int, eps: float) -> DataFrame:
    """Core vertices under (mu, eps) as a frame (v): the prefix of
    CO[mu] (Algorithm 3), searched in the index's driver arrays.

    mu counts the vertex itself (eps-neighborhoods are closed), so
    mu=2 means "at least one eps-similar neighbor".
    """
    check_query(mu, eps)
    cores = index.arrays.cores(mu, eps)
    return index.spark.createDataFrame(pd.DataFrame({"v": cores}), "v long")


def similar_edges_from_cores(
    index: SCANIndex, cores: DataFrame, eps: float
) -> DataFrame:
    """Directed eps-similar edges out of ``cores`` (v) as a frame
    (u=core, v, sim): their NO prefixes (line 4 of Algorithm 5),
    gathered from the index's driver arrays. Excludes the implicit self
    entry; a core listed twice contributes its rows once.
    """
    check_query(None, eps)
    ids = np.unique(cores.select("v").toPandas()["v"].to_numpy(np.int64))
    u, v, sim = index.arrays.eps_edges(ids, eps)
    return index.spark.createDataFrame(
        pd.DataFrame({"u": u, "v": v, "sim": sim}), "u long, v long, sim double"
    )


def assemble_from_edges(
    u: np.ndarray, v: np.ndarray, sim: np.ndarray, mu: int, eps: float,
    spark: SparkSession,
) -> ClusteringResult:
    """Clusters from the directed eps-similar edges out of cores, on the
    driver.

    ``(u, v, sim)`` arrays hold every core u and every v with
    sigma(u, v) >= eps (both directions present for core-core pairs).
    Shared by the index query and the ppSCAN-style per-query baseline,
    which differ only in how they obtain these edges. With mu >= 2 every
    core has at least mu - 1 >= 1 eps-similar neighbor, so the cores are
    exactly the distinct ``u``. Union-find labels the core components
    with their minimum core id (paper §6.2); ``spark`` only makes
    ``ClusteringResult.assignments``.
    """
    u = np.asarray(u, np.int64)
    v = np.asarray(v, np.int64)
    sim = np.asarray(sim, np.float64)
    # Tables indexed by vertex id: is_core, and slot, a core's position
    # among the cores in ascending id order (set for cores only).
    size = int(max(u.max(initial=0), v.max(initial=0))) + 1
    is_core = np.zeros(size, bool)
    is_core[u] = True
    cores = np.flatnonzero(is_core)
    slot = np.empty(size, np.int64)
    slot[cores] = np.arange(len(cores))
    to_core = is_core[v]
    cc = to_core & (u < v)  # core-core edges, each once
    core_cluster = cores[min_labels(slot[u[cc]], slot[v[cc]], len(cores))]
    # Border non-cores (Algorithm 4), deterministic rule: most similar
    # core first, ties to the lower core id (paper §7.3.4).
    border = ~to_core
    bu, bv, bsim = u[border], v[border], sim[border]
    order = np.lexsort((bu, -bsim, bv))
    bu, bv = bu[order], bv[order]
    first = np.ones(len(bv), bool)
    first[1:] = bv[1:] != bv[:-1]
    border_cluster = core_cluster[slot[bu[first]]]
    return ClusteringResult(
        v=np.concatenate((cores, bv[first])),
        cluster=np.concatenate((core_cluster, border_cluster)),
        is_core=np.repeat((True, False), (len(cores), len(border_cluster))),
        mu=mu, eps=eps, spark=spark,
    )


def assemble_clustering(
    cores: DataFrame, sim: DataFrame, mu: int, eps: float
) -> ClusteringResult:
    """:func:`assemble_from_edges` over Spark frames: collects ``sim``
    once. ``cores`` (v), the core set ``sim`` was selected by, is not
    collected: the cores are the distinct ``u`` of ``sim``."""
    pdf = sim.toPandas()
    return assemble_from_edges(pdf["u"], pdf["v"], pdf["sim"], mu, eps, sim.sparkSession)


def query_clusters(index: SCANIndex, mu: int, eps: float) -> ClusteringResult:
    """Retrieve the SCAN clustering for (mu, eps) (Algorithm 5) from the
    index's driver arrays: no Spark job."""
    check_query(mu, eps)
    arrays = index.arrays
    u, v, sim = arrays.eps_edges(arrays.cores(mu, eps), eps)
    return assemble_from_edges(u, v, sim, mu, eps, index.spark)


def check_query(mu: int | None, eps: float) -> None:
    """Raise ValueError unless mu (None where a step takes none) is an
    integer >= 2, a numpy integer too, and eps is not NaN."""
    if (mu is not None and not (isinstance(mu, (int, np.integer)) and mu >= 2)) or np.isnan(eps):
        raise ValueError(f"SCAN requires an integer mu >= 2 and eps not NaN; got {mu!r}, {eps!r}")
