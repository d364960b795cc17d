"""Workloads: graphs, set-up, the timed closed loop and its oracle checks.

Graphs are planted-partition graphs from ``repro.graph.generators`` with
the edge probabilities of the Table-2-lite registry entries
(``repro.experiments.datasets``), scaled down in vertex count so that a
whole run stays inside the benchmark's time budget. The generator seed
is the registry seed plus the benchmark seed; the LSH seed is the
benchmark seed. Every build uses the cosine measure.

Every timed operation is checked, outside the timed region, against
the sequential GS*-Index oracle (``repro.baselines.gs_index_seq``).
"""
from __future__ import annotations

import itertools
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import pandas as pd

from repro.baselines.gs_index_seq import SequentialGSIndex
from repro.core.approx import build_approx_index, degree_threshold
from repro.core.index import build_index
from repro.core.query import query_clusters
from repro.experiments.exp_approx_quality import EPS_GRID, MU_GRID
from repro.graph import generators as gen
from repro.quality.ari import adjusted_rand_index_pandas
from repro.quality.modularity import modularity_pandas

#: Graph generations per set-up; set-up reports their median.
GEN_REPS = 3
MEASURE = "cosine"
#: Points of the warm-up queries; any will do, they only run the code
#: paths.
WARM_UP_POINTS = ((5, 0.5), (2, 0.6), (8, 0.2))
#: Float tolerance of an exact build's similarities against the oracle.
EXACT_TOL = 1e-9


@dataclass(frozen=True)
class GraphSpec:
    """A planted-partition graph with a registry entry's probabilities."""

    dataset: str  # registry entry whose p_in, p_out and seed are used
    n: int
    n_blocks: int
    p_in: float
    p_out: float
    seed: int  # the registry seed

    def generate(self, spark, bench_seed: int):
        return gen.sbm_graph(
            spark, n=self.n, n_blocks=self.n_blocks, p_in=self.p_in,
            p_out=self.p_out, seed=self.seed + bench_seed,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: GraphSpec
    warm_graph: GraphSpec  # small graph of the same kind for the warm-up
    # Untimed queries in the warm-up. Query latency keeps falling over
    # the first ten or so queries in a fresh JVM. orkut-query times a
    # stream of queries, so it warms up with more of them; brain-lsh
    # times one query per build, each twice as costly on its index.
    warm_queries: int = 1
    sweep: tuple[tuple[int, float], ...] = ()  # queries on the exact index
    approx: bool = False  # time SimHash builds instead of exact ones


# orkut_lite: n=3000 in 50 blocks of 60; scaled to 10 blocks of 60.
ORKUT = GraphSpec("orkut_lite", 600, 10, 0.70, 0.001, 11)
# brain_lite: n=700 in 7 blocks of 100; scaled to 7 blocks of 50.
BRAIN = GraphSpec("brain_lite", 350, 7, 0.70, 0.10, 14)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="orkut-query",
            why="sparse social graph: one exact build, then (mu,eps) query "
            "sweeps on the index as built; query layers do most of the work",
            graph=ORKUT,
            warm_graph=GraphSpec("orkut_lite", 120, 2, 0.70, 0.001, 11),
            warm_queries=6,
            sweep=((5, 0.2), (5, 0.5), (5, 0.8), (2, 0.6), (8, 0.6), (32, 0.6)),
        ),
        Workload(
            name="brain-lsh",
            why="dense graph: SimHash builds that sketch a quarter of the "
            "edges and probe the rest exactly, each queried once",
            graph=BRAIN,
            warm_graph=GraphSpec("brain_lite", 70, 7, 0.70, 0.10, 14),
            approx=True,
        ),
    )
}


@dataclass
class Ops:
    """Closed-loop operation log: timings per kind, failures counted."""

    attempted: int = 0
    failed: int = 0
    times: dict = field(default_factory=dict)
    accuracy: list = field(default_factory=list)  # 1 - mean |sim error| per build
    aris: list = field(default_factory=list)  # ARI of approximate clusterings
    _last_failed: bool = False

    def run(self, kind: str, fn):
        """Time one operation; None if it raised (counted as failed)."""
        self.attempted += 1
        self._last_failed = False
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:  # the loop keeps running; the failure is counted
            traceback.print_exc(file=sys.stderr)
            self._fail()
            return None
        self.times.setdefault(kind, []).append(time.perf_counter() - t0)
        return out

    def check(self, what: str, fn) -> bool:
        """Oracle check of the last operation; False or raising fails it."""
        try:
            ok = bool(fn())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            print(f"oracle mismatch: {what}", file=sys.stderr)
            self._fail()
        return ok

    def _fail(self) -> None:
        if not self._last_failed:
            self.failed += 1
            self._last_failed = True


def full_labels(labels: dict, n: int) -> dict:
    """Unclustered vertices as singleton clusters (paper §7.3.4)."""
    return {v: labels.get(v, v) for v in range(1, n + 1)}


def degrees(edges, n: int) -> pd.Series:
    """Degree of each vertex 1..n, computed sequentially."""
    deg = pd.concat([edges["u"], edges["v"]]).value_counts()
    return deg.reindex(range(1, n + 1), fill_value=0)


def lsh_k(edges, n: int) -> tuple[int, int]:
    """(SimHash k, MinHash k) for a graph: SimHash k is the median degree,
    so the §6.3 heuristic (threshold k) sketches the edges between
    above-median vertices, about a quarter of them; MinHash takes the k
    whose threshold 3k/2 is the same."""
    k = int(degrees(edges, n).median())
    return k, max(1, 2 * k // 3)


def exact_edge_count(edges, n: int, thr: float) -> int:
    """Edges the §6.3 heuristic leaves exact (an endpoint of degree at
    most ``thr``), counted sequentially."""
    deg = degrees(edges, n)
    du = deg.loc[edges["u"]].to_numpy()
    dv = deg.loc[edges["v"]].to_numpy()
    return int(((du <= thr) | (dv <= thr)).sum())


def fig10_point(index: SequentialGSIndex, edges) -> tuple[int, float]:
    """(mu, eps) of the best-modularity clustering on the Σ grid of
    ``exp_approx_quality``, where Figure 10 compares clusterings."""
    best = (-2.0, MU_GRID[0], EPS_GRID[0])
    for mu in MU_GRID:
        for eps in EPS_GRID:
            q = modularity_pandas(edges, full_labels(index.query(mu, eps), index.n))
            if q > best[0]:
                best = (q, mu, eps)
    return best[1], best[2]


def query_points(wl: Workload, oracle: SequentialGSIndex, edges) -> list:
    """The (mu, eps) points a workload queries; its traced run queries
    the first."""
    return [fig10_point(oracle, edges)] if wl.approx else list(wl.sweep)


def build(wl: Workload, g, k: int, seed: int):
    """The workload's build, persisted: (index, ApproxStats or None)."""
    if wl.approx:
        idx, stats = build_approx_index(g, k, MEASURE, seed=seed)
        return idx.persist(), stats
    return build_index(g, MEASURE).persist(), None


def warm_up(spark, wl: Workload, seed: int) -> None:
    """One untimed build and ``wl.warm_queries`` queries on a small
    graph of the same kind."""
    g = wl.warm_graph.generate(spark, seed).materialize()
    idx, _ = build(wl, g, lsh_k(g.to_pandas(), g.num_vertices)[0], seed)
    for mu, eps in itertools.islice(itertools.cycle(WARM_UP_POINTS), wl.warm_queries):
        query_clusters(idx, mu, eps).labels_pandas()
    idx.unpersist()
    g.unpersist()


def setup(spark, wl: Workload, seed: int):
    """Warm-up, then the workload graph generated GEN_REPS times.

    Returns (graph, warm-up seconds, generation seconds per rep).
    """
    t0 = time.perf_counter()
    warm_up(spark, wl, seed)
    warm_s = time.perf_counter() - t0
    gen_s = []
    g = None
    for _ in range(GEN_REPS):
        if g is not None:
            g.unpersist()
        t0 = time.perf_counter()
        g = wl.graph.generate(spark, seed).materialize()
        gen_s.append(time.perf_counter() - t0)
    return g, warm_s, gen_s


def check_index(ops: Ops, idx, oracle: SequentialGSIndex, m: int, exact: bool):
    """Oracle check of a built index: 2m NO rows, one similarity per
    edge, and for an exact build every similarity within EXACT_TOL.
    Records the similarities' accuracy and returns the sequential index
    over them, or None."""
    ops.check("NO rows == 2m", lambda: idx.neighbor_order.count() == 2 * m)
    own = None

    def similarities_match():
        nonlocal own
        sims = idx.neighbor_order.where("u < v").select("u", "v", "sim").toPandas()
        if sims.duplicated(["u", "v"]).any():
            return False
        own = SequentialGSIndex.from_similarities(sims, oracle.n)
        want = oracle.similarities_pandas().set_index(["u", "v"])["sim"]
        err = (sims.set_index(["u", "v"])["sim"] - want).abs()
        if err.isna().any() or (exact and err.max() > EXACT_TOL):
            return False
        ops.accuracy.append(1.0 - float(err.mean()))
        return True

    if not ops.check("index similarities cover every edge once", similarities_match):
        return None
    return own


def measure_query(spark, wl: Workload, g, edges, seed: int, seconds: float) -> Ops:
    """One exact build, then queries cycling through the (mu, eps)
    sweep until ``seconds`` of querying pass."""
    ops = Ops()
    n, m = g.num_vertices, g.num_edges()
    oracle = SequentialGSIndex(edges, n, MEASURE).build()
    points = query_points(wl, oracle, edges)
    idx = ops.run("build", lambda: build_index(g, MEASURE).persist())
    if idx is None:
        return ops
    check_index(ops, idx, oracle, m, exact=True)
    t_start = time.perf_counter()
    for mu, eps in itertools.cycle(points):
        labels = ops.run("query", lambda: query_clusters(idx, mu, eps).labels_pandas())
        if labels is not None:
            ops.check(f"query({mu}, {eps})", lambda: labels == oracle.query(mu, eps))
        if time.perf_counter() - t_start >= seconds:
            break
    idx.unpersist()
    return ops


def measure_approx(spark, wl: Workload, g, edges, seed: int, seconds: float) -> Ops:
    """SimHash builds, each queried once at the Figure-10 point, until
    ``seconds`` pass."""
    ops = Ops()
    n, m = g.num_vertices, g.num_edges()
    oracle = SequentialGSIndex(edges, n, MEASURE).build()
    [(mu, eps)] = query_points(wl, oracle, edges)
    exact_labels = full_labels(oracle.query(mu, eps), n)
    k = lsh_k(edges, n)[0]
    n_exact = exact_edge_count(edges, n, degree_threshold(MEASURE, k))
    t_start = time.perf_counter()
    while True:
        built = ops.run("build", lambda: build(wl, g, k, seed))
        if built is not None:
            idx, stats = built
            ops.check(
                "edges_approx + sequentially counted exact edges == m",
                lambda: stats.n_edges_approx + n_exact == m,
            )
            own = check_index(ops, idx, oracle, m, exact=False)
            labels = ops.run(
                "query", lambda: query_clusters(idx, mu, eps).labels_pandas()
            )
            if labels is not None and own is not None:
                ops.check(f"query({mu}, {eps})", lambda: labels == own.query(mu, eps))
                ops.aris.append(
                    adjusted_rand_index_pandas(full_labels(labels, n), exact_labels)
                )
            idx.unpersist()
        if time.perf_counter() - t_start >= seconds:
            break
    return ops


def end_to_end(ops: Ops, setup_s: float) -> dict:
    nan = [float("nan")]
    values = {
        "setup_s": (setup_s, "s"),
        "build_s": (statistics.median(ops.times.get("build", nan)), "s"),
        "query_p50_s": (statistics.median(ops.times.get("query", nan)), "s"),
        "sim_accuracy": (min(ops.accuracy, default=float("nan")), "1"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
