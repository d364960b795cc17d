"""DuckDB SQL formulations of graph quantities for oracle tests.

Each constant/function is a SQL query over registered tables (usually
``e`` = canonical edges, ``verts`` = vertex ids) that recomputes, in a
completely independent engine, what a Spark module computes — used with
:func:`repro.oracle.assert_equivalent`.
"""

# degree of every vertex (vertices absent from e have degree 0)
DEGREES = """
SELECT verts.v AS v, COALESCE(d.deg, 0) AS deg
FROM verts
LEFT JOIN (
    SELECT x AS v, COUNT(*) AS deg
    FROM (SELECT u AS x FROM e UNION ALL SELECT v AS x FROM e)
    GROUP BY x
) d ON verts.v = d.v
"""

# triangles through each edge (only edges with >= 1 triangle)
TRIANGLES_PER_EDGE = """
WITH adj AS (SELECT u, v, w FROM e UNION ALL SELECT v, u, w FROM e)
SELECT e.u AS u, e.v AS v,
       COUNT(*) AS tri,
       SUM(a1.w * a2.w) AS cw
FROM e
JOIN adj a1 ON a1.u = e.u
JOIN adj a2 ON a2.u = e.v AND a2.v = a1.v
GROUP BY e.u, e.v
"""


def similarities(measure: str) -> str:
    """Per-edge similarity for one measure; tables: e, verts."""
    base = """
WITH adj AS (SELECT u, v, w FROM e UNION ALL SELECT v, u, w FROM e),
deg AS (SELECT u AS v, COUNT(*) AS d FROM adj GROUP BY u),
tri AS (
    -- COUNT(a2.v) counts only rows where the second hop matched, i.e.
    -- true common neighbors; the LEFT JOINs keep triangle-free edges.
    SELECT e.u, e.v, COUNT(a2.v) AS t, COALESCE(SUM(a1.w * a2.w), 0) AS cw
    FROM e
    LEFT JOIN adj a1 ON a1.u = e.u
    LEFT JOIN adj a2 ON a2.u = e.v AND a2.v = a1.v
    GROUP BY e.u, e.v
),
norms AS (SELECT u AS v, SQRT(1 + SUM(w * w)) AS nrm FROM adj GROUP BY u)
"""
    if measure == "cosine":
        return base + """
SELECT tri.u AS u, tri.v AS v,
       (tri.t + 2) / SQRT((du.d + 1.0) * (dv.d + 1.0)) AS sim
FROM tri JOIN deg du ON du.v = tri.u JOIN deg dv ON dv.v = tri.v
"""
    if measure == "jaccard":
        return base + """
SELECT tri.u AS u, tri.v AS v,
       (tri.t + 2.0) / (du.d + dv.d - tri.t) AS sim
FROM tri JOIN deg du ON du.v = tri.u JOIN deg dv ON dv.v = tri.v
"""
    if measure == "wcosine":
        return base + """
SELECT tri.u AS u, tri.v AS v,
       (2 * e.w + tri.cw) / (nu.nrm * nv.nrm) AS sim
FROM tri
JOIN e ON e.u = tri.u AND e.v = tri.v
JOIN norms nu ON nu.v = tri.u JOIN norms nv ON nv.v = tri.v
"""
    raise ValueError(measure)


# neighbor order: each vertex's neighbors ranked by descending
# similarity, ties by ascending id, from rank 2 (rank 1 is the implicit
# self entry). table: e (u, v, sim), one row per canonical edge.
NEIGHBOR_ORDER = """
WITH sym AS (SELECT u, v, sim FROM e UNION ALL SELECT v, u, sim FROM e)
SELECT u, v, sim,
       ROW_NUMBER() OVER (PARTITION BY u ORDER BY sim DESC, v) + 1 AS rank
FROM sym
"""

# the cores under (mu, eps) (Algorithm 3): vertices whose rank-mu NO
# entry has sim >= eps. tables: no (u, v, sim, rank), q (mu, eps), one
# row; q holds eps as a DOUBLE so the comparison is exact.
CORES = """
SELECT no.u AS v FROM no JOIN q ON no.rank = q.mu AND no.sim >= q.eps
"""

# the eps-similar edges out of those cores (line 4 of Algorithm 5).
# tables: no, q as for CORES.
EPS_EDGES = f"""
WITH cores AS ({CORES})
SELECT no.u AS u, no.v AS v, no.sim AS sim
FROM no JOIN cores ON no.u = cores.v JOIN q ON no.sim >= q.eps
"""

# connected components: min reachable vertex id per vertex.
# tables: edges (u, v) and verts (v); tiny inputs only (transitive
# closure enumeration).
COMPONENTS = """
WITH RECURSIVE adj AS (
    SELECT u, v FROM edges UNION ALL SELECT v, u FROM edges
),
reach(src, dst) AS (
    SELECT v, v FROM verts
    UNION
    SELECT r.src, a.v FROM reach r JOIN adj a ON a.u = r.dst
)
SELECT src AS v, MIN(dst) AS cluster FROM reach GROUP BY src
"""

# modularity numerator pieces; tables: e (u, v, w), labels (v, cluster)
MODULARITY_TERMS = """
WITH adj AS (SELECT u, v, w FROM e UNION ALL SELECT v, u, w FROM e),
wdeg AS (SELECT u AS v, SUM(w) AS wd FROM adj GROUP BY u),
cl AS (
    SELECT l.cluster, SUM(wd.wd) AS S
    FROM labels l JOIN wdeg wd ON wd.v = l.v
    GROUP BY l.cluster
)
SELECT
    (SELECT SUM(e.w) FROM e) AS W,
    (SELECT COALESCE(SUM(e.w), 0) FROM e
     JOIN labels lu ON lu.v = e.u
     JOIN labels lv ON lv.v = e.v
     WHERE lu.cluster = lv.cluster) AS Win,
    (SELECT SUM(S * S) FROM cl) AS SS
"""
