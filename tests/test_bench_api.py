"""The library names the benchmark imports stay importable, and the frame
functions its traced run times return frames of rows the driver holds.

``scanbench/`` imports a few functions only it still calls. A change that
removes or renames one fails here, in the test suite, instead of in the
traced benchmark run.
"""
import ast
from pathlib import Path

import pytest

from repro.core.index import neighbor_order_from_similarities
from repro.core.query import (
    assemble_clustering,
    get_cores,
    query_clusters,
    similar_edges_from_cores,
)
from repro.core.similarity import edge_similarities
from repro.graph.triangles import triangle_edge_aggregates

BENCH = Path(__file__).resolve().parents[1] / "scanbench"


def _repro_imports() -> list[str]:
    """Every ``from repro... import ...`` statement of ``scanbench/*.py``,
    as source."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                found.append(ast.unparse(node))
    return found


def test_benchmark_imports_library_names():
    assert _repro_imports(), "scanbench/ imports nothing from repro"


@pytest.mark.parametrize("statement", _repro_imports())
def test_benchmark_import_resolves(statement):
    exec(statement, {})


def _plan_lines(df) -> int:
    return len(df._jdf.queryExecution().executedPlan().toString().splitlines())


def test_traced_frames_are_scans_of_driver_rows(sbm_small, sbm_small_index):
    """Each frame is the driver's result as rows: its executed plan is
    a scan, with no Spark plan that computes it, as for the persisted
    index's NO."""
    cores = get_cores(sbm_small_index, 3, 0.5)
    frames = {
        "get_cores": cores,
        "similar_edges_from_cores": similar_edges_from_cores(sbm_small_index, cores, 0.5),
        "neighbor_order_from_similarities": neighbor_order_from_similarities(
            edge_similarities(sbm_small, "cosine")
        ),
        "triangle_edge_aggregates": triangle_edge_aggregates(sbm_small),
    }
    for name, df in frames.items():
        assert _plan_lines(df) <= 5, name


def test_traced_frames_compose_to_the_query(sbm_small_index):
    """The core and eps-edge frames, assembled, give the query's labels."""
    for mu, eps in ((2, 0.3), (3, 0.5), (5, 0.7)):
        cores = get_cores(sbm_small_index, mu, eps)
        sim = similar_edges_from_cores(sbm_small_index, cores, eps)
        got = assemble_clustering(cores, sim, mu, eps).labels_pandas()
        assert got == query_clusters(sbm_small_index, mu, eps).labels_pandas(), (mu, eps)
