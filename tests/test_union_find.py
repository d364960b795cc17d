"""Property tests for the driver-side union-find (no Spark)."""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.union_find import components_from_edges


def _brute_components(edges, vertices):
    """Reference via repeated transitive closure."""
    comp = {v: {v} for v in vertices}
    for u, v in edges:
        comp.setdefault(u, {u})
        comp.setdefault(v, {v})
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            merged = comp[u] | comp[v]
            if merged != comp[u] or merged != comp[v]:
                for x in merged:
                    comp[x] = merged
                changed = True
    return {v: min(c) for v, c in comp.items()}


edges_strategy = st.lists(
    st.tuples(st.integers(1, 20), st.integers(1, 20)), max_size=40
)


@settings(max_examples=200, deadline=None)
@given(edges=edges_strategy)
def test_components_match_brute_force(edges):
    vertices = range(1, 21)
    got = components_from_edges(edges, vertices)
    expect = _brute_components(edges, list(vertices))
    assert got == expect


@settings(max_examples=100, deadline=None)
@given(edges=edges_strategy)
def test_labels_are_min_of_component(edges):
    labels = components_from_edges(edges, range(1, 21))
    for v, c in labels.items():
        assert c <= v
        assert labels[c] == c  # the label vertex is its own root label


def test_isolated_vertices_kept():
    got = components_from_edges([], [1, 2, 3])
    assert got == {1: 1, 2: 2, 3: 3}


def test_long_path_in_descending_ids():
    """Each round links only the larger root of an edge, so a path whose
    ids descend needs pointer jumping to reach one label."""
    edges = [(v, v - 1) for v in range(200, 1, -1)]
    assert set(components_from_edges(edges).values()) == {1}
