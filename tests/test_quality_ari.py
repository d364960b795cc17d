"""Adjusted Rand index: hand-computed values and invariances."""
import pytest

from repro.quality.ari import adjusted_rand_index_pandas


def test_identical_clusterings_score_one():
    labels = {1: 1, 2: 1, 3: 2, 4: 2, 5: 3}
    assert adjusted_rand_index_pandas(labels, labels) == pytest.approx(1.0)


def test_relabeling_invariance():
    a = {1: 1, 2: 1, 3: 2, 4: 2}
    b = {1: 99, 2: 99, 3: 7, 4: 7}
    assert adjusted_rand_index_pandas(a, b) == pytest.approx(1.0)


def test_hand_computed_example():
    """Classic example: a=[1,1,2,2,2,3], b=[1,1,1,2,2,2].

    Contingency: n11=2, n12=1, n22=2, n32=... compute:
    pairs_same_both = C(2,2)+C(1,2)+C(2,2)+... work through:
    rows a: {1:{1,2}}, {2:{3,4,5}}, {3:{6}}; cols b: {1:{1,2,3}}, {2:{4,5,6}}
    nij: (a1,b1)=2, (a2,b1)=1, (a2,b2)=2, (a3,b2)=1
    sum C(nij,2) = 1 + 0 + 1 + 0 = 2
    sum C(ai,2) = 1 + 3 + 0 = 4 ; sum C(bj,2) = 3 + 3 = 6 ; C(6,2)=15
    E = 4*6/15 = 1.6 ; max = 5 ; ARI = (2-1.6)/(5-1.6) = 0.11765
    """
    a = {1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 3}
    b = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2}
    assert adjusted_rand_index_pandas(a, b) == pytest.approx(0.4 / 3.4)


def test_symmetry():
    a = {1: 1, 2: 1, 3: 2, 4: 3, 5: 3}
    b = {1: 1, 2: 2, 3: 2, 4: 3, 5: 3}
    assert adjusted_rand_index_pandas(a, b) == pytest.approx(
        adjusted_rand_index_pandas(b, a)
    )


def test_independent_clusterings_near_zero():
    """Two independent clusterings over a large set: ARI ~ 0.

    a groups by residue mod 10, b by contiguous blocks of 200 — each
    b-cluster holds an equal mix of every a-cluster.
    """
    n = 2000
    a = {i: i % 10 for i in range(n)}
    b = {i: i // 200 for i in range(n)}
    assert abs(adjusted_rand_index_pandas(a, b)) < 0.02


def test_relabeled_permutation_is_identical():
    """(i*7+3) mod 10 permutes the residues mod 10: same partition."""
    n = 500
    a = {i: i % 10 for i in range(n)}
    b = {i: (i * 7 + 3) % 10 for i in range(n)}
    assert adjusted_rand_index_pandas(a, b) == pytest.approx(1.0)


def test_all_singletons_vs_all_one_cluster():
    a = {i: i for i in range(1, 6)}
    b = {i: 0 for i in range(1, 6)}
    # degenerate pair: both trivial indices; standard convention -> 0
    assert adjusted_rand_index_pandas(a, b) == pytest.approx(0.0)


def test_mismatched_vertex_sets_rejected():
    with pytest.raises(ValueError):
        adjusted_rand_index_pandas({1: 1}, {2: 1})


def test_can_be_negative():
    """Worse-than-chance overlap yields ARI < 0 (paper §7.2 notes this)."""
    a = {1: 1, 2: 1, 3: 2, 4: 2}
    b = {1: 1, 2: 2, 3: 1, 4: 2}
    assert adjusted_rand_index_pandas(a, b) < 0
