"""The numpy sketch estimators against their closed forms, bit for bit.

Sketch pairs are drawn at random, estimated by ``simhash_estimate`` and
``minhash_estimate`` (the estimators every approximate build runs),
and compared with the formulas computed row by row: SimHash
cos(pi * hamming / k) from the unpacked bits, standard MinHash the
fraction of equal coordinates, and k-partition MinHash
N_match / max(k - N_emp, 1) with EMPTY bins.
"""
import numpy as np
import pandas as pd
import pytest

from repro.lsh.minhash import EMPTY, minhash_edge_similarities, minhash_estimate
from repro.lsh.simhash import pack_words, simhash_edge_similarities, simhash_estimate

PAIRS = 200


def _same_bits(got: np.ndarray, want: list) -> bool:
    return np.array_equal(got.view(np.int64), np.array(want, np.float64).view(np.int64))


@pytest.mark.parametrize("k", [1, 64, 65])
def test_simhash_estimator_matches_numpy(k):
    """k = 1, 64 and 65 put the last sample at each end of a word."""
    rng = np.random.default_rng(k)
    a = rng.random((PAIRS, k)) < 0.5
    # Pairs at every distance: b is a with a random share of bits flipped,
    # so the identical (0) and opposite (k) sketches occur too.
    flip = rng.random((PAIRS, k)) < rng.random((PAIRS, 1))
    flip[0], flip[1] = False, True
    b = a ^ flip
    hamming = np.array([sum(x != y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)])
    want = np.cos(np.pi * hamming / float(k))
    got = simhash_estimate(
        np.stack([pack_words(x) for x in a]), np.stack([pack_words(x) for x in b]), k
    )
    assert _same_bits(got, want)


def test_minhash_standard_estimator_matches_numpy():
    k = 64
    rng = np.random.default_rng(1)
    # Few distinct values, so coordinates often match.
    a = rng.integers(-3, 3, (PAIRS, k)) * (1 << 40)
    b = np.where(rng.random((PAIRS, k)) < rng.random((PAIRS, 1)), a, rng.integers(-3, 3, (PAIRS, k)) * (1 << 40))
    want = [sum(x == y for x, y in zip(ra, rb)) / k for ra, rb in zip(a, b)]
    assert _same_bits(minhash_estimate(a, b, k, "standard"), want)


def test_oph_estimator_with_empty_bins_matches_numpy():
    k = 24
    rng = np.random.default_rng(2)
    a = rng.integers(0, 4, (PAIRS, k))
    b = rng.integers(0, 4, (PAIRS, k))
    # Empty bins at a per-row rate, in one sketch or both; every bin of
    # the last row is empty in both.
    a[rng.random((PAIRS, k)) < rng.random((PAIRS, 1))] = EMPTY
    b[rng.random((PAIRS, k)) < rng.random((PAIRS, 1))] = EMPTY
    a[-1], b[-1] = EMPTY, EMPTY
    want, both_empty = [], []
    for ra, rb in zip(a, b):
        match = sum(x == y != EMPTY for x, y in zip(ra, rb))
        empty = sum(x == y == EMPTY for x, y in zip(ra, rb))
        want.append(match / max(k - empty, 1))
        both_empty.append(empty)
    assert any(0 < e < k for e in both_empty) and both_empty[-1] == k
    assert _same_bits(minhash_estimate(a, b, k, "oph"), want)


def test_estimators_are_null_without_a_sketch(spark):
    """An edge whose endpoints do not both have a sketch gets no estimate."""
    edges = spark.createDataFrame(pd.DataFrame({"u": [1, 1, 2], "v": [2, 3, 3]}))
    sketches = spark.createDataFrame(
        pd.DataFrame({"v": [1, 2], "sketch": [[1, 2], [1, 3]]}), "v long, sketch array<long>"
    )
    for est in (
        simhash_edge_similarities(edges, sketches, 2),
        minhash_edge_similarities(edges, sketches, 2, "standard"),
        minhash_edge_similarities(edges, sketches, 2),
    ):
        got = est.toPandas()
        assert list(zip(got["u"], got["v"])) == [(1, 2)]
        assert got["sim"].notna().all()
