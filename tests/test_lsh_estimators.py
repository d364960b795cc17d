"""The Spark SQL sketch estimators against numpy, bit for bit.

Sketch pairs are drawn on the driver, estimated by the SQL expressions
of ``simhash_estimator`` and ``minhash_estimator``, and compared with
the same formulas in numpy: SimHash cos(pi * hamming / k), standard
MinHash the fraction of equal coordinates, and k-partition MinHash
N_match / max(k - N_emp, 1) with EMPTY bins.
"""
import numpy as np
import pandas as pd
import pytest

from repro.lsh.minhash import EMPTY, minhash_estimator
from repro.lsh.simhash import pack_words, simhash_estimator

PAIRS = 200


def _estimate(spark, est, a: list, b: list) -> np.ndarray:
    """``est`` over the rows (a[i], b[i]), in row order."""
    pdf = pd.DataFrame({"i": np.arange(len(a)), "a": a, "b": b})
    df = spark.createDataFrame(pdf, "i long, a array<long>, b array<long>")
    out = df.select("i", est("a", "b").alias("sim")).toPandas().sort_values("i")
    return out["sim"].to_numpy(np.float64)


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return np.array_equal(got.view(np.int64), want.astype(np.float64).view(np.int64))


@pytest.mark.parametrize("k", [1, 64, 65])
def test_simhash_estimator_matches_numpy(spark, k):
    rng = np.random.default_rng(k)
    a = rng.random((PAIRS, k)) < 0.5
    # Pairs at every distance: b is a with a random share of bits flipped,
    # so the identical (0) and opposite (k) sketches occur too.
    flip = rng.random((PAIRS, k)) < rng.random((PAIRS, 1))
    flip[0], flip[1] = False, True
    b = a ^ flip
    want = np.cos(np.pi * (a != b).sum(axis=1) / float(k))
    got = _estimate(
        spark, simhash_estimator(k), [pack_words(x) for x in a], [pack_words(x) for x in b]
    )
    assert _same_bits(got, want)


def test_minhash_standard_estimator_matches_numpy(spark):
    k = 64
    rng = np.random.default_rng(1)
    # Few distinct values, so coordinates often match.
    a = rng.integers(-3, 3, (PAIRS, k)) * (1 << 40)
    b = np.where(rng.random((PAIRS, k)) < rng.random((PAIRS, 1)), a, rng.integers(-3, 3, (PAIRS, k)) * (1 << 40))
    want = (a == b).mean(axis=1)
    got = _estimate(spark, minhash_estimator(k, "standard"), list(a), list(b))
    assert _same_bits(got, want)


def test_oph_estimator_with_empty_bins_matches_numpy(spark):
    k = 24
    rng = np.random.default_rng(2)
    a = rng.integers(0, 4, (PAIRS, k))
    b = rng.integers(0, 4, (PAIRS, k))
    # Empty bins at a per-row rate, in one sketch or both; every bin of
    # the last row is empty in both.
    a[rng.random((PAIRS, k)) < rng.random((PAIRS, 1))] = EMPTY
    b[rng.random((PAIRS, k)) < rng.random((PAIRS, 1))] = EMPTY
    a[-1], b[-1] = EMPTY, EMPTY
    both_empty = ((a == EMPTY) & (b == EMPTY)).sum(axis=1)
    match = ((a == b) & (a != EMPTY)).sum(axis=1)
    want = match / np.maximum(k - both_empty, 1)
    assert ((0 < both_empty) & (both_empty < k)).any() and both_empty[-1] == k
    got = _estimate(spark, minhash_estimator(k, "oph"), list(a), list(b))
    assert _same_bits(got, want)


def test_estimators_are_null_without_a_sketch(spark):
    pdf = pd.DataFrame({"a": [[1, 2], None], "b": [None, [1, 2]]})
    df = spark.createDataFrame(pdf, "a array<long>, b array<long>")
    for est in (simhash_estimator(2), minhash_estimator(2, "standard"), minhash_estimator(2)):
        assert df.select(est("a", "b").alias("s")).toPandas()["s"].isna().all()
