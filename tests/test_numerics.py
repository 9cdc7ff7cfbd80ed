"""Oracle and property tests for the numerics layer, and for the reference
forms in oracles.py that the other test modules compare against.

Hand-computed and extended-precision constants are frozen inline; each one
notes how it was obtained so it can be re-derived without this repo.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import rankdata

from conceptspace.numerics import (
    EIGENVALUE_FLOOR,
    average_ranks,
    covariance_matrix,
    holdout_split,
    logdet_psd,
    rank_rows,
    spearman_rank_corr,
    stream_rng,
)
from oracles import cosine_similarity, flatten_tensors, grad_check, softmax, unflatten_tensors

# softmax([1, 2, 3]) evaluated with 50-digit mpmath, rounded to float64.
SOFTMAX_123 = np.array(
    [0.09003057317038046, 0.2447284710547977, 0.6652409557748219]
)


# ---------------------------------------------------------------------------
# softmax (oracles.py)


def test_softmax_uniform_on_constant_input():
    np.testing.assert_allclose(softmax(np.zeros(3)), np.ones(3) / 3, atol=1e-15)


def test_softmax_extreme_logits_stay_finite():
    out = softmax(np.array([1000.0, 0.0]))
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)


def test_softmax_frozen_oracle():
    np.testing.assert_allclose(softmax(np.array([1.0, 2.0, 3.0])), SOFTMAX_123, atol=1e-15)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_softmax_sums_to_one_and_shift_invariant(vals):
    v = np.array(vals)
    s = softmax(v)
    assert abs(float(np.sum(s)) - 1.0) < 1e-12
    assert np.all(s > 0)
    np.testing.assert_allclose(softmax(v + 17.5), s, atol=1e-12)


# ---------------------------------------------------------------------------
# cosine_similarity (oracles.py)


def test_cosine_self_is_one():
    v = np.array([0.3, -1.2, 4.0])
    assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-15)


def test_cosine_orthogonal_is_zero():
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0


def test_cosine_hand_case():
    # <(1,2),(2,1)> / (sqrt5 * sqrt5) = 4/5
    assert cosine_similarity(np.array([1.0, 2.0]), np.array([2.0, 1.0])) == pytest.approx(0.8)


def test_cosine_zero_norm_raises():
    with pytest.raises(ValueError):
        cosine_similarity(np.zeros(3), np.ones(3))


@given(
    st.lists(st.floats(-100, 100), min_size=2, max_size=8),
    st.lists(st.floats(-100, 100), min_size=2, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_cosine_bounded(a_vals, b_vals):
    n = min(len(a_vals), len(b_vals))
    a = np.array(a_vals[:n])
    b = np.array(b_vals[:n])
    if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
        return
    assert -1.0 <= cosine_similarity(a, b) <= 1.0


# ---------------------------------------------------------------------------
# covariance_matrix


def test_covariance_identical_rows_is_zero():
    cov = covariance_matrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
    assert cov.shape == (2, 2) and np.all(cov == 0.0)


def test_covariance_hand_case():
    # rows (0,0) and (2,0): var of first coordinate is (1+1)/(2-1) = 2
    cov = covariance_matrix(np.array([[0.0, 0.0], [2.0, 0.0]]))
    np.testing.assert_allclose(cov, [[2.0, 0.0], [0.0, 0.0]])


def test_covariance_trace_is_sum_of_variances():
    x = np.random.default_rng(3).normal(size=(40, 5))
    cov = covariance_matrix(x)
    per_dim = np.var(x, axis=0, ddof=1)
    assert float(np.trace(cov)) == pytest.approx(float(np.sum(per_dim)), abs=1e-9)


def test_covariance_needs_two_rows():
    with pytest.raises(ValueError):
        covariance_matrix(np.ones((1, 3)))


def test_covariance_is_symmetric():
    cov = covariance_matrix(np.random.default_rng(5).normal(size=(30, 6)))
    assert np.array_equal(cov, cov.T)


# ---------------------------------------------------------------------------
# logdet_psd


def test_logdet_identity_is_zero():
    assert logdet_psd(np.eye(5)) == pytest.approx(0.0, abs=1e-12)


def test_logdet_diagonal_case():
    assert logdet_psd(np.diag([2.0, 3.0])) == pytest.approx(math.log(6.0), abs=1e-12)


def test_logdet_scaled_identity():
    for d, c in ((2, 0.5), (7, 3.0)):
        assert logdet_psd(c * np.eye(d)) == pytest.approx(d * math.log(c), abs=1e-9)


def test_logdet_rank_deficient_uses_floor():
    # outer-product construction: eigenvalues {3, 1, 0}
    q, _ = np.linalg.qr(np.random.default_rng(11).normal(size=(3, 3)))
    cov = q @ np.diag([3.0, 1.0, 0.0]) @ q.T
    cov = 0.5 * (cov + cov.T)
    expected = math.log(3.0) + math.log(1.0) + math.log(EIGENVALUE_FLOOR)
    assert logdet_psd(cov) == pytest.approx(expected, abs=1e-6)


def test_logdet_rejects_asymmetric():
    with pytest.raises(ValueError):
        logdet_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# average_ranks: scipy's rankdata is the oracle. Average ranks are multiples
# of 1/2, so the two must agree bit for bit, not within a tolerance.


def _assert_same_ranks(x):
    before = np.array(x, copy=True)
    expected = rankdata(x, axis=-1)
    got = average_ranks(x)
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert x.tobytes() == before.tobytes()  # the input is left as it was


def _calls_to(patch, name):
    """Count the calls to np.<name> while the patch context is live."""
    calls = []
    real = getattr(np, name)
    patch.setattr(np, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_average_ranks_continuous_rows():
    _assert_same_ranks(np.random.default_rng(0).normal(size=(16, 999)))


def test_average_ranks_integer_rows_with_many_ties():
    ties = np.random.default_rng(1).integers(-3, 4, size=(16, 999))
    _assert_same_ranks(ties.astype(np.float64))


def test_average_ranks_all_equal_rows():
    _assert_same_ranks(np.full((3, 7), 0.25))
    assert np.all(average_ranks(np.full((3, 7), 0.25)) == 4.0)


def test_average_ranks_signed_zeros_tie():
    x = np.array([[0.0, -0.0, 1.0, -0.0, -1.0, 0.0], [-0.0, 0.0, -0.0, 0.0, -0.0, 0.0]])
    _assert_same_ranks(x)
    assert average_ranks(x)[0].tolist() == [3.5, 3.5, 6.0, 3.5, 1.0, 3.5]
    # Both index orders, with a value on each side.
    pairs = np.array([[0.0, -0.0, -1.0, 2.0], [-0.0, 0.0, -1.0, 2.0]])
    _assert_same_ranks(pairs)
    assert average_ranks(pairs).tolist() == [[2.5, 2.5, 1.0, 4.0]] * 2


def test_average_ranks_subnormals_and_extremes():
    tiny = np.nextafter(0.0, 1.0)
    x = np.array([
        [tiny, -tiny, 0.0, -0.0, 1e300, -1e300, 2 * tiny, -2 * tiny],
        [1e300, -1e300, 1e300, -1e300, tiny, -tiny, 0.0, 5e-310],
        [-1e300, 1e300, np.finfo(float).max, -np.finfo(float).max, 1.0, -1.0, 1e-300, -1e-300],
    ])
    _assert_same_ranks(x)
    assert average_ranks(x)[0].tolist() == [6.0, 3.0, 4.5, 4.5, 8.0, 1.0, 7.0, 2.0]


def test_average_ranks_one_ulp_apart_reaches_the_argsort_fallback(monkeypatch):
    # The larger of two 1-ulp neighbours sits at the lower index. Their keys
    # share all but the index bits, so the sort puts them in index order and
    # only the fallback sorts them by value.
    base = np.random.default_rng(4).normal(size=(3, 20))
    x = base.copy()
    x[1, 3] = np.nextafter(x[1, 11], np.inf)
    with monkeypatch.context() as patch:
        calls = _calls_to(patch, "argsort")
        got = average_ranks(x)
        assert calls == [1]
        average_ranks(base)
        assert calls == [1]  # no neighbours out of order, no fallback
    assert got.tobytes() == rankdata(x, axis=-1).tobytes()
    assert got[1, 3] == got[1, 11] + 1.0


def test_average_ranks_wrapped_key_difference_flags_the_row(monkeypatch):
    # The int64 keys of -1e300 and 1e300 are further apart than 2^63, so their
    # difference wraps negative; that sends the row down the exact path.
    x = np.array([[-1e300, 1e300, 0.5], [3.0, 1.0, 2.0]])
    with monkeypatch.context() as patch:
        calls = _calls_to(patch, "repeat")
        got = average_ranks(x)
        assert calls == [1]
    assert got.tolist() == [[1.0, 3.0, 2.0], [3.0, 1.0, 2.0]]


@pytest.mark.parametrize("n", [1, 2, 3, 1023, 1024, 1025])
def test_average_ranks_across_index_bit_widths(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(3, n))
    x[1] = np.round(x[1], 1)  # ties
    # 1-ulp pairs, the larger one first.
    half = x[2, : (n + 1) // 2]
    x[2] = np.stack([np.nextafter(half, np.inf), half], axis=-1).ravel()[:n]
    _assert_same_ranks(x)
    _assert_same_ranks(-x)


def test_rank_rows_puts_inf_last_and_keeps_the_other_ranks():
    x = np.random.default_rng(5).normal(size=(4, 30))
    x[1] = np.round(x[1])
    with_inf = x.copy()
    with_inf[:, 7] = np.inf
    got = rank_rows(with_inf)
    assert np.all(got[:, 7] == 30.0)
    assert got[:, np.arange(30) != 7].tobytes() == average_ranks(
        x[:, np.arange(30) != 7]).tobytes()


@pytest.mark.parametrize("rows", [[[5.0]], [[2.0, 1.0]], [[1.0, 1.0]], [[-0.0, 0.0]]])
def test_average_ranks_length_one_and_two_rows(rows):
    _assert_same_ranks(np.array(rows))


def test_average_ranks_one_and_three_dimensional_input():
    rng = np.random.default_rng(2)
    _assert_same_ranks(rng.normal(size=11))
    _assert_same_ranks(np.round(rng.normal(size=(2, 3, 40)), 1))


def test_average_ranks_takes_both_paths(monkeypatch):
    # Only the tie path spreads run averages with np.repeat. The patch is live
    # only around average_ranks, so the rankdata oracle never runs under it.
    distinct = np.random.default_rng(3).normal(size=(4, 50))
    one_tie = distinct.copy()
    one_tie[2, 7] = one_tie[2, 31]
    with monkeypatch.context() as patch:
        calls = _calls_to(patch, "repeat")
        tie_free = average_ranks(distinct)
        assert calls == []
        tied = average_ranks(one_tie)
        assert calls == [1]
    assert tie_free.tobytes() == rankdata(distinct, axis=-1).tobytes()
    assert tied.tobytes() == rankdata(one_tie, axis=-1).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_average_ranks_rejects_non_finite(bad):
    x = np.arange(6.0).reshape(2, 3)
    x[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        average_ranks(x)


@given(hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=12),
    elements=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -2.5]),
        st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
    ),
))
@settings(max_examples=200, deadline=None)
def test_average_ranks_matches_rankdata_property(x):
    _assert_same_ranks(x)


_FINITE = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@given(st.lists(
    st.tuples(_FINITE, st.sampled_from([-np.inf, np.inf]), st.booleans()),
    min_size=1, max_size=12,
), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_average_ranks_near_duplicates_property(items, random):
    # Each item gives x and, if chosen, its neighbour np.nextafter(x, +-inf),
    # placed in a shuffled order so either one may come first.
    values = []
    for x, toward, twin in items:
        values.append(x)
        if twin:
            values.append(float(np.nextafter(x, toward)))
    random.shuffle(values)
    _assert_same_ranks(np.array([values, [-v for v in values]]))


# ---------------------------------------------------------------------------
# rank_rows with counts: each value stands for `count` equal entries. The
# oracle is rankdata on each row's expanded multiset (np.repeat); a value of
# count 0 ranks as one more copy of it would, less 1/2.


def _assert_counted_ranks(x, counts):
    x = np.asarray(x, dtype=np.float64)
    counts = np.asarray(counts)
    before, counts_before = x.copy(), counts.copy()
    got = rank_rows(x, counts)
    assert got.dtype == np.float64 and got.shape == x.shape
    assert x.tobytes() == before.tobytes()  # neither input is written to
    assert counts.tobytes() == counts_before.tobytes()
    n = x.shape[-1]
    for row, c, ranks in zip(x.reshape(-1, n), np.broadcast_to(counts, x.shape).reshape(-1, n),
                             got.reshape(-1, n)):
        expanded = np.repeat(row, c)
        first = np.cumsum(c) - c  # each value's first copy in the expanded row
        kept = np.flatnonzero(c > 0)
        assert ranks[kept].tobytes() == rankdata(expanded)[first[kept]].tobytes()
        for j in np.flatnonzero(c == 0):
            assert ranks[j] == rankdata(np.append(expanded, row[j]))[-1] - 0.5


def test_rank_rows_counts_match_rankdata_on_the_expanded_multiset():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(8, 300))
    x[4:] = np.round(x[4:], 1)  # ties
    _assert_counted_ranks(x, rng.integers(0, 4, size=x.shape))
    # Counts shared by every row, and a third dimension.
    _assert_counted_ranks(x.reshape(2, 4, 300), rng.integers(1, 5, size=300))


def test_rank_rows_counts_of_one_are_no_counts():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, 1025))
    x[1] = np.round(x[1], 1)
    x[2, 3] = np.nextafter(x[2, 11], np.inf)  # reaches the argsort fallback
    x[3, 5] = np.inf
    ones = np.ones(x.shape, dtype=np.int64)
    assert rank_rows(x, ones).tobytes() == rank_rows(x).tobytes()
    assert rank_rows(x, 1).tobytes() == rank_rows(x).tobytes()


def test_rank_rows_zero_counts_and_ties_between_different_counts():
    # 1.0 stands for two entries and ranks 1.5; 2.0 follows at 3; the 3.0 that
    # counts for nothing ranks as if it sat between 2.0 and nothing else.
    assert rank_rows(np.array([3.0, 1.0, 2.0, 1.0]), np.array([0, 2, 1, 0])).tolist() == [
        3.5, 1.5, 3.0, 1.5]
    # A run of equal values pools its counts: 3 + 1 entries share rank 2.5.
    assert rank_rows(np.array([1.0, 2.0, 1.0]), np.array([3, 2, 1])).tolist() == [2.5, 5.5, 2.5]
    # -0.0 and 0.0 tie across counts; a value alone with count 0 ranks 1/2 above
    # what lies below it.
    x = np.array([[0.0, -0.0, -1.0, 5.0], [7.0, 7.0, 7.0, 7.0]])
    counts = np.array([[2, 1, 0, 0], [0, 0, 0, 0]])
    assert rank_rows(x, counts).tolist() == [[2.0, 2.0, 0.5, 3.5], [0.5] * 4]
    _assert_counted_ranks(x, counts)


def test_rank_rows_counts_on_the_near_path_and_the_argsort_fallback(monkeypatch):
    base = np.random.default_rng(8).normal(size=(3, 20))
    x = base.copy()
    x[1, 3] = np.nextafter(x[1, 11], np.inf)  # the larger neighbour first
    x[2, 4] = x[2, 9]  # a tie
    counts = np.random.default_rng(9).integers(0, 4, size=x.shape)
    with monkeypatch.context() as patch:
        sorts, repeats = _calls_to(patch, "argsort"), _calls_to(patch, "repeat")
        rank_rows(x, counts)
        assert (sorts, repeats) == ([1], [1])
    _assert_counted_ranks(x, counts)


@given(st.lists(
    st.tuples(_FINITE, st.sampled_from([-np.inf, np.inf]), st.booleans(),
              st.integers(0, 3), st.integers(0, 3)),
    min_size=1, max_size=12,
), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_rank_rows_counts_near_duplicates_property(items, random):
    # As the near-duplicate property above, each value with a random count.
    values = []
    for x, toward, twin, count, twin_count in items:
        values.append((x, count))
        if twin:
            values.append((float(np.nextafter(x, toward)), twin_count))
    random.shuffle(values)
    x, counts = (np.array(v) for v in zip(*values))
    _assert_counted_ranks(np.array([x, -x]), np.array([counts, counts[::-1]]))


# ---------------------------------------------------------------------------
# spearman_rank_corr


def test_spearman_identity_is_one():
    a = np.array([0.1, 0.9, 0.4, 0.7])
    assert spearman_rank_corr(a, a) == pytest.approx(1.0)


def test_spearman_reversal_is_minus_one():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    assert spearman_rank_corr(a, a[::-1]) == pytest.approx(-1.0)


def test_spearman_hand_case():
    # one adjacent swap among 4 distinct values: rho = 1 - 6*2/(4*15) = 0.8
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([1.0, 3.0, 2.0, 4.0])
    assert spearman_rank_corr(a, b) == pytest.approx(0.8)


def test_spearman_constant_input_raises():
    with pytest.raises(ValueError):
        spearman_rank_corr(np.ones(4), np.array([1.0, 2.0, 3.0, 4.0]))


@given(st.lists(st.integers(-50, 50), min_size=3, max_size=10, unique=True))
@settings(max_examples=100, deadline=None)
def test_spearman_monotone_transform_invariant(vals):
    # integer grid keeps exp() strictly monotone in float64 (no underflow ties)
    a = np.array(vals, dtype=np.float64)
    b = np.random.default_rng(1).permutation(len(vals)).astype(np.float64)
    base = spearman_rank_corr(a, b)
    warped = spearman_rank_corr(np.exp(a / 25.0), b)
    assert warped == pytest.approx(base, abs=1e-9)


# ---------------------------------------------------------------------------
# grad_check


def test_grad_check_quadratic_is_tight():
    point = np.random.default_rng(2).normal(size=7)

    def f(x):
        return float(np.dot(x, x))

    err = grad_check(f, 2.0 * point, point, eps=1e-5)
    assert err < 1e-8


def test_grad_check_flags_wrong_gradient():
    point = np.array([1.0, 2.0])

    def f(x):
        return float(np.dot(x, x))

    err = grad_check(f, 3.0 * point, point, eps=1e-5)
    assert err > 1e-2


def test_grad_check_rejects_non_finite_objective():
    with pytest.raises(ValueError):
        grad_check(lambda x: float("nan"), np.ones(2), np.ones(2), eps=1e-5)


# ---------------------------------------------------------------------------
# holdout_split


@pytest.mark.parametrize(("n", "fraction", "held"), [
    (1, 0.1, 1),  # one item serves both sides
    (2, 0.9, 1),  # at most n - 1 held out
    (10, 0.01, 1),  # at least 1
    (10, 0.25, 2),  # round half to even: 2.5 -> 2
    (10, 0.35, 4),
    (800, 0.1, 80),
])
def test_holdout_split_sizes(n, fraction, held):
    order = stream_rng(3, n).permutation(n)
    val, train = holdout_split(order, fraction)
    assert val.tolist() == order[:held].tolist()
    assert train.tolist() == (order if n == 1 else order[held:]).tolist()


# ---------------------------------------------------------------------------
# seeded streams, and tensor flattening (oracles.py)


def test_stream_rng_keyed_independence():
    a = stream_rng(0, 1).normal(size=4)
    b = stream_rng(0, 2).normal(size=4)
    again = stream_rng(0, 1).normal(size=4)
    assert np.array_equal(a, again)
    assert not np.array_equal(a, b)


def test_stream_rng_multi_part_keys():
    assert not np.array_equal(
        stream_rng(5, 1, 2).normal(size=3), stream_rng(5, 2, 1).normal(size=3)
    )


def test_flatten_round_trip():
    tensors = {
        "w": np.random.default_rng(0).normal(size=(3, 2)),
        "b": np.random.default_rng(1).normal(size=(2,)),
    }
    order = ["w", "b"]
    flat = flatten_tensors(tensors, order)
    assert flat.ndim == 1 and flat.size == 8
    shapes = {k: tensors[k].shape for k in order}
    back = unflatten_tensors(flat, shapes, order)
    assert set(back) == {"w", "b"}
    for key in tensors:
        assert np.array_equal(back[key], tensors[key])
