"""Tests for retrieval metrics, consistency scores, spread stats, round trips.

The loop oracles here are deliberately naive O(n*m) reimplementations; the
library must agree with them exactly (or to 1e-12) on random instances.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import conceptspace
from conceptspace.corpus import make_caption_bank
from conceptspace.numerics import EIGENVALUE_FLOOR, spearman_rank_corr, stream_rng
from conceptspace import spaceval
from conceptspace.spaceval import (
    TILE_ROWS,
    alignment_consistency,
    build_space_report,
    drift_export,
    nearest_decode,
    nearest_decode_many,
    retrieval_metrics,
    roundtrip_report_to_dict,
    roundtrip_retrieval,
    SimilarityMatrix,
    similarity_matrix,
    space_report_to_dict,
    space_stats,
)
import oracles


@pytest.fixture
def sixteen_row_tiles(monkeypatch):
    """Tiles of TILE_ROWS query rows whatever the width, so that small inputs
    cross tile edges."""
    monkeypatch.setattr(spaceval, "TILE_ENTRIES", 0)


# ---------------------------------------------------------------------------
# similarity matrix


def test_similarity_identity_for_orthonormal_rows():
    q = np.eye(4)
    sim = similarity_matrix(q, q)
    np.testing.assert_allclose(sim.values, np.eye(4), atol=1e-15)
    assert sim.query_ids == (0, 1, 2, 3)


def test_similarity_single_pair():
    sim = similarity_matrix(np.array([[1.0, 2.0]]), np.array([[2.0, 1.0]]))
    assert sim.values.shape == (1, 1)
    assert sim.values[0, 0] == pytest.approx(0.8)


def test_similarity_matches_cosine_loop():
    rng = stream_rng(40, 0)
    q = rng.normal(size=(3, 5))
    t = rng.normal(size=(4, 5))
    sim = similarity_matrix(q, t)
    for i in range(3):
        for j in range(4):
            ref = float(q[i] @ t[j] / (np.linalg.norm(q[i]) * np.linalg.norm(t[j])))
            assert sim.values[i, j] == pytest.approx(ref, abs=1e-12)


def test_similarity_zero_row_names_index():
    q = np.ones((3, 4))
    q[1] = 0.0
    with pytest.raises(ValueError) as exc:
        similarity_matrix(q, np.ones((2, 4)))
    assert "1" in str(exc.value)


# ---------------------------------------------------------------------------
# retrieval metrics


def _brute_force_metrics(values, target_ids, gold):
    """Literal rank computation: sort pairs (-sim, id) and find the gold."""
    recalls = {1: 0, 5: 0, 10: 0}
    inv_ranks = []
    n = values.shape[0]
    for i in range(n):
        order = sorted(range(values.shape[1]), key=lambda j: (-values[i, j], target_ids[j]))
        rank = 1 + order.index(target_ids.index(gold[i]))
        inv_ranks.append(1.0 / rank)
        for k in recalls:
            recalls[k] += int(rank <= k)
    return {k: v / n for k, v in recalls.items()}, sum(inv_ranks) / n


def test_retrieval_identity_case():
    sim = similarity_matrix(np.eye(4), np.eye(4))
    out = retrieval_metrics(sim, {i: i for i in range(4)})
    assert out.recall_at[1] == 1.0
    assert out.mrr == 1.0
    assert out.ranks == (1, 1, 1, 1)


def test_retrieval_hand_ranks():
    # similarity rows engineered to put gold at ranks 1, 2, 4
    values = np.array([
        [0.9, 0.1, 0.2, 0.3],
        [0.8, 0.5, 0.1, 0.0],
        [0.9, 0.8, 0.7, 0.2],
    ])
    sim = similarity_matrix(np.eye(3), np.eye(3))  # placeholder, replaced below
    sim = type(sim)(values=values, query_ids=(0, 1, 2), target_ids=(0, 1, 2, 3))
    out = retrieval_metrics(sim, {0: 0, 1: 1, 2: 3})
    assert out.ranks == (1, 2, 4)
    assert out.mrr == pytest.approx((1.0 + 0.5 + 0.25) / 3)
    assert out.recall_at[1] == pytest.approx(1.0 / 3.0)


def test_retrieval_all_ties_use_id_order():
    values = np.zeros((2, 4))
    sim = similarity_matrix(np.eye(2), np.eye(2))
    sim = type(sim)(values=values, query_ids=(0, 1), target_ids=(0, 1, 2, 3))
    out = retrieval_metrics(sim, {0: 0, 1: 2})
    assert out.ranks == (1, 3)


def test_retrieval_missing_gold_rejected():
    sim = similarity_matrix(np.eye(3), np.eye(3))
    with pytest.raises(ValueError):
        retrieval_metrics(sim, {0: 0, 1: 1})


def test_retrieval_matches_brute_force_on_random_instances():
    rng = stream_rng(41, 0)
    for trial in range(30):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(n, n + 40))
        values = rng.normal(size=(n, m))
        # a few exact ties to exercise the tie rule
        if m > 3:
            values[:, 1] = values[:, 0]
        target_ids = list(range(m))
        gold = {i: int(rng.integers(0, m)) for i in range(n)}
        sim = similarity_matrix(np.eye(2), np.eye(2))
        sim = type(sim)(values=values, query_ids=tuple(range(n)),
                        target_ids=tuple(target_ids))
        out = retrieval_metrics(sim, gold)
        ref_rec, ref_mrr = _brute_force_metrics(values, target_ids, gold)
        for k in (1, 5, 10):
            assert out.recall_at[k] == pytest.approx(ref_rec[k], abs=1e-12)
        assert out.mrr == pytest.approx(ref_mrr, abs=1e-12)
        assert out.recall_at[1] <= out.recall_at[5] <= out.recall_at[10] <= 1.0
        assert out.mrr >= out.recall_at[1] - 1e-12


def test_retrieval_rejects_repeated_target_ids():
    # With a repeated id the gold column and the id rule are ambiguous.
    values = np.array([[0.9, 0.1, 0.5], [0.2, 0.3, 0.4]])
    sim = SimilarityMatrix(values=values, query_ids=(0, 1), target_ids=(4, 7, 4))
    with pytest.raises(ValueError, match="target ids must be distinct; id 4 repeats"):
        retrieval_metrics(sim, {0: 7, 1: 7})


def test_gold_ranks_equal_the_reference_count():
    # Rounded values tie within rows; the ids are distinct but not sorted.
    rng = stream_rng(41, 3)
    values = np.round(rng.normal(size=(40, 23)), 1)
    values[:, 5] = values[:, 9]
    target_ids = rng.permutation(100)[:23]
    gold_pos = rng.integers(0, 23, size=40)
    got = spaceval._gold_ranks(values, target_ids, gold_pos)
    assert got.tolist() == oracles.gold_ranks(values, target_ids, gold_pos).tolist()


def test_retrieval_gold_outside_targets_names_the_id():
    sim = similarity_matrix(np.eye(3), np.eye(3))
    with pytest.raises(ValueError, match="gold target id 7 not among the targets"):
        retrieval_metrics(sim, {0: 0, 1: 7, 2: 2})


# Row counts around the tile edges: one short of a tile, one tile, one past it,
# and a ragged third tile.
TILE_EDGE_NS = (TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 2 * TILE_ROWS + 3)


@pytest.mark.usefixtures("sixteen_row_tiles")
@pytest.mark.parametrize("n", TILE_EDGE_NS)
def test_retrieval_matches_brute_force_across_tile_edges(n):
    rng = stream_rng(41, 1, n)
    m = n + 7
    values = np.round(rng.normal(size=(n, m)), 1)  # rounding forces exact ties
    values[TILE_ROWS // 2 :] = values[: n - TILE_ROWS // 2]  # tied rows in other tiles
    target_ids = [int(i) for i in rng.permutation(1000)[:m]]
    gold = {i: target_ids[int(rng.integers(0, m))] for i in range(n)}
    sim = SimilarityMatrix(values=values, query_ids=tuple(range(n)), target_ids=tuple(target_ids))
    out = retrieval_metrics(sim, gold)
    ref_rec, ref_mrr = _brute_force_metrics(values, target_ids, gold)
    for k in (1, 5, 10):
        assert out.recall_at[k] == pytest.approx(ref_rec[k], abs=1e-12)
    assert out.mrr == pytest.approx(ref_mrr, abs=1e-12)
    order = [sorted(range(m), key=lambda j: (-values[i, j], target_ids[j])) for i in range(n)]
    assert out.ranks == tuple(1 + order[i].index(target_ids.index(gold[i])) for i in range(n))


@pytest.mark.usefixtures("sixteen_row_tiles")
def test_roundtrip_ties_straddling_a_tile_edge_use_id_order():
    n = 2 * TILE_ROWS + 3
    bank = make_caption_bank(stream_rng(41, 2), 3 * n, 6)
    ids = np.arange(n)
    ids[TILE_ROWS] = ids[TILE_ROWS - 1]  # items TILE_ROWS-1 and TILE_ROWS are identical
    zv = bank[ids]
    report = roundtrip_retrieval(zv, bank, ids)
    sim = similarity_matrix(bank[ids], zv)
    items = {i: i for i in range(n)}
    ranks = retrieval_metrics(sim, items).ranks
    assert ranks[TILE_ROWS - 1] == 1 and ranks[TILE_ROWS] == 2
    ref_rec, ref_mrr = _brute_force_metrics(sim.values, list(range(n)), items)
    for group in ("gold", "decoded"):
        assert report.groups[group].mrr == pytest.approx(ref_mrr, abs=1e-12)
        assert report.groups[group].recall_at == pytest.approx(ref_rec, abs=1e-12)


# ---------------------------------------------------------------------------
# alignment consistency


def _naive_spearman(a, b):
    def ranks(x):
        # average rank of each value: 1 + (# smaller) + (# equal - 1) / 2
        return [1 + sum(y < v for y in x) + (sum(y == v for y in x) - 1) / 2 for v in x]

    ra, rb = ranks(list(a)), ranks(list(b))
    ma, mb = sum(ra) / len(ra), sum(rb) / len(rb)
    cov = sum((p - ma) * (q - mb) for p, q in zip(ra, rb))
    return cov / math.sqrt(sum((p - ma) ** 2 for p in ra) * sum((q - mb) ** 2 for q in rb))


def _naive_ac(zv, zt, mode):
    """Per-row loop over the profiles; returns (mean correlation, used, skipped)."""
    uv = zv / np.linalg.norm(zv, axis=1, keepdims=True)
    ut = zt / np.linalg.norm(zt, axis=1, keepdims=True)
    left = ut if mode == "cross" else uv
    vals, skipped = [], 0
    for i in range(len(zv)):
        a = [float(uv[i] @ left[j]) for j in range(len(zv)) if j != i]
        b = [float(ut[i] @ ut[j]) for j in range(len(zv)) if j != i]
        if max(a) == min(a) or max(b) == min(b):
            skipped += 1
            continue
        vals.append(_naive_spearman(a, b))
    return sum(vals) / len(vals), len(vals), skipped


@pytest.mark.usefixtures("sixteen_row_tiles")
@pytest.mark.parametrize("n", TILE_EDGE_NS)
@pytest.mark.parametrize("mode", ["cross", "intra"])
def test_ac_matches_loop_oracle_across_tile_edges(n, mode):
    # Rows repeated half a tile apart give every profile exact ties, some in
    # another tile than the query row. (Rounded coordinates would also tie,
    # but only up to roundoff that depends on how each dot product is summed.)
    rng = stream_rng(42, 4, n)
    zv = rng.normal(size=(n, 3))
    zt = rng.normal(size=(n, 3))
    zv[TILE_ROWS // 2 :] = zv[: n - TILE_ROWS // 2]
    zt[TILE_ROWS - 3 :: 3] = zt[0]
    out = alignment_consistency(zv, zt, mode=mode)
    value, used, skipped = _naive_ac(zv, zt, mode)
    assert out.value == pytest.approx(value, abs=1e-12)
    assert (out.used, out.skipped) == (used, skipped)


def _constant_profile_in_second_tile():
    """zv of basis rows plus an all-ones row (index TILE_ROWS + 2), whose
    cosine to every other row is the same."""
    n = 2 * TILE_ROWS + 3
    zv = np.eye(n - 1)
    zv = np.insert(zv, TILE_ROWS + 2, np.ones(n - 1), axis=0)
    zt = stream_rng(44, 1).normal(size=(n, n - 1))
    return zv, zt


@pytest.mark.usefixtures("sixteen_row_tiles")
def test_ac_skips_constant_profile_in_second_tile():
    zv, zt = _constant_profile_in_second_tile()
    out = alignment_consistency(zv, zt, mode="intra")
    assert (out.used, out.skipped) == (zv.shape[0] - 1, 1)
    value, _used, _skipped = _naive_ac(zv, zt, "intra")
    assert out.value == pytest.approx(value, abs=1e-12)


@pytest.mark.usefixtures("sixteen_row_tiles")
@pytest.mark.parametrize("case", ["random", "constant-profile"])
def test_shared_rank_helper_equals_separate_ac_calls(case):
    if case == "random":
        n = 2 * TILE_ROWS + 3
        zt = stream_rng(42, 5).normal(size=(n, 6))
        zv = zt + stream_rng(42, 6).normal(size=(n, 6)) * 0.3
    else:
        zv, zt = _constant_profile_in_second_tile()
    uv, ut = spaceval._ac_sides(zv, zt)
    shared = spaceval._consistency(uv, ut, [("vt", "tt"), ("tv", "vv"), ("vv", "tt")])
    separate = [
        alignment_consistency(zv, zt, mode="cross"),
        alignment_consistency(zt, zv, mode="cross"),
        alignment_consistency(zv, zt, mode="intra"),
    ]
    assert shared == separate
    bank = np.vstack([zt, np.ones((1, zt.shape[1]))])
    report = build_space_report(zv, zt, bank, np.arange(zt.shape[0]))
    assert (report.ac, report.ac_reverse, report.ac_intra) == tuple(r.value for r in separate)


ALL_PAIRS = [("vt", "tt"), ("tv", "vv"), ("vv", "tt")]


def _assert_consistency_equals_reference(zv, zt):
    """The same AcResults, bit for bit, as the argsort reference in oracles.py."""
    uv, ut = spaceval._ac_sides(zv, zt)
    assert spaceval._consistency(uv, ut, ALL_PAIRS) == oracles.consistency(uv, ut, ALL_PAIRS)


def test_consistency_equals_reference_on_bench_like_ties():
    # Targets repeat rows of a 256-row bank, as `gen` data do, so most entries
    # of the "tt" and "vt" profiles tie; "vv" and "tv" have no ties.
    rng = stream_rng(45, 0)
    bank = make_caption_bank(rng, 256, 32)
    zt = bank[rng.integers(0, 256, size=1000)]
    zv = zt + 0.1 * rng.normal(size=zt.shape)
    _assert_consistency_equals_reference(zv, zt)


@pytest.mark.usefixtures("sixteen_row_tiles")
@pytest.mark.parametrize("n", TILE_EDGE_NS)
def test_consistency_equals_reference_across_tile_edges(n):
    rng = stream_rng(42, 4, n)
    zv = rng.normal(size=(n, 3))
    zt = rng.normal(size=(n, 3))
    zv[TILE_ROWS // 2 :] = zv[: n - TILE_ROWS // 2]
    zt[TILE_ROWS - 3 :: 3] = zt[0]
    _assert_consistency_equals_reference(zv, zt)


@pytest.mark.usefixtures("sixteen_row_tiles")
def test_consistency_equals_reference_with_a_constant_profile():
    _assert_consistency_equals_reference(*_constant_profile_in_second_tile())


def test_consistency_equals_reference_when_every_entry_ties():
    # Each target row appears three times, so every entry of every "tt"
    # profile ties with another: the query's two copies at cosine 1, and each
    # other row's three copies.
    rng = stream_rng(45, 1)
    zt = np.repeat(rng.normal(size=(2 * TILE_ROWS + 1, 5)), 3, axis=0)
    zv = rng.normal(size=zt.shape)
    _assert_consistency_equals_reference(zv, zt)


def _bank_draws(seed, n, bank_size, d, noise=0.1):
    """Targets drawn from a caption bank, as `gen` draws them, and noisy views."""
    rng = stream_rng(seed, n)
    bank = make_caption_bank(rng, bank_size, d)
    zt = bank[rng.integers(0, bank_size, size=n)]
    return zt + noise * rng.normal(size=zt.shape), zt


def test_consistency_equals_reference_when_distinct_targets_tie_for_a_query():
    # (0.6, 0.8) and (0.6, -0.8) are distinct target rows, so distinct
    # classes, yet e1 meets both at cosine 0.6: the class ranks take the run
    # rule across the two.
    rng = stream_rng(45, 3)
    bank = np.array([[0.6, 0.8], [0.6, -0.8], [1.0, 0.0], [0.0, 1.0], [-0.3, 0.2]])
    zt = bank[rng.integers(0, bank.shape[0], size=2 * TILE_ROWS + 5)]
    zv = zt + 0.2 * rng.normal(size=zt.shape)
    zv[:: 4] = [1.0, 0.0]
    _assert_consistency_equals_reference(zv, zt)


def test_consistency_equals_reference_with_an_own_class_of_one():
    # Row 5's target appears once, so its own class counts for nothing in its
    # own profiles.
    zv, zt = _bank_draws(46, 2 * TILE_ROWS + 3, 6, 4)
    zt[5] = [0.3, -1.2, 0.5, 2.0]
    uv, ut = spaceval._ac_sides(zv, zt)
    assert np.count_nonzero((ut == ut[5]).all(axis=1)) == 1
    _assert_consistency_equals_reference(zv, zt)


def test_consistency_equals_reference_with_no_repeated_target():
    # k = n: the classes are the columns, and every profile is ranked whole,
    # whether the first entries tell the rows apart or only the full rows do.
    zv, zt = _bank_draws(47, 3 * TILE_ROWS + 1, 512, 8)
    zt = zt + stream_rng(47, 1).normal(size=zt.shape)
    _assert_consistency_equals_reference(zv, zt)
    zt[:, 0] = 1.0
    _assert_consistency_equals_reference(zv, zt)


def test_consistency_equals_reference_when_rows_differ_only_by_signed_zeros():
    # Rows equal but for the sign of a zero fall into one class; their
    # products may differ in the sign of a zero only, which ranks the same.
    n = 2 * TILE_ROWS + 1
    rng = stream_rng(45, 4)
    bank = np.array([[0.0, 1.0, 2.0], [-0.0, 1.0, 2.0], [1.0, 0.0, -0.0], [1.0, -0.0, 0.0],
                     [0.5, -1.0, 0.25]])
    zt = bank[rng.integers(0, bank.shape[0], size=n)]
    zv = rng.normal(size=(n, 3))
    zv[::3, 0] = 0.0
    zv[1::3, 0] = -0.0
    _assert_consistency_equals_reference(zv, zt)


@pytest.mark.usefixtures("sixteen_row_tiles")
@pytest.mark.parametrize("n", TILE_EDGE_NS)
def test_consistency_equals_reference_on_bank_draws_across_tile_edges(n):
    _assert_consistency_equals_reference(*_bank_draws(48, n, 7, 5))


def _rank_calls(monkeypatch):
    """Record (shape, counted) for each rank_rows call that spaceval makes."""
    calls = []
    real = spaceval.rank_rows

    def spy(x, counts=None):
        calls.append((x.shape, counts is not None))
        return real(x, counts)

    monkeypatch.setattr(spaceval, "rank_rows", spy)
    return calls


def test_consistency_ranks_target_profiles_over_the_distinct_rows(monkeypatch):
    # On bench-like data the rows are walked in target-class order. Each tile
    # ranks "vt" over the k distinct targets with counts and "vv" over all n
    # columns, a row each, and "tt" (with counts) and "tv" (over n columns)
    # once per class it holds: a silent fall back to whole rows, or to a
    # ranking per row, fails here.
    zv, zt = _bank_draws(49, 1000, 256, 32)
    uv, ut = spaceval._ac_sides(zv, zt)
    k = np.unique(ut, axis=0).shape[0]
    calls = _rank_calls(monkeypatch)
    spaceval._consistency(uv, ut, ALL_PAIRS)
    _rep, inv, _count = spaceval._target_classes(ut)
    order = np.argsort(inv, kind="stable")
    want = []
    for tile in spaceval._tiles(1000, 1000):
        rows = order[tile]
        held = np.unique(inv[rows]).size
        # The profiles in name order: "tt", "tv", "vt", "vv".
        want += [((held, k), True), ((held, 1000), False), ((rows.size, k), True),
                 ((rows.size, 1000), False)]
    assert calls == want


def test_consistency_with_a_wrong_class_hint_falls_back_and_stays_equal(monkeypatch):
    # A class finder that merges two distinct target rows: a row whose
    # entries differ between the two cannot take the classes, so it is ranked
    # whole, and the result is still the reference's.
    zv, zt = _bank_draws(50, 3 * TILE_ROWS + 2, 8, 4)
    uv, ut = spaceval._ac_sides(zv, zt)
    real = spaceval._target_classes
    first, second = 0, int(np.flatnonzero((ut != ut[0]).any(axis=1))[0])

    def merged(rows):
        wrong = rows.copy()
        wrong[(rows == rows[second]).all(axis=1)] = rows[first]
        return real(wrong)

    monkeypatch.setattr(spaceval, "_target_classes", merged)
    calls = _rank_calls(monkeypatch)
    assert spaceval._consistency(uv, ut, ALL_PAIRS) == oracles.consistency(uv, ut, ALL_PAIRS)
    # Random rows meet the two merged targets at different cosines, so every
    # row of "vt" and "tt" is ranked whole, as every row of "vv" is. In the
    # one tile, "tv" ranks the first row of each class, and the rows of the
    # merged class whose target differs from that first row's (row 0's).
    n = uv.shape[0]
    classes = merged(ut)[0].size
    differ = np.count_nonzero((ut == ut[second]).all(axis=1))
    assert [shape[0] for shape, with_counts in calls if not with_counts] == [
        n, classes + differ, n, n]


def test_consistency_mixes_both_paths_within_a_pair(monkeypatch):
    # The hint merges two targets that differ only in the sign of their last
    # coordinate, which every other target has at 0. So each "tt" row outside
    # those two classes still matches its classes, while no "vt" row (noisy
    # views) does, and one pair correlates rows of both kinds.
    rng = stream_rng(51, 0)
    bank = np.array([[1.0, 0.5, 0.0], [-0.4, 1.0, 0.0], [0.3, -0.2, 0.0],
                     [0.7, 0.1, 0.6], [0.7, 0.1, -0.6]])
    ids = rng.integers(0, 3, size=3 * TILE_ROWS)
    ids[-4:] = [3, 4, 3, 4]
    zt = bank[ids]
    zv = zt + 0.1 * rng.normal(size=zt.shape)
    uv, ut = spaceval._ac_sides(zv, zt)
    real = spaceval._target_classes
    monkeypatch.setattr(spaceval, "_target_classes", lambda rows: real(
        np.where((rows == ut[-3]).all(axis=1)[:, None], ut[-4], rows)))
    calls = _rank_calls(monkeypatch)
    cross = [("vt", "tt")]
    assert spaceval._consistency(uv, ut, cross) == oracles.consistency(uv, ut, cross)
    # Every "vt" row and the four "tt" rows of the merged classes, ranked whole.
    assert sum(shape[0] for shape, with_counts in calls if not with_counts) == uv.shape[0] + 4
    assert spaceval._consistency(uv, ut, ALL_PAIRS) == oracles.consistency(uv, ut, ALL_PAIRS)


def test_tiles_hold_about_tile_entries_with_no_one_row_tail():
    def sizes(rows, columns):
        return [t.stop - t.start for t in spaceval._tiles(rows, columns)]

    assert sizes(1000, 1000) == [32] * 31 + [8]
    assert sizes(4096, 4096) == [16] * 256
    assert sizes(300, 256) == [128, 128, 44]
    # A last tile of one row joins the tile before it.
    assert sizes(33, 4096) == [16, 17] and sizes(257, 128) == [257]
    assert sizes(1, 5) == [1] and sizes(0, 5) == []


def test_target_classes_put_rows_that_differ_in_signed_zeros_in_one_class():
    ut = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0], [0.5, 0.5], [-0.0, 1.0]])
    rep, inv, count = spaceval._target_classes(ut)
    assert inv[0] == inv[1] == inv[5] and inv[2] == inv[3]
    assert len({inv[0], inv[2], inv[4]}) == 3
    assert sorted(count.tolist()) == [1, 2, 3]
    assert (ut[rep[inv]] == ut).all() and (np.bincount(inv) == count).all()


# The class walk: rows of one target class share their "tt" and "tv" ranks.


@pytest.mark.usefixtures("sixteen_row_tiles")
def test_walk_equals_reference_with_a_class_across_a_tile_edge():
    # A class of 20 rows cannot fit in a 16-row tile, so it starts again,
    # with a new first row, in the next tile.
    rng = stream_rng(52, 0)
    bank = make_caption_bank(rng, 5, 4)
    ids = rng.integers(1, 5, size=40)
    ids[rng.permutation(40)[:20]] = 0
    zt = bank[ids]
    zv = zt + 0.1 * rng.normal(size=zt.shape)
    _assert_consistency_equals_reference(zv, zt)


@pytest.mark.usefixtures("sixteen_row_tiles")
def test_walk_equals_reference_with_classes_of_one_row():
    # One target repeats; every other class is a single row, its own first row.
    n = 2 * TILE_ROWS + 5
    rng = stream_rng(53, 0)
    zt = make_caption_bank(rng, n, 6)
    zt[7] = zt[30]
    zv = zt + 0.1 * rng.normal(size=zt.shape)
    _assert_consistency_equals_reference(zv, zt)


def test_walk_with_a_hint_that_merges_two_classes_in_one_tile(monkeypatch):
    # Rows of targets 0 and 1 share one class and the one tile. Their "tv"
    # rows differ, so a row of target 1 is ranked itself, not given the
    # ranks of the class's first row (row 0, of target 0).
    rng = stream_rng(54, 0)
    bank = make_caption_bank(rng, 6, 4)
    ids = rng.integers(0, 6, size=40)
    ids[:4] = [0, 1, 0, 1]
    zt = bank[ids]
    zv = zt + 0.1 * rng.normal(size=zt.shape)
    uv, ut = spaceval._ac_sides(zv, zt)
    real = spaceval._target_classes
    monkeypatch.setattr(spaceval, "_target_classes", lambda rows: real(
        np.where((rows == ut[1]).all(axis=1)[:, None], ut[0], rows)))
    calls = _rank_calls(monkeypatch)
    assert spaceval._consistency(uv, ut, ALL_PAIRS) == oracles.consistency(uv, ut, ALL_PAIRS)
    # Every "tt", "vt" and "vv" row is ranked whole; "tv" ranks the first row
    # of each class and each row of target 1.
    whole = [shape[0] for shape, with_counts in calls if not with_counts]
    assert whole == [40, np.unique(ids).size - 1 + np.count_nonzero(ids == 1), 40, 40]


def test_walk_equals_reference_when_a_member_ties_its_own_tv_entry():
    # Equal view rows put equal entries in every "tv" row. Row m1 is not the
    # first of its class, and its own entry ties two others, which move down
    # by 1/2 when the entry goes to +inf, not by 1.
    rng = stream_rng(55, 0)
    bank = make_caption_bank(rng, 4, 5)
    ids = rng.integers(0, 4, size=2 * TILE_ROWS + 3)
    zt = bank[ids]
    zv = zt + 0.1 * rng.normal(size=zt.shape)
    members = np.flatnonzero(ids == ids[0])
    m1 = members[1]
    zv[members[2]] = zv[m1]
    zv[np.flatnonzero(ids != ids[0])[0]] = zv[m1]
    uv, ut = spaceval._ac_sides(zv, zt)
    x = ut[m1] @ uv.T
    assert np.count_nonzero(x == x[m1]) == 3
    _assert_consistency_equals_reference(zv, zt)


def test_walk_is_off_for_distinct_targets(monkeypatch):
    # k = n: the rows keep their order and every profile is ranked whole.
    n = 3 * TILE_ROWS + 1
    zv, zt = _bank_draws(47, n, 512, 8)
    zt = zt + stream_rng(47, 1).normal(size=zt.shape)
    uv, ut = spaceval._ac_sides(zv, zt)
    calls = _rank_calls(monkeypatch)
    assert spaceval._consistency(uv, ut, ALL_PAIRS) == oracles.consistency(uv, ut, ALL_PAIRS)
    assert calls == [((n, n), False)] * 4


def test_ac_rejects_non_finite_embeddings():
    z = stream_rng(45, 2).normal(size=(6, 3))
    bad = z.copy()
    bad[4, 1] = np.nan
    for zv, zt in ((bad, z), (z, bad)):
        with pytest.raises(ValueError, match="finite"):
            alignment_consistency(zv, zt)


def test_ac_perfect_when_sets_match():
    z = stream_rng(42, 0).normal(size=(8, 5))
    out = alignment_consistency(z, z.copy())
    assert out.value == pytest.approx(1.0)
    assert out.used == 8 and out.skipped == 0


def test_ac_intra_invariant_under_rotation_of_one_side():
    zt = stream_rng(42, 1).normal(size=(10, 6))
    q, _ = np.linalg.qr(stream_rng(42, 2).normal(size=(6, 6)))
    zv = zt @ q  # rotated copy: within-set cosines identical
    out = alignment_consistency(zv, zt, mode="intra")
    assert out.value == pytest.approx(1.0, abs=1e-9)


def test_ac_invariant_under_common_transform_and_scaling():
    rng = stream_rng(42, 3)
    zv = rng.normal(size=(9, 5))
    zt = rng.normal(size=(9, 5))
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    base = alignment_consistency(zv, zt)
    moved = alignment_consistency(3.0 * zv @ q, 0.25 * zt @ q)
    assert moved.value == pytest.approx(base.value, abs=1e-9)


def test_ac_near_zero_for_independent_sets():
    for seed in (0, 1, 2):
        zv = stream_rng(43, seed, 0).normal(size=(50, 16))
        zt = stream_rng(43, seed, 1).normal(size=(50, 16))
        out = alignment_consistency(zv, zt)
        assert abs(out.value) < 0.2


def test_ac_skips_constant_profiles_and_reports_count():
    zv = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 1.0, 1.0],  # equal cosine to every other zv row
    ])
    zt = stream_rng(44, 0).normal(size=(4, 3))
    out = alignment_consistency(zv, zt, mode="intra")
    assert out.skipped == 1
    assert out.used == 3


def test_ac_needs_three_rows():
    z = np.eye(2)
    with pytest.raises(ValueError):
        alignment_consistency(z, z)


def test_ac_rejects_unknown_mode():
    z = np.eye(3)
    with pytest.raises(ValueError):
        alignment_consistency(z, z, mode="both")


# ---------------------------------------------------------------------------
# space stats


def test_space_stats_basis_rows_hand_case():
    stats = space_stats(np.eye(2))
    assert stats.trace == pytest.approx(1.0)  # cov = [[.5,-.5],[-.5,.5]]
    assert stats.mean_norm == pytest.approx(1.0)


def test_space_stats_degenerate_set():
    z = np.tile(np.array([0.3, -0.4, 1.0]), (5, 1))
    stats = space_stats(z)
    assert stats.trace == pytest.approx(0.0, abs=1e-15)
    assert stats.logdet == pytest.approx(3 * math.log(EIGENVALUE_FLOOR))


def test_space_stats_rotation_and_scaling():
    z = stream_rng(45, 0).normal(size=(60, 4))
    q, _ = np.linalg.qr(stream_rng(45, 1).normal(size=(4, 4)))
    base = space_stats(z)
    rotated = space_stats(z @ q)
    assert rotated.trace == pytest.approx(base.trace, abs=1e-9)
    scaled = space_stats(2.0 * z)
    assert scaled.trace == pytest.approx(4.0 * base.trace, rel=1e-12)


# ---------------------------------------------------------------------------
# nearest decode


def test_decode_exact_bank_row():
    bank = make_caption_bank(stream_rng(46, 0), 20, 6)
    assert nearest_decode(bank[13], bank) == 13


def test_decode_tie_takes_lower_id():
    bank = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.1]])
    z = np.array([1.0, 1.0])  # equal angle to rows 0 and 1
    assert nearest_decode(z, bank[:2]) == 0


def test_decode_matches_loop_oracle():
    rng = stream_rng(46, 1)
    for _ in range(25):
        bank = rng.normal(size=(int(rng.integers(2, 40)), 5))
        z = rng.normal(size=5)
        sims = [
            float(z @ row / (np.linalg.norm(z) * np.linalg.norm(row))) for row in bank
        ]
        best = max(range(len(sims)), key=lambda j: (sims[j], -j))
        assert nearest_decode(z, bank) == best


def test_decode_rejects_zero_query():
    with pytest.raises(ValueError):
        nearest_decode(np.zeros(3), np.eye(3))


def test_decode_many_matches_row_wise_decode():
    rng = stream_rng(46, 2)
    bank = rng.normal(size=(30, 5))
    bank[7] = bank[2]  # duplicate rows: the lower id must win
    bank[29] = 4.0 * bank[2]  # same direction, larger norm: still a cosine tie
    queries = np.vstack([rng.normal(size=(2 * TILE_ROWS + 3, 5)), bank[[2, 7, 29]]])
    got = nearest_decode_many(queries, bank)
    assert got.tolist() == [nearest_decode(z, bank) for z in queries]
    assert got[-3:].tolist() == [2, 2, 2]


def test_decode_many_rejects_zero_norm_rows():
    bank = np.eye(3)
    queries = np.ones((4, 3))
    queries[2] = 0.0
    with pytest.raises(ValueError, match="zero-norm embedding"):
        nearest_decode_many(queries, bank)
    bank[1] = 0.0
    with pytest.raises(ValueError, match="zero-norm row"):
        nearest_decode_many(np.ones((4, 3)), bank)
    with pytest.raises(ValueError, match="incompatible"):
        nearest_decode_many(np.ones((4, 2)), np.eye(3))


# ---------------------------------------------------------------------------
# round trip


def _unique_id_setup(n=40, bank_size=64, d=8, seed=47):
    bank = make_caption_bank(stream_rng(seed, 0), bank_size, d)
    ids = stream_rng(seed, 1).permutation(bank_size)[:n]
    return bank, ids


def test_roundtrip_fixed_point():
    bank, ids = _unique_id_setup()
    report = roundtrip_retrieval(bank[ids], bank, ids)
    assert report.decode_accuracy == 1.0
    for group in ("gold", "decoded"):
        assert report.groups[group].recall_at[1] == 1.0
        assert report.groups[group].mrr == 1.0
        assert report.groups[group].mean_cosine == pytest.approx(1.0)
        assert report.groups[group].mean_distance == pytest.approx(0.0, abs=1e-12)


def test_roundtrip_noise_degrades_recall():
    bank, ids = _unique_id_setup(n=60, bank_size=96, d=8)
    zt = bank[ids]
    noisy = zt + stream_rng(47, 2).normal(size=zt.shape) * 0.6
    clean = roundtrip_retrieval(zt, bank, ids)
    degraded = roundtrip_retrieval(noisy, bank, ids)
    assert degraded.groups["gold"].recall_at[1] < clean.groups["gold"].recall_at[1]
    assert degraded.decode_accuracy < 1.0


def _assert_roundtrip_equals_reference(zv, bank, ids):
    """Every report field and the decoded ids equal the two-group reference."""
    got = roundtrip_retrieval(zv, bank, ids)
    want = oracles.roundtrip(zv, bank, ids)
    assert roundtrip_report_to_dict(got) == roundtrip_report_to_dict(want)
    assert got.decoded_ids.tolist() == want.decoded_ids.tolist()
    return got.decode_accuracy


@pytest.mark.parametrize("case", ["all", "none", "mixed"])
def test_roundtrip_equals_reference_by_decode_accuracy(case):
    rng = stream_rng(56, 0)
    bank = make_caption_bank(rng, 64, 6)
    ids = rng.integers(0, 64, size=70)
    zv = {
        "all": bank[ids],
        "none": bank[(ids + 1) % 64],
        "mixed": bank[ids] + 0.3 * rng.normal(size=(70, 6)),
    }[case]
    accuracy = _assert_roundtrip_equals_reference(zv, bank, ids)
    assert {"all": accuracy == 1.0, "none": accuracy == 0.0, "mixed": 0.0 < accuracy < 1.0}[case]


@pytest.mark.usefixtures("sixteen_row_tiles")
@pytest.mark.parametrize("n", TILE_EDGE_NS)
def test_roundtrip_equals_reference_across_tile_edges(n):
    rng = stream_rng(56, 1, n)
    bank = make_caption_bank(rng, 12, 5)
    ids = rng.integers(0, 12, size=n)
    _assert_roundtrip_equals_reference(bank[ids] + 0.3 * rng.normal(size=(n, 5)), bank, ids)


def test_roundtrip_equals_reference_with_tied_similarities():
    # Equal embedding rows meet every caption at equal cosines, so the id
    # rule orders them, in the gold and the decoded group alike.
    rng = stream_rng(56, 2)
    bank = make_caption_bank(rng, 16, 5)
    ids = rng.integers(0, 16, size=45)
    zv = bank[ids] + 0.3 * rng.normal(size=(45, 5))
    zv[[10, 20, 44]] = zv[3]
    zv[30] = zv[31]
    accuracy = _assert_roundtrip_equals_reference(zv, bank, ids)
    assert 0.0 < accuracy < 1.0


def test_roundtrip_rejects_out_of_range_ids():
    bank, ids = _unique_id_setup()
    bad = ids.copy()
    bad[0] = bank.shape[0]
    with pytest.raises(ValueError):
        roundtrip_retrieval(bank[ids], bank, bad)


# ---------------------------------------------------------------------------
# drift export


def test_drift_export_columns(tmp_path):
    rng = stream_rng(48, 0)
    zv = rng.normal(size=(6, 4))
    z_gold = rng.normal(size=(6, 4))
    path = tmp_path / "drift.csv"
    drift_export(zv, z_gold, z_gold.copy(), path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    for i, row in enumerate(rows):
        assert float(row["cos_gold"]) == float(row["cos_decoded"])
        ref = float(zv[i] @ z_gold[i] / (np.linalg.norm(zv[i]) * np.linalg.norm(z_gold[i])))
        assert float(row["cos_gold"]) == pytest.approx(ref, abs=1e-12)
        assert float(row["dist_gold"]) == pytest.approx(
            float(np.linalg.norm(zv[i] - z_gold[i])), abs=1e-12
        )


def test_drift_export_writes_what_csv_writer_writes(tmp_path):
    rng = stream_rng(48, 1)
    zv = rng.normal(size=(9, 4))
    z_gold = rng.normal(size=(9, 4))
    z_gold[2] = zv[2]
    path = tmp_path / "drift.csv"
    drift_export(zv, z_gold, -z_gold, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    assert path.read_bytes() == buffer.getvalue().encode()
    assert rows[3][2] == "0.0" and len(rows) == 10


def test_drift_export_shape_mismatch(tmp_path):
    with pytest.raises(ValueError):
        drift_export(np.ones((3, 2)), np.ones((3, 2)), np.ones((4, 2)), tmp_path / "x.csv")


# ---------------------------------------------------------------------------
# full report and schema


def test_space_report_fields_and_schema():
    jsonschema = pytest.importorskip("jsonschema")
    bank, ids = _unique_id_setup(n=30, bank_size=48, d=6, seed=49)
    zt = bank[ids]
    zv = zt + stream_rng(49, 2).normal(size=zt.shape) * 0.05
    report = build_space_report(zv, zt, bank, ids, config={"seed": 49})
    assert report.recall_at[1] <= report.recall_at[5] <= report.recall_at[10]
    assert 0.0 < report.mrr <= 1.0
    roundtrip = roundtrip_retrieval(zv, bank, ids)
    doc = {
        "space": space_report_to_dict(report),
        "roundtrip": roundtrip_report_to_dict(roundtrip),
    }
    schema_path = Path(conceptspace.__file__).parent / "schemas" / "space_report.schema.json"
    jsonschema.validate(doc, json.loads(schema_path.read_text()))
    round_tripped = json.loads(json.dumps(doc, sort_keys=True))
    assert round_tripped == doc


def test_space_report_near_perfect_alignment_scores():
    bank, ids = _unique_id_setup(n=25, bank_size=40, d=6, seed=50)
    zt = bank[ids]
    report = build_space_report(zt, zt, bank, ids)
    assert report.recall_at[1] == 1.0
    assert report.ac == pytest.approx(1.0)
    assert report.ac_intra == pytest.approx(1.0)
    assert report.v_trace == pytest.approx(report.t_trace)
