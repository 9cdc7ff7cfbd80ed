"""Embedding-space evaluation: retrieval, consistency, spread, and round trips.

All metrics are defined over cosine similarity. Ranking ties are broken by
ascending target id so every metric is deterministic. Alignment consistency
correlates, per query, two similarity profiles over the target bank and
averages the rank correlations; three variants are exported (see
alignment_consistency). Each profile is ranked with numerics.rank_rows, whose
average ranks for ties are exact, and every correlation comes from exact sums
of the centred ranks, so the results do not depend on sort or summation order.
Where target rows repeat, the profiles over the targets are ranked over the
distinct rows with their counts, and the query rows are walked in target-class
order: a profile whose rows are targets is ranked once per class in a tile,
and each other row of the class takes those ranks with an exact adjustment for
its own entry. The round trip ranks a decoded caption only where it differs
from the item's gold caption, and keeps each item's cosine and distance to
both captions, which the drift export writes as they are. Spread statistics
summarize a set by the trace and log-determinant of its unbiased covariance
plus the mean row norm. A report serializes as its compared fields, so the
per-item arrays stay out of report.json.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .numerics import covariance_matrix, logdet_psd, rank_rows
from .records import write_csv

AC_MODES = ("cross", "intra")
RECALL_KS = (1, 5, 10)

# The quadratic metrics work on tiles of about TILE_ENTRIES similarities, and
# at least TILE_ROWS query rows, so their memory grows with the tile rather
# than with n * n. Chosen by `eval` at n = 1000 (1 BLAS thread), where a
# consistency tile has 16, 32 or 64 rows for 16384, 32768 or 64000 entries: a
# call took 103, 84 and 80 ms (medians of 10 interleaved blocks in one
# process), and a 40 s bench run peaked at 52.7-52.9, 53.5-54.4 and
# 55.6-55.7 MB (3 runs each).
TILE_ENTRIES = 32768
TILE_ROWS = 16


def _tiles(rows: int, columns: int) -> list[slice]:
    """Slices of rows into tiles of max(TILE_ROWS, TILE_ENTRIES // columns)
    rows. A last tile of one row joins the tile before it: numpy multiplies a
    single row through gemv, which may round differently from a gemm row, and
    a row's similarities must not depend on the tile it lands in."""
    size = max(TILE_ROWS, TILE_ENTRIES // max(columns, 1))
    starts = list(range(0, rows, size))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], rows])]


def _unit_rows(x: np.ndarray, side: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"{side} must be a 2-d matrix, got shape {x.shape}")
    norms = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise ValueError(f"zero-norm {side} row at index {int(bad[0])}")
    return x / norms[:, None]


@dataclass(frozen=True)
class SimilarityMatrix:
    values: np.ndarray  # (n_queries, n_targets) cosine similarities
    query_ids: tuple[int, ...]
    target_ids: tuple[int, ...]


def similarity_matrix(
    queries: np.ndarray,
    targets: np.ndarray,
    query_ids: list[int] | None = None,
    target_ids: list[int] | None = None,
) -> SimilarityMatrix:
    """All pairwise cosine similarities between query rows and target rows."""
    uq = _unit_rows(queries, "query")
    ut = _unit_rows(targets, "target")
    if uq.shape[1] != ut.shape[1]:
        raise ValueError(
            f"dimension mismatch: queries {uq.shape[1]} vs targets {ut.shape[1]}"
        )
    values = np.clip(uq @ ut.T, -1.0, 1.0)
    q_ids = tuple(range(uq.shape[0])) if query_ids is None else tuple(int(i) for i in query_ids)
    t_ids = tuple(range(ut.shape[0])) if target_ids is None else tuple(int(i) for i in target_ids)
    if len(q_ids) != uq.shape[0] or len(t_ids) != ut.shape[0]:
        raise ValueError("id lists must match matrix shape")
    return SimilarityMatrix(values=values, query_ids=q_ids, target_ids=t_ids)


@dataclass(frozen=True)
class RetrievalMetrics:
    recall_at: dict[int, float]
    mrr: float
    ranks: tuple[int, ...]  # 1-based rank of the gold target per query


def _gold_ranks(values: np.ndarray, target_ids: np.ndarray, gold_pos: np.ndarray) -> np.ndarray:
    """1-based rank of each row's gold column in a (rows, targets) tile whose
    target ids are distinct.

    The rank is 1 plus the number of targets that are strictly more similar,
    or equally similar with a smaller id; only a row where another target
    ties the gold one needs the ids.
    """
    g = values[np.arange(values.shape[0]), gold_pos][:, None]
    ranks = 1 + np.count_nonzero(values > g, axis=1)
    tied = np.flatnonzero(np.count_nonzero(values == g, axis=1) > 1)
    if tied.size:
        ahead = (values[tied] == g[tied]) & (target_ids < target_ids[gold_pos[tied], None])
        ranks[tied] += np.count_nonzero(ahead, axis=1)
    return ranks


def _retrieval_from_ranks(ranks: np.ndarray) -> RetrievalMetrics:
    recall = {k: float(np.mean(ranks <= k)) for k in RECALL_KS}
    mrr = float(np.mean(1.0 / ranks))
    return RetrievalMetrics(recall_at=recall, mrr=mrr, ranks=tuple(ranks.tolist()))


def retrieval_metrics(sim: SimilarityMatrix, gold: dict[int, int]) -> RetrievalMetrics:
    """Recall@{1,5,10} and mean reciprocal rank under descending similarity.

    Equal similarities rank in ascending target-id order, so the gold rank is
    1 plus the number of targets that are strictly more similar or equally
    similar with a smaller id. The target ids must be distinct.
    """
    target_pos = {tid: j for j, tid in enumerate(sim.target_ids)}
    if len(target_pos) != len(sim.target_ids):
        repeat = next(tid for j, tid in enumerate(sim.target_ids) if target_pos[tid] != j)
        raise ValueError(f"target ids must be distinct; id {repeat} repeats")
    gold_pos = np.empty(len(sim.query_ids), dtype=np.int64)
    for i, qid in enumerate(sim.query_ids):
        if qid not in gold:
            raise ValueError(f"query id {qid} has no gold target")
        gold_tid = gold[qid]
        if gold_tid not in target_pos:
            raise ValueError(f"gold target id {gold_tid} not among the targets")
        gold_pos[i] = target_pos[gold_tid]
    target_ids = np.asarray(sim.target_ids, dtype=np.int64)
    ranks = np.empty(gold_pos.shape[0], dtype=np.int64)
    for rows in _tiles(ranks.shape[0], target_ids.shape[0]):
        ranks[rows] = _gold_ranks(sim.values[rows], target_ids, gold_pos[rows])
    return _retrieval_from_ranks(ranks)


class AcResult(NamedTuple):
    value: float
    used: int
    skipped: int


def _ac_sides(zv: np.ndarray, zt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    uv = _unit_rows(zv, "vision")
    ut = _unit_rows(zt, "text")
    if uv.shape != ut.shape:
        raise ValueError(f"shape mismatch: {uv.shape} vs {ut.shape}")
    if uv.shape[0] < 3:
        raise ValueError(f"need at least 3 rows, got {uv.shape[0]}")
    if not (np.isfinite(uv).all() and np.isfinite(ut).all()):
        raise ValueError("alignment consistency needs finite embeddings")
    return uv, ut


def _target_classes(ut: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rep, inv, count) over the distinct rows of ut: class c holds the
    count[c] rows equal to row rep[c], and row j is in class inv[j]."""
    n = ut.shape[0]
    # Equal rows have equal first entries, so n distinct first entries mean n
    # classes of one row, found with a sort of n values instead of n rows.
    first = np.sort(ut[:, 0])
    if (first[1:] != first[:-1]).all():
        every = np.arange(n)
        return every, every, np.ones(n, dtype=np.int64)
    # Adding 0.0 turns -0.0 into 0.0, so two rows are equal exactly when their
    # bytes are, and each row sorts as one opaque item.
    rows = np.ascontiguousarray(ut + 0.0).view(np.dtype((np.void, ut.itemsize * ut.shape[1])))
    _, rep, inv, count = np.unique(
        rows.reshape(-1), return_index=True, return_inverse=True, return_counts=True
    )
    return rep, inv, count


def _spread(classes: np.ndarray, inv: np.ndarray, diag: np.ndarray, half: float) -> np.ndarray:
    """Centred class ranks back in columns, with row r's own entry, diag[r], at n/2."""
    full = np.take(classes, inv, axis=1)
    full[np.arange(diag.size), diag] = half
    return full


def _consistency(
    uv: np.ndarray, ut: np.ndarray, pairs: list[tuple[str, str]]
) -> list[AcResult]:
    """Alignment consistency of each (a, b) pair of similarity profiles.

    A profile name "xy" over the sides "v" (uv) and "t" (ut) stands for the
    off-diagonal rows of x @ y.T, e.g. "vt" for uv @ ut.T. Each tile of query
    rows computes and ranks every distinct profile once, however many pairs
    share it. Per-row correlations are kept by row and added up in row order
    at the end, so the result does not depend on the tiles or the row order.

    A tile row is ranked whole with its diagonal entry set to +inf, which
    ranks n and leaves every other rank as it is without it. Centred at n/2,
    the off-diagonal mean, that entry is n/2, so a sum of products over the
    n - 1 off-diagonal entries is the row's sum less (n/2)^2. The centred
    ranks are multiples of 1/2 and every such sum is exact, so each value is,
    bit for bit, the Pearson correlation of the off-diagonal ranks alone.

    When some target rows repeat, as targets drawn from a caption bank do, a
    profile whose columns are targets ("vt", "tt") is ranked over the k
    distinct target rows instead: numerics.rank_rows with counts, where a class
    of equal rows counts as many entries as it has columns, less the row's
    own entry. The classes are only a hint. A row is ranked this way only if
    each of its entries compares equal (==) to its class's entry at the
    class's first row. Ranks see nothing but those comparisons, so its ranks
    are exact; -0.0 and 0.0 pass as equal, and they tie. Any other row is
    ranked whole, as above. Two such rows correlate from class sums,
    sum_c count_c a_c b_c, which are the same exact sums over the
    off-diagonal entries; class ranks go back to n columns only for a pair
    with a profile over "v".

    With repeated targets the query rows are also walked in class order, so
    the rows of a profile over "t" ("tt", "tv") repeat within a tile. The
    first row of each class in a tile is ranked, and every other row of the
    class whose tile row compares equal to it takes its ranks; a row that
    differs is ranked itself. "tt" rows take the class ranks, which hold no
    own entry. "tv" rows are ranked over all n columns with the own entry in
    place, giving base ranks b; row i then moves its own entry x_i to +inf,
    which lowers the rank of each entry above x_i by 1 and of each other
    entry equal to x_i by 1/2, so its ranks are b - [x > x_i] - [x == x_i]/2
    with n at its own entry. All of these are multiples of 1/2, so exact.
    """
    n = uv.shape[0]
    half = n / 2
    diagonal = half * half
    sides = {"v": uv, "t": ut}
    names = sorted({name for pair in pairs for name in pair})
    # Transposed copies keep a one-tile "xx" product off BLAS's symmetric path,
    # whose mirrored half can split the tie between two identical rows.
    columns = {side: np.ascontiguousarray(u.T) for side, u in sides.items()}
    rep, inv, count = _target_classes(ut)
    # With no repeated target row the classes are the columns themselves.
    repeats = rep.size < n
    grouped = {name for name in names if name[1] == "t"} if repeats else set()
    walked = {name for name in names if name[0] == "t"} if repeats else set()
    # Profiles that some pair correlates over all n columns.
    in_columns = {name for pair in pairs if not set(pair) <= grouped for name in pair}
    count = count.astype(np.float64)
    order = np.argsort(inv, kind="stable") if walked else np.arange(n)
    corr = np.zeros((len(pairs), n))
    kept = np.zeros((len(pairs), n), dtype=bool)
    for tile in _tiles(n, n):
        diag = order[tile]
        own = np.arange(diag.size)
        if walked:
            # lead[r]: the tile row where row r's class starts.
            starts = np.flatnonzero(np.diff(inv[diag], prepend=-1))
            lead = np.repeat(starts, np.diff(starts, append=own.size))
        if grouped:
            # Each row's class counts, without the row's own entry.
            weight = np.tile(count, (own.size, 1))
            weight[own, inv[diag]] -= 1.0
        centred, squares, classes, weighted, hit = {}, {}, {}, {}, {}
        for name in names:
            x = sides[name[0]][diag] @ columns[name[1]]
            rows, take = x, None
            if name in walked:
                # A row equal to its lead takes the lead's ranks; the others
                # are ranked, and take[r] is row r's place among them.
                src = np.where((x == x[lead]).all(axis=1), lead, own)
                alone = src == own
                rows, take = x[alone], (np.cumsum(alone) - 1)[src]
            whole = own
            if name in grouped:
                values = rows[:, rep]
                h = (np.take(values, inv, axis=1) == rows).all(axis=1)
                a = rank_rows(values, weight if take is None else weight[alone])
                a -= half
                if take is not None:
                    a, h = a[take], h[take]
                classes[name], weighted[name], hit[name] = a, weight * a, h
                squares[name] = np.einsum("ij,ij->i", weighted[name], a)
                whole = np.flatnonzero(~h)
                # Back over n columns only for a pair or a row that needs them.
                needed = name in in_columns or whole.size
                centred[name] = _spread(a, inv, diag, half) if needed else None
                if not whole.size:
                    continue
            elif take is not None:
                # Base ranks with the own entry in place, then moved to +inf.
                c = rank_rows(rows)[take]
                mine = x[own, diag][:, None]
                c -= x > mine
                c -= 0.5 * (x == mine)
                c -= half
                c[own, diag] = half
                centred[name] = c
                squares[name] = np.einsum("ij,ij->i", c, c) - diagonal
                continue
            x[whole, diag[whole]] = np.inf
            c = rank_rows(x if whole is own else x[whole])
            c -= half
            # 0 exactly when every off-diagonal entry ties: a constant profile.
            sq = np.einsum("ij,ij->i", c, c) - diagonal
            if whole is own:
                centred[name], squares[name] = c, sq
            else:
                centred[name][whole], squares[name][whole] = c, sq
        for k, (a, b) in enumerate(pairs):
            if {a, b} <= grouped:
                cross = np.einsum("ij,ij->i", weighted[a], classes[b])
                rest = np.flatnonzero(~(hit[a] & hit[b]))
                if rest.size:
                    for name in (a, b):
                        if centred[name] is None:
                            centred[name] = _spread(classes[name], inv, diag, half)
                    both = np.einsum("ij,ij->i", centred[a][rest], centred[b][rest])
                    cross[rest] = both - diagonal
            else:
                cross = np.einsum("ij,ij->i", centred[a], centred[b]) - diagonal
            ok = (squares[a] != 0.0) & (squares[b] != 0.0)
            denom = np.sqrt(squares[a][ok]) * np.sqrt(squares[b][ok])
            corr[k, diag[ok]] = np.clip(cross[ok] / denom, -1.0, 1.0)
            kept[k, diag] = ok
    used = np.count_nonzero(kept, axis=1).tolist()
    if min(used) == 0:
        raise ValueError("every query had a constant similarity profile")
    out = []
    for k, u in enumerate(used):
        total = 0.0
        # One by one in row order: np.sum adds in pairs and rounds otherwise.
        for value in corr[k, kept[k]].tolist():
            total += value
        out.append(AcResult(value=total / u, used=u, skipped=n - u))
    return out


def alignment_consistency(
    zv: np.ndarray, zt: np.ndarray, mode: str = "cross"
) -> AcResult:
    """Mean per-query rank correlation between two similarity profiles.

    mode="cross": for query i, correlate [cos(zv_i, zt_j)]_j with
    [cos(zt_i, zt_j)]_j over j != i -- does the projected embedding rank the
    target bank the way its paired target does?

    mode="intra": correlate [cos(zv_i, zv_j)]_j with [cos(zt_i, zt_j)]_j,
    which measures relational structure only and is invariant to any
    orthogonal transform applied to one side alone.

    Queries whose profiles are constant have no defined rank correlation and
    are skipped; the count comes back in the result.
    """
    if mode not in AC_MODES:
        raise ValueError(f"mode must be one of {AC_MODES}, got {mode!r}")
    uv, ut = _ac_sides(zv, zt)
    a = "vt" if mode == "cross" else "vv"
    return _consistency(uv, ut, [(a, "tt")])[0]


@dataclass(frozen=True)
class SpaceStats:
    trace: float
    logdet: float
    mean_norm: float


def space_stats(z: np.ndarray) -> SpaceStats:
    """Covariance trace, floored log-determinant, and mean row norm of a set."""
    z = np.asarray(z, dtype=np.float64)
    cov = covariance_matrix(z)
    return SpaceStats(
        trace=float(np.trace(cov)),
        logdet=logdet_psd(cov),
        mean_norm=float(np.mean(np.linalg.norm(z, axis=1))),
    )


def nearest_decode_many(Z: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """Bank row index with the highest cosine to each row of Z; ties take the lowest id."""
    Z = np.asarray(Z, dtype=np.float64)
    bank = np.asarray(bank, dtype=np.float64)
    if Z.ndim != 2 or bank.ndim != 2 or bank.shape[1] != Z.shape[1]:
        raise ValueError(f"bank shape {bank.shape} incompatible with query dim {Z.shape[-1]}")
    nz = np.linalg.norm(Z, axis=1)
    if np.any(nz == 0.0):
        raise ValueError("cannot decode a zero-norm embedding")
    norms = np.linalg.norm(bank, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("bank contains a zero-norm row")
    sims = Z @ bank.T / (nz[:, None] * norms)
    # argmax returns the first maximal index, which is the ascending-id rule.
    return np.argmax(sims, axis=1)


def nearest_decode(z: np.ndarray, bank: np.ndarray) -> int:
    """Bank row index with the highest cosine to z; ties take the lowest id."""
    return int(nearest_decode_many(np.asarray(z, dtype=np.float64).reshape(1, -1), bank)[0])


@dataclass(frozen=True)
class GroupStats:
    recall_at: dict[int, float]
    mrr: float
    mean_cosine: float
    mean_distance: float


@dataclass(frozen=True)
class RoundTripReport:
    n: int
    decode_accuracy: float
    groups: dict[str, GroupStats]
    # Per item: the nearest-decoded bank row, and the drift export's columns
    # (each embedding's cosine and distance to its gold and decoded caption,
    # in the export's order). Neither is compared or serialized.
    decoded_ids: np.ndarray = field(compare=False, repr=False)
    drift: dict[str, np.ndarray] = field(compare=False, repr=False)


def _item_ranks(uv: np.ndarray, uc: np.ndarray, items: np.ndarray) -> np.ndarray:
    """1-based rank of embedding items[r] when caption row uc[r] queries every
    embedding; the similarities exist one tile of caption rows at a time."""
    every = np.arange(uv.shape[0])
    ranks = np.empty(items.shape[0], dtype=np.int64)
    for rows in _tiles(ranks.shape[0], uv.shape[0]):
        sims = np.clip(uc[rows] @ uv.T, -1.0, 1.0)
        ranks[rows] = _gold_ranks(sims, every, items[rows])
    return ranks


def roundtrip_retrieval(
    zv: np.ndarray, bank: np.ndarray, gold_ids: np.ndarray
) -> RoundTripReport:
    """Decode each embedding to a caption, then use captions to re-find it.

    Two caption sources are scored: the ground-truth caption of each item and
    the nearest-decoded caption. Each caption row queries the full embedding
    set; its own item is the gold answer. Where an item decodes to its gold
    caption, the two caption rows are the same, so only the other items'
    decoded captions are ranked.
    """
    zv = np.asarray(zv, dtype=np.float64)
    bank = np.asarray(bank, dtype=np.float64)
    gold_ids = np.asarray(gold_ids, dtype=np.int64)
    if zv.shape[0] != gold_ids.shape[0]:
        raise ValueError("need one gold caption id per embedding row")
    if np.any(gold_ids < 0) or np.any(gold_ids >= bank.shape[0]):
        raise ValueError("gold caption id outside the bank")
    decoded_ids = nearest_decode_many(zv, bank)
    accuracy = float(np.mean(decoded_ids == gold_ids))
    uv = _unit_rows(zv, "vision")
    gold, decoded = bank[gold_ids], bank[decoded_ids]
    ug, ud = _unit_rows(gold, "caption"), _unit_rows(decoded, "caption")
    gold_ranks = _item_ranks(uv, ug, np.arange(zv.shape[0]))
    moved = np.flatnonzero(decoded_ids != gold_ids)
    decoded_ranks = gold_ranks.copy()
    decoded_ranks[moved] = _item_ranks(uv, ud[moved], moved)
    drift = {
        "cos_gold": np.sum(uv * ug, axis=1),
        "cos_decoded": np.sum(uv * ud, axis=1),
        "dist_gold": np.linalg.norm(zv - gold, axis=1),
        "dist_decoded": np.linalg.norm(zv - decoded, axis=1),
    }
    groups = {}
    for name, ranks in (("gold", gold_ranks), ("decoded", decoded_ranks)):
        metrics = _retrieval_from_ranks(ranks)
        groups[name] = GroupStats(metrics.recall_at, metrics.mrr,
                                  float(np.mean(drift[f"cos_{name}"])),
                                  float(np.mean(drift[f"dist_{name}"])))
    return RoundTripReport(n=zv.shape[0], decode_accuracy=accuracy, groups=groups,
                           decoded_ids=decoded_ids, drift=drift)


def drift_export(roundtrip: RoundTripReport, path: str | Path) -> None:
    """Per-item cosine and distance of each embedding to both caption sources:
    the round trip's own columns, one row per item."""
    columns = roundtrip.drift
    try:
        write_csv(Path(path), list(columns), zip(*(c.tolist() for c in columns.values())))
    except OSError as exc:
        raise OSError(f"could not write drift export to {path}: {exc}") from exc


@dataclass(frozen=True)
class SpaceReport:
    n: int
    recall_at: dict[int, float]
    mrr: float
    ac: float
    ac_reverse: float
    ac_intra: float
    v_trace: float
    t_trace: float
    v_logdet: float
    t_logdet: float
    v_norm_mean: float
    t_norm_mean: float
    config: dict = field(default_factory=dict)


def build_space_report(
    zv: np.ndarray,
    zt: np.ndarray,
    bank: np.ndarray,
    gold_ids: np.ndarray,
    config: dict | None = None,
) -> SpaceReport:
    """Retrieval against the caption bank plus consistency and spread stats."""
    sim = similarity_matrix(zv, bank)
    gold = {i: int(g) for i, g in enumerate(np.asarray(gold_ids, dtype=np.int64))}
    metrics = retrieval_metrics(sim, gold)
    uv, ut = _ac_sides(zv, zt)
    # alignment_consistency(zv, zt, "cross"), (zt, zv, "cross") and
    # (zv, zt, "intra"), sharing the four distinct profile rankings.
    ac, ac_rev, ac_intra = _consistency(uv, ut, [("vt", "tt"), ("tv", "vv"), ("vv", "tt")])
    sv = space_stats(zv)
    st = space_stats(zt)
    return SpaceReport(
        n=zv.shape[0],
        recall_at=metrics.recall_at,
        mrr=metrics.mrr,
        ac=ac.value,
        ac_reverse=ac_rev.value,
        ac_intra=ac_intra.value,
        v_trace=sv.trace,
        t_trace=st.trace,
        v_logdet=sv.logdet,
        t_logdet=st.logdet,
        v_norm_mean=sv.mean_norm,
        t_norm_mean=st.mean_norm,
        config=dict(config or {}),
    )


def _report_to_dict(value):
    """A SpaceReport or RoundTripReport as JSON values: the compared fields of
    each dataclass (the per-item arrays are left out), and dict keys such as
    the recall cutoffs as strings."""
    if is_dataclass(value):
        return {f.name: _report_to_dict(getattr(value, f.name))
                for f in fields(value) if f.compare}
    if isinstance(value, dict):
        return {str(k): _report_to_dict(v) for k, v in value.items()}
    return value


space_report_to_dict = roundtrip_report_to_dict = _report_to_dict
