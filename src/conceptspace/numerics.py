"""Shared numeric substrate: seeded streams, the hold-out split both trainers
use, and small statistics helpers (covariance, log-determinant, average ranks,
Spearman correlation). One rank kernel, rank_rows, ranks rows with one sort of
int64 keys that pack each value's order with its column index, optionally with
a count of equal entries that each value stands for.

All public functions work on float64 numpy arrays and are deterministic given
their inputs (and, where applicable, the generator passed in).
"""

from __future__ import annotations

import numpy as np

# Eigenvalues below this floor are clamped before taking logs so that
# rank-deficient covariance matrices still produce a finite log-determinant.
EIGENVALUE_FLOOR = 1e-12

# The low 63 bits of an int64: the magnitude bits of a float64.
_MAGNITUDE_BITS = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def stream_rng(seed: int, *key: int) -> np.random.Generator:
    """Create an independent, reproducible stream keyed by (seed, *key).

    Used by the trainers so that the randomness consumed at step k does not
    depend on how many draws earlier steps made; this is what makes resuming
    from a checkpoint bit-identical to an uninterrupted run.
    """
    if seed < 0 or any(k < 0 for k in key):
        raise ValueError(f"seed and key parts must be non-negative, got {(seed, *key)}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *key])))


def holdout_split(order: np.ndarray, fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """(held-out, kept) parts of a permutation: round(fraction * n) items held
    out, at least 1 and at most n - 1; a single item serves both sides."""
    n = len(order)
    if n == 1:
        return order, order
    n_val = min(max(1, round(fraction * n)), n - 1)
    return order[:n_val], order[n_val:]


def covariance_matrix(x: np.ndarray) -> np.ndarray:
    """Unbiased (n-1) covariance of the rows of x, symmetrized exactly."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d array of row vectors, got shape {x.shape}")
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 rows for a covariance estimate, got {n}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    return 0.5 * (cov + cov.T)


def logdet_psd(cov: np.ndarray, floor: float = EIGENVALUE_FLOOR) -> float:
    """Log-determinant of a PSD matrix via eigendecomposition.

    Eigenvalues below `floor` are clamped to it, so degenerate directions
    contribute log(floor) instead of -inf.
    """
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {cov.shape}")
    scale = max(1.0, float(np.max(np.abs(cov)))) if cov.size else 1.0
    if cov.size and float(np.max(np.abs(cov - cov.T))) > 1e-8 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    eigvals = np.linalg.eigvalsh(cov)
    return float(np.sum(np.log(np.maximum(eigvals, floor))))


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks along the last axis; each run of equal values gets its mean rank.

    The ranks are multiples of 1/2, so they are exact and match scipy's
    "average" tie method bit for bit. -0.0 and 0.0 tie. Non-finite input is an
    error; the input is never written to.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("average_ranks needs finite input")
    return rank_rows(x)


def rank_rows(x: np.ndarray, counts: np.ndarray | None = None) -> np.ndarray:
    """average_ranks without the finiteness check: +inf ranks above every
    finite value. The input is never written to.

    counts, if given, are non-negative integers broadcastable to x: each value
    stands for that many equal entries, and its rank is its average rank in
    that multiset, which is the count of all values below it plus (the count
    of its run of equal values + 1) / 2. A value with count 0 gets a rank but
    moves no other. counts=None ranks each value once, as average_ranks does.
    The ranks are multiples of 1/2, exact while the counts total below 2^53.

    Each value becomes an int64 key that orders like it, with its low
    b = bit_length(n - 1) bits replaced by its column index, so one np.sort of
    the keys gives each row's permutation, and a row without ties ranks each
    sorted slot by the counts up to it. Only a row where two sorted keys lie
    within 2^b of each other can hold a tie, or two distinct values that the
    index bits put out of order. Such a row takes its sorted values, falls back
    to argsort if they are out of order, and gives each run of equal values its
    mean rank over the counts.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    m = rows.shape[0]
    low = (1 << (n - 1).bit_length()) - 1
    keys = (rows + 0.0).view(np.int64)  # a copy; -0.0 becomes +0.0, so the two tie
    # Flipping the magnitude bits of negatives makes int64 order float order.
    flip = keys >> 63
    flip &= _MAGNITUDE_BITS
    keys ^= flip
    keys &= ~low
    keys |= np.arange(n)
    keys.sort(axis=1)
    # A difference that wraps negative flags its row too, so it never hides one.
    near = np.flatnonzero(np.min(keys[:, 1:] - keys[:, :-1], axis=1, initial=low + 1) <= low)
    # dest[r, j]: flat position of the element in row r's sorted slot j.
    dest = keys
    dest &= low
    dest += np.arange(0, m * n, n)[:, None]
    if counts is None:
        ranks = np.arange(1.0, n + 1.0)
    else:
        weights = np.broadcast_to(np.asarray(counts, dtype=np.float64), x.shape).reshape(m * n)
        # A slot's rank is the count up to and including it, less (its count - 1) / 2.
        w = weights.take(dest)
        ranks = np.cumsum(w, axis=1)
        w *= 0.5
        ranks -= w
        ranks += 0.5
    if near.size:
        k = near.size
        sub = dest[near]
        s = rows.ravel().take(sub)
        bad = np.flatnonzero((s[:, 1:] < s[:, :-1]).any(axis=1))
        if bad.size:
            sub[bad] = np.argsort(rows[near[bad]], axis=1) + near[bad, None] * n
            s[bad] = rows.ravel().take(sub[bad])
            dest[near[bad]] = sub[bad]
        # Each row's first slot starts a run, so no run crosses a row boundary.
        starts = np.ones((k, n), dtype=bool)
        np.not_equal(s[:, 1:], s[:, :-1], out=starts[:, 1:])
        first = np.flatnonzero(starts)
        length = np.diff(first, append=k * n)
        # below[j]: the count of the near rows' first j slots, in slot order.
        if counts is None:
            below = np.arange(k * n + 1.0)
        else:
            below = np.zeros(k * n + 1)
            np.cumsum(weights.take(sub), out=below[1:])
        # Each run's mean rank, counted from the first near row, then shifted
        # to its own row.
        run_below = below[first]
        tied = np.repeat(run_below + 0.5 * (below[first + length] - run_below + 1), length)
        tied = tied.reshape(k, n)
        tied -= below[: k * n : n, None]
        if counts is None:
            ranks = np.tile(ranks, (m, 1))
        ranks[near] = tied
    out = np.empty(m * n)
    out[dest] = ranks
    return out.reshape(x.shape)


def spearman_rank_corr(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation with average ranks for ties."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        raise ValueError("rank correlation undefined for a constant input")
    # Average ranks are multiples of 1/2 with mean (n + 1) / 2, so the centred
    # ranks and their dot products are exact.
    ra, rb = average_ranks(np.stack([a, b])) - (a.shape[0] + 1) / 2
    return float(np.clip(ra @ rb / (np.sqrt(ra @ ra) * np.sqrt(rb @ rb)), -1.0, 1.0))
