"""Shared numeric substrate: seeded streams, the hold-out split both trainers
use, and small statistics helpers (covariance, log-determinant, average ranks,
Spearman correlation).

All public functions work on float64 numpy arrays and are deterministic given
their inputs (and, where applicable, the generator passed in).
"""

from __future__ import annotations

import numpy as np

# Eigenvalues below this floor are clamped before taking logs so that
# rank-deficient covariance matrices still produce a finite log-determinant.
EIGENVALUE_FLOOR = 1e-12


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

    The ranks are multiples of 1/2, so they are exact: they do not depend on the
    order the (unstable) sort leaves equal values in, and they match scipy's
    "average" tie method bit for bit. -0.0 and 0.0 tie. Non-finite input is an
    error.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("average_ranks needs finite input")
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    m = rows.shape[0]
    # Flat positions: row r, sorted slot j holds element dest[r * n + j].
    dest = (np.argsort(rows, axis=1) + np.arange(0, m * n, n)[:, None]).ravel()
    s = rows.ravel().take(dest).reshape(m, n)
    step = s[:, 1:] != s[:, :-1]
    out = np.empty(m * n)
    if step.all():
        out[dest] = np.tile(np.arange(1.0, n + 1.0), m)
        return out.reshape(x.shape)
    # Each row's first slot starts a run, so no run crosses a row boundary.
    starts = np.ones((m, n), dtype=bool)
    starts[:, 1:] = step
    first = np.flatnonzero(starts)
    length = np.diff(first, append=m * n)
    out[dest] = np.repeat(first % n + (length - 1) * 0.5 + 1.0, length)
    return out.reshape(x.shape)


def rank_corr_rows(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Row-wise Pearson correlation of two (rows, n) matrices of ranks.

    Fed with average ranks (``average_ranks(x)``) this is the Spearman
    correlation of each row pair. Average ranks are multiples of 1/2, so the
    centred ranks and their dot products are exact in float64 and the result
    does not depend on the summation order.
    """
    ra = ra - ra.mean(axis=1, keepdims=True)
    rb = rb - rb.mean(axis=1, keepdims=True)
    denom = np.sqrt(np.einsum("ij,ij->i", ra, ra)) * np.sqrt(np.einsum("ij,ij->i", rb, rb))
    return np.clip(np.einsum("ij,ij->i", ra, rb) / denom, -1.0, 1.0)


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
    ranks = average_ranks(np.stack([a, b]))
    return float(rank_corr_rows(ranks[:1], ranks[1:])[0])
