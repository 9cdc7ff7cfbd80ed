"""Shared numeric substrate: seeded streams, small statistics helpers, and
the finite-difference oracle used to verify every hand-written backward pass.

All public functions work on float64 numpy arrays and are deterministic given
their inputs (and, where applicable, the generator passed in).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


def gaussian_sample(
    rng: np.random.Generator,
    shape: tuple[int, ...] | int,
    mu: float = 0.0,
    sigma: float = 1.0,
) -> np.ndarray:
    """Draw N(mu, sigma^2) samples; sigma == 0 returns mu exactly."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    return np.asarray(rng.normal(mu, sigma, shape), dtype=np.float64)


@dataclass(frozen=True)
class CovarianceSummary:
    """Unbiased sample covariance together with the mean it was taken around."""

    cov: np.ndarray
    mean: np.ndarray
    n: int


def covariance_matrix(x: np.ndarray) -> CovarianceSummary:
    """Unbiased (n-1) covariance of the rows of x, symmetrized exactly."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d array of row vectors, got shape {x.shape}")
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 rows for a covariance estimate, got {n}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    cov = 0.5 * (cov + cov.T)
    return CovarianceSummary(cov=cov, mean=mean, n=n)


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


def grad_check(
    f: Callable[[np.ndarray], float],
    analytic_grad: np.ndarray,
    point: np.ndarray,
    eps: float = 1e-5,
) -> float:
    """Max relative error between `analytic_grad` and central finite differences.

    The relative error at coordinate i is |g_i - fd_i| / max(1, |g_i|, |fd_i|),
    so tiny gradients are judged on an absolute scale instead of blowing up.
    """
    point = np.asarray(point, dtype=np.float64)
    analytic_grad = np.asarray(analytic_grad, dtype=np.float64)
    if analytic_grad.shape != point.shape:
        raise ValueError(
            f"gradient shape {analytic_grad.shape} does not match point shape {point.shape}"
        )
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not np.isfinite(f(point)):
        raise ValueError("f(point) is not finite")
    worst = 0.0
    flat = point.ravel()
    grad_flat = analytic_grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f(point)
        flat[i] = orig - eps
        f_minus = f(point)
        flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"f is not finite near coordinate {i}")
        fd = (f_plus - f_minus) / (2.0 * eps)
        err = abs(grad_flat[i] - fd) / max(1.0, abs(grad_flat[i]), abs(fd))
        if err > worst:
            worst = err
    return worst
