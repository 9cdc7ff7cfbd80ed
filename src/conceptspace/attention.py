"""Residual multi-head self-attention with a hand-derived backward pass.

One core serves two call sites, each a residual self-attention block: the
bidirectional block over frame rows in the projector, and the causal blocks
inside the next-embedding contextualizer. It returns `x + attention(x)`, so
the callers keep no residual of their own; the projector's single-query
pooling has its own closed form. Forward caches every intermediate the
backward needs; dropout (applied to the attention weights after the row
softmax) records its mask so backward replays it exactly.

Row convention throughout: inputs are (..., T, E) with linear maps applied on
the right, e.g. Q = X @ Wq; any leading axes are a batch that rides along.

Inside the core everything is head-major: the projected q, k and v are split
once into (..., H, T, dk) views, so the score, weighting and gradient products
are stacked matrix products (``@``) that numpy hands to BLAS, with the heads as
one more batch axis. Scores, probabilities and the dropout mask are
(..., H, T, T); heads are merged back to (..., T, E) only for the output
projection and the input gradient.

A (B, T, E) call may instead name one query row per item (`last`): keys and
values are still every row, but only that row is queried and returned, so the
query side of every product has one row where it would have T. The
contextualizer's last layer runs this way, since the denoiser reads only the
row after each prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AttentionCache:
    x: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    heads: int
    last: np.ndarray | None  # (B,) query row per item, or None for every row
    xq: np.ndarray  # the query rows: x, or (B, 1, E) with `last`
    q: np.ndarray  # (..., H, T, dk) head-major; T is 1 with `last`
    k: np.ndarray  # (..., H, T, dk) head-major
    v: np.ndarray  # (..., H, T, dk) head-major
    probs: np.ndarray  # (..., H, T, T) post-softmax, pre-dropout; (B, H, 1, T) with `last`
    kept: np.ndarray | None  # dropout keep mask scaled by 1/(1-p), or None
    weights: np.ndarray  # probs * kept, or probs itself without dropout
    concat: np.ndarray  # (..., T, E) input to the output projection


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., T, E) -> head-major (..., H, T, dk), a view."""
    return x.reshape(*x.shape[:-1], heads, x.shape[-1] // heads).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """Head-major (..., H, T, dk) -> (..., T, E)."""
    x = x.swapaxes(-2, -3)
    return x.reshape(*x.shape[:-2], x.shape[-2] * x.shape[-1])


def fold_rows(x: np.ndarray) -> np.ndarray:
    """Fold every leading axis into rows so weight gradients sum over them."""
    return x.reshape(-1, x.shape[-1])


def attention_forward(
    x: np.ndarray,
    wq: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    wo: np.ndarray,
    heads: int,
    causal: bool = False,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
    last: np.ndarray | None = None,
) -> tuple[np.ndarray, AttentionCache]:
    """The residual block `x + attention(x)` over the rows of x, (..., T, E).

    Returns the (..., T, E) output and a cache sufficient for
    attention_backward. With `last`, a (B,) row index into a (B, T, E) x,
    row last[b] of item b is the only query, and the output is those rows,
    (B, E); the causal mask then hides the keys after that row.
    """
    e = x.shape[-1]
    if e % heads != 0:
        raise ValueError(f"model width {e} not divisible by heads {heads}")
    dk = e // heads
    scale = 1.0 / np.sqrt(dk)

    if last is None:
        xq = x
    else:
        if x.ndim != 3 or np.shape(last) != x.shape[:1]:
            raise ValueError(f"one query row per item needs a (B, T, E) input and (B,) "
                             f"rows, got {x.shape} and {np.shape(last)}")
        xq = x[np.arange(x.shape[0]), last][:, None]
    q = _split_heads(xq @ wq, heads)
    k = _split_heads(x @ wk, heads)
    v = _split_heads(x @ wv, heads)

    scores = (q @ k.swapaxes(-1, -2)) * scale
    if causal:
        t = scores.shape[-1]
        query_row = np.arange(t)[:, None] if last is None else last[:, None, None, None]
        scores = np.where(np.arange(t) > query_row, -np.inf, scores)
    # The row max slice by slice: a reduction over a short last axis costs
    # several times more, and max is order-free, so the result is the same.
    row_max = scores[..., 0].copy()
    for j in range(1, scores.shape[-1]):
        np.maximum(row_max, scores[..., j], out=row_max)
    shifted = scores - row_max[..., None]
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=-1, keepdims=True)

    kept = None
    weights = probs
    if training and dropout_p > 0.0:
        if rng is None:
            raise ValueError("dropout in training mode needs an rng")
        # One draw over the whole batch consumes the stream in the same order
        # as one (H, T, T) draw per sample.
        keep = rng.random(probs.shape) >= dropout_p
        kept = keep / (1.0 - dropout_p)
        weights = probs * kept

    concat = _merge_heads(weights @ v)
    out = xq + concat @ wo
    cache = AttentionCache(
        x=x, wq=wq, wk=wk, wv=wv, wo=wo, heads=heads, last=last, xq=xq,
        q=q, k=k, v=v, probs=probs, kept=kept, weights=weights, concat=concat,
    )
    return (out if last is None else out[:, 0]), cache


def attention_backward(
    cache: AttentionCache, g_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of a scalar loss through attention_forward.

    Returns (g_x, g_wq, g_wk, g_wv, g_wo); g_x has the input's shape, residual
    path included, and the weight gradients are summed over the leading axes.
    With `last`, g_out is (B, E) and only the query rows get the residual and
    query-projection terms of g_x.
    """
    e = cache.concat.shape[-1]
    heads = cache.heads
    dk = e // heads
    scale = 1.0 / np.sqrt(dk)
    if cache.last is not None:
        g_out = g_out[:, None]

    g_wo = fold_rows(cache.concat).T @ fold_rows(g_out)
    g_concat = g_out @ cache.wo.T
    g_per_head = _split_heads(g_concat, heads)

    g_weights = g_per_head @ cache.v.swapaxes(-1, -2)
    g_v = cache.weights.swapaxes(-1, -2) @ g_per_head
    if cache.kept is not None:
        g_probs = g_weights * cache.kept
    else:
        g_probs = g_weights

    # Row-wise softmax Jacobian: dS = P * (dP - sum(dP * P)).
    inner = (g_probs * cache.probs).sum(axis=-1, keepdims=True)
    g_scores = cache.probs * (g_probs - inner)

    g_q_full = _merge_heads((g_scores @ cache.k) * scale)
    g_k_full = _merge_heads((g_scores.swapaxes(-1, -2) @ cache.q) * scale)
    g_v_full = _merge_heads(g_v)

    g_wq = fold_rows(cache.xq).T @ fold_rows(g_q_full)
    g_wk = fold_rows(cache.x).T @ fold_rows(g_k_full)
    g_wv = fold_rows(cache.x).T @ fold_rows(g_v_full)
    # x feeds the residual and all three projections. The order of this sum,
    # (query terms) + (key and value terms), fixes the gradient's last bits,
    # and with them every trained byte.
    g_kv = g_k_full @ cache.wk.T + g_v_full @ cache.wv.T
    g_query = g_out + g_q_full @ cache.wq.T
    if cache.last is None:
        return g_query + g_kv, g_wq, g_wk, g_wv, g_wo
    rows = (np.arange(g_kv.shape[0]), cache.last)
    g_kv[rows] = g_query[:, 0] + g_kv[rows]
    return g_kv, g_wq, g_wk, g_wv, g_wo
