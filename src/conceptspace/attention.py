"""Multi-head scaled dot-product attention with a hand-derived backward pass.

One core serves three call sites: bidirectional self-attention over frame
rows, single-query attention pooling, and causal self-attention inside the
next-embedding contextualizer. Forward caches every intermediate the backward
needs; dropout (applied to the attention weights after the row softmax) records
its mask so backward replays it exactly.

Row convention throughout: inputs are (..., T, E) with linear maps applied on
the right, e.g. Q = Xq @ Wq; any leading axes are a batch that rides along.

Inside the core everything is head-major: the projected q, k and v are split
once into (..., H, T, dk) views, so the score, weighting and gradient products
are stacked matrix products (``@``) that numpy hands to BLAS, with the heads as
one more batch axis. Scores, probabilities and the dropout mask are
(..., H, Tq, Tk); heads are merged back to (..., T, E) only for the output
projection and the input gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AttentionCache:
    xq: np.ndarray
    xkv: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    heads: int
    q: np.ndarray  # (..., H, Tq, dk) head-major
    k: np.ndarray  # (..., H, Tk, dk) head-major
    v: np.ndarray  # (..., H, Tk, dk) head-major
    probs: np.ndarray  # (..., H, Tq, Tk) post-softmax, pre-dropout
    kept: np.ndarray | None  # dropout keep mask scaled by 1/(1-p), or None
    concat: np.ndarray  # (..., Tq, E) input to the output projection


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
    xq: np.ndarray,
    xkv: np.ndarray,
    wq: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    wo: np.ndarray,
    heads: int,
    causal: bool = False,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> tuple[np.ndarray, AttentionCache]:
    """Attend from the rows of xq over the rows of xkv.

    Inputs are (..., Tq, E) and (..., Tk, E) with the same leading axes.
    Returns the (..., Tq, E) output and a cache sufficient for
    attention_backward.
    """
    e = xq.shape[-1]
    if e % heads != 0:
        raise ValueError(f"model width {e} not divisible by heads {heads}")
    if causal and xq.shape[-2] != xkv.shape[-2]:
        raise ValueError("causal masking requires matching query/key lengths")
    dk = e // heads
    scale = 1.0 / np.sqrt(dk)

    q = _split_heads(xq @ wq, heads)
    k = _split_heads(xkv @ wk, heads)
    v = _split_heads(xkv @ wv, heads)

    scores = (q @ k.swapaxes(-1, -2)) * scale
    if causal:
        t = scores.shape[-1]
        mask = np.triu(np.ones((t, t), dtype=bool), k=1)
        scores = np.where(mask, -np.inf, scores)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=-1, keepdims=True)

    kept = None
    weights = probs
    if training and dropout_p > 0.0:
        if rng is None:
            raise ValueError("dropout in training mode needs an rng")
        # One draw over the whole batch consumes the stream in the same order
        # as one (H, Tq, Tk) draw per sample.
        keep = rng.random(probs.shape) >= dropout_p
        kept = keep / (1.0 - dropout_p)
        weights = probs * kept

    concat = _merge_heads(weights @ v)
    out = concat @ wo
    cache = AttentionCache(
        xq=xq, xkv=xkv, wq=wq, wk=wk, wv=wv, wo=wo,
        heads=heads, q=q, k=k, v=v, probs=probs, kept=kept, concat=concat,
    )
    return out, cache


def attention_backward(
    cache: AttentionCache, g_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of a scalar loss through attention_forward.

    Returns (g_xq, g_xkv, g_wq, g_wk, g_wv, g_wo); input gradients keep the
    input shapes and weight gradients are summed over the leading axes. For
    self-attention the caller adds g_xq + g_kv itself.
    """
    e = cache.concat.shape[-1]
    heads = cache.heads
    dk = e // heads
    scale = 1.0 / np.sqrt(dk)

    g_wo = fold_rows(cache.concat).T @ fold_rows(g_out)
    g_concat = g_out @ cache.wo.T
    g_per_head = _split_heads(g_concat, heads)

    weights = cache.probs if cache.kept is None else cache.probs * cache.kept
    g_weights = g_per_head @ cache.v.swapaxes(-1, -2)
    g_v = weights.swapaxes(-1, -2) @ g_per_head
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
    g_wk = fold_rows(cache.xkv).T @ fold_rows(g_k_full)
    g_wv = fold_rows(cache.xkv).T @ fold_rows(g_v_full)
    g_xq = g_q_full @ cache.wq.T
    g_xkv = g_k_full @ cache.wk.T + g_v_full @ cache.wv.T
    return g_xq, g_xkv, g_wq, g_wk, g_wv, g_wo
