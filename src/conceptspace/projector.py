"""Trainable projector from per-frame features to the text concept space.

Pipeline per frame stack: optional square adapter on the raw frame features,
additive sinusoidal position codes, an optional residual block of temporal
multi-head self-attention (no layer norm), a pooling step (learned-query
attention, mean, or max) and a final linear map into concept space. A model
holds only the tensors its config reads (`layout`). Forward returns a trace
holding every intermediate; the backward pass consumes the trace and produces
analytic gradients for all parameters (none for the input frames, which are
data).

Learned-query pooling has one query, the `cls` vector, shared by every sample,
so it runs in closed form (`attention_pool`) with no key or value projection
of the frames.

The adapter is initialized to the identity: it stands in for fine-tuning an
upstream frozen encoder, so at init it must pass features through unchanged.
All other weights start near zero (Gaussian, configurable sigma) with zero
biases, which makes the initial projector output vanishingly small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .attention import AttentionCache, attention_backward, attention_forward, fold_rows
from .optim import flat_copy

POOLING_MODES = ("attention", "mean", "max")


@dataclass(frozen=True)
class ProjectorConfig:
    frame_dim: int
    concept_dim: int
    heads: int = 8
    dropout_p: float = 0.1
    pooling: str = "attention"
    init_sigma: float = 1e-5
    use_adapter: bool = True
    use_temporal_attention: bool = True

    def __post_init__(self):
        for name in ("frame_dim", "concept_dim", "heads"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.frame_dim % self.heads != 0:
            raise ValueError(
                f"frame_dim {self.frame_dim} must be divisible by heads {self.heads}"
            )
        if self.frame_dim % 2 != 0:
            raise ValueError(
                f"frame_dim must be even for interleaved sin/cos codes, got {self.frame_dim}"
            )
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.pooling not in POOLING_MODES:
            raise ValueError(f"pooling must be one of {POOLING_MODES}, got {self.pooling!r}")
        if self.init_sigma < 0:
            raise ValueError("init_sigma must be >= 0")


# Adapter is listed first so freeze/unfreeze logic can address it by name.
ADAPTER_KEY = "adapter"


def layout(cfg: ProjectorConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of each tensor the config reads, in init and checkpoint order.

    `attn.*` only with temporal attention, `cls` and `pool.*` only with
    attention pooling; `adapter`, if any, comes first and `out.*` last.
    """
    d_f, d_c = cfg.frame_dim, cfg.concept_dim
    shapes = {ADAPTER_KEY: (d_f, d_f)} if cfg.use_adapter else {}
    if cfg.use_temporal_attention:
        shapes |= {f"attn.{w}": (d_f, d_f) for w in ("wq", "wk", "wv", "wo")}
    if cfg.pooling == "attention":
        shapes["cls"] = (d_f,)
        shapes |= {f"pool.{w}": (d_f, d_f) for w in ("wq", "wk", "wv", "wo")}
    return shapes | {"out.w": (d_c, d_f), "out.b": (d_c,)}


def init_projector(cfg: ProjectorConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Identity adapter, zero output bias, and a Gaussian near-zero draw for
    each other tensor, in layout order.

    The draws are those of the full config (temporal attention and attention
    pooling) in its layout order, and only the tensors of `cfg`'s layout are
    kept, so one seed gives each kept tensor the same values in every
    ablation. The kept tensors are views into one vector.
    """
    full = replace(cfg, pooling="attention", use_temporal_attention=True)
    drawn = {
        name: np.eye(shape[0]) if name == ADAPTER_KEY
        else np.zeros(shape) if name == "out.b"
        else rng.normal(0.0, cfg.init_sigma, shape)
        for name, shape in layout(full).items()
    }
    return flat_copy({name: drawn[name] for name in layout(cfg)})


def sinusoidal_features(x: np.ndarray, dim: int) -> np.ndarray:
    """Interleaved sin/cos features, (..., dim) for values x (...).

    Pair 2i and 2i+1 share the frequency 10000^(-2i/dim). Position codes are
    the features of 0..T-1; the denoiser embeds its log-SNR level the same way.
    """
    if dim % 2 != 0:
        raise ValueError(f"dim must be even for interleaved sin/cos codes, got {dim}")
    inv_freq = np.exp(np.arange(0, dim, 2, dtype=np.float64) * -(math.log(10000.0) / dim))
    angles = np.asarray(x, dtype=np.float64)[..., None] * inv_freq
    out = np.zeros((*angles.shape[:-1], dim))
    out[..., 0::2] = np.sin(angles)
    out[..., 1::2] = np.cos(angles)
    return out


@dataclass
class PoolCache:
    """What attention_pool_backward needs, captured at forward time.

    Leading axes are folded into one batch axis N.
    """

    params: dict[str, np.ndarray]
    hidden: np.ndarray  # (N, T, E) the rows being pooled
    q: np.ndarray  # (H, dk) the query per head, times 1/sqrt(dk)
    a: np.ndarray  # (H, E) score map: scores = hidden @ a.T
    probs: np.ndarray  # (N, T, H) softmax over T
    pooled_in: np.ndarray  # (H, N, E) probs^T @ hidden, head-major
    concat: np.ndarray  # (N, E) input to the output projection


def _head_blocks(w: np.ndarray, heads: int) -> np.ndarray:
    """(E, E) weight -> (H, E, dk) column blocks, one per head."""
    return w.reshape(w.shape[0], heads, -1).swapaxes(0, 1)


def attention_pool(
    params: dict[str, np.ndarray], heads: int, hidden: np.ndarray
) -> tuple[np.ndarray, PoolCache]:
    """Multi-head attention from the learned `cls` query over (..., T, E) rows.

    Returns the (..., E) pooled rows. Per head h the scores are
    `hidden @ A[:, h]` with `A[:, h] = wk_h @ q_h / sqrt(dk)`, the softmax over
    T weights the rows, and their weighted sum goes through `wv_h`; the heads
    then go through `pool.wo` together. No (E, E) product touches a frame
    row, only one row per sample.
    """
    *lead, t, e = hidden.shape
    hidden = hidden.reshape(-1, t, e)
    q = ((params["cls"] @ params["pool.wq"]) * (1.0 / np.sqrt(e // heads))).reshape(heads, -1)
    a = (_head_blocks(params["pool.wk"], heads) @ q[:, :, None])[..., 0]
    scores = (hidden.reshape(-1, e) @ a.T).reshape(-1, t, heads)
    exp = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs = exp / exp.sum(axis=1, keepdims=True)
    pooled_in = (probs.swapaxes(1, 2) @ hidden).swapaxes(0, 1)
    concat = (pooled_in @ _head_blocks(params["pool.wv"], heads)).swapaxes(0, 1).reshape(-1, e)
    cache = PoolCache(params=params, hidden=hidden, q=q, a=a, probs=probs,
                      pooled_in=pooled_in, concat=concat)
    return (concat @ params["pool.wo"]).reshape(*lead, e), cache


def attention_pool_backward(
    cache: PoolCache, g_out: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Gradients through attention_pool: the (..., T, E) hidden gradient and
    the `cls` and `pool.*` gradients, summed over the leading axes."""
    params, hidden, q, probs = cache.params, cache.hidden, cache.q, cache.probs
    n, t, e = hidden.shape
    heads = q.shape[0]
    lead = g_out.shape[:-1]
    g_out = g_out.reshape(n, e)
    g_wo = cache.concat.T @ g_out
    g_concat = (g_out @ params["pool.wo"].T).reshape(n, heads, -1).swapaxes(0, 1)
    wv_heads = _head_blocks(params["pool.wv"], heads)
    g_wv = cache.pooled_in.swapaxes(1, 2) @ g_concat
    g_pooled_in = (g_concat @ wv_heads.swapaxes(1, 2)).swapaxes(0, 1)

    g_probs = hidden @ g_pooled_in.swapaxes(1, 2)
    # Softmax over T (axis 1): dS = P * (dP - sum_T(dP * P)).
    inner = (g_probs * probs).sum(axis=1, keepdims=True)
    g_scores = (probs * (g_probs - inner)).reshape(-1, heads)
    g_hidden = probs @ g_pooled_in
    g_hidden += (g_scores @ cache.a).reshape(n, t, e)

    g_a = g_scores.T @ hidden.reshape(-1, e)
    wk_heads = _head_blocks(params["pool.wk"], heads)
    g_q = (g_a[:, None, :] @ wk_heads).reshape(e) * (1.0 / np.sqrt(e // heads))
    grads = {
        "cls": params["pool.wq"] @ g_q,
        "pool.wq": np.outer(params["cls"], g_q),
        "pool.wk": (g_a.T[:, :, None] * q).reshape(e, e),
        "pool.wv": g_wv.swapaxes(0, 1).reshape(e, e),
        "pool.wo": g_wo,
    }
    return g_hidden.reshape(*lead, t, e), grads


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, captured at forward time."""

    cfg: ProjectorConfig
    frames: np.ndarray
    with_pe: np.ndarray
    attn_cache: AttentionCache | None
    hidden: np.ndarray  # (..., T, frame_dim) after the temporal block
    pool_cache: PoolCache | None
    max_indices: np.ndarray | None  # (..., 1, frame_dim) argmax over frames
    pooled: np.ndarray  # (..., frame_dim)
    params: dict[str, np.ndarray]
    output: np.ndarray  # (..., concept_dim)


def project(
    params: dict[str, np.ndarray],
    cfg: ProjectorConfig,
    frames: np.ndarray,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Map (..., T, frame_dim) frame stacks to (..., concept_dim) embeddings.

    Leading axes are a batch; a single (T, frame_dim) stack gives one
    (concept_dim,) embedding.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim < 2 or frames.shape[-1] != cfg.frame_dim:
        raise ValueError(
            f"frames must be (..., T, {cfg.frame_dim}), got shape {frames.shape}"
        )
    if frames.shape[-2] < 1:
        raise ValueError("need at least one frame")

    adapted = frames @ params[ADAPTER_KEY] if cfg.use_adapter else frames
    with_pe = adapted + sinusoidal_features(np.arange(frames.shape[-2]), cfg.frame_dim)

    attn_cache = None
    if cfg.use_temporal_attention:
        hidden, attn_cache = attention_forward(
            with_pe, params["attn.wq"], params["attn.wk"], params["attn.wv"], params["attn.wo"],
            cfg.heads, dropout_p=cfg.dropout_p, rng=rng, training=training,
        )
    else:
        hidden = with_pe

    pool_cache = None
    max_indices = None
    if cfg.pooling == "attention":
        pooled, pool_cache = attention_pool(params, cfg.heads, hidden)
    elif cfg.pooling == "mean":
        pooled = hidden.mean(axis=-2)
    else:
        max_indices = hidden.argmax(axis=-2)[..., None, :]
        pooled = np.take_along_axis(hidden, max_indices, axis=-2)[..., 0, :]

    output = pooled @ params["out.w"].T + params["out.b"]
    trace = ForwardTrace(
        cfg=cfg, frames=frames, with_pe=with_pe,
        attn_cache=attn_cache, hidden=hidden, pool_cache=pool_cache,
        max_indices=max_indices, pooled=pooled, params=params, output=output,
    )
    return output, trace


def project_backward(trace: ForwardTrace, upstream: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss through project().

    `upstream` is dLoss/dOutput, shaped like the output. Returns gradients
    keyed like the parameter tensors, summed over the batch; the input frames
    get none.
    """
    cfg = trace.cfg
    params = trace.params
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != trace.output.shape:
        raise ValueError(
            f"upstream gradient must have shape {trace.output.shape}, got {upstream.shape}"
        )

    grads: dict[str, np.ndarray] = {}
    grads["out.w"] = fold_rows(upstream).T @ fold_rows(trace.pooled)
    grads["out.b"] = fold_rows(upstream).sum(axis=0)
    g_pooled = upstream @ params["out.w"]

    t = trace.hidden.shape[-2]
    if cfg.pooling == "attention":
        g_hidden, pool_grads = attention_pool_backward(trace.pool_cache, g_pooled)
        grads.update(pool_grads)
    elif cfg.pooling == "mean":
        g_hidden = np.repeat(g_pooled[..., None, :] / t, t, axis=-2)
    else:
        g_hidden = np.zeros_like(trace.hidden)
        np.put_along_axis(g_hidden, trace.max_indices, g_pooled[..., None, :], axis=-2)

    if cfg.use_temporal_attention:
        (g_with_pe, grads["attn.wq"], grads["attn.wk"], grads["attn.wv"],
         grads["attn.wo"]) = attention_backward(trace.attn_cache, g_hidden)
    else:
        g_with_pe = g_hidden

    # Position codes are constant, so the gradient passes through unchanged.
    if cfg.use_adapter:
        grads[ADAPTER_KEY] = fold_rows(trace.frames).T @ fold_rows(g_with_pe)
    return grads
