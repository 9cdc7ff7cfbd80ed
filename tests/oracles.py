"""Reference implementations the tests compare the toolkit against.

None of these runs in a command: the toolkit computes similarities in batches
(`spaceval.similarity_matrix`), softmax inside the attention core,
learned-query pooling in closed form (`projector.attention_pool`), the
sampler's denoiser input layer split into a per-call table and a per-level
product (`latentdiff.condition`), and keeps parameters as dicts. The tests use
these plain forms as oracles, flatten a parameter dict into the one vector
that `grad_check` perturbs, and check every hand-written backward pass against
`grad_check`'s central finite differences.
Their own tests are in test_numerics.py.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from conceptspace.attention import attention_backward, attention_forward, fold_rows
from conceptspace.projector import sinusoidal_features


def softmax(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along `axis` (max-shifted)."""
    v = np.asarray(v, dtype=np.float64)
    shifted = v - np.max(v, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm vector")
    # Clamp: roundoff can push |cos| a few ulp past 1 for near-parallel inputs.
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def denoise_concat(params: dict[str, np.ndarray], cfg, xt: np.ndarray, t: int, c: np.ndarray,
                   conditioned: bool, schedule) -> np.ndarray:
    """The two-tower denoiser on its concatenated input [x_t, sincos(log_snr_t), c].

    `xt` is (concept_dim,) and `c` is (ctx_width,); leading axes, the same on
    both, are a batch of rows. With conditioned=False the learned null context
    replaces `c`.
    """
    xt = np.asarray(xt, dtype=np.float64)
    if not 0 <= t < schedule.steps:
        raise ValueError(f"t={t} outside schedule with {schedule.steps} levels")
    c = np.asarray(c, dtype=np.float64) if conditioned else np.broadcast_to(
        params["null_ctx"], (*xt.shape[:-1], cfg.ctx_width))
    lam = sinusoidal_features(np.full(xt.shape[:-1], schedule.log_snr[t]), cfg.lambda_emb_dim)
    h = np.concatenate([xt, lam, c], axis=-1) @ params["den.in_w"].T + params["den.in_b"]
    for k in range(cfg.den_depth):
        h = h + np.maximum(h @ params[f"den.b{k}.w"].T + params[f"den.b{k}.b"], 0.0)
    return h @ params["den.out_w"].T + params["den.out_b"]


def attention_pool(
    params: dict[str, np.ndarray], heads: int, hidden: np.ndarray, g_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Learned-query pooling through the general attention core.

    The `cls` vector is the one query row of every sample. Returns the
    (..., E) pooled rows, the gradient for `hidden` given `g_out`, and the
    `cls`/`pool.*` gradients summed over the leading axes.
    """
    weights = [params[f"pool.{w}"] for w in ("wq", "wk", "wv", "wo")]
    cls = np.broadcast_to(params["cls"], (*hidden.shape[:-2], 1, hidden.shape[-1]))
    out, cache = attention_forward(cls, hidden, *weights, heads)
    g_cls, g_hidden, g_wq, g_wk, g_wv, g_wo = attention_backward(cache, g_out[..., None, :])
    grads = {"cls": fold_rows(g_cls).sum(axis=0), "pool.wq": g_wq, "pool.wk": g_wk,
             "pool.wv": g_wv, "pool.wo": g_wo}
    return out[..., 0, :], g_hidden, grads


def flatten_tensors(tensors: dict[str, np.ndarray], order: Iterable[str]) -> np.ndarray:
    """Concatenate named arrays into one flat vector in the given key order."""
    return np.concatenate([np.asarray(tensors[k], dtype=np.float64).ravel() for k in order])


def unflatten_tensors(
    vec: np.ndarray, shapes: dict[str, tuple[int, ...]], order: Iterable[str]
) -> dict[str, np.ndarray]:
    """Inverse of flatten_tensors for the same key order and shapes."""
    out: dict[str, np.ndarray] = {}
    pos = 0
    for k in order:
        size = int(np.prod(shapes[k], dtype=np.int64)) if shapes[k] else 1
        out[k] = np.asarray(vec[pos : pos + size], dtype=np.float64).reshape(shapes[k])
        pos += size
    if pos != vec.size:
        raise ValueError(f"vector length {vec.size} does not match shapes (consumed {pos})")
    return out


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
