"""Tests for the shared multi-head attention core.

The backward pass is hand-derived, so every code path gets a finite-difference
check and the forward pass is compared against a literal per-head loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from conceptspace.attention import attention_backward, attention_forward
from conceptspace.numerics import grad_check, softmax, stream_rng


def _weights(dim, rng, scale=0.3):
    return tuple(rng.normal(scale=scale, size=(dim, dim)) for _ in range(4))


def _naive_attention(xq, xkv, wq, wk, wv, wo, heads, causal=False):
    """Literal per-head loop, no vectorization tricks."""
    tq, dim = xq.shape
    tk = xkv.shape[0]
    dk = dim // heads
    q = xq @ wq
    k = xkv @ wk
    v = xkv @ wv
    concat = np.zeros((tq, dim))
    for h in range(heads):
        qh = q[:, h * dk : (h + 1) * dk]
        kh = k[:, h * dk : (h + 1) * dk]
        vh = v[:, h * dk : (h + 1) * dk]
        for i in range(tq):
            scores = np.array([qh[i] @ kh[j] / np.sqrt(dk) for j in range(tk)])
            if causal:
                for j in range(tk):
                    if j > i:
                        scores[j] = -np.inf
            probs = softmax(scores)
            concat[i, h * dk : (h + 1) * dk] = sum(probs[j] * vh[j] for j in range(tk))
    return concat @ wo


def test_forward_matches_naive_loop():
    rng = stream_rng(0, 1)
    x = rng.normal(size=(3, 8))
    w = _weights(8, rng)
    out, _ = attention_forward(x, x, *w, heads=2)
    np.testing.assert_allclose(out, _naive_attention(x, x, *w, heads=2), atol=1e-10)


def test_forward_matches_naive_loop_causal():
    rng = stream_rng(0, 2)
    x = rng.normal(size=(5, 12))
    w = _weights(12, rng)
    out, _ = attention_forward(x, x, *w, heads=3, causal=True)
    np.testing.assert_allclose(
        out, _naive_attention(x, x, *w, heads=3, causal=True), atol=1e-10
    )


def test_cross_attention_single_query():
    # one query row over T keys: probabilities sum to 1 per head
    rng = stream_rng(0, 3)
    xq = rng.normal(size=(1, 8))
    xkv = rng.normal(size=(4, 8))
    out, cache = attention_forward(xq, xkv, *_weights(8, rng), heads=2)
    assert out.shape == (1, 8)
    np.testing.assert_allclose(cache.probs.sum(axis=2), 1.0, atol=1e-12)


def test_single_position_weight_is_one():
    rng = stream_rng(0, 4)
    x = rng.normal(size=(1, 6))
    out, cache = attention_forward(x, x, *_weights(6, rng), heads=1)
    np.testing.assert_allclose(cache.probs, 1.0, atol=1e-15)
    wq, wk, wv, wo = cache.wq, cache.wk, cache.wv, cache.wo
    np.testing.assert_allclose(out, x @ wv @ wo, atol=1e-12)


def test_causal_rows_ignore_the_future():
    rng = stream_rng(0, 5)
    x = rng.normal(size=(6, 8))
    w = _weights(8, rng)
    out, _ = attention_forward(x, x, *w, heads=2, causal=True)
    bumped = x.copy()
    bumped[4] += 10.0
    out2, _ = attention_forward(bumped, bumped, *w, heads=2, causal=True)
    np.testing.assert_allclose(out2[:4], out[:4], atol=1e-12)
    assert np.linalg.norm(out2[4] - out[4]) > 1e-6


def test_permutation_equivariance_without_positions():
    rng = stream_rng(0, 6)
    x = rng.normal(size=(5, 8))
    w = _weights(8, rng)
    perm = np.array([3, 0, 4, 1, 2])
    out, _ = attention_forward(x, x, *w, heads=2)
    out_p, _ = attention_forward(x[perm], x[perm], *w, heads=2)
    np.testing.assert_allclose(out_p, out[perm], atol=1e-10)


def test_dropout_only_in_training_and_uses_inverted_scaling():
    rng = stream_rng(0, 7)
    x = rng.normal(size=(4, 8))
    w = _weights(8, rng)
    eval_out, eval_cache = attention_forward(
        x, x, *w, heads=2, dropout_p=0.5, training=False
    )
    assert eval_cache.kept is None
    ref, _ = attention_forward(x, x, *w, heads=2)
    np.testing.assert_allclose(eval_out, ref, atol=1e-12)

    train_out, cache = attention_forward(
        x, x, *w, heads=2, dropout_p=0.5, rng=stream_rng(9, 0), training=True
    )
    assert cache.kept is not None
    # inverted dropout: surviving cells carry the 1/(1-p) scale in the mask
    assert set(np.unique(cache.kept)) <= {0.0, 2.0}
    assert np.any(cache.kept == 0.0)
    again, _ = attention_forward(
        x, x, *w, heads=2, dropout_p=0.5, rng=stream_rng(9, 0), training=True
    )
    assert np.array_equal(train_out, again)


def test_dropout_rate_matches_probability():
    rng = stream_rng(0, 8)
    x = rng.normal(size=(10, 8))
    w = _weights(8, rng)
    _, cache = attention_forward(
        x, x, *w, heads=4, dropout_p=0.3, rng=stream_rng(1, 0), training=True
    )
    dropped = float(np.mean(cache.kept == 0.0))
    assert abs(dropped - 0.3) < 0.08


def _flat_roundtrip_loss(x, weights, heads, causal=False):
    """Scalar functional with analytic gradients for grad_check."""

    wq, wk, wv, wo = weights
    out, cache = attention_forward(x, x, wq, wk, wv, wo, heads=heads, causal=causal)
    loss = float(np.sum(out * np.sin(np.arange(out.size).reshape(out.shape))))
    g_out = np.sin(np.arange(out.size).reshape(out.shape))
    g_xq, g_xkv, g_wq, g_wk, g_wv, g_wo = attention_backward(cache, g_out)
    return loss, {"x": g_xq + g_xkv, "wq": g_wq, "wk": g_wk, "wv": g_wv, "wo": g_wo}


@pytest.mark.parametrize("causal", [False, True])
def test_backward_matches_finite_differences(causal):
    rng = stream_rng(0, 9 + int(causal))
    x0 = rng.normal(size=(4, 8))
    weights0 = list(_weights(8, rng))
    names = ["x", "wq", "wk", "wv", "wo"]
    _, grads = _flat_roundtrip_loss(x0, weights0, heads=2, causal=causal)
    for idx, name in enumerate(names):
        point = x0 if name == "x" else weights0[idx - 1]

        def f(flat, _idx=idx, _name=name):
            xs = x0.copy()
            ws = [w.copy() for w in weights0]
            if _name == "x":
                xs = flat.reshape(x0.shape)
            else:
                ws[_idx - 1] = flat.reshape(point.shape)
            loss, _ = _flat_roundtrip_loss(xs, ws, heads=2, causal=causal)
            return loss

        err = grad_check(f, grads[name].ravel(), point.ravel(), eps=1e-5)
        assert err < 1e-6, f"{name}: {err}"


def test_backward_through_recorded_dropout_mask():
    # with the mask frozen in the cache the mapping stays differentiable
    rng = stream_rng(0, 11)
    x0 = rng.normal(size=(3, 8))
    w = _weights(8, rng)
    out, cache = attention_forward(
        x0, x0, *w, heads=2, dropout_p=0.4, rng=stream_rng(2, 0), training=True
    )
    g_out = np.ones_like(out)
    g_xq, g_xkv, *_ = attention_backward(cache, g_out)
    g_x = g_xq + g_xkv
    kept = cache.kept

    def f(flat):
        xs = flat.reshape(x0.shape)
        res, c2 = attention_forward(
            xs, xs, *w, heads=2, dropout_p=0.4, rng=stream_rng(2, 0), training=True
        )
        assert np.array_equal(c2.kept, kept)
        return float(np.sum(res))

    err = grad_check(f, g_x.ravel(), x0.ravel(), eps=1e-5)
    assert err < 1e-6


# ---------------------------------------------------------------------------
# batch-first calls: leading axes ride along


@pytest.mark.parametrize("causal", [False, True])
def test_batched_backward_matches_finite_differences(causal):
    rng = stream_rng(0, 12 + int(causal))
    x0 = rng.normal(size=(3, 4, 8))
    weights0 = list(_weights(8, rng))
    names = ["x", "wq", "wk", "wv", "wo"]
    _, grads = _flat_roundtrip_loss(x0, weights0, heads=2, causal=causal)
    for idx, name in enumerate(names):
        point = x0 if name == "x" else weights0[idx - 1]

        def f(flat, _idx=idx, _name=name):
            xs = x0.copy()
            ws = [w.copy() for w in weights0]
            if _name == "x":
                xs = flat.reshape(x0.shape)
            else:
                ws[_idx - 1] = flat.reshape(point.shape)
            loss, _ = _flat_roundtrip_loss(xs, ws, heads=2, causal=causal)
            return loss

        err = grad_check(f, grads[name].ravel(), point.ravel(), eps=1e-5)
        assert err < 1e-6, f"{name}: {err}"


@pytest.mark.parametrize("causal", [False, True])
def test_batched_matches_per_sample_loop(causal):
    rng = stream_rng(0, 14 + int(causal))
    x = rng.normal(size=(3, 5, 8))
    w = _weights(8, rng)
    g_out = rng.normal(size=x.shape)
    out, cache = attention_forward(x, x, *w, heads=2, causal=causal)
    g_xq, g_xkv, *g_w = attention_backward(cache, g_out)
    sums = [np.zeros_like(wi) for wi in w]
    for i in range(3):
        out_i, cache_i = attention_forward(x[i], x[i], *w, heads=2, causal=causal)
        np.testing.assert_allclose(out[i], out_i, rtol=0, atol=1e-12)
        g_xq_i, g_xkv_i, *g_w_i = attention_backward(cache_i, g_out[i])
        np.testing.assert_allclose(g_xq[i], g_xq_i, rtol=0, atol=1e-12)
        np.testing.assert_allclose(g_xkv[i], g_xkv_i, rtol=0, atol=1e-12)
        sums = [s + g for s, g in zip(sums, g_w_i)]
    for got, want in zip(g_w, sums):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_batched_dropout_mask_equals_per_sample_masks():
    rng = stream_rng(0, 16)
    x = rng.normal(size=(3, 4, 8))
    w = _weights(8, rng)
    _, cache = attention_forward(
        x, x, *w, heads=2, dropout_p=0.3, rng=stream_rng(3, 0), training=True
    )
    loop_rng = stream_rng(3, 0)
    masks = [
        attention_forward(
            x[i], x[i], *w, heads=2, dropout_p=0.3, rng=loop_rng, training=True
        )[1].kept
        for i in range(3)
    ]
    assert np.array_equal(cache.kept, np.stack(masks))


# ---------------------------------------------------------------------------
# the head-major matmul core against the sequence-major einsum form


def _einsum_attention(xq, xkv, wq, wk, wv, wo, g_out, heads, causal=False,
                      dropout_p=0.0, rng=None):
    """Forward and backward written with sequence-major (..., T, H, dk) einsums.

    Returns (out, kept, grads) with grads = (g_xq, g_xkv, g_wq, g_wk, g_wv, g_wo).
    """
    e = xq.shape[-1]
    dk = e // heads
    scale = 1.0 / np.sqrt(dk)

    def split(x):
        return x.reshape(*x.shape[:-1], heads, dk)

    def rows(x):
        return x.reshape(-1, x.shape[-1])

    q, k, v = split(xq @ wq), split(xkv @ wk), split(xkv @ wv)
    scores = np.einsum("...qhd,...khd->...hqk", q, k) * scale
    if causal:
        t = scores.shape[-1]
        scores = np.where(np.triu(np.ones((t, t), dtype=bool), k=1), -np.inf, scores)
    exp = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = exp / exp.sum(axis=-1, keepdims=True)
    kept = None
    weights = probs
    if dropout_p > 0.0:
        kept = (rng.random(probs.shape) >= dropout_p) / (1.0 - dropout_p)
        weights = probs * kept
    per_head = np.einsum("...hqk,...khd->...qhd", weights, v)
    concat = per_head.reshape(*per_head.shape[:-2], e)
    out = concat @ wo

    g_wo = rows(concat).T @ rows(g_out)
    g_per_head = split(g_out @ wo.T)
    g_weights = np.einsum("...qhd,...khd->...hqk", g_per_head, v)
    g_v = np.einsum("...hqk,...qhd->...khd", weights, g_per_head)
    g_probs = g_weights if kept is None else g_weights * kept
    inner = (g_probs * probs).sum(axis=-1, keepdims=True)
    g_scores = probs * (g_probs - inner)
    g_q = np.einsum("...hqk,...khd->...qhd", g_scores, k) * scale
    g_k = np.einsum("...hqk,...qhd->...khd", g_scores, q) * scale
    g_q, g_k, g_v = (g.reshape(*g.shape[:-2], e) for g in (g_q, g_k, g_v))
    grads = (
        g_q @ wq.T,
        g_k @ wk.T + g_v @ wv.T,
        rows(xq).T @ rows(g_q),
        rows(xkv).T @ rows(g_k),
        rows(xkv).T @ rows(g_v),
        g_wo,
    )
    return out, kept, grads


@pytest.mark.parametrize(
    "lead, tq, tk, heads, causal",
    [
        ((), 5, 5, 2, False),  # unbatched 2-D call
        ((3,), 6, 6, 4, False),
        ((3,), 6, 6, 4, True),
        ((3,), 1, 8, 2, False),  # single-query pooling
        ((2, 3), 4, 4, 2, True),  # two leading axes
    ],
    ids=["unbatched", "batched", "batched-causal", "pooling", "two-leading-axes"],
)
def test_matmul_core_matches_einsum_oracle(lead, tq, tk, heads, causal):
    rng = stream_rng(0, 17)
    xkv = rng.normal(size=(*lead, tk, 8))
    xq = xkv if tq == tk else rng.normal(size=(*lead, tq, 8))
    w = _weights(8, rng)
    g_out = rng.normal(size=xq.shape)
    out, cache = attention_forward(xq, xkv, *w, heads=heads, causal=causal)
    want_out, _, want_grads = _einsum_attention(
        xq, xkv, *w, g_out, heads=heads, causal=causal
    )
    assert cache.q.shape == (*lead, heads, tq, 8 // heads)
    assert cache.probs.shape == (*lead, heads, tq, tk)
    np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
    for got, want in zip(attention_backward(cache, g_out), want_grads):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_matmul_core_dropout_matches_einsum_oracle():
    rng = stream_rng(0, 18)
    x = rng.normal(size=(3, 5, 8))
    w = _weights(8, rng)
    g_out = rng.normal(size=x.shape)
    out, cache = attention_forward(
        x, x, *w, heads=2, dropout_p=0.3, rng=stream_rng(4, 0), training=True
    )
    want_out, want_kept, want_grads = _einsum_attention(
        x, x, *w, g_out, heads=2, dropout_p=0.3, rng=stream_rng(4, 0)
    )
    assert np.array_equal(cache.kept, want_kept)
    np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
    for got, want in zip(attention_backward(cache, g_out), want_grads):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
