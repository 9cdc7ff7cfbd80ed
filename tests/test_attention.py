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
