"""Tests for the shared residual self-attention core.

The backward pass is hand-derived, so every code path gets a finite-difference
check and the forward pass is compared against a literal per-head loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from conceptspace.attention import attention_backward, attention_forward
from conceptspace.numerics import stream_rng
from oracles import einsum_attention, grad_check, softmax


def _weights(dim, rng, scale=0.3):
    return tuple(rng.normal(scale=scale, size=(dim, dim)) for _ in range(4))


def _naive_attention(x, wq, wk, wv, wo, heads, causal=False):
    """Literal per-head loop, no vectorization tricks; no residual."""
    t, dim = x.shape
    dk = dim // heads
    q = x @ wq
    k = x @ wk
    v = x @ wv
    concat = np.zeros((t, dim))
    for h in range(heads):
        qh = q[:, h * dk : (h + 1) * dk]
        kh = k[:, h * dk : (h + 1) * dk]
        vh = v[:, h * dk : (h + 1) * dk]
        for i in range(t):
            scores = np.array([qh[i] @ kh[j] / np.sqrt(dk) for j in range(t)])
            if causal:
                for j in range(t):
                    if j > i:
                        scores[j] = -np.inf
            probs = softmax(scores)
            concat[i, h * dk : (h + 1) * dk] = sum(probs[j] * vh[j] for j in range(t))
    return concat @ wo


def test_forward_matches_naive_loop():
    rng = stream_rng(0, 1)
    x = rng.normal(size=(3, 8))
    w = _weights(8, rng)
    out, _ = attention_forward(x, *w, heads=2)
    np.testing.assert_allclose(out, x + _naive_attention(x, *w, heads=2), atol=1e-10)


def test_forward_matches_naive_loop_causal():
    rng = stream_rng(0, 2)
    x = rng.normal(size=(5, 12))
    w = _weights(12, rng)
    out, _ = attention_forward(x, *w, heads=3, causal=True)
    np.testing.assert_allclose(
        out, x + _naive_attention(x, *w, heads=3, causal=True), atol=1e-10
    )


def test_single_position_weight_is_one():
    rng = stream_rng(0, 4)
    x = rng.normal(size=(1, 6))
    out, cache = attention_forward(x, *_weights(6, rng), heads=1)
    np.testing.assert_allclose(cache.probs, 1.0, atol=1e-15)
    np.testing.assert_allclose(out, x + x @ cache.wv @ cache.wo, atol=1e-12)


def test_causal_rows_ignore_the_future():
    rng = stream_rng(0, 5)
    x = rng.normal(size=(6, 8))
    w = _weights(8, rng)
    out, _ = attention_forward(x, *w, heads=2, causal=True)
    bumped = x.copy()
    bumped[4] += 10.0
    out2, _ = attention_forward(bumped, *w, heads=2, causal=True)
    np.testing.assert_allclose(out2[:4], out[:4], atol=1e-12)
    assert np.linalg.norm(out2[4] - out[4]) > 1e-6


def test_permutation_equivariance_without_positions():
    rng = stream_rng(0, 6)
    x = rng.normal(size=(5, 8))
    w = _weights(8, rng)
    perm = np.array([3, 0, 4, 1, 2])
    out, _ = attention_forward(x, *w, heads=2)
    out_p, _ = attention_forward(x[perm], *w, heads=2)
    np.testing.assert_allclose(out_p, out[perm], atol=1e-10)


def test_dropout_only_in_training_and_uses_inverted_scaling():
    rng = stream_rng(0, 7)
    x = rng.normal(size=(4, 8))
    w = _weights(8, rng)
    eval_out, eval_cache = attention_forward(
        x, *w, heads=2, dropout_p=0.5, training=False
    )
    assert eval_cache.kept is None and eval_cache.weights is eval_cache.probs
    ref, _ = attention_forward(x, *w, heads=2)
    np.testing.assert_allclose(eval_out, ref, atol=1e-12)

    train_out, cache = attention_forward(
        x, *w, heads=2, dropout_p=0.5, rng=stream_rng(9, 0), training=True
    )
    assert cache.kept is not None
    # inverted dropout: surviving cells carry the 1/(1-p) scale in the mask
    assert set(np.unique(cache.kept)) <= {0.0, 2.0}
    assert np.any(cache.kept == 0.0)
    assert np.array_equal(cache.weights, cache.probs * cache.kept)
    again, _ = attention_forward(
        x, *w, heads=2, dropout_p=0.5, rng=stream_rng(9, 0), training=True
    )
    assert np.array_equal(train_out, again)


@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("t", range(1, 10))
def test_sliced_row_max_gives_the_reduction_probs(t, causal):
    # The softmax shift takes its row max slice by slice; a whole-row
    # reduction must give the same bits.
    rng = stream_rng(0, 30, t)
    x = rng.normal(scale=3.0, size=(2, t, 8))
    _, cache = attention_forward(x, *_weights(8, rng), heads=2, causal=causal)
    scores = (cache.q @ cache.k.swapaxes(-1, -2)) * (1.0 / np.sqrt(4))
    if causal:
        scores = np.where(np.triu(np.ones((t, t), dtype=bool), k=1), -np.inf, scores)
    exp = np.exp(scores - scores.max(axis=-1, keepdims=True))
    assert np.array_equal(cache.probs, exp / exp.sum(axis=-1, keepdims=True))


def test_dropout_rate_matches_probability():
    rng = stream_rng(0, 8)
    x = rng.normal(size=(10, 8))
    w = _weights(8, rng)
    _, cache = attention_forward(
        x, *w, heads=4, dropout_p=0.3, rng=stream_rng(1, 0), training=True
    )
    dropped = float(np.mean(cache.kept == 0.0))
    assert abs(dropped - 0.3) < 0.08


def _flat_roundtrip_loss(x, weights, heads, causal=False, last=None):
    """Scalar functional with analytic gradients for grad_check."""

    out, cache = attention_forward(x, *weights, heads=heads, causal=causal, last=last)
    g_out = np.sin(np.arange(out.size).reshape(out.shape))
    loss = float(np.sum(out * g_out))
    return loss, dict(zip(["x", "wq", "wk", "wv", "wo"], attention_backward(cache, g_out)))


def _grad_check_every_input(x0, weights0, causal, last=None):
    _, grads = _flat_roundtrip_loss(x0, weights0, heads=2, causal=causal, last=last)
    for idx, name in enumerate(["x", "wq", "wk", "wv", "wo"]):
        point = x0 if name == "x" else weights0[idx - 1]

        def f(flat, _idx=idx, _name=name):
            xs = x0.copy()
            ws = [w.copy() for w in weights0]
            if _name == "x":
                xs = flat.reshape(x0.shape)
            else:
                ws[_idx - 1] = flat.reshape(point.shape)
            loss, _ = _flat_roundtrip_loss(xs, ws, heads=2, causal=causal, last=last)
            return loss

        err = grad_check(f, grads[name].ravel(), point.ravel(), eps=1e-5)
        assert err < 1e-6, f"{name}: {err}"


@pytest.mark.parametrize("causal", [False, True])
def test_backward_matches_finite_differences(causal):
    rng = stream_rng(0, 9 + int(causal))
    x0 = rng.normal(size=(4, 8))
    _grad_check_every_input(x0, list(_weights(8, rng)), causal)


def test_backward_through_recorded_dropout_mask():
    # with the mask frozen in the cache the mapping stays differentiable
    rng = stream_rng(0, 11)
    x0 = rng.normal(size=(3, 8))
    w = _weights(8, rng)
    out, cache = attention_forward(
        x0, *w, heads=2, dropout_p=0.4, rng=stream_rng(2, 0), training=True
    )
    g_x, *_ = attention_backward(cache, np.ones_like(out))
    kept = cache.kept

    def f(flat):
        res, c2 = attention_forward(
            flat.reshape(x0.shape), *w, heads=2, dropout_p=0.4, rng=stream_rng(2, 0),
            training=True,
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
    _grad_check_every_input(x0, list(_weights(8, rng)), causal)


@pytest.mark.parametrize("causal", [False, True])
def test_batched_matches_per_sample_loop(causal):
    rng = stream_rng(0, 14 + int(causal))
    x = rng.normal(size=(3, 5, 8))
    w = _weights(8, rng)
    g_out = rng.normal(size=x.shape)
    out, cache = attention_forward(x, *w, heads=2, causal=causal)
    g_x, *g_w = attention_backward(cache, g_out)
    sums = [np.zeros_like(wi) for wi in w]
    for i in range(3):
        out_i, cache_i = attention_forward(x[i], *w, heads=2, causal=causal)
        np.testing.assert_allclose(out[i], out_i, rtol=0, atol=1e-12)
        g_x_i, *g_w_i = attention_backward(cache_i, g_out[i])
        np.testing.assert_allclose(g_x[i], g_x_i, rtol=0, atol=1e-12)
        sums = [s + g for s, g in zip(sums, g_w_i)]
    for got, want in zip(g_w, sums):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_batched_dropout_mask_equals_per_sample_masks():
    rng = stream_rng(0, 16)
    x = rng.normal(size=(3, 4, 8))
    w = _weights(8, rng)
    _, cache = attention_forward(
        x, *w, heads=2, dropout_p=0.3, rng=stream_rng(3, 0), training=True
    )
    loop_rng = stream_rng(3, 0)
    masks = [
        attention_forward(x[i], *w, heads=2, dropout_p=0.3, rng=loop_rng, training=True)[1].kept
        for i in range(3)
    ]
    assert np.array_equal(cache.kept, np.stack(masks))


# ---------------------------------------------------------------------------
# the head-major matmul core against the sequence-major einsum form


def _einsum_self_attention(x, w, g_out, heads, **kwargs):
    """The residual block through the cross-attention oracle, with x on both sides."""
    out, kept, (g_xq, g_xkv, *g_w) = einsum_attention(x, x, *w, g_out, heads, **kwargs)
    return x + out, kept, (g_out + g_xq + g_xkv, *g_w)


@pytest.mark.parametrize(
    "lead, t, heads, causal",
    [
        ((), 5, 2, False),  # unbatched 2-D call
        ((3,), 6, 4, False),
        ((3,), 6, 4, True),
        ((2, 3), 4, 2, True),  # two leading axes
    ],
    ids=["unbatched", "batched", "batched-causal", "two-leading-axes"],
)
def test_matmul_core_matches_einsum_oracle(lead, t, heads, causal):
    rng = stream_rng(0, 17)
    x = rng.normal(size=(*lead, t, 8))
    w = _weights(8, rng)
    g_out = rng.normal(size=x.shape)
    out, cache = attention_forward(x, *w, heads=heads, causal=causal)
    want_out, _, want_grads = _einsum_self_attention(x, w, g_out, heads, causal=causal)
    assert cache.q.shape == (*lead, heads, t, 8 // heads)
    assert cache.probs.shape == (*lead, heads, t, t)
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
        x, *w, heads=2, dropout_p=0.3, rng=stream_rng(4, 0), training=True
    )
    want_out, want_kept, want_grads = _einsum_self_attention(
        x, w, g_out, 2, dropout_p=0.3, rng=stream_rng(4, 0)
    )
    assert np.array_equal(cache.kept, want_kept)
    np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
    for got, want in zip(attention_backward(cache, g_out), want_grads):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# one query row per item (`last`), as the contextualizer's last layer runs


def _einsum_last_rows(x, w, g_out, heads, last, causal):
    """Row last[b] of each item through the cross-attention oracle: that row
    is the one query, over the rows up to it (causal) or over all rows."""
    out = np.empty((x.shape[0], x.shape[-1]))
    g_x = np.zeros_like(x)
    g_w = [np.zeros_like(wi) for wi in w]
    for b, row in enumerate(last):
        keys = x[b, : row + 1] if causal else x[b]
        o, _, (g_xq, g_xkv, *g_wb) = einsum_attention(x[b, row : row + 1], keys, *w,
                                                     g_out[b][None], heads)
        out[b] = x[b, row] + o[0]
        g_x[b, : keys.shape[0]] += g_xkv
        g_x[b, row] += g_out[b] + g_xq[0]
        g_w = [s + g for s, g in zip(g_w, g_wb)]
    return out, (g_x, *g_w)


@pytest.mark.parametrize("causal", [False, True])
def test_last_rows_match_einsum_oracle(causal):
    rng = stream_rng(0, 19)
    x = rng.normal(size=(5, 6, 8))
    w = _weights(8, rng)
    last = np.array([5, 0, 3, 2, 5])
    g_out = rng.normal(size=(5, 8))
    out, cache = attention_forward(x, *w, heads=4, causal=causal, last=last)
    want_out, want_grads = _einsum_last_rows(x, w, g_out, 4, last, causal)
    assert out.shape == (5, 8) and cache.probs.shape == (5, 4, 1, 6)
    np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
    for got, want in zip(attention_backward(cache, g_out), want_grads):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_last_rows_are_the_all_rows_block_at_those_rows():
    rng = stream_rng(0, 20)
    x = rng.normal(size=(4, 5, 8))
    w = _weights(8, rng)
    last = np.array([4, 1, 0, 2])
    out, _ = attention_forward(x, *w, heads=2, causal=True, last=last)
    full, _ = attention_forward(x, *w, heads=2, causal=True)
    np.testing.assert_allclose(out, full[np.arange(4), last], rtol=0, atol=1e-12)


def test_last_rows_backward_matches_finite_differences_over_mixed_lengths():
    rng = stream_rng(0, 21)
    x0 = rng.normal(size=(4, 5, 8))
    _grad_check_every_input(x0, list(_weights(8, rng)), True, last=np.array([2, 4, 0, 1]))


def test_last_rows_need_a_batch_of_items():
    rng = stream_rng(0, 22)
    w = _weights(8, rng)
    for x, last in ((rng.normal(size=(5, 8)), np.array([1])),
                    (rng.normal(size=(3, 5, 8)), np.array([1, 2]))):
        with pytest.raises(ValueError, match="one query row per item"):
            attention_forward(x, *w, heads=2, causal=True, last=last)
