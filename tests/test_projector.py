"""Tests for the frame-stack projector: forward semantics and hand gradients."""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np
import pytest

import oracles
from conceptspace import projector
from conceptspace.checkpoints import load_projector, save_projector
from conceptspace.numerics import stream_rng
from conceptspace.projector import (
    ADAPTER_KEY,
    POOLING_MODES,
    ForwardTrace,
    ProjectorConfig,
    attention_pool,
    attention_pool_backward,
    init_projector,
    project,
    project_backward,
    sinusoidal_features,
)
from conceptspace.records import from_dict
from oracles import grad_check


def _cfg(**kw):
    base = dict(frame_dim=8, concept_dim=4, heads=2, dropout_p=0.0,
                pooling="attention", init_sigma=0.3)
    base.update(kw)
    return ProjectorConfig(**base)


# Every pooling mode with and without temporal attention and the adapter; the
# full config's id is its pooling mode alone.
_CONFIGS = [
    pytest.param(dict(pooling=pooling, use_temporal_attention=temporal, use_adapter=adapter),
                 id="-".join([pooling] + ["no-temporal"] * (not temporal)
                             + ["no-adapter"] * (not adapter)))
    for pooling in POOLING_MODES for temporal in (True, False) for adapter in (True, False)
]


# ---------------------------------------------------------------------------
# config and init


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError):
        ProjectorConfig(frame_dim=10, concept_dim=4, heads=3)


def test_config_rejects_bad_dropout():
    with pytest.raises(ValueError):
        _cfg(dropout_p=1.0)
    with pytest.raises(ValueError):
        _cfg(dropout_p=-0.1)


def test_config_rejects_negative_init_sigma():
    with pytest.raises(ValueError, match="init_sigma"):
        _cfg(init_sigma=-1e-5)


def test_config_rejects_unknown_pooling():
    with pytest.raises(ValueError):
        _cfg(pooling="median")


def test_config_dict_round_trip():
    cfg = _cfg(pooling="max", heads=4, use_temporal_attention=False)
    assert from_dict(ProjectorConfig, asdict(cfg)) == cfg


def test_init_sigma_zero_is_all_zero_except_adapter():
    params = init_projector(_cfg(init_sigma=0.0), stream_rng(0, 0))
    for key in params.keys():
        if key == ADAPTER_KEY:
            assert np.array_equal(params[key], np.eye(8))
        else:
            assert np.all(params[key] == 0.0)


def test_init_default_sigma_stays_tiny():
    cfg = ProjectorConfig(frame_dim=64, concept_dim=32, heads=4)
    assert cfg.init_sigma == 1e-5
    params = init_projector(cfg, stream_rng(0, 1))
    for key in params.keys():
        if key == ADAPTER_KEY:
            continue
        assert float(np.max(np.abs(params[key]))) < 1e-3  # 5-sigma has margin


def test_init_same_seed_identical():
    cfg = _cfg()
    a = init_projector(cfg, stream_rng(4, 2))
    b = init_projector(cfg, stream_rng(4, 2))
    for key in a.keys():
        assert np.array_equal(a[key], b[key])


@pytest.mark.parametrize("config", _CONFIGS)
def test_init_keeps_the_full_configs_draws(config):
    # Same-seed ablations start from the same weights wherever they share one.
    cfg = _cfg(**config)
    full = init_projector(_cfg(use_adapter=cfg.use_adapter), stream_rng(4, 3))
    params = init_projector(cfg, stream_rng(4, 3))
    assert list(params) == list(projector.layout(cfg))
    for key, value in params.items():
        assert np.array_equal(value, full[key]), key


# ---------------------------------------------------------------------------
# positional encoding


def test_pe_row_zero():
    pe = sinusoidal_features(np.arange(3), 8)
    assert np.all(pe[0, 0::2] == 0.0)
    assert np.all(pe[0, 1::2] == 1.0)


def test_pe_first_frequency():
    pe = sinusoidal_features(np.arange(2), 8)
    assert pe[1, 0] == pytest.approx(math.sin(1.0), abs=1e-15)
    assert pe[1, 1] == pytest.approx(math.cos(1.0), abs=1e-15)


def test_pe_bounded():
    pe = sinusoidal_features(np.arange(50), 16)
    assert float(np.max(np.abs(pe))) <= 1.0


def test_pe_rejects_odd_dim():
    with pytest.raises(ValueError):
        sinusoidal_features(np.arange(4), 7)


# ---------------------------------------------------------------------------
# temporal attention and pooling semantics


def _pool_rows(pooling, params_key, x):
    """Run project so that the pooling step sees the rows of x (up to roundoff).

    Without adapter and temporal block the hidden rows are frames plus the
    position codes, so subtracting the codes up front hands x to the pool.
    """
    cfg = _cfg(pooling=pooling, use_adapter=False, use_temporal_attention=False)
    params = init_projector(cfg, stream_rng(*params_key))
    _, trace = project(params, cfg, x - sinusoidal_features(np.arange(x.shape[0]), x.shape[1]))
    return params, trace


def test_temporal_attention_single_frame():
    cfg = _cfg()
    params = init_projector(cfg, stream_rng(1, 0))
    _, trace = project(params, cfg, stream_rng(1, 1).normal(size=(1, 8)))
    x = trace.with_pe
    expected = x + x @ params["attn.wv"] @ params["attn.wo"]
    np.testing.assert_allclose(trace.hidden, expected, atol=1e-12)


def test_temporal_attention_zero_params_is_identity():
    cfg = _cfg(init_sigma=0.0)
    params = init_projector(cfg, stream_rng(1, 2))
    _, trace = project(params, cfg, stream_rng(1, 3).normal(size=(4, 8)))
    np.testing.assert_allclose(trace.hidden, trace.with_pe, atol=1e-15)


def test_pool_attention_collapses_on_identical_rows():
    v = stream_rng(2, 1).normal(size=8)
    params, trace = _pool_rows("attention", (2, 0), np.tile(v, (5, 1)))
    np.testing.assert_allclose(
        trace.pooled, v @ params["pool.wv"] @ params["pool.wo"], atol=1e-12
    )


def test_pool_mean_two_rows():
    a = stream_rng(2, 3).normal(size=8)
    b = stream_rng(2, 4).normal(size=8)
    _, trace = _pool_rows("mean", (2, 2), np.stack([a, b]))
    np.testing.assert_allclose(trace.pooled, (a + b) / 2)


def test_pool_max_matches_loop():
    cfg = _cfg(pooling="max")
    params = init_projector(cfg, stream_rng(2, 5))
    _, trace = project(params, cfg, stream_rng(2, 6).normal(size=(6, 8)))
    x = trace.hidden
    expected = np.array([max(x[t, j] for t in range(6)) for j in range(8)])
    np.testing.assert_allclose(trace.pooled, expected)


def test_pooling_modes_agree_on_single_frame():
    frames = stream_rng(2, 7).normal(size=(1, 8))
    for mode in ("mean", "max"):
        cfg = _cfg(pooling=mode)
        params = init_projector(cfg, stream_rng(2, 8))
        _, trace = project(params, cfg, frames)
        np.testing.assert_allclose(trace.pooled, trace.hidden[0])
    cfg = _cfg(pooling="attention")
    params = init_projector(cfg, stream_rng(2, 8))
    _, trace = project(params, cfg, frames)
    np.testing.assert_allclose(
        trace.pooled, trace.hidden[0] @ params["pool.wv"] @ params["pool.wo"],
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# project forward


def test_project_zero_params_zero_output():
    cfg = _cfg(init_sigma=0.0)
    params = init_projector(cfg, stream_rng(3, 0))
    out, _ = project(params, cfg, stream_rng(3, 1).normal(size=(4, 8)))
    assert np.all(out == 0.0)
    assert out.shape == (4,)


def test_project_eval_deterministic():
    cfg = _cfg(dropout_p=0.5)
    params = init_projector(cfg, stream_rng(3, 2))
    frames = stream_rng(3, 3).normal(size=(5, 8))
    a, _ = project(params, cfg, frames)
    b, _ = project(params, cfg, frames)
    assert np.array_equal(a, b)


def test_project_is_order_sensitive():
    cfg = _cfg()
    params = init_projector(cfg, stream_rng(3, 4))
    frames = stream_rng(3, 5).normal(size=(4, 8))
    out, _ = project(params, cfg, frames)
    out_perm, _ = project(params, cfg, frames[::-1].copy())
    assert float(np.linalg.norm(out - out_perm)) > 1e-9


def test_project_rejects_wrong_width():
    cfg = _cfg()
    params = init_projector(cfg, stream_rng(3, 6))
    with pytest.raises(ValueError):
        project(params, cfg, np.zeros((4, 9)))


def test_project_near_zero_at_paper_init():
    cfg = ProjectorConfig(frame_dim=32, concept_dim=16, heads=4)
    params = init_projector(cfg, stream_rng(3, 7))
    frames = stream_rng(3, 8).normal(size=(8, 32))
    out, _ = project(params, cfg, frames)
    assert float(np.linalg.norm(out)) < 1e-2 * float(np.linalg.norm(frames))


def test_project_batch_shapes():
    cfg = _cfg()
    params = init_projector(cfg, stream_rng(3, 9))
    out, trace = project(params, cfg, stream_rng(3, 10).normal(size=(2, 3, 5, 8)))
    assert out.shape == (2, 3, 4)
    assert trace.hidden.shape == (2, 3, 5, 8)
    assert trace.pooled.shape == (2, 3, 8)


# ---------------------------------------------------------------------------
# project backward


def _loss_and_grads(params, cfg, frames, rng_key=None):
    rng = None if rng_key is None else stream_rng(*rng_key)
    out, trace = project(params, cfg, frames, training=rng is not None, rng=rng)
    weights = np.cos(np.arange(out.size, dtype=np.float64)).reshape(out.shape)
    loss = float(np.sum(out * weights))
    grads = project_backward(trace, weights)
    return loss, grads


def _grad_check_all(config, frames):
    cfg = _cfg(**config)
    params = init_projector(cfg, stream_rng(4, 0))
    _, grads = _loss_and_grads(params, cfg, frames)
    assert set(grads) == set(projector.layout(cfg))

    for key in params.keys():
        def f(flat, _key=key):
            loss, _ = _loss_and_grads(params | {_key: flat.reshape(params[_key].shape)},
                                      cfg, frames)
            return loss

        err = grad_check(f, grads[key].ravel(), params[key].ravel(), eps=1e-5)
        assert err < 1e-6, f"{cfg}/{key}: {err}"


@pytest.mark.parametrize("config", _CONFIGS)
def test_project_backward_grad_check(config):
    _grad_check_all(config, stream_rng(4, 1).normal(size=(5, 8)))


@pytest.mark.parametrize("config", _CONFIGS)
def test_project_backward_grad_check_batched(config):
    _grad_check_all(config, stream_rng(4, 10).normal(size=(3, 5, 8)))


@pytest.mark.parametrize("pooling", ["attention", "mean", "max"])
def test_project_batch_matches_per_sample_loop(pooling):
    # Training mode with dropout: the batch must also draw the same masks.
    cfg = _cfg(pooling=pooling, dropout_p=0.3)
    params = init_projector(cfg, stream_rng(4, 11))
    frames = stream_rng(4, 12).normal(size=(3, 5, 8))
    upstream = stream_rng(4, 13).normal(size=(3, 4))

    out, trace = project(params, cfg, frames, training=True, rng=stream_rng(4, 14))
    grads = project_backward(trace, upstream)

    loop_rng = stream_rng(4, 14)
    loop_grads: dict[str, np.ndarray] = {}
    for i in range(3):
        out_i, trace_i = project(params, cfg, frames[i], training=True, rng=loop_rng)
        np.testing.assert_allclose(out[i], out_i, rtol=0, atol=1e-12)
        assert np.array_equal(trace.attn_cache.kept[i], trace_i.attn_cache.kept)
        for key, g in project_backward(trace_i, upstream[i]).items():
            loop_grads[key] = loop_grads.get(key, 0.0) + g
    assert set(loop_grads) == set(grads)
    for key, g in loop_grads.items():
        np.testing.assert_allclose(grads[key], g, rtol=0, atol=1e-12, err_msg=key)


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=str)
@pytest.mark.parametrize("t", [1, 5, 8])
@pytest.mark.parametrize("heads", [1, 2, 4, 8])
def test_attention_pool_matches_the_core(heads, t, lead):
    cfg = _cfg(frame_dim=16, heads=heads, init_sigma=0.5)
    params = init_projector(cfg, stream_rng(4, 20, heads))
    rng = stream_rng(4, 21, t)
    hidden = rng.normal(size=(*lead, t, 16))
    g_out = rng.normal(size=(*lead, 16))

    want_out, want_g_hidden, want = oracles.attention_pool(params, heads, hidden, g_out)
    out, cache = attention_pool(params, heads, hidden)
    g_hidden, grads = attention_pool_backward(cache, g_out)
    assert out.shape == want_out.shape and g_hidden.shape == hidden.shape
    np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(g_hidden, want_g_hidden, rtol=0, atol=1e-12)
    assert set(grads) == set(want)
    for key, g in want.items():
        assert grads[key].shape == params[key].shape, key
        np.testing.assert_allclose(grads[key], g, rtol=0, atol=1e-12, err_msg=key)


@pytest.mark.parametrize("pooling", POOLING_MODES)
@pytest.mark.parametrize("temporal", [True, False])
def test_core_runs_once_per_pass_only_for_temporal_attention(monkeypatch, temporal, pooling):
    # The benchmark's per-layer attention counts rest on these call counts.
    calls = []
    for name in ("attention_forward", "attention_backward"):
        def counted(*args, _real=getattr(projector, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(projector, name, counted)
    cfg = _cfg(pooling=pooling, use_temporal_attention=temporal)
    params = init_projector(cfg, stream_rng(4, 22))
    out, trace = project(params, cfg, stream_rng(4, 23).normal(size=(3, 5, 8)))
    assert calls == ["attention_forward"] * temporal
    project_backward(trace, np.ones_like(out))
    assert calls == ["attention_forward", "attention_backward"] * temporal


def test_project_backward_with_dropout_mask_replayed():
    cfg = _cfg(dropout_p=0.3)
    params = init_projector(cfg, stream_rng(4, 2))
    frames = stream_rng(4, 3).normal(size=(4, 8))
    _, grads = _loss_and_grads(params, cfg, frames, rng_key=(11, 0))

    def f(flat):
        p2 = dict(params)
        p2["attn.wv"] = flat.reshape((8, 8))
        loss, _ = _loss_and_grads(p2, cfg, frames, rng_key=(11, 0))
        return loss

    err = grad_check(f, grads["attn.wv"].ravel(), params["attn.wv"].ravel(), eps=1e-5)
    assert err < 1e-6


def test_project_backward_zero_upstream():
    cfg = _cfg()
    params = init_projector(cfg, stream_rng(4, 4))
    out, trace = project(params, cfg, stream_rng(4, 5).normal(size=(3, 8)))
    grads = project_backward(trace, np.zeros_like(out))
    for key, g in grads.items():
        assert np.all(g == 0.0), key


def test_project_backward_cls_gets_signal():
    cfg = _cfg()
    params = init_projector(cfg, stream_rng(4, 6))
    out, trace = project(params, cfg, stream_rng(4, 7).normal(size=(3, 8)))
    grads = project_backward(trace, np.ones_like(out))
    assert float(np.linalg.norm(grads["cls"])) > 0.0


def test_forward_trace_carries_shapes():
    cfg = _cfg()
    params = init_projector(cfg, stream_rng(4, 8))
    frames = stream_rng(4, 9).normal(size=(6, 8))
    _, trace = project(params, cfg, frames)
    assert isinstance(trace, ForwardTrace)
    assert trace.frames.shape == (6, 8)
    assert trace.pooled.shape == (8,)


# ---------------------------------------------------------------------------
# checkpoint round trip


def test_projector_checkpoint_round_trip(tmp_path):
    cfg = _cfg(pooling="attention")
    params = init_projector(cfg, stream_rng(5, 0))
    save_projector(tmp_path / "ck", params, cfg, extra_meta={"seed": 5})
    loaded_params, loaded_cfg, meta = load_projector(tmp_path / "ck")
    assert loaded_cfg == cfg
    assert meta["seed"] == 5
    for key in params.keys():
        assert np.array_equal(loaded_params[key], params[key])
