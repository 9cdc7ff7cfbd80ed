"""Tests for the noise schedule, the two-tower model, its loss, and sampling."""

from __future__ import annotations

import math
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from conceptspace import checkpoints, latentdiff
from conceptspace.checkpoints import load_lcm, save_lcm
from conceptspace.corpus import EmbeddingSequence
from conceptspace.latentdiff import (
    _STREAM_VAL,
    LcmModelConfig,
    LcmTrainConfig,
    NoiseSchedule,
    ScheduleConfig,
    _ctx_backward,
    _ctx_forward,
    _draw_items,
    _level1_log_snr,
    _loss_forward,
    _val_loss,
    build_schedule,
    condition,
    contextualize,
    denoise,
    diffusion_loss,
    forward_diffuse,
    init_two_tower,
    items_from_sequences,
    sample_next,
    train_lcm,
)
from conceptspace.numerics import stream_rng
from conceptspace.optim import AdamW, TrainingDivergedError, flat_span, warmup_cosine
from conceptspace.records import from_dict
from oracles import context_tower, denoise_concat, grad_check

# sqrt(sigmoid(-20)) from 50-digit mpmath: the sigma at log-SNR +20.
SIGMA_AT_LAMBDA_20 = 4.5399929720290195e-05


def _model_cfg(**kw):
    base = dict(concept_dim=6, ctx_width=16, ctx_layers=2, ctx_heads=2,
                den_width=24, den_depth=2, lambda_emb_dim=8)
    base.update(kw)
    return LcmModelConfig(**base)


def _rand_params(cfg, key=0):
    return init_two_tower(cfg, stream_rng(17, key))


# ---------------------------------------------------------------------------
# schedule


def test_schedule_symmetry_point():
    sched = build_schedule(3, 1.0, -1.0)
    assert sched.log_snr[1] == pytest.approx(0.0, abs=1e-15)
    assert sched.alpha[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert sched.sigma[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_schedule_extreme_log_snr():
    sched = build_schedule(2, 20.0, -20.0)
    assert sched.alpha[0] == pytest.approx(1.0, abs=1e-8)
    assert sched.sigma[0] == pytest.approx(SIGMA_AT_LAMBDA_20, rel=1e-12)


def test_schedule_variance_preserving_identity():
    sched = build_schedule(64)
    gap = np.abs(sched.alpha**2 + sched.sigma**2 - 1.0)
    assert float(np.max(gap)) < 1e-12


def test_schedule_log_snr_strictly_decreasing():
    sched = build_schedule(40)
    assert np.all(np.diff(sched.log_snr) < 0)


def test_schedule_log_snr_recompute():
    sched = build_schedule(32)
    recomputed = np.log(sched.alpha**2 / sched.sigma**2)
    np.testing.assert_allclose(recomputed, sched.log_snr, atol=1e-9)


def test_schedule_rejects_bad_requests():
    with pytest.raises(ValueError):
        build_schedule(1)
    with pytest.raises(ValueError):
        build_schedule(10, -1.0, 1.0)


_EXPIT_SPANS = [(10.0, -10.0), (5.0, -5.0), (20.0, -20.0), (3.0, -7.5), (800.0, -800.0)]


@pytest.mark.parametrize("span", _EXPIT_SPANS)
def test_schedule_equals_expit_bit_for_bit(span):
    # scipy's expit is the oracle: trained models and checkpoints keep their bytes.
    # At +-800 the outer levels' sigmoids underflow to 0, or overflow libm's exp.
    for steps in range(2, 201):
        for hi, lo in (span, (-span[1], -span[0])):
            sched = build_schedule(steps, hi, lo)
            log_snr = np.linspace(hi, lo, steps)
            assert sched.alpha.tobytes() == np.sqrt(expit(log_snr)).tobytes(), (steps, hi, lo)
            assert sched.sigma.tobytes() == np.sqrt(expit(-log_snr)).tobytes(), (steps, hi, lo)


def test_level1_closed_form_equals_the_built_schedule_bit_for_bit():
    # ScheduleConfig checks level 1 without building the grid.
    for span in _EXPIT_SPANS:
        for steps in range(2, 201):
            for hi, lo in (span, (-span[1], -span[0])):
                level1 = _level1_log_snr(steps, hi, lo)
                built = build_schedule(steps, hi, lo).log_snr[1]
                assert np.float64(level1).tobytes() == built.tobytes(), (steps, hi, lo)


# ---------------------------------------------------------------------------
# forward diffusion


def test_forward_diffuse_clean_level_passthrough():
    sched = NoiseSchedule(alpha=np.array([1.0]), sigma=np.array([0.0]),
                          log_snr=np.array([np.inf]))
    x0 = np.array([0.3, -0.7])
    out = forward_diffuse(x0, 0, np.array([5.0, 5.0]), sched)
    assert np.array_equal(out, x0)


def test_forward_diffuse_hand_case():
    sched = NoiseSchedule(alpha=np.array([0.8]), sigma=np.array([0.6]),
                          log_snr=np.array([math.log(0.64 / 0.36)]))
    out = forward_diffuse(np.array([1.0, 0.0]), 0, np.array([0.0, 1.0]), sched)
    np.testing.assert_allclose(out, [0.8, 0.6])


def test_forward_diffuse_is_bilinear():
    sched = build_schedule(8)
    rng = stream_rng(20, 0)
    x1, x2 = rng.normal(size=(2, 5))
    e1, e2 = rng.normal(size=(2, 5))
    a, b = 0.3, -1.7
    lhs = forward_diffuse(a * x1 + b * x2, 3, a * e1 + b * e2, sched)
    rhs = a * forward_diffuse(x1, 3, e1, sched) + b * forward_diffuse(x2, 3, e2, sched)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_forward_diffuse_preserves_unit_variance():
    sched = build_schedule(50)
    rng = stream_rng(88, 1)
    draws, d = 10**5, 8
    x0 = rng.normal(size=(draws, d))
    ts = rng.integers(0, sched.steps, draws)
    eps = rng.normal(size=(draws, d))
    xt = sched.alpha[ts][:, None] * x0 + sched.sigma[ts][:, None] * eps
    mean_sq = float(np.mean(np.sum(xt**2, axis=1)) / d)
    assert abs(mean_sq - 1.0) < 0.02


# ---------------------------------------------------------------------------
# contextualizer


def test_contextualizer_is_causal():
    # The context after the first i positions is the all-rows tower's row i - 1
    # over the whole prefix, which the later positions do not reach.
    cfg = _model_cfg()
    params = _rand_params(cfg)
    prefix = stream_rng(21, 0).normal(size=(5, 6))
    full = context_tower(params, cfg, prefix)
    shorter = np.stack([contextualize(params, cfg, prefix[:i]) for i in (1, 2, 3)])
    np.testing.assert_allclose(full[:3], shorter, atol=1e-12)


def test_contextualizer_matches_per_position_reencode():
    cfg = _model_cfg()
    params = _rand_params(cfg)
    prefix = stream_rng(21, 1).normal(size=(6, 6))
    for i in range(1, 7):
        again = context_tower(params, cfg, prefix[:i])
        np.testing.assert_allclose(contextualize(params, cfg, prefix[:i]), again[-1], atol=1e-10)
    # Leading axes are a batch of prefixes of one length.
    batch = np.stack([prefix, prefix[::-1]])
    np.testing.assert_allclose(contextualize(params, cfg, batch),
                               context_tower(params, cfg, batch)[:, -1], atol=1e-10)


def test_contextualizer_rejects_empty_prefix():
    cfg = _model_cfg()
    params = _rand_params(cfg)
    with pytest.raises(ValueError):
        contextualize(params, cfg, np.zeros((0, 6)))


def test_contextualizer_perturbation_localized():
    cfg = _model_cfg()
    params = _rand_params(cfg)
    prefix = stream_rng(21, 2).normal(size=(5, 6))
    base = context_tower(params, cfg, prefix)
    bumped = prefix.copy()
    bumped[3] += 1.0
    after = np.stack([contextualize(params, cfg, bumped[:i]) for i in range(1, 6)])
    np.testing.assert_allclose(after[:3], base[:3], atol=1e-12)
    assert float(np.linalg.norm(after[3] - base[3])) > 1e-8


def test_context_tower_right_padding_is_inert():
    # Pad rows must neither change real rows nor pass gradient: any pad content
    # gives bit-identical outputs at real rows and bit-identical gradients.
    cfg = _model_cfg()
    params = _rand_params(cfg)
    lengths = np.array([2, 5, 1, 3])
    rng = stream_rng(21, 3)
    prefixes = [rng.normal(size=(n, 6)) for n in lengths]
    g_last = rng.normal(size=(lengths.size, cfg.ctx_width))
    runs = []
    for pad in (0.0, 1e3):
        padded = np.full((lengths.size, lengths.max(), 6), pad)
        for i, p in enumerate(prefixes):
            padded[i, : p.shape[0]] = p
        out, cache = _ctx_forward(params, cfg, padded, lengths)
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        _ctx_backward(params, cfg, cache, g_last, grads)
        runs.append((out, grads))
    (out_a, grads_a), (out_b, grads_b) = runs
    assert np.array_equal(out_a, out_b)
    for i, p in enumerate(prefixes):
        np.testing.assert_allclose(out_a[i], context_tower(params, cfg, p)[-1], rtol=0, atol=1e-12)
    for key in params:
        assert np.array_equal(grads_a[key], grads_b[key]), key


# ---------------------------------------------------------------------------
# denoiser


def test_denoiser_zero_head_at_init():
    cfg = _model_cfg()
    params = _rand_params(cfg)
    sched = build_schedule(8)
    c = stream_rng(22, 0).normal(size=cfg.ctx_width)
    xt = stream_rng(22, 1).normal(size=6)
    out = denoise(params, cfg, xt, 3, condition(params, cfg, c, sched))
    assert np.all(out == 0.0)


def test_unconditional_branch_ignores_context():
    cfg = _model_cfg()
    params = _rand_params(cfg)
    # give the output head real weights so the branch actually computes
    params["den.out_w"] = stream_rng(22, 2).normal(size=params["den.out_w"].shape)
    sched = build_schedule(8)
    xt = stream_rng(22, 3).normal(size=6)
    c1 = stream_rng(22, 4).normal(size=cfg.ctx_width)
    c2 = stream_rng(22, 5).normal(size=cfg.ctx_width)
    # The guided pair: the conditional row, then the learned null context.
    null = params["null_ctx"]
    a = denoise(params, cfg, xt, 2, condition(params, cfg, np.stack([c1, null]), sched))
    b = denoise(params, cfg, xt, 2, condition(params, cfg, np.stack([c2, null]), sched))
    assert np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], a[1])
    assert not np.array_equal(a[0], b[0])


def _oracle_params(cfg):
    # Every tensor random, biases and null context included, so each column
    # block of the input layer and every bias reaches the output.
    rng = stream_rng(23, 0)
    return {k: rng.normal(size=v.shape) / math.sqrt(v.shape[-1])
            for k, v in _rand_params(cfg).items()}


@pytest.mark.parametrize("lead", [(), (3,)], ids=["one-row", "batch"])
@pytest.mark.parametrize("conditioned", [True, False], ids=["conditioned", "null-context"])
def test_condition_then_denoise_matches_concat_oracle(lead, conditioned):
    cfg = _model_cfg()
    params = _oracle_params(cfg)
    sched = build_schedule(8)
    c = stream_rng(23, 1).normal(size=(*lead, cfg.ctx_width))
    xt = stream_rng(23, 2).normal(size=(*lead, cfg.concept_dim))
    # The unconditional rows are the learned null context; the oracle puts it
    # in place of `c` itself.
    rows = c if conditioned else np.broadcast_to(params["null_ctx"], c.shape)
    cond = condition(params, cfg, rows, sched)
    assert cond.shape == (sched.steps, *lead, cfg.den_width)
    for t in range(sched.steps):
        want = denoise_concat(params, cfg, xt, t, c, conditioned, sched)
        np.testing.assert_allclose(denoise(params, cfg, xt, t, cond), want, rtol=0, atol=1e-12)


def test_denoise_shares_one_row_across_the_table_rows():
    cfg = _model_cfg()
    params = _oracle_params(cfg)
    sched = build_schedule(8)
    c = stream_rng(23, 3).normal(size=(2, cfg.ctx_width))
    x = stream_rng(23, 4).normal(size=cfg.concept_dim)
    cond = condition(params, cfg, c, sched)
    want = denoise_concat(params, cfg, np.stack([x, x]), 5, c, True, sched)
    np.testing.assert_allclose(denoise(params, cfg, x, 5, cond), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("t", [-1, 8])
def test_denoise_rejects_level_outside_schedule(t):
    cfg = _model_cfg()
    params = _rand_params(cfg)
    cond = condition(params, cfg, np.zeros(cfg.ctx_width), build_schedule(8))
    with pytest.raises(ValueError, match=f"t={t} outside schedule with 8 levels"):
        denoise(params, cfg, np.zeros(cfg.concept_dim), t, cond)


@pytest.mark.parametrize(("xt_shape", "c_shape", "needle"), [
    ((5,), (16,), "xt must have shape"),
    ((3, 6), (2, 16), "do not match the table's rows"),
    ((6,), (15,), "context must have shape"),
], ids=["xt-dim", "xt-rows", "context-dim"])
def test_condition_and_denoise_reject_wrong_shapes(xt_shape, c_shape, needle):
    cfg = _model_cfg()
    params = _rand_params(cfg)
    with pytest.raises(ValueError, match=needle):
        cond = condition(params, cfg, np.zeros(c_shape), build_schedule(8))
        denoise(params, cfg, np.zeros(xt_shape), 1, cond)


# ---------------------------------------------------------------------------
# loss


def _one_item(d=6, key=0):
    rng = stream_rng(23, key)
    return items_from_sequences([EmbeddingSequence(embeddings=rng.normal(size=(2, d)))])[0]


def test_loss_zero_at_fixed_point():
    # zero target plus the zero-initialized output head is an exact solution
    cfg = _model_cfg()
    params = _rand_params(cfg)
    sched = build_schedule(8)
    item = _one_item()
    item = type(item)(prefix=item.prefix, target=np.zeros(6))
    loss, grads, _ = diffusion_loss(params, cfg, [item], sched, 0.0, stream_rng(23, 9))
    assert loss == 0.0


def test_loss_guidance_extremes_and_counter():
    cfg = _model_cfg()
    params = _rand_params(cfg)
    params["den.out_w"] = stream_rng(23, 1).normal(
        size=params["den.out_w"].shape
    ) * 0.1
    sched = build_schedule(8)
    batch = [_one_item(key=k) for k in range(8)]
    _, grads_all_dropped, dropped = diffusion_loss(
        params, cfg, batch, sched, 1.0, stream_rng(23, 10)
    )
    assert dropped == 8
    for key, g in grads_all_dropped.items():
        if key.startswith("ctx."):
            assert np.all(g == 0.0), key
    assert float(np.linalg.norm(grads_all_dropped["null_ctx"])) > 0.0

    _, grads_none_dropped, kept = diffusion_loss(
        params, cfg, batch, sched, 0.0, stream_rng(23, 10)
    )
    assert kept == 0
    assert np.all(grads_none_dropped["null_ctx"] == 0.0)

    # Each gradient is its own array, in `params` order: clipping scales them in place.
    for grads in (grads_all_dropped, grads_none_dropped):
        assert list(grads) == list(params)
        arrays = list(grads.values())
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[:i])


def _mixed_batch(d=6):
    """Items with prefix lengths 1 to 5, in shuffled order."""
    rng = stream_rng(23, 20)
    seqs = [EmbeddingSequence(embeddings=rng.normal(size=(6, d))) for _ in range(2)]
    items = items_from_sequences(seqs)
    return [items[int(i)] for i in rng.permutation(len(items))]


def _live_params(cfg):
    params = _rand_params(cfg)
    # non-trivial output head so the loss depends on every tower
    params["den.out_w"] = stream_rng(24, 0).normal(
        size=params["den.out_w"].shape
    ) * 0.3
    return params


def test_diffusion_loss_batch_matches_per_item_calls():
    cfg = _model_cfg()
    params = _live_params(cfg)
    sched = build_schedule(6)
    batch = _mixed_batch()
    loss, grads, dropped = diffusion_loss(params, cfg, batch, sched, 0.3, stream_rng(25, 7))
    assert 0 < dropped < len(batch)

    # One generator shared by consecutive single-item calls draws in the same
    # order as the batched call.
    rng = stream_rng(25, 7)
    ref_loss, ref_dropped = 0.0, 0
    ref_grads = {k: np.zeros_like(v) for k, v in params.items()}
    for item in batch:
        item_loss, item_grads, item_dropped = diffusion_loss(params, cfg, [item], sched, 0.3, rng)
        ref_loss += item_loss
        ref_dropped += item_dropped
        for key in ref_grads:
            ref_grads[key] += item_grads[key]
    assert dropped == ref_dropped
    assert loss == pytest.approx(ref_loss, rel=0, abs=1e-12)
    for key in params:
        np.testing.assert_allclose(grads[key], ref_grads[key], rtol=0, atol=1e-12, err_msg=key)


def test_diffusion_loss_runs_the_last_context_layer_on_one_row_per_prefix(monkeypatch):
    calls = []
    real = latentdiff.attention_forward

    def recording(x, *args, **kwargs):
        out, cache = real(x, *args, **kwargs)
        calls.append((x.shape, out.shape))
        return out, cache

    monkeypatch.setattr(latentdiff, "attention_forward", recording)
    cfg = _model_cfg(ctx_layers=3)
    batch = _mixed_batch()
    diffusion_loss(_live_params(cfg), cfg, batch, build_schedule(6), 0.0, stream_rng(25, 7))
    rows = (len(batch), max(item.prefix.shape[0] for item in batch), cfg.ctx_width)
    assert calls == [(rows, rows), (rows, rows), (rows, (len(batch), cfg.ctx_width))]


def _check_loss_grads(cfg, params, batch, sched, rng_key):
    loss, grads, _ = diffusion_loss(params, cfg, batch, sched, 0.3, stream_rng(*rng_key))
    assert loss > 0.0
    # The finite differences run the forward pass alone, on the same draws.
    t, eps, conditioned = _draw_items(len(batch), cfg, sched, 0.3, stream_rng(*rng_key))
    assert _loss_forward(params, cfg, batch, sched, t, eps, conditioned)[0] == loss

    worst = 0.0
    for key in params:
        base = params[key]

        def f(flat, _key=key):
            p2 = dict(params)
            p2[_key] = flat.reshape(base.shape)
            return _loss_forward(p2, cfg, batch, sched, t, eps, conditioned)[0]

        err = grad_check(f, grads[key].ravel(), base.ravel(), eps=1e-5)
        worst = max(worst, err)
        assert err < 1e-4, f"{key}: {err}"
    assert worst < 1e-5  # typical values are far tighter


def test_diffusion_loss_grad_check():
    cfg = _model_cfg()
    params = _live_params(cfg)
    sched = build_schedule(6)
    batch = [_one_item(key=k) for k in range(3)]
    _check_loss_grads(cfg, params, batch, sched, (25, 0))


def test_diffusion_loss_grad_check_mixed_lengths():
    cfg = _model_cfg()
    params = _live_params(cfg)
    sched = build_schedule(6)
    batch = _mixed_batch()
    _, _, dropped = diffusion_loss(params, cfg, batch, sched, 0.3, stream_rng(25, 7))
    assert 0 < dropped < len(batch)
    _check_loss_grads(cfg, params, batch, sched, (25, 7))


def test_val_loss_matches_per_item_reference(monkeypatch):
    monkeypatch.setattr(latentdiff, "VAL_BLOCK", 4)  # 10 items: blocks of 4, 4 and 2
    cfg = _model_cfg()
    params = _live_params(cfg)
    sched = build_schedule(6)
    items = _mixed_batch()
    rng = stream_rng(11, _STREAM_VAL)
    total = 0.0
    for item in items:
        t = int(rng.integers(0, sched.steps))
        eps = rng.standard_normal(cfg.concept_dim)
        c = context_tower(params, cfg, item.prefix)[-1]
        xt = forward_diffuse(item.target, t, eps, sched)
        pred = denoise(params, cfg, xt, t, condition(params, cfg, c, sched))
        dist = float(np.linalg.norm(item.target - pred))
        total += dist
    got = _val_loss(params, cfg, items, sched, 11)
    assert got == pytest.approx(total / len(items), rel=0, abs=1e-12)


def test_items_from_sequences_prefix_structure():
    rng = stream_rng(26, 0)
    seq = EmbeddingSequence(embeddings=rng.normal(size=(4, 3)))
    items = items_from_sequences([seq])
    assert len(items) == 3
    for i, item in enumerate(items):
        assert item.prefix.shape == (i + 1, 3)
        assert np.array_equal(item.prefix, seq.embeddings[: i + 1])
        assert np.array_equal(item.target, seq.embeddings[i + 1])


# ---------------------------------------------------------------------------
# trainer


def _lcm_lr(step, cfg):
    return warmup_cosine(step, cfg.max_steps, cfg.warmup_steps, cfg.lr, cfg.final_lr)


def test_lcm_lr_endpoints():
    cfg = LcmTrainConfig(lr=3e-5, final_lr=1e-6, warmup_steps=300, max_steps=1000)
    assert _lcm_lr(0, cfg) == 0.0
    assert _lcm_lr(300, cfg) == pytest.approx(3e-5, abs=1e-20)
    assert _lcm_lr(1000, cfg) == pytest.approx(1e-6, abs=1e-12)


def test_lcm_lr_cosine_midpoint():
    cfg = LcmTrainConfig(lr=2e-4, final_lr=0.0, warmup_steps=100, max_steps=300)
    assert _lcm_lr(200, cfg) == pytest.approx(1e-4, abs=1e-18)


def _memorize_setup(d=6):
    seq = EmbeddingSequence(embeddings=stream_rng(27, 0).normal(size=(2, d)))
    mcfg = _model_cfg(concept_dim=d)
    sched = build_schedule(12)
    return seq, mcfg, sched


def test_train_lcm_memorization_smoke():
    seq, mcfg, sched = _memorize_setup()
    tcfg = LcmTrainConfig(lr=5e-3, final_lr=1e-5, warmup_steps=20, max_steps=200,
                          batch_size=8, seed=4, val_every=50, ckpt_every=10**6)
    _, history = train_lcm([seq], mcfg, tcfg, sched)
    first = history.steps[0].loss
    tail = float(np.mean([r.loss for r in history.steps[-10:]]))
    assert tail < 0.1 * first
    for r in history.steps:
        assert r.grad_norm <= 25.0 + 1e-9


def test_train_lcm_deterministic():
    seq, mcfg, sched = _memorize_setup()
    tcfg = LcmTrainConfig(lr=1e-3, final_lr=1e-5, warmup_steps=5, max_steps=30,
                          batch_size=4, seed=5, val_every=10, ckpt_every=10**6)
    params_a, hist_a = train_lcm([seq], mcfg, tcfg, sched)
    params_b, hist_b = train_lcm([seq], mcfg, tcfg, sched)
    assert hist_a.steps == hist_b.steps
    assert hist_a.vals == hist_b.vals
    for key in params_a:
        assert np.array_equal(params_a[key], params_b[key])


def test_train_lcm_checkpoint_resume_matches(tmp_path):
    seq, mcfg, sched = _memorize_setup()
    tcfg = LcmTrainConfig(lr=1e-3, final_lr=1e-5, warmup_steps=5, max_steps=60,
                          batch_size=4, seed=6, val_every=20, ckpt_every=20)
    params_full, hist_full = train_lcm([seq], mcfg, tcfg, sched, out_dir=tmp_path / "full")
    ckpt = tmp_path / "full" / "checkpoints" / "step-000040"
    assert ckpt.is_dir()
    params_res, hist_res = train_lcm([seq], mcfg, tcfg, sched, resume=ckpt)
    assert hist_res.steps == hist_full.steps[40:]
    assert hist_res.best_val == hist_full.best_val
    for key in params_full:
        assert np.array_equal(params_res[key], params_full[key])


def test_train_lcm_best_tensors_are_not_the_live_weights(tmp_path, monkeypatch):
    live = []

    class RecordingAdamW(AdamW):
        def step(self, params, grads, lr):
            live[:] = [*params.values(), *self.m.values(), *self.v.values()]
            super().step(params, grads, lr)

    monkeypatch.setattr(latentdiff, "AdamW", RecordingAdamW)
    seq, mcfg, sched = _memorize_setup()
    tcfg = LcmTrainConfig(lr=1e-3, final_lr=1e-5, warmup_steps=5, max_steps=40,
                          batch_size=4, seed=6, val_every=10, ckpt_every=20)
    for resume in (None, tmp_path / "full" / "checkpoints" / "step-000020"):
        best, history = train_lcm([seq], mcfg, tcfg, sched, out_dir=tmp_path / "full",
                                  resume=resume)
        assert history.best_step > 0
        assert not any(np.shares_memory(b, a) for b in best.values() for a in live)


def test_init_loads_and_trainer_copies_are_one_vector_each(tmp_path):
    # AdamW steps a model only as one run of one buffer (optim.flat_span).
    seq, mcfg, sched = _memorize_setup()
    tcfg = LcmTrainConfig(lr=1e-3, final_lr=1e-5, warmup_steps=5, max_steps=40,
                          batch_size=4, seed=6, val_every=10, ckpt_every=20)
    models = {"init": init_two_tower(mcfg, stream_rng(0, 0))}
    save_lcm(tmp_path / "m", models["init"], mcfg)
    models["load_lcm"] = load_lcm(tmp_path / "m")[0]
    models["best"], history = train_lcm([seq], mcfg, tcfg, sched, out_dir=tmp_path / "run")
    assert history.best_step > 0
    ckpt = tmp_path / "run" / "checkpoints" / "step-000020"
    models["resumed best"], _ = train_lcm([seq], mcfg, tcfg, sched, resume=ckpt)
    opt = AdamW()
    schedule = {"steps": 12, "lambda_max": 10.0, "lambda_min": -10.0}
    state = checkpoints.load_lcm_train_state(ckpt, opt, mcfg, tcfg,
                                             checkpoints.corpus_sha256([seq]), schedule)
    models |= {"state model": state[0], "state best": state[3][2], "m": opt.m, "v": opt.v}
    for label, tensors in models.items():
        assert list(tensors) == list(latentdiff.layout(mcfg)), label
        assert flat_span(tensors).size == sum(t.size for t in tensors.values()), label


def test_train_lcm_divergence_aborts_with_step():
    seq, mcfg, sched = _memorize_setup()
    tcfg = LcmTrainConfig(lr=1e200, final_lr=1e-6, warmup_steps=0, max_steps=50,
                          batch_size=4, seed=7, val_every=50, ckpt_every=10**6)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError) as exc:
            train_lcm([seq], mcfg, tcfg, sched)
    assert exc.value.step > 0


# ---------------------------------------------------------------------------
# sampling


def test_sample_single_level_collapse():
    cfg = _model_cfg()
    params = _rand_params(cfg)
    sched = NoiseSchedule(alpha=np.array([0.9]), sigma=np.array([math.sqrt(0.19)]),
                          log_snr=np.array([math.log(0.81 / 0.19)]))
    prefix = stream_rng(28, 0).normal(size=(2, 6))
    out = sample_next(params, cfg, prefix, sched, guidance_scale=0.0,
                      rng=stream_rng(28, 1))
    c = contextualize(params, cfg, prefix)
    x_noise = stream_rng(28, 1).standard_normal(6)
    expected = denoise(params, cfg, x_noise, 0, condition(params, cfg, c, sched))
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_sample_zero_guidance_matches_conditional_loop():
    cfg = _model_cfg()
    params = _rand_params(cfg)
    params["den.out_w"] = stream_rng(28, 2).normal(
        size=params["den.out_w"].shape
    ) * 0.2
    sched = build_schedule(6)
    prefix = stream_rng(28, 3).normal(size=(3, 6))
    out = sample_next(params, cfg, prefix, sched, guidance_scale=0.0,
                      rng=stream_rng(28, 4))

    cond = condition(params, cfg, contextualize(params, cfg, prefix), sched)
    x = stream_rng(28, 4).standard_normal(6)
    x_hat = None
    for t in range(sched.steps - 1, 0, -1):
        x_hat = denoise(params, cfg, x, t, cond)
        eps_hat = (x - sched.alpha[t] * x_hat) / sched.sigma[t]
        x = sched.alpha[t - 1] * x_hat + sched.sigma[t - 1] * eps_hat
    np.testing.assert_allclose(out, x_hat, atol=1e-12)


def test_sample_guided_matches_two_call_loop():
    cfg = _model_cfg()
    params = _rand_params(cfg)
    params["den.out_w"] = stream_rng(28, 5).normal(
        size=params["den.out_w"].shape
    ) * 0.2
    params["null_ctx"] = stream_rng(28, 6).normal(size=cfg.ctx_width)
    sched = build_schedule(6)
    prefix = stream_rng(28, 7).normal(size=(4, 6))
    out = sample_next(params, cfg, prefix, sched, guidance_scale=1.5,
                      rng=stream_rng(28, 8))

    c = contextualize(params, cfg, prefix)
    table_c = condition(params, cfg, c, sched)
    table_u = condition(params, cfg, params["null_ctx"], sched)
    x = stream_rng(28, 8).standard_normal(6)
    x_hat = None
    for t in range(sched.steps - 1, 0, -1):
        cond = denoise(params, cfg, x, t, table_c)
        uncond = denoise(params, cfg, x, t, table_u)
        x_hat = 2.5 * cond - 1.5 * uncond
        eps_hat = (x - sched.alpha[t] * x_hat) / sched.sigma[t]
        x = sched.alpha[t - 1] * x_hat + sched.sigma[t - 1] * eps_hat
    np.testing.assert_allclose(out, x_hat, rtol=0, atol=1e-12)


@pytest.mark.parametrize("guidance", [0.0, 1.5])
def test_sample_calls_denoise_once_per_level(monkeypatch, guidance):
    # The per-level work stays in `latentdiff.denoise`, looked up at each call,
    # so a wrapper put on the module attribute (the bench tracer's) sees it.
    cfg = _model_cfg()
    params = _rand_params(cfg)
    sched = build_schedule(7)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return denoise(*args, **kwargs)

    monkeypatch.setattr(latentdiff, "denoise", counted)
    sample_next(params, cfg, stream_rng(28, 9).normal(size=(2, 6)), sched,
                guidance_scale=guidance, rng=stream_rng(28, 10))
    assert calls == list(range(sched.steps - 1, 0, -1))


@pytest.mark.parametrize(("kw", "needle"), [
    ({"eta": -1.0}, "eta must be finite and >= 0, got -1.0"),
    ({"eta": math.nan}, "eta must be finite and >= 0, got nan"),
    ({"eta": math.inf}, "eta must be finite and >= 0, got inf"),
    ({"guidance_scale": math.nan}, "guidance_scale must be finite, got nan"),
    ({"guidance_scale": -math.inf}, "guidance_scale must be finite, got -inf"),
])
def test_sample_rejects_bad_eta_and_guidance(kw, needle):
    cfg = _model_cfg()
    params = _rand_params(cfg)
    with pytest.raises(ValueError, match=re.escape(needle)):
        sample_next(params, cfg, np.zeros((1, 6)), build_schedule(6), **kw)


def test_sample_deterministic_given_seed():
    cfg = _model_cfg()
    params = _rand_params(cfg)
    sched = build_schedule(8)
    prefix = stream_rng(29, 0).normal(size=(2, 6))
    a = sample_next(params, cfg, prefix, sched, guidance_scale=1.5, rng=stream_rng(9, 9))
    b = sample_next(params, cfg, prefix, sched, guidance_scale=1.5, rng=stream_rng(9, 9))
    assert np.array_equal(a, b)


def test_sample_guidance_changes_output():
    cfg = _model_cfg()
    params = _rand_params(cfg)
    params["den.out_w"] = stream_rng(29, 1).normal(
        size=params["den.out_w"].shape
    ) * 0.2
    sched = build_schedule(8)
    prefix = stream_rng(29, 2).normal(size=(2, 6))
    plain = sample_next(params, cfg, prefix, sched, guidance_scale=0.0, rng=stream_rng(9, 9))
    guided = sample_next(params, cfg, prefix, sched, guidance_scale=2.0, rng=stream_rng(9, 9))
    assert float(np.linalg.norm(plain - guided)) > 1e-10


def test_sample_eta_injects_seeded_noise():
    cfg = _model_cfg()
    params = _rand_params(cfg)
    params["den.out_w"] = stream_rng(29, 3).normal(
        size=params["den.out_w"].shape
    ) * 0.2
    sched = build_schedule(8)
    prefix = stream_rng(29, 4).normal(size=(2, 6))
    det = sample_next(params, cfg, prefix, sched, rng=stream_rng(9, 9), eta=0.0)
    sto = sample_next(params, cfg, prefix, sched, rng=stream_rng(9, 9), eta=1.0)
    sto2 = sample_next(params, cfg, prefix, sched, rng=stream_rng(9, 9), eta=1.0)
    assert np.array_equal(sto, sto2)
    assert not np.array_equal(det, sto)


def test_sample_next_with_eta_rejects_a_zero_alpha_below_the_noisiest_level():
    cfg = _model_cfg()
    params = _rand_params(cfg)
    prefix = stream_rng(29, 4).normal(size=(2, 6))
    # Log-SNR -720, -760, -800: alpha is 0 at every level, and level 1 is divided by.
    sched = build_schedule(3, -720.0, -800.0)
    with pytest.raises(ValueError, match="lambda_min -800 puts level 1 .* where alpha is 0"):
        sample_next(params, cfg, prefix, sched, rng=stream_rng(9, 9), eta=1.0)
    with np.errstate(all="raise"):
        assert np.all(np.isfinite(sample_next(params, cfg, prefix, sched, rng=stream_rng(9, 9))))
    # Log-SNR 10, -395, -800: alpha is 0 only at the noisiest level, which no step divides by.
    sched = build_schedule(3, 10.0, -800.0)
    with np.errstate(all="raise"):
        z = sample_next(params, cfg, prefix, sched, rng=stream_rng(9, 9), eta=1.0)
    assert np.all(np.isfinite(z))


# ---------------------------------------------------------------------------
# config and checkpoint plumbing


def test_model_config_dict_round_trip():
    cfg = _model_cfg(ffn_mult=3)
    assert from_dict(LcmModelConfig, asdict(cfg)) == cfg


def test_schedule_config_defaults_types_and_range():
    assert asdict(ScheduleConfig()) == {"steps": 40, "lambda_max": 10.0, "lambda_min": -10.0}
    cfg = from_dict(ScheduleConfig, {"steps": 6, "lambda_max": 3})
    assert cfg.lambda_max == 3.0 and isinstance(cfg.lambda_max, float)
    for bad in ({"steps": "x"}, {"steps": 6.0}, {"steps": True}, {"lambda_min": "-1"}):
        with pytest.raises(TypeError):
            from_dict(ScheduleConfig, bad)
    for bad in ({"steps": 1}, {"lambda_max": -20.0}):
        with pytest.raises(ValueError):
            from_dict(ScheduleConfig, bad)
    with pytest.raises(ValueError, match="lamda_max"):
        from_dict(ScheduleConfig, {"lamda_max": 3.0})


def test_schedule_config_rejects_a_zero_sigma_above_the_clean_level():
    with pytest.raises(ValueError, match="lambda_max 800 puts level 1 .* where sigma is 0"):
        ScheduleConfig(steps=200, lambda_max=800.0, lambda_min=-800.0)
    # Level 0 is never divided by, so its sigma may be 0; alpha 0 matters only to eta > 0.
    assert ScheduleConfig(steps=2, lambda_max=800.0).lambda_max == 800.0
    assert ScheduleConfig(steps=40, lambda_min=-760.0).lambda_min == -760.0


def test_lcm_checkpoint_round_trip(tmp_path):
    cfg = _model_cfg()
    params = _rand_params(cfg, key=3)
    save_lcm(tmp_path / "ck", params, cfg, extra_meta={"seed": 17})
    loaded, loaded_cfg, meta = load_lcm(tmp_path / "ck")
    assert loaded_cfg == cfg
    assert meta["seed"] == 17
    for key in params:
        assert np.array_equal(loaded[key], params[key])


@pytest.mark.parametrize("fail_at", [1, 4, 7])
def test_failed_save_keeps_old_checkpoint(tmp_path, monkeypatch, fail_at):
    cfg = _model_cfg()
    old = _rand_params(cfg, key=3)
    save_lcm(tmp_path / "ck", old, cfg, extra_meta={"seed": 1})
    before = {p.name: p.read_bytes() for p in (tmp_path / "ck").iterdir()}
    streamed = []

    class FullDisk:
        """tensors.bin with room for its header and `fail_at` tensors."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if len(streamed) == fail_at + 1:
                raise OSError("disk full")
            streamed.append(len(data))
            return self.fh.write(data)

    def open_full_disk(path, mode="r", **kwargs):
        assert Path(path).name == checkpoints.TENSOR_FILE and mode == "wb"
        return FullDisk(open(path, mode, **kwargs))

    monkeypatch.setattr(checkpoints, "open", open_full_disk, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_lcm(tmp_path / "ck", _rand_params(cfg, key=4), cfg, extra_meta={"seed": 2})
    assert len(streamed) == fail_at + 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]
    assert {p.name: p.read_bytes() for p in (tmp_path / "ck").iterdir()} == before
    loaded, _, meta = load_lcm(tmp_path / "ck")
    assert meta["seed"] == 1
    for key in old:
        assert loaded[key].tobytes() == old[key].tobytes()


def test_save_replaces_old_checkpoint_completely(tmp_path):
    cfg = _model_cfg()
    save_lcm(tmp_path / "ck", _rand_params(cfg, key=3), cfg, extra_meta={"seed": 1})
    (tmp_path / "ck" / "stale.bin").write_bytes(b"old")
    new = _rand_params(cfg, key=4)
    save_lcm(tmp_path / "ck", new, cfg, extra_meta={"seed": 2})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]
    assert not (tmp_path / "ck" / "stale.bin").exists()
    loaded, _, meta = load_lcm(tmp_path / "ck")
    assert meta["seed"] == 2
    for key in new:
        assert np.array_equal(loaded[key], new[key])


def test_save_refuses_non_finite_tensor_and_keeps_old_checkpoint(tmp_path):
    cfg = _model_cfg()
    save_lcm(tmp_path / "ck", _rand_params(cfg, key=3), cfg, extra_meta={"seed": 1})
    before = {p.name: p.read_bytes() for p in (tmp_path / "ck").iterdir()}
    bad = _rand_params(cfg, key=4)
    bad[list(bad)[-1]][0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        save_lcm(tmp_path / "ck", bad, cfg, extra_meta={"seed": 2})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]
    assert {p.name: p.read_bytes() for p in (tmp_path / "ck").iterdir()} == before


def test_resume_refuses_other_corpus(tmp_path):
    seq, mcfg, sched = _memorize_setup()
    tcfg = LcmTrainConfig(lr=1e-3, final_lr=1e-5, warmup_steps=5, max_steps=20,
                          batch_size=4, seed=6, val_every=10, ckpt_every=10)
    train_lcm([seq], mcfg, tcfg, sched, out_dir=tmp_path / "full")
    ckpt = tmp_path / "full" / "checkpoints" / "step-000010"
    other = EmbeddingSequence(embeddings=seq.embeddings + 1e-12)
    for corpus in ([other], [seq, seq]):
        with pytest.raises(ValueError, match="corpus"):
            train_lcm(corpus, mcfg, tcfg, sched, resume=ckpt)
    _, history = train_lcm([seq], mcfg, tcfg, sched, resume=ckpt)
    assert len(history.steps) == 10
