"""Tests for alignment losses, the LR schedule, AdamW, and stage training."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from conceptspace import aligner
from conceptspace.aligner import (
    AlignConfig,
    combined_loss,
    infonce_loss,
    mse_align_loss,
    run_curriculum,
    train_stage,
    apply_stage_overrides,
)
from conceptspace.corpus import (
    CurriculumStage,
    PairedDataset,
    gen_synthetic_pairs,
    make_world,
)
from conceptspace.numerics import stream_rng
from conceptspace.optim import (
    CHUNK,
    AdamW,
    TrainingDivergedError,
    clip_global_norm,
    flat_copy,
    flat_span,
    global_grad_norm,
    tensor_views,
    warmup_cosine,
)
from conceptspace.checkpoints import load_projector, save_projector
from conceptspace.projector import ADAPTER_KEY, ProjectorConfig, init_projector, layout
from oracles import grad_check

# -log(e^2 / (e^2 + e^-2)) = log(1 + e^-4), frozen from 50-digit mpmath.
OPPOSITE_PAIR_ROW_LOSS = 0.018149927917809740
LN4 = 1.3862943611198906


def _align_cfg(**kw):
    base = dict(seed=7, lr_projector=1e-2, lr_encoder_adapter=1e-3,
                freeze_steps=0, warmup_steps=5, max_epochs=3, batch_size=16,
                patience=3)
    base.update(kw)
    return AlignConfig(**base)


# ---------------------------------------------------------------------------
# losses


def test_mse_zero_at_match():
    z = stream_rng(0, 0).normal(size=(4, 3))
    loss, grad = mse_align_loss(z, z.copy())
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_mse_hand_case():
    loss, grad = mse_align_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))
    assert loss == pytest.approx(1.0)
    np.testing.assert_allclose(grad, [[2.0, 0.0]])


def test_mse_rejects_empty_batch():
    with pytest.raises(ValueError):
        mse_align_loss(np.zeros((0, 2)), np.zeros((0, 2)))


def test_mse_grad_check():
    zv = stream_rng(0, 1).normal(size=(5, 4))
    zt = stream_rng(0, 2).normal(size=(5, 4))
    _, grad = mse_align_loss(zv, zt)

    def f(flat):
        return mse_align_loss(flat.reshape(zv.shape), zt)[0]

    assert grad_check(f, grad.ravel(), zv.ravel(), eps=1e-5) < 1e-8


def test_mse_nonnegative_property():
    rng = stream_rng(0, 3)
    for _ in range(20):
        zv = rng.normal(size=(6, 3))
        zt = rng.normal(size=(6, 3))
        loss, _ = mse_align_loss(zv, zt)
        assert loss >= 0.0


def test_infonce_uniform_similarities_give_log_b():
    u = np.array([1.0, 0.0, 0.0])
    zv = np.tile(u, (4, 1))
    zt = np.tile(u * 2.0, (4, 1))  # scale must not matter for cosine
    loss, _ = infonce_loss(zv, zt, tau=0.07)
    assert loss == pytest.approx(LN4, abs=1e-12)


def test_infonce_opposite_pair_oracle():
    e = np.array([1.0, 0.0])
    zv = np.stack([e, -e])
    zt = np.stack([e, -e])
    loss, _ = infonce_loss(zv, zt, tau=0.5)
    assert loss == pytest.approx(OPPOSITE_PAIR_ROW_LOSS, abs=1e-12)


def test_infonce_rejects_zero_rows():
    with pytest.raises(ValueError):
        infonce_loss(np.zeros((2, 3)), np.ones((2, 3)), tau=0.1)


def test_infonce_grad_check():
    zv = stream_rng(1, 0).normal(size=(6, 5))
    zt = stream_rng(1, 1).normal(size=(6, 5))
    _, grad = infonce_loss(zv, zt, tau=0.2)

    def f(flat):
        return infonce_loss(flat.reshape(zv.shape), zt, tau=0.2)[0]

    assert grad_check(f, grad.ravel(), zv.ravel(), eps=1e-5) < 1e-6


def test_combined_reduces_to_mse():
    zv = stream_rng(1, 2).normal(size=(4, 3))
    zt = stream_rng(1, 3).normal(size=(4, 3))
    cfg = _align_cfg(lambda_con=0.0)
    loss, grad = combined_loss(zv, zt, cfg)
    ref_loss, ref_grad = mse_align_loss(zv, zt)
    assert loss == ref_loss
    assert np.array_equal(grad, ref_grad)


def test_combined_matches_hand_sum():
    zv = stream_rng(1, 4).normal(size=(2, 3))
    zt = stream_rng(1, 5).normal(size=(2, 3))
    cfg = _align_cfg(lambda_con=1.0, tau=0.3)
    loss, _ = combined_loss(zv, zt, cfg)
    assert loss == pytest.approx(
        mse_align_loss(zv, zt)[0] + infonce_loss(zv, zt, 0.3)[0], abs=1e-12
    )


def test_combined_affine_in_lambda():
    zv = stream_rng(1, 6).normal(size=(3, 4))
    zt = stream_rng(1, 7).normal(size=(3, 4))
    losses = {}
    for lam in (0.0, 1.0, 2.0):
        losses[lam], _ = combined_loss(zv, zt, _align_cfg(lambda_con=lam))
    assert (losses[2.0] - losses[0.0]) == pytest.approx(
        2.0 * (losses[1.0] - losses[0.0]), abs=1e-12
    )


def test_combined_grad_check_with_contrastive_term():
    zv = stream_rng(1, 8).normal(size=(5, 4))
    zt = stream_rng(1, 9).normal(size=(5, 4))
    cfg = _align_cfg(lambda_con=0.5, tau=0.1)
    _, grad = combined_loss(zv, zt, cfg)

    def f(flat):
        return combined_loss(flat.reshape(zv.shape), zt, cfg)[0]

    assert grad_check(f, grad.ravel(), zv.ravel(), eps=1e-5) < 1e-6


# ---------------------------------------------------------------------------
# learning-rate schedule


def test_schedule_starts_at_zero():
    cfg = _align_cfg(warmup_steps=10, freeze_steps=0)
    assert warmup_cosine(0, 100, cfg.warmup_steps, cfg.lr_projector) == 0.0
    assert warmup_cosine(0, 100, cfg.warmup_steps, cfg.lr_encoder_adapter) == 0.0


def test_schedule_peak_at_warmup_end():
    cfg = _align_cfg(warmup_steps=10, freeze_steps=0)
    lr_p = warmup_cosine(10, 100, cfg.warmup_steps, cfg.lr_projector)
    lr_e = warmup_cosine(10, 100, cfg.warmup_steps, cfg.lr_encoder_adapter)
    assert lr_p == pytest.approx(cfg.lr_projector)
    assert lr_e == pytest.approx(cfg.lr_encoder_adapter)


def test_schedule_adapter_zero_while_frozen():
    # The freeze gate lives in train_stage: 86 training rows at batch 16 give
    # 6 steps per epoch, 18 in all, so steps 0-11 are frozen and 12-17 joint.
    ds = _easy_dataset(n=96)
    proj_cfg = _proj_cfg()
    cfg = _align_cfg(warmup_steps=10, freeze_steps=12, max_epochs=3, patience=3)
    params = init_projector(proj_cfg, stream_rng(cfg.seed, 1))
    _, history = train_stage(ds, params, proj_cfg, cfg)
    total = len(history.steps)
    assert total == 18
    for r in history.steps:
        assert r.lr_proj == warmup_cosine(r.step, total, 10, cfg.lr_projector)
        if r.step < 12:
            assert r.lr_enc == 0.0 and r.phase == "frozen"
        else:
            assert r.lr_enc > 0.0 and r.phase == "joint"
    assert history.steps[10].lr_proj == pytest.approx(cfg.lr_projector)


def test_schedule_cosine_midpoint_is_half_peak():
    cfg = _align_cfg(warmup_steps=20, freeze_steps=0)
    lr_p = warmup_cosine(60, 100, cfg.warmup_steps, cfg.lr_projector)  # halfway through the decay span
    assert lr_p == pytest.approx(0.5 * cfg.lr_projector, abs=1e-15)


def test_schedule_ends_at_zero():
    cfg = _align_cfg(warmup_steps=5, freeze_steps=0)
    lr_p = warmup_cosine(100, 100, cfg.warmup_steps, cfg.lr_projector)
    lr_e = warmup_cosine(100, 100, cfg.warmup_steps, cfg.lr_encoder_adapter)
    assert lr_p == pytest.approx(0.0, abs=1e-12)
    assert lr_e == pytest.approx(0.0, abs=1e-12)


def test_schedule_rejects_short_horizon():
    cfg = _align_cfg(warmup_steps=50)
    with pytest.raises(ValueError):
        warmup_cosine(0, 10, cfg.warmup_steps, cfg.lr_projector)


# ---------------------------------------------------------------------------
# optimizer helpers


def test_adamw_first_step_magnitude():
    # bias-corrected first step moves by almost exactly lr
    opt = AdamW()
    params = {"p": np.array([1.0])}
    opt.step(params, {"p": np.array([1.0])}, 0.01)
    assert params["p"][0] == pytest.approx(1.0 - 0.01, abs=1e-9)


def test_adamw_decoupled_weight_decay():
    opt = AdamW(weight_decay=0.1)
    params = {"p": np.array([2.0])}
    opt.step(params, {"p": np.array([0.0])}, 0.5)
    # zero gradient: only the decay term -lr*wd*p fires
    assert params["p"][0] == pytest.approx(2.0 - 0.5 * 0.1 * 2.0)


def test_adamw_skip_leaves_tensor_and_moments_alone():
    # A tensor skipped for a while is its own group, whose AdamW is not stepped.
    opt_a, opt_b = AdamW(), AdamW()
    params = {"a": np.array([1.0]), "b": np.array([1.0])}
    grads = {"a": np.array([1.0]), "b": np.array([1.0])}
    group_a, group_b = {"a": params["a"]}, {"b": params["b"]}
    opt_a.step(group_a, grads, 0.1)
    assert params["b"][0] == 1.0 and not opt_b.m and opt_b.t == 0
    assert params["a"][0] != 1.0
    opt_a.step(group_a, grads, 0.1)
    opt_b.step(group_b, grads, 0.1)
    # b's first real update must look like a fresh first step, not a second one
    assert params["b"][0] == pytest.approx(1.0 - 0.1, abs=1e-8)
    assert (opt_a.t, opt_b.t) == (2, 1)


def test_adamw_per_key_learning_rates():
    # A tensor with a rate of its own is a group of its own.
    params = {"a": np.array([0.0]), "b": np.array([0.0])}
    grads = {"a": np.array([1.0]), "b": np.array([1.0])}
    AdamW().step({"a": params["a"]}, grads, 0.1)
    AdamW().step({"b": params["b"]}, grads, 0.2)
    assert params["a"][0] == pytest.approx(-0.1, abs=1e-8)
    assert params["b"][0] == pytest.approx(-0.2, abs=1e-8)


def test_adamw_steps_every_tensor_it_is_given():
    opt = AdamW()
    params = flat_copy({"a": np.array([1.0]), "b": np.array([1.0])})
    with pytest.raises(KeyError, match="'b'"):
        opt.step(params, {"a": np.array([1.0])}, 0.1)
    # The failed step changed nothing: the next one is a first step.
    assert opt.t == 0 and params["a"][0] == 1.0
    opt.step(params, {"a": np.array([1.0]), "b": np.array([1.0])}, 0.1)
    assert params["a"][0] == pytest.approx(1.0 - 0.1, abs=1e-8)


def test_adamw_state_round_trip():
    rng = stream_rng(2, 0)
    params = {"w": rng.normal(size=(3,))}
    opt = AdamW()
    for k in range(4):
        opt.step(params, {"w": rng.normal(size=(3,))}, 0.05)
    saved = ({k: v.copy() for k, v in opt.m.items()}, {k: v.copy() for k, v in opt.v.items()},
             opt.t)
    next_grad = rng.normal(size=(3,))
    expected = {k: v.copy() for k, v in params.items()}
    opt.step(expected, {"w": next_grad}, 0.05)

    fresh = AdamW()
    fresh.m, fresh.v, fresh.t = saved
    fresh.step(params, {"w": next_grad}, 0.05)
    assert np.array_equal(params["w"], expected["w"])
    assert fresh.t == opt.t == 5


def _functional_adamw_step(state, params, grads, lr, b1=0.9, b2=0.999, eps=1e-8, wd=0.0):
    """Reference: the out-of-place AdamW update of one group, returning fresh tensors.

    It takes AdamW.step's float operations in their order: decay of the
    pre-step weights, sqrt(v) times 1/sqrt(1 - b2^t) plus eps, one division,
    then the lr/(1 - b1^t) factor. `state` is the group's (m, v, [t]).
    """
    m, v, steps = state
    steps[0] += 1
    t = steps[0]
    out = {}
    for key, p in params.items():
        g = grads[key]
        if key not in m:
            m[key], v[key] = np.zeros_like(p), np.zeros_like(p)
        m[key] = b1 * m[key] + (1.0 - b1) * g
        v[key] = b2 * v[key] + (1.0 - b2) * g * g
        decayed = p * (1.0 - lr * wd) if wd != 0.0 else p
        den = np.sqrt(v[key]) * (1.0 / math.sqrt(1.0 - b2**t)) + eps
        out[key] = decayed - m[key] / den * (lr / (1.0 - b1**t))
    return out


# Two parameter groups, as the aligner has: "frozen" starts late, at its own rate.
_GROUPS = {"main": ("w", "b"), "frozen": ("frozen",)}


def test_adamw_updates_in_place_bit_for_bit_with_functional_reference():
    rng = stream_rng(7, 0)
    shapes = {"w": (4, 3), "b": (3,), "frozen": (2, 2)}
    params = flat_copy({k: rng.normal(size=s) for k, s in shapes.items()})
    ref = {k: v.copy() for k, v in params.items()}
    lrs = {"main": 1e-2, "frozen": 3e-3}
    opts = {g: AdamW(weight_decay=0.05) for g in _GROUPS}
    ref_states = {g: ({}, {}, [0]) for g in _GROUPS}
    held = dict(params)
    for step in range(300):
        grads = {k: rng.normal(size=s) for k, s in shapes.items()}
        for g, keys in _GROUPS.items():
            if g == "frozen" and step < 150:
                continue
            assert opts[g].step({k: params[k] for k in keys}, grads, lrs[g]) is None
            ref |= _functional_adamw_step(ref_states[g], {k: ref[k] for k in keys}, grads,
                                          lrs[g], wd=0.05)
        for key in shapes:
            assert np.shares_memory(params[key], held[key])
            assert np.array_equal(params[key], ref[key]), (step, key)
    for g, keys in _GROUPS.items():
        assert list(opts[g].m) == list(keys)
        for key in keys:
            assert np.array_equal(opts[g].m[key], ref_states[g][0][key])
            assert np.array_equal(opts[g].v[key], ref_states[g][1][key])
    assert (opts["main"].t, opts["frozen"].t) == (300, 150)
    assert (ref_states["main"][2], ref_states["frozen"][2]) == ([300], [150])


def test_adamw_chunked_step_is_bit_for_bit_the_functional_reference():
    # Four chunks: "a" and "b" one each (together they pass CHUNK), "w" alone,
    # a tensor of more than two chunks' values, then "u".
    rng = stream_rng(7, 2)
    shapes = {"a": (100, 200), "b": (150, 100), "w": (250, 300), "u": (9, 7)}
    assert 20000 + 15000 > CHUNK and 2 * CHUNK < 250 * 300
    params = flat_copy({k: rng.normal(size=s) for k, s in shapes.items()})
    ref = {k: v.copy() for k, v in params.items()}
    opt, ref_state = AdamW(eps=1e-6, weight_decay=0.01), ({}, {}, [0])
    for step in range(20):
        grads = {k: rng.normal(size=s) for k, s in shapes.items()}
        opt.step(params, grads, 1e-2 * (step + 1))
        ref = _functional_adamw_step(ref_state, ref, grads, 1e-2 * (step + 1), eps=1e-6, wd=0.01)
        for key in shapes:
            assert np.array_equal(params[key], ref[key]), (step, key)
    for key in shapes:
        assert np.array_equal(opt.m[key], ref_state[0][key])
        assert np.array_equal(opt.v[key], ref_state[1][key])


def test_adamw_refuses_a_group_that_is_not_one_run_of_one_buffer():
    flat = np.zeros(10)
    views = tensor_views(flat, {"a": (2,), "b": (3,), "c": (5,)})
    grads = {k: np.ones_like(v) for k, v in views.items()}
    groups = [
        {"a": np.zeros(2), "b": np.zeros(3)},  # separate arrays
        {"a": views["a"], "c": views["c"]},  # a gap
        {"b": views["b"], "a": views["a"]},  # out of order
        {"a": views["a"], "b": np.zeros(3)},
        {"t": np.zeros((3, 2)).T},  # not C-contiguous
        {"a": views["a"].astype(np.float32)},
    ]
    for group in groups:
        with pytest.raises(ValueError):
            AdamW().step(group, grads | {"t": np.ones((2, 3))}, 0.1)
    assert np.all(flat == 0.0)
    AdamW().step({"b": views["b"], "c": views["c"]}, grads, 0.1)
    assert np.all(flat[:2] == 0.0) and np.all(flat[2:] < 0.0)


def test_adamw_matches_the_textbook_update():
    # m_hat / (sqrt(v_hat) + eps), with decay on the pre-step weights; eps is
    # large enough here that a misplaced eps or bias correction shows.
    b1, b2, eps, wd = 0.9, 0.999, 1e-3, 0.05
    rng = stream_rng(7, 1)
    shapes = {"w": (4, 3), "b": (3,), "frozen": (2, 2)}
    params = flat_copy({k: rng.normal(size=s) for k, s in shapes.items()})
    lrs = {"main": 1e-2, "frozen": 2e-2}
    opts = {g: AdamW(b1, b2, eps, wd) for g in _GROUPS}
    for step in range(200):
        grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-3, 2) for k, s in shapes.items()}
        skip = {"frozen"} if step < 100 else set()
        expected, moments = {}, {}
        for g, keys in _GROUPS.items():
            opt = opts[g]
            for key in keys:
                p = params[key]
                if g in skip:
                    expected[key] = p.copy()
                    continue
                grad, lr, t = grads[key], lrs[g], opt.t + 1
                m = b1 * opt.m.get(key, 0.0) + (1.0 - b1) * grad
                v = b2 * opt.v.get(key, 0.0) + (1.0 - b2) * grad * grad
                m_hat, v_hat = m / (1.0 - b1**t), v / (1.0 - b2**t)
                expected[key] = p - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * wd * p
                moments[key] = (m, v)
        for g, keys in _GROUPS.items():
            if g not in skip:
                opts[g].step({k: params[k] for k in keys}, grads, lrs[g])
        for g, keys in _GROUPS.items():
            for key in keys:
                p = params[key]
                if g in skip:
                    assert np.array_equal(p, expected[key]), (step, key)
                    assert key not in opts[g].m
                else:
                    np.testing.assert_allclose(p, expected[key], rtol=1e-12, atol=0,
                                               err_msg=f"{step} {key}")
                    assert np.array_equal(opts[g].m[key], moments[key][0])
                    assert np.array_equal(opts[g].v[key], moments[key][1])
    assert (opts["main"].t, opts["frozen"].t) == (200, 100)


def test_global_norm_and_clip():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    assert global_grad_norm(grads) == pytest.approx(5.0)
    assert global_grad_norm({"w": np.arange(6.0).reshape(2, 3).T}) == pytest.approx(math.sqrt(55.0))
    held = dict(grads)
    raw, after = clip_global_norm(grads, 2.5)
    # Scaled in place: the dict holds the same arrays.
    assert all(grads[k] is held[k] for k in held)
    assert raw == pytest.approx(5.0)
    assert after == pytest.approx(2.5)
    np.testing.assert_allclose(held["a"], [1.5])
    np.testing.assert_allclose(held["b"], [2.0])

    fresh = {"a": np.array([3.0]), "b": np.array([4.0])}
    raw2, after2 = clip_global_norm(fresh, 10.0)
    assert raw2 == after2 == pytest.approx(5.0)
    assert fresh["a"][0] == 3.0 and fresh["b"][0] == 4.0


# ---------------------------------------------------------------------------
# stage training


def _easy_dataset(n=320, dim=8):
    # frames equal targets: a linear readout can drive the loss to the floor
    rng = stream_rng(3, 0)
    bank = rng.normal(size=(32, dim))
    ids = rng.integers(0, 32, n)
    targets = bank[ids]
    frames = targets[:, None, :].copy()
    return PairedDataset(
        frames=frames, targets=targets,
        caption_ids=ids.astype(np.int64), meta={"world": None, "sample_seed": 0},
    )


def _proj_cfg(dim=8, **kw):
    base = dict(frame_dim=dim, concept_dim=dim, heads=2, dropout_p=0.1,
                init_sigma=0.05)
    base.update(kw)
    return ProjectorConfig(**base)


def test_train_stage_converges_on_easy_data():
    ds = _easy_dataset()
    proj_cfg = _proj_cfg()
    cfg = _align_cfg(max_epochs=25, patience=25, warmup_steps=20)
    params = init_projector(proj_cfg, stream_rng(cfg.seed, 1))
    _, history = train_stage(ds, params, proj_cfg, cfg)
    init_val = history.epochs[0].val_mse
    assert history.best_val_mse < init_val / 10.0


def test_train_stage_deterministic():
    ds = _easy_dataset(n=96)
    proj_cfg = _proj_cfg()
    cfg = _align_cfg(max_epochs=3)
    params = init_projector(proj_cfg, stream_rng(cfg.seed, 1))
    out_a, hist_a = train_stage(ds, params, proj_cfg, cfg)
    out_b, hist_b = train_stage(ds, params, proj_cfg, cfg)
    assert hist_a.steps == hist_b.steps
    assert hist_a.epochs == hist_b.epochs
    for key in out_a.keys():
        assert np.array_equal(out_a[key], out_b[key])


def test_projector_init_load_and_trainer_copies_are_one_vector_each(tmp_path):
    # AdamW steps a group only as one run of one buffer (optim.flat_span).
    ds = _easy_dataset(n=96)
    proj_cfg = _proj_cfg()
    cfg = _align_cfg(max_epochs=2)
    models = {"init": init_projector(proj_cfg, stream_rng(cfg.seed, 1))}
    save_projector(tmp_path / "p", models["init"], proj_cfg)
    models["load_projector"] = load_projector(tmp_path / "p")[0]
    models["train_stage"], history = train_stage(ds, models["init"], proj_cfg, cfg)
    assert history.best_epoch > 0
    for label, tensors in models.items():
        assert list(tensors) == list(layout(proj_cfg)), label
        assert flat_span(tensors).size == sum(t.size for t in tensors.values()), label


def test_train_stage_patience_one_constant_validation():
    ds = _easy_dataset(n=64)
    proj_cfg = _proj_cfg()
    # learning rate so small that validation cannot move at float64 resolution
    cfg = _align_cfg(max_epochs=10, patience=1, lr_projector=1e-30,
                     lr_encoder_adapter=1e-30, warmup_steps=0)
    params = init_projector(proj_cfg, stream_rng(cfg.seed, 1))
    _, history = train_stage(ds, params, proj_cfg, cfg)
    assert len(history.epochs) == 2  # the init row plus one stalled epoch


def test_train_stage_freeze_keeps_adapter_bits():
    ds = _easy_dataset(n=96)
    proj_cfg = _proj_cfg()
    cfg = _align_cfg(max_epochs=2, freeze_steps=10**9)
    params = init_projector(proj_cfg, stream_rng(cfg.seed, 1))
    before = params[ADAPTER_KEY].copy()
    trained, history = train_stage(ds, params, proj_cfg, cfg)
    assert np.array_equal(trained[ADAPTER_KEY], before)
    assert all(r.phase == "frozen" for r in history.steps)


def test_train_stage_and_curriculum_leave_initial_tensors_alone(monkeypatch):
    made = []

    class RecordingAdamW(AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.live = {}
            made.append(self)

        def step(self, params, grads, lr):
            self.live = params
            super().step(params, grads, lr)

    monkeypatch.setattr(aligner, "AdamW", RecordingAdamW)
    _, s1, s2 = _world_and_stages()
    proj_cfg = _proj_cfg(dim=16, concept_dim=8)
    cfg = _align_cfg(max_epochs=3, weight_decay=0.01, freeze_steps=4)
    initial = init_projector(proj_cfg, stream_rng(cfg.seed, 1))
    before = {k: v.copy() for k, v in initial.items()}
    best, _ = train_stage(s1.dataset, initial, proj_cfg, cfg)
    best_curriculum, _ = run_curriculum([s1, s2], proj_cfg, cfg, initial=initial)
    for key in before:
        assert initial[key].tobytes() == before[key].tobytes(), key
    # Two parameter groups, so two optimizers, per stage trained.
    assert len(made) == 6
    assert all(opt.t > 0 for opt in made)
    assert any(not np.array_equal(best[k], before[k]) for k in before)
    # What a trainer returns is a copy, never the optimizers' live weights or moments.
    for result, opts in ((best, made[:2]), (best_curriculum, made[4:])):
        live = [a for opt in opts for a in (*opt.live.values(), *opt.m.values(),
                                            *opt.v.values())]
        assert not any(np.shares_memory(r, a) for r in result.values() for a in live)


def test_train_stage_never_touches_targets():
    ds = _easy_dataset(n=64)
    baseline = ds.targets.tobytes()
    proj_cfg = _proj_cfg()
    cfg = _align_cfg(max_epochs=2)
    params = init_projector(proj_cfg, stream_rng(cfg.seed, 1))
    train_stage(ds, params, proj_cfg, cfg)
    assert ds.targets.tobytes() == baseline


def test_train_stage_divergence_reports_step():
    # AdamW steps have magnitude ~lr, so a catastrophic rate overflows the
    # very next forward pass and the trainer must stop with the step index
    ds = _easy_dataset(n=64)
    proj_cfg = _proj_cfg()
    cfg = _align_cfg(max_epochs=50, patience=50, lr_projector=1e200,
                     lr_encoder_adapter=1e200, warmup_steps=0)
    params = init_projector(proj_cfg, stream_rng(cfg.seed, 1))
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError) as exc:
            train_stage(ds, params, proj_cfg, cfg)
    assert exc.value.step >= 0
    assert str(exc.value.step) in str(exc.value)


def test_history_csv_round_trip(tmp_path):
    ds = _easy_dataset(n=64)
    proj_cfg = _proj_cfg()
    cfg = _align_cfg(max_epochs=2)
    params = init_projector(proj_cfg, stream_rng(cfg.seed, 1))
    _, history = train_stage(ds, params, proj_cfg, cfg)
    history.write_csvs(tmp_path)
    lines = (tmp_path / "history_epochs.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,val_mse,val_cos"
    first = lines[1].split(",")
    assert float(first[1]) == history.epochs[0].val_mse


# ---------------------------------------------------------------------------
# curriculum


def _world_and_stages():
    world = make_world(seed=13, frame_dim=16, concept_dim=8, frames=3,
                      bank_size=32, noise_sigma=0.1)
    s1 = CurriculumStage(name="coarse", dataset=gen_synthetic_pairs(world, 160, stream_rng(13, 1)))
    s2 = CurriculumStage(name="fine", dataset=gen_synthetic_pairs(world, 96, stream_rng(13, 2)))
    return world, s1, s2


def test_single_stage_curriculum_equals_train_stage():
    _, s1, _ = _world_and_stages()
    proj_cfg = _proj_cfg(dim=16, concept_dim=8)
    cfg = _align_cfg(max_epochs=3)
    params, histories = run_curriculum([s1], proj_cfg, cfg)
    init = init_projector(proj_cfg, stream_rng(cfg.seed, 31))
    ref_params, ref_history = train_stage(s1.dataset, init, proj_cfg, cfg)
    assert len(histories) == 1
    assert histories[0].epochs == ref_history.epochs
    for key in params.keys():
        assert np.array_equal(params[key], ref_params[key])


def test_curriculum_transfer_beats_cold_start():
    _, s1, s2 = _world_and_stages()
    proj_cfg = _proj_cfg(dim=16, concept_dim=8)
    cfg = _align_cfg(max_epochs=8, patience=8, warmup_steps=10)
    _, histories = run_curriculum([s1, s2], proj_cfg, cfg)
    _, solo = run_curriculum([s2], proj_cfg, cfg)
    warm_start_val = histories[1].epochs[0].val_mse
    cold_start_val = solo[0].epochs[0].val_mse
    assert warm_start_val <= cold_start_val


def test_dropping_first_stage_changes_history():
    _, s1, s2 = _world_and_stages()
    proj_cfg = _proj_cfg(dim=16, concept_dim=8)
    cfg = _align_cfg(max_epochs=4)
    _, full = run_curriculum([s1, s2], proj_cfg, cfg)
    _, ablated = run_curriculum([s2], proj_cfg, cfg)
    assert full[-1].epochs != ablated[-1].epochs


def test_stage_overrides_apply_and_reject_unknown_keys():
    cfg = _align_cfg()
    stage = CurriculumStage(name="s", dataset=None, dataset_path=None,
                            epochs=7, batch_size=4,
                            lr_overrides={"lr_projector": 0.5})
    out = apply_stage_overrides(cfg, stage)
    assert (out.max_epochs, out.batch_size, out.lr_projector) == (7, 4, 0.5)
    bad = CurriculumStage(name="s", dataset=None, dataset_path=None,
                          lr_overrides={"momentum": 0.9})
    with pytest.raises(ValueError):
        apply_stage_overrides(cfg, bad)


def test_curriculum_checks_every_stage_before_training(tmp_path):
    # The first stage's dataset path does not exist: if it were loaded first,
    # the error would be an OSError, not the later stage's bad override.
    proj_cfg = _proj_cfg(dim=16, concept_dim=8)
    first = CurriculumStage(name="first", dataset_path=tmp_path / "missing")
    later = CurriculumStage(name="later", dataset_path=tmp_path / "missing", epochs="3")
    with pytest.raises(ValueError, match="bad overrides in stage 'later'"):
        run_curriculum([first, later], proj_cfg, _align_cfg())


@pytest.mark.parametrize(("warmup", "trained"), [(12, 2), (13, 0)])
def test_curriculum_checks_every_stage_warmup_before_training(monkeypatch, warmup, trained):
    _, s1, s2 = _world_and_stages()
    # 96 samples: 10 held out, 86 in batches of 16 make 6 steps an epoch, 12 in 2.
    later = replace(s2, epochs=2, lr_overrides={"warmup_steps": warmup})
    calls = []
    monkeypatch.setattr(aligner, "train_stage",
                        lambda _ds, params, *_args, **_kw: calls.append(1) or (params, None))
    proj_cfg = _proj_cfg(dim=16, concept_dim=8)
    if trained:
        run_curriculum([s1, later], proj_cfg, _align_cfg())
    else:
        with pytest.raises(ValueError,
                           match="stage 'fine': warmup_steps 13 exceeds the stage's 12 steps"):
            run_curriculum([s1, later], proj_cfg, _align_cfg())
    assert len(calls) == trained


def test_empty_curriculum_rejected():
    proj_cfg = _proj_cfg(dim=16, concept_dim=8)
    with pytest.raises(ValueError):
        run_curriculum([], proj_cfg, _align_cfg())
