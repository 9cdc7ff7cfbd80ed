"""Tests for binary formats, the synthetic world, and dataset plumbing."""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from conceptspace.corpus import (
    BANK_NORM_HIGH,
    BANK_NORM_LOW,
    DTYPE_F32,
    DTYPE_F64,
    MAGIC,
    EmbeddingFormatError,
    EmbeddingSequence,
    PairedDataset,
    gen_rule_sequences,
    gen_synthetic_pairs,
    load_sequences,
    make_caption_bank,
    make_world,
    read_embeddings,
    read_ids,
    save_sequences,
    world_config,
    world_from_config,
    write_embeddings,
    write_ids,
)
from conceptspace.checkpoints import load_lcm_train_state, save_lcm_train_state, save_tensors
from conceptspace.latentdiff import LcmModelConfig, LcmTrainConfig, init_two_tower
from conceptspace.numerics import stream_rng
from conceptspace.optim import AdamW, flat_span


# ---------------------------------------------------------------------------
# EmbeddingFile format


def test_embedding_file_round_trip_f32(tmp_path):
    x = stream_rng(0, 1).normal(size=(100, 64))
    path = tmp_path / "x.bin"
    write_embeddings(path, x)
    back = read_embeddings(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, x.astype(np.float32).astype(np.float64))


def test_embedding_file_round_trip_f64_is_lossless(tmp_path):
    x = stream_rng(0, 2).normal(size=(17, 5))
    path = tmp_path / "x64.bin"
    write_embeddings(path, x, dtype_code=DTYPE_F64)
    assert np.array_equal(read_embeddings(path), x)


def test_embedding_file_empty_matrix(tmp_path):
    path = tmp_path / "empty.bin"
    write_embeddings(path, np.zeros((0, 7)))
    back = read_embeddings(path)
    assert back.shape == (0, 7)


def test_embedding_file_wrong_magic(tmp_path):
    path = tmp_path / "bad.bin"
    write_embeddings(path, np.ones((2, 2)))
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTMAGIC"
    path.write_bytes(bytes(raw))
    with pytest.raises(EmbeddingFormatError):
        read_embeddings(path)


def test_embedding_file_truncated_payload_names_counts(tmp_path):
    path = tmp_path / "trunc.bin"
    write_embeddings(path, np.ones((4, 3)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(EmbeddingFormatError) as exc:
        read_embeddings(path)
    msg = str(exc.value)
    assert "72" in msg and "67" in msg  # expected vs actual byte counts


def test_embedding_file_truncated_header(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(MAGIC[:4])
    with pytest.raises(EmbeddingFormatError) as exc:
        read_embeddings(path)
    assert str(exc.value) == f"{path}: truncated header (4 bytes)"


@pytest.mark.parametrize(("dtype_code", "itemsize"), [(DTYPE_F32, 4), (DTYPE_F64, 8)])
@pytest.mark.parametrize("change", [-5, 3])
def test_embedding_file_size_mismatch_message(tmp_path, dtype_code, itemsize, change):
    path = tmp_path / "x.bin"
    write_embeddings(path, np.ones((4, 3)), dtype_code=dtype_code)
    raw = path.read_bytes()
    path.write_bytes(raw[:change] if change < 0 else raw + bytes(change))
    expected = 24 + 12 * itemsize
    with pytest.raises(EmbeddingFormatError) as exc:
        read_embeddings(path)
    assert str(exc.value) == (f"{path}: payload size mismatch, expected {expected} bytes, "
                              f"got {expected + change}")


def test_float64_file_reads_into_one_writable_array(tmp_path):
    x = stream_rng(0, 3).normal(size=(9, 4))
    x[0, 0] = -0.0
    path = tmp_path / "x64.bin"
    write_embeddings(path, x, dtype_code=DTYPE_F64)
    back = read_embeddings(path)
    assert back.dtype == np.float64 and back.shape == (9, 4)
    assert back.tobytes() == x.tobytes()
    assert back.flags.c_contiguous and back.flags.writeable
    back += 1.0
    assert np.array_equal(back, x + 1.0)


# The `schedule` block of a train-lcm config, as a training state records it.
SCHEDULE = {"steps": 40, "lambda_max": 10.0, "lambda_min": -10.0}


def test_loaded_train_state_takes_an_in_place_adamw_step(tmp_path):
    mcfg = LcmModelConfig(concept_dim=4, ctx_width=8, ctx_heads=2, ctx_layers=1,
                          den_width=8, den_depth=1, lambda_emb_dim=4)
    tcfg = LcmTrainConfig(max_steps=2, warmup_steps=1, batch_size=2)
    params = init_two_tower(mcfg, stream_rng(0, 2))
    grads = {k: stream_rng(1, i).normal(size=v.shape) for i, (k, v) in enumerate(params.items())}
    opt = AdamW()
    opt.step(params, grads, 1e-2)
    save_lcm_train_state(tmp_path / "ck", params, mcfg, tcfg, opt, 1, 0.5, 1, params, "digest",
                         SCHEDULE)
    loaded, loaded_opt, step, _best = load_lcm_train_state(tmp_path / "ck", AdamW(), mcfg,
                                                           tcfg, "digest", SCHEDULE)
    assert step == loaded_opt.t == 1
    assert all(loaded[k].tobytes() == params[k].tobytes() for k in params)
    # The moments are two blocks of the loaded array, taken without a copy.
    assert flat_span(loaded_opt.m).base is flat_span(loaded).base is flat_span(loaded_opt.v).base
    # Read-only views would make the in-place step raise.
    opt.step(params, grads, 1e-2)
    loaded_opt.step(loaded, grads, 1e-2)
    assert all(loaded[k].tobytes() == params[k].tobytes() for k in params)


def test_a_state_without_a_schedule_is_a_format_error(tmp_path):
    # A training state as written before the schedule was recorded: no
    # "schedule" in its meta, and opt.m and opt.v interleaved tensor by tensor.
    mcfg = LcmModelConfig(concept_dim=4, ctx_width=8, ctx_heads=2, ctx_layers=1,
                          den_width=8, den_depth=1, lambda_emb_dim=4)
    tcfg = LcmTrainConfig(max_steps=5, warmup_steps=1, batch_size=2)
    params = init_two_tower(mcfg, stream_rng(0, 2))
    opt = AdamW(weight_decay=0.01)
    opt.step(params, {k: stream_rng(1, i).normal(size=v.shape)
                      for i, (k, v) in enumerate(params.items())}, 1e-2)
    tensors = {f"model.{k}": v for k, v in params.items()}
    for k in opt.m:
        tensors |= {f"opt.m.{k}": opt.m[k], f"opt.v.{k}": opt.v[k]}
    tensors |= {f"best.{k}": v for k, v in params.items()}
    save_tensors(tmp_path / "ck", tensors, {
        "kind": "lcm-train-state", "config": asdict(mcfg), "train_config": asdict(tcfg),
        "step": 1, "best_val": 0.5, "best_step": 1, "corpus_sha256": "digest"})
    with pytest.raises(EmbeddingFormatError, match="records no noise schedule"):
        load_lcm_train_state(tmp_path / "ck", AdamW(weight_decay=0.01), mcfg, tcfg, "digest",
                             SCHEDULE)


def test_embedding_file_rejects_non_finite():
    with pytest.raises(ValueError):
        write_embeddings("/dev/null", np.array([[1.0, float("inf")]]))


def test_float32_file_rejects_overflow_before_writing(tmp_path):
    f32_max = float(np.finfo(np.float32).max)
    path = tmp_path / "big.bin"
    with pytest.raises(ValueError, match="overflow float32"):
        write_embeddings(path, np.array([[1.0, -2.0 * f32_max]]))
    assert not path.exists()
    # float64 holds the same values, and float32's own maximum still fits.
    write_embeddings(path, np.array([[1.0, -2.0 * f32_max]]), dtype_code=DTYPE_F64)
    write_embeddings(path, np.array([[1.0, f32_max]]))
    assert read_embeddings(path)[0, 1] == f32_max


def test_ids_round_trip(tmp_path):
    ids = np.array([0, 3, 2**40, 17], dtype=np.uint64)
    path = tmp_path / "ids.bin"
    write_ids(path, ids)
    assert np.array_equal(read_ids(path, 4).astype(np.uint64), ids)
    with pytest.raises(EmbeddingFormatError):
        read_ids(path, 5)


# ---------------------------------------------------------------------------
# synthetic world


def test_caption_bank_norm_band():
    bank = make_caption_bank(stream_rng(4, 0), 128, 16)
    norms = np.linalg.norm(bank, axis=1)
    assert np.all(norms >= BANK_NORM_LOW - 1e-12)
    assert np.all(norms <= BANK_NORM_HIGH + 1e-12)


def test_world_identity_noiseless_single_frame():
    # with W = I, no noise, and one frame there is no drift term left
    world = make_world(seed=0, frame_dim=6, concept_dim=6, frames=1,
                      bank_size=32, noise_sigma=0.0)
    object.__setattr__(world, "w", np.eye(6))
    ds = gen_synthetic_pairs(world, 8, stream_rng(0, 5))
    for i in range(8):
        np.testing.assert_allclose(ds.frames[i][0], ds.targets[i], atol=1e-12)


def test_world_generation_deterministic():
    world = make_world(seed=3, frame_dim=12, concept_dim=6, frames=4,
                      bank_size=64, noise_sigma=0.2)
    a = gen_synthetic_pairs(world, 40, stream_rng(3, 9))
    b = gen_synthetic_pairs(world, 40, stream_rng(3, 9))
    assert np.array_equal(a.frames, b.frames)
    assert np.array_equal(a.targets, b.targets)
    assert np.array_equal(a.caption_ids, b.caption_ids)


def test_world_rejects_negative_noise_sigma():
    # The frame noise is drawn as rng.normal(0, noise_sigma), which would
    # raise mid-generation on a negative scale.
    with pytest.raises(ValueError, match="noise_sigma"):
        make_world(seed=3, frame_dim=4, concept_dim=2, frames=2, bank_size=8,
                   noise_sigma=-0.1)


def test_world_targets_live_in_bank():
    world = make_world(seed=5, frame_dim=10, concept_dim=5, frames=3,
                      bank_size=32, noise_sigma=0.1)
    ds = gen_synthetic_pairs(world, 25, stream_rng(5, 1))
    for i in range(25):
        assert np.array_equal(ds.targets[i], world.caption_bank[ds.caption_ids[i]])


def test_world_linear_probe_oracle():
    # closed-form least squares from mean-pooled frames must beat the
    # target-variance baseline by a wide margin, or the task is not learnable
    world = make_world(seed=8, frame_dim=24, concept_dim=8, frames=4,
                      bank_size=64, noise_sigma=0.1)
    ds = gen_synthetic_pairs(world, 512, stream_rng(8, 2))
    pooled = ds.frames.mean(axis=1)
    x = np.concatenate([pooled, np.ones((512, 1))], axis=1)
    coef, *_ = np.linalg.lstsq(x, ds.targets, rcond=None)
    pred = x @ coef
    mse = float(np.mean((pred - ds.targets) ** 2))
    target_var = float(np.mean((ds.targets - ds.targets.mean(axis=0)) ** 2))
    assert mse < 0.5 * target_var


def test_world_drift_is_zero_mean_over_positions():
    world = make_world(seed=2, frame_dim=8, concept_dim=4, frames=5,
                      bank_size=16, noise_sigma=0.0, drift_scale=0.7)
    np.testing.assert_allclose(world.drift.sum(axis=0), 0.0, atol=1e-12)
    assert world.drift.shape == (5, 8)


def test_world_config_round_trip():
    world = make_world(seed=9, frame_dim=8, concept_dim=4, frames=3,
                      bank_size=16, noise_sigma=0.3)
    rebuilt = world_from_config(world_config(world))
    assert np.array_equal(rebuilt.w, world.w)
    assert np.array_equal(rebuilt.caption_bank, world.caption_bank)
    assert np.array_equal(rebuilt.drift, world.drift)


# ---------------------------------------------------------------------------
# dataset save/load


def _tiny_dataset(n=10):
    world = make_world(seed=1, frame_dim=6, concept_dim=3, frames=2,
                      bank_size=8, noise_sigma=0.1)
    return gen_synthetic_pairs(world, n, stream_rng(1, 3))


def test_dataset_save_load_round_trip(tmp_path):
    ds = _tiny_dataset()
    ds.save(tmp_path / "ds")
    back = PairedDataset.load(tmp_path / "ds")
    # frames/targets pass through f32 storage
    assert np.array_equal(back.frames, ds.frames.astype(np.float32).astype(np.float64))
    assert np.array_equal(back.caption_ids, ds.caption_ids)
    assert back.meta["world"] == ds.meta["world"]


# ---------------------------------------------------------------------------
# rule sequences


def test_rule_sequences_follow_the_permutation():
    bank = make_caption_bank(stream_rng(6, 0), 16, 4)
    seqs = gen_rule_sequences(bank, 3, 1, 20, 3, 6, stream_rng(6, 1))
    assert len(seqs) == 20
    for seq in seqs:
        assert 3 <= len(seq) <= 6
        idx = [int(np.argmin(np.linalg.norm(bank - e, axis=1))) for e in seq.embeddings]
        for prev, nxt in zip(idx, idx[1:]):
            assert nxt == (3 * prev + 1) % 16


def test_rule_sequences_need_coprime_multiplier():
    bank = make_caption_bank(stream_rng(6, 0), 16, 4)
    with pytest.raises(ValueError):
        gen_rule_sequences(bank, 4, 1, 5, 3, 6, stream_rng(6, 2))


def test_sequence_corpus_round_trip(tmp_path):
    bank = make_caption_bank(stream_rng(7, 0), 8, 4)
    seqs = gen_rule_sequences(bank, 3, 2, 6, 2, 5, stream_rng(7, 1))
    save_sequences(tmp_path / "sc", seqs, meta={"note": "test"})
    back, meta = load_sequences(tmp_path / "sc")
    assert meta["note"] == "test"
    assert len(back) == len(seqs)
    for orig, loaded in zip(seqs, back):
        f32 = orig.embeddings.astype(np.float32).astype(np.float64)
        assert np.array_equal(loaded.embeddings, f32)
    manifest = json.loads((tmp_path / "sc" / "manifest.json").read_text())
    assert manifest["format"] == "sequence-corpus-v2"
    assert sorted(p.name for p in (tmp_path / "sc").iterdir()) == [
        "embeddings.bin", "manifest.json"
    ]


def test_sequence_without_tags_is_allowed():
    # Sequences carry embeddings only; modality tags are not part of the format.
    seq = EmbeddingSequence(embeddings=np.zeros((3, 2)))
    assert len(seq) == 3
    with pytest.raises(TypeError):
        EmbeddingSequence(embeddings=np.zeros((3, 2)), tags=np.zeros(3, dtype=np.uint8))
