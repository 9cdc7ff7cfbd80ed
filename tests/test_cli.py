"""End-to-end tests for the command-line front end.

Every test drives cli.main([...]) directly so exit codes and printed output
are checked exactly as a shell user would see them.  Byte-reproducibility
tests rerun a command with the *same* --out path (the resolved config embeds
paths as given) and compare file hashes before and after.
"""

import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import typing
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conceptspace import checkpoints, cli, corpus, latentdiff, projector, spaceval
from conceptspace.aligner import AlignConfig, EpochRecord, StepRecord
from conceptspace.latentdiff import LcmStepRecord, LcmValRecord
from conceptspace.numerics import stream_rng
from conceptspace.projector import ProjectorConfig, init_projector, project
from conceptspace.records import from_dict, record_rows, write_csv

import oracles


def _hash_dir(path: Path) -> dict:
    out = {}
    for p in sorted(path.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(path))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def _read_csv_rows(path: Path) -> list:
    lines = path.read_text().strip().splitlines()
    return lines[1:]  # drop header


def _gen_args(out, seed=5, n=24, frames=4, dim_frame=12, dim_concept=6,
              bank_size=4096, noise=0.1):
    return [
        "gen", "--seed", str(seed), "--n", str(n), "--frames", str(frames),
        "--dim-frame", str(dim_frame), "--dim-concept", str(dim_concept),
        "--noise", str(noise), "--bank-size", str(bank_size), "--out", str(out),
    ]


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_complete_dataset_dir(tmp_path):
    out = tmp_path / "data"
    assert cli.main(_gen_args(out)) == 0
    for name in ("manifest.json", "frames.bin", "targets.bin", "ids.bin",
                 "resolved-config.json"):
        assert (out / name).exists(), name
    ds = corpus.PairedDataset.load(out)
    assert ds.frames.shape == (24, 4, 12)
    assert ds.targets.shape == (24, 6)
    resolved = json.loads((out / "resolved-config.json").read_text())
    assert resolved["command"] == "gen"
    assert resolved["seed"] == 5


def test_gen_rejects_nonpositive_n(tmp_path):
    assert cli.main(_gen_args(tmp_path / "d", n=0)) == 2


@pytest.mark.parametrize(("flag", "value"), [("frames", 0), ("dim_frame", 0), ("dim_frame", -2)])
def test_gen_size_below_1_exits_2_naming_the_flag(tmp_path, capsys, flag, value):
    assert cli.main(_gen_args(tmp_path / "d", **{flag: value})) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --{flag.replace('_', '-')} must be >= 1")
    assert "Traceback" not in err and not (tmp_path / "d").exists()


def test_gen_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "data"
    assert cli.main(_gen_args(out)) == 0
    before = _hash_dir(out)
    shutil.rmtree(out)
    assert cli.main(_gen_args(out)) == 0
    assert _hash_dir(out) == before


def test_gen_seed_changes_payload(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(_gen_args(a, seed=5)) == 0
    assert cli.main(_gen_args(b, seed=6)) == 0
    assert (a / "frames.bin").read_bytes() != (b / "frames.bin").read_bytes()


# ---------------------------------------------------------------------------
# gen-seq


def _gen_seq_args(out, seed=2, n=12, bank=8, dim=6, rule_a=3, rule_b=1):
    return [
        "gen-seq", "--seed", str(seed), "--n", str(n), "--bank-size", str(bank),
        "--dim-concept", str(dim), "--min-len", "3", "--max-len", "5",
        "--rule-a", str(rule_a), "--rule-b", str(rule_b), "--out", str(out),
    ]


def test_gen_seq_writes_corpus_and_bank(tmp_path):
    out = tmp_path / "seqs"
    assert cli.main(_gen_seq_args(out)) == 0
    assert (out / "bank.bin").exists()
    assert (out / "resolved-config.json").exists()
    sequences, meta = corpus.load_sequences(out)
    assert len(sequences) == 12
    bank = corpus.read_embeddings(out / "bank.bin")
    assert bank.shape == (8, 6)
    # every row of every sequence is an exact bank entry
    for seq in sequences:
        for row in seq.embeddings:
            dists = np.linalg.norm(bank - row, axis=1)
            assert dists.min() < 1e-6


def test_gen_seq_rejects_non_coprime_rule(tmp_path):
    # rule_a=4 shares a factor with bank size 8, so the rule is not a permutation
    assert cli.main(_gen_seq_args(tmp_path / "s", rule_a=4)) == 2


def test_gen_seq_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "seqs"
    assert cli.main(_gen_seq_args(out)) == 0
    before = _hash_dir(out)
    shutil.rmtree(out)
    assert cli.main(_gen_seq_args(out)) == 0
    assert _hash_dir(out) == before


# ---------------------------------------------------------------------------
# align


@pytest.fixture(scope="module")
def align_setup(tmp_path_factory):
    """Small dataset plus stage/config JSON files shared by the align tests."""
    root = tmp_path_factory.mktemp("align")
    data = root / "data"
    assert cli.main(_gen_args(data, seed=3, n=48, frames=3, dim_frame=8,
                              dim_concept=4, bank_size=64)) == 0
    stage = root / "stage.json"
    stage.write_text(json.dumps(
        {"dataset": "data", "epochs": 4, "batch_size": 16}))
    config = root / "config.json"
    config.write_text(json.dumps({
        "projector": {"heads": 2, "init_sigma": 0.05, "dropout_p": 0.1},
        "aligner": {"lr_projector": 1e-2, "lr_encoder_adapter": 1e-3,
                    "freeze_steps": 0, "warmup_steps": 5, "max_epochs": 4,
                    "patience": 10, "seed": 3, "batch_size": 16},
    }))
    return root, data, stage, config


def _align_args(out, stage, config):
    return ["align", "--config", str(config), "--stages", str(stage),
            "--out", str(out)]


def test_align_smoke_trains_and_saves(align_setup, tmp_path):
    root, data, stage, config = align_setup
    out = tmp_path / "run"
    assert cli.main(_align_args(out, stage, config)) == 0
    params, proj_cfg, _meta = checkpoints.load_projector(out / "projector")
    assert proj_cfg.frame_dim == 8 and proj_cfg.concept_dim == 4
    rows = _read_csv_rows(out / "stage-00-stage" / "history_epochs.csv")
    assert len(rows) >= 2
    first = float(rows[0].split(",")[1])
    last = float(rows[-1].split(",")[1])
    assert last < first  # validation loss falls over the run
    assert (out / "resolved-config.json").exists()


def test_ablated_align_saves_only_the_tensors_it_reads(align_setup, tmp_path):
    # With weight decay, a stored tensor no forward pass reads would still shrink.
    _root, _data, stage, config = align_setup
    doc = json.loads(config.read_text())
    doc["projector"] |= {"pooling": "mean", "use_temporal_attention": False}
    doc["aligner"]["weight_decay"] = 0.1
    ablated = tmp_path / "ablated.json"
    ablated.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert cli.main(_align_args(out, stage, ablated)) == 0
    index = json.loads((out / "projector" / "params.json").read_text())["tensors"]
    assert list(index) == ["adapter", "out.w", "out.b"]


def test_align_missing_stage_file_exits_2(tmp_path, align_setup):
    _root, _data, _stage, config = align_setup
    code = cli.main(["align", "--config", str(config),
                     "--stages", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "run")])
    assert code == 2


def test_align_rerun_identical_history(align_setup, tmp_path):
    _root, _data, stage, config = align_setup
    out = tmp_path / "run"
    assert cli.main(_align_args(out, stage, config)) == 0
    before = _hash_dir(out)
    shutil.rmtree(out)
    assert cli.main(_align_args(out, stage, config)) == 0
    assert _hash_dir(out) == before


def test_align_divergence_exits_4(align_setup, tmp_path, capsys):
    root, _data, stage, _config = align_setup
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({
        "projector": {"heads": 2, "init_sigma": 0.05},
        "aligner": {"lr_projector": 1e200, "lr_encoder_adapter": 1e200,
                    "freeze_steps": 0, "warmup_steps": 0, "max_epochs": 3,
                    "patience": 10, "seed": 3},
    }))
    with np.errstate(all="ignore"):
        code = cli.main(_align_args(tmp_path / "run", stage, config))
    assert code == 4
    assert "step" in capsys.readouterr().err


def test_align_rejects_unknown_pooling(align_setup, tmp_path):
    _root, _data, stage, config = align_setup
    code = cli.main(_align_args(tmp_path / "run", stage, config)
                    + ["--pooling", "median"])
    assert code == 2


def test_align_misspelt_projector_key_exits_2(align_setup, tmp_path, capsys):
    _root, _data, stage, config = align_setup
    doc = json.loads(config.read_text())
    doc["projector"]["hedas"] = 2
    bad = tmp_path / "misspelt.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(_align_args(tmp_path / "run", stage, bad)) == 2
    assert "hedas" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _assert_one_line_usage_error(capsys, code, needle):
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err and "Traceback" not in err


# Each case replaces the fixture's stage or config file with `doc`; every one is
# rejected before training starts. "<data>" stands for the fixture's dataset
# path, so a stage case that needs it gets past the dataset read.
_ALIGN_REJECTS = {
    "stage-not-object": ("stage", ["dataset"], "must hold a JSON object, got list"),
    "config-not-object": ("config", [1], "must hold a JSON object, got list"),
    "stage-unknown-keys": ("stage", {"dataset": "data", "epoch": 1, "batchsize": 4},
                           "unknown StageFile key(s): batchsize, epoch"),
    "stage-no-dataset": ("stage", {}, "missing 1 required positional argument: 'dataset'"),
    "stage-dataset-type": ("stage", {"dataset": 3}, "dataset must be a string"),
    "stage-overrides-type": ("stage", {"dataset": "data", "lr_overrides": [1]},
                             "lr_overrides must be an object"),
    "config-unknown-block": ("config", {"projecter": {"heads": 2}},
                             "unknown align config block(s): projecter"),
    "config-block-type": ("config", {"aligner": [1]},
                          "block 'aligner' must be an object, got list"),
    "projector-int-as-float": ("config", {"projector": {"heads": 2.0}},
                               "ProjectorConfig heads must be an integer, got 2.0"),
    "projector-zero-heads": ("config", {"projector": {"heads": 0}}, "heads must be >= 1, got 0"),
    "projector-negative-heads": ("config", {"projector": {"heads": -4}},
                                 "heads must be >= 1, got -4"),
    "aligner-int-as-float": ("config",
                             {"aligner": {"max_epochs": 2.5, "warmup_steps": 0,
                                          "freeze_steps": 0}},
                             "AlignConfig max_epochs must be an integer, got 2.5"),
    "stage-epochs-float": ("stage", {"dataset": "data", "epochs": 2.5},
                           "StageFile epochs must be an integer or null, got 2.5"),
    "stage-epochs-string": ("stage", {"dataset": "data", "epochs": "3"},
                            "StageFile epochs must be an integer or null, got '3'"),
    "stage-override-string": ("stage", {"dataset": "<data>",
                                        "lr_overrides": {"lr_projector": "x"}},
                              "AlignConfig lr_projector must be a number, got 'x'"),
}


@pytest.mark.parametrize("case", list(_ALIGN_REJECTS))
def test_align_malformed_input_exits_2(align_setup, tmp_path, capsys, case):
    _root, data, stage, config = align_setup
    kind, doc, needle = _ALIGN_REJECTS[case]
    bad = tmp_path / f"{kind}.json"
    bad.write_text(json.dumps(doc).replace("<data>", str(data)))
    files = {"stage": stage, "config": config, kind: bad}
    capsys.readouterr()
    code = cli.main(_align_args(tmp_path / "run", files["stage"], files["config"]))
    _assert_one_line_usage_error(capsys, code, needle)
    assert not (tmp_path / "run").exists()


def test_align_warmup_past_a_later_stages_steps_exits_2_before_training(align_setup, tmp_path,
                                                                         capsys):
    # 48 samples: 5 held out, 43 in batches of 16 make 3 steps an epoch.
    _root, data, stage, config = align_setup
    later = tmp_path / "later.json"
    later.write_text(json.dumps({"dataset": str(data), "epochs": 2,
                                 "lr_overrides": {"warmup_steps": 40}}))
    capsys.readouterr()
    code = cli.main(_align_args(tmp_path / "run", f"{stage},{later}", config))
    _assert_one_line_usage_error(capsys, code,
                                 "stage 'later': warmup_steps 40 exceeds the stage's 6 steps")
    assert not (tmp_path / "run").exists()


def test_align_bad_override_in_a_later_stage_exits_2_before_training(align_setup, tmp_path,
                                                                    capsys):
    _root, data, stage, config = align_setup
    later = tmp_path / "later.json"
    later.write_text(json.dumps({"dataset": str(data), "epochs": 0}))
    capsys.readouterr()
    code = cli.main(_align_args(tmp_path / "run", f"{stage},{later}", config))
    _assert_one_line_usage_error(capsys, code, "bad overrides in stage 'later'")
    assert not (tmp_path / "run").exists()


def test_align_odd_frame_dim_exits_2_naming_the_key(tmp_path, capsys):
    # 9 frame features split over 3 heads, but the sin/cos position codes need an even width.
    assert cli.main(_gen_args(tmp_path / "data", n=8, frames=3, dim_frame=9, dim_concept=4,
                              bank_size=16)) == 0
    stage = tmp_path / "stage.json"
    stage.write_text(json.dumps({"dataset": "data", "epochs": 1}))
    capsys.readouterr()
    code = cli.main(["align", "--stages", str(stage), "--heads", "3",
                     "--out", str(tmp_path / "run")])
    _assert_one_line_usage_error(capsys, code, "frame_dim must be even")
    assert not (tmp_path / "run").exists()


def test_align_stage_file_name_and_relative_dataset(align_setup, tmp_path):
    root, _data, _stage, config = align_setup
    stage = root / "named-stage.json"
    stage.write_text(json.dumps({"dataset": "data", "name": "coarse", "epochs": 2,
                                 "batch_size": 16, "lr_overrides": {"lr_projector": 5e-3}}))
    out = tmp_path / "run"
    assert cli.main(_align_args(out, stage, config)) == 0
    resolved = json.loads((out / "resolved-config.json").read_text())
    assert resolved["stages"] == [{"name": "coarse", "dataset": str(root / "data"), "epochs": 2,
                                   "batch_size": 16, "lr_overrides": {"lr_projector": 5e-3}}]
    assert len(_read_csv_rows(out / "stage-00-coarse" / "history_epochs.csv")) == 3


# ---------------------------------------------------------------------------
# train-lcm


@pytest.fixture(scope="module")
def lcm_setup(tmp_path_factory):
    """Sequence corpus plus a small train config shared by the lcm tests."""
    root = tmp_path_factory.mktemp("lcm")
    data = root / "seqs"
    assert cli.main(_gen_seq_args(data, seed=2, n=12, bank=8, dim=6)) == 0
    config = root / "config.json"
    config.write_text(json.dumps({
        "latentdiff": {
            "model": {"ctx_width": 24, "ctx_heads": 2,
                      "ctx_layers": 2, "den_width": 24,
                      "den_depth": 2, "lambda_emb_dim": 8},
            "train": {"lr": 5e-3, "max_steps": 60, "warmup_steps": 10,
                      "val_every": 20, "ckpt_every": 30, "batch_size": 8,
                      "seed": 1},
        },
        "schedule": {"steps": 6},
    }))
    return root, data, config


def _train_args(out, data, config, extra=()):
    return ["train-lcm", "--config", str(config), "--data", str(data),
            "--out", str(out), *extra]


def test_train_lcm_writes_model_and_checkpoints(lcm_setup, tmp_path):
    _root, data, config = lcm_setup
    out = tmp_path / "run"
    assert cli.main(_train_args(out, data, config)) == 0
    assert (out / "model").exists()
    assert (out / "resolved-config.json").exists()
    assert (out / "checkpoints" / "step-000030").exists()
    assert (out / "checkpoints" / "step-000060").exists()
    assert len(_read_csv_rows(out / "history_steps.csv")) == 60
    params, model_cfg, meta = checkpoints.load_lcm(out / "model")
    assert model_cfg.concept_dim == 6
    assert meta["schedule"]["steps"] == 6


def test_train_lcm_resume_reproduces_history(lcm_setup, tmp_path):
    _root, data, config = lcm_setup
    full = tmp_path / "full"
    assert cli.main(_train_args(full, data, config)) == 0
    resumed = tmp_path / "resumed"
    assert cli.main(_train_args(
        resumed, data, config,
        extra=["--resume", str(full / "checkpoints" / "step-000030")])) == 0
    full_rows = _read_csv_rows(full / "history_steps.csv")
    res_rows = _read_csv_rows(resumed / "history_steps.csv")
    assert res_rows == full_rows[30:]


def test_train_lcm_resumes_a_state_with_per_tensor_step_counts(lcm_setup, tmp_path):
    # Older training states also stored each tensor's AdamW step count as
    # meta "opt_t", always equal to "step": such a state resumes as before.
    _root, data, config = lcm_setup
    full = tmp_path / "full"
    assert cli.main(_train_args(full, data, config)) == 0
    ckpt = full / "checkpoints" / "step-000030"
    doc = json.loads((ckpt / "params.json").read_text())
    assert "opt_t" not in doc["meta"]
    doc["meta"]["opt_t"] = {name[len("model."):]: 30 for name in doc["tensors"]
                            if name.startswith("model.")}
    (ckpt / "params.json").write_text(json.dumps(doc, indent=2) + "\n")
    resumed = tmp_path / "resumed"
    assert cli.main(_train_args(resumed, data, config, extra=["--resume", str(ckpt)])) == 0
    assert _hash_dir(resumed / "model") == _hash_dir(full / "model")


@pytest.mark.parametrize(("seed", "code"), [(0, 2), (1, 2), (2, 0)])
def test_train_lcm_itemless_validation_split_exits_2(tmp_path, capsys, seed, code):
    # Ten sequences, five of one embedding: a held-out single gives no item.
    rng = stream_rng(9, 0)
    seqs = [corpus.EmbeddingSequence(rng.normal(size=(n, 4))) for n in [1] * 5 + [4] * 5]
    corpus.save_sequences(tmp_path / "s", seqs)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"latentdiff": {
        "model": {"ctx_width": 8, "ctx_heads": 2, "ctx_layers": 1, "den_width": 8,
                  "den_depth": 1, "lambda_emb_dim": 4},
        "train": {"max_steps": 2, "warmup_steps": 1, "batch_size": 2, "seed": seed},
    }, "schedule": {"steps": 3}}))
    capsys.readouterr()
    assert cli.main(_train_args(tmp_path / "o", tmp_path / "s", config)) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert "no (prefix, next) validation items" in err


def test_train_lcm_divergence_exits_4(lcm_setup, tmp_path, capsys):
    _root, data, config = lcm_setup
    with np.errstate(all="ignore"):
        code = cli.main(_train_args(tmp_path / "run", data, config,
                                    extra=["--lr", "1e200"]))
    assert code == 4
    assert "step" in capsys.readouterr().err


def test_train_lcm_bad_config_file_exits_2(lcm_setup, tmp_path):
    _root, data, _config = lcm_setup
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(_train_args(tmp_path / "run", data, bad)) == 2


@pytest.mark.parametrize("block", ["model", "train"])
def test_train_lcm_misspelt_key_exits_2(lcm_setup, tmp_path, capsys, block):
    _root, data, config = lcm_setup
    doc = json.loads(config.read_text())
    doc["latentdiff"][block]["den_widht"] = 24
    bad = tmp_path / "misspelt.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(_train_args(tmp_path / "run", data, bad)) == 2
    err = capsys.readouterr().err
    assert "den_widht" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(("edit", "needle"), [
    (lambda doc: doc.update(latentdiff=[1]), "block 'latentdiff' must be an object, got list"),
    (lambda doc: doc["latentdiff"].update(model=[1]), "block 'model' must be an object, got list"),
    (lambda doc: doc.update(latentdif=doc.pop("latentdiff")),
     "unknown train-lcm config block(s): latentdif"),
    (lambda doc: doc["latentdiff"].update(modle=doc["latentdiff"].pop("model")),
     "unknown latentdiff block(s): modle"),
    (lambda doc: doc["latentdiff"]["model"].update(ctx_width=0), "ctx_width must be >= 1, got 0"),
    (lambda doc: doc["latentdiff"]["model"].update(lambda_emb_dim=0),
     "lambda_emb_dim must be >= 1, got 0"),
    (lambda doc: doc["latentdiff"]["model"].update(ctx_heads=-2), "ctx_heads must be >= 1, got -2"),
    (lambda doc: doc["latentdiff"]["model"].update(den_width=0), "den_width must be >= 1, got 0"),
    (lambda doc: doc["latentdiff"]["model"].update(ffn_mult=0), "ffn_mult must be >= 1, got 0"),
    (lambda doc: doc["latentdiff"]["model"].update(ctx_width=9, ctx_heads=3),
     "ctx_width must be even"),
    (lambda doc: doc["latentdiff"]["train"].update(squared_loss=True),
     "unknown LcmTrainConfig key(s): squared_loss"),
    *[(lambda doc, v=v: doc["latentdiff"]["train"].update(val_fraction=v),
       "val_fraction must be in (0, 1)") for v in (5.0, -1.0, 0.0, 1.0)],
], ids=["latentdiff-list", "model-list", "unknown-top", "unknown-latentdiff", "ctx-width-0",
        "lambda-emb-dim-0", "ctx-heads-negative", "den-width-0", "ffn-mult-0", "ctx-width-odd",
        "squared-loss", "val-fraction-5", "val-fraction-negative", "val-fraction-0",
        "val-fraction-1"])
def test_train_lcm_bad_config_block_exits_2(lcm_setup, tmp_path, capsys, edit, needle):
    _root, data, config = lcm_setup
    doc = json.loads(config.read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.main(_train_args(tmp_path / "run", data, bad))
    _assert_one_line_usage_error(capsys, code, needle)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(("block", "key", "value"), [("model", "ctx_width", 16),
                                                   ("train", "max_steps", 3)])
def test_train_lcm_resume_refuses_other_config(tmp_path, capsys, block, key, value):
    manifest, argv = _train_state_case(tmp_path)
    config = Path(argv[argv.index("--config") + 1])
    doc = json.loads(config.read_text())
    doc["latentdiff"][block][key] = value
    config.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_train_lcm_resume_refuses_another_schedule(tmp_path, capsys):
    manifest, argv = _train_state_case(tmp_path)
    config = Path(argv[argv.index("--config") + 1])
    doc = json.loads(config.read_text())
    doc["schedule"] = {"steps": 40, "lambda_max": 5.0}
    config.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "schedule config differs in lambda_max, steps" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()
    assert json.loads(manifest.read_text())["meta"]["schedule"] == {
        "steps": 3, "lambda_max": 10.0, "lambda_min": -10.0}


def test_train_lcm_refuses_a_state_without_a_schedule(lcm_setup, tmp_path, capsys):
    # A state written before the schedule was recorded has none to compare.
    _root, data, config = lcm_setup
    full = tmp_path / "full"
    assert cli.main(_train_args(full, data, config)) == 0
    ckpt = full / "checkpoints" / "step-000030"
    doc = json.loads((ckpt / "params.json").read_text())
    del doc["meta"]["schedule"]
    (ckpt / "params.json").write_text(json.dumps(doc, indent=2) + "\n")
    resumed = tmp_path / "resumed"
    capsys.readouterr()
    assert cli.main(_train_args(resumed, data, config, extra=["--resume", str(ckpt)])) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "records no noise schedule" in err
    assert "Traceback" not in err
    assert not resumed.exists()


@pytest.mark.parametrize(("schedule", "needle"), [({"steps": 6, "lamda_max": 3.0}, "lamda_max"),
                                                ([1], "must be an object")])
def test_train_lcm_bad_schedule_block_exits_2(lcm_setup, tmp_path, capsys, schedule, needle):
    _root, data, config = lcm_setup
    doc = json.loads(config.read_text())
    doc["schedule"] = schedule
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(_train_args(tmp_path / "run", data, bad, extra=["--steps", "6"])) == 2
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_train_lcm_stores_the_full_schedule(trained_lcm):
    model, _data = trained_lcm
    _params, _cfg, meta = checkpoints.load_lcm(model)
    assert meta["schedule"] == {"steps": 6, "lambda_max": 10.0, "lambda_min": -10.0}
    resolved = json.loads((model.parent / "resolved-config.json").read_text())
    assert resolved["schedule"] == meta["schedule"]


def test_train_lcm_resume_refuses_other_corpus(tmp_path, capsys):
    _manifest, argv = _train_state_case(tmp_path)
    assert cli.main(_gen_seq_args(tmp_path / "other", seed=3)) == 0
    argv[argv.index("--data") + 1] = str(tmp_path / "other")
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "corpus" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# eval


def test_eval_oracle_reports_perfect_retrieval(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(_gen_args(data)) == 0
    out = tmp_path / "report.json"
    assert cli.main(["eval", "--oracle", "--data", str(data),
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["space"]["recall_at"]["1"] == 1.0
    assert doc["space"]["mrr"] == 1.0
    assert doc["roundtrip"]["decode_accuracy"] == 1.0
    assert "R@1 1.0000" in capsys.readouterr().out
    assert (tmp_path / "resolved-config.json").exists()


def test_eval_recompute_is_byte_identical(tmp_path):
    data = tmp_path / "data"
    assert cli.main(_gen_args(data)) == 0
    out = tmp_path / "report.json"
    argv = ["eval", "--oracle", "--data", str(data), "--out", str(out)]
    assert cli.main(argv) == 0
    before = out.read_bytes()
    out.unlink()
    assert cli.main(argv) == 0
    assert out.read_bytes() == before


def test_eval_trained_projector_runs(align_setup, tmp_path):
    _root, data, stage, config = align_setup
    run = tmp_path / "run"
    assert cli.main(_align_args(run, stage, config)) == 0
    out = tmp_path / "report.json"
    drift = tmp_path / "drift.csv"
    assert cli.main(["eval", "--projector", str(run / "projector"),
                     "--data", str(data), "--drift-csv", str(drift),
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert 0.0 <= doc["space"]["recall_at"]["1"] <= 1.0
    schema_path = Path(cli.__file__).parent / "schemas" / "space_report.schema.json"
    jsonschema.validate(doc, json.loads(schema_path.read_text()))

    # The drift rows match a per-row projection and nearest decode.
    params, proj_cfg, _meta = checkpoints.load_projector(run / "projector")
    ds = corpus.PairedDataset.load(data)
    bank = corpus.world_from_config(ds.meta["world"]).caption_bank
    zv = np.stack([project(params, proj_cfg, f)[0] for f in ds.frames])
    decoded = [spaceval.nearest_decode(row, bank) for row in zv]
    columns = {}
    for name, captions in (("gold", bank[ds.caption_ids]), ("decoded", bank[decoded])):
        columns[f"cos_{name}"] = np.einsum("ij,ij->i", zv, captions) / (
            np.linalg.norm(zv, axis=1) * np.linalg.norm(captions, axis=1))
        columns[f"dist_{name}"] = np.sqrt(((zv - captions) ** 2).sum(axis=1))
    header = "cos_gold,cos_decoded,dist_gold,dist_decoded"
    assert drift.read_text().splitlines()[0] == header
    want = np.column_stack([columns[name] for name in header.split(",")])
    got = np.loadtxt(drift, delimiter=",", skiprows=1)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("tiles", ["default", "sixteen-row"])
def test_eval_report_equals_the_oracles_with_repeated_targets(align_setup, tmp_path,
                                                             monkeypatch, tiles):
    # 70 items over an 8-caption bank: every target repeats, so alignment
    # consistency walks its classes and part of the round trip decodes to
    # the gold captions. With 16-row tiles the classes cross tile edges.
    _root, _data, _stage, config = align_setup
    data = tmp_path / "data"
    assert cli.main(_gen_args(data, seed=4, n=70, frames=3, dim_frame=8, dim_concept=4,
                              bank_size=8)) == 0
    stage = tmp_path / "stage.json"
    stage.write_text(json.dumps({"dataset": "data", "epochs": 4, "batch_size": 16}))
    run = tmp_path / "run"
    assert cli.main(_align_args(run, stage, config)) == 0
    if tiles == "sixteen-row":
        monkeypatch.setattr(spaceval, "TILE_ENTRIES", 0)
    out = tmp_path / "report.json"
    assert cli.main(["eval", "--projector", str(run / "projector"), "--data", str(data),
                     "--out", str(out)]) == 0

    params, proj_cfg, _meta = checkpoints.load_projector(run / "projector")
    ds = corpus.PairedDataset.load(data)
    bank = corpus.world_from_config(ds.meta["world"]).caption_bank
    zv = np.concatenate([project(params, proj_cfg, ds.frames[i : i + cli.EVAL_BLOCK])[0]
                         for i in range(0, len(ds), cli.EVAL_BLOCK)])
    echo = {"projector": str(run / "projector"), "data": str(data), "n": len(ds)}
    want = oracles.eval_report(zv, ds.targets, bank, ds.caption_ids, echo)
    assert json.loads(out.read_text()) == want
    assert 0.0 < want["roundtrip"]["decode_accuracy"] < 1.0


def test_eval_does_not_import_numpy_ma(tmp_path):
    # A module imported on first use stays in memory and steps eval's peak
    # RSS: numpy.ma, which a plain np.unique imports, must not be pulled in by
    # the class finder, nor csv by the drift export or the report.
    data = tmp_path / "data"
    assert cli.main(_gen_args(data, bank_size=8)) == 0
    argv = ["eval", "--oracle", "--data", str(data), "--drift-csv", str(tmp_path / "d.csv"),
            "--out", str(tmp_path / "r.json")]
    script = (
        "import sys\n"
        "from conceptspace import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print([name for name in ('numpy.ma', 'csv') if name in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_eval_dim_mismatch_exits_2(align_setup, tmp_path):
    _root, _data, stage, config = align_setup
    run = tmp_path / "run"
    assert cli.main(_align_args(run, stage, config)) == 0
    other = tmp_path / "wide"
    assert cli.main(_gen_args(other, dim_frame=16, dim_concept=4)) == 0
    code = cli.main(["eval", "--projector", str(run / "projector"),
                     "--data", str(other), "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_eval_requires_projector_or_oracle(tmp_path):
    data = tmp_path / "data"
    assert cli.main(_gen_args(data)) == 0
    code = cli.main(["eval", "--data", str(data),
                     "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_eval_writes_drift_csv(tmp_path):
    data = tmp_path / "data"
    assert cli.main(_gen_args(data)) == 0
    csv_path = tmp_path / "probes" / "drift.csv"  # the folder is created
    assert cli.main(["eval", "--oracle", "--data", str(data),
                     "--drift-csv", str(csv_path),
                     "--out", str(tmp_path / "r.json")]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "cos_gold,cos_decoded,dist_gold,dist_decoded"
    assert len(lines) == 1 + 24


# Floats whose repr takes each form: exponent, plain, signed zero, subnormal, largest.
_CSV_FLOATS = (1e-05, 0.1, -0.0, 5e-324, 1.7976931348623157e308)


def _csv_writer_bytes(header, rows) -> bytes:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


@pytest.mark.parametrize("cls", [StepRecord, EpochRecord, LcmStepRecord, LcmValRecord])
def test_write_csv_writes_what_csv_writer_writes_for_each_history(cls, tmp_path):
    # One record per float, each float field taking the floats in turn, the
    # int fields the record's index and a str phase both of its words.
    hints = typing.get_type_hints(cls)
    records = []
    for i in range(len(_CSV_FLOATS)):
        values = {}
        for j, f in enumerate(fields(cls)):
            kind = hints[f.name]
            values[f.name] = (i if kind is int else ("frozen", "joint")[i % 2] if kind is str
                              else _CSV_FLOATS[(i + j) % len(_CSV_FLOATS)])
        records.append(cls(**values))
    if cls is LcmStepRecord:
        # An int grad_clip comes back from clip_global_norm as the clipped norm.
        records.append(LcmStepRecord(step=9, lr=0.1, loss=1e-05, grad_norm_raw=30.5, grad_norm=25))
    path = tmp_path / "history.csv"
    for kept in ([], records):
        header, rows = record_rows(cls, kept)
        write_csv(path, header, rows)
        assert path.read_bytes() == _csv_writer_bytes(header, rows)
    if cls is LcmStepRecord:
        assert path.read_bytes().endswith(b",30.5,25\r\n")


def test_write_csv_writes_what_csv_writer_writes_for_the_drift_export(tmp_path):
    rng = stream_rng(52, 0)
    bank = rng.normal(size=(6, 4))
    roundtrip = spaceval.roundtrip_retrieval(rng.normal(size=(9, 4)), bank,
                                             rng.integers(0, 6, size=9))
    path = tmp_path / "drift.csv"
    spaceval.drift_export(roundtrip, path)
    header = ["cos_gold", "cos_decoded", "dist_gold", "dist_decoded"]
    assert list(roundtrip.drift) == header
    rows = zip(*(roundtrip.drift[name].tolist() for name in header))
    assert path.read_bytes() == _csv_writer_bytes(header, rows)


# ---------------------------------------------------------------------------
# sample


@pytest.fixture(scope="module")
def trained_lcm(tmp_path_factory, lcm_setup):
    _root, data, config = lcm_setup
    out = tmp_path_factory.mktemp("trained") / "run"
    assert cli.main(_train_args(out, data, config)) == 0
    return out / "model", data


def _sample_args(out, model, prefix, extra=()):
    return ["sample", "--lcm", str(model), "--prefix", str(prefix),
            "--steps", "6", "--seed", "9", "--out", str(out), *extra]


def _write_prefix(path, data, rows=3):
    bank = corpus.read_embeddings(Path(data) / "bank.bin")
    corpus.write_embeddings(path, bank[:rows])


def test_sample_writes_one_embedding(trained_lcm, tmp_path):
    model, data = trained_lcm
    prefix = tmp_path / "prefix.bin"
    _write_prefix(prefix, data)
    out = tmp_path / "next.bin"
    assert cli.main(_sample_args(out, model, prefix)) == 0
    z = corpus.read_embeddings(out)
    assert z.shape == (1, 6)
    assert np.all(np.isfinite(z))
    assert (tmp_path / "resolved-config.json").exists()


def test_sample_fixed_seed_is_reproducible(trained_lcm, tmp_path):
    model, data = trained_lcm
    prefix = tmp_path / "prefix.bin"
    _write_prefix(prefix, data)
    out = tmp_path / "next.bin"
    assert cli.main(_sample_args(out, model, prefix)) == 0
    before = out.read_bytes()
    out.unlink()
    assert cli.main(_sample_args(out, model, prefix)) == 0
    assert out.read_bytes() == before


def test_sample_seed_changes_output(trained_lcm, tmp_path):
    model, data = trained_lcm
    prefix = tmp_path / "prefix.bin"
    _write_prefix(prefix, data)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    assert cli.main(_sample_args(a, model, prefix)) == 0
    assert cli.main(["sample", "--lcm", str(model), "--prefix", str(prefix),
                     "--steps", "6", "--seed", "10", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_sample_decodes_against_bank(trained_lcm, tmp_path, capsys):
    model, data = trained_lcm
    prefix = tmp_path / "prefix.bin"
    _write_prefix(prefix, data)
    out = tmp_path / "next.bin"
    assert cli.main(_sample_args(out, model, prefix,
                                 extra=["--bank", str(Path(data) / "bank.bin")])) == 0
    assert "decoded_caption_id=" in capsys.readouterr().out


def test_sample_loads_neither_scipy_nor_jsonschema(trained_lcm, tmp_path):
    # numpy is the only run-time dependency: a fresh process that imports the
    # CLI and samples must not pull in the test-only packages.
    model, data = trained_lcm
    prefix = tmp_path / "prefix.bin"
    _write_prefix(prefix, data)
    argv = _sample_args(tmp_path / "next.bin", model, prefix)
    script = (
        "import sys\n"
        "from conceptspace import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "next.bin").exists()


@pytest.mark.parametrize(("extra", "needle"), [
    (["--steps", "200", "--lambda-max", "800", "--lambda-min", "-800"],
     "bad schedule: lambda_max 800 puts level 1 at log-SNR 791.96, where sigma is 0"),
    (["--steps", "40", "--lambda-min", "-760", "--eta", "1"],
     "lambda_min -760 puts level 38 at log-SNR -740.256, where alpha is 0"),
], ids=["sigma-zero", "eta-alpha-zero"])
def test_sample_schedule_the_sampler_cannot_divide_by_exits_2(trained_lcm, tmp_path, capsys,
                                                             extra, needle):
    model, data = trained_lcm
    prefix = tmp_path / "prefix.bin"
    _write_prefix(prefix, data)
    out = tmp_path / "out" / "next.bin"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(_sample_args(out, model, prefix, extra=extra))
    _assert_one_line_usage_error(capsys, code, needle)
    assert caught == []
    assert not out.parent.exists()


@pytest.mark.parametrize(("flag", "value", "needle"), [
    ("--eta", "-1", "--eta must be finite and >= 0, got -1.0"),
    ("--eta", "nan", "--eta must be finite and >= 0, got nan"),
    ("--eta", "inf", "--eta must be finite and >= 0, got inf"),
    ("--guidance", "nan", "--guidance must be finite, got nan"),
    ("--guidance", "inf", "--guidance must be finite, got inf"),
    ("--guidance", "-inf", "--guidance must be finite, got -inf"),
], ids=["eta-negative", "eta-nan", "eta-inf", "guidance-nan", "guidance-inf",
        "guidance-negative-inf"])
def test_sample_bad_flag_exits_2_before_loading(trained_lcm, tmp_path, capsys, monkeypatch,
                                                flag, value, needle):
    model, data = trained_lcm
    prefix = tmp_path / "prefix.bin"
    _write_prefix(prefix, data)
    out = tmp_path / "out" / "next.bin"

    def no_load(*_args):
        raise AssertionError("sample loaded the model before checking its flags")

    monkeypatch.setattr(checkpoints, "load_lcm", no_load)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(_sample_args(out, model, prefix, extra=[f"{flag}={value}"]))
    _assert_one_line_usage_error(capsys, code, needle)
    assert caught == []
    assert not out.parent.exists()


def test_sample_prefix_dim_mismatch_exits_2(trained_lcm, tmp_path):
    model, _data = trained_lcm
    prefix = tmp_path / "prefix.bin"
    corpus.write_embeddings(prefix, np.zeros((2, 9)))
    code = cli.main(_sample_args(tmp_path / "n.bin", model, prefix))
    assert code == 2


def test_sample_missing_model_exits_3(trained_lcm, tmp_path):
    _model, data = trained_lcm
    prefix = tmp_path / "prefix.bin"
    _write_prefix(prefix, data)
    code = cli.main(_sample_args(tmp_path / "n.bin", tmp_path / "missing", prefix))
    assert code == 3


def test_sample_corrupt_prefix_exits_3(trained_lcm, tmp_path):
    model, _data = trained_lcm
    prefix = tmp_path / "prefix.bin"
    prefix.write_bytes(b"garbage!")
    code = cli.main(_sample_args(tmp_path / "n.bin", model, prefix))
    assert code == 3


@pytest.mark.parametrize(("bank", "code"), [(None, 3), (np.ones((4, 5)), 2),
                                            (np.zeros((4, 6)), 2)],
                         ids=["missing", "wrong-dim", "zero-row"])
def test_sample_bad_bank_exits_before_writing(trained_lcm, tmp_path, bank, code):
    model, data = trained_lcm
    prefix = tmp_path / "prefix.bin"
    _write_prefix(prefix, data)
    bank_path = tmp_path / "bank.bin"
    if bank is not None:
        corpus.write_embeddings(bank_path, bank)
    out = tmp_path / "out" / "s.bin"
    assert cli.main(_sample_args(out, model, prefix, extra=["--bank", str(bank_path)])) == code
    assert not out.parent.exists()


# ---------------------------------------------------------------------------
# non-finite payloads


def _poison(path: Path, row: int = 1) -> None:
    """Rewrite the embedding file at `path` with a NaN in `row`.

    write_embeddings refuses non-finite values, so the float64 container is
    written here byte by byte."""
    x = corpus.read_embeddings(path)
    x[row, 0] = np.nan
    path.write_bytes(corpus.container_header(*x.shape, corpus.DTYPE_F64) + x.tobytes())


def _eval_nan(root, file):
    assert cli.main(_gen_args(root / "d")) == 0
    argv = ["eval", "--oracle", "--data", str(root / "d"), "--out", str(root / "r.json")]
    return root / "d" / file, argv


def _align_nan(root, align_setup):
    _root, data, _stage, config = align_setup
    shutil.copytree(data, root / "data")
    stage = root / "stage.json"
    stage.write_text(json.dumps({"dataset": "data", "epochs": 2, "batch_size": 16}))
    return root / "data" / "frames.bin", _align_args(root / "run", stage, config)


def _train_lcm_nan(root, lcm_setup):
    _root, data, config = lcm_setup
    shutil.copytree(data, root / "seqs")
    return root / "seqs" / "embeddings.bin", _train_args(root / "run", root / "seqs", config)


def _sample_nan(root, trained_lcm, which):
    model, data = trained_lcm
    prefix, bank = root / "prefix.bin", root / "bank.bin"
    _write_prefix(prefix, data)
    shutil.copy(Path(data) / "bank.bin", bank)
    argv = _sample_args(root / "out" / "s.bin", model, prefix, extra=["--bank", str(bank)])
    return {"prefix": prefix, "bank": bank}[which], argv


_NAN_CASES = {
    "eval-targets": lambda root, r: _eval_nan(root, "targets.bin"),
    "eval-oracle-frames": lambda root, r: _eval_nan(root, "frames.bin"),
    "align-frames": lambda root, r: _align_nan(root, r.getfixturevalue("align_setup")),
    "train-lcm-embeddings": lambda root, r: _train_lcm_nan(root, r.getfixturevalue("lcm_setup")),
    "sample-bank": lambda root, r: _sample_nan(root, r.getfixturevalue("trained_lcm"), "bank"),
    "sample-prefix": lambda root, r: _sample_nan(root, r.getfixturevalue("trained_lcm"), "prefix"),
}


@pytest.mark.parametrize("case", list(_NAN_CASES))
def test_non_finite_payload_exits_3_naming_the_file(case, tmp_path, capsys, request):
    path, argv = _NAN_CASES[case](tmp_path, request)
    _poison(path)
    capsys.readouterr()
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert f"{path}: row 1 holds a non-finite value" in err
    assert not any((tmp_path / name).exists() for name in ("run", "out", "r.json"))


# ---------------------------------------------------------------------------
# malformed manifests


def _dataset_case(root):
    assert cli.main(_gen_args(root / "d", n=4)) == 0
    argv = ["eval", "--oracle", "--data", str(root / "d"), "--out", str(root / "r.json")]
    return root / "d" / "manifest.json", argv


def _sequences_case(root):
    assert cli.main(_gen_seq_args(root / "s")) == 0
    return root / "s" / "manifest.json", ["train-lcm", "--data", str(root / "s"),
                                          "--out", str(root / "o")]


def _checkpoint_case(root):
    checkpoints.save_tensors(root / "m", {"w": np.ones((2, 2))}, {"kind": "lcm"})
    return root / "m" / "params.json", ["sample", "--lcm", str(root / "m"),
                                        "--prefix", str(root / "p.bin"),
                                        "--out", str(root / "n.bin")]


def _projector_config_case(root, **config):
    assert cli.main(_gen_args(root / "d", n=4)) == 0
    cfg = ProjectorConfig(frame_dim=12, concept_dim=6, heads=2, **config)
    checkpoints.save_projector(root / "m", init_projector(cfg, stream_rng(0, 1)), cfg)
    argv = ["eval", "--projector", str(root / "m"), "--data", str(root / "d"),
            "--out", str(root / "r.json")]
    return root / "m" / "params.json", argv


def _ablated_projector_case(root):
    return _projector_config_case(root, pooling="mean", use_temporal_attention=False)


def _lcm_config_case(root):
    cfg = latentdiff.LcmModelConfig(concept_dim=4, ctx_width=8, ctx_heads=2, ctx_layers=1,
                                    den_width=8, den_depth=1, lambda_emb_dim=4)
    checkpoints.save_lcm(root / "m", latentdiff.init_two_tower(cfg, stream_rng(0, 2)), cfg)
    corpus.write_embeddings(root / "p.bin", np.ones((2, 4)))
    return root / "m" / "params.json", _sample_args(root / "n.bin", root / "m", root / "p.bin")


def _lcm_schedule_case(root):
    manifest, argv = _lcm_config_case(root)
    doc = json.loads(manifest.read_text())
    doc["meta"]["schedule"] = {"steps": 6, "lambda_max": 10.0, "lambda_min": -10.0}
    manifest.write_text(json.dumps(doc))
    return manifest, argv


def _train_state_case(root):
    assert cli.main(_gen_seq_args(root / "s")) == 0
    config = root / "tiny.json"
    config.write_text(json.dumps({"latentdiff": {
        "model": {"ctx_width": 8, "ctx_heads": 2, "ctx_layers": 1, "den_width": 8,
                  "den_depth": 1, "lambda_emb_dim": 4},
        "train": {"max_steps": 2, "warmup_steps": 1, "ckpt_every": 1, "batch_size": 2},
    }, "schedule": {"steps": 3}}))
    assert cli.main(_train_args(root / "o", root / "s", config)) == 0
    ckpt = root / "o" / "checkpoints" / "step-000001"
    return ckpt / "params.json", _train_args(root / "r", root / "s", config,
                                             extra=["--resume", str(ckpt)])


# Per loader: how to build a valid input, the path to a required key, and a
# wrong-typed value for it.
_LOADERS = {
    "dataset": (_dataset_case, ("n",), [7]),
    "dataset-world": (_dataset_case, ("world", "seed"), "abc"),
    "sequences": (_sequences_case, ("lengths",), 7),
    # A callable value maps the valid value to one that was once cast, not
    # checked, and so accepted.
    "dataset-n-str": (_dataset_case, ("n",), str),
    "dataset-n-float": (_dataset_case, ("n",), float),
    "dataset-frames-float": (_dataset_case, ("frames",), float),
    "dataset-world-seed-bool": (_dataset_case, ("world", "seed"), True),
    "dataset-world-seed-float": (_dataset_case, ("world", "seed"), lambda v: v + 0.9),
    "dataset-world-frames-float": (_dataset_case, ("world", "frames"), lambda v: v + 0.7),
    "dataset-world-bank-str": (_dataset_case, ("world", "bank_size"), str),
    "dataset-world-sigma-str": (_dataset_case, ("world", "noise_sigma"), str),
    # Dims that disagree with the stored files or with each other.
    "dataset-frame-dim": (_dataset_case, ("frame_dim",), lambda v: v + 2),
    "dataset-concept-dim": (_dataset_case, ("concept_dim",), lambda v: v + 93),
    "dataset-world-frame-dim": (_dataset_case, ("world", "frame_dim"), 5),
    "dataset-world-concept-dim": (_dataset_case, ("world", "concept_dim"), lambda v: v + 1),
    "dataset-world-frames": (_dataset_case, ("world", "frames"), lambda v: v + 1),
    "dataset-world-bank-size": (_dataset_case, ("world", "bank_size"), 2),
    "sequences-length-float": (_sequences_case, ("lengths", 0), float),
    "sequences-lengths-zero": (_sequences_case, ("lengths",),
                               lambda ls: [sum(ls)] + [0] * (len(ls) - 1)),
    "sequences-lengths-negative": (_sequences_case, ("lengths",),
                                   lambda ls: [sum(ls) + 1, -1] + [0] * (len(ls) - 2)),
    "sequences-count": (_sequences_case, ("count",), lambda v: v + 1),
    "sequences-dim": (_sequences_case, ("dim",), lambda v: v + 1),
    "checkpoint": (_checkpoint_case, ("tensors",), 7),
    "projector-config": (_projector_config_case, ("meta", "config"), 7),
    "lcm-config": (_lcm_config_case, ("meta", "config"), 7),
    "checkpoint-meta": (_lcm_config_case, ("meta",), [1]),
    "lcm-schedule": (_lcm_schedule_case, ("meta", "schedule"), "abc"),
    "train-state": (_train_state_case, ("meta", "step"), [7]),
    # The state's own max_steps is 2: a resume from step 999 would train
    # nothing, and one from -3 has no batch stream.
    "train-state-step-past-end": (_train_state_case, ("meta", "step"), 999),
    "train-state-step-negative": (_train_state_case, ("meta", "step"), -3),
    "train-state-step-bool": (_train_state_case, ("meta", "step"), True),
    # Tensors against the model's layout (the "tensor-*" faults re-save a
    # self-consistent index): the key names the tensor, or with "tensor-missing"
    # a prefix of the names to drop; the value is the shape to write.
    "projector-out-w": (_projector_config_case, ("out.w",), [3, 12]),
    "projector-junk": (_projector_config_case, ("junk",), [2]),
    # An ablated projector; its "tensor-full-layout" fault rewrites it the way
    # a release that stored every config's attention and pooling tensors wrote it.
    "projector-ablated": (_ablated_projector_case, ("attn.wq",), None),
    "lcm-null-ctx": (_lcm_config_case, ("null_ctx",), None),
    "train-state-model-out-w": (_train_state_case, ("model.den.out_w",), None),
    "train-state-opt-v": (_train_state_case, ("opt.v.",), None),
    "train-state-model-junk": (_train_state_case, ("model.junk",), [2]),
    "train-state-best-null-ctx": (_train_state_case, ("best.null_ctx",), None),
    "train-state-best-out-b": (_train_state_case, ("best.den.out_b",), [3]),
}

# The format names an older release wrote; each is refused by name.
_OLD_FORMATS = {"sequences": "sequence-corpus-v1", "checkpoint": "tensor-dir-v1",
                "projector-config": "tensor-dir-v1", "train-state": "tensor-dir-v1"}


_FAULTS = [(loader, fault) for loader in ("dataset", "sequences", "checkpoint")
           for fault in ("missing-key", "wrong-type", "not-json")]
# Checkpoint fields read after params.json parses; bad JSON is the "checkpoint" case.
_FAULTS += [(loader, fault) for loader in ("projector-config", "lcm-config", "train-state")
            for fault in ("missing-key", "wrong-type")]


_FAULTS += [("checkpoint-meta", "wrong-type"), ("lcm-schedule", "wrong-type"),
            ("lcm-schedule", "unknown-key"), ("dataset-world", "missing-key"),
            ("dataset-world", "wrong-type"), ("train-state-step-past-end", "wrong-type"),
            ("train-state-step-negative", "wrong-type"), ("train-state-step-bool", "wrong-type")]
# Manifest numbers that were cast or never read, and dims that disagree with
# the stored files; the error names the key.
_NAMED_KEYS = {
    "dataset-n-str": "n must be an integer", "dataset-n-float": "n must be an integer",
    "dataset-frames-float": "frames must be an integer",
    "dataset-world-seed-bool": "WorldConfig seed", "dataset-world-seed-float": "WorldConfig seed",
    "dataset-world-frames-float": "WorldConfig frames",
    "dataset-world-bank-str": "WorldConfig bank_size",
    "dataset-world-sigma-str": "WorldConfig noise_sigma",
    "dataset-frame-dim": "frame_dim 14 does not match the 12 columns of frames.bin",
    "dataset-concept-dim": "concept_dim 99 does not match the 6 columns of targets.bin",
    "dataset-world-frame-dim": "world frame_dim 5 does not match the dataset's 12",
    "dataset-world-concept-dim": "world concept_dim 7 does not match the dataset's 6",
    "dataset-world-frames": "world frames 5 does not match the dataset's 4",
    "dataset-world-bank-size": "world bank_size 2 does not cover caption id",
    "sequences-length-float": "lengths[0] must be an integer >= 1",
    "sequences-lengths-zero": "lengths[1] must be an integer >= 1",
    "sequences-lengths-negative": "lengths[1] must be an integer >= 1",
    "sequences-count": "count", "sequences-dim": "dim",
}
_FAULTS += [(loader, "wrong-type") for loader in _NAMED_KEYS]
# A checkpoint's index and its tensors.bin, through sample, eval --projector
# and train-lcm --resume.
_FAULTS += [(loader, fault) for loader in ("checkpoint", "projector-config", "train-state")
            for fault in ("old-format", "index-short", "index-long", "negative-dim",
                          "fractional-dim", "no-payload", "short-payload")]
_LAYOUT_FAULTS = [
    ("projector-out-w", "tensor-missing"), ("projector-out-w", "tensor-shape"),
    ("projector-out-w", "tensor-nan"), ("projector-junk", "tensor-shape"),
    ("projector-ablated", "tensor-full-layout"),
    ("lcm-null-ctx", "tensor-missing"), ("lcm-null-ctx", "tensor-nan"),
    ("train-state-model-out-w", "tensor-missing"), ("train-state-opt-v", "tensor-missing"),
    ("train-state-model-junk", "tensor-shape"), ("train-state-best-null-ctx", "tensor-missing"),
    ("train-state-best-out-b", "tensor-shape"),
]
_FAULTS += _LAYOUT_FAULTS


def _tensor_fault(root, fault, name, shape):
    """Drop, reshape or poison tensors of the checkpoint at `root`."""
    tensors, meta = checkpoints.load_tensors(root)
    if fault == "tensor-full-layout":
        # Every tensor of the full config, in its order, under the stored config.
        cfg = from_dict(ProjectorConfig, meta["config"])
        full = replace(cfg, pooling="attention", use_temporal_attention=True)
        checkpoints.save_tensors(root, init_projector(full, stream_rng(0, 1)), meta)
        return
    if fault == "tensor-nan":
        payload = root / checkpoints.TENSOR_FILE
        data = bytearray(payload.read_bytes())
        names = list(tensors)
        tail = sum(tensors[k].size for k in names[names.index(name):])
        data[len(data) - 8 * tail : len(data) - 8 * tail + 8] = np.float64(np.nan).tobytes()
        payload.write_bytes(bytes(data))
        return
    tensors = {k: v for k, v in tensors.items() if not (fault == "tensor-missing"
                                                        and k.startswith(name))}
    if fault == "tensor-shape":
        tensors[name] = np.ones(shape)
    checkpoints.save_tensors(root, tensors, meta)


def _first_shape(doc):
    return next(iter(doc["tensors"].values()))


@pytest.mark.parametrize(("loader", "fault"), _FAULTS + [("sequences", "old-format"),
                                                         ("lcm-config", "unknown-key")])
def test_malformed_manifest_exits_3(loader, fault, tmp_path, capsys):
    build, (*parents, key), bad_value = _LOADERS[loader]
    manifest, argv = build(tmp_path)
    if fault.startswith("tensor-"):
        _tensor_fault(manifest.parent, fault, key, bad_value)
    doc = json.loads(manifest.read_text())
    node = doc
    for name in parents:
        node = node[name]
    payload = manifest.parent / checkpoints.TENSOR_FILE
    if fault == "missing-key":
        del node[key]
    elif fault == "wrong-type":
        node[key] = bad_value(node[key]) if callable(bad_value) else bad_value
    elif fault == "unknown-key":
        node[key]["use_tags"] = True
    elif fault == "old-format":
        doc["format"] = _OLD_FORMATS[loader]
    elif fault == "index-short":
        del doc["tensors"][next(iter(doc["tensors"]))]
    elif fault == "index-long":
        doc["tensors"]["extra"] = [3]
    elif fault == "negative-dim":
        _first_shape(doc)[0] *= -1
    elif fault == "fractional-dim":
        _first_shape(doc)[0] = 0.5
    elif fault == "no-payload":
        payload.unlink()
    elif fault == "short-payload":
        payload.write_bytes(payload.read_bytes()[:-5])
    manifest.write_text("{not json" if fault == "not-json" else json.dumps(doc))
    capsys.readouterr()
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    if fault == "old-format":
        assert repr(_OLD_FORMATS[loader]) in err
    if loader.startswith("train-state-step"):
        assert "step must be an integer in [0, max_steps 2]" in err
    if (loader, fault) in _LAYOUT_FAULTS:
        assert err.count("\n") == 1 and key in err
    if loader in _NAMED_KEYS:
        assert _NAMED_KEYS[loader] in err


@pytest.mark.parametrize("stored", [[1], {"steps": "x"}, {"steps": 1}])
def test_sample_malformed_stored_schedule_exits_3(stored, tmp_path, capsys):
    manifest, argv = _lcm_schedule_case(tmp_path)
    doc = json.loads(manifest.read_text())
    doc["meta"]["schedule"] = stored
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_sample_schedule_flags_override_the_stored_schedule(tmp_path, capsys):
    manifest, argv = _lcm_schedule_case(tmp_path)
    assert cli.main([*argv, "--lambda-max", "4", "--lambda-min", "-3"]) == 0
    resolved = json.loads((tmp_path / "resolved-config.json").read_text())
    assert (resolved["steps"], resolved["lambda_max"], resolved["lambda_min"]) == (6, 4.0, -3.0)
    capsys.readouterr()
    assert cli.main([*argv, "--lambda-max", "-5", "--lambda-min", "-3"]) == 2
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# model layouts


_MODELS = {
    "projector": (projector.layout, init_projector, checkpoints.save_projector,
                  checkpoints.load_projector),
    "lcm": (latentdiff.layout, latentdiff.init_two_tower, checkpoints.save_lcm,
            checkpoints.load_lcm),
}


@pytest.mark.parametrize(("model", "cfg"), [
    ("projector", ProjectorConfig(frame_dim=64, concept_dim=32)),
    ("projector", ProjectorConfig(frame_dim=64, concept_dim=32, use_adapter=False,
                                  pooling="mean", use_temporal_attention=False)),
    ("projector", ProjectorConfig(frame_dim=64, concept_dim=32, pooling="max")),
    ("projector", ProjectorConfig(frame_dim=64, concept_dim=32, use_temporal_attention=False)),
    ("lcm", latentdiff.LcmModelConfig(concept_dim=32)),
    ("lcm", latentdiff.LcmModelConfig(concept_dim=16, ctx_layers=3, den_depth=1)),
], ids=["projector-default", "projector-bare", "projector-max", "projector-no-temporal",
        "lcm-default", "lcm-deep-ctx"])
def test_layout_is_what_init_makes_and_a_checkpoint_holds(tmp_path, model, cfg):
    layout, init, save, load = _MODELS[model]
    shapes = list(layout(cfg).items())
    tensors = init(cfg, stream_rng(0, 1))
    assert [(k, v.shape) for k, v in tensors.items()] == shapes
    save(tmp_path / "m", tensors, cfg)
    loaded, loaded_cfg, _meta = load(tmp_path / "m")
    assert loaded_cfg == cfg
    assert [(k, v.shape) for k, v in loaded.items()] == shapes


# ---------------------------------------------------------------------------
# parser behaviour


def test_main_calls_in_one_process_get_their_own_defaults(trained_lcm, tmp_path, capsys):
    model, data = trained_lcm
    prefix = tmp_path / "prefix.bin"
    _write_prefix(prefix, data)
    guided, plain = tmp_path / "guided", tmp_path / "plain"
    assert cli.main(_sample_args(guided / "next.bin", model, prefix,
                                 extra=["--guidance", "1.5", "--eta", "0.5"])) == 0
    assert cli.main(["gen-seq", "--out", str(tmp_path / "seq"), "--n", "4",
                     "--bank-size", "8", "--dim", "6", "--seed", "4"]) == 0
    assert cli.main(["sample", "--lcm", str(model), "--prefix", str(prefix),
                     "--steps", "6", "--out", str(plain / "next.bin")]) == 0
    first = json.loads((guided / "resolved-config.json").read_text())
    second = json.loads((plain / "resolved-config.json").read_text())
    assert (first["guidance"], first["eta"], first["seed"]) == (1.5, 0.5, 9)
    assert (second["guidance"], second["eta"], second["seed"]) == (0.0, 0.0, 0)
    assert cli.main(["sample", "--help"]) == 0
    assert cli.main(["sample", "--lcm", str(model)]) == 2
    assert cli.main(["sample", "--lcm", str(model), "--prefix", str(prefix),
                     "--steps", "6", "--out", str(plain / "next.bin")]) == 0
    assert json.loads((plain / "resolved-config.json").read_text()) == second
    assert cli.build_parser() is cli.build_parser()
    capsys.readouterr()


def test_main_runs_the_command_bound_at_call_time(monkeypatch, tmp_path):
    cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_gen_seq", lambda args: seen.append(args.n) or 7)
    assert cli.main(["gen-seq", "--out", str(tmp_path / "seq"), "--n", "4"]) == 7
    assert seen == [4] and not (tmp_path / "seq").exists()


def test_main_without_command_returns_2(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_main_unknown_command_returns_2(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# config blocks, key by key


_CONFIG_CLASSES = (ProjectorConfig, AlignConfig, cli.StageFile, latentdiff.LcmModelConfig,
                   latentdiff.LcmTrainConfig, latentdiff.ScheduleConfig)


def _mistyped(cls, name):
    """A JSON value of a type that field `name` of `cls` does not take."""
    hint = typing.get_type_hints(cls)[name]
    return 1 if str in (hint, *typing.get_args(hint)) else "x"


# Every key of every config class, except the dims the command fills from its data.
_KEYS = [(cls, f.name) for cls in _CONFIG_CLASSES for f in fields(cls)
         if f.name not in ("frame_dim", "concept_dim")]


@pytest.mark.parametrize(("cls", "key"), _KEYS,
                         ids=[f"{cls.__name__}.{key}" for cls, key in _KEYS])
def test_mistyped_config_value_exits_2_naming_the_key(align_setup, lcm_setup, tmp_path,
                                                      capsys, cls, key):
    _root, _data, stage, config = align_setup
    _lcm_root, seqs, _lcm_config = lcm_setup
    bad = tmp_path / "bad.json"
    value = {key: _mistyped(cls, key)}
    out = tmp_path / "run"
    if cls is cli.StageFile:
        bad.write_text(json.dumps({"dataset": "data", **value}))
        argv = _align_args(out, bad, config)
    elif cls in (ProjectorConfig, AlignConfig):
        bad.write_text(json.dumps({"projector" if cls is ProjectorConfig else "aligner": value}))
        argv = _align_args(out, stage, bad)
    else:
        block = {latentdiff.LcmModelConfig: "model", latentdiff.LcmTrainConfig: "train"}
        doc = {"latentdiff": {block[cls]: value}} if cls in block else {"schedule": value}
        bad.write_text(json.dumps(doc))
        argv = _train_args(out, seqs, bad)
    capsys.readouterr()
    code = cli.main(argv)
    _assert_one_line_usage_error(capsys, code, f"{cls.__name__} {key} must be")
    assert not out.exists()


# ProjectorConfig and LcmModelConfig round-trip in test_projector.py and test_latentdiff.py.
@pytest.mark.parametrize("cfg", [
    AlignConfig(lambda_con=0.5, max_epochs=3, seed=7),
    cli.StageFile(dataset="data", name="coarse", epochs=2, lr_overrides={"tau": 0.1}),
    latentdiff.LcmTrainConfig(lr=1e-3, max_steps=50, warmup_steps=5, seed=3),
    latentdiff.ScheduleConfig(steps=6, lambda_max=4, lambda_min=-3),
], ids=lambda cfg: type(cfg).__name__)
def test_config_dict_round_trip(cfg):
    # Stage overrides rebuild the aligner config from its dict, so each class must round-trip.
    assert from_dict(type(cfg), asdict(cfg)) == cfg
