"""End-to-end tests for the command-line front end.

Every test drives cli.main([...]) directly so exit codes and printed output
are checked exactly as a shell user would see them.  Byte-reproducibility
tests rerun a command with the *same* --out path (the resolved config embeds
paths as given) and compare file hashes before and after.
"""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from conceptspace import checkpoints, cli, corpus, latentdiff, spaceval
from conceptspace.numerics import stream_rng
from conceptspace.projector import ProjectorConfig, init_projector, project


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


def test_align_bad_override_in_a_later_stage_exits_2_before_training(align_setup, tmp_path,
                                                                    capsys):
    _root, data, stage, config = align_setup
    later = tmp_path / "later.json"
    later.write_text(json.dumps({"dataset": str(data), "epochs": 0}))
    capsys.readouterr()
    code = cli.main(_align_args(tmp_path / "run", f"{stage},{later}", config))
    _assert_one_line_usage_error(capsys, code, "bad overrides in stage 'later'")
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
], ids=["latentdiff-list", "model-list", "unknown-top", "unknown-latentdiff"])
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

    # The drift rows match a per-row projection and nearest decode.
    params, proj_cfg, _meta = checkpoints.load_projector(run / "projector")
    ds = corpus.PairedDataset.load(data)
    bank = corpus.world_from_config(ds.meta["world"]).caption_bank
    zv = np.stack([project(params, proj_cfg, f)[0] for f in ds.frames])
    decoded = [spaceval.nearest_decode(row, bank) for row in zv]
    expected = tmp_path / "expected.csv"
    spaceval.drift_export(zv, bank[ds.caption_ids], bank[decoded], expected)
    got = np.loadtxt(drift, delimiter=",", skiprows=1)
    want = np.loadtxt(expected, delimiter=",", skiprows=1)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


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
    csv_path = tmp_path / "drift.csv"
    assert cli.main(["eval", "--oracle", "--data", str(data),
                     "--drift-csv", str(csv_path),
                     "--out", str(tmp_path / "r.json")]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "cos_gold,cos_decoded,dist_gold,dist_decoded"
    assert len(lines) == 1 + 24


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


def _projector_config_case(root):
    assert cli.main(_gen_args(root / "d", n=4)) == 0
    cfg = ProjectorConfig(frame_dim=12, concept_dim=6, heads=2)
    checkpoints.save_projector(root / "m", init_projector(cfg, stream_rng(0, 1)), cfg)
    argv = ["eval", "--projector", str(root / "m"), "--data", str(root / "d"),
            "--out", str(root / "r.json")]
    return root / "m" / "params.json", argv


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
    "sequences": (_sequences_case, ("lengths",), 7),
    "checkpoint": (_checkpoint_case, ("tensors",), 7),
    "projector-config": (_projector_config_case, ("meta", "config"), 7),
    "lcm-config": (_lcm_config_case, ("meta", "config"), 7),
    "checkpoint-meta": (_lcm_config_case, ("meta",), [1]),
    "lcm-schedule": (_lcm_schedule_case, ("meta", "schedule"), "abc"),
    "train-state": (_train_state_case, ("meta", "step"), [7]),
}


_FAULTS = [(loader, fault) for loader in ("dataset", "sequences", "checkpoint")
           for fault in ("missing-key", "wrong-type", "not-json")]
# Checkpoint fields read after params.json parses; bad JSON is the "checkpoint" case.
_FAULTS += [(loader, fault) for loader in ("projector-config", "lcm-config", "train-state")
            for fault in ("missing-key", "wrong-type")]


_FAULTS += [("checkpoint-meta", "wrong-type"), ("lcm-schedule", "wrong-type"),
            ("lcm-schedule", "unknown-key")]


@pytest.mark.parametrize(("loader", "fault"), _FAULTS + [("sequences", "old-format"),
                                                         ("lcm-config", "unknown-key")])
def test_malformed_manifest_exits_3(loader, fault, tmp_path, capsys):
    build, (*parents, key), bad_value = _LOADERS[loader]
    manifest, argv = build(tmp_path)
    doc = json.loads(manifest.read_text())
    node = doc
    for name in parents:
        node = node[name]
    if fault == "missing-key":
        del node[key]
    elif fault == "wrong-type":
        node[key] = bad_value
    elif fault == "unknown-key":
        node[key]["use_tags"] = True
    elif fault == "old-format":
        doc["format"] = "sequence-corpus-v1"
    manifest.write_text("{not json" if fault == "not-json" else json.dumps(doc))
    capsys.readouterr()
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


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
