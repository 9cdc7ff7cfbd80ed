"""Command-line front end: one subcommand per pipeline phase.

Subcommands: gen (paired dataset), gen-seq (rule-driven sequence corpus),
align (curriculum training of the projector), train-lcm (next-embedding
model), eval (space + round-trip report), sample (guided generation).

Every command is a pure function of its resolved configuration and input
files; rerunning with identical inputs produces byte-identical outputs. Each
output directory receives a resolved-config.json sufficient to reproduce the
run. Exit codes: 0 success, 2 usage/config error, 3 I/O error, 4 divergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import checkpoints, corpus, latentdiff, spaceval
from .aligner import AlignConfig, run_curriculum
from .corpus import CurriculumStage, EmbeddingFormatError, PairedDataset
from .numerics import stream_rng
from .optim import TrainingDivergedError
from .projector import ProjectorConfig, project
from .records import from_dict

_STREAM_SAMPLES = 1
_STREAM_SEQ = 2
_STREAM_CLI_SAMPLE = 3

# Rows per batched projector call in eval: one call over every row raises peak
# memory by the size of the attention intermediates of the whole dataset.
EVAL_BLOCK = 32


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _write_resolved_config(directory: Path, config: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    text = json.dumps(config, indent=2, sort_keys=True) + "\n"
    (directory / "resolved-config.json").write_text(text)


def _load_json(path: str | Path, purpose: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise CliError(2, f"{purpose} file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(2, f"could not parse {purpose} file {p}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError(2, f"{purpose} file {p} must hold a JSON object, got {type(doc).__name__}")
    return doc


def _blocks(doc: dict, allowed: tuple[str, ...], where: str) -> dict[str, dict]:
    """Each allowed block of `doc` ({} when absent); other names and non-objects exit 2."""
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise CliError(2, f"unknown {where} block(s): {', '.join(unknown)} "
                          f"(allowed: {', '.join(allowed)})")
    blocks = {name: doc.get(name, {}) for name in allowed}
    for name, block in blocks.items():
        if not isinstance(block, dict):
            raise CliError(2, f"{where} block {name!r} must be an object, "
                              f"got {type(block).__name__}")
    return blocks


def _config(cls, block: dict, label: str, **given):
    """Dataclass `cls` from a config block with each given value that is not
    None (a CLI flag's) laid over it; a malformed value exits 2 naming its key."""
    try:
        return from_dict(cls, block | {k: v for k, v in given.items() if v is not None})
    except (TypeError, ValueError) as exc:
        raise CliError(2, f"bad {label}: {exc}") from exc


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    if args.n < 1:
        raise CliError(2, f"--n must be >= 1, got {args.n}")
    if args.frames < 1:
        raise CliError(2, f"--frames must be >= 1, got {args.frames}")
    if args.dim_frame < 1:
        raise CliError(2, f"--dim-frame must be >= 1, got {args.dim_frame}")
    world = corpus.make_world(
        seed=args.seed,
        frame_dim=args.dim_frame,
        concept_dim=args.dim_concept,
        frames=args.frames,
        bank_size=args.bank_size,
        noise_sigma=args.noise,
        drift_scale=args.drift,
    )
    dataset = corpus.gen_synthetic_pairs(world, args.n, stream_rng(args.seed, _STREAM_SAMPLES))
    dataset.meta["sample_seed"] = args.seed
    out = Path(args.out)
    dataset.save(out)
    resolved = {
        "command": "gen",
        "seed": args.seed,
        "n": args.n,
        "frames": args.frames,
        "dim_frame": args.dim_frame,
        "dim_concept": args.dim_concept,
        "noise": args.noise,
        "bank_size": args.bank_size,
        "drift": args.drift,
        "out": str(out),
    }
    _write_resolved_config(out, resolved)
    print(
        f"wrote {args.n} samples ({args.frames}x{args.dim_frame} frames, "
        f"{args.dim_concept}-dim targets, bank {args.bank_size}) to {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# gen-seq


def cmd_gen_seq(args) -> int:
    if args.n < 1:
        raise CliError(2, f"--n must be >= 1, got {args.n}")
    bank = corpus.make_caption_bank(
        stream_rng(args.seed, 11), args.bank_size, args.dim_concept
    )
    try:
        sequences = corpus.gen_rule_sequences(
            bank, args.rule_a, args.rule_b, args.n, args.min_len, args.max_len,
            stream_rng(args.seed, _STREAM_SEQ),
        )
    except ValueError as exc:
        raise CliError(2, str(exc)) from exc
    out = Path(args.out)
    meta = {
        "seed": args.seed,
        "bank_size": args.bank_size,
        "concept_dim": args.dim_concept,
        "rule_a": args.rule_a,
        "rule_b": args.rule_b,
    }
    corpus.save_sequences(out, sequences, meta)
    corpus.write_embeddings(out / "bank.bin", bank)
    resolved = {"command": "gen-seq", "out": str(out), **meta,
                "n": args.n, "min_len": args.min_len, "max_len": args.max_len}
    _write_resolved_config(out, resolved)
    print(f"wrote {args.n} sequences over a {args.bank_size}-entry bank to {out}")
    return 0


# ---------------------------------------------------------------------------
# align


@dataclass(frozen=True)
class StageFile:
    """The keys of a stage JSON file; a relative `dataset` is read from the file's folder."""

    dataset: str
    name: str | None = None  # defaults to the file's stem
    epochs: int | None = None
    batch_size: int | None = None
    lr_overrides: dict = field(default_factory=dict)


def _parse_stages(stage_arg: str) -> list[CurriculumStage]:
    stages = []
    for part in stage_arg.split(","):
        path = Path(part.strip())
        doc = _config(StageFile, _load_json(path, "stage"), f"stage file {path}")
        stages.append(
            CurriculumStage(
                name=path.stem if doc.name is None else doc.name,
                dataset_path=path.parent / doc.dataset,
                epochs=doc.epochs,
                batch_size=doc.batch_size,
                lr_overrides=doc.lr_overrides,
            )
        )
    return stages


def cmd_align(args) -> int:
    stages = _parse_stages(args.stages)
    blocks = _blocks(_load_json(args.config, "config") if args.config else {},
                     ("projector", "aligner"), "align config")

    first = PairedDataset.load(stages[0].dataset_path)
    stages[0] = replace(stages[0], dataset=first)
    proj_cfg = _config(ProjectorConfig, blocks["projector"], "projector config",
                       frame_dim=first.frames.shape[2], concept_dim=first.targets.shape[1],
                       heads=args.heads, pooling=args.pooling)
    align_cfg = _config(AlignConfig, blocks["aligner"], "aligner config", seed=args.seed)

    params, histories = run_curriculum(stages, proj_cfg, align_cfg)

    out = Path(args.out)
    for idx, (stage, history) in enumerate(zip(stages, histories)):
        history.write_csvs(out / f"stage-{idx:02d}-{stage.name}")
    checkpoints.save_projector(out / "projector", params, proj_cfg,
                               extra_meta={"seed": align_cfg.seed})
    resolved = {
        "command": "align",
        "projector": asdict(proj_cfg),
        "aligner": asdict(align_cfg),
        "stages": [
            {
                "name": s.name,
                "dataset": str(s.dataset_path),
                "epochs": s.epochs,
                "batch_size": s.batch_size,
                "lr_overrides": s.lr_overrides,
            }
            for s in stages
        ],
        "out": str(out),
    }
    _write_resolved_config(out, resolved)
    for idx, history in enumerate(histories):
        print(
            f"stage {idx}: best val_mse {history.best_val_mse:.6g} "
            f"at epoch {history.best_epoch}"
        )
    return 0


# ---------------------------------------------------------------------------
# train-lcm


def cmd_train_lcm(args) -> int:
    blocks = _blocks(_load_json(args.config, "config") if args.config else {},
                     ("latentdiff", "schedule"), "train-lcm config")
    lcm_blocks = _blocks(blocks["latentdiff"], ("model", "train"), "latentdiff")
    sequences, _meta = corpus.load_sequences(args.data)
    model_cfg = _config(latentdiff.LcmModelConfig, lcm_blocks["model"], "model config",
                        concept_dim=sequences[0].embeddings.shape[1])
    train_cfg = _config(latentdiff.LcmTrainConfig, lcm_blocks["train"], "train config",
                        seed=args.seed, max_steps=args.max_steps, ckpt_every=args.ckpt_every,
                        lr=args.lr)
    sched_cfg = _config(latentdiff.ScheduleConfig, blocks["schedule"], "schedule config",
                        steps=args.steps)

    out = Path(args.out)
    params, history = latentdiff.train_lcm(
        sequences, model_cfg, train_cfg, latentdiff.build_schedule(**asdict(sched_cfg)),
        out_dir=out, resume=args.resume,
    )
    history.write_csvs(out)
    checkpoints.save_lcm(
        out / "model", params, model_cfg,
        extra_meta={
            "best_step": history.best_step,
            "best_val": history.best_val,
            "schedule": asdict(sched_cfg),
        },
    )
    resolved = {
        "command": "train-lcm",
        "data": str(args.data),
        "out": str(out),
        "model": asdict(model_cfg),
        "train": asdict(train_cfg),
        "schedule": asdict(sched_cfg),
        "resume": str(args.resume) if args.resume else None,
    }
    _write_resolved_config(out, resolved)
    print(f"best val loss {history.best_val:.6g} at step {history.best_step}")
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    dataset = PairedDataset.load(args.data)
    world_cfg = dataset.meta.get("world")
    if not world_cfg:
        raise CliError(2, f"dataset {args.data} has no world metadata; cannot rebuild its caption bank")
    with corpus.malformed_manifest(Path(args.data) / "manifest.json"):
        world = corpus.world_from_config(world_cfg)
        t, frame_dim = dataset.frames.shape[1:]
        stored = {"frame_dim": frame_dim, "concept_dim": dataset.targets.shape[1], "frames": t}
        for key, value in stored.items():
            if getattr(world, key) != value:
                raise ValueError(f"world {key} {getattr(world, key)} does not match "
                                 f"the dataset's {value}")
        top_id = int(dataset.caption_ids.max())
        if world.bank_size <= top_id:
            raise ValueError(f"world bank_size {world.bank_size} does not cover "
                             f"caption id {top_id}")

    zt = dataset.targets
    if args.oracle:
        zv = zt.copy()
        projector_desc = "oracle (targets passed through)"
    else:
        if not args.projector:
            raise CliError(2, "either --projector or --oracle is required")
        params, proj_cfg, _meta = checkpoints.load_projector(args.projector)
        if proj_cfg.frame_dim != dataset.frames.shape[2]:
            raise CliError(
                2,
                f"projector frame_dim {proj_cfg.frame_dim} does not match "
                f"dataset frame dim {dataset.frames.shape[2]}",
            )
        if proj_cfg.concept_dim != zt.shape[1]:
            raise CliError(
                2,
                f"projector concept_dim {proj_cfg.concept_dim} does not match "
                f"dataset concept dim {zt.shape[1]}",
            )
        zv = np.concatenate([
            project(params, proj_cfg, dataset.frames[i : i + EVAL_BLOCK])[0]
            for i in range(0, len(dataset), EVAL_BLOCK)
        ])
        projector_desc = str(args.projector)

    echo = {"projector": projector_desc, "data": str(args.data), "n": len(dataset)}
    report = spaceval.build_space_report(
        zv, zt, world.caption_bank, dataset.caption_ids, config=echo
    )
    roundtrip = spaceval.roundtrip_retrieval(zv, world.caption_bank, dataset.caption_ids)
    doc = {
        "space": spaceval.space_report_to_dict(report),
        "roundtrip": spaceval.roundtrip_report_to_dict(roundtrip),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if args.drift_csv:
        spaceval.drift_export(
            zv,
            world.caption_bank[dataset.caption_ids],
            world.caption_bank[roundtrip.decoded_ids],
            args.drift_csv,
        )
    _write_resolved_config(
        out.parent,
        {
            "command": "eval",
            "projector": projector_desc,
            "data": str(args.data),
            "out": str(out),
            "oracle": bool(args.oracle),
            "drift_csv": str(args.drift_csv) if args.drift_csv else None,
        },
    )
    print(
        f"R@1 {report.recall_at[1]:.4f}  MRR {report.mrr:.4f}  AC {report.ac:.4f}  "
        f"decode_acc {roundtrip.decode_accuracy:.4f}"
    )
    return 0


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args) -> int:
    if not (np.isfinite(args.eta) and args.eta >= 0.0):
        raise CliError(2, f"--eta must be finite and >= 0, got {args.eta}")
    if not np.isfinite(args.guidance):
        raise CliError(2, f"--guidance must be finite, got {args.guidance}")
    params, model_cfg, meta = checkpoints.load_lcm(args.lcm)
    prefix = corpus.read_finite_embeddings(args.prefix)
    if prefix.shape[1] != model_cfg.concept_dim:
        raise CliError(
            2,
            f"prefix dim {prefix.shape[1]} does not match model concept_dim "
            f"{model_cfg.concept_dim}",
        )
    if prefix.shape[0] < 1:
        raise CliError(2, "prefix file holds no rows")
    bank = corpus.read_finite_embeddings(args.bank) if args.bank else None
    if bank is not None and bank.shape[1] != model_cfg.concept_dim:
        raise CliError(2, f"bank dim {bank.shape[1]} does not match model")
    with corpus.malformed_manifest(Path(args.lcm) / "params.json"):
        stored = from_dict(latentdiff.ScheduleConfig, meta.get("schedule", {}))
    sched_cfg = _config(latentdiff.ScheduleConfig, asdict(stored), "schedule",
                        steps=args.steps, lambda_max=args.lambda_max, lambda_min=args.lambda_min)
    schedule = latentdiff.build_schedule(**asdict(sched_cfg))
    z = latentdiff.sample_next(
        params, model_cfg, prefix, schedule,
        guidance_scale=args.guidance,
        rng=stream_rng(args.seed, _STREAM_CLI_SAMPLE),
        eta=args.eta,
    )
    # Decoded before the write, so a bank it refuses leaves no --out behind.
    decoded = None if bank is None else spaceval.nearest_decode(z, bank)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    corpus.write_embeddings(out, z[None, :])
    if decoded is not None:
        print(f"decoded_caption_id={decoded}")
    _write_resolved_config(
        out.parent,
        {
            "command": "sample",
            "lcm": str(args.lcm),
            "prefix": str(args.prefix),
            **asdict(sched_cfg),
            "guidance": args.guidance,
            "eta": args.eta,
            "seed": args.seed,
            "out": str(out),
        },
    )
    print(f"wrote 1 embedding to {out}")
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged,
    and each `parse_args` call fills a fresh namespace from its defaults.

    Subcommand `x-y` runs `cmd_x_y`, looked up by `main` at each call rather
    than bound here, so a wrapper later put on a `cmd_*` name (a tracer's) runs.
    """
    parser = argparse.ArgumentParser(
        prog="conceptspace",
        description="Concept-space alignment, next-embedding modelling, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic paired dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--dim-frame", type=int, default=64)
    p.add_argument("--dim-concept", type=int, default=32)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--bank-size", type=int, default=256)
    p.add_argument("--drift", type=float, default=0.25)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gen-seq", help="generate a rule-driven sequence corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bank-size", type=int, default=64)
    p.add_argument("--dim-concept", type=int, default=32)
    p.add_argument("--min-len", type=int, default=3)
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--rule-a", type=int, default=5)
    p.add_argument("--rule-b", type=int, default=17)
    p.add_argument("--out", required=True)

    p = sub.add_parser("align", help="run curriculum alignment training")
    p.add_argument("--config", default=None, help="JSON with projector/aligner blocks")
    p.add_argument("--stages", required=True, help="comma-separated stage JSON files")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--heads", type=int, default=None)
    p.add_argument("--pooling", choices=["attention", "mean", "max"], default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-lcm", help="train the next-embedding model")
    p.add_argument("--config", default=None, help="JSON with latentdiff/schedule blocks")
    p.add_argument("--data", required=True, help="sequence corpus directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--ckpt-every", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--steps", type=int, default=None, help="noise schedule levels")
    p.add_argument("--resume", default=None, help="training-state checkpoint directory")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate a projector on a dataset")
    p.add_argument("--projector", default=None, help="projector checkpoint directory")
    p.add_argument("--oracle", action="store_true",
                   help="score the targets against themselves instead of a projector")
    p.add_argument("--data", required=True)
    p.add_argument("--drift-csv", default=None)
    p.add_argument("--out", required=True, help="report JSON path")

    p = sub.add_parser("sample", help="sample the next embedding for a prefix")
    p.add_argument("--lcm", required=True, help="model checkpoint directory")
    p.add_argument("--prefix", required=True, help="embedding file with the prefix rows")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--lambda-max", type=float, default=None)
    p.add_argument("--lambda-min", type=float, default=None)
    p.add_argument("--guidance", type=float, default=0.0)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bank", default=None, help="decode the sample against this bank")
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except EmbeddingFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
