"""The three workloads: align, lcm and eval.

Each workload generates its inputs from the seed in ``setup`` and then runs
closed-loop cycles: a single client calls ``conceptspace.cli.main(argv)``
in-process and issues the next call only when the previous one returns. Only
the ``main`` call is timed; output checks run outside the timed region and
mark the op they judge as failed. Checks that read program files use names
bound here at import, which the layer tracer does not rebind, so harness reads
never count as program time in a traced run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from conceptspace.checkpoints import load_projector
from conceptspace.corpus import PairedDataset, read_embeddings, world_from_config, write_embeddings
from conceptspace.projector import project

import oracle


@dataclass
class Op:
    kind: str
    seconds: float
    stdout: str
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


class Client:
    """Issues CLI calls one at a time and keeps every op and check failure."""

    def __init__(self, cli):
        self.cli = cli
        self.ops: list[Op] = []
        self.run_errors: list[str] = []
        self.after_op = None  # called with no arguments after each op is timed

    def call(self, kind: str, argv: list[str]) -> Op:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main([str(a) for a in argv])
            except Exception:  # an op that raises is a failed op, not a crashed benchmark
                code = None
                traceback.print_exc()
            seconds = time.perf_counter() - t0
        op = Op(kind, seconds, out.getvalue())
        if code != 0:
            op.errors.append(f"{kind} exited {code}: {err.getvalue().strip()[-2000:]}")
        self.ops.append(op)
        if self.after_op is not None:
            self.after_op()
        return op

    def timed(self, kind: str) -> list[float]:
        return [op.seconds for op in self.ops if op.kind == kind]

    @property
    def errors(self) -> list[str]:
        return [e for op in self.ops for e in op.errors] + self.run_errors


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path.

    Files such as resolved-config.json name the directory they were written
    to; that path is hashed as "<root>", so equal trees in two places match.
    """
    here = str(root).encode()
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes().replace(here, b"<root>")).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class Workload:
    """Set-up and cycles of one workload."""

    def __init__(self, seed: int, sizes):
        self.seed = seed
        self.sizes = sizes

    def finish(self, client: Client, inputs: Path, work: Path) -> None:
        """Checks that run once after the last cycle."""


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


# ---------------------------------------------------------------------------
# align


@dataclass(frozen=True)
class AlignSizes:
    n: int = 800
    frames: int = 8
    dim_frame: int = 64
    dim_concept: int = 32
    bank: int = 256
    epochs: int = 8
    batch: int = 32
    freeze_steps: int = 100
    warmup_steps: int = 30


class Align(Workload):
    """README walkthrough training: attention pooling, 4 heads, dropout 0.1."""

    def __init__(self, seed: int, sizes: AlignSizes = AlignSizes()):
        super().__init__(seed, sizes)
        self.digest: dict[str, str] | None = None
        self.rates: list[float] = []

    def setup(self, cli, inputs: Path) -> None:
        s = self.sizes
        _call_setup(cli, ["gen", "--seed", self.seed, "--n", s.n, "--frames", s.frames,
                          "--dim-frame", s.dim_frame, "--dim-concept", s.dim_concept,
                          "--bank-size", s.bank, "--noise", 0.1, "--out", inputs / "data"])
        _write_json(inputs / "stage.json",
                    {"dataset": "data", "epochs": s.epochs, "batch_size": s.batch})
        _write_json(inputs / "align.json", {
            "projector": {"heads": 4, "dropout_p": 0.1, "init_sigma": 0.05},
            "aligner": {"lr_projector": 1e-2, "lr_encoder_adapter": 1e-3,
                        "freeze_steps": s.freeze_steps, "warmup_steps": s.warmup_steps,
                        "max_epochs": s.epochs, "patience": 4, "batch_size": s.batch,
                        "seed": self.seed},
        })

    def cycle(self, client: Client, inputs: Path, work: Path) -> None:
        out = _fresh(work / "align")
        op = client.call("align", ["align", "--config", inputs / "align.json",
                                   "--stages", inputs / "stage.json", "--out", out])
        if not op.ok:
            return
        with open(out / "stage-00-stage" / "history_epochs.csv") as fh:
            val_mse = [float(row["val_mse"]) for row in csv.DictReader(fh)]
        if not min(val_mse[1:], default=math.inf) < val_mse[0]:
            op.errors.append(f"align: best val_mse {min(val_mse)} not below epoch 0 {val_mse[0]}")
        val_fraction = json.loads((out / "resolved-config.json").read_text())["aligner"]["val_fraction"]
        n_train = self.sizes.n - max(1, round(val_fraction * self.sizes.n))
        self.rates.append((len(val_mse) - 1) * n_train / op.seconds)
        digest = tree_digest(out)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            op.errors.append("align: outputs differ from the first op of this run")

    def metrics(self, client: Client) -> dict[str, float]:
        secs = client.timed("align")
        return {
            "work_per_s": statistics.median(self.rates),
            "call_ms_p50": statistics.median(secs) * 1e3,
        }


# ---------------------------------------------------------------------------
# lcm

RULE_A, RULE_B = 5, 3


@dataclass(frozen=True)
class LcmSizes:
    sequences: int = 400
    bank: int = 64
    dim: int = 16
    min_len: int = 4
    max_len: int = 8
    steps: int = 300
    resume_step: int = 200
    every: int = 100
    batch: int = 16
    ctx_width: int = 64
    den_width: int = 128
    levels: int = 24
    samples: int = 200
    prefixes: int = 8  # held-out prefixes; sample call i uses prefix i % prefixes, seed i
    accuracy_floor: float = 0.5  # chance is 1/bank


class Lcm(Workload):
    """train-lcm at the criterion-07 shape, a --resume, then guided samples."""

    def __init__(self, seed: int, sizes: LcmSizes = LcmSizes()):
        super().__init__(seed, sizes)
        self.sample_digest: list[str] | None = None
        self.train: list[tuple[int, float]] = []  # (optimizer steps, seconds) per call

    def setup(self, cli, inputs: Path) -> None:
        s = self.sizes
        seqs = inputs / "seqs"
        _call_setup(cli, ["gen-seq", "--seed", self.seed, "--n", s.sequences,
                          "--bank-size", s.bank, "--dim-concept", s.dim,
                          "--min-len", s.min_len, "--max-len", s.max_len,
                          "--rule-a", RULE_A, "--rule-b", RULE_B, "--out", seqs])
        _write_json(inputs / "lcm.json", {
            "latentdiff": {
                "model": {"ctx_width": s.ctx_width, "ctx_heads": 4, "ctx_layers": 2,
                          "den_width": s.den_width, "den_depth": 2, "lambda_emb_dim": 32},
                "train": {"lr": 2e-3, "final_lr": 1e-5, "warmup_steps": min(100, s.steps),
                          "max_steps": s.steps, "batch_size": s.batch, "seed": self.seed,
                          "val_every": s.every, "ckpt_every": s.every},
            },
            "schedule": {"steps": s.levels},
        })
        # Held-out prefixes of rule sequences, rows copied from the stored bank.
        bank = read_embeddings(seqs / "bank.bin")
        rng = np.random.default_rng([self.seed, 101])
        (inputs / "prefixes").mkdir()
        targets = []
        for i in range(s.prefixes):
            length = int(rng.integers(s.min_len - 1, s.max_len))
            idx = [int(rng.integers(0, s.bank))]
            for _ in range(length):
                idx.append((RULE_A * idx[-1] + RULE_B) % s.bank)
            write_embeddings(inputs / "prefixes" / f"p{i:04d}.bin", bank[idx[:-1]])
            targets.append(idx[-1])
        _write_json(inputs / "prefixes" / "targets.json", {"targets": targets})

    def _sample_argv(self, inputs: Path, model: Path, out: Path, i: int) -> list:
        prefix = inputs / "prefixes" / f"p{i % self.sizes.prefixes:04d}.bin"
        return ["sample", "--lcm", model, "--prefix", prefix,
                "--steps", self.sizes.levels, "--guidance", 1.5, "--seed", i,
                "--bank", inputs / "seqs" / "bank.bin", "--out", out / f"s{i:04d}.bin"]

    def cycle(self, client: Client, inputs: Path, work: Path) -> None:
        s = self.sizes
        full, resumed, samples = (_fresh(work / d) for d in ("lcm", "lcm-resume", "samples"))
        config = ["--config", inputs / "lcm.json", "--data", inputs / "seqs"]
        train = client.call("train", ["train-lcm", *config, "--out", full])
        if not train.ok:
            return
        self.train.append((s.steps, train.seconds))
        ckpt = full / "checkpoints" / f"step-{s.resume_step:06d}"
        resume = client.call("train", ["train-lcm", *config, "--resume", ckpt, "--out", resumed])
        if resume.ok:
            self.train.append((s.steps - s.resume_step, resume.seconds))
        if resume.ok and tree_digest(full / "model") != tree_digest(resumed / "model"):
            resume.errors.append("lcm: resumed model/ differs from the uninterrupted run")

        targets = json.loads((inputs / "prefixes" / "targets.json").read_text())["targets"]
        ops, hits, digest = [], 0, []
        for i in range(s.samples):
            op = client.call("sample", self._sample_argv(inputs, full / "model", samples, i))
            ops.append(op)
            if not op.ok:
                continue
            path = samples / f"s{i:04d}.bin"
            if not np.all(np.isfinite(read_embeddings(path))):
                op.errors.append(f"lcm: sample {i} is not finite")
            digest.append(hashlib.sha256(path.read_bytes()).hexdigest())
            decoded = [line for line in op.stdout.splitlines() if line.startswith("decoded_caption_id=")]
            hits += bool(decoded) and int(decoded[0].split("=")[1]) == targets[i % s.prefixes]
        accuracy = hits / s.samples
        if accuracy < s.accuracy_floor:
            for op in ops:
                op.errors.append(f"lcm: decoded accuracy {accuracy:.3f} below {s.accuracy_floor}")
        if self.sample_digest is None:
            self.sample_digest = digest
        elif digest != self.sample_digest:
            ops[-1].errors.append("lcm: sample bytes differ from the first cycle")

    def finish(self, client: Client, inputs: Path, work: Path) -> None:
        """Re-run the first sample with the same seed: its bytes must repeat."""
        first = work / "samples" / "s0000.bin"
        if not first.exists():
            return
        again = _fresh(work / "sample-again")
        cli_out = io.StringIO()
        with contextlib.redirect_stdout(cli_out), contextlib.redirect_stderr(io.StringIO()):
            code = client.cli.main([str(a) for a in self._sample_argv(inputs, work / "lcm" / "model", again, 0)])
        if code != 0 or (again / "s0000.bin").read_bytes() != first.read_bytes():
            client.run_errors.append("lcm: the same sample seed gave different bytes")

    def metrics(self, client: Client) -> dict[str, float]:
        secs = client.timed("sample")
        return {
            "work_per_s": statistics.median(n / t for n, t in self.train),
            "call_ms_p50": statistics.median(secs) * 1e3,
        }


# ---------------------------------------------------------------------------
# eval


@dataclass(frozen=True)
class EvalSizes:
    n: int = 1000
    bank: int = 256
    frames: int = 8
    dim_frame: int = 64
    dim_concept: int = 32
    train_n: int = 256
    train_epochs: int = 2


class Eval(Workload):
    """conceptspace eval with a drift export, projector trained in set-up."""

    def __init__(self, seed: int, sizes: EvalSizes = EvalSizes()):
        super().__init__(seed, sizes)
        self.digest: dict[str, str] | None = None

    def _gen(self, cli, n: int, out: Path) -> None:
        s = self.sizes
        _call_setup(cli, ["gen", "--seed", self.seed, "--n", n, "--frames", s.frames,
                          "--dim-frame", s.dim_frame, "--dim-concept", s.dim_concept,
                          "--bank-size", s.bank, "--noise", 0.1, "--out", out])

    def setup(self, cli, inputs: Path) -> None:
        s = self.sizes
        self._gen(cli, s.n, inputs / "data")
        self._gen(cli, s.train_n, inputs / "train-data")
        _write_json(inputs / "stage.json",
                    {"dataset": "train-data", "epochs": s.train_epochs, "batch_size": 32})
        _write_json(inputs / "align.json", {
            "projector": {"heads": 4, "dropout_p": 0.1, "init_sigma": 0.05},
            "aligner": {"lr_projector": 1e-2, "freeze_steps": 0, "warmup_steps": 4,
                        "max_epochs": s.train_epochs, "seed": self.seed},
        })
        _call_setup(cli, ["align", "--config", inputs / "align.json",
                          "--stages", inputs / "stage.json", "--out", inputs / "align"])

    def cycle(self, client: Client, inputs: Path, work: Path) -> None:
        out = _fresh(work / "eval")
        op = client.call("eval", ["eval", "--projector", inputs / "align" / "projector",
                                  "--data", inputs / "data", "--drift-csv", out / "drift.csv",
                                  "--out", out / "report.json"])
        if not op.ok:
            return
        digest = tree_digest(out)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            op.errors.append("eval: report differs from the first op of this run")

    def finish(self, client: Client, inputs: Path, work: Path) -> None:
        """Check the report against the oracle once, after the run's peak RSS is read.

        Every op's report is byte-identical to the first, so the first op
        carries a mismatch.
        """
        first = next((op for op in client.ops if op.kind == "eval" and op.ok), None)
        report = work / "eval" / "report.json"
        if first is None or not report.exists():
            return
        data = PairedDataset.load(inputs / "data")
        params, cfg, _ = load_projector(inputs / "align" / "projector")
        zv = np.stack([project(params, cfg, f)[0] for f in data.frames])
        bank = world_from_config(data.meta["world"]).caption_bank
        want = oracle.eval_report(zv, data.targets, bank, data.caption_ids)
        first.errors += [f"eval: {m}" for m in oracle.mismatches(want, json.loads(report.read_text()))]

    def metrics(self, client: Client) -> dict[str, float]:
        secs = client.timed("eval")
        return {
            "work_per_s": statistics.median(self.sizes.n / t for t in secs),
            "call_ms_p50": statistics.median(secs) * 1e3,
        }


def _call_setup(cli, argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"set-up call {argv[0]} exited {code}")


WORKLOADS = {"align": Align, "lcm": Lcm, "eval": Eval}
