"""Checkpoint directories: params.json plus one tensors.bin holding every tensor.

Model weights and optimizer moments are stored as float64 so that a resumed
run continues bit-identically to an uninterrupted one. tensors.bin is one
float64 embedding container (see corpus.py) whose values are the tensors',
row-major, one after another in the order of the index in params.json. The
index maps each tensor name to its shape, so the offsets follow from that
order. params.json also records the model config and whatever metadata the
caller attaches (best-validation bookkeeping, seeds). A training state holds
the model, the AdamW moments (all of `opt.m.*`, then all of `opt.v.*`) and
the best tensors, and records its step, its noise schedule and a fingerprint
of its corpus, so a resume with other configs or on other data is refused.
Older states interleave `opt.m.*` and `opt.v.*` tensor by tensor, and record
no `schedule`: they resume with the schedule unchecked. Its one AdamW group
steps once per training step, so the optimizer's step count is the state's
step and is not stored apart. A model load must find exactly the tensors of
the layout of its stored config (`projector.layout`, `latentdiff.layout`),
all finite, or it raises a format error that names the tensor. Every load
returns the tensors as views into the one array read from tensors.bin, so a
loaded model is one vector in layout order, the form `optim.AdamW` steps.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import latentdiff, projector
from .corpus import (
    DTYPE_F64,
    EmbeddingFormatError,
    container_header,
    malformed_manifest,
    read_embeddings,
)
from .latentdiff import LcmModelConfig, LcmTrainConfig
from .optim import AdamW, flat_copy, flat_span, tensor_views
from .projector import ProjectorConfig
from .records import from_dict

CHECKPOINT_FORMAT = "tensor-file-v2"
TENSOR_FILE = "tensors.bin"


def save_tensors(out_dir: str | Path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    """Write a checkpoint directory atomically: a failed save leaves any old one as it was.

    The files go into a sibling temporary directory that is renamed into place
    once complete; the old directory is removed only after that. Each tensor
    is streamed into tensors.bin in turn, so no copy of the whole state is made.
    """
    out = Path(out_dir)
    tmp = out.with_name(f".{out.name}.partial")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        arrays = {name: np.asarray(tensor, dtype=np.float64) for name, tensor in tensors.items()}
        total = sum(a.size for a in arrays.values())
        with open(tmp / TENSOR_FILE, "wb") as fh:
            fh.write(container_header(total, 1, DTYPE_F64))
            for name, a in arrays.items():
                if not np.all(np.isfinite(a)):
                    raise ValueError(f"refusing to write non-finite values (tensor {name!r})")
                fh.write(np.ascontiguousarray(a, dtype="<f8"))
        doc = {
            "format": CHECKPOINT_FORMAT,
            "meta": meta,
            "tensors": {name: list(a.shape) for name, a in arrays.items()},
        }
        (tmp / "params.json").write_text(json.dumps(doc, indent=2) + "\n")
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if out.exists():
        old = out.with_name(f".{out.name}.old")
        if old.exists():
            shutil.rmtree(old)
        out.rename(old)
        tmp.rename(out)
        shutil.rmtree(old)
    else:
        tmp.rename(out)


def _shape(name: str, dims) -> tuple[int, ...]:
    if not isinstance(dims, list) or not all(type(d) is int and d >= 0 for d in dims):
        raise ValueError(f"tensor {name!r}: shape must be a list of non-negative integers, "
                         f"got {dims!r}")
    return tuple(dims)


def load_tensors(in_dir: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """The tensors of a checkpoint, as writable views into one array read from tensors.bin."""
    root = Path(in_dir)
    doc_path = root / "params.json"
    if not doc_path.exists():
        raise EmbeddingFormatError(f"{root}: missing params.json")
    with malformed_manifest(doc_path):
        doc = json.loads(doc_path.read_text())
        if doc.get("format") != CHECKPOINT_FORMAT:
            raise EmbeddingFormatError(
                f"{root}: unexpected checkpoint format {doc.get('format')!r}, "
                f"expected {CHECKPOINT_FORMAT!r}"
            )
        meta = doc.get("meta", {})
        if not isinstance(meta, dict):
            raise TypeError(f"meta must be an object, got {type(meta).__name__}")
        shapes = {name: _shape(name, dims) for name, dims in doc["tensors"].items()}
    flat = read_embeddings(root / TENSOR_FILE).reshape(-1)
    covered = sum(math.prod(shape) for shape in shapes.values())
    if covered != flat.size:
        raise EmbeddingFormatError(
            f"{root}: the index covers {covered} values, {TENSOR_FILE} holds {flat.size}"
        )
    tensors = tensor_views(flat, shapes)
    if not np.isfinite(flat).all():
        name = next(name for name, t in tensors.items() if not np.isfinite(t).all())
        raise EmbeddingFormatError(f"{root}: tensor {name!r} holds non-finite values")
    return tensors, meta


def _check_layout(where, tensors: dict[str, np.ndarray], shapes: dict[str, tuple]) -> None:
    """`tensors` must hold exactly the names of `shapes`, each in its shape; the
    format error names the first tensor that does not."""
    for name in [*shapes, *(k for k in tensors if k not in shapes)]:
        if name not in tensors:
            problem = "is missing"
        elif name not in shapes:
            problem = "is not in the model's layout"
        elif tensors[name].shape != shapes[name]:
            problem = f"has shape {tensors[name].shape}, the layout needs {shapes[name]}"
        else:
            continue
        raise EmbeddingFormatError(f"{where}: tensor {name!r} {problem}")


# ---------------------------------------------------------------------------
# Models: a projector or a next-embedding model, each with its config.


def _save_model(out_dir, kind: str, tensors: dict[str, np.ndarray], cfg, extra_meta) -> None:
    save_tensors(out_dir, tensors, {"kind": kind, "config": asdict(cfg), **(extra_meta or {})})


def _load_model(in_dir, kind: str, cfg_cls, layout, label: str):
    tensors, meta = load_tensors(in_dir)
    if meta.get("kind") != kind:
        raise EmbeddingFormatError(f"{in_dir}: not a {label} checkpoint")
    with malformed_manifest(Path(in_dir) / "params.json"):
        cfg = from_dict(cfg_cls, meta["config"])
    _check_layout(in_dir, tensors, layout(cfg))
    return tensors, cfg, meta


def save_projector(
    out_dir: str | Path, params: dict[str, np.ndarray], cfg: ProjectorConfig,
    extra_meta: dict | None = None,
) -> None:
    _save_model(out_dir, "projector", params, cfg, extra_meta)


def load_projector(in_dir: str | Path) -> tuple[dict[str, np.ndarray], ProjectorConfig, dict]:
    return _load_model(in_dir, "projector", ProjectorConfig, projector.layout, "projector")


def save_lcm(
    out_dir: str | Path, params: dict[str, np.ndarray], cfg: LcmModelConfig,
    extra_meta: dict | None = None,
) -> None:
    _save_model(out_dir, "lcm", params, cfg, extra_meta)


def load_lcm(in_dir: str | Path) -> tuple[dict[str, np.ndarray], LcmModelConfig, dict]:
    return _load_model(in_dir, "lcm", LcmModelConfig, latentdiff.layout, "next-embedding model")


# ---------------------------------------------------------------------------
# Training state of the next-embedding model


def corpus_sha256(sequences) -> str:
    """Fingerprint of a sequence corpus: the sequence lengths, then their float64 values."""
    embeddings = [np.asarray(seq.embeddings, dtype="<f8") for seq in sequences]
    digest = hashlib.sha256(np.array([e.shape[0] for e in embeddings], dtype="<i8").tobytes())
    for e in embeddings:
        digest.update(e.tobytes())
    return digest.hexdigest()


def save_lcm_train_state(
    out_dir: str | Path,
    params: dict[str, np.ndarray],
    model_cfg: LcmModelConfig,
    train_cfg: LcmTrainConfig,
    optimizer: AdamW,
    step: int,
    best_val: float,
    best_step: int,
    best_tensors: dict[str, np.ndarray],
    corpus_digest: str,
    schedule: dict,
) -> None:
    """Write a training state; `schedule` is the noise schedule's config block."""
    tensors = {f"model.{name}": tensor for name, tensor in params.items()}
    tensors |= {f"opt.m.{name}": tensor for name, tensor in optimizer.m.items()}
    tensors |= {f"opt.v.{name}": tensor for name, tensor in optimizer.v.items()}
    tensors |= {f"best.{name}": tensor for name, tensor in best_tensors.items()}
    meta = {
        "kind": "lcm-train-state",
        "config": asdict(model_cfg),
        "train_config": asdict(train_cfg),
        "schedule": schedule,
        "step": step,
        "best_val": best_val,
        "best_step": best_step,
        "corpus_sha256": corpus_digest,
    }
    save_tensors(out_dir, tensors, meta)


def _one_vector(tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """`tensors` if they fill one vector in order, else a copy that does: a state
    stores opt.m and opt.v as two blocks, but older states interleave them."""
    try:
        flat_span(tensors)
    except ValueError:
        return flat_copy(tensors)
    return tensors


def load_lcm_train_state(
    in_dir: str | Path, optimizer: AdamW, model_cfg: LcmModelConfig, train_cfg: LcmTrainConfig,
    corpus_digest: str, schedule: dict,
) -> tuple[dict[str, np.ndarray], AdamW, int, tuple[float, int, dict[str, np.ndarray]]]:
    """Restore a training state; ValueError if the resuming run has other configs,
    another noise schedule or other data, a format error if the tensors do not
    fit the model's layout or the step lies outside [0, max_steps]."""
    tensors, meta = load_tensors(in_dir)
    if meta.get("kind") != "lcm-train-state":
        raise EmbeddingFormatError(f"{in_dir}: not a training-state checkpoint")
    with malformed_manifest(Path(in_dir) / "params.json"):
        step = meta["step"]
        best_val, best_step = float(meta["best_val"]), int(meta["best_step"])
        stored = {"model": dict(meta["config"]), "train": dict(meta["train_config"]),
                  "schedule": dict(meta["schedule"]) if "schedule" in meta else schedule}
        stored_digest = str(meta["corpus_sha256"])
        max_steps = stored["train"]["max_steps"]
        # A step past the end would train nothing; a negative one has no batch stream.
        if type(step) is not int or not 0 <= step <= max_steps:
            raise EmbeddingFormatError(f"{in_dir}: step must be an integer in [0, max_steps "
                                       f"{max_steps}], got {step!r}")
    for label, current in (("model", asdict(model_cfg)), ("train", asdict(train_cfg)),
                           ("schedule", schedule)):
        saved = stored[label]
        differ = sorted(k for k in saved.keys() | current.keys() if saved.get(k) != current.get(k))
        if differ:
            raise ValueError(
                f"{in_dir}: cannot resume, {label} config differs in {', '.join(differ)}"
            )
    if stored_digest != corpus_digest:
        raise ValueError(f"{in_dir}: cannot resume, the training corpus differs from the checkpoint's")
    # The stored model config equals model_cfg, so this is the layout of the saved model.
    shapes = latentdiff.layout(model_cfg)
    sections = ("model", "opt.m", "opt.v", "best")
    _check_layout(in_dir, tensors, {f"{g}.{k}": s for g in sections for k, s in shapes.items()})
    model, m, v, best = ({k: tensors[f"{g}.{k}"] for k in shapes} for g in sections)
    # One parameter group, stepped once per training step.
    optimizer.m, optimizer.v, optimizer.t = _one_vector(m), _one_vector(v), step
    return model, optimizer, step, (best_val, best_step, best)
