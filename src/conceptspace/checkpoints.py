"""Checkpoint directories: params.json plus one binary blob per named tensor.

Model weights and optimizer moments are stored as float64 blobs so that a
resumed run continues bit-identically to an uninterrupted one. params.json
records tensor shapes, the model config, and whatever metadata the caller
attaches (step counts, best-validation bookkeeping, seeds).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .corpus import (
    DTYPE_F64,
    EmbeddingFormatError,
    malformed_manifest,
    read_embeddings,
    write_embeddings,
)
from .latentdiff import LcmModelConfig, LcmTrainConfig, TwoTowerParams
from .optim import AdamW
from .projector import ProjectorConfig, ProjectorParams
from .records import from_dict


def _blob_name(tensor_name: str) -> str:
    return tensor_name.replace("/", "_") + ".bin"


def save_tensors(out_dir: str | Path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    index = {}
    for name, tensor in tensors.items():
        tensor = np.asarray(tensor, dtype=np.float64)
        as_matrix = tensor.reshape(tensor.shape[0], -1) if tensor.ndim >= 2 else tensor.reshape(1, -1)
        write_embeddings(out / _blob_name(name), as_matrix, dtype_code=DTYPE_F64)
        index[name] = {"shape": list(tensor.shape), "file": _blob_name(name)}
    doc = {"format": "tensor-dir-v1", "meta": meta, "tensors": index}
    (out / "params.json").write_text(json.dumps(doc, indent=2) + "\n")


def load_tensors(in_dir: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    root = Path(in_dir)
    doc_path = root / "params.json"
    if not doc_path.exists():
        raise EmbeddingFormatError(f"{root}: missing params.json")
    with malformed_manifest(doc_path):
        doc = json.loads(doc_path.read_text())
        if doc.get("format") != "tensor-dir-v1":
            raise EmbeddingFormatError(f"{root}: unexpected checkpoint format {doc.get('format')!r}")
        tensors = {}
        for name, entry in doc["tensors"].items():
            flat = read_embeddings(root / entry["file"])
            tensors[name] = flat.reshape(tuple(entry["shape"]))
        return tensors, doc.get("meta", {})


# ---------------------------------------------------------------------------
# Projector


def save_projector(
    out_dir: str | Path, params: ProjectorParams, cfg: ProjectorConfig,
    extra_meta: dict | None = None,
) -> None:
    meta = {"kind": "projector", "config": asdict(cfg)}
    if extra_meta:
        meta.update(extra_meta)
    save_tensors(out_dir, params.tensors, meta)


def load_projector(in_dir: str | Path) -> tuple[ProjectorParams, ProjectorConfig, dict]:
    tensors, meta = load_tensors(in_dir)
    if meta.get("kind") != "projector":
        raise EmbeddingFormatError(f"{in_dir}: not a projector checkpoint")
    with malformed_manifest(Path(in_dir) / "params.json"):
        cfg = from_dict(ProjectorConfig, meta["config"])
    return ProjectorParams(tensors), cfg, meta


# ---------------------------------------------------------------------------
# Next-embedding model


def save_lcm(
    out_dir: str | Path, params: TwoTowerParams, cfg: LcmModelConfig,
    extra_meta: dict | None = None,
) -> None:
    meta = {"kind": "lcm", "config": asdict(cfg)}
    if extra_meta:
        meta.update(extra_meta)
    save_tensors(out_dir, params.tensors, meta)


def load_lcm(in_dir: str | Path) -> tuple[TwoTowerParams, LcmModelConfig, dict]:
    tensors, meta = load_tensors(in_dir)
    if meta.get("kind") != "lcm":
        raise EmbeddingFormatError(f"{in_dir}: not a next-embedding model checkpoint")
    with malformed_manifest(Path(in_dir) / "params.json"):
        cfg = from_dict(LcmModelConfig, meta["config"])
    return TwoTowerParams(tensors), cfg, meta


def save_lcm_train_state(
    out_dir: str | Path,
    params: TwoTowerParams,
    model_cfg: LcmModelConfig,
    train_cfg: LcmTrainConfig,
    optimizer: AdamW,
    step: int,
    best_val: float,
    best_step: int,
    best_tensors: dict[str, np.ndarray],
) -> None:
    tensors: dict[str, np.ndarray] = {}
    for name, tensor in params.tensors.items():
        tensors[f"model.{name}"] = tensor
    for name, tensor in optimizer.state_tensors().items():
        tensors[f"opt.{name}"] = tensor
    for name, tensor in best_tensors.items():
        tensors[f"best.{name}"] = tensor
    meta = {
        "kind": "lcm-train-state",
        "config": asdict(model_cfg),
        "train_config": asdict(train_cfg),
        "step": step,
        "best_val": best_val,
        "best_step": best_step,
        "opt_t": optimizer.t,
    }
    save_tensors(out_dir, tensors, meta)


def load_lcm_train_state(
    in_dir: str | Path, optimizer: AdamW, model_cfg: LcmModelConfig, train_cfg: LcmTrainConfig
) -> tuple[TwoTowerParams, AdamW, int, tuple[float, int, dict[str, np.ndarray]]]:
    """Restore a training state; ValueError if the resuming run has other configs."""
    tensors, meta = load_tensors(in_dir)
    if meta.get("kind") != "lcm-train-state":
        raise EmbeddingFormatError(f"{in_dir}: not a training-state checkpoint")
    model = {k[len("model."):]: v for k, v in tensors.items() if k.startswith("model.")}
    opt_state = {k[len("opt."):]: v for k, v in tensors.items() if k.startswith("opt.")}
    best = {k[len("best."):]: v for k, v in tensors.items() if k.startswith("best.")}
    with malformed_manifest(Path(in_dir) / "params.json"):
        opt_t = {k: int(v) for k, v in meta["opt_t"].items()}
        step = int(meta["step"])
        best_val, best_step = float(meta["best_val"]), int(meta["best_step"])
        stored = {"model": dict(meta["config"]), "train": dict(meta["train_config"])}
    for label, current in (("model", asdict(model_cfg)), ("train", asdict(train_cfg))):
        saved = stored[label]
        differ = sorted(k for k in saved.keys() | current.keys() if saved.get(k) != current.get(k))
        if differ:
            raise ValueError(
                f"{in_dir}: cannot resume, {label} config differs in {', '.join(differ)}"
            )
    optimizer.load_state(opt_state, opt_t)
    return TwoTowerParams(model), optimizer, step, (best_val, best_step, best)
