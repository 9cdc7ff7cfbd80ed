"""Teacher-student alignment training for the projector.

The teacher side is a frozen bank of text concept embeddings; training only
ever moves the projector. The loss is batch-mean squared error between
projected frame stacks and their paired targets, optionally plus a symmetric-
denominator contrastive term over the batch (cosine logits at a temperature).

Learning rates are scheduled jointly (linear warmup, cosine decay to zero)
but resolved per parameter group: the connector trains from step zero while
the adapter stays frozen for the first freeze_steps, then joins at its own,
typically smaller, peak rate. Early stopping watches validation MSE with a
patience counter, and the best-validation parameters are what a stage returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .corpus import CurriculumStage, PairedDataset
from .numerics import stream_rng
from .optim import AdamW, TrainingDivergedError, warmup_cosine
from .projector import (
    ADAPTER_KEY,
    ProjectorConfig,
    init_projector,
    project,
    project_backward,
)
from .records import check_types, write_csv

_STREAM_INIT = 31
_STREAM_VAL_SPLIT = 32
_STREAM_SHUFFLE = 33
_STREAM_DROPOUT = 34


@dataclass(frozen=True)
class AlignConfig:
    lambda_con: float = 0.0
    tau: float = 0.07
    lr_projector: float = 1e-4
    lr_encoder_adapter: float = 1e-5
    freeze_steps: int = 200
    warmup_steps: int = 50
    max_epochs: int = 20
    patience: int = 3
    batch_size: int = 32
    seed: int = 42
    weight_decay: float = 0.0
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.lambda_con < 0:
            raise ValueError("lambda_con must be >= 0")
        if self.freeze_steps < 0 or self.warmup_steps < 0:
            raise ValueError("freeze_steps and warmup_steps must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")


def mse_align_loss(zv: np.ndarray, zt: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch-mean squared distance and its gradient w.r.t. the student rows."""
    zv = np.asarray(zv, dtype=np.float64)
    zt = np.asarray(zt, dtype=np.float64)
    if zv.shape != zt.shape:
        raise ValueError(f"shape mismatch: {zv.shape} vs {zt.shape}")
    if zv.ndim != 2 or zv.shape[0] < 1:
        raise ValueError("need a non-empty batch of row vectors")
    diff = zv - zt
    loss = float(np.sum(diff * diff) / zv.shape[0])
    grad = 2.0 * diff / zv.shape[0]
    return loss, grad


def infonce_loss(zv: np.ndarray, zt: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """In-batch contrastive loss over cosine logits; gradient w.r.t. zv only.

    The teacher rows act as the candidate set and receive no gradient.
    """
    zv = np.asarray(zv, dtype=np.float64)
    zt = np.asarray(zt, dtype=np.float64)
    if zv.shape != zt.shape:
        raise ValueError(f"shape mismatch: {zv.shape} vs {zt.shape}")
    b = zv.shape[0]
    if b < 2:
        raise ValueError("contrastive loss needs a batch of at least 2")
    if tau <= 0:
        raise ValueError("tau must be positive")
    norms_v = np.linalg.norm(zv, axis=1)
    norms_t = np.linalg.norm(zt, axis=1)
    if np.any(norms_v == 0.0) or np.any(norms_t == 0.0):
        raise ValueError("contrastive loss undefined for zero-norm rows")
    u = zv / norms_v[:, None]
    w = zt / norms_t[:, None]
    sims = u @ w.T
    logits = sims / tau
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
    loss = float(np.mean(lse - np.diag(logits)))

    probs = np.exp(logits - lse[:, None])
    g_logits = (probs - np.eye(b)) / b
    g_sims = g_logits / tau
    # d sim_ij / d zv_i = (w_j - sim_ij * u_i) / ||zv_i||
    g_zv = (g_sims @ w - (g_sims * sims).sum(axis=1, keepdims=True) * u) / norms_v[:, None]
    return loss, g_zv


def combined_loss(
    zv: np.ndarray, zt: np.ndarray, cfg: AlignConfig
) -> tuple[float, np.ndarray]:
    """MSE plus lambda_con times the contrastive term; lambda_con == 0 skips it."""
    loss, grad = mse_align_loss(zv, zt)
    if cfg.lambda_con > 0.0:
        c_loss, c_grad = infonce_loss(zv, zt, cfg.tau)
        loss = loss + cfg.lambda_con * c_loss
        grad = grad + cfg.lambda_con * c_grad
    return loss, grad


@dataclass(frozen=True)
class StepRecord:
    step: int
    phase: str  # "frozen" while the adapter lr is gated off, else "joint"
    lr_proj: float
    lr_enc: float
    loss: float


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    val_mse: float
    val_cos: float


@dataclass
class TrainHistory:
    steps: list[StepRecord] = field(default_factory=list)
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_val_mse: float = math.inf

    def write_csvs(self, out_dir: str | Path) -> None:
        write_csv(Path(out_dir) / "history_steps.csv", StepRecord, self.steps)
        write_csv(Path(out_dir) / "history_epochs.csv", EpochRecord, self.epochs)


def _safe_mean_cos(zv: np.ndarray, zt: np.ndarray) -> float:
    """Mean row cosine for logging; zero-norm rows contribute 0 instead of erroring."""
    nv = np.linalg.norm(zv, axis=1)
    nt = np.linalg.norm(zt, axis=1)
    ok = (nv > 0) & (nt > 0)
    if not np.any(ok):
        return 0.0
    cos = np.zeros(zv.shape[0])
    cos[ok] = np.sum(zv[ok] * zt[ok], axis=1) / (nv[ok] * nt[ok])
    return float(np.mean(cos))


def validate(
    params: dict[str, np.ndarray], proj_cfg: ProjectorConfig, dataset: PairedDataset,
    indices: np.ndarray,
) -> tuple[float, float]:
    zv, _ = project(params, proj_cfg, dataset.frames[indices])
    zt = dataset.targets[indices]
    mse, _ = mse_align_loss(zv, zt)
    return mse, _safe_mean_cos(zv, zt)


def train_stage(
    dataset: PairedDataset,
    params: dict[str, np.ndarray],
    proj_cfg: ProjectorConfig,
    cfg: AlignConfig,
    rng_namespace: int = 0,
) -> tuple[dict[str, np.ndarray], TrainHistory]:
    """Train one stage on one dataset; returns best-validation parameters.

    The epoch-0 history row records validation of the incoming parameters
    before any update, which is what curriculum transfer is judged against.
    """
    n = len(dataset)
    if n < 1:
        raise ValueError("cannot train on an empty dataset")

    perm = stream_rng(cfg.seed, _STREAM_VAL_SPLIT, rng_namespace).permutation(n)
    n_val = max(1, int(round(cfg.val_fraction * n)))
    n_val = min(n_val, n - 1) if n > 1 else 1
    val_idx = perm[:n_val]
    train_idx = perm[n_val:] if n > 1 else perm
    steps_per_epoch = math.ceil(len(train_idx) / cfg.batch_size)
    total_steps = steps_per_epoch * cfg.max_epochs

    optimizer = AdamW(eps=1e-8, weight_decay=cfg.weight_decay)
    # The optimizer updates in place; the caller's tensors must stay as given.
    tensors = {k: v.copy() for k, v in params.items()}
    has_adapter = ADAPTER_KEY in tensors

    history = TrainHistory()
    val_mse, val_cos = validate(tensors, proj_cfg, dataset, val_idx)
    history.epochs.append(EpochRecord(epoch=0, val_mse=val_mse, val_cos=val_cos))

    best_tensors = {k: v.copy() for k, v in tensors.items()}
    best_val = val_mse
    best_epoch = 0
    stall = 0
    step = 0

    for epoch in range(1, cfg.max_epochs + 1):
        order = stream_rng(cfg.seed, _STREAM_SHUFFLE, rng_namespace, epoch).permutation(
            len(train_idx)
        )
        for b0 in range(0, len(train_idx), cfg.batch_size):
            batch = train_idx[order[b0 : b0 + cfg.batch_size]]
            drop_rng = stream_rng(cfg.seed, _STREAM_DROPOUT, rng_namespace, step)
            zv, trace = project(
                tensors, proj_cfg, dataset.frames[batch], training=True, rng=drop_rng
            )
            zt = dataset.targets[batch]
            loss, g_zv = combined_loss(zv, zt, cfg)
            if not np.isfinite(loss):
                raise TrainingDivergedError(step)
            grads = project_backward(trace, g_zv)
            del grads["frames"]

            lr_proj = warmup_cosine(step, total_steps, cfg.warmup_steps, cfg.lr_projector)
            lr_enc = 0.0 if step < cfg.freeze_steps else warmup_cosine(
                step, total_steps, cfg.warmup_steps, cfg.lr_encoder_adapter
            )
            frozen = has_adapter and step < cfg.freeze_steps
            lr_map = {key: lr_proj for key in tensors}
            if has_adapter:
                lr_map[ADAPTER_KEY] = lr_enc
            skip = {ADAPTER_KEY} if frozen else set()
            optimizer.step(tensors, grads, lr_map, skip=skip)
            history.steps.append(
                StepRecord(
                    step=step,
                    phase="frozen" if frozen else "joint",
                    lr_proj=lr_proj,
                    lr_enc=lr_enc,
                    loss=loss,
                )
            )
            step += 1

        val_mse, val_cos = validate(tensors, proj_cfg, dataset, val_idx)
        history.epochs.append(EpochRecord(epoch=epoch, val_mse=val_mse, val_cos=val_cos))
        if val_mse < best_val:
            best_val = val_mse
            best_epoch = epoch
            best_tensors = {k: v.copy() for k, v in tensors.items()}
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                break

    history.best_epoch = best_epoch
    history.best_val_mse = best_val
    return best_tensors, history


def apply_stage_overrides(cfg: AlignConfig, stage: CurriculumStage) -> AlignConfig:
    updates: dict = {}
    if stage.epochs is not None:
        updates["max_epochs"] = stage.epochs
    if stage.batch_size is not None:
        updates["batch_size"] = stage.batch_size
    for key, value in stage.lr_overrides.items():
        if key not in AlignConfig.__dataclass_fields__:
            raise ValueError(f"unknown aligner override {key!r} in stage {stage.name!r}")
        updates[key] = value
    try:
        check_types(AlignConfig, updates)
        return replace(cfg, **updates) if updates else cfg
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad overrides in stage {stage.name!r}: {exc}") from exc


def run_curriculum(
    stages: list[CurriculumStage],
    proj_cfg: ProjectorConfig,
    cfg: AlignConfig,
    initial: dict[str, np.ndarray] | None = None,
) -> tuple[dict[str, np.ndarray], list[TrainHistory]]:
    """Train stages in order; parameters flow, optimizer state does not."""
    if not stages:
        raise ValueError("need at least one curriculum stage")
    params = initial if initial is not None else init_projector(
        proj_cfg, stream_rng(cfg.seed, _STREAM_INIT)
    )
    # Every stage's overrides are checked before the first stage trains.
    stage_cfgs = [apply_stage_overrides(cfg, stage) for stage in stages]
    histories = []
    for idx, (stage, stage_cfg) in enumerate(zip(stages, stage_cfgs)):
        dataset = stage.load_dataset()
        params, history = train_stage(
            dataset, params, proj_cfg, stage_cfg, rng_namespace=idx
        )
        histories.append(history)
    return params, histories
