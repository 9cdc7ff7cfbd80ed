"""Latent-diffusion next-embedding model over concept space.

A variance-preserving noise schedule is laid out on a log signal-to-noise grid
(linearly spaced from lambda_max down to lambda_min), so alpha^2 + sigma^2 = 1
at every level and level 0 is the clean end. The model has two towers: a small
causal transformer that turns an embedding prefix into a context vector, and a
residual MLP denoiser that predicts the clean embedding x0 from (noisy input,
noise level embedding, context). Training drops the context with a fixed
probability and substitutes a learned null context, which is what makes
classifier-free guidance possible at sampling time.

A training step runs each tower once over the whole batch: the context tower
over right-padded prefixes, where the causal mask already keeps every real
position from seeing a pad, and the denoiser over rows. The loss of an item is
the plain (unsquared) Euclidean distance between the target and the
prediction, summed over the batch; a squared variant sits behind a config
flag. All gradients are hand-derived and verified against finite differences
in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from .attention import attention_backward, attention_forward, fold_rows
from .numerics import stream_rng
from .optim import AdamW, TrainingDivergedError, clip_global_norm, warmup_cosine
from .projector import sinusoidal_pe
from .records import write_csv

_STREAM_INIT = 40
_STREAM_SPLIT = 41
_STREAM_BATCH = 42
_STREAM_STEP = 43
_STREAM_VAL = 44
_STREAM_SAMPLE = 45

# Validation items per forward call: one call over all 202 validation items of
# the README shape held their tower intermediates at once, 18 MB more peak RSS.
VAL_BLOCK = 32


# ---------------------------------------------------------------------------
# Noise schedule


@dataclass(frozen=True)
class NoiseSchedule:
    """Discrete variance-preserving schedule indexed clean (0) to noisy (last)."""

    alpha: np.ndarray
    sigma: np.ndarray
    log_snr: np.ndarray

    @property
    def steps(self) -> int:
        return self.alpha.shape[0]


def build_schedule(
    steps: int, lambda_max: float = 10.0, lambda_min: float = -10.0
) -> NoiseSchedule:
    """Linear log-SNR grid; strictly decreasing from lambda_max to lambda_min."""
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not lambda_max > lambda_min:
        raise ValueError(
            f"lambda_max must exceed lambda_min, got {lambda_max} <= {lambda_min}"
        )
    log_snr = np.linspace(lambda_max, lambda_min, steps)
    # Both sigmoids computed directly (no 1-x subtraction) keeps the
    # variance-preserving identity tight at extreme log-SNR.
    alpha = np.sqrt(expit(log_snr))
    sigma = np.sqrt(expit(-log_snr))
    return NoiseSchedule(alpha=alpha, sigma=sigma, log_snr=log_snr)


@dataclass(frozen=True)
class ScheduleConfig:
    """The `schedule` block of a train-lcm config, stored with the model it trains."""

    steps: int = 40
    lambda_max: float = 10.0
    lambda_min: float = -10.0

    def __post_init__(self):
        # `records.from_dict` checks the types; the stored schedule holds floats.
        for name in ("lambda_max", "lambda_min"):
            object.__setattr__(self, name, float(getattr(self, name)))
        build_schedule(**asdict(self))  # raises on too few levels or an empty range


def forward_diffuse(
    x0: np.ndarray, t: int | np.ndarray, eps: np.ndarray, schedule: NoiseSchedule
) -> np.ndarray:
    """Noise clean embeddings to level t (one, or one per row): alpha_t * x0 + sigma_t * eps."""
    t = np.asarray(t)
    if np.any((t < 0) | (t >= schedule.steps)):
        raise ValueError(f"t={t} outside schedule with {schedule.steps} levels")
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ValueError(f"shape mismatch: x0 {x0.shape} vs eps {eps.shape}")
    return schedule.alpha[t][..., None] * x0 + schedule.sigma[t][..., None] * eps


# ---------------------------------------------------------------------------
# Model


@dataclass(frozen=True)
class LcmModelConfig:
    concept_dim: int
    ctx_width: int = 256
    ctx_layers: int = 2
    ctx_heads: int = 4
    ffn_mult: int = 2
    den_width: int = 512
    den_depth: int = 3
    lambda_emb_dim: int = 64

    def __post_init__(self):
        if self.concept_dim < 1:
            raise ValueError("concept_dim must be positive")
        if self.ctx_width % self.ctx_heads != 0:
            raise ValueError(
                f"ctx_width {self.ctx_width} must be divisible by ctx_heads {self.ctx_heads}"
            )
        if self.lambda_emb_dim % 2 != 0:
            raise ValueError("lambda_emb_dim must be even")
        if self.ctx_layers < 1 or self.den_depth < 1:
            raise ValueError("ctx_layers and den_depth must be >= 1")

    @property
    def denoiser_input_dim(self) -> int:
        return self.concept_dim + self.lambda_emb_dim + self.ctx_width


def init_two_tower(cfg: LcmModelConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Fan-in scaled Gaussian init; denoiser output head starts at zero."""
    d, h, f = cfg.concept_dim, cfg.ctx_width, cfg.ffn_mult * cfg.ctx_width
    w = cfg.den_width
    tensors: dict[str, np.ndarray] = {}
    tensors["ctx.in_w"] = rng.standard_normal((h, d)) / math.sqrt(d)
    tensors["ctx.in_b"] = np.zeros(h)
    for layer in range(cfg.ctx_layers):
        p = f"ctx.l{layer}"
        for name in ("wq", "wk", "wv", "wo"):
            tensors[f"{p}.{name}"] = rng.standard_normal((h, h)) / math.sqrt(h)
        tensors[f"{p}.ffn_w1"] = rng.standard_normal((f, h)) / math.sqrt(h)
        tensors[f"{p}.ffn_b1"] = np.zeros(f)
        tensors[f"{p}.ffn_w2"] = rng.standard_normal((h, f)) / math.sqrt(f)
        tensors[f"{p}.ffn_b2"] = np.zeros(h)
    tensors["null_ctx"] = np.zeros(h)
    din = cfg.denoiser_input_dim
    tensors["den.in_w"] = rng.standard_normal((w, din)) / math.sqrt(din)
    tensors["den.in_b"] = np.zeros(w)
    for k in range(cfg.den_depth):
        tensors[f"den.b{k}.w"] = rng.standard_normal((w, w)) / math.sqrt(w)
        tensors[f"den.b{k}.b"] = np.zeros(w)
    tensors["den.out_w"] = np.zeros((d, w))
    tensors["den.out_b"] = np.zeros(d)
    return tensors


def lambda_embed(lam: float | np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal (interleaved sin/cos) features of noise levels: (..., dim) for lam (...)."""
    inv_freq = np.exp(np.arange(0, dim, 2, dtype=np.float64) * -(math.log(10000.0) / dim))
    angles = np.asarray(lam, dtype=np.float64)[..., None] * inv_freq
    emb = np.zeros((*angles.shape[:-1], dim))
    emb[..., 0::2] = np.sin(angles)
    emb[..., 1::2] = np.cos(angles)
    return emb


@dataclass
class _CtxCache:
    prefix: np.ndarray
    layer_caches: list  # per layer: (attn_cache, x_after_attn, u, relu_u)


def _ctx_forward(
    params: dict[str, np.ndarray], cfg: LcmModelConfig, prefix: np.ndarray
) -> tuple[np.ndarray, _CtxCache]:
    prefix = np.asarray(prefix, dtype=np.float64)
    if prefix.ndim < 2 or prefix.shape[-1] != cfg.concept_dim:
        raise ValueError(
            f"prefix must be (..., L, {cfg.concept_dim}), got shape {prefix.shape}"
        )
    if prefix.shape[-2] < 1:
        raise ValueError("prefix must be non-empty")
    x = prefix @ params["ctx.in_w"].T + params["ctx.in_b"]
    x = x + sinusoidal_pe(prefix.shape[-2], cfg.ctx_width)
    cache = _CtxCache(prefix=prefix, layer_caches=[])
    for layer in range(cfg.ctx_layers):
        p = f"ctx.l{layer}"
        attn_out, attn_cache = attention_forward(
            x, x,
            params[f"{p}.wq"], params[f"{p}.wk"], params[f"{p}.wv"], params[f"{p}.wo"],
            cfg.ctx_heads, causal=True,
        )
        x_attn = x + attn_out
        u = x_attn @ params[f"{p}.ffn_w1"].T + params[f"{p}.ffn_b1"]
        relu_u = np.maximum(u, 0.0)
        x = x_attn + relu_u @ params[f"{p}.ffn_w2"].T + params[f"{p}.ffn_b2"]
        cache.layer_caches.append((attn_cache, x_attn, u, relu_u))
    return x, cache


def _ctx_backward(
    params: dict[str, np.ndarray], cfg: LcmModelConfig, cache: _CtxCache, g_out: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    g = g_out
    for layer in reversed(range(cfg.ctx_layers)):
        p = f"ctx.l{layer}"
        attn_cache, x_attn, u, relu_u = cache.layer_caches[layer]
        # FFN residual: x = x_attn + relu(x_attn W1^T + b1) W2^T + b2
        grads[f"{p}.ffn_w2"] += fold_rows(g).T @ fold_rows(relu_u)
        grads[f"{p}.ffn_b2"] += fold_rows(g).sum(axis=0)
        g_relu = g @ params[f"{p}.ffn_w2"]
        g_u = g_relu * (u > 0.0)
        grads[f"{p}.ffn_w1"] += fold_rows(g_u).T @ fold_rows(x_attn)
        grads[f"{p}.ffn_b1"] += fold_rows(g_u).sum(axis=0)
        g_attn_out = g + g_u @ params[f"{p}.ffn_w1"]
        # Attention residual.
        g_xq, g_xkv, g_wq, g_wk, g_wv, g_wo = attention_backward(attn_cache, g_attn_out)
        grads[f"{p}.wq"] += g_wq
        grads[f"{p}.wk"] += g_wk
        grads[f"{p}.wv"] += g_wv
        grads[f"{p}.wo"] += g_wo
        g = g_attn_out + g_xq + g_xkv
    grads["ctx.in_w"] += fold_rows(g).T @ fold_rows(cache.prefix)
    grads["ctx.in_b"] += fold_rows(g).sum(axis=0)


def contextualize(
    params: dict[str, np.ndarray], cfg: LcmModelConfig, prefix: np.ndarray
) -> np.ndarray:
    """Causal context vectors, one per prefix position.

    `prefix` is (L, concept_dim); leading axes are a batch of prefixes. Row i
    depends only on positions <= i, so appending to the prefix, or padding it
    on the right, never changes earlier rows.
    """
    out, _ = _ctx_forward(params, cfg, prefix)
    return out


@dataclass
class _DenCache:
    inp: np.ndarray
    pre_block: list[np.ndarray]  # hidden state entering each residual block
    us: list[np.ndarray]
    h_final: np.ndarray


def _den_forward(
    params: dict[str, np.ndarray], cfg: LcmModelConfig, xt: np.ndarray, lam: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, _DenCache]:
    """Denoiser over rows: xt (..., d), log-SNR lam (...), context c (..., ctx_width)."""
    inp = np.concatenate([xt, lambda_embed(lam, cfg.lambda_emb_dim), c], axis=-1)
    h = inp @ params["den.in_w"].T + params["den.in_b"]
    pre_block = []
    us = []
    for k in range(cfg.den_depth):
        pre_block.append(h)
        u = h @ params[f"den.b{k}.w"].T + params[f"den.b{k}.b"]
        us.append(u)
        h = h + np.maximum(u, 0.0)
    out = h @ params["den.out_w"].T + params["den.out_b"]
    return out, _DenCache(inp=inp, pre_block=pre_block, us=us, h_final=h)


def _den_backward(
    params: dict[str, np.ndarray], cfg: LcmModelConfig, cache: _DenCache, g_out: np.ndarray,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    """Accumulate denoiser grads for (N, d) rows; returns the (N, ctx_width) context grads."""
    grads["den.out_w"] += g_out.T @ cache.h_final
    grads["den.out_b"] += g_out.sum(axis=0)
    g_h = g_out @ params["den.out_w"]
    for k in reversed(range(cfg.den_depth)):
        g_u = g_h * (cache.us[k] > 0.0)
        grads[f"den.b{k}.w"] += g_u.T @ cache.pre_block[k]
        grads[f"den.b{k}.b"] += g_u.sum(axis=0)
        g_h = g_h + g_u @ params[f"den.b{k}.w"]
    grads["den.in_w"] += g_h.T @ cache.inp
    grads["den.in_b"] += g_h.sum(axis=0)
    return g_h @ params["den.in_w"][:, cfg.concept_dim + cfg.lambda_emb_dim :]


def denoise(
    params: dict[str, np.ndarray],
    cfg: LcmModelConfig,
    xt: np.ndarray,
    t: int,
    c: np.ndarray,
    conditioned: bool,
    schedule: NoiseSchedule,
) -> np.ndarray:
    """Predict the clean embedding from a noisy one at level t.

    `xt` is (concept_dim,) and `c` is (ctx_width,); leading axes, the same on
    both, are a batch of rows. With conditioned=False the context argument is
    ignored entirely and the learned null context is substituted.
    """
    xt = np.asarray(xt, dtype=np.float64)
    if xt.ndim < 1 or xt.shape[-1] != cfg.concept_dim:
        raise ValueError(f"xt must have shape (..., {cfg.concept_dim}), got {xt.shape}")
    if not 0 <= t < schedule.steps:
        raise ValueError(f"t={t} outside schedule with {schedule.steps} levels")
    c_shape = (*xt.shape[:-1], cfg.ctx_width)
    null = np.broadcast_to(params["null_ctx"], c_shape)
    c_eff = np.asarray(c, dtype=np.float64) if conditioned else null
    if c_eff.shape != c_shape:
        raise ValueError(f"context must have shape {c_shape}, got {c_eff.shape}")
    out, _ = _den_forward(params, cfg, xt, np.full(xt.shape[:-1], schedule.log_snr[t]), c_eff)
    return out


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class NextEmbeddingItem:
    prefix: np.ndarray  # (L, concept_dim)
    target: np.ndarray  # (concept_dim,)


def items_from_sequences(sequences) -> list[NextEmbeddingItem]:
    """Every (strict prefix, next element) pair from every sequence."""
    items = []
    for seq in sequences:
        emb = np.asarray(seq.embeddings, dtype=np.float64)
        for i in range(1, emb.shape[0]):
            items.append(NextEmbeddingItem(prefix=emb[:i], target=emb[i]))
    return items


@dataclass(frozen=True)
class LcmTrainConfig:
    guidance_p: float = 0.15
    lr: float = 3e-5
    final_lr: float = 1e-6
    warmup_steps: int = 300
    max_steps: int = 10000
    weight_decay: float = 0.01
    adam_eps: float = 1e-6
    grad_clip: float = 25.0
    batch_size: int = 16
    seed: int = 0
    val_fraction: float = 0.1
    val_every: int = 200
    ckpt_every: int = 1000
    squared_loss: bool = False

    def __post_init__(self):
        if not 0.0 <= self.guidance_p <= 1.0:
            raise ValueError("guidance_p must be in [0, 1]")
        if self.lr <= 0 or self.final_lr < 0:
            raise ValueError("learning rates must be positive")
        if self.warmup_steps < 0 or self.max_steps < 1:
            raise ValueError("warmup_steps >= 0 and max_steps >= 1 required")
        if self.warmup_steps > self.max_steps:
            raise ValueError("warmup_steps cannot exceed max_steps")
        if self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive")
        if self.batch_size < 1 or self.val_every < 1 or self.ckpt_every < 1:
            raise ValueError("batch_size, val_every, ckpt_every must be >= 1")


def _loss_forward(
    params: dict[str, np.ndarray],
    cfg: LcmModelConfig,
    items: list[NextEmbeddingItem],
    schedule: NoiseSchedule,
    t: np.ndarray,
    eps: np.ndarray,
    conditioned: np.ndarray,
    squared: bool,
):
    """Summed loss of items noised to levels t with noise eps.

    Conditioned items take the context row at their last prefix position, from
    one context-tower call over their right-padded prefixes; the others take
    the null context. Returns the loss, its (N, d) gradient for the predictions,
    the context-tower cache with the index of each last row (None when no item
    is conditioned), and the denoiser cache.
    """
    targets = np.stack([item.target for item in items])
    c = np.tile(params["null_ctx"], (len(items), 1))
    ctx = None
    rows = np.flatnonzero(conditioned)
    if rows.size:
        lengths = np.array([items[i].prefix.shape[0] for i in rows])
        if lengths.min() < 1:
            raise ValueError("prefix must be non-empty")
        padded = np.zeros((rows.size, lengths.max(), cfg.concept_dim))
        padded[np.arange(lengths.max()) < lengths[:, None]] = np.concatenate(
            [items[i].prefix for i in rows]
        )
        ctx_out, ctx_cache = _ctx_forward(params, cfg, padded)
        last = (np.arange(rows.size), lengths - 1)
        c[rows] = ctx_out[last]
        ctx = (ctx_cache, last)
    xt = forward_diffuse(targets, t, eps, schedule)
    pred, den_cache = _den_forward(params, cfg, xt, schedule.log_snr[t], c)
    residual = targets - pred
    dist = np.linalg.norm(residual, axis=1)
    if squared:
        return float(np.sum(dist * dist)), -2.0 * residual, ctx, den_cache
    # Subgradient 0 at an exact hit (residual and distance both 0); otherwise
    # the unit direction.
    g_pred = -residual / np.where(dist > 0.0, dist, np.inf)[:, None]
    return float(np.sum(dist)), g_pred, ctx, den_cache


def diffusion_loss(
    params: dict[str, np.ndarray],
    cfg: LcmModelConfig,
    batch: list[NextEmbeddingItem],
    schedule: NoiseSchedule,
    guidance_p: float,
    rng: np.random.Generator,
    squared: bool = False,
) -> tuple[float, dict[str, np.ndarray], int]:
    """Sum-reduced denoising loss over a batch, with analytic gradients.

    Per item the draws happen in a fixed order (level, noise, dropout) so the
    result is fully determined by the generator state. Returns the loss, the
    gradient dict over every parameter (zeros where nothing flowed), and how
    many items had their context dropped.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    n = len(batch)
    t = np.empty(n, dtype=np.int64)
    eps = np.empty((n, cfg.concept_dim))
    conditioned = np.empty(n, dtype=bool)
    for i in range(n):
        t[i] = rng.integers(0, schedule.steps)
        eps[i] = rng.standard_normal(cfg.concept_dim)
        conditioned[i] = rng.random() >= guidance_p

    total, g_pred, ctx, den_cache = _loss_forward(
        params, cfg, batch, schedule, t, eps, conditioned, squared
    )
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    g_c = _den_backward(params, cfg, den_cache, g_pred, grads)
    grads["null_ctx"] += g_c[~conditioned].sum(axis=0)
    if ctx is not None:
        ctx_cache, last = ctx
        g_ctx = np.zeros((*ctx_cache.prefix.shape[:-1], cfg.ctx_width))
        g_ctx[last] = g_c[conditioned]
        _ctx_backward(params, cfg, ctx_cache, g_ctx, grads)
    return total, grads, n - int(conditioned.sum())


@dataclass(frozen=True)
class LcmStepRecord:
    step: int
    lr: float
    loss: float
    grad_norm_raw: float
    grad_norm: float


@dataclass(frozen=True)
class LcmValRecord:
    step: int
    val_loss: float


@dataclass
class LcmHistory:
    steps: list[LcmStepRecord] = field(default_factory=list)
    vals: list[LcmValRecord] = field(default_factory=list)
    best_step: int = 0
    best_val: float = math.inf

    def write_csvs(self, out_dir: str | Path) -> None:
        write_csv(Path(out_dir) / "history_steps.csv", LcmStepRecord, self.steps)
        write_csv(Path(out_dir) / "history_vals.csv", LcmValRecord, self.vals)


def _val_loss(
    params: dict[str, np.ndarray],
    cfg: LcmModelConfig,
    items: list[NextEmbeddingItem],
    schedule: NoiseSchedule,
    seed: int,
    squared: bool,
) -> float:
    """Mean per-item loss on held-out items, always conditioned.

    The generator is re-seeded identically on every call so successive
    evaluations are comparable.
    """
    rng = stream_rng(seed, _STREAM_VAL)
    n = len(items)
    t = np.empty(n, dtype=np.int64)
    eps = np.empty((n, cfg.concept_dim))
    for i in range(n):
        t[i] = rng.integers(0, schedule.steps)
        eps[i] = rng.standard_normal(cfg.concept_dim)
    conditioned = np.ones(n, dtype=bool)
    total = 0.0
    for start in range(0, n, VAL_BLOCK):
        b = slice(start, start + VAL_BLOCK)
        total += _loss_forward(
            params, cfg, items[b], schedule, t[b], eps[b], conditioned[b], squared
        )[0]
    return total / n


def train_lcm(
    sequences,
    model_cfg: LcmModelConfig,
    cfg: LcmTrainConfig,
    schedule: NoiseSchedule,
    out_dir: str | Path | None = None,
    resume: str | Path | None = None,
) -> tuple[dict[str, np.ndarray], LcmHistory]:
    """Train the two-tower model on next-embedding items from `sequences`.

    Batches are sampled uniformly with replacement using a stream keyed by the
    step index, so a run resumed from a step-k checkpoint replays steps k..end
    bit-identically. Returns the best-validation parameters.
    """
    from .checkpoints import corpus_sha256, load_lcm_train_state, save_lcm_train_state

    sequences = list(sequences)
    if not sequences:
        raise ValueError("need at least one sequence")
    order = stream_rng(cfg.seed, _STREAM_SPLIT).permutation(len(sequences))
    if len(sequences) > 1:
        n_val = max(1, int(round(cfg.val_fraction * len(sequences))))
        n_val = min(n_val, len(sequences) - 1)
        val_seqs = [sequences[i] for i in order[:n_val]]
        train_seqs = [sequences[i] for i in order[n_val:]]
    else:
        val_seqs = sequences
        train_seqs = sequences
    train_items = items_from_sequences(train_seqs)
    val_items = items_from_sequences(val_seqs)
    if not train_items:
        raise ValueError("sequences yield no (prefix, next) training items")

    optimizer = AdamW(eps=cfg.adam_eps, weight_decay=cfg.weight_decay)
    history = LcmHistory()
    corpus_digest = corpus_sha256(sequences)

    if resume is not None:
        params, optimizer, start_step, best = load_lcm_train_state(
            resume, optimizer, model_cfg, cfg, corpus_digest
        )
        best_val, best_step, best_tensors = best
    else:
        params = init_two_tower(model_cfg, stream_rng(cfg.seed, _STREAM_INIT))
        start_step = 0
        best_val = _val_loss(
            params, model_cfg, val_items, schedule, cfg.seed, cfg.squared_loss
        )
        best_step = 0
        best_tensors = {k: v.copy() for k, v in params.items()}
        history.vals.append(LcmValRecord(step=0, val_loss=best_val))

    for step in range(start_step, cfg.max_steps):
        picks = stream_rng(cfg.seed, _STREAM_BATCH, step).integers(
            0, len(train_items), cfg.batch_size
        )
        batch = [train_items[int(i)] for i in picks]
        step_rng = stream_rng(cfg.seed, _STREAM_STEP, step)
        loss, grads, _ = diffusion_loss(
            params, model_cfg, batch, schedule, cfg.guidance_p, step_rng,
            squared=cfg.squared_loss,
        )
        if not np.isfinite(loss):
            raise TrainingDivergedError(step)
        clipped, raw_norm, clip_norm = clip_global_norm(grads, cfg.grad_clip)
        lr = warmup_cosine(step, cfg.max_steps, cfg.warmup_steps, cfg.lr, cfg.final_lr)
        optimizer.step(params, clipped, lr)
        history.steps.append(
            LcmStepRecord(
                step=step, lr=lr, loss=loss,
                grad_norm_raw=raw_norm, grad_norm=clip_norm,
            )
        )

        done = step + 1
        if done % cfg.val_every == 0 or done == cfg.max_steps:
            val = _val_loss(
                params, model_cfg, val_items, schedule, cfg.seed, cfg.squared_loss
            )
            history.vals.append(LcmValRecord(step=done, val_loss=val))
            if val < best_val:
                best_val = val
                best_step = done
                best_tensors = {k: v.copy() for k, v in params.items()}
        if out_dir is not None and done % cfg.ckpt_every == 0:
            ckpt_dir = Path(out_dir) / "checkpoints" / f"step-{done:06d}"
            save_lcm_train_state(
                ckpt_dir, params, model_cfg, cfg, optimizer,
                done, best_val, best_step, best_tensors, corpus_digest,
            )

    history.best_step = best_step
    history.best_val = best_val
    return best_tensors, history


# ---------------------------------------------------------------------------
# Sampling


def sample_next(
    params: dict[str, np.ndarray],
    cfg: LcmModelConfig,
    prefix: np.ndarray,
    schedule: NoiseSchedule,
    guidance_scale: float = 0.0,
    rng: np.random.Generator | None = None,
    eta: float = 0.0,
) -> np.ndarray:
    """Generate the next embedding for a prefix by iterative denoising.

    Deterministic for eta == 0: starting from seeded Gaussian noise at the
    noisiest level, each step predicts x0 (with classifier-free guidance when
    guidance_scale > 0), re-derives the implied noise direction, and steps to
    the next level. Returns the final clean prediction. eta > 0 injects fresh
    noise at each step, scaled so eta == 1 matches ancestral sampling.
    """
    if rng is None:
        rng = stream_rng(0, _STREAM_SAMPLE)
    c = contextualize(params, cfg, prefix)[-1]
    if guidance_scale != 0.0:
        # Conditional and unconditional rows go through one denoiser call.
        c = np.stack([c, params["null_ctx"]])

    def predict(x: np.ndarray, t: int) -> np.ndarray:
        rows = np.broadcast_to(x, (*c.shape[:-1], cfg.concept_dim))
        pred = denoise(params, cfg, rows, t, c, True, schedule)
        if guidance_scale == 0.0:
            return pred
        return (1.0 + guidance_scale) * pred[0] - guidance_scale * pred[1]

    steps = schedule.steps
    x = rng.standard_normal(cfg.concept_dim)
    if steps == 1:
        return predict(x, 0)
    x_hat = None
    for t in range(steps - 1, 0, -1):
        x_hat = predict(x, t)
        eps_hat = (x - schedule.alpha[t] * x_hat) / schedule.sigma[t]
        if eta > 0.0:
            ratio = schedule.sigma[t - 1] / schedule.sigma[t] if schedule.sigma[t - 1] > 0 else 0.0
            churn = eta * ratio * math.sqrt(
                max(1.0 - (schedule.alpha[t] / schedule.alpha[t - 1]) ** 2, 0.0)
            )
            keep = math.sqrt(max(schedule.sigma[t - 1] ** 2 - churn**2, 0.0))
            x = (
                schedule.alpha[t - 1] * x_hat
                + keep * eps_hat
                + churn * rng.standard_normal(cfg.concept_dim)
            )
        else:
            x = schedule.alpha[t - 1] * x_hat + schedule.sigma[t - 1] * eps_hat
    return x_hat
