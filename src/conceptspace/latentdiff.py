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
position from seeing a pad, and the denoiser over rows. The denoiser is
conditioned only on the context after each whole prefix, so the tower's last
layer computes that one row per prefix (`attention_forward`'s `last`), and
every earlier layer all rows, which the last layer's keys and values need.
The loss of an item is the plain (unsquared) Euclidean distance between the
target and the prediction, summed over the batch. All gradients are
hand-derived and verified against finite differences in the test suite.

A model's tensors are views into one float64 vector, in layout order, from
`init_two_tower`, from a checkpoint load and in every copy the trainer makes:
AdamW steps that vector in chunks.

Sampling splits the denoiser's input layer by its columns. Of its input
[x_t, sincos(log_snr_t), c], only x_t changes from level to level, so
`condition` computes the rest of the layer for every level once per sample,
and `denoise` adds x_t's product to the entry of its level before the residual
blocks and the head.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .attention import attention_backward, attention_forward, fold_rows
from .numerics import holdout_split, stream_rng
from .optim import AdamW, TrainingDivergedError, clip_global_norm, flat_copy, warmup_cosine
from .projector import sinusoidal_features
from .records import record_rows, write_csv

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
    _check_grid(steps, lambda_max, lambda_min)
    log_snr = np.linspace(lambda_max, lambda_min, steps)
    # Both sigmoids computed directly (no 1-x subtraction) keeps the
    # variance-preserving identity tight at extreme log-SNR.
    alpha = np.sqrt([_sigmoid(v) for v in log_snr.tolist()])
    sigma = np.sqrt([_sigmoid(-v) for v in log_snr.tolist()])
    return NoiseSchedule(alpha=alpha, sigma=sigma, log_snr=log_snr)


def _check_grid(steps: int, lambda_max: float, lambda_min: float) -> None:
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not lambda_max > lambda_min:
        raise ValueError(
            f"lambda_max must exceed lambda_min, got {lambda_max} <= {lambda_min}"
        )


def _level1_log_snr(steps: int, lambda_max: float, lambda_min: float) -> float:
    """build_schedule's log_snr[1] without the grid: np.linspace adds one step to
    lambda_max, or pins the last level to lambda_min."""
    if steps == 2:
        return lambda_min
    return lambda_max + (lambda_min - lambda_max) / (steps - 1)


def _sigmoid(x: float) -> float:
    """1 / (1 + exp(-x)) with libm's exp, which equals scipy.special.expit bit
    for bit; numpy's vectorised exp can differ from it in the last bit."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # exp(-x) > DBL_MAX, below x = -709.78: the sigmoid is 0
        return 0.0


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
        _check_grid(self.steps, self.lambda_max, self.lambda_min)
        # The sampler divides by sigma at every level but the clean one, and
        # sigma grows with the level: level 1 is the one that can be 0.
        level1 = _level1_log_snr(self.steps, self.lambda_max, self.lambda_min)
        if _sigmoid(-level1) == 0.0:
            raise ValueError(f"lambda_max {self.lambda_max:g} puts level 1 at log-SNR "
                             f"{level1:.6g}, where sigma is 0 (above about 709.78)")


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
        for name, value in asdict(self).items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.ctx_width % self.ctx_heads != 0:
            raise ValueError(
                f"ctx_width {self.ctx_width} must be divisible by ctx_heads {self.ctx_heads}"
            )
        for name in ("ctx_width", "lambda_emb_dim"):
            value = getattr(self, name)
            if value % 2 != 0:
                raise ValueError(f"{name} must be even for interleaved sin/cos codes, got {value}")

    @property
    def denoiser_input_dim(self) -> int:
        return self.concept_dim + self.lambda_emb_dim + self.ctx_width


def layout(cfg: LcmModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of each two-tower tensor, in init and checkpoint order."""
    d, h, f, w = cfg.concept_dim, cfg.ctx_width, cfg.ffn_mult * cfg.ctx_width, cfg.den_width
    shapes = {"ctx.in_w": (h, d), "ctx.in_b": (h,)}
    for layer in range(cfg.ctx_layers):
        p = f"ctx.l{layer}"
        shapes |= {f"{p}.{name}": (h, h) for name in ("wq", "wk", "wv", "wo")}
        shapes |= {f"{p}.ffn_w1": (f, h), f"{p}.ffn_b1": (f,),
                   f"{p}.ffn_w2": (h, f), f"{p}.ffn_b2": (h,)}
    shapes |= {"null_ctx": (h,), "den.in_w": (w, cfg.denoiser_input_dim), "den.in_b": (w,)}
    for k in range(cfg.den_depth):
        shapes |= {f"den.b{k}.w": (w, w), f"den.b{k}.b": (w,)}
    return shapes | {"den.out_w": (d, w), "den.out_b": (d,)}


def init_two_tower(cfg: LcmModelConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Fan-in scaled Gaussian weights in layout order; the biases, the null
    context and the denoiser output head start at zero. The tensors are views
    into one vector."""
    return flat_copy({
        name: np.zeros(shape) if len(shape) == 1 or name == "den.out_w"
        else rng.standard_normal(shape) / math.sqrt(shape[1])
        for name, shape in layout(cfg).items()
    })


@dataclass
class _CtxCache:
    prefix: np.ndarray
    layer_caches: list  # per layer: (attn_cache, x_after_attn, u, relu_u)


def _ctx_forward(
    params: dict[str, np.ndarray], cfg: LcmModelConfig, padded: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, _CtxCache]:
    """The (B, ctx_width) context after each of B right-padded prefixes
    (B, L, concept_dim) of the given (B,) lengths, and the cache for
    `_ctx_backward`. The last layer queries only row lengths - 1 of each prefix."""
    x = padded @ params["ctx.in_w"].T + params["ctx.in_b"]
    x = x + sinusoidal_features(np.arange(padded.shape[-2]), cfg.ctx_width)
    cache = _CtxCache(prefix=padded, layer_caches=[])
    for layer in range(cfg.ctx_layers):
        p = f"ctx.l{layer}"
        x_attn, attn_cache = attention_forward(
            x, params[f"{p}.wq"], params[f"{p}.wk"], params[f"{p}.wv"], params[f"{p}.wo"],
            cfg.ctx_heads, causal=True, last=lengths - 1 if layer == cfg.ctx_layers - 1 else None,
        )
        u = x_attn @ params[f"{p}.ffn_w1"].T + params[f"{p}.ffn_b1"]
        relu_u = np.maximum(u, 0.0)
        x = x_attn + relu_u @ params[f"{p}.ffn_w2"].T + params[f"{p}.ffn_b2"]
        cache.layer_caches.append((attn_cache, x_attn, u, relu_u))
    return x, cache


def _ctx_backward(
    params: dict[str, np.ndarray], cfg: LcmModelConfig, cache: _CtxCache, g_out: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Write the context-tower grads into `grads`, each once, as a new array;
    `g_out` is the (B, ctx_width) gradient of `_ctx_forward`'s output."""
    g = g_out
    for layer in reversed(range(cfg.ctx_layers)):
        p = f"ctx.l{layer}"
        attn_cache, x_attn, u, relu_u = cache.layer_caches[layer]
        # FFN residual: x = x_attn + relu(x_attn W1^T + b1) W2^T + b2
        grads[f"{p}.ffn_w2"] = fold_rows(g).T @ fold_rows(relu_u)
        grads[f"{p}.ffn_b2"] = fold_rows(g).sum(axis=0)
        g_relu = g @ params[f"{p}.ffn_w2"]
        g_u = g_relu * (u > 0.0)
        grads[f"{p}.ffn_w1"] = fold_rows(g_u).T @ fold_rows(x_attn)
        grads[f"{p}.ffn_b1"] = fold_rows(g_u).sum(axis=0)
        g_x_attn = g + g_u @ params[f"{p}.ffn_w1"]
        g, grads[f"{p}.wq"], grads[f"{p}.wk"], grads[f"{p}.wv"], grads[f"{p}.wo"] = (
            attention_backward(attn_cache, g_x_attn))
    grads["ctx.in_w"] = fold_rows(g).T @ fold_rows(cache.prefix)
    grads["ctx.in_b"] = fold_rows(g).sum(axis=0)


def contextualize(
    params: dict[str, np.ndarray], cfg: LcmModelConfig, prefix: np.ndarray
) -> np.ndarray:
    """The causal context vector after a whole prefix, the one the denoiser reads.

    `prefix` is (L, concept_dim) and the context (ctx_width,); leading axes are
    a batch of prefixes of one length. The context after the first i positions
    of a prefix is `contextualize` of `prefix[:i]`: the causal mask keeps every
    position from seeing later ones, and right padding from being seen.
    """
    prefix = np.asarray(prefix, dtype=np.float64)
    if prefix.ndim < 2 or prefix.shape[-1] != cfg.concept_dim:
        raise ValueError(
            f"prefix must be (..., L, {cfg.concept_dim}), got shape {prefix.shape}"
        )
    if prefix.shape[-2] < 1:
        raise ValueError("prefix must be non-empty")
    batch = prefix.reshape(-1, *prefix.shape[-2:])
    out, _ = _ctx_forward(params, cfg, batch, np.full(batch.shape[0], prefix.shape[-2]))
    return out.reshape(*prefix.shape[:-2], cfg.ctx_width)


@dataclass
class _DenCache:
    inp: np.ndarray
    pre_block: list[np.ndarray]  # hidden state entering each residual block
    us: list[np.ndarray]
    h_final: np.ndarray


def _den_blocks(
    params: dict[str, np.ndarray], cfg: LcmModelConfig, h: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Residual blocks and output head over input-layer rows h (..., den_width).

    Returns the prediction, the hidden state entering each block, each block's
    pre-activation and the final hidden state.
    """
    pre_block = []
    us = []
    for k in range(cfg.den_depth):
        pre_block.append(h)
        u = h @ params[f"den.b{k}.w"].T + params[f"den.b{k}.b"]
        us.append(u)
        h = h + np.maximum(u, 0.0)
    return h @ params["den.out_w"].T + params["den.out_b"], pre_block, us, h


def _den_forward(
    params: dict[str, np.ndarray], cfg: LcmModelConfig, xt: np.ndarray, lam: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, _DenCache]:
    """Denoiser over rows: xt (..., d), log-SNR lam (...), context c (..., ctx_width)."""
    inp = np.concatenate([xt, sinusoidal_features(lam, cfg.lambda_emb_dim), c], axis=-1)
    h = inp @ params["den.in_w"].T + params["den.in_b"]
    out, pre_block, us, h = _den_blocks(params, cfg, h)
    return out, _DenCache(inp=inp, pre_block=pre_block, us=us, h_final=h)


def _den_backward(
    params: dict[str, np.ndarray], cfg: LcmModelConfig, cache: _DenCache, g_out: np.ndarray,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    """Write the denoiser grads of (N, d) rows into `grads`, each once, as a new
    array; returns the (N, ctx_width) context grads."""
    grads["den.out_w"] = g_out.T @ cache.h_final
    grads["den.out_b"] = g_out.sum(axis=0)
    g_h = g_out @ params["den.out_w"]
    for k in reversed(range(cfg.den_depth)):
        g_u = g_h * (cache.us[k] > 0.0)
        grads[f"den.b{k}.w"] = g_u.T @ cache.pre_block[k]
        grads[f"den.b{k}.b"] = g_u.sum(axis=0)
        g_h = g_h + g_u @ params[f"den.b{k}.w"]
    grads["den.in_w"] = g_h.T @ cache.inp
    grads["den.in_b"] = g_h.sum(axis=0)
    return g_h @ params["den.in_w"][:, cfg.concept_dim + cfg.lambda_emb_dim :]


def condition(
    params: dict[str, np.ndarray],
    cfg: LcmModelConfig,
    c: np.ndarray,
    schedule: NoiseSchedule,
) -> np.ndarray:
    """The part of the denoiser's input layer that does not depend on x_t.

    `den.in_w` splits by input columns into [W_x | W_lam | W_c]. Returns the
    (steps, ..., den_width) table whose entry t is
    sincos(log_snr_t) @ W_lam^T + c @ W_c^T + den.in_b, for every level of
    `schedule`. `c` is (ctx_width,); leading axes are a batch of rows. For
    the unconditional prediction, pass the learned `null_ctx` as the row.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim < 1 or c.shape[-1] != cfg.ctx_width:
        raise ValueError(f"context must have shape (..., {cfg.ctx_width}), got {c.shape}")
    d, e = cfg.concept_dim, cfg.lambda_emb_dim
    w_in = params["den.in_w"]
    rows = c @ w_in[:, d + e :].T + params["den.in_b"]
    levels = sinusoidal_features(schedule.log_snr, e) @ w_in[:, d : d + e].T
    return levels.reshape(schedule.steps, *(1,) * (c.ndim - 1), -1) + rows


def denoise(
    params: dict[str, np.ndarray],
    cfg: LcmModelConfig,
    xt: np.ndarray,
    t: int,
    cond: np.ndarray,
) -> np.ndarray:
    """Predict the clean embedding from a noisy one at level t.

    `cond` is a `condition` table, and the input layer adds its entry t to
    xt @ W_x^T. `xt` is a float64 (concept_dim,) row shared by every row of
    the table, or one row per table row.
    """
    if xt.ndim < 1 or xt.shape[-1] != cfg.concept_dim:
        raise ValueError(f"xt must have shape (..., {cfg.concept_dim}), got {xt.shape}")
    if xt.ndim > 1 and xt.shape[:-1] != cond.shape[1:-1]:
        raise ValueError(f"xt rows {xt.shape[:-1]} do not match the table's rows "
                         f"{cond.shape[1:-1]}")
    if not 0 <= t < cond.shape[0]:
        raise ValueError(f"t={t} outside schedule with {cond.shape[0]} levels")
    h = xt @ params["den.in_w"][:, : cfg.concept_dim].T + cond[t]
    return _den_blocks(params, cfg, h)[0]


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
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")
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
):
    """Summed loss of items noised to levels t with noise eps.

    Conditioned items take the context after their whole prefix, from one
    context-tower call over their right-padded prefixes; the others take the
    null context. Returns the loss, its (N, d) gradient for the predictions,
    the context-tower cache (None when no item is conditioned), and the
    denoiser cache.
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
        c[rows], ctx = _ctx_forward(params, cfg, padded, lengths)
    xt = forward_diffuse(targets, t, eps, schedule)
    pred, den_cache = _den_forward(params, cfg, xt, schedule.log_snr[t], c)
    residual = targets - pred
    dist = np.linalg.norm(residual, axis=1)
    # Subgradient 0 at an exact hit (residual and distance both 0); otherwise
    # the unit direction.
    g_pred = -residual / np.where(dist > 0.0, dist, np.inf)[:, None]
    return float(np.sum(dist)), g_pred, ctx, den_cache


def _draw_items(
    n: int, cfg: LcmModelConfig, schedule: NoiseSchedule, guidance_p: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per item, in a fixed order: a level, the noise, then whether the context is kept."""
    t = np.empty(n, dtype=np.int64)
    eps = np.empty((n, cfg.concept_dim))
    conditioned = np.empty(n, dtype=bool)
    for i in range(n):
        t[i] = rng.integers(0, schedule.steps)
        eps[i] = rng.standard_normal(cfg.concept_dim)
        conditioned[i] = rng.random() >= guidance_p
    return t, eps, conditioned


def diffusion_loss(
    params: dict[str, np.ndarray],
    cfg: LcmModelConfig,
    batch: list[NextEmbeddingItem],
    schedule: NoiseSchedule,
    guidance_p: float,
    rng: np.random.Generator,
) -> tuple[float, dict[str, np.ndarray], int]:
    """Sum-reduced denoising loss over a batch, with analytic gradients.

    The draws come from `_draw_items`, so the result is fully determined by the
    generator state. Returns the loss, a new gradient array for every parameter
    in `params` order (zeros where nothing flowed), and how many items had
    their context dropped.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    t, eps, conditioned = _draw_items(len(batch), cfg, schedule, guidance_p, rng)
    total, g_pred, ctx, den_cache = _loss_forward(params, cfg, batch, schedule, t, eps, conditioned)
    grads: dict[str, np.ndarray] = {}
    g_c = _den_backward(params, cfg, den_cache, g_pred, grads)
    grads["null_ctx"] = g_c[~conditioned].sum(axis=0)
    if ctx is not None:
        _ctx_backward(params, cfg, ctx, g_c[conditioned], grads)
    else:
        grads.update((k, np.zeros_like(v)) for k, v in params.items() if k.startswith("ctx."))
    return total, {k: grads[k] for k in params}, len(batch) - int(conditioned.sum())


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
        write_csv(Path(out_dir) / "history_steps.csv", *record_rows(LcmStepRecord, self.steps))
        write_csv(Path(out_dir) / "history_vals.csv", *record_rows(LcmValRecord, self.vals))


def _val_loss(
    params: dict[str, np.ndarray],
    cfg: LcmModelConfig,
    items: list[NextEmbeddingItem],
    schedule: NoiseSchedule,
    seed: int,
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
        total += _loss_forward(params, cfg, items[b], schedule, t[b], eps[b], conditioned[b])[0]
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
    val_idx, train_idx = holdout_split(order, cfg.val_fraction)
    train_items = items_from_sequences(sequences[i] for i in train_idx)
    val_items = items_from_sequences(sequences[i] for i in val_idx)
    if not train_items:
        raise ValueError("sequences yield no (prefix, next) training items")
    if not val_items:
        raise ValueError("the held-out sequences yield no (prefix, next) validation items")

    optimizer = AdamW(eps=cfg.adam_eps, weight_decay=cfg.weight_decay)
    history = LcmHistory()
    corpus_digest = corpus_sha256(sequences)
    # The `schedule` config block that builds this grid: np.linspace keeps both ends exact.
    schedule_doc = {"steps": schedule.steps, "lambda_max": float(schedule.log_snr[0]),
                    "lambda_min": float(schedule.log_snr[-1])}

    if resume is not None:
        params, optimizer, start_step, best = load_lcm_train_state(
            resume, optimizer, model_cfg, cfg, corpus_digest, schedule_doc
        )
        best_val, best_step, best_tensors = best
    else:
        params = init_two_tower(model_cfg, stream_rng(cfg.seed, _STREAM_INIT))
        start_step = 0
        best_val = _val_loss(params, model_cfg, val_items, schedule, cfg.seed)
        best_step = 0
        best_tensors = flat_copy(params)
        history.vals.append(LcmValRecord(step=0, val_loss=best_val))

    for step in range(start_step, cfg.max_steps):
        picks = stream_rng(cfg.seed, _STREAM_BATCH, step).integers(
            0, len(train_items), cfg.batch_size
        )
        batch = [train_items[int(i)] for i in picks]
        step_rng = stream_rng(cfg.seed, _STREAM_STEP, step)
        loss, grads, _ = diffusion_loss(params, model_cfg, batch, schedule, cfg.guidance_p,
                                        step_rng)
        if not np.isfinite(loss):
            raise TrainingDivergedError(step)
        raw_norm, clip_norm = clip_global_norm(grads, cfg.grad_clip)
        lr = warmup_cosine(step, cfg.max_steps, cfg.warmup_steps, cfg.lr, cfg.final_lr)
        optimizer.step(params, grads, lr)
        history.steps.append(
            LcmStepRecord(
                step=step, lr=lr, loss=loss,
                grad_norm_raw=raw_norm, grad_norm=clip_norm,
            )
        )

        done = step + 1
        if done % cfg.val_every == 0 or done == cfg.max_steps:
            val = _val_loss(params, model_cfg, val_items, schedule, cfg.seed)
            history.vals.append(LcmValRecord(step=done, val_loss=val))
            if val < best_val:
                best_val = val
                best_step = done
                best_tensors = flat_copy(params)
        if out_dir is not None and done % cfg.ckpt_every == 0:
            ckpt_dir = Path(out_dir) / "checkpoints" / f"step-{done:06d}"
            save_lcm_train_state(
                ckpt_dir, params, model_cfg, cfg, optimizer,
                done, best_val, best_step, best_tensors, corpus_digest, schedule_doc,
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
    if not (math.isfinite(eta) and eta >= 0.0):
        raise ValueError(f"eta must be finite and >= 0, got {eta}")
    if not math.isfinite(guidance_scale):
        raise ValueError(f"guidance_scale must be finite, got {guidance_scale}")
    steps = schedule.steps
    # With eta > 0 a step divides by alpha at each level below the noisiest,
    # and alpha falls with the level: level steps-2 is the one that can be 0.
    if eta > 0.0 and steps > 1 and schedule.alpha[steps - 2] == 0.0:
        raise ValueError(f"eta > 0, but lambda_min {schedule.log_snr[-1]:g} puts level {steps - 2} "
                         f"at log-SNR {schedule.log_snr[steps - 2]:.6g}, where alpha is 0 "
                         f"(below about -709.78)")
    if rng is None:
        rng = stream_rng(0, _STREAM_SAMPLE)
    c = contextualize(params, cfg, prefix)
    if guidance_scale != 0.0:
        # Conditional and unconditional rows go through one denoiser call.
        c = np.stack([c, params["null_ctx"]])
    cond = condition(params, cfg, c, schedule)

    def predict(x: np.ndarray, t: int) -> np.ndarray:
        pred = denoise(params, cfg, x, t, cond)
        if guidance_scale == 0.0:
            return pred
        return (1.0 + guidance_scale) * pred[0] - guidance_scale * pred[1]

    # Python floats: the same IEEE products as numpy scalars, with less overhead per level.
    alpha, sigma = schedule.alpha.tolist(), schedule.sigma.tolist()
    x = rng.standard_normal(cfg.concept_dim)
    if steps == 1:
        return predict(x, 0)
    x_hat = None
    for t in range(steps - 1, 0, -1):
        x_hat = predict(x, t)
        eps_hat = (x - alpha[t] * x_hat) / sigma[t]
        if eta > 0.0:
            ratio = sigma[t - 1] / sigma[t] if sigma[t - 1] > 0 else 0.0
            churn = eta * ratio * math.sqrt(
                max(1.0 - (alpha[t] / alpha[t - 1]) ** 2, 0.0)
            )
            keep = math.sqrt(max(sigma[t - 1] ** 2 - churn**2, 0.0))
            x = (
                alpha[t - 1] * x_hat
                + keep * eps_hat
                + churn * rng.standard_normal(cfg.concept_dim)
            )
        else:
            x = alpha[t - 1] * x_hat + sigma[t - 1] * eps_hat
    return x_hat
