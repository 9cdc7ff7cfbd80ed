"""AdamW with decoupled weight decay over one group of named tensors, plus the
warmup-cosine learning-rate schedule, global-norm gradient clipping and the
divergence error both trainers raise.

One AdamW is one parameter group: one learning rate and one step count t
for every tensor it is given. One step of a tensor p with gradient g is

    m = beta1 m + (1 - beta1) g
    v = beta2 v + (1 - beta2) g^2
    p = p (1 - lr wd) - (lr / (1 - beta1^t)) m / (sqrt(v) / sqrt(1 - beta2^t) + eps)

which is lr m_hat / (sqrt(v_hat) + eps) plus lr wd times the pre-step
weights, with both bias corrections folded into scalars, computed once per
step, so that each tensor takes one array division (PyTorch's single-tensor
order). A model whose tensors train at different rates or from different
steps (the projector's adapter) uses one AdamW per group.

Updates are in place: step() overwrites the passed tensors and the moment
buffers m and v it owns, so run the backward pass before the step and copy
whatever must outlive it. clip_global_norm scales the given gradients in
place too: the trainer owns them.
"""

from __future__ import annotations

import math

import numpy as np


class TrainingDivergedError(RuntimeError):
    """Loss or gradients stopped being finite at a given step."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"training diverged at step {step}")


def warmup_cosine(
    step: int, total: int, warmup: int, peak: float, final: float = 0.0
) -> float:
    """Linear ramp to the peak over warmup steps, then cosine decay to final at total."""
    if not 0 <= warmup <= total:
        raise ValueError(f"warmup {warmup} outside [0, total {total}]")
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside [0, {total}]")
    if warmup > 0 and step <= warmup:
        return peak * step / warmup
    span = max(total - warmup, 1)
    progress = (step - warmup) / span
    return final + 0.5 * (peak - final) * (1.0 + math.cos(math.pi * progress))


class AdamW:
    def __init__(
        self,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must lie in [0, 1)")
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(
        self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float
    ) -> None:
        """Apply one update at rate `lr` to every tensor of `params`, in place."""
        self.t += 1
        decay = 1.0 - lr * self.weight_decay
        v_scale = 1.0 / math.sqrt(1.0 - self.beta2**self.t)
        m_scale = lr / (1.0 - self.beta1**self.t)
        for key, p in params.items():
            g = grads[key]
            if key not in self.m:
                self.m[key] = np.zeros_like(p)
                self.v[key] = np.zeros_like(p)
            m, v = self.m[key], self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            # Decoupled decay scales the weights from before this step.
            if self.weight_decay != 0.0:
                p *= decay
            den = np.sqrt(v)
            den *= v_scale
            den += self.eps
            np.divide(m, den, out=den)
            den *= m_scale
            p -= den


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        flat = g.reshape(-1)
        total += float(flat @ flat)
    return math.sqrt(total)


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> tuple[float, float]:
    """Scale all gradients in place so their joint norm is at most max_norm.

    Returns (raw norm, clipped norm).
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    raw = global_grad_norm(grads)
    if raw <= max_norm:
        return raw, raw
    scale = max_norm / raw
    for g in grads.values():
        g *= scale
    return raw, max_norm
