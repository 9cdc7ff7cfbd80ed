"""AdamW with decoupled weight decay over one group of named tensors, plus the
warmup-cosine learning-rate schedule, global-norm gradient clipping, the
divergence error both trainers raise, and the flat tensor layout they share.

A model's tensors are named views into one float64 vector, one after another
in the model's layout order (`tensor_views`); `flat_copy` copies any set of
tensors into that form. An AdamW group is such a run of consecutive views, or
a single tensor, so its weights and its moments m and v are each one vector
(`flat_span`); a group in any other form raises ValueError. A step runs over
chunks of that vector, each a run of whole tensors of at most CHUNK values
(or one larger tensor), with one concatenate gathering a chunk's gradients
into a chunk-sized buffer, so a step makes a dozen array operations per chunk
rather than per tensor, and holds no gradient vector of the group's size.

One AdamW is one parameter group: one learning rate and one step count t
for every tensor it is given. One step of a tensor p with gradient g is

    m = beta1 m + (1 - beta1) g
    v = beta2 v + (1 - beta2) g^2
    p = p (1 - lr wd) - (lr / (1 - beta1^t)) m / (sqrt(v) / sqrt(1 - beta2^t) + eps)

which is lr m_hat / (sqrt(v_hat) + eps) plus lr wd times the pre-step
weights, with both bias corrections folded into scalars, computed once per
step, so that each value takes one division (PyTorch's single-tensor order).
These are elementwise, so the chunked step gives each tensor the bits a
per-tensor step would. A model whose tensors train at different rates or
from different steps (the projector's adapter) uses one AdamW per group.

Updates are in place: step() overwrites the passed tensors and the moment
buffers m and v it owns (dicts of views into its two vectors, which the
checkpoint code saves and restores), so run the backward pass before the step
and copy whatever must outlive it. clip_global_norm scales the given
gradients in place too: the trainer owns them.
"""

from __future__ import annotations

import math
import operator

import numpy as np

# Most values per chunk of an AdamW step: each operand's chunk, 256 KiB at
# most, stays in cache across the step's dozen passes.
CHUNK = 32768


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


def tensor_views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Named views into the 1-D `flat`, one after another in the order of `shapes`."""
    views, pos = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[pos : pos + size].reshape(shape)
        pos += size
    return views


def flat_copy(tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """A float64 copy of `tensors` as views into one new vector, in dict order."""
    flat = np.concatenate(list(tensors.values()), axis=None, dtype=np.float64)
    return tensor_views(flat, {name: np.shape(t) for name, t in tensors.items()})


def _root(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def flat_span(tensors: dict[str, np.ndarray]) -> np.ndarray:
    """The 1-D view of the vector that `tensors` fill, one after another in dict order.

    ValueError unless every tensor is a C-contiguous float64 view of one
    C-contiguous float64 buffer, starting where the one before it ends.
    """
    if not tensors:
        raise ValueError("an empty group of tensors")
    first = next(iter(tensors.values()))
    root = _root(first)
    if root.dtype != np.float64 or not root.flags.c_contiguous:
        raise ValueError("the group's buffer is not one C-contiguous float64 array")
    base = root.ctypes.data
    start = pos = (first.ctypes.data - base) // root.itemsize
    for name, t in tensors.items():
        if not (t.dtype == np.float64 and t.flags.c_contiguous and _root(t) is root
                and t.ctypes.data == base + pos * root.itemsize):
            raise ValueError(f"tensor {name!r} does not follow the one before it in "
                             f"one float64 buffer")
        pos += t.size
    return root.reshape(-1)[start:pos]


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
        # The tensors of the last step and the vectors `_vectors` found from them.
        self._flat: tuple[tuple, tuple] = ((), ())

    def _vectors(self, params: dict[str, np.ndarray]) -> tuple:
        """The group, m and v as vectors, the group's chunks and two chunk-sized
        buffers; found again only when a tensor of params, m or v is replaced."""
        tensors = (*params.values(), *self.m.values(), *self.v.values())
        seen, vectors = self._flat
        if len(seen) == len(tensors) and all(map(operator.is_, seen, tensors)):
            return vectors
        p = flat_span(params)
        shapes = [(name, t.shape) for name, t in params.items()]
        if not self.m:
            self.m, self.v = (tensor_views(np.zeros(p.size), dict(shapes)) for _ in range(2))
        if any([(name, t.shape) for name, t in moments.items()] != shapes
               for moments in (self.m, self.v)):
            raise ValueError("the moments do not have the group's names and shapes")
        # Chunks are runs of whole tensors, so a chunk's gradients are gathered
        # with one concatenate; a tensor of more than CHUNK values is one chunk.
        chunks, names, lo, pos = [], [], 0, 0
        for name, t in params.items():
            if names and pos + t.size - lo > CHUNK:
                chunks.append((slice(lo, pos), names))
                names, lo = [], pos
            names.append(name)
            pos += t.size
        chunks.append((slice(lo, pos), names))
        size = max(c.stop - c.start for c, _ in chunks)
        vectors = (p, flat_span(self.m), flat_span(self.v), chunks, np.empty(size), np.empty(size))
        self._flat = ((*params.values(), *self.m.values(), *self.v.values()), vectors)
        return vectors

    def step(
        self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float
    ) -> None:
        """Apply one update at rate `lr` to every tensor of `params`, in place.

        `params` must fill one vector in order (`flat_span`), or be one tensor.
        """
        p, m, v, chunks, g_buf, den_buf = self._vectors(params)
        # A missing gradient raises KeyError here, before t or any tensor changes.
        chunks = [(chunk, [grads[name] for name in names]) for chunk, names in chunks]
        self.t += 1
        decay = 1.0 - lr * self.weight_decay
        v_scale = 1.0 / math.sqrt(1.0 - self.beta2**self.t)
        m_scale = lr / (1.0 - self.beta1**self.t)
        for chunk, chunk_grads in chunks:
            pc, mc, vc = p[chunk], m[chunk], v[chunk]
            gc = np.concatenate(chunk_grads, axis=None, out=g_buf[: pc.size])
            den = den_buf[: pc.size]
            mc *= self.beta1
            mc += np.multiply(gc, 1.0 - self.beta1, out=den)
            vc *= self.beta2
            np.multiply(gc, 1.0 - self.beta2, out=den)
            vc += np.multiply(den, gc, out=den)
            # Decoupled decay scales the weights from before this step.
            if self.weight_decay != 0.0:
                pc *= decay
            np.sqrt(vc, out=den)
            den *= v_scale
            den += self.eps
            np.divide(mc, den, out=den)
            den *= m_scale
            pc -= den


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
