"""Reference implementations the tests compare the toolkit against.

None of these runs in a command: the toolkit computes similarities in batches
(`spaceval.similarity_matrix`), softmax inside the attention core, and keeps
parameters as dicts. The tests use these plain forms as oracles, and to flatten
a parameter dict into the one vector `grad_check` perturbs. Their own tests are
in test_numerics.py.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def softmax(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along `axis` (max-shifted)."""
    v = np.asarray(v, dtype=np.float64)
    shifted = v - np.max(v, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm vector")
    # Clamp: roundoff can push |cos| a few ulp past 1 for near-parallel inputs.
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def flatten_tensors(tensors: dict[str, np.ndarray], order: Iterable[str]) -> np.ndarray:
    """Concatenate named arrays into one flat vector in the given key order."""
    return np.concatenate([np.asarray(tensors[k], dtype=np.float64).ravel() for k in order])


def unflatten_tensors(
    vec: np.ndarray, shapes: dict[str, tuple[int, ...]], order: Iterable[str]
) -> dict[str, np.ndarray]:
    """Inverse of flatten_tensors for the same key order and shapes."""
    out: dict[str, np.ndarray] = {}
    pos = 0
    for k in order:
        size = int(np.prod(shapes[k], dtype=np.int64)) if shapes[k] else 1
        out[k] = np.asarray(vec[pos : pos + size], dtype=np.float64).reshape(shapes[k])
        pos += size
    if pos != vec.size:
        raise ValueError(f"vector length {vec.size} does not match shapes (consumed {pos})")
    return out
