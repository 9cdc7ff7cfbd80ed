"""Brute-force recomputation of the eval report's headline numbers.

Ranks come from a full sort of every similarity row by (-similarity, id), not
from the counting rule in spaceval, so the two only agree when both honour the
ascending-id tie rule.
"""

from __future__ import annotations

import numpy as np

RECALL_KS = (1, 5, 10)


def _cosines(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    uq = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    ut = targets / np.linalg.norm(targets, axis=1, keepdims=True)
    return np.clip(uq @ ut.T, -1.0, 1.0)


def sorted_ids(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per query, target ids by descending cosine, equal cosines by ascending id."""
    sims = _cosines(np.asarray(queries, np.float64), np.asarray(targets, np.float64))
    ids = np.broadcast_to(np.arange(sims.shape[1]), sims.shape)
    return np.lexsort((ids, -sims), axis=1)


def retrieval(queries: np.ndarray, targets: np.ndarray, gold: np.ndarray) -> dict:
    """Recall@k and MRR of each query's gold target id among all targets."""
    order = sorted_ids(queries, targets)
    ranks = np.argmax(order == np.asarray(gold)[:, None], axis=1) + 1
    return {
        "recall_at": {str(k): float(np.mean(ranks <= k)) for k in RECALL_KS},
        "mrr": float(np.mean(1.0 / ranks)),
    }


def cov_trace(z: np.ndarray) -> float:
    """Trace of the unbiased covariance: the summed per-column variances."""
    centred = z - z.mean(axis=0)
    return float(np.sum(centred * centred) / (z.shape[0] - 1))


def eval_report(zv: np.ndarray, zt: np.ndarray, bank: np.ndarray, gold_ids: np.ndarray) -> dict:
    """The checked subset of ``conceptspace eval``'s report, recomputed."""
    decoded = sorted_ids(zv, bank)[:, 0]
    items = np.arange(zv.shape[0])
    return {
        "space": {**retrieval(zv, bank, gold_ids), "v_trace": cov_trace(zv), "t_trace": cov_trace(zt)},
        "roundtrip": {
            "decode_accuracy": float(np.mean(decoded == gold_ids)),
            "groups": {
                "gold": retrieval(bank[gold_ids], zv, items),
                "decoded": retrieval(bank[decoded], zv, items),
            },
        },
    }


def mismatches(expected: dict, actual: dict, tol: float = 1e-12, path: str = "") -> list[str]:
    """Every leaf of `expected` that `actual` misses or differs from by more than tol."""
    out = []
    for key, want in expected.items():
        where = f"{path}.{key}" if path else key
        got = actual.get(key) if isinstance(actual, dict) else None
        if isinstance(want, dict):
            out += mismatches(want, got if isinstance(got, dict) else {}, tol, where)
        elif not isinstance(got, (int, float)) or abs(got - want) > tol:
            out.append(f"{where}: report {got!r}, brute force {want!r}")
    return out
