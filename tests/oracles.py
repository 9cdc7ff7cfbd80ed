"""Reference implementations the tests compare the toolkit against.

None of these runs in a command: the toolkit computes similarities in batches
(`spaceval.similarity_matrix`), softmax inside the attention core, residual
self-attention in a head-major matmul core (`attention.attention_forward`),
learned-query pooling in closed form (`projector.attention_pool`), the
sampler's denoiser input layer split into a per-call table and a per-level
product (`latentdiff.condition`), the context tower's last layer for one row
per prefix (`latentdiff.contextualize`), and keeps parameters as dicts. The tests use
these plain forms as oracles, flatten a parameter dict into the one vector
that `grad_check` perturbs, and check every hand-written backward pass against
`grad_check`'s central finite differences. `einsum_attention` is general
cross-attention, from one set of rows over another: the self-attention core
is checked against it with the same rows on both sides, and pooling with the
`cls` row as the one query. `consistency` is alignment consistency as
`spaceval._consistency` computed it before that function ranked whole tiles
with one sort of packed keys: off-diagonal copies of each profile, ranks from
`argsort` and a row-wise Pearson correlation of the ranks. `gold_ranks` and
`roundtrip` are the gold-rank count and the caption round trip as
`spaceval` computed them before the round trip ranked a decoded caption only
where it differs from the gold one: every target id compared in every row, and
both caption groups ranked in full. `eval_report` builds `eval`'s report.json
numbers from these oracles.
The other oracles' own tests are in test_numerics.py.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from conceptspace.attention import attention_forward, fold_rows
from conceptspace.projector import sinusoidal_features
from conceptspace import spaceval
from conceptspace.spaceval import TILE_ROWS, AcResult, GroupStats, RoundTripReport


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


def denoise_concat(params: dict[str, np.ndarray], cfg, xt: np.ndarray, t: int, c: np.ndarray,
                   conditioned: bool, schedule) -> np.ndarray:
    """The two-tower denoiser on its concatenated input [x_t, sincos(log_snr_t), c].

    `xt` is (concept_dim,) and `c` is (ctx_width,); leading axes, the same on
    both, are a batch of rows. With conditioned=False the learned null context
    replaces `c`.
    """
    xt = np.asarray(xt, dtype=np.float64)
    if not 0 <= t < schedule.steps:
        raise ValueError(f"t={t} outside schedule with {schedule.steps} levels")
    c = np.asarray(c, dtype=np.float64) if conditioned else np.broadcast_to(
        params["null_ctx"], (*xt.shape[:-1], cfg.ctx_width))
    lam = sinusoidal_features(np.full(xt.shape[:-1], schedule.log_snr[t]), cfg.lambda_emb_dim)
    h = np.concatenate([xt, lam, c], axis=-1) @ params["den.in_w"].T + params["den.in_b"]
    for k in range(cfg.den_depth):
        h = h + np.maximum(h @ params[f"den.b{k}.w"].T + params[f"den.b{k}.b"], 0.0)
    return h @ params["den.out_w"].T + params["den.out_b"]


def context_tower(params: dict[str, np.ndarray], cfg, prefix: np.ndarray) -> np.ndarray:
    """The two-tower model's context tower over every row: (..., L, ctx_width)
    context vectors for a (..., L, concept_dim) prefix, row i the context
    after positions 0..i."""
    x = prefix @ params["ctx.in_w"].T + params["ctx.in_b"]
    x = x + sinusoidal_features(np.arange(prefix.shape[-2]), cfg.ctx_width)
    for layer in range(cfg.ctx_layers):
        p = f"ctx.l{layer}"
        x_attn, _ = attention_forward(
            x, params[f"{p}.wq"], params[f"{p}.wk"], params[f"{p}.wv"], params[f"{p}.wo"],
            cfg.ctx_heads, causal=True,
        )
        relu_u = np.maximum(x_attn @ params[f"{p}.ffn_w1"].T + params[f"{p}.ffn_b1"], 0.0)
        x = x_attn + relu_u @ params[f"{p}.ffn_w2"].T + params[f"{p}.ffn_b2"]
    return x


def einsum_attention(xq, xkv, wq, wk, wv, wo, g_out, heads, causal=False,
                     dropout_p=0.0, rng=None):
    """Multi-head attention from the rows of xq over the rows of xkv, no
    residual, forward and backward written with sequence-major (..., T, H, dk)
    einsums.

    xq is (..., Tq, E) and xkv (..., Tk, E); `g_out` is the (..., Tq, E)
    output gradient. Dropout draws its keep mask from `rng` over the whole
    (..., H, Tq, Tk) weights at once. Returns (out, kept, grads) with
    grads = (g_xq, g_xkv, g_wq, g_wk, g_wv, g_wo).
    """
    e = xq.shape[-1]
    dk = e // heads
    scale = 1.0 / np.sqrt(dk)

    def split(x):
        return x.reshape(*x.shape[:-1], heads, dk)

    q, k, v = split(xq @ wq), split(xkv @ wk), split(xkv @ wv)
    scores = np.einsum("...qhd,...khd->...hqk", q, k) * scale
    if causal:
        t = scores.shape[-1]
        scores = np.where(np.triu(np.ones((t, t), dtype=bool), k=1), -np.inf, scores)
    exp = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = exp / exp.sum(axis=-1, keepdims=True)
    kept = None
    weights = probs
    if dropout_p > 0.0:
        kept = (rng.random(probs.shape) >= dropout_p) / (1.0 - dropout_p)
        weights = probs * kept
    per_head = np.einsum("...hqk,...khd->...qhd", weights, v)
    concat = per_head.reshape(*per_head.shape[:-2], e)
    out = concat @ wo

    g_wo = fold_rows(concat).T @ fold_rows(g_out)
    g_per_head = split(g_out @ wo.T)
    g_weights = np.einsum("...qhd,...khd->...hqk", g_per_head, v)
    g_v = np.einsum("...hqk,...qhd->...khd", weights, g_per_head)
    g_probs = g_weights if kept is None else g_weights * kept
    inner = (g_probs * probs).sum(axis=-1, keepdims=True)
    g_scores = probs * (g_probs - inner)
    g_q = np.einsum("...hqk,...khd->...qhd", g_scores, k) * scale
    g_k = np.einsum("...hqk,...qhd->...khd", g_scores, q) * scale
    g_q, g_k, g_v = (g.reshape(*g.shape[:-2], e) for g in (g_q, g_k, g_v))
    grads = (
        g_q @ wq.T,
        g_k @ wk.T + g_v @ wv.T,
        fold_rows(xq).T @ fold_rows(g_q),
        fold_rows(xkv).T @ fold_rows(g_k),
        fold_rows(xkv).T @ fold_rows(g_v),
        g_wo,
    )
    return out, kept, grads


def attention_pool(
    params: dict[str, np.ndarray], heads: int, hidden: np.ndarray, g_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Learned-query pooling as cross-attention through `einsum_attention`.

    The `cls` vector is the one query row of every sample. Returns the
    (..., E) pooled rows, the gradient for `hidden` given `g_out`, and the
    `cls`/`pool.*` gradients summed over the leading axes.
    """
    weights = [params[f"pool.{w}"] for w in ("wq", "wk", "wv", "wo")]
    cls = np.broadcast_to(params["cls"], (*hidden.shape[:-2], 1, hidden.shape[-1]))
    out, _, (g_cls, g_hidden, g_wq, g_wk, g_wv, g_wo) = einsum_attention(
        cls, hidden, *weights, g_out[..., None, :], heads)
    grads = {"cls": fold_rows(g_cls).sum(axis=0), "pool.wq": g_wq, "pool.wk": g_wk,
             "pool.wv": g_wv, "pool.wo": g_wo}
    return out[..., 0, :], g_hidden, grads


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


def grad_check(
    f: Callable[[np.ndarray], float],
    analytic_grad: np.ndarray,
    point: np.ndarray,
    eps: float = 1e-5,
) -> float:
    """Max relative error between `analytic_grad` and central finite differences.

    The relative error at coordinate i is |g_i - fd_i| / max(1, |g_i|, |fd_i|),
    so tiny gradients are judged on an absolute scale instead of blowing up.
    """
    point = np.asarray(point, dtype=np.float64)
    analytic_grad = np.asarray(analytic_grad, dtype=np.float64)
    if analytic_grad.shape != point.shape:
        raise ValueError(
            f"gradient shape {analytic_grad.shape} does not match point shape {point.shape}"
        )
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not np.isfinite(f(point)):
        raise ValueError("f(point) is not finite")
    worst = 0.0
    flat = point.ravel()
    grad_flat = analytic_grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f(point)
        flat[i] = orig - eps
        f_minus = f(point)
        flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"f is not finite near coordinate {i}")
        fd = (f_plus - f_minus) / (2.0 * eps)
        err = abs(grad_flat[i] - fd) / max(1.0, abs(grad_flat[i]), abs(fd))
        if err > worst:
            worst = err
    return worst


def argsort_ranks(x: np.ndarray) -> np.ndarray:
    """1-based average ranks along the last axis from one argsort per row."""
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    m = rows.shape[0]
    # Flat positions: row r, sorted slot j holds element dest[r * n + j].
    dest = (np.argsort(rows, axis=1) + np.arange(0, m * n, n)[:, None]).ravel()
    s = rows.ravel().take(dest).reshape(m, n)
    starts = np.ones((m, n), dtype=bool)
    starts[:, 1:] = s[:, 1:] != s[:, :-1]
    first = np.flatnonzero(starts)
    length = np.diff(first, append=m * n)
    out = np.empty(m * n)
    out[dest] = np.repeat(first % n + (length - 1) * 0.5 + 1.0, length)
    return out.reshape(x.shape)


def rank_corr_rows(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Row-wise Pearson correlation of two (rows, n) matrices of ranks."""
    ra = ra - ra.mean(axis=1, keepdims=True)
    rb = rb - rb.mean(axis=1, keepdims=True)
    denom = np.sqrt(np.einsum("ij,ij->i", ra, ra)) * np.sqrt(np.einsum("ij,ij->i", rb, rb))
    return np.clip(np.einsum("ij,ij->i", ra, rb) / denom, -1.0, 1.0)


def _off_diagonal(tile: np.ndarray, start: int) -> np.ndarray:
    """Rows start.. of an (n, n) matrix, each without its own diagonal entry."""
    rows, n = tile.shape
    keep = np.ones((rows, n), dtype=bool)
    keep[np.arange(rows), start + np.arange(rows)] = False
    return tile[keep].reshape(rows, n - 1)


def consistency(uv: np.ndarray, ut: np.ndarray, pairs: list[tuple[str, str]]) -> list[AcResult]:
    """`spaceval._consistency` on the same unit rows and profile pairs. Each
    profile is one full product over a transposed contiguous copy, so no row
    of it is a one-row (gemv) product; it is ranked in blocks of rows."""
    n = uv.shape[0]
    sides = {"v": uv, "t": ut}
    names = sorted({name for pair in pairs for name in pair})
    columns = {side: np.ascontiguousarray(u.T) for side, u in sides.items()}
    products = {name: sides[name[0]] @ columns[name[1]] for name in names}
    totals = [0.0] * len(pairs)
    used = [0] * len(pairs)
    for start in range(0, n, TILE_ROWS):
        ranks, flat = {}, {}
        for name in names:
            profile = _off_diagonal(products[name][start : start + TILE_ROWS], start)
            flat[name] = np.ptp(profile, axis=1) == 0.0
            ranks[name] = argsort_ranks(profile)
        for k, (a, b) in enumerate(pairs):
            ok = ~(flat[a] | flat[b])
            for value in rank_corr_rows(ranks[a][ok], ranks[b][ok]).tolist():
                totals[k] += value
            used[k] += int(np.count_nonzero(ok))
    if min(used) == 0:
        raise ValueError("every query had a constant similarity profile")
    return [AcResult(value=t / u, used=u, skipped=n - u) for t, u in zip(totals, used)]


def gold_ranks(values: np.ndarray, target_ids: np.ndarray, gold_pos: np.ndarray) -> np.ndarray:
    """1-based rank of each row's gold column: 1 plus the targets of another
    id that are strictly more similar, or equally similar with a smaller id."""
    g = values[np.arange(values.shape[0]), gold_pos][:, None]
    gold_tid = target_ids[gold_pos][:, None]
    ahead = ((values > g) & (target_ids != gold_tid)) | ((values == g) & (target_ids < gold_tid))
    return 1 + np.count_nonzero(ahead, axis=1)


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1)[:, None]


def _recall_and_mrr(ranks: np.ndarray) -> tuple[dict[int, float], float]:
    return {k: float(np.mean(ranks <= k)) for k in spaceval.RECALL_KS}, float(np.mean(1.0 / ranks))


def roundtrip(zv: np.ndarray, bank: np.ndarray, gold_ids: np.ndarray) -> RoundTripReport:
    """`spaceval.roundtrip_retrieval`, each caption group ranked in full."""
    decoded = spaceval.nearest_decode_many(zv, bank)
    uv = _unit(zv)
    items = np.arange(zv.shape[0])
    groups, drift = {}, {}
    for name, ids in (("gold", gold_ids), ("decoded", decoded)):
        captions = bank[ids]
        uc = _unit(captions)
        ranks = gold_ranks(np.clip(uc @ uv.T, -1.0, 1.0), items, items)
        recall, mrr = _recall_and_mrr(ranks)
        drift[f"cos_{name}"] = np.sum(uv * uc, axis=1)
        drift[f"dist_{name}"] = np.linalg.norm(zv - captions, axis=1)
        groups[name] = GroupStats(
            recall_at=recall,
            mrr=mrr,
            mean_cosine=float(np.mean(drift[f"cos_{name}"])),
            mean_distance=float(np.mean(drift[f"dist_{name}"])),
        )
    drift = {key: drift[key] for key in ("cos_gold", "cos_decoded", "dist_gold", "dist_decoded")}
    return RoundTripReport(n=zv.shape[0], decode_accuracy=float(np.mean(decoded == gold_ids)),
                           groups=groups, decoded_ids=decoded, drift=drift)


def eval_report(zv: np.ndarray, zt: np.ndarray, bank: np.ndarray, gold_ids: np.ndarray,
                config: dict) -> dict:
    """The numbers of `eval`'s report.json: retrieval from `gold_ranks`,
    consistency from `consistency`, the round trip from `roundtrip`."""
    sims = np.clip(_unit(zv) @ _unit(bank).T, -1.0, 1.0)
    recall, mrr = _recall_and_mrr(gold_ranks(sims, np.arange(bank.shape[0]), gold_ids))
    ac, ac_reverse, ac_intra = (r.value for r in consistency(
        _unit(zv), _unit(zt), [("vt", "tt"), ("tv", "vv"), ("vv", "tt")]))
    sv, st = spaceval.space_stats(zv), spaceval.space_stats(zt)
    space = spaceval.SpaceReport(
        n=zv.shape[0], recall_at=recall, mrr=mrr, ac=ac, ac_reverse=ac_reverse,
        ac_intra=ac_intra, v_trace=sv.trace, t_trace=st.trace, v_logdet=sv.logdet,
        t_logdet=st.logdet, v_norm_mean=sv.mean_norm, t_norm_mean=st.mean_norm, config=config,
    )
    return {
        "space": spaceval.space_report_to_dict(space),
        "roundtrip": spaceval.roundtrip_report_to_dict(roundtrip(zv, bank, gold_ids)),
    }
