"""Acceptance checks for the assembled pipeline, one test per criterion.

Each test prints a single "CRITERION nn PASS/FAIL" line before asserting, so
a full run with -s shows the scoreboard and a red criterion shows its detail.
Thresholds are fixed on purpose; the point of this module is lost the moment
one is loosened to make a run green.

The expensive end-to-end pieces (curriculum training, ablations, the
next-embedding model) run at desk scale: small synthetic worlds where the
correct behaviour is known exactly, trained to saturation so directional
comparisons do not hinge on optimizer luck.
"""

import hashlib
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from conceptspace import checkpoints, cli
from conceptspace.aligner import (
    AlignConfig,
    combined_loss,
    infonce_loss,
    mse_align_loss,
    run_curriculum,
)
from conceptspace.corpus import (
    CurriculumStage,
    EmbeddingSequence,
    gen_rule_sequences,
    gen_synthetic_pairs,
    make_caption_bank,
    make_world,
    read_embeddings,
    write_embeddings,
)
from conceptspace.latentdiff import (
    LcmModelConfig,
    LcmTrainConfig,
    build_schedule,
    diffusion_loss,
    forward_diffuse,
    init_two_tower,
    items_from_sequences,
    sample_next,
    train_lcm,
)
from conceptspace.numerics import spearman_rank_corr, stream_rng
from conceptspace.projector import (
    ProjectorConfig,
    init_projector,
    project,
    project_backward,
)
from conceptspace.spaceval import (
    SimilarityMatrix,
    alignment_consistency,
    nearest_decode,
    retrieval_metrics,
    roundtrip_retrieval,
    similarity_matrix,
    space_stats,
)
from oracles import cosine_similarity, flatten_tensors, grad_check, unflatten_tensors


def _criterion(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# 1. Gradient correctness across the three differentiable families.


def _projector_grad_err(seed: int) -> float:
    cfg = ProjectorConfig(frame_dim=6, concept_dim=4, heads=2, dropout_p=0.0,
                          pooling="attention", init_sigma=0.3)
    rng = stream_rng(seed, 1)
    params = init_projector(cfg, rng)
    frames = rng.standard_normal((3, 6))
    w = rng.standard_normal(4)
    order = sorted(params)
    shapes = {k: params[k].shape for k in order}

    def f(vec):
        p = unflatten_tensors(vec, shapes, order)
        return float(project(p, cfg, frames)[0] @ w)

    _, trace = project(params, cfg, frames)
    grads = project_backward(trace, w)
    point = flatten_tensors(params, order)
    return grad_check(f, flatten_tensors(grads, order), point, eps=1e-5)


def _aligner_grad_err(seed: int) -> float:
    rng = stream_rng(seed, 2)
    zv = rng.standard_normal((8, 5))
    zt = rng.standard_normal((8, 5))
    cfg = AlignConfig(lambda_con=0.5, tau=0.2)
    losses = (
        lambda z: mse_align_loss(z, zt),
        lambda z: infonce_loss(z, zt, 0.2),
        lambda z: combined_loss(z, zt, cfg),
    )
    worst = 0.0
    for loss_fn in losses:
        _, grad = loss_fn(zv)
        err = grad_check(lambda v, fn=loss_fn: fn(v.reshape(zv.shape))[0],
                         grad.ravel(), zv.ravel(), eps=1e-5)
        worst = max(worst, err)
    return worst


def _latentdiff_grad_err(seed: int) -> float:
    cfg = LcmModelConfig(concept_dim=4, ctx_width=8, ctx_layers=1, ctx_heads=2,
                         ffn_mult=2, den_width=10, den_depth=2, lambda_emb_dim=4)
    params = init_two_tower(cfg, stream_rng(seed, 3))
    items = items_from_sequences(
        [EmbeddingSequence(stream_rng(seed, 4).standard_normal((3, 4)))]
    )
    sched = build_schedule(6)
    order = sorted(params)
    shapes = {k: params[k].shape for k in order}

    # fresh keyed generator per call -> identical level/noise/dropout draws
    def run(p):
        return diffusion_loss(p, cfg, items, sched, 0.5, stream_rng(seed, 5))

    _, grads, _ = run(params)
    point = flatten_tensors(params, order)

    def f(vec):
        return run(unflatten_tensors(vec, shapes, order))[0]

    return grad_check(f, flatten_tensors(grads, order), point, eps=1e-5)


def test_criterion_01_gradient_correctness():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(5):
        worst = max(worst, _projector_grad_err(seed))
        worst = max(worst, _aligner_grad_err(seed))
        worst = max(worst, _latentdiff_grad_err(seed))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    _criterion(1, ok, f"worst relative error {worst:.3e} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Variance preservation of every noise schedule.


def test_criterion_02_variance_preservation():
    worst_vp = 0.0
    monotone = True
    for steps, lam in [(40, (10.0, -10.0)), (50, (10.0, -10.0)),
                       (12, (6.0, -4.0)), (100, (8.0, -8.0))]:
        sched = build_schedule(steps, *lam)
        worst_vp = max(worst_vp, float(np.max(np.abs(
            sched.alpha ** 2 + sched.sigma ** 2 - 1.0))))
        monotone = monotone and bool(np.all(np.diff(sched.log_snr) < 0))
    sched = build_schedule(50)
    rng = stream_rng(88, 1)
    x0 = rng.standard_normal((100000, 8))
    eps = rng.standard_normal((100000, 8))
    worst_mc = 0.0
    for t in (0, 12, 25, 49):
        xt = forward_diffuse(x0, t, eps, sched)
        ratio = float(np.mean(np.sum(xt ** 2, axis=1))) / 8.0
        worst_mc = max(worst_mc, abs(ratio - 1.0))
    ok = worst_vp < 1e-12 and monotone and worst_mc < 0.02
    _criterion(2, ok, f"vp error {worst_vp:.2e}, monotone {monotone}, "
                      f"mc deviation {worst_mc:.4f}")


# ---------------------------------------------------------------------------
# 3. Metric functions against independent brute-force loops.


def _loop_cosines(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros((q.shape[0], t.shape[0]))
    for i in range(q.shape[0]):
        for j in range(t.shape[0]):
            out[i, j] = cosine_similarity(q[i], t[j])
    return np.clip(out, -1.0, 1.0)


def _loop_rank(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sv = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _loop_spearman(a: np.ndarray, b: np.ndarray) -> float:
    ra = _loop_rank(np.asarray(a, dtype=np.float64))
    rb = _loop_rank(np.asarray(b, dtype=np.float64))
    ra = ra - ra.mean()
    rb = rb - rb.mean()
    return float(np.dot(ra, rb) / np.sqrt(np.dot(ra, ra) * np.dot(rb, rb)))


def _loop_retrieval(values, t_ids, gold_positions):
    # rank by explicit sort on (similarity desc, target id asc)
    ranks = []
    for i in range(values.shape[0]):
        order = sorted(range(len(t_ids)), key=lambda j: (-values[i][j], t_ids[j]))
        ranks.append(order.index(gold_positions[i]) + 1)
    ranks = np.asarray(ranks, dtype=np.float64)
    recall = {k: float(np.mean(ranks <= k)) for k in (1, 5, 10)}
    return recall, float(np.mean(1.0 / ranks))


def _loop_ac(zv, zt, mode):
    uv = zv / np.linalg.norm(zv, axis=1, keepdims=True)
    ut = zt / np.linalg.norm(zt, axis=1, keepdims=True)
    n = zv.shape[0]
    vals = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        left = uv if mode == "intra" else ut
        a = np.array([float(np.dot(uv[i], left[j])) for j in others])
        b = np.array([float(np.dot(ut[i], ut[j])) for j in others])
        if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
            continue
        vals.append(_loop_spearman(a, b))
    return float(np.mean(vals))


def _loop_nearest(query, bank):
    best, best_s = 0, -np.inf
    for j in range(bank.shape[0]):
        s = cosine_similarity(query, bank[j])
        if s > best_s:
            best, best_s = j, s
    return best


def test_criterion_03_metric_oracles():
    rng = stream_rng(99, 1)
    worst = 0.0
    for case in range(100):
        n_q = int(rng.integers(3, 41)) if case % 20 else 200
        n_t = int(rng.integers(3, 41)) if case % 20 else 200
        dim = int(rng.integers(2, 7))
        q = rng.standard_normal((n_q, dim))
        t = rng.standard_normal((n_t, dim))

        sim = similarity_matrix(q, t)
        worst = max(worst, float(np.max(np.abs(sim.values - _loop_cosines(q, t)))))

        # quantized values force exact ties; both sides read the same array
        values = np.round(rng.standard_normal((n_q, n_t)), 1)
        t_ids = [int(i) for i in rng.permutation(1000)[:n_t]]
        gold_pos = [int(rng.integers(0, n_t)) for _ in range(n_q)]
        tied = SimilarityMatrix(values=values, query_ids=tuple(range(n_q)),
                                target_ids=tuple(t_ids))
        gold = {i: t_ids[gold_pos[i]] for i in range(n_q)}
        metrics = retrieval_metrics(tied, gold)
        recall, mrr = _loop_retrieval(values, t_ids, gold_pos)
        for k in (1, 5, 10):
            worst = max(worst, abs(metrics.recall_at[k] - recall[k]))
        worst = max(worst, abs(metrics.mrr - mrr))

        a = rng.standard_normal(int(rng.integers(3, 30)))
        b = np.round(rng.standard_normal(a.shape), 1)  # rounding makes ties likely
        worst = max(worst, abs(spearman_rank_corr(a, b) - _loop_spearman(a, b)))

        n_ac = int(rng.integers(4, 13))
        zv = rng.standard_normal((n_ac, 5))
        zt = rng.standard_normal((n_ac, 5))
        mode = "cross" if case % 2 else "intra"
        ac = alignment_consistency(zv, zt, mode=mode)
        worst = max(worst, abs(ac.value - _loop_ac(zv, zt, mode)))

        bank = rng.standard_normal((int(rng.integers(3, 50)), 4))
        bank[-1] = bank[0]  # duplicate row keeps the tie path honest
        query = rng.standard_normal(4)
        worst = max(worst, abs(nearest_decode(query, bank) - _loop_nearest(query, bank)))
        worst = max(worst, abs(nearest_decode(bank[0], bank) - _loop_nearest(bank[0], bank)))
    ok = worst <= 1e-12
    _criterion(3, ok, f"worst disagreement {worst:.2e} over 100 instances")


# ---------------------------------------------------------------------------
# 4/5 shared fixture: the full coarse-to-fine curriculum on a synthetic world.


_CURR_PROJ = ProjectorConfig(frame_dim=64, concept_dim=32, heads=4, dropout_p=0.1,
                             pooling="attention", init_sigma=0.05)
_CURR_ALIGN = AlignConfig(lr_projector=1e-2, lr_encoder_adapter=1e-3,
                          freeze_steps=100, warmup_steps=30, max_epochs=12,
                          patience=4, batch_size=32, seed=42)


def _curriculum_stages(train_sets):
    spec = [("broad", {}),
            ("mid", {"freeze_steps": 0, "lr_projector": 3e-3,
                     "lr_encoder_adapter": 3e-4}),
            ("fine", {"freeze_steps": 0, "lr_projector": 1e-3,
                      "lr_encoder_adapter": 1e-4})]
    return [CurriculumStage(name=name, dataset=ds, lr_overrides=ov)
            for (name, ov), ds in zip(spec, train_sets)]


def _heldout_eval(params, proj_cfg, world, held):
    zv = np.stack([project(params, proj_cfg, held.frames[i])[0]
                   for i in range(len(held))])
    sim = similarity_matrix(zv, world.caption_bank)
    gold = {i: int(held.caption_ids[i]) for i in range(len(held))}
    r1 = retrieval_metrics(sim, gold).recall_at[1]
    return r1, mse_align_loss(zv, held.targets)[0]


@pytest.fixture(scope="module")
def curriculum_run():
    world = make_world(seed=11, frame_dim=64, concept_dim=32, frames=8,
                       bank_size=256, noise_sigma=0.1)
    train_sets = [gen_synthetic_pairs(world, n, stream_rng(11, 101 + i))
                  for i, n in enumerate([1000, 600, 400])]
    held = gen_synthetic_pairs(world, 400, stream_rng(11, 201))
    t0 = time.monotonic()
    params, hists = run_curriculum(_curriculum_stages(train_sets),
                                   _CURR_PROJ, _CURR_ALIGN)
    elapsed = time.monotonic() - t0
    params_b, hists_b = run_curriculum(_curriculum_stages(train_sets),
                                       _CURR_PROJ, _CURR_ALIGN)
    return {"world": world, "train_sets": train_sets, "held": held,
            "params": params, "hists": hists, "elapsed": elapsed,
            "params_b": params_b, "hists_b": hists_b}


def test_criterion_04_curriculum_convergence(curriculum_run):
    c = curriculum_run
    r1, mse_trained = _heldout_eval(c["params"], _CURR_PROJ, c["world"], c["held"])
    init = init_projector(_CURR_PROJ, stream_rng(0, 999))
    _, mse_init = _heldout_eval(init, _CURR_PROJ, c["world"], c["held"])
    ratio = mse_trained / mse_init
    same_params = all(np.array_equal(c["params"][k], c["params_b"][k])
                      for k in c["params"])
    same_history = all(ha.epochs == hb.epochs and ha.steps == hb.steps
                       for ha, hb in zip(c["hists"], c["hists_b"]))
    ok = (r1 >= 0.90 and ratio <= 0.1 and c["elapsed"] < 300.0
          and same_params and same_history)
    _criterion(4, ok, f"held-out R@1 {r1:.4f}, mse ratio {ratio:.4f}, "
                      f"{c['elapsed']:.1f}s, deterministic "
                      f"{same_params and same_history}")


# ---------------------------------------------------------------------------
# 5. Architecture ablations keep their expected ordering.


def _ablation_r1(pooling, temporal, seed, world, train, held):
    pcfg = ProjectorConfig(frame_dim=32, concept_dim=16, heads=4, dropout_p=0.1,
                           pooling=pooling, init_sigma=0.05,
                           use_temporal_attention=temporal)
    acfg = AlignConfig(lr_projector=1e-2, lr_encoder_adapter=1e-3,
                       freeze_steps=50, warmup_steps=20, max_epochs=20,
                       patience=20, batch_size=32, seed=seed)
    params, _ = run_curriculum([CurriculumStage(name="only", dataset=train)],
                               pcfg, acfg)
    r1, _ = _heldout_eval(params, pcfg, world, held)
    return r1


def test_criterion_05_ablation_direction(curriculum_run):
    world = make_world(seed=23, frame_dim=32, concept_dim=16, frames=6,
                      bank_size=64, noise_sigma=0.15)
    train = gen_synthetic_pairs(world, 800, stream_rng(23, 1))
    held = gen_synthetic_pairs(world, 250, stream_rng(23, 2))
    seeds = (1, 2, 3)
    att = [_ablation_r1("attention", True, s, world, train, held) for s in seeds]
    mean = [_ablation_r1("mean", True, s, world, train, held) for s in seeds]
    none = [_ablation_r1("mean", False, s, world, train, held) for s in seeds]
    margin_a = sum(a >= m for a, m in zip(att, mean))
    margin_b = sum(m >= n for m, n in zip(mean, none))

    # dropping the first curriculum stage must not help the final stage
    c = curriculum_run
    _, abl_hists = run_curriculum(_curriculum_stages(c["train_sets"])[1:],
                                  _CURR_PROJ, _CURR_ALIGN)
    full_val = c["hists"][-1].best_val_mse
    abl_val = abl_hists[-1].best_val_mse
    stage_ok = full_val <= abl_val + 1e-12

    ok = margin_a >= 2 and margin_b >= 2 and stage_ok
    _criterion(5, ok, f"attention {att} vs mean {mean} vs no-temporal {none}; "
                      f"majorities {margin_a}/3, {margin_b}/3; "
                      f"final val {full_val:.4f} <= no-stage-1 {abl_val:.4f}")


# ---------------------------------------------------------------------------
# 6. The next-embedding model memorizes a single pair exactly enough.


def test_criterion_06_memorization_oracle():
    emb = stream_rng(7, 99).standard_normal((2, 16))
    seq = EmbeddingSequence(emb)
    mcfg = LcmModelConfig(concept_dim=16, ctx_width=64, ctx_heads=4, ctx_layers=2,
                          den_width=128, den_depth=2, lambda_emb_dim=32)
    tcfg = LcmTrainConfig(lr=1e-2, final_lr=1e-4, warmup_steps=50, max_steps=500,
                          batch_size=16, seed=3, val_every=100, ckpt_every=10000)
    sched = build_schedule(24)
    params, hist = train_lcm([seq], mcfg, tcfg, sched)
    z = sample_next(params, mcfg, emb[:1], sched, guidance_scale=0.0,
                    rng=stream_rng(3, 45))
    err = float(np.linalg.norm(z - emb[1]))
    worst_norm = max(r.grad_norm for r in hist.steps)

    # empirical condition-dropout rate over 10^4 items on a throwaway model
    tiny = LcmModelConfig(concept_dim=4, ctx_width=8, ctx_layers=1, ctx_heads=2,
                          ffn_mult=2, den_width=8, den_depth=1, lambda_emb_dim=4)
    tparams = init_two_tower(tiny, stream_rng(6, 1))
    item = items_from_sequences(
        [EmbeddingSequence(stream_rng(6, 2).standard_normal((2, 4)))]
    )[0]
    drop_rng = stream_rng(123, 7)
    sched6 = build_schedule(6)
    dropped = 0
    for _ in range(20):
        _, _, d = diffusion_loss(tparams, tiny, [item] * 500, sched6, 0.15, drop_rng)
        dropped += d
    rate = dropped / 10000.0

    ok = err < 1e-2 and worst_norm <= 25.0 + 1e-9 and 0.135 <= rate <= 0.165
    _criterion(6, ok, f"recovery error {err:.2e}, max grad norm {worst_norm:.2f}, "
                      f"dropout rate {rate:.4f}")


# ---------------------------------------------------------------------------
# 7. Rule-driven sequences are learned well above chance.


def test_criterion_07_rule_learning():
    bank = make_caption_bank(stream_rng(5, 11), 64, 16)
    train_seqs = gen_rule_sequences(bank, 5, 3, 400, 4, 8, stream_rng(5, 12))
    held_seqs = gen_rule_sequences(bank, 5, 3, 64, 4, 8, stream_rng(5, 13))
    mcfg = LcmModelConfig(concept_dim=16, ctx_width=64, ctx_heads=4, ctx_layers=2,
                          den_width=128, den_depth=2, lambda_emb_dim=32)
    tcfg = LcmTrainConfig(lr=2e-3, final_lr=1e-5, warmup_steps=100, max_steps=3000,
                          batch_size=16, seed=9, val_every=500, ckpt_every=10000)
    sched = build_schedule(24)
    t0 = time.monotonic()
    params, _ = train_lcm(train_seqs, mcfg, tcfg, sched)
    items = items_from_sequences(held_seqs)[:200]
    correct = 0
    for i, item in enumerate(items):
        z = sample_next(params, mcfg, item.prefix, sched, guidance_scale=0.0,
                        rng=stream_rng(17, i))
        if nearest_decode(z, bank) == nearest_decode(item.target, bank):
            correct += 1
    accuracy = correct / len(items)
    elapsed = time.monotonic() - t0
    ok = accuracy >= 0.40 and elapsed < 600.0
    _criterion(7, ok, f"held-out next-step accuracy {accuracy:.3f} "
                      f"({correct}/{len(items)}) in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. Round-trip retrieval: exact fixed point, monotone under noise.


def test_criterion_08_roundtrip_fixed_point():
    bank = make_caption_bank(stream_rng(31, 11), 256, 16)
    ids = stream_rng(31, 12).permutation(256)[:200]
    zt = bank[ids]
    noise = stream_rng(31, 2)
    r1 = {}
    for sigma in (0.0, 0.1, 0.5):
        zv = zt + sigma * noise.standard_normal(zt.shape)
        rep = roundtrip_retrieval(zv, bank, ids)
        r1[sigma] = (rep.groups["gold"].recall_at[1],
                     rep.groups["decoded"].recall_at[1],
                     rep.decode_accuracy)
    fixed = r1[0.0] == (1.0, 1.0, 1.0)
    decreasing = all(r1[0.0][g] > r1[0.1][g] > r1[0.5][g] for g in (0, 1))
    ok = fixed and decreasing
    _criterion(8, ok, f"sigma->(gold R@1, decoded R@1, acc) {r1}")


# ---------------------------------------------------------------------------
# 9. Spread statistics report the constructed 1:10 scale ratio.


def test_criterion_09_space_statistics():
    narrow = 0.2 * stream_rng(77, 1).standard_normal((4000, 8))
    wide = 2.0 * stream_rng(77, 2).standard_normal((4000, 8))
    s_narrow = space_stats(narrow)
    s_wide = space_stats(wide)
    ratio = s_wide.trace / s_narrow.trace
    ok = abs(ratio - 100.0) <= 5.0 and s_wide.logdet > s_narrow.logdet
    _criterion(9, ok, f"trace ratio {ratio:.2f}, logdet {s_wide.logdet:.2f} > "
                      f"{s_narrow.logdet:.2f}")


# ---------------------------------------------------------------------------
# 10. Formats round-trip and every pipeline entry point is reproducible.


def _hash_dir(path: Path) -> dict:
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file()}


def _cli_rerun_identical(argv, out_dir: Path) -> bool:
    assert cli.main(argv) == 0
    before = _hash_dir(out_dir)
    shutil.rmtree(out_dir)
    assert cli.main(argv) == 0
    return _hash_dir(out_dir) == before


def test_criterion_10_formats_and_determinism(tmp_path):
    # lossless float64 round trip
    x = stream_rng(1, 2).standard_normal((17, 9))
    write_embeddings(tmp_path / "x.bin", x, dtype_code=2)
    lossless = np.array_equal(read_embeddings(tmp_path / "x.bin"), x)

    gen_out = tmp_path / "data"
    gen_ok = _cli_rerun_identical(
        ["gen", "--seed", "5", "--n", "24", "--frames", "4", "--dim-frame", "12",
         "--dim-concept", "6", "--bank-size", "4096", "--out", str(gen_out)],
        gen_out)
    seq_out = tmp_path / "seqs"
    seq_ok = _cli_rerun_identical(
        ["gen-seq", "--seed", "2", "--n", "10", "--bank-size", "8",
         "--dim-concept", "6", "--min-len", "3", "--max-len", "5",
         "--rule-a", "3", "--rule-b", "1", "--out", str(seq_out)],
        seq_out)
    report = tmp_path / "report.json"
    argv = ["eval", "--oracle", "--data", str(gen_out), "--out", str(report)]
    assert cli.main(argv) == 0
    first = report.read_bytes()
    report.unlink()
    assert cli.main(argv) == 0
    eval_ok = report.read_bytes() == first

    # checkpoint resume replays the identical rest of the training history
    emb = stream_rng(41, 1).standard_normal((3, 6))
    seqs = [EmbeddingSequence(emb), EmbeddingSequence(emb[::-1].copy())]
    mcfg = LcmModelConfig(concept_dim=6, ctx_width=16, ctx_heads=2, ctx_layers=1,
                          den_width=16, den_depth=1, lambda_emb_dim=4)
    tcfg = LcmTrainConfig(lr=1e-3, warmup_steps=5, max_steps=40, batch_size=4,
                          seed=2, val_every=10, ckpt_every=20)
    sched = build_schedule(6)
    full_dir = tmp_path / "full"
    params_full, hist_full = train_lcm(seqs, mcfg, tcfg, sched, out_dir=full_dir)
    params_res, hist_res = train_lcm(
        seqs, mcfg, tcfg, sched,
        resume=full_dir / "checkpoints" / "step-000020")
    resume_ok = (hist_res.steps == hist_full.steps[20:]
                 and all(np.array_equal(params_res[k], params_full[k])
                         for k in params_full))

    ok = lossless and gen_ok and seq_ok and eval_ok and resume_ok
    _criterion(10, ok, f"lossless {lossless}, gen {gen_ok}, gen-seq {seq_ok}, "
                       f"eval {eval_ok}, resume {resume_ok}")
