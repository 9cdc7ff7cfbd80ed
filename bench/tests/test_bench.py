"""Tests of the benchmark itself: tracing arithmetic, the eval oracle, the
wrapper rebinding, seeded inputs and a tiny run of every workload.

    python3 -m pytest -q bench/tests
"""

import shutil

import numpy as np
import pytest

import layertrace
import oracle
import run
import workloads
from conceptspace import cli, spaceval
from conceptspace.spaceval import similarity_matrix

TINY = {
    "align": workloads.AlignSizes(n=64, epochs=2, batch=16, freeze_steps=2, warmup_steps=2),
    "lcm": workloads.LcmSizes(sequences=40, steps=20, resume_step=10, every=10, samples=4,
                              prefixes=2, ctx_width=16, den_width=32, levels=6, accuracy_floor=0.0),
    "eval": workloads.EvalSizes(n=60, bank=16, train_n=40),
}


def test_self_time_subtracts_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.x", 2.0, 3.0, 1, 0],
        ["b", 3.5, 6.0, 0, 0],  # overlaps a: the union [1, 6] is covered once
        ["c", 8.0, 9.0, 0, 0],
    ]
    assert layertrace.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 1.0])


def test_layer_metrics_are_medians_over_ops():
    tracer = layertrace.Tracer()
    for op, dur in enumerate([1.0, 3.0, 2.0]):
        tracer.spans += [["bench.cycle", 0.0, 10.0, -1, op],
                         ["projector.project", 1.0, 1.0 + dur, len(tracer.spans), op]]
    metrics = tracer.layer_metrics([0, 1, 2])
    assert metrics["projector.project.calls"] == 1
    assert metrics["projector.project.self_ms"] == pytest.approx(2000.0)
    assert metrics["attention.attention_forward.calls"] == 0


def test_oracle_breaks_ties_by_ascending_id():
    targets = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    queries = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    order = oracle.sorted_ids(queries, targets)
    assert order[0].tolist() == [0, 1, 3, 2]
    got = oracle.retrieval(queries, targets, np.array([0, 1, 2]))
    # ranks 1, 2 (tied with id 0), 1
    assert got["recall_at"]["1"] == pytest.approx(2 / 3)
    assert got["mrr"] == pytest.approx((1 + 0.5 + 1) / 3)


def test_oracle_matches_spaceval_on_tie_heavy_data():
    rng = np.random.default_rng(3)
    targets = rng.integers(-1, 2, size=(40, 3)).astype(float) + 0.0
    targets[np.all(targets == 0, axis=1)] = 1.0
    queries = rng.integers(-1, 2, size=(30, 3)).astype(float)
    queries[np.all(queries == 0, axis=1)] = 1.0
    gold = rng.integers(0, 40, size=30)
    want = spaceval.retrieval_metrics(similarity_matrix(queries, targets),
                                      {i: int(g) for i, g in enumerate(gold)})
    got = oracle.retrieval(queries, targets, gold)
    assert got["mrr"] == want.mrr
    assert got["recall_at"] == {str(k): v for k, v in want.recall_at.items()}


def test_mismatches_reports_missing_and_off_values():
    assert oracle.mismatches({"a": {"b": 1.0}}, {"a": {"b": 1.0 + 1e-13}}) == []
    assert len(oracle.mismatches({"a": {"b": 1.0, "c": 2.0}}, {"a": {"b": 1.1}})) == 2


def test_wrappers_rebind_every_importing_module():
    import conceptspace.attention as attention
    import conceptspace.latentdiff as latentdiff
    import conceptspace.projector as projector
    from conceptspace.corpus import PairedDataset
    from conceptspace.numerics import stream_rng
    from conceptspace.optim import AdamW

    original = attention.attention_forward
    original_step = AdamW.__dict__["step"]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert projector.attention_forward is not original
        assert latentdiff.attention_forward is projector.attention_forward
        assert isinstance(PairedDataset.__dict__["load"], classmethod)
        assert AdamW.step is not original_step
        pcfg = projector.ProjectorConfig(frame_dim=8, concept_dim=4, heads=2)
        params = projector.init_projector(pcfg, stream_rng(0, 1))
        projector.project(params, pcfg, np.ones((3, 8)))
        mcfg = latentdiff.LcmModelConfig(concept_dim=4, ctx_width=8, ctx_heads=2, ctx_layers=1,
                                         den_width=8, den_depth=1, lambda_emb_dim=4)
        lparams = latentdiff.init_two_tower(mcfg, stream_rng(0, 2))
        latentdiff.contextualize(lparams, mcfg, np.ones((2, 4)))
        AdamW().step({"w": np.ones(2)}, {"w": np.ones(2)}, 0.1)
    finally:
        tracer.uninstall()
    assert attention.attention_forward is original and projector.attention_forward is original
    assert latentdiff.attention_forward is original
    assert AdamW.__dict__["step"] is original_step
    parents = {tracer.spans[s[layertrace.PARENT]][0] for s in tracer.spans
               if s[0] == "attention.attention_forward"}
    assert parents == {"projector.project", "latentdiff.contextualize"}
    assert any(s[0] == "optim.AdamW.step" for s in tracer.spans)
    assert tracer.missing == []


def test_missing_layer_function_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(layertrace, "LAYERS", layertrace.LAYERS + [("projector.gone", ("calls",), None)])
    tracer = layertrace.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["projector.gone"]
    assert "projector.gone.calls" not in tracer.layer_metrics([0])


@pytest.mark.parametrize("name", sorted(TINY))
def test_seed_sets_the_inputs(name, tmp_path):
    def digest(seed):
        shutil.rmtree(tmp_path / "inputs", ignore_errors=True)
        workloads.WORKLOADS[name](seed, TINY[name]).setup(cli, tmp_path / "inputs")
        return workloads.tree_digest(tmp_path / "inputs")

    first = digest(1)
    assert digest(1) == first
    assert digest(2) != first


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_is_correct(name, tmp_path):
    outcome = run.run_workload(name, 4, 0.0, False, tmp_path / name, TINY[name])
    assert outcome.errors == [] and outcome.failed == 0 and outcome.ops
    assert set(outcome.metrics) == set(run.E2E_UNITS)
    assert all(v > 0 for v in outcome.metrics.values())


def test_traced_run_counts_repeat(tmp_path):
    counts = []
    for k in range(2):
        outcome = run.run_workload("lcm", 4, 0.0, True, tmp_path / f"lcm{k}", TINY["lcm"])
        assert outcome.errors == []
        assert set(outcome.metrics) == {name for name, _, _ in layertrace.metric_specs()}
        counts.append({k: v for k, v in outcome.metrics.items() if k.endswith((".calls", ".bytes"))})
    assert counts[0] == counts[1]
    assert counts[0]["latentdiff.denoise.calls"] > 0
    assert counts[0]["checkpoints.save_lcm_train_state.bytes"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_spans_come_only_from_cli_calls(name, tmp_path):
    # Harness checks must not add layer spans: every span directly under a
    # cycle is a CLI function, so all layer calls are the program's own.
    run.run_workload(name, 4, 0.0, True, tmp_path / name, TINY[name])
    rows = [line.split("\t") for line in (tmp_path / name / "spans.tsv").read_text().splitlines()[1:]]
    cycles = {str(i) for i, row in enumerate(rows) if row[0] == "bench.cycle"}
    under_cycle = {row[0] for row in rows if row[3] in cycles}
    assert under_cycle and all(n.startswith("cli.") for n in under_cycle), under_cycle


def test_broken_output_fails_the_op(tmp_path, monkeypatch):
    real = spaceval.roundtrip_report_to_dict

    def skewed(report):
        doc = real(report)
        doc["decode_accuracy"] += 1e-9
        return doc

    monkeypatch.setattr(cli.spaceval, "roundtrip_report_to_dict", skewed)
    outcome = run.run_workload("eval", 4, 0.0, False, tmp_path / "eval", TINY["eval"])
    assert outcome.failed == 1
    assert any("decode_accuracy" in e for e in outcome.errors)
