"""Benchmark of the conceptspace toolkit: one workload per run.

    python3 bench/run.py --workload align|lcm|eval --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all     # every workload, one process each

Run from the root of a source checkout; the toolkit is imported from ./src.
The run generates its inputs from the seed (set-up, timed, and repeated between
calls every half second or so), runs closed-loop cycles of CLI calls for about
S seconds, checks the outputs, and prints as its last stdout line one JSON
object: correct, attempted, failed, metrics. With --trace 0 the metrics are
end to end; with --trace 1 untraced and traced cycles alternate and the
metrics are per layer. The full record, provenance and per-op times included,
goes to .bench_work/<workload>/.
Exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import os

# The toolkit is single-core by design; pin BLAS before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# End-to-end metric -> (name in the docs, scale, unit) per workload.
ALIASES = {
    "align": {"work_per_s": ("align_samples_per_s", 1.0, "1/s"),
              "call_ms_p50": ("align_ms_p50", 1.0, "ms")},
    "lcm": {"work_per_s": ("lcm_steps_per_s", 1.0, "1/s"),
            "call_ms_p50": ("sample_ms_p50", 1.0, "ms")},
    "eval": {"work_per_s": ("eval_items_per_s", 1.0, "1/s"),
             "call_ms_p50": ("eval_s", 1e-3, "s")},
}
# Least time between two set-ups that run between calls, in seconds.
SETUP_EVERY_S = 0.5
E2E_UNITS = {"setup_s": "s", "work_per_s": "1/s", "call_ms_p50": "ms", "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    metrics: dict[str, float]
    errors: list[str]
    ops: list = field(default_factory=list)  # workloads.Op, in call order
    setup_s: list[float] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        failed_ops = sum(not op.ok for op in self.ops)
        return max(failed_ops, 1) if self.errors else 0


def provenance(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
    }


def _git_sha() -> str | None:
    """HEAD of the checkout; None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _is_traced(cycle: int) -> bool:
    # Untraced and traced cycles run as ABBA..., so a drift in machine speed
    # over the run cancels out of the tracing overhead.
    return cycle % 4 in (1, 2)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 sizes=None) -> Outcome:
    """Set up, run for about `seconds` (at least two cycles) and check one workload."""
    from conceptspace import cli

    import workloads
    from layertrace import OVERHEAD_METRIC, Tracer

    cls = workloads.WORKLOADS[name]
    wl = cls(seed) if sizes is None else cls(seed, sizes)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    inputs = work / "inputs"
    client = workloads.Client(cli)
    setup_s: list[float] = []
    digests: list[dict[str, str]] = []
    last_setup = 0.0

    def set_up(dest: Path) -> None:
        nonlocal last_setup
        shutil.rmtree(dest, ignore_errors=True)
        t0 = time.perf_counter()
        wl.setup(cli, dest)
        last_setup = time.perf_counter()
        setup_s.append(last_setup - t0)
        digests.append(workloads.tree_digest(dest))

    def set_up_again() -> None:
        # The machine's speed drifts in phases of seconds, so set-ups spread
        # over the whole run give a steadier median than a burst. They write
        # to a directory of their own; the cycles keep reading `inputs`.
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            set_up(work / "setup-again")

    set_up(inputs)
    if not trace:  # set-up work must not show up in the spans
        client.after_op = set_up_again

    tracer = Tracer() if trace else None
    cycle_s: dict[bool, list[float]] = {False: [], True: []}
    start = time.perf_counter()
    cycle = 0
    while True:
        traced = trace and _is_traced(cycle)
        first_op, cycle_start = len(client.ops), time.perf_counter()
        if traced:
            tracer.op = cycle
            tracer.install()
            with tracer.span("bench.cycle"):
                wl.cycle(client, inputs, work)
            tracer.settle(cycle)
            tracer.uninstall()
        else:
            wl.cycle(client, inputs, work)
        cycle_s[traced].append(sum(op.seconds for op in client.ops[first_op:]))
        cycle += 1
        # At least two cycles, so every check that compares cycles runs; then
        # start another only if one as long as the last still fits.
        now = time.perf_counter()
        if cycle >= 2 and now - start + (now - cycle_start) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    set_up(work / "setup-again")
    wl.finish(client, inputs, work)
    if any(d != digests[0] for d in digests):
        client.run_errors.append(f"{name}: the same seed generated different inputs")

    outcome = Outcome({}, client.errors, client.ops, setup_s)
    if trace:
        tracer.write(work / "spans.tsv")
        outcome.missing = tracer.missing
        outcome.metrics = tracer.layer_metrics([c for c in range(cycle) if _is_traced(c)])
        outcome.metrics[OVERHEAD_METRIC] = (
            statistics.median(cycle_s[True]) / statistics.median(cycle_s[False]) - 1.0)
    elif not client.errors:
        outcome.metrics = {"setup_s": statistics.median(setup_s), **wl.metrics(client),
                           "peak_rss_mb": peak_rss_mb}
    return outcome


def _units(trace: bool) -> dict[str, str]:
    if not trace:
        return E2E_UNITS
    from layertrace import metric_specs

    return {name: unit for name, unit, _ in metric_specs()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*ALIASES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "conceptspace" / "cli.py").is_file():
        print(f"error: no toolkit source at {SRC / 'conceptspace'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))

    name, trace = args.workload, bool(args.trace)
    prov = provenance(name, args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True))
    outcome = run_workload(name, args.seed, args.seconds, trace, WORK / name)
    for e in outcome.errors:
        print(f"check failed: {e}", file=sys.stderr)
    if outcome.missing:
        print(f"layer functions missing, their metrics left out: {', '.join(outcome.missing)}",
              file=sys.stderr)

    units = _units(trace)
    for kind in dict.fromkeys(op.kind for op in outcome.ops):
        ms = [op.seconds * 1e3 for op in outcome.ops if op.kind == kind]
        line = f"{name} {kind} calls = {len(ms)}, p50 {statistics.median(ms):.6g} ms"
        if len(ms) >= 200:  # a p95 with at least ten calls beyond it
            line += f", p95 {statistics.quantiles(ms, n=20)[-1]:.6g} ms"
        print(line)
    for key, value in outcome.metrics.items():
        alias, scale, unit = ALIASES[name].get(key, (key, 1.0, units[key]))
        print(f"{name} {alias} = {value * scale:.6g} {unit}")
    result = {
        "correct": not outcome.errors,
        "attempted": len(outcome.ops),
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in outcome.metrics.items()},
    }
    record = {**result, "provenance": prov, "seconds": args.seconds, "trace": trace,
              "setup_s": outcome.setup_s, "errors": outcome.errors,
              "ops": [[op.kind, op.seconds, op.ok] for op in outcome.ops]}
    (WORK / name / f"result-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    status = 0
    for name in ALIASES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        print("\n".join(line for line in proc.stdout.splitlines()[:-1]
                        if not line.startswith("provenance")))
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
