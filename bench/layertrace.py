"""Span tracing of conceptspace layers from outside the package.

The tracer wraps public functions of each layer. For every wrapped function
object it rebinds each ``conceptspace.*`` module attribute that holds it, so a
name imported with ``from .x import y`` is traced too. Methods and
classmethods are wrapped on their class. Spans (name, start, end, parent, op)
stay in memory until the run ends; per-layer metrics are medians over ops.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


def _ctx_dropped(args, kwargs, result):
    batch = kwargs.get("batch", args[2] if len(args) > 2 else ())
    return {"dropped": result[2], "items": len(batch)}


def _ac_used(args, kwargs, result):
    return {"used": result.used, "profiles": result.used + result.skipped}


def _ckpt_dir(args, kwargs, result):
    return {"dirs": [Path(kwargs.get("out_dir", args[0] if args else ""))]}


# (wrapped name relative to the package, metric kinds, optional observer).
# An observer turns (args, kwargs, result) into per-op counters; each kind in
# RATIOS divides two of them.
LAYERS: list[tuple[str, tuple[str, ...], object]] = [
    ("attention.attention_forward", ("calls", "self_ms"), None),
    ("attention.attention_backward", ("calls", "self_ms"), None),
    ("projector.project", ("calls", "self_ms"), None),
    ("projector.project_backward", ("calls", "self_ms"), None),
    ("aligner.train_stage", ("self_ms",), None),
    ("aligner.validate", ("busy_ms",), None),
    ("aligner.combined_loss", ("self_ms",), None),
    ("optim.AdamW.step", ("calls", "self_ms"), None),
    ("optim.clip_global_norm", ("self_ms",), None),
    ("latentdiff.train_lcm", ("self_ms",), None),
    ("latentdiff.diffusion_loss", ("calls", "self_ms", "ctx_dropped_frac"), _ctx_dropped),
    ("latentdiff.contextualize", ("calls", "self_ms"), None),
    ("latentdiff.denoise", ("calls", "self_ms"), None),
    ("latentdiff.sample_next", ("self_ms",), None),
    ("checkpoints.save_lcm_train_state", ("calls", "busy_ms", "bytes"), _ckpt_dir),
    ("checkpoints.load_lcm_train_state", ("busy_ms",), None),
    ("checkpoints.load_lcm", ("busy_ms",), None),
    ("checkpoints.save_projector", ("busy_ms",), None),
    ("checkpoints.load_projector", ("busy_ms",), None),
    ("corpus.read_embeddings", ("calls", "self_ms"), None),
    ("corpus.write_embeddings", ("calls", "self_ms"), None),
    ("corpus.PairedDataset.load", ("busy_ms",), None),
    ("corpus.load_sequences", ("busy_ms",), None),
    ("spaceval.similarity_matrix", ("self_ms",), None),
    ("spaceval.retrieval_metrics", ("self_ms",), None),
    ("spaceval.alignment_consistency", ("self_ms", "used_frac"), _ac_used),
    ("spaceval.space_stats", ("self_ms",), None),
    ("spaceval.nearest_decode", ("calls", "self_ms"), None),
    ("spaceval.roundtrip_retrieval", ("self_ms",), None),
    ("spaceval.drift_export", ("self_ms",), None),
    ("numerics.spearman_rank_corr", ("calls", "self_ms"), None),
    ("cli.build_parser", ("self_ms",), None),
    ("cli.cmd_align", ("self_ms",), None),
    ("cli.cmd_train_lcm", ("self_ms",), None),
    ("cli.cmd_eval", ("self_ms",), None),
    ("cli.cmd_sample", ("self_ms",), None),
]

RATIOS = {"ctx_dropped_frac": ("dropped", "items"), "used_frac": ("used", "profiles")}
UNITS = {"calls": "count", "self_ms": "ms", "busy_ms": "ms", "bytes": "B",
         "ctx_dropped_frac": "ratio", "used_frac": "ratio"}
HIGHER_IS_BETTER = {"used_frac"}
OVERHEAD_METRIC = "trace.overhead_frac"
PACKAGE = "conceptspace"


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [
        (f"{name}.{kind}", UNITS[kind], "higher" if kind in HIGHER_IS_BETTER else "lower")
        for name, kinds, _ in LAYERS
        for kind in kinds
    ]
    specs.append((OVERHEAD_METRIC, "ratio", "lower"))
    return specs


# A span is a list [name, start, end, parent, op]; parent indexes the span
# list (-1 for a root) and op is the id of the op it belongs to.
NAME, START, END, PARENT, OP = range(5)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(i, ()), key=lambda j: spans[j][START]):
            a = max(spans[c][START], s[START])
            b = min(spans[c][END], s[END])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s[END] - s[START] - covered)
    return out


@dataclass
class Tracer:
    """Installs span-recording wrappers around the layer functions in LAYERS."""

    spans: list[list] = field(default_factory=list)
    counters: dict[tuple[int, str], object] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    op: int = -1
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self) -> None:
        if self._restore:
            return
        self.missing = []
        for name, _kinds, observe in LAYERS:
            if not self._wrap(name, observe):
                self.missing.append(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block, e.g. around a whole op."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def settle(self, op: int) -> None:
        """Turn the directories an op's checkpoint saves wrote into byte counts.

        Call before anything deletes them; sizes come from the files on disk.
        """
        for (key_op, key), dirs in list(self.counters.items()):
            if key_op == op and key.endswith(":dirs"):
                self.counters[(op, key[: -len("dirs")] + "bytes")] = sum(
                    f.stat().st_size for d in dirs for f in Path(d).rglob("*") if f.is_file()
                )

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _record(self, counters: dict) -> None:
        for key, value in counters.items():
            slot = (self.op, key)
            if isinstance(value, list):
                self.counters.setdefault(slot, []).extend(value)
            else:
                self.counters[slot] = self.counters.get(slot, 0) + value

    def _make_wrapper(self, name: str, fn, observe):
        tracer, spans, stack, clock = self, self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            # _open/_close inlined: this runs on every traced call.
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, tracer.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][END] = clock()
                stack.pop()
            if observe is not None:
                tracer._record({f"{name}:{k}": v for k, v in observe(args, kwargs, result).items()})
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap(self, name: str, observe) -> bool:
        module_name, *attrs = name.split(".")
        try:
            obj = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            return False
        owner = None
        for attr in attrs:
            owner, obj = obj, getattr(obj, attr, None)
            if obj is None:
                return False
        attr = attrs[-1]
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._make_wrapper(name, raw.__func__, observe))
            elif callable(raw):
                wrapped = self._make_wrapper(name, raw, observe)
            else:
                return False
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return True
        if not callable(obj):
            return False
        wrapper = self._make_wrapper(name, obj, observe)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is obj:
                    self._restore.append((module, key, value))
                    setattr(module, key, wrapper)
        return True

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for s in self.spans:
                fh.write("\t".join(map(str, s)) + "\n")

    def layer_metrics(self, ops: list[int]) -> dict[str, float]:
        """Median over `ops` of each per-op layer metric.

        Metrics of wrapped names that no longer exist are left out.
        """
        selfs = self_times(self.spans)
        per_op: dict[tuple[int, str], list[float]] = {}
        for s, self_s in zip(self.spans, selfs):
            slot = per_op.setdefault((s[OP], s[NAME]), [0, 0.0, 0.0])
            slot[0] += 1
            slot[1] += self_s
            slot[2] += s[END] - s[START]
        out: dict[str, float] = {}
        for name, kinds, _ in LAYERS:
            if name in self.missing:
                continue
            for kind in kinds:
                values = [self._op_value(per_op, op, name, kind) for op in ops]
                out[f"{name}.{kind}"] = statistics.median(values)
        return out

    def _op_value(self, per_op, op: int, name: str, kind: str) -> float:
        calls, self_s, busy_s = per_op.get((op, name), (0, 0.0, 0.0))
        if kind == "calls":
            return calls
        if kind == "self_ms":
            return self_s * 1e3
        if kind == "busy_ms":
            return busy_s * 1e3
        if kind == "bytes":
            return self.counters.get((op, f"{name}:bytes"), 0)
        num, den = RATIOS[kind]
        den_value = self.counters.get((op, f"{name}:{den}"), 0)
        return self.counters.get((op, f"{name}:{num}"), 0) / den_value if den_value else 0.0
