"""The package names the benchmark harness imports and traces all exist.

`bench/tests` checks this too, but runs outside this suite; this test only
reads `bench/`.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_imports_and_traced_layers_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layertrace
    import workloads  # noqa: F401  (fails if a name it imports from the package is gone)

    tracer = layertrace.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
