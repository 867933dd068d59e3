"""The benchmark's hooks into the program still resolve.

`perfbench/tracing.py` wraps the public functions of the layer modules and
reads per-layer metrics by name; a metric whose function is gone reads 0
without complaint, and a missing lru_cache on `zero_set` or
`cyclotomic_poly` ends every traced run in a KeyError.  This test loads the
tracer as the benchmark does and checks both, without running a workload.
"""

import importlib.util
from pathlib import Path

import ssmspec.cli  # noqa: F401  (the tracer wraps the cli layer too)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _NameRecorder:
    """Stands in for the tracer: records the names a metric reads through `stat`."""

    hook_data: dict = {}

    def __init__(self) -> None:
        self.read: list[str] = []

    def stat(self, name: str, field: str) -> float:
        self.read.append(name)
        return 0


def test_every_per_layer_metric_reads_a_wrapped_name():
    tracing = _load_tracing()
    caches = tracing.ProgramCaches()  # before install, as the benchmark runner does
    tracer = tracing.Tracer()
    tracer.install()
    try:
        caches.account()
        recorder = _NameRecorder()
        for _, _, _, value in tracing.PER_LAYER:
            value(recorder, caches)
        assert recorder.read
        assert set(recorder.read) <= set(tracer.names), sorted(set(recorder.read) - set(tracer.names))
    finally:
        tracer.uninstall()
