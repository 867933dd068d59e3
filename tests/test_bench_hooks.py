"""The benchmark's hooks into the program still resolve.

`perfbench/tracing.py` wraps the public functions of the layer modules and
reads per-layer metrics by name; a metric whose function is gone reads 0
without complaint, and a missing lru_cache on `zero_set` or
`cyclotomic_poly` ends every traced run in a KeyError.  One test loads the
tracer as the benchmark does and checks both, without running a workload;
another runs one round of every workload against the program and checks
its outputs, so a name, signature or output the benchmark reads cannot
break unseen.
"""

import importlib.util
from pathlib import Path

import ssmspec
import ssmspec.cli  # noqa: F401  (the tracer wraps the cli layer too)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_one_round_of_every_workload_passes_its_check(monkeypatch, tmp_path):
    # The workloads take the already-imported package, as `perfbench/run.py`
    # passes the one it imports; `oracles` is imported by its plain name.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class(ssmspec, 101, tmp_path)
        workload.warm_up()
        outputs = []
        for op in workload.ops:
            try:
                result = op.call()
            except Exception as exc:  # a failed operation, as the runner counts it
                outputs.append(exc)
            else:
                outputs.append(op.collect(result))
        check = workload.check(outputs)
        assert not check.problems, (name, check.problems[:5])
        # The only failures are the mu_hat decay sweeps, which miss their
        # tolerance by rounding at large |xi|.
        assert {workload.ops[i].kind for i in check.failed} <= {"decay"}, name


def test_the_benchmark_empties_the_hadamard_memo():
    # `ProgramCaches` clears every module-level lru cache between operations,
    # so no operation is answered from a memo that an earlier one filled.
    from ssmspec.hadamard import _is_hadamard

    caches = _load_tracing().ProgramCaches()
    assert caches.functions["ssmspec.hadamard._is_hadamard"] is _is_hadamard
    _is_hadamard(4, (0, 1), (0, 2))
    assert _is_hadamard.cache_info().currsize > 0
    caches.clear()
    assert _is_hadamard.cache_info().currsize == 0
