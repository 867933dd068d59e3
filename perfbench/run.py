"""Benchmark for ssmspec: one process, one caller, a closed loop of public calls.

    python3 perfbench/run.py --workload {scan,bizero,qgram,triple_search} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from `src/` next to this
directory.  Set-up (importing ssmspec, building the inputs, warming up) is
repeated SETUP_REPEATS times and its median reported.  The timed phase then
repeats whole rounds of the workload's operations until `--seconds` have
passed.  Outputs are checked after the timed phase.  The last line of stdout
is one JSON object: `correct`, `attempted`, `failed` and the end-to-end
metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).  Outputs, the
run summary and the trace go to `perfbench/out/`.
"""

from __future__ import annotations

import os

# One caller: keep numpy's BLAS from starting threads of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5


def load_program():
    """Import ssmspec afresh from src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "ssmspec" or m.startswith("ssmspec.")]:
        del sys.modules[name]
    package = importlib.import_module("ssmspec")
    importlib.import_module("ssmspec.cli")
    if Path(package.__file__).resolve().parent != SRC / "ssmspec":
        raise ImportError(f"ssmspec was imported from {package.__file__}, not from {SRC}")
    return package


def fingerprint(output) -> bytes:
    if isinstance(output, BaseException):
        data = repr(output).encode()
    elif isinstance(output, tuple) and len(output) == 2 and isinstance(output[1], bytes):
        data = repr(output[0]).encode() + output[1]
    elif hasattr(output, "tobytes"):
        data = output.tobytes()
    else:
        data = repr(output).encode()
    return hashlib.sha256(data).digest()


def timed_phase(workload, seconds: float, caches, tracer):
    """Repeat whole rounds until `seconds` have passed, and at least twice,
    so that every output is seen to repeat.  Returns the time of every
    operation, the first round's outputs, the operations whose output
    changed in a later round and the number of rounds."""
    ops = workload.ops
    durations, first, digests, unstable = [], [None] * len(ops), [None] * len(ops), set()
    clock = time.perf_counter
    caches.clear()
    caches.reset_stats()
    start = clock()
    rounds = 0
    while rounds < 2 or clock() - start < seconds:
        if tracer:
            tracer.flush_round()
        if not workload.clear_each_op:
            caches.clear()
        for i, op in enumerate(ops):
            if workload.clear_each_op:
                caches.clear()
            if tracer:
                tracer.op_id = len(durations)
            t0 = clock()
            try:
                result = op.call()
            except Exception as exc:  # a failed operation, counted as such
                result = exc
            durations.append(clock() - t0)
            output = result if isinstance(result, BaseException) else op.collect(result)
            digest = fingerprint(output)
            if rounds == 0:
                first[i], digests[i] = output, digest
            elif digest != digests[i]:
                unstable.add(i)
        rounds += 1
    caches.account()
    if tracer:
        tracer.flush_round()
    return durations, first, unstable, rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ssmspec" / "__init__.py").is_file():
        print(f"benchmark: no ssmspec source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        program = load_program()
        workload = workloads.WORKLOADS[args.workload](program, args.seed, OUT)
        workload.warm_up()
        setup_s.append(time.perf_counter() - t0)

    caches = tracing.ProgramCaches()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        durations, outputs, unstable, rounds = timed_phase(workload, args.seconds, caches, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check = workload.check(outputs)
    problems = list(check.problems)
    problems += [f"{workload.ops[i].kind} #{i}: output changed between rounds" for i in sorted(unstable)]
    per_round = len(workload.ops)
    attempted = rounds * per_round
    failed = rounds * len(check.failed)
    items = rounds * sum(n for i, n in enumerate(check.items) if i not in check.failed)
    busy_s = sum(durations)

    if tracer:
        metrics = tracing.per_layer_metrics(tracer, caches)
        tracer.write(OUT / f"trace-{args.workload}.npz")
    else:
        metrics = {
            "items_per_s": {"value": items / busy_s, "unit": "items/s"},
            "op_p50_ms": {"value": statistics.median(durations) * 1000, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    by_kind = {}
    for i, d in enumerate(durations):
        by_kind.setdefault(workload.ops[i % per_round].kind, []).append(d)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "ops_per_round": per_round,
        "items": items,
        "busy_s": busy_s,
        "items_per_s": items / busy_s,
        "op_p50_ms": statistics.median(durations) * 1000,
        "setup_s": setup_s,
        "op_p50_ms_by_kind": {k: statistics.median(v) * 1000 for k, v in by_kind.items()},
        "failed_kinds": sorted({workload.ops[i].kind for i in check.failed}),
        "problems": problems[:50],
        "spans_dropped": tracer.spans_dropped if tracer else None,
        "result": result,
    }
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(summary, indent=2) + "\n")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
