"""Layer tracing from outside the program.

`Tracer.install` replaces every public function of the ssmspec layer modules
(and the two public methods that are their layers' entry points,
`MuHatEvaluator.mu_hat` and `HadamardTriple.verify`) by a wrapper that
records one span per call: name, start, end, parent span and operation id.
Every module binding of the function is replaced, so calls made through
`from .zeros import mask_value` are seen as well.  Spans stay in memory and
are written out when the run ends; a span's self time is its duration minus
the time covered by its direct children.

`ProgramCaches` finds the program's `functools.lru_cache` functions, clears
them between operations and keeps their hit, miss and size counts.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("exact", "zeros", "hadamard", "classify", "spectra", "numerics", "cli")
ENTRY_METHODS = (("numerics", "MuHatEvaluator", "mu_hat"), ("hadamard", "HadamardTriple", "verify"))

# Spans kept for the trace file; counts and self times cover every call.
SPAN_CAP = 300_000


def _program_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "ssmspec" or name.startswith("ssmspec.")]


class ProgramCaches:
    """The program's lru caches, found by walking its modules."""

    STATS = {"zero_set": "zeros.zero_set", "cyclotomic_poly": "zeros.cyclotomic_poly"}

    def __init__(self) -> None:
        self.functions = {}
        for module in _program_modules():
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)) and callable(getattr(obj, "cache_info", None)):
                    self.functions[f"{obj.__module__}.{obj.__qualname__}"] = obj
        self.reset_stats()

    def reset_stats(self) -> None:
        self.hits = {key: 0 for key in self.STATS}
        self.misses = {key: 0 for key in self.STATS}
        self.max_entries = 0

    def account(self) -> None:
        """Add the counts since the last clear; track the largest size of
        the public zero_set and cyclotomic_poly caches."""
        entries = 0
        for key, qualname in self.STATS.items():
            info = self.functions[f"ssmspec.{qualname}"].cache_info()
            self.hits[key] += info.hits
            self.misses[key] += info.misses
            entries += info.currsize
        self.max_entries = max(self.max_entries, entries)

    def clear(self) -> None:
        self.account()
        for fn in self.functions.values():
            fn.cache_clear()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.stack: list[list] = []
        self.op_id = -1
        self.next_id = 0
        self.spans_dropped = 0
        self.span_name = array("i")
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.hook_data: dict = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"ssmspec.{layer}"]
            for name, obj in vars(module).items():
                # Plain functions and lru_cache wrappers defined in the module.
                is_function = inspect.isfunction(obj) or (callable(obj) and hasattr(obj, "cache_info"))
                if not name.startswith("_") and is_function and obj.__module__ == module.__name__:
                    targets[id(obj)] = (obj, f"{layer}.{name}")
        for layer, cls_name, meth in ENTRY_METHODS:
            cls = getattr(sys.modules[f"ssmspec.{layer}"], cls_name)
            original = cls.__dict__[meth]
            self._patch(cls, meth, original, self._wrap(original, f"{layer}.{cls_name}.{meth}"))
        wrappers = {key: self._wrap(obj, name) for key, (obj, name) in targets.items()}
        for module in _program_modules():
            for name, obj in list(vars(module).items()):
                if id(obj) in targets and obj is targets[id(obj)][0]:
                    self._patch(module, name, obj, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, original, wrapper) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, name: str):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        hook = HOOKS.get(name)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [0.0, tracer.next_id]
            tracer.next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.calls[idx] += 1
                tracer.self_s[idx] += duration - frame[0]
                if hook is not None:
                    hook(tracer, args, kwargs)
                    # The hook's own time is tracing cost, not the parent's.
                    duration += clock() - end
                if parent is not None:
                    parent[0] += duration
                tracer._record(idx, frame[1], -1 if parent is None else parent[1], start, end)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _record(self, idx, span, parent, start, end) -> None:
        if len(self.span_id) >= SPAN_CAP:
            self.spans_dropped += 1
            return
        self.span_name.append(idx)
        self.span_id.append(span)
        self.span_parent.append(parent)
        self.span_op.append(self.op_id)
        self.span_start.append(start)
        self.span_end.append(end)

    # ------------------------------------------------------------ results

    def flush_round(self) -> None:
        """Close the distinct-argument count of a round.  Distinct arguments
        are counted within a round, since every round repeats its inputs."""
        seen = self.hook_data.setdefault("mu_zero_member_seen", set())
        self.hook_data["mu_zero_member_distinct"] = self.hook_data.get("mu_zero_member_distinct", 0) + len(seen)
        seen.clear()

    def stat(self, name: str, field: str) -> float:
        try:
            idx = self.names.index(name)
        except ValueError:
            return 0
        return self.calls[idx] if field == "calls" else self.self_s[idx]

    def write(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            span=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            dropped=np.array(self.spans_dropped),
        )


def _hook_mu_zero_member(tracer: Tracer, args, kwargs) -> None:
    tracer.hook_data.setdefault("mu_zero_member_seen", set()).add(args)


def _hook_mu_hat(tracer: Tracer, args, kwargs) -> None:
    """Mask factors evaluated: array size times the factor count the
    evaluator certifies for the largest |xi| of the call."""
    ev, xi = args[0], args[1]
    extra = args[2] if len(args) > 2 else kwargs.get("extra_terms", 0)
    flat = np.abs(np.asarray(xi, dtype=float)).ravel()
    if flat.size == 0:
        return
    factors = type(ev).terms_needed(ev, float(flat.max())) + max(0, extra)
    tracer.hook_data["mu_hat_args"] = tracer.hook_data.get("mu_hat_args", 0) + flat.size
    tracer.hook_data["mask_factor_evals"] = tracer.hook_data.get("mask_factor_evals", 0) + flat.size * factors


HOOKS = {"zeros.mu_zero_member": _hook_mu_zero_member, "numerics.MuHatEvaluator.mu_hat": _hook_mu_hat}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, better, value from the tracer and the cache counts)
PER_LAYER = [
    ("exact.normalize_digits.calls", "count", "lower", lambda t, c: t.stat("exact.normalize_digits", "calls")),
    ("exact.normalize_digits.self_s", "s", "lower", lambda t, c: t.stat("exact.normalize_digits", "self_s")),
    ("classify.classify.calls", "count", "lower", lambda t, c: t.stat("classify.classify", "calls")),
    ("classify.classify.self_s", "s", "lower", lambda t, c: t.stat("classify.classify", "self_s")),
    ("zeros.zero_set.calls", "count", "lower", lambda t, c: t.stat("zeros.zero_set", "calls")),
    (
        "zeros.zero_set.hit_ratio",
        "ratio",
        "higher",
        lambda t, c: _ratio(c.hits["zero_set"], c.hits["zero_set"] + c.misses["zero_set"]),
    ),
    ("zeros.cache_entries", "count", "lower", lambda t, c: c.max_entries),
    ("zeros.mask_value.calls", "count", "lower", lambda t, c: t.stat("zeros.mask_value", "calls")),
    ("zeros.mask_value.self_s", "s", "lower", lambda t, c: t.stat("zeros.mask_value", "self_s")),
    ("zeros.cyclotomic_poly.misses", "count", "lower", lambda t, c: c.misses["cyclotomic_poly"]),
    ("zeros.cyclotomic_poly.self_s", "s", "lower", lambda t, c: t.stat("zeros.cyclotomic_poly", "self_s")),
    ("zeros.mu_zero_member.calls", "count", "lower", lambda t, c: t.stat("zeros.mu_zero_member", "calls")),
    ("zeros.mu_zero_member.self_s", "s", "lower", lambda t, c: t.stat("zeros.mu_zero_member", "self_s")),
    (
        "zeros.mu_zero_member.distinct_ratio",
        "ratio",
        "higher",
        lambda t, c: _ratio(t.hook_data.get("mu_zero_member_distinct", 0), t.stat("zeros.mu_zero_member", "calls")),
    ),
    ("zeros.mask_zero_set.calls", "count", "lower", lambda t, c: t.stat("zeros.mask_zero_set", "calls")),
    ("zeros.mask_zero_set.self_s", "s", "lower", lambda t, c: t.stat("zeros.mask_zero_set", "self_s")),
    ("hadamard.find_spectrum_set.self_s", "s", "lower", lambda t, c: t.stat("hadamard.find_spectrum_set", "self_s")),
    ("hadamard.is_hadamard_triple.calls", "count", "lower", lambda t, c: t.stat("hadamard.is_hadamard_triple", "calls")),
    ("hadamard.is_hadamard_triple.self_s", "s", "lower", lambda t, c: t.stat("hadamard.is_hadamard_triple", "self_s")),
    (
        "hadamard.construct_product_form.self_s",
        "s",
        "lower",
        lambda t, c: t.stat("hadamard.construct_product_form", "self_s"),
    ),
    ("hadamard.verify_product_form.self_s", "s", "lower", lambda t, c: t.stat("hadamard.verify_product_form", "self_s")),
    ("spectra.is_bizero_set.self_s", "s", "lower", lambda t, c: t.stat("spectra.is_bizero_set", "self_s")),
    ("spectra.greedy_bizero.self_s", "s", "lower", lambda t, c: t.stat("spectra.greedy_bizero", "self_s")),
    ("spectra.spectrum_truncation.self_s", "s", "lower", lambda t, c: t.stat("spectra.spectrum_truncation", "self_s")),
    ("numerics.mu_hat.calls", "count", "lower", lambda t, c: t.stat("numerics.MuHatEvaluator.mu_hat", "calls")),
    ("numerics.mu_hat.self_s", "s", "lower", lambda t, c: t.stat("numerics.MuHatEvaluator.mu_hat", "self_s")),
    ("numerics.q_function.self_s", "s", "lower", lambda t, c: t.stat("numerics.q_function", "self_s")),
    ("numerics.gram_matrix.self_s", "s", "lower", lambda t, c: t.stat("numerics.gram_matrix", "self_s")),
    ("numerics.mask_factor_evals", "count", "lower", lambda t, c: t.hook_data.get("mask_factor_evals", 0)),
    (
        "numerics.factors_per_arg",
        "count",
        "lower",
        lambda t, c: _ratio(t.hook_data.get("mask_factor_evals", 0), t.hook_data.get("mu_hat_args", 0)),
    ),
    ("numerics.float_mask.self_s", "s", "lower", lambda t, c: t.stat("numerics.float_mask", "self_s")),
    ("numerics.q_samples_csv.self_s", "s", "lower", lambda t, c: t.stat("numerics.q_samples_csv", "self_s")),
    ("numerics.gram_csv.self_s", "s", "lower", lambda t, c: t.stat("numerics.gram_csv", "self_s")),
    ("cli.main.self_s", "s", "lower", lambda t, c: t.stat("cli.main", "self_s")),
    ("cli.run_scan.self_s", "s", "lower", lambda t, c: t.stat("cli.run_scan", "self_s")),
]


def per_layer_metrics(tracer: Tracer, caches: ProgramCaches) -> dict:
    return {name: {"value": value(tracer, caches), "unit": unit} for name, unit, _, value in PER_LAYER}
