"""Command-line surface: classify, zeros, scan, qdump, gram.

All output is deterministic for fixed flags: JSON goes to stdout (or --out),
diagnostics go to stderr.  Exit codes: 0 success, 1 scan invariant violation,
2 unsupported or invalid input, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .classify import Outcome, Verdict, classify, digit_facts, explain
from .exact import (
    ContractionRatio,
    DigitSet,
    InvalidInput,
    Unsupported,
    as_digit,
    four_digit_shape,
    integer_digits,
    parse_rational,
    val2,
)
from .hadamard import HadamardTriple, find_spectrum_set
from .numerics import (
    DEFAULT_TOLERANCE,
    MuHatEvaluator,
    check_q_terms,
    gram_csv,
    gram_matrix,
    q_function,
    q_samples_csv,
)
from .spectra import dj_example_spectrum, greedy_bizero, spectrum_truncation
from .zeros import mask_zero_set

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_UNSUPPORTED = 2
EXIT_USAGE = 64

TOLERANCE_ENV = "SPECTRAL_SSM_TOL"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _usage(parse):
    """An argparse type from an input parser: its InvalidInput (or any other
    ValueError) becomes a usage error carrying the parser's message."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


_rho_arg = _usage(lambda text: ContractionRatio.rational(parse_rational(text)))
_digits_arg = _usage(lambda text: tuple(as_digit(part) for part in text.split(",")))
_weights_arg = _usage(lambda text: tuple(parse_rational(part) for part in text.split(",")))


@_usage
def _rho_root_arg(text: str) -> ContractionRatio:
    n, m, r = (int(part) for part in text.split(","))
    return ContractionRatio.root(n, m, r)


@_usage
def _grid_arg(text: str) -> Fraction:
    step = parse_rational(text)
    if not (0 < step <= 1):
        raise InvalidInput("grid step must lie in (0, 1]")
    return step


def _tolerance() -> float:
    raw = os.environ.get(TOLERANCE_ENV)
    if raw is None:
        return DEFAULT_TOLERANCE
    try:
        tol = float(raw)
    except ValueError:
        raise InvalidInput(f"bad {TOLERANCE_ENV}: {raw!r}")
    if not (0 < tol < 1):
        raise InvalidInput(f"{TOLERANCE_ENV} must lie in (0, 1)")
    return tol


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- classify


def cmd_classify(args) -> int:
    verdict: Verdict = classify(args.rho, args.digits, args.weights)
    _emit(json.dumps(verdict.to_json(), indent=2) + "\n", args.out)
    if args.explain:
        print(explain(verdict), file=sys.stderr)
    return EXIT_UNSUPPORTED if verdict.outcome is Outcome.UNSUPPORTED else EXIT_OK


# ------------------------------------------------------------------- zeros


def cmd_zeros(args) -> int:
    zs = mask_zero_set(args.digits)
    _emit(json.dumps(zs.to_json(), indent=2) + "\n", args.out)
    return EXIT_OK


# -------------------------------------------------------------------- scan


# Largest scan, in candidate digit sets C(bound, #D - 1) times ratios: known before enumerating.
MAX_SCAN_ROWS = 1 << 20


@dataclass(frozen=True)
class ScanConfig:
    cardinality: int
    digit_bound: int
    n_min: int
    n_max: int

    def __post_init__(self) -> None:
        if self.cardinality not in (2, 3, 4):
            raise InvalidInput("cardinality must be 2, 3 or 4")
        if self.digit_bound < 3:
            raise InvalidInput("digit bound must be >= 3")
        if not (2 <= self.n_min <= self.n_max <= 64):
            raise InvalidInput("N range must lie within [2, 64]")
        rows = math.comb(self.digit_bound, self.cardinality - 1) * (self.n_max - self.n_min + 1)
        if rows > MAX_SCAN_ROWS:
            raise InvalidInput(f"a scan of up to {rows} rows exceeds the limit of {MAX_SCAN_ROWS} rows")


def enumerate_digit_sets(cardinality: int, digit_bound: int) -> list[tuple[int, ...]]:
    """All gcd-1 digit sets {0, ...} of the given size within the bound."""
    out = []
    for rest in combinations(range(1, digit_bound + 1), cardinality - 1):
        if math.gcd(*rest) == 1:
            out.append((0, *rest))
    return out


def _card4_invariants(verdict: Verdict, n_ratio: int) -> list[str]:
    """Necessity conditions every four-digit Spectral verdict must satisfy."""
    problems = []
    shape = four_digit_shape(verdict.normalized.integers)
    beta, _ = val2(n_ratio)
    if n_ratio % 2:
        problems.append("Spectral with odd N")
    if shape is None:
        problems.append("Spectral without the two-odd-one-even pattern")
    elif shape.t1 != shape.t2:
        problems.append("Spectral with t1 != t2")
    elif beta and shape.t1 % beta == 0:
        problems.append("Spectral with beta dividing t")
    return problems


def run_scan(cfg: ScanConfig) -> tuple[list[dict], list[str]]:
    """Classify every (digit set, N) pair in range; returns (rows, violations).

    The digit facts are derived once per digit set and each ratio is built
    once, so a row costs only the rule in N and its certificate checks.
    """
    rows = []
    violations = []
    ratios = [(n, ContractionRatio.rational(Fraction(1, n))) for n in range(cfg.n_min, cfg.n_max + 1)]
    for digits in enumerate_digit_sets(cfg.cardinality, cfg.digit_bound):
        facts = digit_facts(DigitSet.of(digits))
        label = ",".join(str(d) for d in digits)
        for n_ratio, ratio in ratios:
            verdict = classify(ratio, facts)
            cert_ok = None if verdict.certificate is None else verdict.certificate.verify()
            rows.append(
                {
                    "digits": label,
                    "N": n_ratio,
                    "outcome": verdict.outcome.value,
                    "reason": verdict.reason.value,
                    "certificate_ok": "" if cert_ok is None else str(cert_ok).lower(),
                }
            )
            if verdict.outcome is Outcome.SPECTRAL:
                if cert_ok is not True:
                    violations.append(f"{label} N={n_ratio}: Spectral without verified certificate")
                if cfg.cardinality == 4:
                    for problem in _card4_invariants(verdict, n_ratio):
                        violations.append(f"{label} N={n_ratio}: {problem}")
    return rows, violations


def _rows_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=["digits", "N", "outcome", "reason", "certificate_ok"], lineterminator="\n"
    )
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def cmd_scan(args) -> int:
    rows, violations = run_scan(ScanConfig(args.cardinality, args.digit_bound, args.n_min, args.n_max))
    text = json.dumps(rows, indent=2) + "\n" if args.format == "json" else _rows_csv(rows)
    _emit(text, args.out)
    for violation in violations:
        print(f"violation: {violation}", file=sys.stderr)
    return EXIT_VIOLATION if violations else EXIT_OK


# ----------------------------------------------------------- qdump and gram


def _spectrum_points(args, n_ratio: int):
    """Resolve the --spectrum source into a point list."""
    spec: str = args.spectrum
    if spec == "triple":
        ints = integer_digits(args.digits)
        found = find_spectrum_set(n_ratio, ints)
        if found is None:
            raise InvalidInput(
                f"(N={n_ratio}, D={list(ints)}) admits no spectrum set; "
                "try --spectrum greedy:<bound>:<count>"
            )
        triple = HadamardTriple(n_ratio, ints, found)
        return spectrum_truncation(triple, args.level)
    kind, _, fields = spec.partition(":")
    arity = {"dj": 1, "greedy": 2}.get(kind)
    if arity is None:
        raise InvalidInput(f"unknown spectrum source {spec!r}")
    try:
        numbers = [int(field) for field in fields.split(":")]
    except ValueError:
        numbers = []
    if len(numbers) != arity:
        raise InvalidInput(f"malformed spectrum source {spec!r}: use dj:<n> or greedy:<bound>:<count>")
    if kind == "dj":
        return dj_example_spectrum(*numbers)
    return greedy_bizero(args.digits, n_ratio, *numbers)


def _require_reciprocal(args) -> int:
    n_ratio = args.rho.reciprocal_integer()
    if n_ratio is None:
        raise InvalidInput("numeric dumps need rho = 1/N for an integer N")
    return n_ratio


def cmd_qdump(args) -> int:
    n_ratio = _require_reciprocal(args)
    points = _spectrum_points(args, n_ratio)
    ev = MuHatEvaluator(args.digits, n_ratio, _tolerance())
    count = int(1 / args.grid)
    check_q_terms(ev, count, len(points))
    grid = [float(j * args.grid) for j in range(count)]
    _emit(q_samples_csv(grid, q_function(ev, points, grid), args.level), args.out)
    return EXIT_OK


def cmd_gram(args) -> int:
    n_ratio = _require_reciprocal(args)
    points = _spectrum_points(args, n_ratio)
    ev = MuHatEvaluator(args.digits, n_ratio, _tolerance())
    _emit(gram_csv(gram_matrix(ev, points)), args.out)
    return EXIT_OK


# -------------------------------------------------------------------- main


def build_parser() -> _Parser:
    parser = _Parser(prog="ssmspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rho(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--rho", type=_rho_arg, help="contraction ratio as p/q")
        group.add_argument(
            "--rho-root",
            dest="rho",
            type=_rho_root_arg,
            metavar="N,M,R",
            help="contraction ratio (n/m)^(1/r)",
        )

    p = sub.add_parser("classify", help="decide spectrality and emit a verdict with certificate")
    add_rho(p)
    p.add_argument("--digits", type=_digits_arg, required=True, help="comma-separated digits; t marks the shared irrational")
    p.add_argument("--weights", type=_weights_arg, help="comma-separated rational weights (default uniform)")
    p.add_argument("--explain", action="store_true", help="print the decision chain to stderr")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("zeros", help="zero set of the mask of the given digits")
    p.add_argument("digits", type=_digits_arg, help="comma-separated digits")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("scan", help="classify every digit set in range and check certificates")
    p.add_argument("--cardinality", type=int, required=True, choices=(2, 3, 4))
    p.add_argument("--digit-bound", type=int, required=True)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write the table here instead of stdout")
    p.set_defaults(func=cmd_scan)

    for name, func, extra in (
        ("qdump", cmd_qdump, "Q-function samples over a grid (CSV: xi,q,level)"),
        ("gram", cmd_gram, "Gram matrix of exponentials (CSV: i,j,re,im)"),
    ):
        p = sub.add_parser(name, help=extra)
        add_rho(p)
        p.add_argument("--digits", type=_digits_arg, required=True)
        p.add_argument("--level", type=int, default=4, help="truncation level for --spectrum triple")
        p.add_argument(
            "--spectrum",
            default="triple",
            help="point source: triple | dj:<n> | greedy:<bound>:<count>",
        )
        if name == "qdump":
            p.add_argument("--grid", type=_grid_arg, default=Fraction(1, 256), help="grid step in (0, 1]")
        p.add_argument("--out", help="write CSV here instead of stdout")
        p.set_defaults(func=func)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Unsupported as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
