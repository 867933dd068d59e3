"""Command-line surface: classify, zeros, scan, qdump, gram.

All output is deterministic for fixed flags: JSON goes to stdout (or --out),
diagnostics go to stderr.  Exit codes: 0 success, 1 scan invariant violation,
2 unsupported or invalid input, 64 usage error, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import Iterator, Optional, Sequence

import numpy as np

from .classify import Outcome, Reason, Verdict, _decide, _n_class, classify, digit_facts, explain
from .exact import (
    ContractionRatio,
    Digit,
    InvalidInput,
    NormalizedDigits,
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
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer its reader left

TOLERANCE_ENV = "SPECTRAL_SSM_TOL"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # argparse stores `--grid=--` as [] (it strips the `--`); no option takes a list.
        namespace, extras = super().parse_known_args(args, namespace)
        for dest, value in vars(namespace).items():
            if isinstance(value, list):
                self.error(f"argument --{dest.replace('_', '-')}: expected one argument")
        return namespace, extras


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


@_usage
def _level_arg(text: str) -> int:
    level = int(text)
    if level < 0:
        raise InvalidInput("level must be >= 0")
    return level


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


@contextmanager
def _output(out_path: Optional[str]):
    """The --out file, opened for text, or stdout when no path is given."""
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


# ---------------------------------------------------------------- classify


def cmd_classify(args) -> int:
    verdict: Verdict = classify(args.rho, args.digits, args.weights)
    with _output(args.out) as fh:
        fh.write(json.dumps(verdict.to_json(), indent=2) + "\n")
    if args.explain:
        print(explain(verdict), file=sys.stderr)
    return EXIT_UNSUPPORTED if verdict.outcome is Outcome.UNSUPPORTED else EXIT_OK


# ------------------------------------------------------------------- zeros


def cmd_zeros(args) -> int:
    zs = mask_zero_set(args.digits)
    with _output(args.out) as fh:
        fh.write(json.dumps(zs.to_json(), indent=2) + "\n")
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
    rests = combinations(range(1, digit_bound + 1), cardinality - 1)
    return [(0, *rest) for rest in rests if math.gcd(*rest) == 1]


def _card4_invariants(integers: tuple[int, ...], n_ratio: int) -> Iterator[str]:
    """The necessity conditions a four-digit Spectral row breaks."""
    shape = four_digit_shape(integers)
    beta, _ = val2(n_ratio)
    if n_ratio % 2:
        yield "Spectral with odd N"
    if shape is None:
        yield "Spectral without the two-odd-one-even pattern"
    elif shape.t1 != shape.t2:
        yield "Spectral with t1 != t2"
    elif beta and shape.t1 % beta == 0:
        yield "Spectral with beta dividing t"


def run_scan(cfg: ScanConfig, violations: list[str]) -> Iterator[dict]:
    """Classify every (digit set, N) pair in range, yielding one row each.

    Each broken invariant is appended to ``violations`` as its row goes by,
    so the list is complete only once the generator is exhausted.  A digit
    set's facts come from its integers, which the enumeration has already
    normalized.  The rule runs once per class of N (`_n_class`) whose result
    has no certificate, and once per Spectral row, whose certificate is
    checked once.
    """
    plain = {reason: (reason.outcome.value, reason.value, "") for reason in Reason}  # row text with no certificate
    unit = Digit(1)
    n_classes = [(n_ratio, _n_class(n_ratio, cfg.cardinality)) for n_ratio in range(cfg.n_min, cfg.n_max + 1)]
    for digits in enumerate_digit_sets(cfg.cardinality, cfg.digit_bound):
        facts = digit_facts(NormalizedDigits(unit, digits))
        label = ",".join(map(str, digits))
        settled = {}  # row text of each class of N whose rule gave no certificate
        for n_ratio, n_class in n_classes:
            text = settled.get(n_class)
            if text is None:
                reason, _, certificate = _decide(n_ratio, facts)
                text = plain[reason]
                if certificate is not None:
                    text = (*text[:2], str(certificate.verify()).lower())
                if reason is Reason.OK:
                    if text[2] != "true":
                        violations.append(f"{label} N={n_ratio}: Spectral without verified certificate")
                    if cfg.cardinality == 4:
                        problems = _card4_invariants(facts.normalized.integers, n_ratio)
                        violations.extend(f"{label} N={n_ratio}: {problem}" for problem in problems)
                elif certificate is None:
                    settled[n_class] = text
            outcome, reason_text, cert_ok = text
            yield {"digits": label, "N": n_ratio, "outcome": outcome, "reason": reason_text, "certificate_ok": cert_ok}


# The columns of the scan table: the keys of a `run_scan` row, in order.
_SCAN_FIELDS = ("digits", "N", "outcome", "reason", "certificate_ok")

# Rows per write of a JSON scan.
_JSON_BLOCK = 4096

# A scan row as `json.dumps(rows, indent=2)` writes it, from the JSON text of
# each field: the C encoder writes scalars, the Python one anything indented.
_JSON_ROW = '\n  {\n    "digits": %s,\n    "N": %d,\n    "outcome": %s,\n    "reason": %s,\n    "certificate_ok": %s\n  }'


def _json_rows(rows: Iterator[dict]) -> Iterator[str]:
    """The JSON text of each scan row, each label encoded once per digit set."""
    label = quoted = None
    texts = {}  # the JSON text of each (outcome, reason, certificate_ok)
    for row in rows:
        if row["digits"] != label:
            label = row["digits"]
            quoted = json.dumps(label)
        fields = row["outcome"], row["reason"], row["certificate_ok"]
        text = texts.get(fields)
        if text is None:
            text = texts[fields] = tuple(map(json.dumps, fields))
        yield _JSON_ROW % (quoted, row["N"], *text)


def cmd_scan(args) -> int:
    # Refused before --out is opened; then each row is written as it comes.
    cfg = ScanConfig(args.cardinality, args.digit_bound, args.n_min, args.n_max)
    violations: list[str] = []
    rows = run_scan(cfg, violations)
    with _output(args.out) as fh:
        if args.format == "json":
            # Rows joined by commas: the bytes of one dump of the table, which
            # is never empty.
            texts = _json_rows(rows)
            opening = "["
            while block := list(islice(texts, _JSON_BLOCK)):
                fh.write(opening + ",".join(block))
                opening = ","
            fh.write("\n]\n")
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_SCAN_FIELDS)
            writer.writerows(row.values() for row in rows)
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


def _numeric_inputs(args) -> tuple[MuHatEvaluator, Sequence]:
    """The evaluator and the points of a numeric dump, which needs rho = 1/N."""
    n_ratio = args.rho.reciprocal_integer()
    if n_ratio is None:
        raise InvalidInput("numeric dumps need rho = 1/N for an integer N")
    points = _spectrum_points(args, n_ratio)
    return MuHatEvaluator(args.digits, n_ratio, _tolerance()), points


def cmd_qdump(args) -> int:
    ev, points = _numeric_inputs(args)
    count = int(1 / args.grid)
    check_q_terms(ev, count, len(points))
    # Integer true division rounds correctly, so each point is float(j * grid).
    step_num, step_den = args.grid.numerator, args.grid.denominator
    grid = np.fromiter((j * step_num / step_den for j in range(count)), dtype=float, count=count)
    q_values = q_function(ev, points, grid)
    with _output(args.out) as fh:
        q_samples_csv(grid, q_values, args.level, fh)
    return EXIT_OK


def cmd_gram(args) -> int:
    matrix = gram_matrix(*_numeric_inputs(args))
    with _output(args.out) as fh:
        gram_csv(matrix, fh)
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
        p.add_argument("--level", type=_level_arg, default=4, help="truncation level for --spectrum triple")
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's last flush
        return code
    except BrokenPipeError:
        # The reader left (`| head`): stdout goes to devnull, so that the
        # interpreter's final flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE
    except Unsupported as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
