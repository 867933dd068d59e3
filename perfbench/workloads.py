"""The benchmark's four workloads.

Each workload builds a fixed list of operations from its seed: one round.
The timed phase repeats whole rounds, so every run attempts the same mix.
Every operation is one call into a public entry point of ssmspec, looked up
at call time so that tracing wrappers are seen.  Program caches are cleared
before every CLI invocation (a real invocation is a fresh process) and at
the start of every round of library calls, so no operation is answered from
a cache filled by the same input earlier in the run.

`check` runs after the timed phase on the first round's outputs (later
rounds must reproduce them byte for byte) and returns the problems found
and the operations that failed.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import oracles

TOLERANCE = 1e-10  # ssmspec's default evaluation tolerance


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    # Turns the call's result into the output to check, outside the timing.
    collect: Callable[[object], object] = lambda result: result
    info: dict = field(default_factory=dict)


@dataclass
class CheckResult:
    problems: list = field(default_factory=list)
    failed: set = field(default_factory=set)
    items: list = field(default_factory=list)


def _digits_arg(digits) -> str:
    return ",".join(str(d) for d in digits)


class Workload:
    name = ""
    clear_each_op = False

    def __init__(self, program, seed: int, out_dir):
        self.p = program
        self.rng = random.Random(f"{self.name}:{seed}")
        self.out_dir = out_dir
        self.ops: list[Op] = []

    def warm_up(self) -> None:
        raise NotImplementedError

    def check(self, outputs: list) -> CheckResult:
        raise NotImplementedError

    def _cli(self, argv: list, path) -> int:
        return self.p.cli.main([*argv, "--out", str(path)])

    def _cli_op(self, kind: str, argv: list, filename: str, **info) -> Op:
        path = self.out_dir / filename
        return Op(kind, lambda: self._cli(argv, path), lambda code: (code, path.read_bytes()), dict(info, argv=argv))


# --------------------------------------------------------------------- scan


class Scan(Workload):
    """`ssmspec scan --cardinality 4 --digit-bound 15` over a seeded window of
    56 consecutive N in [2, 64], split into eight CLI calls of seven N each
    and run in a seeded order.  Item: one scan row."""

    name = "scan"
    clear_each_op = True
    BOUND, BLOCK, BLOCKS = 15, 7, 8

    def __init__(self, program, seed, out_dir):
        super().__init__(program, seed, out_dir)
        n0 = self.rng.randint(2, 65 - self.BLOCK * self.BLOCKS)
        blocks = [(n0 + self.BLOCK * j, n0 + self.BLOCK * (j + 1) - 1) for j in range(self.BLOCKS)]
        self.rng.shuffle(blocks)
        self.digit_sets = oracles.gcd1_digit_sets(4, self.BOUND)
        for lo, hi in blocks:
            argv = ["scan", "--cardinality", "4", "--digit-bound", str(self.BOUND), "--n-min", str(lo), "--n-max", str(hi)]
            self.ops.append(self._cli_op("scan", argv, "scan.csv", n_range=(lo, hi)))

    def warm_up(self) -> None:
        argv = ["scan", "--cardinality", "3", "--digit-bound", str(self.BOUND), "--n-min", "2", "--n-max", "9"]
        self._cli(argv, self.out_dir / f"warmup-{self.name}.csv")

    def check(self, outputs):
        res = CheckResult()
        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            lo, hi = op.info["n_range"]
            res.items.append(len(self.digit_sets) * (hi - lo + 1))
            if isinstance(out, BaseException):
                res.failed.add(i)
                continue
            code, data = out
            if code != 0:
                res.problems.append(f"scan N {lo}..{hi}: exit {code}")
                continue
            rows = list(csv.DictReader(io.StringIO(data.decode())))
            expected = {(d, n) for d in self.digit_sets for n in range(lo, hi + 1)}
            seen = set()
            for row in rows:
                key = (tuple(int(x) for x in row["digits"].split(",")), int(row["N"]))
                outcome, reason = oracles.card4_verdict(*key)
                cert = "true" if outcome == "Spectral" else ""
                if key in seen or key not in expected:
                    res.problems.append(f"scan: unexpected or repeated row {key}")
                elif (row["outcome"], row["reason"], row["certificate_ok"]) != (outcome, reason, cert):
                    res.problems.append(f"scan {key}: {row['outcome']}/{row['reason']}/{row['certificate_ok']!r}, theorem says {outcome}/{reason}")
                seen.add(key)
            if len(rows) != len(expected) or seen != expected:
                res.problems.append(f"scan N {lo}..{hi}: {len(rows)} rows, expected {len(expected)}")
        return res


# ------------------------------------------------------------------- bizero


def _pool(rng, n_ratio: int, card: int, max_digit: int, count: int):
    """Seeded digit sets {0, ...} of the given size with a spectrum set at N."""
    found = []
    candidates = [tuple(sorted(rng.sample(range(1, max_digit + 1), card - 1))) for _ in range(40 * count)]
    for rest in dict.fromkeys(candidates):
        digits = (0, *rest)
        spectrum = oracles.lexicographic_spectrum(n_ratio, digits)
        if spectrum is not None:
            found.append((digits, spectrum))
            if len(found) == count:
                break
    if len(found) < count:
        raise RuntimeError(f"no digit sets with a spectrum set at N={n_ratio}")
    return found


class Bizero(Workload):
    """Exact orthogonality checks.  Per round, for two seeded digit sets of
    each of three kinds of Hadamard triple (N=4 with two digits at level 6,
    N=8 with four digits at level 3, N=6 with three digits at level 4; 64,
    64 and 81 points): `is_bizero_set` on the truncation, and on the
    truncation plus one point that breaks orthogonality, placed so that the
    sorted pair scan stops as late as the digits allow, at most half way;
    then three `greedy_bizero` growths.  Item: one point pair decided."""

    name = "bizero"
    KINDS = ((4, 2, 6), (8, 4, 3), (6, 3, 4))
    GREEDY = ((4, 4, 150, 40), (4, 2, 400, 40), (6, 3, 300, 40))  # N, #D, bound, count

    def __init__(self, program, seed, out_dir):
        super().__init__(program, seed, out_dir)
        spectra = lambda: self.p.spectra  # noqa: E731  looked up at call time
        self.warm = []
        for n_ratio, card, level in self.KINDS:
            *timed, (warm_digits, warm_spectrum) = _pool(self.rng, n_ratio, card, 12, 3)
            self.warm.append((oracles.truncation(n_ratio, warm_spectrum, level - 1), warm_digits, n_ratio))
            for digits, spectrum in timed:
                points = oracles.truncation(n_ratio, spectrum, level)
                info = dict(digits=digits, n=n_ratio, points=points)
                self.ops.append(Op("truncation", lambda a=(points, digits, n_ratio): spectra().is_bizero_set(*a), info=info))
                perturbed = points + [self._breaking_point(points, digits, n_ratio, level)]
                info = dict(digits=digits, n=n_ratio, points=perturbed)
                self.ops.append(Op("perturbed", lambda a=(perturbed, digits, n_ratio): spectra().is_bizero_set(*a), info=info))
        for n_ratio, card, bound, count in self.GREEDY:
            ((digits, _),) = _pool(self.rng, n_ratio, card, 12, 1)
            info = dict(digits=digits, n=n_ratio, bound=bound, count=count)
            self.ops.append(Op("greedy", lambda a=(digits, n_ratio, bound, count): spectra().greedy_bizero(*a), info=info))

    def _breaking_point(self, points, digits, n_ratio, level):
        """A point above the truncation whose difference to the middle point
        points[j] is not a zero, preferring candidates whose differences to
        all lower points are zeros, so that the sorted scan runs to row j.
        Candidates are c*N**level + points[j] (+ 1/2 when every integer
        difference is a zero)."""
        j = len(points) // 2
        best, best_row = None, -1
        for shift in (0, Fraction(1, 2)):
            for c in range(1, 32):
                extra = c * n_ratio**level + points[j] + shift
                row = next(
                    (i for i in range(j + 1) if not oracles.in_transform_zero_set(digits, n_ratio, extra - points[i])),
                    None,
                )
                if row is not None and row > best_row:
                    best, best_row = extra, row
                if best_row == j:
                    return best
        if best is None:
            raise RuntimeError(f"no breaking point for {digits} at N={n_ratio}")
        return best

    def warm_up(self) -> None:
        for points, digits, n_ratio in self.warm:
            self.p.spectra.is_bizero_set(points, digits, n_ratio)
        self.p.spectra.greedy_bizero(self.warm[0][1], 4, 40, 10)

    def check(self, outputs):
        res = CheckResult()
        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            digits, n_ratio = op.info["digits"], op.info["n"]
            where = f"{op.kind} D={digits} N={n_ratio}"
            if op.kind == "greedy":
                expected, decided = oracles.greedy_orthogonal(digits, n_ratio, op.info["bound"], op.info["count"])
            else:
                expected, decided = oracles.first_violating_pair(op.info["points"], digits, n_ratio)
            res.items.append(decided)
            if isinstance(out, BaseException):
                res.failed.add(i)
                continue
            if op.kind == "greedy":
                points = list(out)
                if Fraction(0) not in points or len(points) > op.info["count"]:
                    res.problems.append(f"{where}: output lacks 0 or exceeds the count")
                elif oracles.first_violating_pair(points, digits, n_ratio)[0] is not None:
                    res.problems.append(f"{where}: output is not bi-zero")
                elif points != expected:
                    res.problems.append(f"{where}: output differs from the greedy scan")
            elif op.kind == "truncation":
                if expected is not None or not out.is_bizero:
                    res.problems.append(f"{where}: truncation not reported bi-zero (oracle pair {expected})")
            elif out.is_bizero or out.violating_pair != expected:
                res.problems.append(f"{where}: reported {out.violating_pair}, first violating pair is {expected}")
        return res


# -------------------------------------------------------------------- qgram

# Inputs of the decay sweep; fixed, since every call fails the tolerance.
DECAY = ((3, (0, 2)), (5, (0, 1, 2, 3)), (6, (0, 1, 2)), (10, (0, 1, 8, 9)))


def _decay_points(n_ratio: int) -> np.ndarray:
    return np.array([sign * (n_ratio**k + off) for k in range(1, 17) for off in (0.37, 0.5) for sign in (1, -1)])


def _dj_points(n: int) -> list[Fraction]:
    return sorted(Fraction(k) + off for k in range(-n, n + 1) for off in (0, Fraction(1, 4)))


class Qgram(Workload):
    """Numerics through the CLI.  Per round: `qdump` at levels 6, 8 and 10 of
    a seeded two-digit triple at N=4, at level 5 of a seeded three-digit
    triple at N=6 (grid 1/256) and on `dj:16`; `gram` at level 7 (N=4),
    level 4 (N=6), on `dj:32` and, for the two-digit measure, on `dj:16`,
    which is not orthogonal for it; four `MuHatEvaluator.mu_hat` decay
    sweeps at N = 3, 5, 6, 10.  Item: one transform evaluation (one
    argument of mu_hat)."""

    name = "qgram"
    clear_each_op = True
    GRID = 256
    DJ = (0, 1, 8, 9)

    def __init__(self, program, seed, out_dir):
        super().__init__(program, seed, out_dir)
        (d4, l4), (w4, _) = _pool(self.rng, 4, 2, 12, 2)
        (d6, l6), (w6, _) = _pool(self.rng, 6, 3, 12, 2)
        self.warm = [
            ["qdump", "--rho", "1/4", "--digits", _digits_arg(w4), "--level", "4"],
            ["gram", "--rho", "1/6", "--digits", _digits_arg(w6), "--level", "2"],
            ["gram", "--rho", "1/4", "--digits", _digits_arg(self.DJ), "--spectrum", "dj:4"],
        ]
        for digits, spectrum, n_ratio, level in ((d4, l4, 4, 6), (d4, l4, 4, 8), (d4, l4, 4, 10), (d6, l6, 6, 5)):
            argv = ["qdump", "--rho", f"1/{n_ratio}", "--digits", _digits_arg(digits), "--level", str(level)]
            info = dict(digits=digits, n=n_ratio, level=level, points=len(spectrum) ** level)
            if level == 6:
                info["truncation"] = oracles.truncation(n_ratio, spectrum, level)
            self.ops.append(self._cli_op("qdump", argv, "qgram.csv", **info))
        argv = ["qdump", "--rho", "1/4", "--digits", _digits_arg(self.DJ), "--spectrum", "dj:16"]
        self.ops.append(self._cli_op("qdump", argv, "qgram.csv", digits=self.DJ, n=4, level=4, points=len(_dj_points(16))))
        for digits, spectrum, n_ratio, level in ((d4, l4, 4, 7), (d6, l6, 6, 4)):
            argv = ["gram", "--rho", f"1/{n_ratio}", "--digits", _digits_arg(digits), "--level", str(level)]
            points = oracles.truncation(n_ratio, spectrum, level)
            self.ops.append(self._cli_op("gram", argv, "qgram.csv", digits=digits, n=n_ratio, points=points, orthogonal=True))
        for digits, size in ((self.DJ, 32), (d4, 16)):
            argv = ["gram", "--rho", "1/4", "--digits", _digits_arg(digits), "--spectrum", f"dj:{size}"]
            info = dict(digits=digits, n=4, points=_dj_points(size), orthogonal=digits == self.DJ)
            self.ops.append(self._cli_op("gram", argv, "qgram.csv", **info))
        for n_ratio, digits in DECAY:
            ev = self.p.numerics.MuHatEvaluator(digits, n_ratio)
            xs = _decay_points(n_ratio)
            self.ops.append(Op("decay", lambda ev=ev, xs=xs: ev.mu_hat(xs), info=dict(digits=digits, n=n_ratio, xs=xs)))

    def warm_up(self) -> None:
        for argv in self.warm:
            self._cli(argv, self.out_dir / f"warmup-{self.name}.csv")
        self.p.numerics.MuHatEvaluator((0, 1), 7).mu_hat(np.linspace(-50.0, 50.0, 64))

    def check(self, outputs):
        res = CheckResult()
        rng = random.Random(self.rng.random())
        q_by_level = {}
        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            info = op.info
            where = f"{op.kind} D={info['digits']} N={info['n']}"
            if op.kind == "decay":
                res.items.append(len(info["xs"]))
                if isinstance(out, BaseException):
                    res.failed.add(i)
                    continue
                ref = np.array([oracles.mu_hat_mp(info["digits"], info["n"], Fraction(float(x))) for x in info["xs"]])
                if not np.abs(out - ref).max() <= TOLERANCE:
                    res.failed.add(i)  # the rounding fault in mu_hat at large |xi|
                continue
            if isinstance(out, BaseException) or out[0] != 0:
                res.items.append(0)
                res.failed.add(i)
                continue
            table = np.loadtxt(io.StringIO(out[1].decode()), delimiter=",", skiprows=1, ndmin=2)
            if op.kind == "qdump":
                res.items.append(info["points"] * self.GRID)
                xi, q, level = table.T
                if len(xi) != self.GRID or not np.array_equal(xi, np.arange(self.GRID) / self.GRID):
                    res.problems.append(f"{where}: grid is not j/{self.GRID}")
                if not (level == info["level"]).all() or not (q <= 1 + 1e-9).all():
                    res.problems.append(f"{where} level {info['level']}: level column wrong or Q > 1 + 1e-9")
                q_by_level.setdefault((info["digits"], info["n"]), []).append((info["level"], q))
                if info["level"] == 6:  # 64 points: Q itself against mpmath at two grid points
                    for j in rng.sample(range(self.GRID), 2):
                        ref = sum(abs(oracles.mu_hat_mp(info["digits"], info["n"], Fraction(j, self.GRID) + p)) ** 2 for p in info["truncation"])
                        if abs(q[j] - ref) > 2 * info["points"] * TOLERANCE:
                            res.problems.append(f"{where} level 6: Q({j}/{self.GRID}) = {q[j]}, mpmath {ref}")
                continue
            points = info["points"]
            n = len(points)
            res.items.append(n * n)
            if len(table) != n * n:
                res.problems.append(f"{where}: {len(table)} entries, expected {n * n}")
                continue
            gram = (table[:, 2] + 1j * table[:, 3]).reshape(n, n)
            off = gram - np.diag(np.diag(gram))
            if not (np.diag(gram) == 1).all():
                res.problems.append(f"{where}: diagonal not 1")
            if info["orthogonal"] and np.abs(off).max() > 1e-8:
                res.problems.append(f"{where}: off-diagonal above 1e-8 on an orthogonal set")
            # The corners carry the largest |xi|, where truncation errors are largest.
            for a, b in [(0, n - 1), (n - 1, 0)] + [(rng.randrange(n), rng.randrange(n)) for _ in range(6)]:
                ref = oracles.mu_hat_mp(info["digits"], info["n"], Fraction(points[a]) - Fraction(points[b]))
                if abs(gram[a, b] - ref) > TOLERANCE:
                    res.problems.append(f"{where}: G[{a},{b}] = {gram[a, b]}, mpmath {ref}")
        for key, runs in q_by_level.items():
            runs.sort(key=lambda r: r[0])
            for (low, q_low), (high, q_high) in zip(runs, runs[1:]):
                if (q_high < q_low - 1e-12).any():
                    res.problems.append(f"qdump {key}: Q decreases from level {low} to {high}")
        return res


# ------------------------------------------------------------ triple_search


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi + 1) if p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))]


class TripleSearch(Workload):
    """`find_spectrum_set` on eight seeded (N, D) pairs per round, with N even
    in 514..1020: four highly composite N, which share divisor tables, and
    four N = 2p with p drawn from fixed windows, which share little.  Each
    slot fixes the size of D and whether a spectrum set exists; the seed
    picks D.  Every found triple is then checked with
    `HadamardTriple.verify`.  Slots run in increasing N, so that what a
    round shares between searches does not depend on the seed.  Item: one
    spectrum-set search."""

    name = "triple_search"
    # (N or prime window, #D, spectrum set exists)
    SLOTS = (
        (720, 4, True),
        (840, 4, False),
        (960, 3, True),
        (1008, 2, True),
        ((257, 269), 2, True),
        ((317, 337), 3, False),
        ((383, 397), 4, False),
        ((487, 509), 2, True),
    )

    def __init__(self, program, seed, out_dir):
        super().__init__(program, seed, out_dir)
        hadamard = lambda: self.p.hadamard  # noqa: E731  looked up at call time
        slots = []
        for n_spec, card, exists in self.SLOTS:
            n_ratio = n_spec if isinstance(n_spec, int) else 2 * self.rng.choice(_primes(*n_spec))
            digits, spectrum = self._digits_for(n_ratio, card, exists)
            info = dict(digits=digits, n=n_ratio, spectrum=spectrum)
            ops = [Op("search", lambda a=(n_ratio, digits): hadamard().find_spectrum_set(*a), info=info)]
            if spectrum is not None:
                triple = self.p.hadamard.HadamardTriple(n_ratio, digits, spectrum)
                ops.append(Op("verify", lambda t=triple: t.verify(), info=info))
            slots.append(ops)
        slots.sort(key=lambda ops: ops[0].info["n"])
        self.ops = [op for ops in slots for op in ops]

    def _digits_for(self, n_ratio: int, card: int, exists: bool):
        for _ in range(400):
            digits = (0, *sorted(self.rng.sample(range(1, 25), card - 1)))
            spectrum = oracles.lexicographic_spectrum(n_ratio, digits)
            if (spectrum is not None) == exists:
                return digits, spectrum
        raise RuntimeError(f"no digit set of size {card} fits N={n_ratio}")

    def warm_up(self) -> None:
        for n_ratio, digits in ((566, (0, 3)), (600, (0, 1, 2))):
            self.p.hadamard.find_spectrum_set(n_ratio, digits)

    def check(self, outputs):
        res = CheckResult()
        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            info = op.info
            where = f"{op.kind} N={info['n']} D={info['digits']}"
            res.items.append(1 if op.kind == "search" else 0)
            if isinstance(out, BaseException):
                res.failed.add(i)
            elif op.kind == "search" and out != info["spectrum"]:
                res.problems.append(f"{where}: found {out}, lexicographic search gives {info['spectrum']}")
            elif op.kind == "verify" and (out is not True or oracles.unitary_defect(info["n"], info["digits"], info["spectrum"]) > 1e-9):
                res.problems.append(f"{where}: triple {info['spectrum']} not verified or not unitary")
        return res


WORKLOADS = {w.name: w for w in (Scan, Bizero, Qgram, TripleSearch)}
