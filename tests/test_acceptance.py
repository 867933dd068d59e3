"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Expected values marked as frozen regressions were computed by this
implementation and pinned; everything else is checked against exact
verifiers or stated closed-form conditions.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
from zero_oracles import mask_zero_batch, zero_set_member_batch

from ssmspec.classify import Outcome, Reason, classify, hu_lau_infinite_bizero
from ssmspec.cli import ScanConfig, run_scan
from ssmspec.exact import ContractionRatio, normalize_digits
from ssmspec.hadamard import (
    HadamardTriple,
    direct_sum,
    is_hadamard_triple,
    tiles_zn,
    verify_product_form,
)
from ssmspec.numerics import MuHatEvaluator, gram_matrix, q_function, unitarity_defect
from ssmspec.spectra import dj_example_spectrum, is_bizero_set, spectrum_truncation
from ssmspec.zeros import zero_set

# Q_8 minimum over the 1/256 grid for the middle-fourth pair; frozen
# regression computed by this implementation (criterion 2).
FROZEN_Q8_MIN = 0.99989236797587144


@contextmanager
def criterion(num: int, name: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {num} ({name}): PASS [{elapsed:.1f}s < {limit_s:.0f}s]")
    assert elapsed < limit_s, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_dutkay_jorgensen_example():
    with criterion(1, "Dutkay-Jorgensen {0,1,8,9} at 1/4", 10.0):
        v = classify(F(1, 4), (0, 1, 8, 9))
        assert v.outcome is Outcome.SPECTRAL
        dec = v.certificate.decomposition
        assert (dec.beta, dec.m, dec.t, dec.k, dec.r) == (2, 1, 3, 1, 1)
        assert verify_product_form(v.certificate)

        points = dj_example_spectrum(3)
        assert len(points) == 14
        ev = MuHatEvaluator((0, 1, 8, 9), 4, tolerance=1e-10)
        g = gram_matrix(ev, points)
        off = np.abs(g - np.eye(len(points))).max()
        assert off <= 1e-8, f"max off-diagonal {off}"


def test_criterion_2_jorgensen_pedersen_pair():
    with criterion(2, "Jorgensen-Pedersen pair", 30.0):
        assert classify(F(1, 4), (0, 2)).outcome is Outcome.SPECTRAL
        bad = classify(F(1, 3), (0, 2))
        assert bad.outcome is Outcome.NON_SPECTRAL and bad.reason is Reason.N_ODD

        triple = HadamardTriple(4, (0, 2), (0, 1))
        lam8 = spectrum_truncation(triple, 8)
        assert is_bizero_set(lam8, (0, 2), 4).is_bizero

        ev = MuHatEvaluator((0, 2), 4, tolerance=1e-10)
        grid = [j / 256 for j in range(256)]
        prev = None
        q8 = None
        for level in range(2, 9):
            pts = spectrum_truncation(triple, level)
            vals = q_function(ev, pts, grid)
            assert vals.max() <= 1 + 1e-9
            if prev is not None:
                assert np.all(vals >= prev - 1e-12), f"Q not monotone at level {level}"
            prev = vals
            if level == 8:
                q8 = vals
        assert abs(q8.min() - FROZEN_Q8_MIN) < 1e-9


def test_criterion_3_exhaustive_card4_scan():
    with criterion(3, "exhaustive four-digit scan", 60.0):
        violations = []
        rows = list(run_scan(ScanConfig(4, 15, 2, 10), violations))
        assert not violations, violations[:5]
        spectral = [r for r in rows if r["outcome"] == "Spectral"]
        assert spectral, "scan found no spectral cases"
        # (a) every Spectral certificate verified exactly
        assert all(r["certificate_ok"] == "true" for r in spectral)
        # (b) necessity conditions, recomputed independently of the classifier
        for r in spectral:
            digits = [int(x) for x in r["digits"].split(",")]
            n = r["N"]
            assert n % 2 == 0
            odds = [d for d in digits[1:] if d % 2]
            assert len(odds) == 2
            even = next(d for d in digits[1:] if d % 2 == 0)
            t1 = (even & -even).bit_length() - 1
            diff = max(odds) - min(odds)
            t2 = (diff & -diff).bit_length() - 1
            beta = (n & -n).bit_length() - 1
            assert t1 == t2 and t1 % beta != 0
        # (c) beta = 1 consequence: nothing spectral at N = 2, 6, 10
        assert not [r for r in spectral if r["N"] in (2, 6, 10)]
        # (d) scale-invariance spot checks
        rng = random.Random(2024)
        sets = sorted({r["digits"] for r in rows})
        for _ in range(100):
            digits = [int(x) for x in rng.choice(sets).split(",")]
            n = rng.randint(2, 10)
            c = F(rng.randint(1, 9), rng.randint(1, 9))
            ref = classify(F(1, n), digits)
            got = classify(F(1, n), [c * d for d in digits])
            assert (got.outcome, got.reason) == (ref.outcome, ref.reason)


def _random_gcd1_sets(rng, count, card, bound):
    out = set()
    while len(out) < count:
        rest = tuple(sorted(rng.sample(range(1, bound + 1), card - 1)))
        if math.gcd(*rest) == 1:
            out.add((0, *rest))
    return sorted(out)


def test_criterion_4_zero_set_oracle_equivalence():
    with criterion(4, "zero-set oracle equivalence", 120.0):
        rng = random.Random(41)
        corpora = [
            _random_gcd1_sets(rng, 50, 4, 30),
            _random_gcd1_sets(rng, 20, 3, 30),
            [(0, 1)] * 10,  # every gcd-1 pair reduces to {0,1}
        ]
        checked = 0
        for corpus in corpora:
            for digits in corpus:
                nd = normalize_digits(digits)
                zs = zero_set(nd)
                for q in range(1, 201):
                    ps = np.arange(1, 4 * q + 1)
                    symbolic = zero_set_member_batch(zs, q, ps)
                    cyclotomic = mask_zero_batch(nd.integers, q, ps)
                    assert np.array_equal(symbolic, cyclotomic), (digits, q)
                    checked += len(ps)
        assert checked > 3_000_000


def _scan_certificate_triples(rows):
    """Every Hadamard triple underlying the Spectral rows of a scan."""
    triples = []
    for r in rows:
        if r["outcome"] != "Spectral":
            continue
        digits = tuple(int(x) for x in r["digits"].split(","))
        v = classify(F(1, r["N"]), digits)
        cert = v.certificate
        if isinstance(cert, HadamardTriple):
            t = cert
            triples.append((t.n_ratio, t.digits, t.spectrum))
        else:
            pf = cert
            triples.append((pf.n_ratio, pf.a_set, pf.l1))
            lsum = direct_sum(pf.l1, pf.l2)
            for bs in pf.b_sets:
                triples.append((pf.n_ratio, bs, pf.l2))
                triples.append((pf.n_ratio, direct_sum(pf.a_set, bs), lsum))
    return triples


def test_criterion_5_card2_card3_tables():
    with criterion(5, "two- and three-digit tables", 60.0):
        violations2 = []
        rows2 = list(run_scan(ScanConfig(2, 9, 2, 12), violations2))
        assert not violations2
        for r in rows2:
            assert (r["outcome"] == "Spectral") == (r["N"] % 2 == 0)

        violations3 = []
        rows3 = list(run_scan(ScanConfig(3, 9, 2, 12), violations3))
        assert not violations3
        for r in rows3:
            digits = [int(x) for x in r["digits"].split(",")]
            expected = {digits[1] % 3, digits[2] % 3} == {1, 2} and r["N"] % 3 == 0
            assert (r["outcome"] == "Spectral") == expected, r

        for r in rows2 + rows3:
            if r["outcome"] != "Spectral":
                continue
            digits = tuple(int(x) for x in r["digits"].split(","))
            triple = classify(F(1, r["N"]), digits).certificate
            assert triple.verify()
            assert tiles_zn(triple.digits, r["N"]) is not None, r


def test_criterion_6_hu_lau_criterion():
    with criterion(6, "Hu-Lau infinite bi-zero criterion", 10.0):
        table = [
            (ContractionRatio.rational(F(1, 2)), True),
            (ContractionRatio.rational(F(1, 4)), True),
            (ContractionRatio.rational(F(3, 4)), True),
            (ContractionRatio.root(1, 2, 2), True),
            (ContractionRatio.rational(F(1, 3)), False),
            (ContractionRatio.rational(F(2, 5)), False),
            (ContractionRatio.root(2, 3, 3), False),
        ]
        for rho, expected in table:
            assert hu_lau_infinite_bizero(rho) is expected, rho


def test_criterion_7_exact_float_hadamard_agreement():
    with criterion(7, "exact/float Hadamard agreement", 60.0):
        rows4 = list(run_scan(ScanConfig(4, 15, 2, 10), []))
        rows2 = list(run_scan(ScanConfig(2, 9, 2, 12), []))
        rows3 = list(run_scan(ScanConfig(3, 9, 2, 12), []))
        triples = _scan_certificate_triples(rows4 + rows2 + rows3)
        assert len(triples) > 500
        disagreements = 0
        seen = set()
        for n, d, l in triples:
            # also exercise the negative side with a perturbed spectrum
            for cand in (l, (l[0], *[x + 1 for x in l[1:]])):
                key = (n, d, cand)
                if key in seen or len(set(cand)) != len(cand):
                    continue
                seen.add(key)
                exact = is_hadamard_triple(n, d, cand)
                floaty = unitarity_defect(n, d, cand) < 1e-9
                if exact != floaty:
                    disagreements += 1
        assert disagreements == 0
