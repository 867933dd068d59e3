import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmspec.classify import Outcome, classify
from ssmspec.cli import ScanConfig, enumerate_digit_sets, run_scan
from ssmspec.exact import InternalInconsistency, InvalidInput, Unsupported, as_digit, four_digit_shape, parse_digit
from ssmspec.hadamard import (
    HADAMARD_CACHE_SIZE,
    MAX_SEARCH_N,
    HadamardTriple,
    ProductForm,
    StructureDecomposition,
    construct_product_form,
    direct_sum,
    find_spectrum_set,
    is_hadamard_triple,
    _is_hadamard,
    tiles_zn,
    verify_product_form,
)
from ssmspec.numerics import unitarity_defect
from ssmspec.zeros import _vanishes_at, mask_value


@pytest.mark.parametrize(
    "n,d,l,expected",
    [
        (4, (0, 1), (0, 2), True),
        (4, (0, 2), (0, 2), False),
        (2, (0, 1), (0, 1), True),
        (4, (0, 1, 2, 3), (0, 1, 2, 3), True),
        (6, (0, 1, 2), (0, 2, 4), True),
        (6, (0, 1, 2), (0, 1, 2), False),
    ],
)
def test_is_hadamard_examples(n, d, l, expected):
    assert is_hadamard_triple(n, d, l) is expected


@pytest.fixture
def cold_hadamard_memo():
    """For tests that patch `_vanishes_at`: the memo of `_is_hadamard` starts
    empty, so no answer is read warm, and keeps none of the patched answers."""
    _is_hadamard.cache_clear()
    yield
    _is_hadamard.cache_clear()


def test_is_hadamard_validation():
    with pytest.raises(InvalidInput):
        is_hadamard_triple(4, (0, 1), (0, 1, 2))
    with pytest.raises(InvalidInput):
        is_hadamard_triple(4, (0, 0), (0, 1))


@pytest.mark.parametrize(
    "call",
    [
        lambda: is_hadamard_triple(4, (0, 2.7), (0, 1)),
        lambda: is_hadamard_triple(4, (0, 2), (0, 1.0)),
        lambda: find_spectrum_set(4, (0, F(5, 2))),
        lambda: HadamardTriple(4, (0, 2), (0, F(3, 2))),
        lambda: is_hadamard_triple(4, (), ()),
        lambda: is_hadamard_triple(4, (0, parse_digit("t")), (0, 1)),
        lambda: tiles_zn((), 4),
    ],
    ids=["float-digit", "float-point", "half-digit", "half-point", "empty", "t-digit", "empty-tile"],
)
def test_non_integer_or_empty_sets_are_refused(call):
    with pytest.raises(InvalidInput):
        call()


def test_digit_objects_answer_like_ints():
    digits = tuple(map(as_digit, [0, 1]))
    for n, l in ((4, (0, 2)), (4, (0, 1)), (2, (0, 1))):
        assert is_hadamard_triple(n, digits, l) == is_hadamard_triple(n, (0, 1), l)
    assert find_spectrum_set(4, digits) == find_spectrum_set(4, (0, 1)) == (0, 2)
    assert HadamardTriple(4, digits, (0, F(2))).digits == (0, 1)


def test_hadamard_implies_card_bound():
    # a spectrum set cannot be larger than N: exhaust small cases
    for n in range(2, 7):
        for k in range(1, n + 2):
            for d in itertools.combinations(range(8), k):
                if 0 not in d:
                    continue
                l = find_spectrum_set(n, d)
                if l is not None:
                    assert is_hadamard_triple(n, d, l)
                    assert len(d) <= n


@pytest.mark.parametrize(
    "n,d,expected",
    [(4, (0, 2), (0, 1)), (4, (0, 1), (0, 2)), (3, (0, 1), None), (4, (0, 1, 8, 9), None)],
)
def test_find_spectrum_examples(n, d, expected):
    assert find_spectrum_set(n, d) == expected


def test_find_spectrum_lexicographic_minimality():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 10)
        card = rng.randint(2, min(4, n))
        d = (0, *sorted(rng.sample(range(1, 16), card - 1)))
        found = find_spectrum_set(n, d)
        brute = None
        for combo in itertools.combinations(range(1, n), card - 1):
            if is_hadamard_triple(n, d, (0, *combo)):
                brute = (0, *combo)
                break
        assert found == brute


@pytest.mark.parametrize(
    "n,d,expected",
    [
        (1018, (0, 1), (0, 509)),
        (1018, (0, 3), (0, 509)),
        (1018, (0, 1, 2), None),
        (1020, (0, 3), (0, 170)),
        (1020, (0, 1, 2), (0, 340, 680)),
        (1020, (0, 1, 2, 3), (0, 255, 510, 765)),
        (1020, (0, 1, 8, 9), None),
    ],
)
def test_find_spectrum_above_512(n, d, expected):
    found = find_spectrum_set(n, d)
    assert found == expected
    if found is not None:
        assert is_hadamard_triple(n, d, found)
        assert unitarity_defect(n, d, found) < 1e-9


@pytest.mark.usefixtures("cold_hadamard_memo")
def test_find_spectrum_refuses_n_above_the_cap(monkeypatch):
    assert find_spectrum_set(MAX_SEARCH_N, (0, 1)) == (0, MAX_SEARCH_N // 2)

    def no_work(*args):
        raise AssertionError("search table built")

    monkeypatch.setattr("ssmspec.hadamard._vanishes_at", no_work)
    for n in (MAX_SEARCH_N + 1, 40_000_000):
        with pytest.raises(InvalidInput, match="search cap"):
            find_spectrum_set(n, (0, 1))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: is_hadamard_triple(4, (0, 2), (0, 0)), "duplicate spectrum points"),
        (lambda: HadamardTriple(4, (0, 2), (1, 1)), "duplicate spectrum points"),
        (lambda: unitarity_defect(4, (0, 2), (1, 1)), "duplicate spectrum points"),
        (lambda: ProductForm(4, (0, 1), ((0, 2), (0, 2)), (0, 0), (0, 1)), "duplicate spectrum points"),
        (lambda: ProductForm(4, (0, 1), ((0, 2), (0, 2)), (0, 2), (1, F(2, 2))), "duplicate spectrum points"),
        (lambda: is_hadamard_triple(4, (0,), ()), "spectrum is empty"),
        (lambda: HadamardTriple(4, (0, 2), ()), "spectrum is empty"),
        (lambda: unitarity_defect(4, (0, 2), ()), "spectrum is empty"),
        (lambda: ProductForm(4, (0, 1), ((0, 2), (0, 2)), (0, 2), ()), "spectrum is empty"),
        (lambda: is_hadamard_triple(4, (0, 0), (0, 0)), "duplicate digits"),
        (lambda: HadamardTriple(4, (), (0,)), "digit set is empty"),
    ],
)
def test_spectrum_points_are_refused_as_points(call, message):
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: HadamardTriple(4, (0, 2), (0, 1, 2)), InvalidInput, "digit and spectrum sets must have equal size"),
        (lambda: unitarity_defect(4, (0, 2), (0, 1, 2)), InvalidInput, "digit and spectrum sets must have equal size"),
        (lambda: ProductForm(4, (0, 1), ((0, 2),), (0, 2), (0, 1)), InvalidInput, "need one B block per element of A"),
        (lambda: ProductForm(4, (0, 1), ((0, 2), (0, 2)), (0,), (0, 1)), InvalidInput, "A and L1 must have equal size"),
        (
            lambda: ProductForm(4, (0, 1), ((0, 2), (0, 2, 4)), (0, 2), (0, 1)),
            InvalidInput,
            "each B block and L2 must have equal size",
        ),
    ],
    ids=["triple", "unitarity", "b-blocks", "a-and-l1", "b-and-l2"],
)
def test_each_refusal_raises_its_message(call, error, message):
    # A product form of a bad shape is refused when it is built, so that
    # verify_product_form can answer False on every form there is.
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_the_scan_checks_each_distinct_triple_once():
    # The bound-30 four-digit scan's 8,030 certificates make 40,150 pairing
    # checks of 3,160 distinct triples, all of which the memo holds at once.
    _is_hadamard.cache_clear()
    violations = []
    for _ in run_scan(ScanConfig(4, 30, 2, 64), violations):
        pass
    info = _is_hadamard.cache_info()
    assert not violations
    assert (info.misses, info.hits) == (3160, 36990)
    assert info.currsize <= info.maxsize == HADAMARD_CACHE_SIZE


@st.composite
def pairing_checks(draw):
    """Calls of `_is_hadamard` on its stored form, drawn from a small pool so
    that triples repeat; some have #D != #L."""
    points = st.integers(-40, 40)

    def point_set(size):
        return st.lists(points, min_size=size, max_size=size, unique=True).map(tuple)

    sizes = st.integers(1, 4)
    pool = draw(
        st.lists(
            st.tuples(st.integers(2, 40), sizes, sizes, st.booleans()).flatmap(
                lambda t: st.tuples(st.just(t[0]), point_set(t[1]), point_set(t[1] if t[3] else t[2]))
            ),
            min_size=1,
            max_size=6,
        )
    )
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))


@settings(max_examples=200, deadline=None)
@given(pairing_checks())
def test_memoized_answers_are_the_pairing_rule(calls):
    _is_hadamard.cache_clear()
    for n, d, l in calls:
        if len(d) != len(l):  # raised on every call: a refusal is not kept
            with pytest.raises(InvalidInput, match="must agree"):
                _is_hadamard(n, d, l)
        else:
            assert _is_hadamard(n, d, l) is _is_hadamard.__wrapped__(n, d, l)
    assert _is_hadamard.cache_info().currsize == len({c for c in calls if len(c[1]) == len(c[2])})


def test_five_digit_triple_above_512_is_unsupported():
    with pytest.raises(Unsupported):
        is_hadamard_triple(1021, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4))
    assert is_hadamard_triple(5, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4))


def dec_0189():
    return StructureDecomposition(a=1, t=3, ell=1, ell_prime=1, beta=2, m=1)


def test_construct_product_form_dj():
    pf = construct_product_form(dec_0189())
    assert pf.a_set == (0, 1)
    assert pf.b_sets == ((0, 2), (0, 2))
    assert pf.l1 == (0, 2)
    assert pf.l2 == (0, 1)
    assert verify_product_form(pf)
    assert pf.reconstruct_digits() == (0, 1, 8, 9)


def test_construct_product_form_0123():
    dec = StructureDecomposition(a=1, t=1, ell=1, ell_prime=1, beta=2, m=1)
    pf = construct_product_form(dec)
    assert pf.a_set == (0, 1) and pf.b_sets == ((0, 2), (0, 2))
    assert pf.l1 == (0, 2) and pf.l2 == (0, 1)
    assert verify_product_form(pf)


def _oracle_product_form(dec, n):
    """The former L2 search: candidates {0, l} in increasing l, the first
    fully verified product form wins."""
    a_set = (0, dec.a * dec.m**dec.k)
    b_sets = ((0, (1 << dec.r) * dec.ell), (0, (1 << dec.r) * dec.ell_prime))
    for cand in range(1, n):
        if not all(_vanishes_at(bs, cand, n) for bs in b_sets):
            continue
        pf = ProductForm(n, a_set, b_sets, (0, n // 2), (0, cand))
        if verify_product_form(pf):
            return pf
    raise InternalInconsistency(f"no verifiable product form for {dec.to_json()} at N={n}")


# The four-digit sets up to bound 15 that are Spectral at some N: two odd
# digits a < c and an even b with the valuations of b and c - a equal (t).
SPECTRAL_SETS = [
    (d, shape.t1)
    for d in enumerate_digit_sets(4, 15)
    if (shape := four_digit_shape(d)) is not None and shape.t1 == shape.t2
]


@st.composite
def spectral_rows(draw):
    # Spectral exactly when N = 2**beta * m (m odd) and beta does not divide t.
    digits, t = draw(st.sampled_from(SPECTRAL_SETS))
    beta = draw(st.integers(2, 12).filter(lambda b: t % b))
    m = 2 * draw(st.integers(0, ((4096 >> beta) - 1) // 2)) + 1
    return digits, (1 << beta) * m


@settings(max_examples=150, deadline=None)
@given(spectral_rows())
def test_product_form_l2_equals_the_search(row):
    digits, n = row
    v = classify(F(1, n), digits)
    assert v.outcome is Outcome.SPECTRAL
    cert = v.certificate
    assert _oracle_product_form(cert.decomposition, n) == cert


@pytest.mark.usefixtures("cold_hadamard_memo")
def test_product_form_work_does_not_grow_with_n(monkeypatch):
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _vanishes_at(*args)

    monkeypatch.setattr("ssmspec.hadamard._vanishes_at", counted)
    v = classify(F(1, 4000004), (0, 1, 2, 3))
    assert v.certificate.l2 == (0, 1000001)
    assert calls < 32  # the verification's pair tests only; the search made 1,000,017


def test_product_form_bad_l2_fails():
    good = construct_product_form(dec_0189())
    bad = ProductForm(good.n_ratio, good.a_set, good.b_sets, good.l1, (0, 4))
    assert not verify_product_form(bad)


@pytest.mark.parametrize(
    "a_set,b_sets,l1,l2",
    [
        ((0, 8), ((0, 2), (0, 2)), (0, 2), (0, 1)),  # the blocks a + N*B_a collide
        ((0, 1), ((0, 2), (0, 2)), (0, 1), (0, 1)),  # (N, A, L1) is not Hadamard
        ((0, 1), ((0, 2), (0, 2)), (0, 2), (0, 2)),  # L1 (+) L2 collides
        ((0, 1), ((0, 1), (0, 1)), (0, 2), (0, 6)),  # A (+) B_a collides
        ((0, 1), ((0, 3), (0, 3)), (0, 2), (0, 6)),  # (N, A (+) B_a, L1 (+) L2) is not Hadamard
    ],
)
def test_verify_product_form_fails_each_broken_condition(a_set, b_sets, l1, l2):
    assert not verify_product_form(ProductForm(4, a_set, b_sets, l1, l2))


def test_product_form_degenerate_is_plain_triple():
    l = find_spectrum_set(4, (0, 1, 2, 3))
    pf = ProductForm(4, (0,), ((0, 1, 2, 3),), (0,), l)
    assert verify_product_form(pf)
    pf_bad = ProductForm(4, (0,), ((0, 1, 2, 5),), (0,), l)
    assert verify_product_form(pf_bad) == is_hadamard_triple(4, (0, 1, 2, 5), l)


def test_structure_decomposition_validation():
    with pytest.raises(InvalidInput, match="must be positive odd integers"):
        construct_product_form(StructureDecomposition(a=2, t=3, ell=1, ell_prime=1, beta=2, m=1))
    for t, beta in ((2, 2), (3, 1), (0, 2), (3, 0)):
        with pytest.raises(InvalidInput, match="with beta not dividing t"):
            construct_product_form(StructureDecomposition(a=1, t=t, ell=1, ell_prime=1, beta=beta, m=1))
    dec = dec_0189()
    assert dec.n_ratio == 4
    assert (dec.k, dec.r) == (1, 1)
    assert list(StructureDecomposition(a=1, t=7, ell=1, ell_prime=1, beta=3, m=5).to_json().items()) == [
        ("a", 1), ("t", 7), ("ell", 1), ("ell_prime", 1), ("beta", 3), ("m", 5), ("k", 2), ("r", 1)
    ]


def test_direct_sum():
    assert direct_sum((0, 1), (0, 2)) == (0, 1, 2, 3)
    assert direct_sum((0, 2), (0, 2)) is None


@pytest.mark.parametrize(
    "c,n,expected",
    [((0, 1), 4, (0, 2)), ((0, 1, 2), 6, (0, 3)), ((0, 2), 4, (0, 1)), ((0, 1), 3, None)],
)
def test_tiles_zn_examples(c, n, expected):
    assert tiles_zn(c, n) == expected


def test_tiles_zn_output_is_a_tiling():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(2, 16)
        divisors = [d for d in (2, 3, 4) if n % d == 0]
        if not divisors:
            continue
        card = rng.choice(divisors)
        c = (0, *sorted(rng.sample(range(1, 20), card - 1)))
        b = tiles_zn(c, n)
        if b is None:
            continue
        sums = [(x + y) % n for x in c for y in b]
        assert sorted(sums) == list(range(n)), (c, n, b)


def test_tiles_zn_deep_search_and_cap():
    b = tiles_zn((0, 1), 4096)
    assert b == tuple(range(0, 4096, 2))
    with pytest.raises(InvalidInput):
        tiles_zn((0, 1), MAX_SEARCH_N + 2)


def test_tiles_zn_existence_matches_brute_force():
    for n in (4, 6, 8):
        for c in itertools.combinations(range(n), 3):
            if 0 not in c or n % 3:
                continue
            found = tiles_zn(c, n) is not None
            brute = any(
                sorted((x + y) % n for x in c for y in (0, *combo)) == list(range(n))
                for combo in itertools.combinations(range(1, n), n // 3 - 1)
            )
            assert found == brute, (c, n)


def test_mask_factorizes_over_direct_sums():
    # sanity for the product-form verification: masks of direct sums multiply
    a, b = (0, 3), (0, 4, 8)
    s = direct_sum(a, b)
    for xi in (F(1, 5), F(3, 8), F(7, 12)):
        va = mask_value(a, xi)
        vb = mask_value(b, xi)
        vs = mask_value(s, xi)
        assert vs.is_zero == (va.is_zero or vb.is_zero)
