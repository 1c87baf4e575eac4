import functools
import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissible import integer_irreducibility
from admissible.errors import FeasibilityError
from admissible.integer_irreducibility import (
    FACTOR_DEGREE_PRIMES,
    FactorizationWitness,
    count_admissible_irreducible,
    is_irreducible_over_z,
)
from admissible.polynomials import (
    MonicIntPolynomial,
    count_admissible_exact,
    enumerate_admissible,
)

from oracles import (
    brute_signed_divisors,
    first_box_divisor,
    is_irreducible_trial_division,
    multiply_monic,
    oracle_is_irreducible_over_z,
)


def test_witness_anchors():
    w = is_irreducible_over_z(MonicIntPolynomial(3, (1, 2, 2)))
    assert w.status == "reducible"
    g, h = w.factors
    assert g.text() == "x + 1"
    assert h.text() == "x^2 + x + 1"

    assert is_irreducible_over_z(MonicIntPolynomial(3, (1, 3, 1))).irreducible
    assert is_irreducible_over_z(MonicIntPolynomial(2, (1, 0))).irreducible  # x^2+1

    w = is_irreducible_over_z(MonicIntPolynomial(4, (0, 0, 0, 0)))
    assert w.status == "reducible"
    assert w.factors[0].text() == "x"
    assert w.factors[1].text() == "x^3"


def test_degree_one_always_irreducible():
    for a0 in range(-5, 6):
        assert is_irreducible_over_z(MonicIntPolynomial(1, (a0,))).irreducible


def test_witnesses_multiply_back():
    # Every reducible verdict must reproduce f exactly.
    for h in range(0, 9):
        for f in _admissible_polys(4, h):
            w = is_irreducible_over_z(f)
            if w.status == "reducible":
                g, cof = w.factors
                assert multiply_monic(g, cof).coeffs == f.coeffs
                assert g.degree + cof.degree == f.degree


def _admissible_polys(n, h):
    return enumerate_admissible(n, h)


def test_exhaustive_agreement_with_factor_pair_oracle_cubic():
    for coeffs in itertools.product(range(0, 7), repeat=3):
        f = MonicIntPolynomial(3, coeffs)
        got = is_irreducible_over_z(f).irreducible
        want = oracle_is_irreducible_over_z(list(f.all_coefficients()))
        assert got == want, coeffs


@given(coeffs=st.tuples(*[st.integers(0, 10)] * 4))
@settings(max_examples=120, deadline=None)
def test_quartic_agreement_with_factor_pair_oracle(coeffs):
    f = MonicIntPolynomial(4, coeffs)
    assert is_irreducible_over_z(f).irreducible == oracle_is_irreducible_over_z(
        list(f.all_coefficients())
    )


@given(
    coeffs=st.lists(st.integers(-8, 8), min_size=2, max_size=5),
    p=st.sampled_from(FACTOR_DEGREE_PRIMES),
)
@settings(max_examples=150, deadline=None)
def test_never_contradicts_mod_p_irreducibility(coeffs, p):
    f = MonicIntPolynomial(len(coeffs), tuple(coeffs))
    if is_irreducible_trial_division([c % p for c in f.all_coefficients()], p):
        assert is_irreducible_over_z(f).irreducible


def test_count_admissible_irreducible_anchors():
    # Golden values confirmed by the unpruned factor-pair oracle.
    assert count_admissible_irreducible(3, 1) == 0
    assert count_admissible_irreducible(3, 2) == 0
    assert count_admissible_irreducible(3, 6) == 10


def test_count_bounded_by_census():
    for h in range(0, 7):
        assert count_admissible_irreducible(3, h) <= count_admissible_exact(3, h)


def test_search_limit_is_inclusive(monkeypatch):
    # (x + 1)(x^2 + x + 1): the box has two candidates, x - 1 and x + 1
    # (a_0 = 1, one linear factor), and it is counted before either is tried.
    f = MonicIntPolynomial(3, (1, 2, 2))
    monkeypatch.setattr(integer_irreducibility, "SEARCH_LIMIT", 2)
    assert is_irreducible_over_z(f).factors[0].text() == "x + 1"
    monkeypatch.setattr(integer_irreducibility, "SEARCH_LIMIT", 1)
    with pytest.raises(FeasibilityError, match="search space exceeded: 2 candidates exceed limit 1"):
        is_irreducible_over_z(f)


@pytest.mark.parametrize("coeffs, outcomes", [
    # x^3 + x + 3 has only degree 1 open: one tail per constant term, then
    # the four divisors of 3.
    ((3, 1, 0), ["1 trial divisions of a_0", "2 candidates", "4 candidates", "4 candidates", None]),
    # x^4 + 4x + 3 = (x + 1)(x^3 - x^2 + x + 3) has degrees 1 and 2 open:
    # degree 1's tail is counted first, then degree 2's 15 (||f||_2 rounds
    # up to 6, so |b_1| <= 7), so the -1, 1 candidates number 32.
    ((3, 4, 0, 0), ["1 trial divisions of a_0", "2 candidates", "32 candidates",
                    "32 candidates", "32 candidates"]),
])
def test_search_limit_checks_keep_their_order(monkeypatch, coeffs, outcomes):
    f = MonicIntPolynomial(len(coeffs), coeffs)
    for limit, outcome in enumerate(outcomes):
        monkeypatch.setattr(integer_irreducibility, "SEARCH_LIMIT", limit)
        if outcome is None:
            assert is_irreducible_over_z(f).irreducible
        else:
            with pytest.raises(FeasibilityError,
                               match=f"search space exceeded: {outcome} exceed limit {limit}$"):
                is_irreducible_over_z(f)


def test_search_limit_counts_only_the_degrees_left_open(monkeypatch):
    # x^7 + 10000x^6 + x + 1 is irreducible mod 2, so no degree is open
    # and no candidate counts, not even its two linear ones; its whole
    # box holds 1,600,880,110.
    f = MonicIntPolynomial(7, (1, 1, 0, 0, 0, 0, 10000))
    assert is_irreducible_over_z(f).irreducible
    # x^8 + 5040(x^7 + ... + x) + 5039 keeps degrees 2, 3 and 4 at every
    # prime; it is refused before its linear factor x + 1 is tried.  Its
    # candidates of degree <= 3 with constant term -1 or 1 already number
    # 3,252,078,718, half of those with the four divisors of 5039.
    g = MonicIntPolynomial(8, (5039,) + (5040,) * 7)
    with pytest.raises(FeasibilityError, match="search space exceeded: 3252078718 candidates"):
        is_irreducible_over_z(g)
    # With no open degree, f counts no candidate, so even a limit of 0 passes it.
    monkeypatch.setattr(integer_irreducibility, "SEARCH_LIMIT", 0)
    assert is_irreducible_over_z(f).irreducible


def test_signed_divisors_match_trial_division_in_order():
    divisors = integer_irreducibility._signed_divisors
    for a0 in range(-300, 301):
        for bound in (*range(25), 100, 299, 300, 301, 10**6):
            assert divisors(a0, bound) == brute_signed_divisors(a0, bound), (a0, bound)
    # 12! = 2^10 3^5 5^2 7 11 and a square: each pairs divisors past sqrt|a0|.
    for a0, bound in ((479_001_600, 10**5), (479_001_600, 21_886), (-1_002_001, 2_000_000)):
        assert divisors(a0, bound) == brute_signed_divisors(a0, bound), (a0, bound)


def test_the_divisor_listing_runs_to_sqrt_a0_only(monkeypatch):
    # The seventh admissible polynomial of degree 13 and height 12! has
    # a_6 = 12! - 1 and every other a_i = 12!.  Its Mignotte box lists the
    # divisors of a_0 = 12! up to ||f||_2 > |a_0|: trial division up to
    # |a_0| took 33 s before the box was found too large.  Its degree
    # sets leave only degree 3, so only cubic candidates count, and those
    # with constant term -1 or 1 already refuse it before any listing.
    f = MonicIntPolynomial(13, (479_001_600,) * 6 + (479_001_599,) + (479_001_600,) * 6)
    start = time.process_time()
    message = "search space exceeded: 47724046922174233590 candidates "
    with pytest.raises(FeasibilityError, match=message):
        is_irreducible_over_z(f)
    assert time.process_time() - start < 2
    # Under a limit of 10^20 those 4.77e19 pass, so the 21,886 trial
    # divisions up to sqrt(12!) run, and the 1,584 divisors of 12! then
    # refuse the box: the listing itself must stay well inside 2 s.
    listed = []
    signed_divisors = integer_irreducibility._signed_divisors
    monkeypatch.setattr(integer_irreducibility, "_signed_divisors",
                        lambda a0, bound: listed.append(a0) or signed_divisors(a0, bound))
    monkeypatch.setattr(integer_irreducibility, "SEARCH_LIMIT", 10**20)
    start = time.process_time()
    message = "search space exceeded: 37797445162361993003280 candidates "
    with pytest.raises(FeasibilityError, match=message):
        is_irreducible_over_z(f)
    assert time.process_time() - start < 2
    assert listed == [479_001_600]


def test_a_box_too_large_with_unit_constant_terms_lists_no_divisor(monkeypatch):
    # (x^2 + 2)(x^2 + x + 3) leaves only degree 2 open.  ||f||_2 rounds up
    # to 9, so b_1 has 21 values: 42 candidates with b_0 = -1 or 1, which
    # divide every a_0, and 168 with the 8 divisors of 6 up to 9.
    f = MonicIntPolynomial(4, (6, 2, 5, 1))
    listed = []
    signed_divisors = integer_irreducibility._signed_divisors
    monkeypatch.setattr(integer_irreducibility, "_signed_divisors",
                        lambda a0, bound: listed.append(a0) or signed_divisors(a0, bound))
    monkeypatch.setattr(integer_irreducibility, "SEARCH_LIMIT", 41)
    with pytest.raises(FeasibilityError, match="search space exceeded: 42 candidates exceed limit 41"):
        is_irreducible_over_z(f)
    assert listed == []
    monkeypatch.setattr(integer_irreducibility, "SEARCH_LIMIT", 167)
    with pytest.raises(FeasibilityError, match="search space exceeded: 168 candidates exceed limit 167"):
        is_irreducible_over_z(f)
    assert listed == [6]
    monkeypatch.setattr(integer_irreducibility, "SEARCH_LIMIT", 168)
    assert is_irreducible_over_z(f).factors[0].text() == "x^2 + 2"


def test_the_divisor_listing_is_bounded_before_it_starts():
    # x^2 + x + 10^20 + 1 leaves degree 1 open, and listing the divisors of
    # its a_0 takes 10^10 trial divisions (10^16 + 1 took 3.4 s), past
    # SEARCH_LIMIT: it is refused before the first one.
    f = MonicIntPolynomial(2, (10**20 + 1, 1))
    start = time.process_time()
    message = "search space exceeded: 10000000000 trial divisions of a_0 exceed limit"
    with pytest.raises(FeasibilityError, match=message):
        is_irreducible_over_z(f)
    assert time.process_time() - start < 1


def test_witness_type_validation():
    assert FactorizationWitness().status == "irreducible"
    assert FactorizationWitness().irreducible
    reducible = FactorizationWitness((MonicIntPolynomial(1, (1,)), MonicIntPolynomial(1, (1,))))
    assert reducible.status == "reducible"
    assert not reducible.irreducible
    with pytest.raises(ValueError):
        FactorizationWitness(
            (MonicIntPolynomial(2, (1, 1)), MonicIntPolynomial(1, (1,))),  # deg g > deg h
        )


def _times(*factors):
    # The product of monic polynomials given by their ascending coefficient
    # tuples, leading 1 left out.
    polys = [MonicIntPolynomial(len(coeffs), tuple(coeffs)) for coeffs in factors]
    return functools.reduce(multiply_monic, polys)


def _linear_factor_grid():
    # Polynomials rich in linear factors: (x + b)g for b = +-1..+-12 and
    # signed cubic and quartic g, among them every f with f(1) = 0 or
    # f(-1) = 0; a_0 in {720, -5040}, with many divisors to try; and
    # repeated roots, such as (x + 2)^2 (x^2 + 1).  Those with a_0 = 0 are
    # left out.
    signs = range(-1, 2)
    polys = [
        *(_times((b,), g) for b in (*range(-12, 0), *range(1, 13))
          for g in (*itertools.product(range(-2, 3), repeat=3),
                    *itertools.product(signs, repeat=4))),
        *(_times((a0, a1, a2)) for a0 in (720, -5040) for a1 in range(-3, 4)
          for a2 in range(-3, 4)),
        *(_times((d,), (a0 // d, -1, 1)) for a0 in (720, -5040)
          for d in (-12, -7, -6, -5, -1, 1, 2, 3, 8, 10, 12) if a0 % d == 0),
        *(_times((-1,), (1,), g) for g in itertools.product(signs, repeat=3)),
        *(_times((b,), (b,), g) for b in (-4, -3, -2, -1, 1, 2, 3, 4)
          for g in ((1, 0), (1, 1), (-2, 0), (3,), (-2, 0, 0), (b,))),
    ]
    return [f for f in polys if f.coeffs[0]]


def _first_divisor(f):
    w = is_irreducible_over_z(f)
    return None if w.irreducible else w.factors[0].coeffs


def test_witnesses_are_the_first_divisor_of_the_whole_box():
    # The degree sets and the g(1), g(-1) rules only skip non-divisors,
    # so the witness is the first divisor of the unpruned box.  The
    # quintic grid holds 2,500 polynomials with a_0 != 0, 688 reducible.
    polys = [
        *enumerate_admissible(4, 12),
        *(MonicIntPolynomial(3, c) for c in itertools.product(range(-4, 5), repeat=3)),
        *(MonicIntPolynomial(4, c) for c in itertools.product(range(-2, 3), repeat=4)),
        *(MonicIntPolynomial(5, c) for c in itertools.product(range(-2, 3), repeat=5)),
    ]
    for f in polys:
        if f.coeffs[0]:
            assert _first_divisor(f) == first_box_divisor(list(f.all_coefficients())), f


def test_roots_are_the_first_divisors_of_the_whole_box():
    # The root test against the unpruned box, where linear factors abound.
    # Each witness also multiplies back to f.
    grid = _linear_factor_grid()
    assert len(grid) == 3881
    reducible = 0
    for f in grid:
        w = is_irreducible_over_z(f)
        full = list(f.all_coefficients())
        assert (None if w.irreducible else w.factors[0].coeffs) == first_box_divisor(full), f
        if not w.irreducible:
            reducible += 1
            assert multiply_monic(*w.factors) == f
    assert reducible == 3786


def test_roots_at_one_and_minus_one():
    # f(1) = 0 or f(-1) = 0 constrains nothing; the linear factor comes first.
    for coeffs, g, h in (
        ((-1, 0, 0), "x - 1", "x^2 + x + 1"),
        ((1, 0, 0), "x + 1", "x^2 - x + 1"),
        ((-1, 0, 0, 0), "x - 1", "x^3 + x^2 + x + 1"),
    ):
        w = is_irreducible_over_z(MonicIntPolynomial(len(coeffs), coeffs))
        assert [p.text() for p in w.factors] == [g, h]


def test_quadratic_factors_when_f_vanishes_at_one_and_minus_one():
    # x^4 - 1 searched at degree 2 only: g(1) ranges over the whole box,
    # and the first quadratic divisor in box order is x^2 - 1.
    f = MonicIntPolynomial(4, (-1, 0, 0, 0))
    w = integer_irreducibility._bounded_factor_search(f, 1 << 2)
    assert [p.text() for p in w.factors] == ["x^2 - 1", "x^2 + 1"]


def test_degree_sets_leave_13_searches_at_a_5_27(monkeypatch):
    # Of the 4,845 quintics at (5, 27), 2,260 are reducible mod each of
    # 2, 3, 5, 7, 11 and 13.  Every one enters the box search, but the
    # intersected degree sets leave only 13 with a possible quadratic
    # factor, and 1,494 with no factor degree at all, not even 1.
    search = integer_irreducibility._bounded_factor_search
    masks = []

    def counted(f, degrees):
        masks.append(degrees)
        return search(f, degrees)

    monkeypatch.setattr(integer_irreducibility, "_bounded_factor_search", counted)
    assert count_admissible_irreducible(5, 27) == 4844
    assert len(masks) == 4845
    assert sum(degrees >= 4 for degrees in masks) == 13
    assert sum(not degrees for degrees in masks) == 1494


def test_only_roots_and_quadratic_candidates_are_divided_at_a_5_27(monkeypatch):
    # At (5, 27) x + b is tried by evaluating f(-b), and only x + 23, the
    # one linear factor found, is divided out for its cofactor; the other
    # 507 long divisions are quadratic candidates of the 13 searches with
    # degree 2 open.  Dividing by each linear candidate with g(1) | f(1) and
    # g(-1) | f(-1) made 5,493, and by every one 23,862.  The mod-p
    # lookups stay at 16,638.  The 1,494 quintics with no open degree list
    # no divisors of a_0: the other searches and the g(1) values of the 13
    # quadratic ones make 3,364 listings, where building every box made 4,858.
    calls = {"_divmod_by_monic": 0, "_irreducible_mod": 0, "_signed_divisors": 0}
    for name in calls:
        original = getattr(integer_irreducibility, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(integer_irreducibility, name, counted)
    assert count_admissible_irreducible(5, 27) == 4844
    assert calls == {"_divmod_by_monic": 508, "_irreducible_mod": 16638, "_signed_divisors": 3364}


def test_linear_candidates_skip_the_signs_f_rules_out():
    # x^3 - 2x^2 + x - 2 = (x - 2)(x^2 + 1), and its mirror image
    # x^3 + 2x^2 + x + 2 = (x + 2)(x^2 + 1): each finds its own linear
    # factor, not the other's.  x^2 + 3 has no real root, so no x + b
    # divides it.
    w = is_irreducible_over_z(MonicIntPolynomial(3, (-2, 1, -2)))
    assert [g.text() for g in w.factors] == ["x - 2", "x^2 + 1"]
    w = is_irreducible_over_z(MonicIntPolynomial(3, (2, 1, 2)))
    assert [g.text() for g in w.factors] == ["x + 2", "x^2 + 1"]
    assert is_irreducible_over_z(MonicIntPolynomial(2, (3, 0))).irreducible


def test_verdicts_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    polys = [
        *(MonicIntPolynomial(3, c) for c in itertools.product(range(-3, 4), repeat=3)),
        *(MonicIntPolynomial(4, c) for c in itertools.product(range(-2, 3), repeat=4)),
        *enumerate_admissible(5, 10),
        *_linear_factor_grid(),
    ]
    for f in polys:
        want = sympy.Poly(f.all_coefficients()[::-1], x).is_irreducible
        assert is_irreducible_over_z(f).irreducible == want, f
