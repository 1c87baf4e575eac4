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


def test_search_limit_counts_only_the_degrees_left_open():
    # x^7 + 10000x^6 + x + 1 is irreducible mod 2, so only its two linear
    # candidates count; its whole box holds 1,600,880,110.
    f = MonicIntPolynomial(7, (1, 1, 0, 0, 0, 0, 10000))
    assert is_irreducible_over_z(f).irreducible
    # x^8 + 5040(x^7 + ... + x) + 5039 keeps degrees 2, 3 and 4 at every
    # prime; it is refused before its linear factor x + 1 is tried.
    g = MonicIntPolynomial(8, (5039,) + (5040,) * 7)
    with pytest.raises(FeasibilityError, match="search space exceeded: 6504157436 candidates"):
        is_irreducible_over_z(g)


def test_signed_divisors_match_trial_division_in_order():
    divisors = integer_irreducibility._signed_divisors
    for a0 in range(-300, 301):
        for bound in (*range(25), 100, 299, 300, 301, 10**6):
            assert divisors(a0, bound) == brute_signed_divisors(a0, bound), (a0, bound)
    # 12! = 2^10 3^5 5^2 7 11 and a square: each pairs divisors past sqrt|a0|.
    for a0, bound in ((479_001_600, 10**5), (479_001_600, 21_886), (-1_002_001, 2_000_000)):
        assert divisors(a0, bound) == brute_signed_divisors(a0, bound), (a0, bound)


def test_the_divisor_listing_runs_to_sqrt_a0_only():
    # The seventh admissible polynomial of degree 13 and height 12! has
    # a_6 = 12! - 1 and every other a_i = 12!.  Its Mignotte box lists the
    # divisors of a_0 = 12! up to ||f||_2 > |a_0|: trial division up to
    # |a_0| took 33 s before the box was found too large.
    f = MonicIntPolynomial(13, (479_001_600,) * 6 + (479_001_599,) + (479_001_600,) * 6)
    start = time.process_time()
    with pytest.raises(FeasibilityError, match="search space exceeded"):
        is_irreducible_over_z(f)
    assert time.process_time() - start < 2


def test_witness_type_validation():
    with pytest.raises(ValueError):
        FactorizationWitness("maybe")
    with pytest.raises(ValueError):
        FactorizationWitness("reducible")  # missing factors
    with pytest.raises(ValueError):
        FactorizationWitness(
            "irreducible",
            (MonicIntPolynomial(1, (0,)), MonicIntPolynomial(1, (1,))),
        )
    with pytest.raises(ValueError):
        FactorizationWitness(
            "reducible",
            (MonicIntPolynomial(2, (1, 1)), MonicIntPolynomial(1, (1,))),  # deg g > deg h
        )


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
    box = [part for part in integer_irreducibility._mignotte_box(f) if part[0] == 2]
    w = integer_irreducibility._bounded_factor_search(f, box)
    assert [p.text() for p in w.factors] == ["x^2 - 1", "x^2 + 1"]


def test_degree_sets_leave_13_searches_at_a_5_27(monkeypatch):
    # Of the 4,845 quintics at (5, 27), 2,260 are reducible mod each of
    # 2, 3, 5, 7, 11 and 13.  Every one enters the box search, but the
    # intersected degree sets leave only 13 with a possible quadratic
    # factor, and 1,494 with no factor degree at all, not even 1.
    search = integer_irreducibility._bounded_factor_search
    boxes = []

    def counted(f, box):
        boxes.append([part[0] for part in box])
        return search(f, box)

    monkeypatch.setattr(integer_irreducibility, "_bounded_factor_search", counted)
    assert count_admissible_irreducible(5, 27) == 4844
    assert len(boxes) == 4845
    assert sum(max(box, default=0) >= 2 for box in boxes) == 13
    assert sum(not box for box in boxes) == 1494


def test_linear_candidates_are_divided_only_where_bit_1_is_open(monkeypatch):
    # At (5, 27) the degree sets rule out x + b for most quintics, so the
    # box search makes 5,493 long divisions; trying every linear
    # candidate made 23,862.  The mod-p lookups stay at 16,638.
    calls = {"_divmod_by_monic": 0, "_irreducible_mod": 0}
    for name in calls:
        original = getattr(integer_irreducibility, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(integer_irreducibility, name, counted)
    assert count_admissible_irreducible(5, 27) == 4844
    assert calls == {"_divmod_by_monic": 5493, "_irreducible_mod": 16638}


def test_verdicts_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    polys = [
        *(MonicIntPolynomial(3, c) for c in itertools.product(range(-3, 4), repeat=3)),
        *(MonicIntPolynomial(4, c) for c in itertools.product(range(-2, 3), repeat=4)),
        *enumerate_admissible(5, 10),
    ]
    for f in polys:
        want = sympy.Poly(f.all_coefficients()[::-1], x).is_irreducible
        assert is_irreducible_over_z(f).irreducible == want, f
