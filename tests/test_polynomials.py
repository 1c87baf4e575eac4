import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissible import polynomials
from admissible.errors import FeasibilityError
from admissible.polynomials import (
    MonicIntPolynomial,
    audit_bounds,
    claimed_lower_bound,
    claimed_upper_bound,
    count_admissible_exact,
    enumerate_admissible,
    is_admissible,
    poly_text,
    target_sum,
)

from oracles import brute_admissible_vectors


def test_is_admissible_anchors():
    assert is_admissible((1, 2, 2, 1))  # 1+2+2+1 = 3!
    assert is_admissible((1, 0, 1))  # 1+0+1 = 2!
    assert not is_admissible((0, 0, 0, 1))


def test_is_admissible_allows_arbitrary_integers():
    # The predicate poses no sign or range restriction.
    assert is_admissible((-1, 6, 0, 1))  # -1+6+0+1 = 6 = 3!
    assert not is_admissible((-1, 0, 1))


def test_is_admissible_rejects_degree_zero():
    with pytest.raises(ValueError, match="degree zero"):
        is_admissible((5,))


def test_target_sum_anchors():
    assert target_sum(3) == 5
    assert target_sum(4) == 23
    assert target_sum(10) == 3628799


def test_enumeration_anchors():
    assert [f.coeffs for f in enumerate_admissible(3, 2)] == [
        (1, 2, 2),
        (2, 1, 2),
        (2, 2, 1),
    ]
    assert list(enumerate_admissible(3, 1)) == []
    assert len(list(enumerate_admissible(4, 6))) == 4


def test_enumeration_matches_brute_force_and_order():
    for n, h in [(3, 0), (3, 2), (3, 4), (3, 6), (4, 6), (4, 8), (5, 25)]:
        got = [f.coeffs for f in enumerate_admissible(n, h)]
        assert got == brute_admissible_vectors(n, h)
        assert got == sorted(set(got))  # strictly increasing lex, no duplicates


def test_enumerated_polynomials_are_admissible():
    for f in enumerate_admissible(4, 8):
        assert is_admissible(f.all_coefficients())
        assert f.degree == 4
        assert all(0 <= c <= 8 for c in f.coeffs)


def test_count_matches_stream_length():
    for n in (3, 4):
        for h in range(0, math.factorial(n) + 1, 3):
            assert count_admissible_exact(n, h) == sum(1 for _ in enumerate_admissible(n, h))


def test_count_anchors():
    assert count_admissible_exact(3, 6) == 21
    assert count_admissible_exact(3, 2) == 3
    assert count_admissible_exact(4, 5) == 0
    # 1000! - 1 far exceeds 1000 * 5: answered up front, not by a long sum.
    assert count_admissible_exact(1000, 5) == 0


def test_count_nondecreasing_and_saturates():
    for n in (3, 4):
        sat = target_sum(n)
        prev = 0
        for h in range(0, sat + 4):
            cur = count_admissible_exact(n, h)
            assert cur >= prev
            prev = cur
        assert count_admissible_exact(n, sat) == count_admissible_exact(n, sat + 50)


@given(h=st.integers(0, 30))
@settings(max_examples=40, deadline=None)
def test_count_agrees_with_enumeration_oracle(h):
    assert count_admissible_exact(3, h) == len(brute_admissible_vectors(3, h))


def test_enumeration_limit():
    # N(200) for sextics is 131,035,104,180, past ENUM_LIMIT.
    with pytest.raises(FeasibilityError, match="enumeration too large: 131035104180 "):
        enumerate_admissible(6, 200)


def test_enumeration_limit_is_inclusive(monkeypatch):
    total = count_admissible_exact(3, 6)
    monkeypatch.setattr(polynomials, "ENUM_LIMIT", total)
    assert len(list(enumerate_admissible(3, 6))) == total
    monkeypatch.setattr(polynomials, "ENUM_LIMIT", total - 1)
    message = f"enumeration too large: {total} admissible polynomials exceed limit {total - 1}"
    with pytest.raises(FeasibilityError, match=message):
        enumerate_admissible(3, 6)


def test_degree_limit_is_checked_before_any_factorial():
    start = time.perf_counter()
    for call in (
        lambda: target_sum(10**6),
        lambda: count_admissible_exact(10**6, 1),
        lambda: enumerate_admissible(10**6, 1),
        lambda: audit_bounds(10**6, (0, 1)),
        lambda: is_admissible([0] * 10**6 + [1]),
    ):
        with pytest.raises(FeasibilityError, match="degree too large: 1000000 exceeds limit"):
            call()
    assert time.perf_counter() - start < 1


def test_degree_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(polynomials, "DEGREE_LIMIT", 4)
    assert target_sum(4) == 23
    assert is_admissible((1, 0, 0, 22, 1))
    assert len(audit_bounds(4, (0, 2))) == 3
    for call in (lambda: target_sum(5), lambda: audit_bounds(5, (0, 1)),
                 lambda: is_admissible((0,) * 5 + (1,))):
        with pytest.raises(FeasibilityError, match="degree too large: 5 exceeds limit 4"):
            call()


def test_claimed_bound_anchors():
    assert claimed_lower_bound(3, 6) == 6  # C(4,2)
    assert claimed_lower_bound(3, 2) == 0  # C(0,2)
    assert claimed_lower_bound(4, 10) == 56  # C(8,3)
    assert claimed_upper_bound(3, 6) == 153  # C(18,2)
    assert claimed_upper_bound(3, 2) == 15  # C(6,2)
    assert claimed_upper_bound(3, 0) == 0


def test_audit_flags_known_violation():
    (report,) = audit_bounds(4, (5, 5))
    assert report.exact_count == 0
    assert report.claimed_lower == 1
    assert report.lower_violated
    assert not report.upper_violated


def test_audit_clean_case():
    (report,) = audit_bounds(3, (6, 6))
    assert report.exact_count == 21
    assert report.claimed_lower == 6
    assert report.claimed_upper == 153
    assert not report.lower_violated
    assert not report.upper_violated
    assert report.density_ratio == Fraction(21, 36)


def test_audit_height_zero():
    (report,) = audit_bounds(3, (0, 0))
    assert report.exact_count == 0
    assert report.claimed_lower == 0
    assert report.claimed_upper == 0
    assert report.density_ratio is None
    assert not report.lower_violated
    assert not report.upper_violated


def test_audit_flag_invariants_over_range():
    for report in audit_bounds(4, (0, 24)):
        assert report.lower_violated == (report.claimed_lower > report.exact_count)
        assert report.upper_violated == (report.claimed_upper < report.exact_count)


def test_audit_preconditions():
    with pytest.raises(ValueError):
        audit_bounds(2, (0, 1))
    with pytest.raises(ValueError):
        audit_bounds(3, (0, 7))  # beyond 3!
    with pytest.raises(ValueError):
        audit_bounds(3, (4, 2))


def test_audit_height_limit(monkeypatch):
    with pytest.raises(FeasibilityError, match="audit too large: 362881 heights"):
        audit_bounds(9, (0, 362880))
    with pytest.raises(FeasibilityError, match="audit too large"):
        audit_bounds(12, (0, math.factorial(12)))
    # Degree 8's full range [0, 8!] is the largest that fits.
    monkeypatch.setattr(polynomials, "bounds_report", lambda n, h: h)
    assert len(audit_bounds(8, (0, 40320))) == 40321
    monkeypatch.setattr(polynomials, "AUDIT_HEIGHT_LIMIT", 5)
    assert audit_bounds(3, (1, 5)) == [1, 2, 3, 4, 5]
    with pytest.raises(FeasibilityError, match="6 heights exceed limit 5"):
        audit_bounds(3, (0, 5))


def test_polynomial_type_validation():
    with pytest.raises(ValueError):
        MonicIntPolynomial(0, ())
    with pytest.raises(ValueError):
        MonicIntPolynomial(3, (1, 2))


def test_text_rendering():
    assert MonicIntPolynomial(3, (1, 2, 2)).text() == "x^3 + 2x^2 + 2x + 1"
    assert MonicIntPolynomial(2, (1, 0)).text() == "x^2 + 1"
    assert MonicIntPolynomial(3, (0, 0, 0)).text() == "x^3"
    assert MonicIntPolynomial(1, (0,)).text() == "x"
    assert poly_text((4, -2, 1)) == "x^2 - 2x + 4"
    assert poly_text((-1, 1)) == "x - 1"
    assert poly_text(()) == "0"


def test_json_form():
    assert MonicIntPolynomial(3, (1, 2, 2)).as_json_dict() == {
        "degree": 3,
        "coeffs": [1, 2, 2],
    }
