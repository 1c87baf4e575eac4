import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissible import finite_field
from admissible.errors import FeasibilityError
from admissible.finite_field import (
    TABLE_LIMIT,
    _divmod,
    _gcd,
    _is_irreducible_raw,
    _mod,
    _mul,
    _powmod,
    audit_irreducible_counts,
    count_irreducibles_exact,
    irreducibility_tester,
    irreducible_table,
    is_prime,
    mobius,
)
from admissible.sieve import primes_below

from oracles import count_irreducibles_exhaustive, is_irreducible_trial_division


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_agrees_with_the_sieve():
    assert tuple(n for n in range(10**4) if is_prime(n)) == primes_below(10**4)
    start = time.perf_counter()
    assert is_prime(2 * 10**30) is False  # even: answered without trial division
    assert time.perf_counter() - start < 0.1


def test_mobius_values():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_tester_reduces_integer_coefficients():
    # The predicate takes a_0, ..., a_{n-1} of a monic integer polynomial.
    assert not irreducibility_tester(2, 3)((1, 2, 2))  # x^3 + 1 = (x + 1)(x^2 + x + 1)
    assert not irreducibility_tester(3, 3)((1, 3, 1))  # x^3 + x^2 + 1, root x = 1
    assert not irreducibility_tester(5, 2)((1, 0))  # x^2 + 1, root x = 2
    assert irreducibility_tester(2, 2)((-1, 3))  # x^2 + x + 1
    # 191^2 > TABLE_LIMIT, so Rabin's test answers: x^2 - 190 = x^2 + 1 mod 191,
    # and -1 is no square mod a prime = 3 mod 4.
    assert irreducibility_tester(191, 2)((-190, 0))


@given(
    p=st.sampled_from([2, 3, 5, 7, 11, 191]),
    coeffs=st.lists(st.integers(-30, 30), min_size=1, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_tester_agrees_with_rabin_on_integer_coefficients(p, coeffs):
    # Tables answer while p^degree <= TABLE_LIMIT, Rabin's test past it.
    expected = _is_irreducible_raw([c % p for c in coeffs] + [1], p)
    assert irreducibility_tester(p, len(coeffs))(coeffs) == expected


def test_arithmetic_anchors():
    assert _gcd([1, 0, 1], [1, 1], 2) == [1, 1]  # x^2+1 = (x+1)^2
    assert _mod(_mul([0, 1], [0, 1], 3), [1, 0, 1], 3) == [2]  # x^2 = -1
    assert _powmod([0, 1], 4, [1, 1, 1], 2) == [0, 1]  # x^4 = x


def test_divmod_reconstructs():
    f = [3, 1, 4, 1, 1]
    g = [2, 3, 1]
    q, r = _divmod(f, g, 5)
    back = _mul(q, g, 5)
    total = [0] * max(len(back), len(r))
    for i, c in enumerate(back):
        total[i] += c
    for i, c in enumerate(r):
        total[i] += c
    assert [c % 5 for c in total] == f
    assert len(r) < len(g)


def test_zero_divisor():
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        _mod([1, 1], [], 3)
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        _powmod([0, 1], 5, [], 3)


def test_irreducibility_anchors():
    assert _is_irreducible_raw([1, 1, 1], 2)
    assert not _is_irreducible_raw([1, 0, 1], 2)
    assert _is_irreducible_raw([1, 2, 0, 1], 3)
    assert not _is_irreducible_raw([1, 0, 1], 5)  # 2^2+1 = 5
    assert _is_irreducible_raw([3, 1], 7)  # linear


def test_rabin_agrees_with_trial_division_exhaustively():
    # Second oracle over every monic polynomial on small (p, n) grids.
    grids = [(2, 8), (3, 5), (5, 3), (7, 3), (11, 2), (13, 2)]
    for p, max_n in grids:
        for n in range(1, max_n + 1):
            for tail in itertools.product(range(p), repeat=n):
                f = list(tail) + [1]
                assert _is_irreducible_raw(f, p) == is_irreducible_trial_division(f, p), (p, f)


def test_irreducible_table_matches_rabin_entry_by_entry():
    # Index i holds a_0, ..., a_{n-1} as base-p digits, a_0 least significant.
    for p in primes_below(2501):
        n = 1
        while p**n <= 2500:
            for i, flag in enumerate(irreducible_table(p, n)):
                tail = [i // p**k % p for k in range(n)]
                assert flag == _is_irreducible_raw(tail + [1], p), (p, n, i)
            n += 1


@pytest.mark.parametrize("p, n", [(7, 5), (11, 4), (13, 4), (31, 3), (181, 2), (2, 15)])
def test_irreducible_table_counts_match_gauss(p, n):
    table = irreducible_table(p, n)
    assert len(table) == p**n
    assert sum(table) == count_irreducibles_exact(n, p)


def test_irreducible_table_runs_no_rabin_test(monkeypatch):
    def no_rabin(fc, p):
        raise AssertionError("a table build ran a Rabin test")

    irreducible_table.cache_clear()
    monkeypatch.setattr(finite_field, "_is_irreducible_raw", no_rabin)
    assert sum(irreducible_table(13, 4)) == count_irreducibles_exact(4, 13)


def test_irreducible_table_preconditions():
    message = f"table too large: 11\\^5 = 161051 exceeds {TABLE_LIMIT}"
    with pytest.raises(FeasibilityError, match=message):
        irreducible_table(11, 5)
    with pytest.raises(ValueError, match="not prime: 4"):
        irreducible_table(4, 2)
    with pytest.raises(ValueError, match="degree must be >= 1, got 0"):
        irreducible_table(5, 0)


def test_tester_rejects_a_composite_modulus_at_once():
    # 200^2 > TABLE_LIMIT, so the Rabin branch would answer, and its gcd
    # never ends over Z/200.  4^2 fits a table, which rejects 4 itself.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not prime: 200"):
        irreducibility_tester(200, 2)
    with pytest.raises(ValueError, match="not prime: 4"):
        irreducibility_tester(4, 2)
    assert time.perf_counter() - start < 1


def test_count_anchors():
    assert count_irreducibles_exact(2, 2) == 1
    assert count_irreducibles_exact(2, 3) == 3
    assert count_irreducibles_exact(1, 5) == 5
    assert count_irreducibles_exact(4, 2) == 3
    assert count_irreducibles_exhaustive(2, 2) == 1
    assert count_irreducibles_exhaustive(3, 2) == 2
    assert count_irreducibles_exhaustive(1, 7) == 7


def test_exact_equals_exhaustive_small():
    for p in (2, 3, 5):
        for n in range(1, 5):
            assert count_irreducibles_exact(n, p) == count_irreducibles_exhaustive(n, p)


def test_degree_weighted_counts_sum_to_field_size():
    # sum_{d|n} d * N_d(p) = p^n, the identity behind the closed form.
    for p in (2, 3, 5):
        for n in range(1, 13):
            total = sum(
                d * count_irreducibles_exact(d, p) for d in range(1, n + 1) if n % d == 0
            )
            assert total == p**n


def test_exhaustive_oracle_limit():
    with pytest.raises(FeasibilityError, match="oracle too large"):
        count_irreducibles_exhaustive(10, 7, max_oracle=10**6)


def test_audit_anchors():
    audit = audit_irreducible_counts(2, [2])
    assert audit.rows[0].exact_count == 1
    assert audit.rows[0].main_term == Fraction(4, 2)
    assert audit.rows[0].sq_normalized_error == Fraction(1, 4)  # (1/2)^2

    audit = audit_irreducible_counts(2, [3])
    assert audit.rows[0].sq_normalized_error == Fraction(1, 4)

    audit = audit_irreducible_counts(3, [2])
    assert audit.rows[0].sq_normalized_error == Fraction(1, 18)
    assert audit.rows[0].sq_normalized_error <= 1


def test_audit_tracks_worst_row():
    audit = audit_irreducible_counts(2, [2, 3, 5, 7])
    assert audit.max_sq_normalized_error == max(
        r.sq_normalized_error for r in audit.rows
    )
    assert audit.within_sqrt_scale


def test_counts_stop_at_the_degree_limit():
    start = time.perf_counter()
    with pytest.raises(FeasibilityError, match="degree too large: 1000000 exceeds limit"):
        count_irreducibles_exact(10**6, 31)
    with pytest.raises(FeasibilityError, match="degree too large: 1000000 exceeds limit"):
        audit_irreducible_counts(10**6, [2, 31])
    assert time.perf_counter() - start < 1


def test_audit_preconditions():
    with pytest.raises(ValueError):
        audit_irreducible_counts(1, [2])
    with pytest.raises(ValueError):
        audit_irreducible_counts(2, [])
