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
    PrimeFieldPolynomial,
    _is_irreducible_raw,
    audit_irreducible_counts,
    count_irreducibles_exact,
    irreducible_table,
    is_irreducible_mod_p,
    is_prime,
    mobius,
    reduce_mod_p,
)
from admissible.polynomials import MonicIntPolynomial
from admissible.sieve import primes_below

from oracles import (
    count_irreducibles_exhaustive,
    fp_divmod,
    fp_gcd,
    fp_mod,
    fp_mul,
    fp_powmod,
    is_irreducible_trial_division,
)


def FP(p, coeffs):
    return PrimeFieldPolynomial.from_integers(p, coeffs)


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


def test_construction_validation():
    with pytest.raises(ValueError, match="not prime"):
        PrimeFieldPolynomial(4, (1, 1))
    with pytest.raises(ValueError):
        PrimeFieldPolynomial(3, (5, 1))  # residue out of range
    with pytest.raises(ValueError):
        PrimeFieldPolynomial(3, (1, 0))  # trailing zero
    assert PrimeFieldPolynomial(3, ()).is_zero()


def test_reduce_mod_p_anchors():
    f = MonicIntPolynomial(3, (1, 2, 2))
    assert reduce_mod_p(f, 2).coeffs == (1, 0, 0, 1)  # x^3 + 1
    g = MonicIntPolynomial(3, (1, 3, 1))
    assert reduce_mod_p(g, 3).coeffs == (1, 0, 1, 1)  # x^3 + x^2 + 1
    h = MonicIntPolynomial(2, (1, 0))
    assert reduce_mod_p(h, 5).coeffs == (1, 0, 1)


def test_reduce_mod_p_rejects_composite():
    with pytest.raises(ValueError, match="not prime"):
        reduce_mod_p(MonicIntPolynomial(2, (1, 0)), 6)


@given(
    p=st.sampled_from([2, 3, 5, 7, 11]),
    coeffs=st.lists(st.integers(-30, 30), min_size=1, max_size=6),
)
@settings(max_examples=200)
def test_reduce_preserves_degree_of_monic(p, coeffs):
    f = MonicIntPolynomial(len(coeffs), tuple(coeffs))
    assert reduce_mod_p(f, p).degree == f.degree


def test_arithmetic_anchors():
    assert fp_gcd(FP(2, [1, 0, 1]), FP(2, [1, 1])).coeffs == (1, 1)  # x^2+1 = (x+1)^2
    x3 = FP(3, [0, 1])
    assert fp_mod(fp_mul(x3, x3), FP(3, [1, 0, 1])).coeffs == (2,)  # x^2 = -1
    assert fp_powmod(FP(2, [0, 1]), 4, FP(2, [1, 1, 1])).coeffs == (0, 1)  # x^4 = x


def test_divmod_reconstructs():
    f = FP(5, [3, 1, 4, 1, 1])
    g = FP(5, [2, 3, 1])
    q, r = fp_divmod(f, g)
    back = fp_mul(q, g)
    total = [0] * max(len(back.coeffs), len(r.coeffs))
    for i, c in enumerate(back.coeffs):
        total[i] += c
    for i, c in enumerate(r.coeffs):
        total[i] += c
    assert FP(5, total).coeffs == f.coeffs
    assert r.degree < g.degree


def test_zero_divisor():
    zero = FP(3, [])
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        fp_mod(FP(3, [1, 1]), zero)
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        fp_powmod(FP(3, [0, 1]), 5, zero)


def test_mismatched_moduli():
    with pytest.raises(ValueError, match="mismatched moduli"):
        fp_mul(FP(2, [1, 1]), FP(3, [1, 1]))


def test_irreducibility_anchors():
    assert is_irreducible_mod_p(FP(2, [1, 1, 1]))
    assert not is_irreducible_mod_p(FP(2, [1, 0, 1]))
    assert is_irreducible_mod_p(FP(3, [1, 2, 0, 1]))
    assert not is_irreducible_mod_p(FP(5, [1, 0, 1]))  # 2^2+1 = 5
    assert is_irreducible_mod_p(FP(7, [3, 1]))  # linear


def test_rabin_agrees_with_trial_division_exhaustively():
    # Second oracle over every monic polynomial on small (p, n) grids.
    grids = [(2, 8), (3, 5), (5, 3), (7, 3), (11, 2), (13, 2)]
    for p, max_n in grids:
        for n in range(1, max_n + 1):
            for tail in itertools.product(range(p), repeat=n):
                f = PrimeFieldPolynomial(p, tuple(tail) + (1,))
                assert is_irreducible_mod_p(f) == is_irreducible_trial_division(f), (
                    p,
                    f.coeffs,
                )


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


def test_audit_preconditions():
    with pytest.raises(ValueError):
        audit_irreducible_counts(1, [2])
    with pytest.raises(ValueError):
        audit_irreducible_counts(2, [])
