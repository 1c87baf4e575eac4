import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissible import finite_field
from admissible.errors import FeasibilityError
from admissible.finite_field import (
    AUDIT_PRIME_LIMIT,
    MODULUS_LIMIT,
    TABLE_LIMIT,
    _distinct_degree_sets,
    _gcd_degree,
    _is_irreducible_raw,
    _mulmod,
    _rem,
    _trim,
    audit_irreducible_counts,
    count_irreducibles_exact,
    factor_degree_sets,
    irreducible_table,
    is_prime,
    mobius,
)
from admissible.integer_irreducibility import FACTOR_DEGREE_PRIMES, count_admissible_irreducible
from admissible.sieve import primes_below

from oracles import (
    _divmod,
    _mod,
    _mul,
    _powmod,
    brute_divisor_degrees,
    brute_mobius,
    count_factors_trial_division,
    count_irreducibles_exhaustive,
    count_irreducibles_in_class,
    divisor_degree_table_by_products,
    is_irreducible_rabin,
    is_irreducible_trial_division,
    is_squarefree_trial_division,
    sylvester_discriminant_mod_p,
)


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_agrees_with_the_sieve():
    assert tuple(n for n in range(10**4) if is_prime(n)) == primes_below(10**4)
    start = time.perf_counter()
    assert is_prime(2 * 10**30) is False  # even: answered without trial division
    assert time.perf_counter() - start < 0.1


def test_modulus_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(finite_field, "MODULUS_LIMIT", 101)
    assert is_prime(101) is True
    with pytest.raises(FeasibilityError, match="modulus too large: 103 exceeds limit 101"):
        is_prime(103)
    assert is_prime(104) is False  # even: answered before the limit


def test_modulus_limit_is_checked_before_trial_division():
    start = time.perf_counter()
    assert is_prime(999999999989) is True  # the largest prime below the limit
    assert MODULUS_LIMIT == 10**12
    for call in (
        lambda: is_prime(1000000000000000003),
        lambda: count_irreducibles_exact(2, 1000000000000000003),
        lambda: factor_degree_sets(1000000000000000003, 2),
        lambda: audit_irreducible_counts(2, [3, 1000000000000000003]),
    ):
        with pytest.raises(FeasibilityError, match="modulus too large"):
            call()
    assert time.perf_counter() - start < 1


def test_mobius_values():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    assert all(mobius(n) == brute_mobius(n) for n in range(1, 2001))
    with pytest.raises(ValueError, match="mobius expects n >= 1, got 0"):
        mobius(0)


def test_tester_reduces_integer_coefficients():
    # The lookup takes a_0, ..., a_{n-1} of a monic integer polynomial, and
    # f is irreducible mod p iff its divisor degrees are {0, n}.
    assert factor_degree_sets(2, 3)((1, 2, 2)) != 1 | 1 << 3  # x^3 + 1 = (x + 1)(x^2 + x + 1)
    assert factor_degree_sets(3, 3)((1, 3, 1)) != 1 | 1 << 3  # x^3 + x^2 + 1, root x = 1
    assert factor_degree_sets(5, 2)((1, 0)) != 1 | 1 << 2  # x^2 + 1, root x = 2
    assert factor_degree_sets(2, 2)((-1, 3)) == 1 | 1 << 2  # x^2 + x + 1
    # 191^2 > TABLE_LIMIT, so the direct test answers: x^2 - 190 = x^2 + 1 mod 191,
    # and -1 is no square mod a prime = 3 mod 4.
    assert factor_degree_sets(191, 2)((-190, 0)) == 1 | 1 << 2


@given(
    p=st.sampled_from([2, 3, 5, 7, 11, 191]),
    coeffs=st.lists(st.integers(-30, 30), min_size=1, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_tester_agrees_with_rabin_on_integer_coefficients(p, coeffs):
    # Tables answer while p^degree <= TABLE_LIMIT, the direct test past it.
    expected = is_irreducible_rabin([c % p for c in coeffs] + [1], p)
    n = len(coeffs)
    assert (factor_degree_sets(p, n)(coeffs) == 1 | 1 << n) == expected


def test_arithmetic_anchors():
    assert _gcd_degree([1, 0, 1], [1, 1], 2) == 1  # x^2+1 = (x+1)^2
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
        _divmod([1, 1], [], 3)
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        _mod([1, 1], [], 3)
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        _powmod([0, 1], 5, [], 3)


def _reduced(p, m):
    # Every polynomial over F_p of degree < m, trimmed.
    return [_mod(list(t), [0] * m + [1], p) for t in itertools.product(range(p), repeat=m)]


@pytest.mark.parametrize("p, m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 2)])
def test_mulmod_matches_product_then_remainder(p, m):
    # Every monic modulus of degree m and every pair of residues mod it,
    # each residue padded to m coefficients and trimmed, [] included.
    residues = _reduced(p, m)
    residues += [_trim(list(r)) for r in residues if not r[-1]]
    for tail in itertools.product(range(p), repeat=m):
        modulus = list(tail) + [1]
        for a in residues:
            for b in residues:
                assert _mulmod(a, b, modulus, p) == _mod(_mul(a, b, p), modulus, p), (
                    p, modulus, a, b)


def test_gcd_degree_takes_one_zero_polynomial():
    assert _gcd_degree([2, 4], [], 5) == 1  # 4x + 2 = 4(x + 3)
    assert _gcd_degree([], [0, 3], 5) == 1
    assert _gcd_degree([1, 0, 1], [2, 2], 3) == 0  # x^2 + 1 has no root mod 3


def test_rem_matches_long_division():
    # The one remainder over F_p against the oracle's long division, with
    # monic and non-monic divisors (constants included), so both ways of
    # taking the leading coefficient's negated inverse are covered.
    for p in (2, 3, 5):
        divisors = [_trim(list(t)) for t in itertools.product(range(p), repeat=3)]
        for s in filter(None, divisors):
            for r in itertools.product(range(p), repeat=4):
                r = _trim(list(r))
                assert _rem(list(r), s, p) == _mod(r, s, p), (p, r, s)
    p = 999999999989
    rng = random.Random(31)
    monic = 0
    for _ in range(2000):
        r = _trim([rng.randrange(p) for _ in range(rng.randint(0, 9))])
        s = [rng.randrange(p) for _ in range(rng.randint(0, 5))]
        s.append(1 if rng.random() < 0.5 else rng.randrange(1, p))
        monic += s[-1] == 1
        assert _rem(list(r), s, p) == _mod(r, s, p), (r, s)
    assert 900 < monic < 1100


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
                want = is_irreducible_trial_division(f, p)
                assert is_irreducible_rabin(f, p) == want, (p, f)
                assert _is_irreducible_raw(f, p) == want, (p, f)


def test_irreducible_table_matches_rabin_entry_by_entry():
    # Index i holds a_0, ..., a_{n-1} as base-p digits, a_0 least significant.
    for p in primes_below(2501):
        n = 1
        while p**n <= 2500:
            for i, flag in enumerate(irreducible_table(p, n)):
                tail = [i // p**k % p for k in range(n)]
                assert flag == is_irreducible_rabin(tail + [1], p), (p, n, i)
            n += 1


@pytest.mark.parametrize("p, n", [(7, 5), (11, 4), (13, 4), (31, 3), (181, 2), (2, 15)])
def test_irreducible_table_counts_match_gauss(p, n):
    table = irreducible_table(p, n)
    assert len(table) == p**n
    assert sum(table) == count_irreducibles_exact(n, p)


def test_irreducible_table_runs_no_rabin_test(monkeypatch):
    def no_direct_test(fc, p):
        raise AssertionError("a table build ran a direct test")

    irreducible_table.cache_clear()
    factor_degree_sets.cache_clear()  # else cached class slots answer and nothing is built
    finite_field._divisor_degree_table.cache_clear()
    monkeypatch.setattr(finite_field, "_is_irreducible_raw", no_direct_test)
    monkeypatch.setattr(finite_field, "_distinct_degree_sets", no_direct_test)
    assert sum(irreducible_table(13, 4)) == count_irreducibles_exact(4, 13)


def _class_grid(max_size):
    # Every (p, n, c) with p < 14, n <= 6 and p^n <= max_size.
    return [(p, n, c) for p in primes_below(14) for n in range(1, 7) if p**n <= max_size
            for c in range(p)]


def test_class_tables_match_trial_division_entry_by_entry():
    # Entry j of class c holds a_1, ..., a_{n-1} as the base-p digits of j,
    # a_1 least significant; a_0 makes f(1) = c mod p.
    for p, n, c in _class_grid(3125):
        table = finite_field._divisor_degree_table(p, n, c)
        assert len(table) == p ** (n - 1)
        for j, degrees in enumerate(table):
            rest = [j // p**k % p for k in range(n - 1)]
            fc = [(c - 1 - sum(rest)) % p, *rest, 1]
            assert degrees == brute_divisor_degrees(fc, p), (p, n, c, j)


def test_class_tables_match_the_per_product_build():
    # Every entry of every class up to TABLE_LIMIT, against products
    # multiplied out one at a time.
    grid = _class_grid(TABLE_LIMIT)
    assert len(grid) == 191
    for p, n, c in grid:
        assert finite_field._divisor_degree_table(p, n, c) == divisor_degree_table_by_products(
            p, n, c), (p, n, c)


def test_class_irreducible_counts_match_the_closed_form():
    grid = _class_grid(TABLE_LIMIT)
    assert len(grid) == 191
    for p, n, c in grid:
        irreducible = 1 | 1 << n
        got = sum(s == irreducible for s in finite_field._divisor_degree_table(p, n, c))
        assert got == count_irreducibles_in_class(n, p, c), (p, n, c)


def test_an_admissible_census_builds_one_class_per_tabled_prime():
    # Every admissible quintic has f(1) = 120: class 0 mod 2, 3 and 5, and 1
    # mod 7; 11^5 is past the table limit.
    table = finite_field._divisor_degree_table
    table.cache_clear()
    irreducible_table.cache_clear()
    factor_degree_sets.cache_clear()
    count_admissible_irreducible(5, 27)
    cached = []
    for p in (2, 3, 5, 7):
        for c in range(p):
            misses = table.cache_info().misses
            table(p, 5, c)  # a miss builds the class now
            if table.cache_info().misses == misses:
                cached.append((p, 5, c))
    assert cached == [(2, 5, 0), (3, 5, 0), (5, 5, 0), (7, 5, 1)]
    assert 11**5 > TABLE_LIMIT >= 7**5


def test_a_quartic_census_builds_its_classes_and_their_cofactors_only():
    # Every admissible quartic has f(1) = 24: class 0 mod 2 and 3, struck
    # out by x - 1 times the cubics of every class, and class 24 mod p
    # != 0 for p = 5, 7, 11 and 13, struck out by g*h with g(1) and h(1)
    # nonzero.  Building those six classes builds their factor and
    # cofactor classes down to degree 1, and nothing else: 117 classes.
    table = finite_field._divisor_degree_table
    table.cache_clear()
    irreducible_table.cache_clear()
    factor_degree_sets.cache_clear()
    assert count_admissible_irreducible(4, 24) == 2041
    built = table.cache_info().currsize
    cached = []
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(1, 5):
            for c in range(p):
                misses = table.cache_info().misses
                table(p, n, c)  # a miss builds the class now
                if table.cache_info().misses == misses:
                    cached.append((p, n, c))
    want = [(p, n, c) for p in (2, 3, 5, 7, 11, 13) for n in range(1, 4)
            for c in range(p) if c or p < 5]
    want += [(p, 4, 24 % p) for p in (2, 3, 5, 7, 11, 13)]
    assert built == len(cached) == 117
    assert sorted(cached) == sorted(want)


def test_an_admissible_census_resolves_one_lookup_per_prime():
    # The census shares one lookup per (p, degree): the primality check and
    # the class slots are not rebuilt for every polynomial.
    factor_degree_sets.cache_clear()
    assert count_admissible_irreducible(5, 27) == 4844
    assert factor_degree_sets.cache_info().misses <= len(FACTOR_DEGREE_PRIMES)


@given(
    pn=st.sampled_from([(17, 4), (11, 5), (2, 16)]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_direct_test_agrees_with_rabin_past_the_table_limit(pn, data):
    p, n = pn
    assert p**n > TABLE_LIMIT
    tail = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    fc = [c % p for c in tail] + [1]
    want = is_irreducible_rabin(fc, p)
    assert _is_irreducible_raw(fc, p) == want
    assert (factor_degree_sets(p, n)(tail) == 1 | 1 << n) == want


@pytest.mark.parametrize("p", [17, 19])
def test_artin_schreier_polynomials_are_irreducible(p):
    # x^p - x - 1 is irreducible over F_p, of degree p.
    fc = [p - 1, p - 1] + [0] * (p - 2) + [1]
    assert is_irreducible_rabin(fc, p)
    assert _is_irreducible_raw(fc, p)
    assert factor_degree_sets(p, p)(fc[:-1]) == 1 | 1 << p


def test_non_squarefree_inputs_are_reducible():
    # (x^2 + 1)^2 mod 191, with x^2 + 1 irreducible (191 = 3 mod 4), past the table.
    fc = _mul([1, 0, 1], [1, 0, 1], 191)
    assert is_irreducible_rabin([1, 0, 1], 191) and _is_irreducible_raw([1, 0, 1], 191)
    assert not is_irreducible_rabin(fc, 191)
    assert not _is_irreducible_raw(fc, 191)
    assert factor_degree_sets(191, 4)(fc[:-1]) != 1 | 1 << 4
    # (x + 1)^4 = x^4 + 1 mod 2 has a zero derivative.
    fc = [1, 0, 0, 0, 1]
    assert not is_irreducible_rabin(fc, 2)
    assert not _is_irreducible_raw(fc, 2)


def _index_order(p, n):
    # The tails (a_0, ..., a_{n-1}) of table indices 0, 1, ..., p^n - 1.
    return [tuple(i // p**k % p for k in range(n)) for i in range(p**n)]


@pytest.mark.parametrize("p, n", [(2, 5), (3, 4), (5, 4), (7, 3), (5, 5), (2, 8)])
def test_divisor_degree_table_matches_trial_division(p, n):
    degrees = factor_degree_sets(p, n)
    table = irreducible_table(p, n)
    for i, tail in enumerate(_index_order(p, n)):
        want = brute_divisor_degrees(list(tail) + [1], p)
        assert degrees(tail) == want, (p, tail)
        # The irreducibility table is the entries with no proper divisor.
        assert table[i] == (want == 1 | 1 << n) == is_irreducible_trial_division(
            list(tail) + [1], p
        )


@pytest.mark.parametrize("p, n", [(2, 6), (3, 4), (5, 4), (7, 3), (3, 5), (2, 8)])
def test_distinct_degree_sets_match_trial_division(p, n):
    # Every monic polynomial of small grids, squarefree or not.
    every = (2 << n) - 1
    for tail in _index_order(p, n):
        fc = list(tail) + [1]
        got = _distinct_degree_sets(fc, p)
        if is_squarefree_trial_division(fc, p):
            assert got == brute_divisor_degrees(fc, p), (p, tail)
        else:
            assert got == every, (p, tail)


@given(
    pn=st.sampled_from([(37, 3), (17, 4), (11, 5)]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_factor_degree_sets_past_the_table_limit(pn, data):
    p, n = pn
    assert p**n > TABLE_LIMIT
    tail = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    fc = [c % p for c in tail] + [1]
    got = factor_degree_sets(p, n)(tail)
    if is_squarefree_trial_division(fc, p):
        assert got == brute_divisor_degrees(fc, p)
    else:
        assert got == (2 << n) - 1


@pytest.mark.parametrize("p, n, examples", [(7, 6, 40), (11, 6, 40), (37, 7, 6)])
def test_distinct_degree_sets_match_trial_division_at_degrees_6_and_7(p, n, examples):
    # Degree 6 and up can reach a third stage and split after the Frobenius
    # rows are built.  Trial division at (37, 7) takes about 0.6 s a draw.
    @given(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    @settings(max_examples=examples, deadline=None)
    def check(tail):
        fc = tail + [1]
        got = _distinct_degree_sets(fc, p)
        if is_squarefree_trial_division(fc, p):
            assert got == brute_divisor_degrees(fc, p)
        else:
            assert got == (2 << n) - 1

    check()


@pytest.mark.parametrize("p, n", [(5, 4), (3, 6), (7, 3), (5, 5), (7, 4)])
def test_discriminant_matches_the_sylvester_determinant(p, n):
    # Every monic polynomial of the grid.  Where p | n, f' drops degree,
    # and f' = 0 for the f whose a_i vanish at every i not divisible by p,
    # such as x^5 + a_0 mod 5 and x^6 + a_3 x^3 + a_0 mod 3.
    dropped = zero = 0
    for tail in _index_order(p, n):
        fc = list(tail) + [1]
        derivative = _trim([i * c % p for i, c in enumerate(fc)][1:])
        dropped += len(derivative) < n
        zero += not derivative
        assert finite_field._discriminant(fc, p) == sylvester_discriminant_mod_p(fc, p), (p, tail)
    assert (dropped > 0) == (n % p == 0)
    assert zero == (p ** (1 + (n - 1) // p) if n % p == 0 else 0)


def test_discriminant_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for p, n in [(5, 4), (3, 6), (7, 3), (5, 5), (7, 4)]:
        for tail in itertools.islice(_index_order(p, n), 0, None, 7):
            fc = list(tail) + [1]
            want = int(sympy.discriminant(sympy.Poly(fc[::-1], x), x)) % p
            assert finite_field._discriminant(fc, p) == want, (p, tail)


@pytest.mark.parametrize("p, n", [(3, 5), (3, 6), (5, 4), (7, 3), (11, 3)])
def test_the_discriminant_character_is_the_parity_of_the_factor_count(p, n):
    # Stickelberger: at odd p, a squarefree f with r irreducible factors
    # has (disc f / p) = (-1)^(n - r); disc f = 0 iff f is not squarefree.
    for tail in _index_order(p, n):
        fc = list(tail) + [1]
        disc = finite_field._discriminant(fc, p)
        assert (disc != 0) == is_squarefree_trial_division(fc, p), (p, tail)
        if disc:
            r = count_factors_trial_division(fc, p)
            assert pow(disc, (p - 1) // 2, p) == (1 if (n - r) % 2 == 0 else p - 1), (p, tail)


@pytest.mark.parametrize("p", [7, 11])
def test_cubics_run_their_first_stage(p):
    # At d = 1 with 3 left, three linear factors and one cubic have the
    # same parity, so the parity of r cannot settle that stage.
    split = 0
    for tail in _index_order(p, 3):
        fc = list(tail) + [1]
        if is_squarefree_trial_division(fc, p):
            split += count_factors_trial_division(fc, p) == 3
            assert _distinct_degree_sets(fc, p) == brute_divisor_degrees(fc, p), (p, tail)
    assert split == p * (p - 1) * (p - 2) // 6


@given(st.lists(st.integers(0, 1), min_size=17, max_size=17))
@settings(max_examples=60, deadline=None)
def test_p_2_runs_every_stage(tail):
    # Every unit of F_2 is a square, so the discriminant says nothing about
    # the factor count there.  (2, 6) and (2, 8) are checked in full by
    # test_distinct_degree_sets_match_trial_division.
    fc = tail + [1]
    got = _distinct_degree_sets(fc, 2)
    if is_squarefree_trial_division(fc, 2):
        assert got == brute_divisor_degrees(fc, 2), tail
    else:
        assert got == (2 << 17) - 1, tail


def test_sextics_run_stage_two_only_without_a_root(monkeypatch):
    # Stage 3 of a sextic is always settled by the parity of r, and so is
    # stage 2 once a root is found: one gcd with a root, two without, and
    # none for a non-squarefree f.
    gcds = []
    monkeypatch.setattr(finite_field, "_gcd_degree",
                        lambda *args: gcds.append(1) or _gcd_degree(*args))
    p = 7
    for tail in itertools.islice(_index_order(p, 6), 0, None, 211):
        fc = list(tail) + [1]
        gcds.clear()
        _distinct_degree_sets(fc, p)
        has_root = any(sum(c * a**i for i, c in enumerate(fc)) % p == 0 for a in range(p))
        want = (1 if has_root else 2) if is_squarefree_trial_division(fc, p) else 0
        assert len(gcds) == want, tail


def test_powering_is_logarithmic_in_p():
    # x^p mod f by squaring: the largest prime below MODULUS_LIMIT answers at
    # once, where p - 1 multiplications by x would never end.
    p = 999999999989
    tails = [
        (1, 0, 2, 0),  # (x^2 + 1)^2, not squarefree
        (1, 0, 0, 0),  # x^4 + 1, reducible mod every prime
        (p - 2, 0, 0, 0),  # x^4 - 2
        (3, 1, 4, 1),
        (5, 9, 2, 6),
        (2, 3, 1, 0),
    ]
    start = time.process_time()
    degrees = factor_degree_sets(p, 4)
    got = [degrees(tail) == 1 | 1 << 4 for tail in tails]
    assert time.process_time() - start < 0.5
    assert got == [is_irreducible_rabin(list(tail) + [1], p) for tail in tails]


def test_the_kernel_answers_the_same_calls():
    # The census asks for the same factorizations; only their cost changed.
    calls = []

    def counted(fc, p):
        calls.append(p)
        return ddf(fc, p)

    ddf = finite_field._distinct_degree_sets
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(finite_field, "_distinct_degree_sets", counted)
        assert count_admissible_irreducible(5, 27) == 4844
        assert len(calls) == 2343 and min(calls) == 11
        calls.clear()
        assert count_admissible_irreducible(4, 24) == 2041
        assert len(calls) == 350 and min(calls) == 17


def test_quartic_and_quintic_censuses_run_the_first_stage_only(monkeypatch):
    # Every quartic and quintic stage after the first is settled by the
    # parity of its factor count: one gcd per squarefree DDF, and products
    # only for x^p, with no Frobenius rows.  Running the last stage again,
    # or a gcd pre-test, would move these counts.
    calls = {"_gcd_degree": 0, "_mulmod": 0}

    def counted(name, kernel):
        def call(*args):
            calls[name] += 1
            return kernel(*args)
        return call

    for name, kernel in (("_gcd_degree", _gcd_degree), ("_mulmod", _mulmod)):
        monkeypatch.setattr(finite_field, name, counted(name, kernel))
    assert count_admissible_irreducible(5, 27) == 4844
    assert calls == {"_gcd_degree": 2189, "_mulmod": 7166}
    calls.update(_gcd_degree=0, _mulmod=0)
    assert count_admissible_irreducible(4, 24) == 2041
    assert calls == {"_gcd_degree": 297, "_mulmod": 1188}


def test_a_repeated_factor_past_the_table_limit_rules_nothing_out():
    # (x^2 + 3)^2 mod 17, with x^2 + 3 irreducible (-3 is no square mod 17),
    # has monic divisors of degrees 0, 2 and 4 only...
    fc = _mul([3, 0, 1], [3, 0, 1], 17)
    assert brute_divisor_degrees(fc, 17) == 0b10101
    # ...but the distinct-degree factorization needs a squarefree input.
    assert factor_degree_sets(17, 4)(fc[:-1]) == 0b11111


def test_factor_degree_sets_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for p, n in [(11, 5), (13, 5), (17, 4), (31, 4)]:
        degrees = factor_degree_sets(p, n)
        for tail in itertools.islice(itertools.product(range(-2, 3), repeat=n), 0, None, 7):
            fc = list(tail) + [1]
            _, factors = sympy.Poly(fc[::-1], x, modulus=p).factor_list()
            sums = 1
            for g, e in factors:
                for _ in range(e):
                    sums |= sums << g.degree()
            got = degrees(tail)
            repeated = any(e > 1 for _, e in factors)
            assert got == sums or (repeated and got == (2 << n) - 1), (p, tail)


def test_irreducible_table_preconditions():
    with pytest.raises(FeasibilityError, match=f"table too large: 11\\^5 exceeds {TABLE_LIMIT}"):
        irreducible_table(11, 5)
    # 2^20000 has 6,021 digits, past int-to-str's default limit of 4,300.
    with pytest.raises(FeasibilityError, match=f"table too large: 2\\^20000 exceeds {TABLE_LIMIT}"):
        irreducible_table(2, 20000)
    with pytest.raises(ValueError, match="not prime: 4"):
        irreducible_table(4, 2)
    with pytest.raises(ValueError, match="degree must be >= 1, got 0"):
        irreducible_table(5, 0)


def test_tester_rejects_a_composite_modulus_at_once():
    # 200^2 > TABLE_LIMIT, so the direct branch would answer, and its gcd
    # never ends over Z/200.  4^2 fits a table, which rejects 4 itself.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not prime: 200"):
        factor_degree_sets(200, 2)
    with pytest.raises(ValueError, match="not prime: 4"):
        factor_degree_sets(4, 2)
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


def test_audit_checks_every_prime_before_the_first_row(monkeypatch):
    def no_row(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(finite_field, "IrreducibleAuditRow", no_row)
    with pytest.raises(ValueError, match="not prime: 4"):
        audit_irreducible_counts(2, [3, 4])


def test_audit_preconditions():
    with pytest.raises(ValueError, match="degree must be >= 1, got 0"):
        count_irreducibles_exact(0, 2)
    with pytest.raises(ValueError):
        audit_irreducible_counts(1, [2])
    with pytest.raises(ValueError):
        audit_irreducible_counts(2, [])


def test_audit_prime_limit_is_checked_before_any_prime(monkeypatch):
    def no_check(n):
        raise AssertionError("a prime was checked")

    assert AUDIT_PRIME_LIMIT == 100
    monkeypatch.setattr(finite_field, "is_prime", no_check)
    with pytest.raises(FeasibilityError, match="audit too large: 101 primes exceed limit 100"):
        audit_irreducible_counts(2, [999999999989] * 101)
    monkeypatch.undo()
    monkeypatch.setattr(finite_field, "AUDIT_PRIME_LIMIT", 3)
    assert len(audit_irreducible_counts(2, [2, 3, 5]).rows) == 3
    with pytest.raises(FeasibilityError, match="4 primes exceed limit 3"):
        audit_irreducible_counts(2, [2, 3, 5, 7])
