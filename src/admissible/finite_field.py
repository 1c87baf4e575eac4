"""Polynomial arithmetic and irreducibility over the prime fields F_p.

Polynomials over F_p are plain ascending coefficient lists with entries
in [0, p) and no trailing zeros; [] is the zero polynomial.  Primality
is decided by trial division, which is all that desk-scale moduli need.

Irreducibility of one polynomial is decided by Rabin's criterion.  When
all p^n monic polynomials of a degree fit in a memoized lookup table,
the table is built by striking out every product g*h with g monic
irreducible of degree <= n/2, so the build runs no Rabin test at all.
The exact count of monic irreducibles of each degree comes from the
Gauss/Moebius formula, which the test suite compares against an
exhaustive Rabin count and against the tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Callable, Sequence

from .errors import FeasibilityError
from .polynomials import check_degree

# Largest p^degree for which a full irreducibility lookup table is built.
TABLE_LIMIT = 32768


def _least_factor(n: int) -> int:
    # Smallest prime factor of n >= 2, by trial division over 2 and the odd numbers.
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def is_prime(n: int) -> bool:
    """Trial-division primality check; fine for desk-scale moduli."""
    return n >= 2 and _least_factor(n) == n


def _prime_divisors(n: int) -> list[int]:
    out = []
    while n > 1:
        f = _least_factor(n)
        out.append(f)
        while n % f == 0:
            n //= f
    return out


def mobius(n: int) -> int:
    """The Moebius function: 0 on squareful n, else (-1)^(number of prime factors)."""
    if n < 1:
        raise ValueError(f"mobius expects n >= 1, got {n}")
    divisors = _prime_divisors(n)
    return 0 if prod(divisors) != n else (-1) ** len(divisors)


# --- raw list arithmetic -------------------------------------------------


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _sub(a: list[int], b: list[int], p: int) -> list[int]:
    c = list(a) + [0] * (len(b) - len(a))
    for i, bi in enumerate(b):
        c[i] = (c[i] - bi) % p
    return _trim(c)


def _mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                c[i + j] += ai * bj
    return _trim([x % p for x in c])


def _divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("zero divisor")
    if len(a) < len(b):
        return [], list(a)
    inv = pow(b[-1], p - 2, p)
    q = [0] * (len(a) - len(b) + 1)
    r = list(a)
    for i in range(len(q) - 1, -1, -1):
        if len(r) >= i + len(b):
            q[i] = qi = (r[i + len(b) - 1] * inv) % p
            if qi:
                for j, bj in enumerate(b):
                    r[i + j] = (r[i + j] - qi * bj) % p
            _trim(r)
    return q, r


def _mod(a: list[int], b: list[int], p: int) -> list[int]:
    return _divmod(a, b, p)[1]


def _monic(a: list[int], p: int) -> list[int]:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], p - 2, p)
    return [(x * inv) % p for x in a]


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _mod(a, b, p)
    return _monic(a, p)


def _powmod(base: list[int], exp: int, modulus: list[int], p: int) -> list[int]:
    if exp < 0:
        raise ValueError("negative exponent")
    result = _mod([1], modulus, p)
    acc = _mod(base, modulus, p)
    while exp:
        if exp & 1:
            result = _mod(_mul(result, acc, p), modulus, p)
        exp >>= 1
        if exp:
            acc = _mod(_mul(acc, acc, p), modulus, p)
    return result


# --- irreducibility -------------------------------------------------------


def _is_irreducible_raw(fc: list[int], p: int) -> bool:
    # Rabin's criterion: f of degree n is irreducible iff x^(p^n) == x
    # (mod f) and gcd(x^(p^(n/q)) - x, f) = 1 for every prime q | n.
    n = len(fc) - 1
    if n == 1:
        return True
    x = [0, 1]
    checkpoints = {n // q for q in _prime_divisors(n)}
    h = x
    for i in range(1, n + 1):
        h = _powmod(h, p, fc, p)
        if i in checkpoints and _gcd(_sub(h, x, p), fc, p) != [1]:
            return False
    return h == x


def _irreducible_flags(p: int, degree: int) -> bytearray:
    # A monic polynomial is reducible iff it is g*h with g monic irreducible
    # of degree m <= degree/2 and h monic of degree degree - m.  Strike out
    # every such product; the survivors are the irreducibles.  The g come
    # from the same sieve at degree m.
    flags = bytearray([1]) * p**degree
    weights = [p**k for k in range(degree)]
    for m in range(1, degree // 2 + 1):
        cofactors = list(itertools.product(range(p), repeat=degree - m))
        tails = (t[::-1] for t in itertools.product(range(p), repeat=m))  # index order
        for g in itertools.compress(tails, _irreducible_flags(p, m)):
            for h in cofactors:
                c = [0] * m + list(h)  # x^m * h below x^degree
                for i, gi in enumerate(g):
                    if gi:
                        for j, hj in enumerate(h, i):
                            c[j] += gi * hj
                        c[i + degree - m] += gi  # gi x^i times the leading x^(degree-m)
                flags[sum([ck % p * w for ck, w in zip(c, weights)])] = 0
    return flags


@lru_cache(maxsize=None)
def irreducible_table(p: int, degree: int) -> tuple[bool, ...]:
    """Lookup table over all p^degree monic polynomials of one degree.

    Index i encodes the non-leading coefficients as base-p digits with
    a_0 least significant.  Only built when p^degree <= TABLE_LIMIT.
    The table is a sieve of products: it starts with every entry set and
    clears g*h for each monic irreducible g of degree m <= degree/2 and
    each monic h of degree degree - m.  That is about p^degree / m
    small products for each m, and no Rabin test.
    """
    if not is_prime(p):
        raise ValueError(f"not prime: {p}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    size = p**degree
    if size > TABLE_LIMIT:
        raise FeasibilityError(f"table too large: {p}^{degree} = {size} exceeds {TABLE_LIMIT}")
    return tuple(map(bool, _irreducible_flags(p, degree)))


def irreducibility_tester(p: int, degree: int) -> Callable[[Sequence[int]], bool]:
    """Predicate "irreducible mod p" on the non-leading integer coefficients.

    The predicate takes (a_0, ..., a_{degree-1}) of a monic polynomial of
    the given degree.  It answers from `irreducible_table` when
    p^degree <= TABLE_LIMIT and by Rabin's test otherwise.  Raises
    ValueError ("not prime") on a composite p: Rabin's test would divide
    by a non-unit and never end.
    """
    if p**degree <= TABLE_LIMIT:
        table = irreducible_table(p, degree)

        def lookup(coeffs: Sequence[int]) -> bool:
            idx = 0
            for c in reversed(coeffs):
                idx = idx * p + c % p
            return table[idx]

        return lookup
    if not is_prime(p):
        raise ValueError(f"not prime: {p}")

    def direct(coeffs: Sequence[int]) -> bool:
        return _is_irreducible_raw([c % p for c in coeffs] + [1], p)

    return direct


def count_irreducibles_exact(degree: int, p: int) -> int:
    """Number of monic irreducibles of one degree: (1/n) sum_{d|n} mu(d) p^(n/d).

    Raises FeasibilityError ("degree too large") past DEGREE_LIMIT.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if not is_prime(p):
        raise ValueError(f"not prime: {p}")
    check_degree(degree)
    total = sum(mobius(d) * p ** (degree // d) for d in range(1, degree + 1) if degree % d == 0)
    return total // degree


@dataclass(frozen=True)
class IrreducibleAuditRow:
    """Exact count vs. the p^n/n leading term at one prime.

    `sq_normalized_error` is (N - p^n/n)^2 / p^n: the square keeps the
    comparison against the p^(n/2) error scale inside exact rational
    arithmetic (p^(n/2) itself is irrational for odd n).
    """

    p: int
    exact_count: int
    main_term: Fraction
    sq_normalized_error: Fraction


@dataclass(frozen=True)
class IrreducibleCountAudit:
    degree: int
    rows: tuple[IrreducibleAuditRow, ...]
    max_sq_normalized_error: Fraction
    within_sqrt_scale: bool


def audit_irreducible_counts(degree: int, primes: Sequence[int]) -> IrreducibleCountAudit:
    """Compare exact monic-irreducible counts against p^n/n across primes.

    `within_sqrt_scale` records whether every squared normalized error
    stayed <= 1 on the tested primes; that constant is an empirical
    observation about the tested range, not something assumed.
    """
    if degree < 2:
        raise ValueError(f"audit requires degree >= 2, got {degree}")
    if not primes:
        raise ValueError("need at least one prime to audit")
    rows = []
    for p in primes:
        exact = count_irreducibles_exact(degree, p)
        main = Fraction(p**degree, degree)
        err = (exact - main) ** 2 / Fraction(p**degree)
        rows.append(
            IrreducibleAuditRow(
                p=p, exact_count=exact, main_term=main, sq_normalized_error=err
            )
        )
    worst = max(row.sq_normalized_error for row in rows)
    return IrreducibleCountAudit(
        degree=degree,
        rows=tuple(rows),
        max_sq_normalized_error=worst,
        within_sqrt_scale=worst <= 1,
    )
