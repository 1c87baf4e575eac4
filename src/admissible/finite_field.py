"""Polynomial arithmetic and irreducibility over the prime fields F_p.

Polynomials over F_p are plain ascending coefficient lists with entries
in [0, p) and no trailing zeros; [] is the zero polynomial.  Primality
is decided by trial division, which is all that desk-scale moduli need.

Irreducibility mod p is read off the degrees of a polynomial's monic
divisors: f of degree n is irreducible iff they are only 0 and n.
`factor_degree_sets` is the one lookup of those degrees; its callers
compare the set with {0, n} themselves.  When p^n <= TABLE_LIMIT the
degrees come from a memoized lookup table keyed by (p, n, c),
c = f(1) mod p: the p^(n-1) monic polynomials of one class, built on
the first lookup of that class.  Every admissible polynomial
has f(1) = n!, so it only ever needs one class per (p, n).  A class is
built by striking out every product g*h with g monic irreducible of
degree <= n/2 and g(1) h(1) = c, each entry storing the divisor degrees
read off the class table of the cofactor h.  Past the table limit, one
polynomial's divisor degrees come from its distinct-degree
factorization, the one direct algorithm here.  The exact count of monic
irreducibles of each degree comes from the Gauss/Moebius formula.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from .errors import FeasibilityError
from .polynomials import check_degree

# Largest p^degree for which divisor degrees are read from lookup tables;
# each class f(1) mod p of such a (p, degree) holds p^(degree-1) entries.
TABLE_LIMIT = 32768

# Largest odd integer that trial division is asked to factor.  Its cost
# grows with sqrt(n): is_prime(999999999989) takes 0.08 s on a 2 vCPU
# Intel Xeon with Python 3.11, and a prime near 10^18 a thousand times as long.
MODULUS_LIMIT = 10**12

# Most primes one count audit may take.  Each is checked by trial
# division first, about 0.07 s for a prime near MODULUS_LIMIT, so the
# checks stay under about 7 s.
AUDIT_PRIME_LIMIT = 100


def _least_factor(n: int) -> int:
    # Smallest prime factor of n >= 2, by trial division over 2 and the odd numbers.
    if n % 2 == 0:
        return 2
    if n > MODULUS_LIMIT:
        raise FeasibilityError(f"modulus too large: {n} exceeds limit {MODULUS_LIMIT}")
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def is_prime(n: int) -> bool:
    """Trial-division primality check; fine for desk-scale moduli.

    Raises FeasibilityError ("modulus too large") on an odd n past
    MODULUS_LIMIT.
    """
    return n >= 2 and _least_factor(n) == n


def mobius(n: int) -> int:
    """The Moebius function: 0 on squareful n, else (-1)^(number of prime factors)."""
    if n < 1:
        raise ValueError(f"mobius expects n >= 1, got {n}")
    sign = 1
    while n > 1:
        f = _least_factor(n)
        n //= f
        if n % f == 0:
            return 0
        sign = -sign
    return sign


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


def _distinct_degree_sets(fc: list[int], p: int) -> int:
    # Divisor degrees of f from its distinct-degree factorization: once the
    # factors of degree < d are divided out, gcd(x^(p^d) - x, f) is the
    # product of the irreducible factors of degree d.  A repeated factor
    # breaks that count, so a non-squarefree f gets every degree 0..n.
    n = len(fc) - 1
    derivative = _trim([i * c % p for i, c in enumerate(fc)][1:])
    if _gcd(fc, derivative, p) != [1]:
        return (2 << n) - 1
    x = [0, 1]
    degrees = 1
    h, rest, d = x, fc, 0
    while 2 * (d + 1) <= len(rest) - 1:
        d += 1
        h = _powmod(h, p, rest, p)
        g = _gcd(_sub(h, x, p), rest, p)
        if len(g) > 1:
            for _ in range((len(g) - 1) // d):
                degrees |= degrees << d
            rest = _divmod(rest, g, p)[0]
            h = _mod(h, rest, p)
    if len(rest) > 1:  # no factor of degree <= d left, so rest is irreducible
        degrees |= degrees << len(rest) - 1
    return degrees


def _is_irreducible_raw(fc: list[int], p: int) -> bool:
    # f of degree n is irreducible iff its divisor degrees are {0, n}.  A
    # non-squarefree f gets every degree, so it is reducible for n >= 2.
    # The library reads the degrees themselves; the tests and
    # bench/tracer.py read this name.
    return _distinct_degree_sets(fc, p) == 1 | 1 << len(fc) - 1


def _class_members(p: int, degree: int, c: int) -> Iterator[tuple[tuple[int, ...], int]]:
    # (a_0, ..., a_{degree-1}) and divisor degrees of every monic polynomial
    # of the class f(1) = c mod p, in table index order.
    entries = _divisor_degree_table(p, degree, c)
    for i, digits in enumerate(itertools.product(range(p), repeat=degree - 1)):
        rest = digits[::-1]  # a_1, ..., a_{degree-1}, a_1 varying fastest
        yield ((c - 1 - sum(rest)) % p, *rest), entries[i]


@lru_cache(maxsize=None)
def _divisor_degree_table(p: int, degree: int, c: int) -> tuple[int, ...]:
    # Entry i is the bitmask of the degrees of the monic divisors (bits 0
    # and degree always set) of the monic f with f(1) = c mod p whose
    # a_1, ..., a_{degree-1} are the base-p digits of i, a_1 least
    # significant; the class fixes a_0.  A monic f is reducible iff it is
    # g*h with g monic irreducible of degree m <= degree/2, and then its
    # divisors are those of h and g times those of h: the set is
    # S(h) | S(h) << m, whichever such g is struck out.  Since
    # g(1) h(1) = f(1), h has class c / g(1) when g(1) != 0.  The one
    # irreducible with g(1) = 0 is x - 1, which divides every f of class
    # 0, so that class is struck out by x - 1 alone, with h of any class.
    # Entries no product reaches stay {0, degree}: the irreducibles.
    irreducible = 1 | 1 << degree
    sets = [irreducible] * p ** (degree - 1)
    if degree == 1:
        return tuple(sets)
    if c == 0:
        strikes = [(1, [(p - 1,)], b) for b in range(p)]
    else:
        strikes = [(m, [g for g, s in _class_members(p, m, a) if s == 1 | 1 << m],
                    c * pow(a, -1, p) % p)
                   for m in range(1, degree // 2 + 1) for a in range(1, p)]
    weights = [0] + [p**k for k in range(degree - 1)]  # a_0 is fixed by the class
    for m, factors, b in strikes:
        cofactors = [(h, s | s << m) for h, s in _class_members(p, degree - m, b)]
        for g in factors:
            for h, product_set in cofactors:
                f = [0] * m + list(h)  # x^m * h below x^degree
                for i, gi in enumerate(g):
                    if gi:
                        for j, hj in enumerate(h, i):
                            f[j] += gi * hj
                        f[i + degree - m] += gi  # gi x^i times the leading x^(degree-m)
                sets[sum([fk % p * w for fk, w in zip(f, weights)])] = product_set
    return tuple(sets)


@lru_cache(maxsize=None)
def irreducible_table(p: int, degree: int) -> tuple[bool, ...]:
    """Lookup table over all p^degree monic polynomials of one degree.

    Index i encodes the non-leading coefficients as base-p digits with
    a_0 least significant.  Only built when p^degree <= TABLE_LIMIT.
    Entry i is True iff the polynomial's only monic divisors have degree
    0 and degree, read through `factor_degree_sets`.  No library code
    calls it: it is a view kept for `bench/tracer.py` until that tracer
    reads run statistics from the library (ROADMAP direction 1).
    """
    if not is_prime(p):
        raise ValueError(f"not prime: {p}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    size = p**degree
    if size > TABLE_LIMIT:
        raise FeasibilityError(f"table too large: {p}^{degree} = {size} exceeds {TABLE_LIMIT}")
    if degree == 1:  # every x + a_0 is irreducible, with no class table to build
        return (True,) * p
    degrees = factor_degree_sets(p, degree)
    irreducible = 1 | 1 << degree
    return tuple(degrees(digits[::-1]) == irreducible
                 for digits in itertools.product(range(p), repeat=degree))


def factor_degree_sets(p: int, degree: int) -> Callable[[Sequence[int]], int]:
    """Map a monic polynomial to the degrees of its monic divisors mod p.

    The map takes (a_0, ..., a_{degree-1}) and returns a bitmask whose
    bit k is set iff f mod p has a monic divisor of degree k; bits 0 and
    degree are always set, and f is irreducible mod p iff no other is.
    When p^degree <= TABLE_LIMIT the answer is read from the table of the
    class f(1) mod p, built on first use with p^(degree-1) entries, and is
    exact.  Otherwise it comes from a distinct-degree factorization,
    exact when f mod p is squarefree; when it is not, every degree is
    returned, which rules nothing out.  Raises ValueError ("not prime")
    on a composite p, before the factorization can divide by a non-unit
    and never end, and on a degree below 1.
    """
    if not is_prime(p):
        raise ValueError(f"not prime: {p}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if p**degree > TABLE_LIMIT:
        return lambda coeffs: _distinct_degree_sets([c % p for c in coeffs] + [1], p)

    def lookup(coeffs: Sequence[int]) -> int:
        idx = 0
        for c in coeffs[:0:-1]:
            idx = idx * p + c % p
        return _divisor_degree_table(p, degree, (sum(coeffs) + 1) % p)[idx]

    return lookup


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
    observation about the tested range, not something assumed.  Raises
    FeasibilityError ("audit too large") past AUDIT_PRIME_LIMIT primes,
    before any of them is checked.
    """
    if degree < 2:
        raise ValueError(f"audit requires degree >= 2, got {degree}")
    if not primes:
        raise ValueError("need at least one prime to audit")
    if len(primes) > AUDIT_PRIME_LIMIT:
        raise FeasibilityError(
            f"audit too large: {len(primes)} primes exceed limit {AUDIT_PRIME_LIMIT}"
        )
    counts = [count_irreducibles_exact(degree, p) for p in primes]  # every prime checked first
    rows = []
    for p, exact in zip(primes, counts):
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
