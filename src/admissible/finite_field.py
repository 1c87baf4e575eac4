"""Polynomial arithmetic and irreducibility over the prime fields F_p.

Polynomials over F_p are plain ascending coefficient lists with entries
in [0, p) and no trailing zeros; [] is the zero polynomial.  Primality
is decided by trial division, which is all that desk-scale moduli need.

Irreducibility mod p is read off the degrees of a polynomial's monic
divisors: f of degree n is irreducible iff they are only 0 and n.
`factor_degree_sets` is the one lookup of those degrees, cached per
(p, n) so that every caller shares it; its callers compare the set with
{0, n} themselves.  `_tabled` is the one rule for how they are found.
When p^n <= TABLE_LIMIT the degrees come from a memoized lookup table
keyed by (p, n, c), c = f(1) mod p: the p^(n-1) monic polynomials of
one class, built on the first lookup of that class.  Every admissible
polynomial has f(1) = n!, so it only ever needs one class per (p, n).
A class is built by striking out every product g*h with g monic
irreducible of degree <= n/2 and g(1) h(1) = c, each entry storing the
divisor degrees read off the class table of the cofactor h.  Each g
strikes out its whole cofactor class at once, by passes of `map` over
the class's coefficient columns laid out in table order: each index
digit of g*h is a g_i-weighted sum of columns, turned into the digit
by one lookup row per (p, n) and digit.  Past the
table limit, one polynomial's divisor degrees come from its
distinct-degree factorization, the one direct algorithm here: x^p mod f
by binary powering, then each later stage x^(p^d) mod f as one product
with the Frobenius rows x^(ip) mod f, i < n, since h(x)^p = h(x^p) over
F_p (Berlekamp's Q-matrix).  Each stage takes gcd(x^(p^d) - x, f) with
f itself and counts the factors of degree d from the degrees of these
gcds alone, so no factor is ever divided out.  f is monic, so every
product is reduced by it without an inverse.  The exact count of monic
irreducibles of each degree comes from the Gauss/Moebius formula.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Callable, Sequence

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


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    # Monic gcd by Euclid.  Each step reduces the dividend in place by the
    # divisor s: one inverse of s's leading coefficient, one % p per
    # quotient coefficient, then one % p pass over the remainder.  The
    # last inverse makes the result monic.
    r, s = list(a), list(b)
    if not s:
        r, s = s, r
    neg_inv = 0
    while s:
        neg_inv = -pow(s[-1], -1, p)
        low = s[:-1]
        n = len(low)
        while len(r) > n:
            q = r.pop() * neg_inv % p
            if q:
                for j, sj in enumerate(low, len(r) - n):
                    r[j] += q * sj
        r, s = s, _trim([c % p for c in r])
    return [c * -neg_inv % p for c in r]


def _mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    # a * b mod the monic m, for a and b reduced mod m: a schoolbook
    # product, then a top-down reduction that cancels each leading
    # coefficient with one multiple of m, so it needs no inverse.
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                c[j] += ai * bj
    low = m[:-1]
    n = len(low)
    while len(c) > n:
        q = c.pop() % p
        if q:
            for j, mj in enumerate(low, len(c) - n):
                c[j] -= q * mj
    return _trim([x % p for x in c])


# --- irreducibility -------------------------------------------------------


def _distinct_degree_sets(fc: list[int], p: int) -> int:
    # Divisor degrees of f from its distinct-degree factorization.
    # gcd(x^(p^d) - x, f) is the product of the distinct irreducible factors
    # of f whose degree divides d (Knuth, TAOCP vol. 2, 4.6.2).  Its degree,
    # less the degrees found at the stages e | d, e < d, is d times the
    # number of factors of degree d, so no factor is divided out.  A
    # repeated factor breaks that count, so a non-squarefree f gets every
    # degree 0..n.  Stage 1 finds x^p mod f by binary powering.  Over F_p,
    # h(x)^p = h(x^p), so every later stage is one product with the
    # Frobenius rows x^(ip) mod f, i < n (Berlekamp's Q-matrix), built once
    # at stage 2.
    n = len(fc) - 1
    derivative = _trim([i * c % p for i, c in enumerate(fc)][1:])
    if _gcd(fc, derivative, p) != [1]:
        return (2 << n) - 1
    degrees = 1
    h, d, rows = [0, 1], 0, []
    found = [0] * (n + 1)  # found[e]: the total degree of f's factors of degree e
    left = n  # the total degree of the factors of degree > d
    while 2 * (d + 1) <= left:
        d += 1
        if d == 1:
            for bit in bin(p)[3:]:
                h = _mulmod(h, h, fc, p)
                if bit == "1":  # times x: a shift, then one multiple of f off x^n
                    h = [0, *h]
                    if len(h) > n:
                        top = h.pop()
                        h = _trim([(c - top * fi) % p for c, fi in zip(h, fc)])
        else:
            if not rows:
                rows = [[1], h]
                for _ in range(n - 2):
                    rows.append(_mulmod(rows[-1], rows[1], fc, p))
            acc = [0] * n
            for hi, row in zip(h, rows):
                if hi:
                    for j, rj in enumerate(row):
                        acc[j] += hi * rj
            h = _trim([c % p for c in acc])
        h_minus_x = h + [0] * (2 - len(h))
        h_minus_x[1] = (h_minus_x[1] - 1) % p
        g = _gcd(_trim(h_minus_x), fc, p)
        found[d] = len(g) - 1 - sum(found[e] for e in range(1, d) if d % e == 0)
        for _ in range(found[d] // d):
            degrees |= degrees << d
        left -= found[d]
    if left:  # no factor of degree <= d is left, so one irreducible remains
        degrees |= degrees << left
    return degrees


def _is_irreducible_raw(fc: list[int], p: int) -> bool:
    # f of degree n is irreducible iff its divisor degrees are {0, n}.  A
    # non-squarefree f gets every degree, so it is reducible for n >= 2.
    # The library reads the degrees themselves; the tests and
    # bench/tracer.py read this name.
    return _distinct_degree_sets(fc, p) == 1 | 1 << len(fc) - 1


def _class_columns(p: int, degree: int, c: int) -> list[list[int]]:
    # The coefficient columns a_0, ..., a_{degree-1} of the monic
    # polynomials of the class f(1) = c mod p, in table index order: a_k
    # is base-p digit k - 1 of the index, and a_0 = c - 1 - (a_1 + ... +
    # a_{degree-1}) mod p.
    size = p ** (degree - 1)
    rest = [[a for a in range(p) for _ in range(p**k)] * (size // p ** (k + 1))
            for k in range(degree - 1)]
    return [[(c - 1 - s) % p for s in map(sum, zip(*rest))] if rest else [(c - 1) % p], *rest]


@lru_cache(maxsize=None)
def _digit_rows(p: int, degree: int) -> tuple[list[int], ...]:
    # Row k - 1 maps coefficient k of a product g*h of this degree, before
    # reduction, to its table index digit (v mod p) * p^(k-1), for
    # k = 1..degree-1.  With m = deg g <= degree // 2, that coefficient is a
    # sum of at most m + 1 terms g_i h_j, each at most (p - 1)^2, and when
    # there are m + 1 one of them is g_m h_j or g_i h_{deg h}, at most p - 1.
    size = degree // 2 * (p - 1) ** 2 + p
    return tuple([v % p * p**k for v in range(size)] for k in range(degree - 1))


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
    # Each g strikes out its whole cofactor class at once, in passes over
    # the class's coefficient columns: coefficient k of g*h is a constant
    # plus a g_i-weighted sum of the columns h_j, i + j = k, and a digit
    # row turns that sum into digit k of the index.
    irreducible = 1 | 1 << degree
    sets = [irreducible] * p ** (degree - 1)
    if degree == 1:
        return tuple(sets)
    if c == 0:
        strikes = [(1, [(p - 1,)], b) for b in range(p)]
    else:
        strikes = [(m, [g for g, s in zip(zip(*_class_columns(p, m, a)),
                                          _divisor_degree_table(p, m, a)) if s == 1 | 1 << m],
                    c * pow(a, -1, p) % p)
                   for m in range(1, degree // 2 + 1) for a in range(1, p)]
    rows = _digit_rows(p, degree)
    for m, factors, b in strikes:
        d = degree - m
        h = _class_columns(p, d, b)
        products = [s | s << m for s in _divisor_degree_table(p, d, b)]
        # Per digit k: its row, j = k - d for the constant term g_j h_d
        # (h_d = 1; no constant when j < 0), and each column h_{k-i} with
        # its i.  Some g_i of those columns is nonzero, so the constant is
        # always added: g_m = 1 when k >= m, and g_0 != 0 when k < m, as g
        # is irreducible of degree m >= 2 there.
        plan = [(row, k - d, [(i, h[k - i]) for i in range(max(0, k - d + 1), min(m, k) + 1)])
                for k, row in enumerate(rows, 1)]
        for g in factors:
            g = (*g, 1)
            index = None
            for row, j, terms in plan:
                const, v = (g[j] if j >= 0 else 0), None
                for i, column in terms:
                    if not (w := g[i]):
                        continue
                    if w > 1 or const:  # range(const, ..., w)[x] = const + w x
                        column, const = map(range(const, const + w * p, w).__getitem__, column), 0
                    v = column if v is None else map(add, v, column)
                digit = map(row.__getitem__, v)
                index = digit if index is None else map(add, index, digit)
            deque(map(sets.__setitem__, index, products), 0)  # maxlen 0: scatter, keep nothing
    return tuple(sets)


@lru_cache(maxsize=None)
def irreducible_table(p: int, degree: int) -> tuple[bool, ...]:
    """Lookup table over all p^degree monic polynomials of one degree.

    Index i encodes the non-leading coefficients as base-p digits with
    a_0 least significant.  Only built when p^degree <= TABLE_LIMIT.
    Entry i is True iff the polynomial's only monic divisors have degree
    0 and degree, read through `factor_degree_sets`.  No library code
    calls it: it is a view kept for `bench/tracer.py` until that tracer
    reads run statistics from the library (ROADMAP direction 2).
    Raises what `factor_degree_sets` raises, then FeasibilityError
    ("table too large") past TABLE_LIMIT.
    """
    degrees = factor_degree_sets(p, degree)
    if not _tabled(p, degree):
        raise FeasibilityError(f"table too large: {p}^{degree} exceeds {TABLE_LIMIT}")
    if degree == 1:  # every x + a_0 is irreducible, with no class table to build
        return (True,) * p
    irreducible = 1 | 1 << degree
    return tuple(degrees(digits[::-1]) == irreducible
                 for digits in itertools.product(range(p), repeat=degree))


def _capped_power(p: int, exponent: int, bound: int) -> int:
    # p^exponent for p >= 1, or some power of p past `bound` when p^exponent
    # is: the exponent is cut at bound's bit length, so huge powers are
    # never built just to be compared.
    return p ** min(exponent, bound.bit_length())


def _tabled(p: int, degree: int) -> bool:
    # Whether (p, degree) gets lookup tables: p^degree <= TABLE_LIMIT.
    return _capped_power(p, degree, TABLE_LIMIT) <= TABLE_LIMIT


@lru_cache(maxsize=None)
def factor_degree_sets(p: int, degree: int) -> Callable[[Sequence[int]], int]:
    """Map a monic polynomial to the degrees of its monic divisors mod p.

    The map takes (a_0, ..., a_{degree-1}) and returns a bitmask whose
    bit k is set iff f mod p has a monic divisor of degree k; bits 0 and
    degree are always set, and f is irreducible mod p iff no other is.
    When p^degree <= TABLE_LIMIT the answer is read from the table of the
    class f(1) mod p, built on first use with p^(degree-1) entries, and is
    exact.  Otherwise it comes from a distinct-degree factorization,
    exact when f mod p is squarefree; when it is not, every degree is
    returned, which rules nothing out.  The map is cached per (p, degree),
    so its class slots and the primality check are shared by every call.
    Raises ValueError ("not prime") on a composite p, before the
    factorization can divide by a non-unit and never end, and on a degree
    below 1.
    """
    if not is_prime(p):
        raise ValueError(f"not prime: {p}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if not _tabled(p, degree):
        return lambda coeffs: _distinct_degree_sets([c % p for c in coeffs] + [1], p)

    tables: list[tuple[int, ...] | None] = [None] * p  # slot c: the table of class c

    def lookup(coeffs: Sequence[int]) -> int:
        idx = 0
        for c in coeffs[:0:-1]:
            idx = idx * p + c % p
        c = (sum(coeffs) + 1) % p
        table = tables[c]
        if table is None:
            table = tables[c] = _divisor_degree_table(p, degree, c)
        return table[idx]

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
