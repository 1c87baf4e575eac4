"""Exact irreducibility over Z for monic integer polynomials.

Every verdict is checkable: it is a FactorizationWitness whose one
field, `factors`, is None when f is irreducible and otherwise a monic
factor pair (g, h) with g*h = f, so the verdict is read off the pair
and cannot contradict it.  Monic polynomials are primitive, so
irreducible over Z and over Q coincide and no content bookkeeping is
needed.  The decision runs in three stages:

1. a_0 = 0 peels off a factor of x (for degree >= 2).
2. Factor-degree sets mod the primes of FACTOR_DEGREE_PRIMES, in order:
   a monic factor of degree m over Z stays a monic divisor of degree m
   mod every p, so only the degrees 1 <= m <= deg f / 2 found at every
   prime can be factor degrees.  The primes stop once no degree >= 2 is
   left; a polynomial of degree <= 3 needs none of them.
3. A finite search over candidate monic factors g with deg g = m among
   the surviving degrees, the linear ones x + b first.  The constant
   term of g must divide a_0, so x + b divides f exactly when b | a_0
   and f(-b) = 0, which Horner's rule decides with no division.  For
   m >= 2 coefficient i of g is confined to the Mignotte factor bound
   B_i = C(m-1, i) * ||f||_2 + C(m-1, i-1), and only the candidates of
   that box with g(1) | f(1) and g(-1) | f(-1) are divided out, the top
   coefficient solved from the first.  The norm and the box are built
   only when a degree >= 2 survives; when no degree survives, f is
   irreducible with no divisor of a_0 listed and no division.

The candidates of the degrees stage 2 leaves open, and only those, are
counted against SEARCH_LIMIT before any is tried, and so are the
sqrt|a_0| trial divisions that list the divisors of a_0.  The constant
terms -1 and 1 divide every a_0, so the candidates with those two alone
are counted first, before the listing.

Every stage only drops candidates that cannot divide f, and the box is
searched degree by degree, so the witness is the first divisor of the
whole box in its fixed order.  The prime list and the search orders are
fixed rather than adaptive so that identical inputs always take
identical paths.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator

from .combinatorics import binomial
from .errors import FeasibilityError
from .finite_field import factor_degree_sets
from .polynomials import MonicIntPolynomial, enumerate_admissible

# Primes whose factor-degree sets are intersected, in this order.
FACTOR_DEGREE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

# Most candidate factors one polynomial may need from its Mignotte box:
# those of the degrees its factor-degree sets leave open, counted before
# any is tried.  It also caps the trial divisions that list a_0's divisors.
SEARCH_LIMIT = 10**9


@dataclass(frozen=True)
class FactorizationWitness:
    """A verdict over Z: `factors` is None when f is irreducible, and
    otherwise a monic factor pair (g, h) with g*h = f and
    1 <= deg g <= deg h.  `irreducible` and `status` are read off it.
    """

    factors: tuple[MonicIntPolynomial, MonicIntPolynomial] | None = None

    def __post_init__(self):
        if self.factors is not None:
            g, h = self.factors
            if not 1 <= g.degree <= h.degree:
                raise ValueError("factors must satisfy 1 <= deg g <= deg h")

    @property
    def irreducible(self) -> bool:
        return self.factors is None

    @property
    def status(self) -> str:
        return "irreducible" if self.factors is None else "reducible"


def _divmod_by_monic(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    # Long division of f by monic g over Z; exact integer arithmetic.
    q = [0] * (len(f) - len(g) + 1)
    r = list(f)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + len(g) - 1]
        q[i] = c
        if c:
            for j, gj in enumerate(g[:-1]):
                r[i + j] -= c * gj
            r[i + len(g) - 1] = 0
    return q, r[: len(g) - 1]


def _signed_divisors(a0: int, bound: int) -> list[int]:
    # Divisors d of a0 with |d| <= bound, ordered by (|d|, sign): -1, 1, -2, 2, ...
    # Each d <= sqrt|a0| is paired with |a0| / d, so the loop runs at most
    # sqrt|a0| times whatever the bound.
    m = abs(a0)
    small, large = [], []
    for d in range(1, min(math.isqrt(m), bound) + 1):
        if m % d == 0:
            small.append(d)
            if d < m // d <= bound:
                large.append(m // d)
    return [s for d in small + large[::-1] for s in (-d, d)]


def _irreducible_mod(f: MonicIntPolynomial, p: int) -> int:
    # The factor-degree set of f mod p, a bitmask (bit m: a monic divisor of
    # degree m), not a verdict.  Degree is preserved by monic reduction.
    # The name stays because bench/tracer.py binds it.
    return factor_degree_sets(p, f.degree)(f.coeffs)


def is_irreducible_over_z(f: MonicIntPolynomial) -> FactorizationWitness:
    """Exact irreducibility verdict over Z, with witness when reducible.

    Raises FeasibilityError ("search space exceeded") when the part of
    the Mignotte box that f needs holds more than SEARCH_LIMIT candidate
    factors: those of the degrees its factor-degree sets leave open,
    counted before any is tried, or when listing the divisors of a_0
    takes more than SEARCH_LIMIT trial divisions, about sqrt|a_0|.  The
    candidates with constant term -1 or 1 are counted before that
    listing, so a box too large with those alone never lists a divisor.
    No box is built when none is open.  It never returns a wrong answer.
    """
    n = f.degree
    if n == 1:
        return FactorizationWitness()
    if f.coeffs[0] == 0:
        g = MonicIntPolynomial(1, (0,))
        h = MonicIntPolynomial(n - 1, f.coeffs[1:])
        return FactorizationWitness((g, h))
    return _bounded_factor_search(f, _open_degrees(f))


def _open_degrees(f: MonicIntPolynomial) -> int:
    # Bits 1..n/2 left in the factor-degree sets of f mod FACTOR_DEGREE_PRIMES;
    # the primes stop once no bit >= 2 is left.
    degrees = (2 << f.degree // 2) - 2
    for p in FACTOR_DEGREE_PRIMES:
        if degrees < 4:
            break
        degrees &= _irreducible_mod(f, p)
    return degrees


def _candidates(bounds: list[int], divisors: list[int], full: list[int]) -> Iterator[list[int]]:
    # Candidate factors [b_0, ..., b_{m-1}, 1] of f of degree m = len(bounds)
    # >= 2, in box order: b_0 over `divisors`, then b_1, ..., b_{m-1}
    # lexicographically, each ascending within its Mignotte bound.  Only
    # those with g(1) | f(1) and g(-1) | f(-1) are yielded, a subsequence
    # that keeps every factor; b_{m-1} is solved from the first.
    m = len(bounds)
    top = bounds[-1]
    at_one, at_minus_one = sum(full), sum(full[::2]) - sum(full[1::2])
    # Every value g(1) may take, ascending; |g(1)| <= 1 + sum of the bounds.
    values = sorted(_signed_divisors(at_one, sum(bounds) + 1)) if at_one else None
    sign = (-1) ** (m - 1)  # of b_{m-1} in g(-1)
    ranges = [range(-b, b + 1) for b in bounds[1:-1]]
    for head in itertools.product(divisors, *ranges):
        rest = 1 + sum(head)  # g(1) - b_{m-1}
        if values is None:
            tops = range(-top, top + 1)
        else:
            window = values[bisect_left(values, rest - top):bisect_right(values, rest + top)]
            tops = [v - rest for v in window]
        alternating = sum(head[::2]) - sum(head[1::2]) - sign  # g(-1) - sign * b_{m-1}
        for b in tops:
            d = alternating + sign * b  # g(-1); f(-1) = 0 constrains nothing
            if not at_minus_one or (d != 0 and at_minus_one % d == 0):
                yield [*head, b, 1]


def _check_candidates(candidates: int) -> None:
    if candidates > SEARCH_LIMIT:
        raise FeasibilityError(
            f"search space exceeded: {candidates} candidates exceed limit {SEARCH_LIMIT}"
        )


def _bounded_factor_search(f: MonicIntPolynomial, degrees: int) -> FactorizationWitness:
    # The first divisor of f among the candidates of the degrees m whose bit
    # is set in `degrees`, degree by degree.  Every degree shares the constant
    # terms, all the divisors of a_0: their Mignotte bound ||f||_2 >= |a_0|
    # cuts none.  Before any candidate is tried, SEARCH_LIMIT checks the
    # sqrt|a_0| trial divisions that list them, then the candidates with
    # constant term -1 or 1 alone, degree by degree, then all of them.  x + b
    # divides f exactly when f(-b) = 0, so the norm and the Mignotte box
    # |g_i| <= C(m-1, i)*||f||_2 + C(m-1, i-1) are built for m >= 2 only.
    if not degrees:
        return FactorizationWitness()
    full = list(f.all_coefficients())
    if (trials := math.isqrt(abs(full[0]))) > SEARCH_LIMIT:
        raise FeasibilityError(f"search space exceeded: {trials} trial divisions of a_0 "
                               f"exceed limit {SEARCH_LIMIT}")
    tails = degrees >> 1 & 1  # candidates per constant term, over the degrees counted so far
    if tails:
        _check_candidates(2)
    box = []
    if degrees >= 4:
        norm = 1 + math.isqrt(sum(c * c for c in full) - 1)  # ceil(||f||_2)
        box = [[binomial(m - 1, i) * norm + binomial(m - 1, i - 1) for i in range(m)]
               for m in range(2, degrees.bit_length()) if degrees >> m & 1]
    for bounds in box:
        tails += math.prod(2 * b + 1 for b in bounds[1:])
        _check_candidates(2 * tails)
    divisors = _signed_divisors(full[0], abs(full[0]))
    _check_candidates(len(divisors) * tails)
    first_root = []  # [[b, 1]] for the first divisor b with f(-b) = 0
    if degrees & 2:
        top_down = full[::-1]
        for b in divisors:
            value = 0  # f(-b) by Horner's rule
            for c in top_down:
                value = c - b * value
            if not value:
                first_root.append([b, 1])
                break
    for g in itertools.chain(first_root, *(_candidates(bounds, divisors, full) for bounds in box)):
        q, r = _divmod_by_monic(full, g)
        if not any(r):
            m = len(g) - 1
            return FactorizationWitness((MonicIntPolynomial(m, tuple(g[:-1])),
                                         MonicIntPolynomial(f.degree - m, tuple(q[:-1]))))
    return FactorizationWitness()


def admissible_witnesses(
    degree: int, height: int
) -> Iterator[tuple[MonicIntPolynomial, FactorizationWitness]]:
    """Yield (f, verdict) for every admissible f, in enumeration order."""
    for f in enumerate_admissible(degree, height):
        yield f, is_irreducible_over_z(f)


def count_admissible_irreducible(degree: int, height: int) -> int:
    """Exact count of admissible polynomials irreducible over Z."""
    return sum(w.irreducible for _, w in admissible_witnesses(degree, height))
