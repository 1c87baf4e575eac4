"""Exact irreducibility over Z for monic integer polynomials.

Every verdict is checkable: a reducible answer always carries a monic
factor pair (g, h) with g*h = f.  Monic polynomials are primitive, so
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
   term of g must divide a_0 and coefficient i of g is confined to the
   Mignotte factor bound B_i = C(m-1, i) * ||f||_2 + C(m-1, i-1), so the
   search space is finite.  Within it only candidates with g(1) | f(1)
   and g(-1) | f(-1) are divided out, and for m >= 2 the top
   coefficient is solved from the first condition.  If no degree
   survives, f is irreducible without a single division.

The candidates f may need, the linear ones and those of the degrees
>= 2 that stage 2 leaves, are counted against SEARCH_LIMIT before any
is tried.

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
# the linear ones, plus those of the degrees >= 2 its factor-degree sets
# leave; they are counted before any is tried.
SEARCH_LIMIT = 10**9


@dataclass(frozen=True)
class FactorizationWitness:
    """Verdict plus, when reducible, a monic factor pair with g*h = f."""

    status: str
    factors: tuple[MonicIntPolynomial, MonicIntPolynomial] | None = None

    def __post_init__(self):
        if self.status not in ("irreducible", "reducible"):
            raise ValueError(f"unknown status: {self.status!r}")
        if self.status == "reducible":
            if self.factors is None:
                raise ValueError("reducible verdict needs a factor pair")
            g, h = self.factors
            if not 1 <= g.degree <= h.degree:
                raise ValueError("factors must satisfy 1 <= deg g <= deg h")
        elif self.factors is not None:
            raise ValueError("irreducible verdict carries no factors")

    @property
    def irreducible(self) -> bool:
        return self.status == "irreducible"


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


def _ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _irreducible_mod(f: MonicIntPolynomial, p: int) -> int:
    # The factor-degree set of f mod p, a bitmask (bit m: a monic divisor of
    # degree m), not a verdict.  Degree is preserved by monic reduction.
    # The name stays because bench/tracer.py binds it.
    return factor_degree_sets(p, f.degree)(f.coeffs)


def is_irreducible_over_z(f: MonicIntPolynomial) -> FactorizationWitness:
    """Exact irreducibility verdict over Z, with witness when reducible.

    Raises FeasibilityError ("search space exceeded") when the part of
    the Mignotte box that f needs holds more than SEARCH_LIMIT candidate
    factors: the linear candidates plus those of the degrees >= 2 its
    factor-degree sets leave open, counted before any is tried.  It
    never returns a wrong answer.
    """
    n = f.degree
    if n == 1:
        return FactorizationWitness("irreducible")
    if f.coeffs[0] == 0:
        g = MonicIntPolynomial(1, (0,))
        h = MonicIntPolynomial(n - 1, f.coeffs[1:])
        return FactorizationWitness("reducible", (g, h))
    box = _mignotte_box(f)
    degrees = _open_degrees(f)
    _check_search_space(box[:1] + [part for part in box[1:] if degrees >> part[0] & 1])
    return _bounded_factor_search(f, [part for part in box if degrees >> part[0] & 1])


def _open_degrees(f: MonicIntPolynomial) -> int:
    # Bits 1..n/2 left in the factor-degree sets of f mod FACTOR_DEGREE_PRIMES;
    # the primes stop once no bit >= 2 is left.
    degrees = (2 << f.degree // 2) - 2
    for p in FACTOR_DEGREE_PRIMES:
        if degrees < 4:
            break
        degrees &= _irreducible_mod(f, p)
    return degrees


def _mignotte_box(f: MonicIntPolynomial) -> list[tuple[int, list[int], list[int]]]:
    # (m, coefficient bounds, constant terms) of the candidate factors of
    # each degree m <= n/2.  Mignotte: |g_i| <= C(m-1, i)*||f||_2 +
    # C(m-1, i-1) for any factor of degree m (f monic), so every degree
    # shares the constant terms: the divisors of a_0 up to ||f||_2.
    full = f.all_coefficients()
    norm = _ceil_sqrt(sum(c * c for c in full))
    divisors = _signed_divisors(full[0], norm)
    return [(m, [binomial(m - 1, i) * norm + binomial(m - 1, i - 1) for i in range(m)], divisors)
            for m in range(1, f.degree // 2 + 1)]


def _check_search_space(box: list[tuple[int, list[int], list[int]]]) -> None:
    # Count the candidates of `box` degree by degree against SEARCH_LIMIT.
    candidates = 0
    for _, bounds, divisors in box:
        candidates += len(divisors) * math.prod(2 * b + 1 for b in bounds[1:])
        if candidates > SEARCH_LIMIT:
            raise FeasibilityError(
                f"search space exceeded: {candidates} candidates exceed limit {SEARCH_LIMIT}"
            )


def _divides(d: int, value: int) -> bool:
    # Whether d | value, in the sense needed here: value 0 constrains nothing.
    return value == 0 or (d != 0 and value % d == 0)


def _candidates(bounds: list[int], divisors: list[int], at_one: int,
                at_minus_one: int) -> Iterator[list[int]]:
    # Candidate factors [b_0, ..., b_{m-1}, 1] of degree m = len(bounds),
    # in box order: b_0 over `divisors`, then b_1, ..., b_{m-1}
    # lexicographically, each ascending within its Mignotte bound.  Only
    # those with g(1) | f(1) and g(-1) | f(-1) are yielded, a subsequence
    # that keeps every factor.
    m = len(bounds)
    if m == 1:  # x + b: g(1) = 1 + b, g(-1) = b - 1
        yield from ([b, 1] for b in divisors
                    if _divides(1 + b, at_one) and _divides(b - 1, at_minus_one))
        return
    top = bounds[-1]
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
            if _divides(alternating + sign * b, at_minus_one):
                yield [*head, b, 1]


def _bounded_factor_search(
    f: MonicIntPolynomial, box: list[tuple[int, list[int], list[int]]]
) -> FactorizationWitness:
    # The first divisor of f among the candidates of `box`, degree by degree.
    full = list(f.all_coefficients())
    at_one = sum(full)
    at_minus_one = sum(full[::2]) - sum(full[1::2])
    for m, bounds, divisors in box:
        for g in _candidates(bounds, divisors, at_one, at_minus_one):
            q, r = _divmod_by_monic(full, g)
            if not any(r):
                return FactorizationWitness("reducible", (
                    MonicIntPolynomial(m, tuple(g[:-1])),
                    MonicIntPolynomial(f.degree - m, tuple(q[:-1])),
                ))
    return FactorizationWitness("irreducible")


def admissible_witnesses(
    degree: int, height: int
) -> Iterator[tuple[MonicIntPolynomial, FactorizationWitness]]:
    """Yield (f, verdict) for every admissible f, in enumeration order."""
    for f in enumerate_admissible(degree, height):
        yield f, is_irreducible_over_z(f)


def count_admissible_irreducible(degree: int, height: int) -> int:
    """Exact count of admissible polynomials irreducible over Z."""
    return sum(w.irreducible for _, w in admissible_witnesses(degree, height))
