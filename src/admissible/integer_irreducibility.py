"""Exact irreducibility over Z for monic integer polynomials.

Every verdict is checkable: a reducible answer always carries a monic
factor pair (g, h) with g*h = f.  Monic polynomials are primitive, so
irreducible over Z and over Q coincide and no content bookkeeping is
needed.  The decision runs in three stages:

1. a_0 = 0 peels off a factor of x (for degree >= 2).
2. A fixed probe list of small primes: if f is irreducible mod any probe
   prime it is irreducible over Z, because monic reduction preserves the
   degree and any integer factorization would survive it.
3. Otherwise a finite search over candidate monic factors g with
   deg g = m <= deg f / 2.  The constant term of g must divide a_0 and
   coefficient i of g is confined to the Mignotte factor bound
   B_i = C(m-1, i) * ||f||_2 + C(m-1, i-1), so the search space is finite
   and the first divisor found (in a fixed order) becomes the witness.

The probe list is fixed rather than adaptive so that identical inputs
always take identical paths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .combinatorics import binomial
from .errors import FeasibilityError
from .finite_field import irreducibility_tester
from .polynomials import MonicIntPolynomial, enumerate_admissible

PROBE_PRIMES = (2, 3, 5, 7, 11, 13)

# Most candidate factors one Mignotte search may try; the candidates are
# counted before the first one is divided out.
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
    m = abs(a0)
    out = []
    for d in range(1, min(m, bound) + 1):
        if m % d == 0:
            out.append(-d)
            out.append(d)
    return out


def _ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _irreducible_mod(f: MonicIntPolynomial, p: int) -> bool:
    # Degree is preserved by monic reduction, so the degree-n test applies directly.
    return irreducibility_tester(p, f.degree)(f.coeffs)


def is_irreducible_over_z(f: MonicIntPolynomial) -> FactorizationWitness:
    """Exact irreducibility verdict over Z, with witness when reducible.

    Raises FeasibilityError ("search space exceeded") when the bounded
    factor search would have to try more than SEARCH_LIMIT candidates;
    it never returns a wrong answer.
    """
    n = f.degree
    if n == 1:
        return FactorizationWitness("irreducible")
    if f.coeffs[0] == 0:
        g = MonicIntPolynomial(1, (0,))
        h = MonicIntPolynomial(n - 1, f.coeffs[1:])
        return FactorizationWitness("reducible", (g, h))
    for p in PROBE_PRIMES:
        if _irreducible_mod(f, p):
            return FactorizationWitness("irreducible")
    return _bounded_factor_search(f)


def _bounded_factor_search(f: MonicIntPolynomial) -> FactorizationWitness:
    n = f.degree
    full = list(f.all_coefficients())
    a0 = full[0]
    norm = _ceil_sqrt(sum(c * c for c in full))

    candidates = 0
    plans = []
    for m in range(1, n // 2 + 1):
        # Mignotte: |g_i| <= C(m-1, i)*||f||_2 + C(m-1, i-1) for any factor
        # of degree m (leading coefficient of f is 1).
        bounds = [binomial(m - 1, i) * norm + binomial(m - 1, i - 1) for i in range(m)]
        divisors = _signed_divisors(a0, bounds[0])
        count = len(divisors)
        for b in bounds[1:]:
            count *= 2 * b + 1
        candidates += count
        if candidates > SEARCH_LIMIT:
            raise FeasibilityError(
                f"search space exceeded: {candidates} candidates exceed limit {SEARCH_LIMIT}"
            )
        plans.append((m, bounds, divisors))

    for m, bounds, divisors in plans:
        ranges = [range(-b, b + 1) for b in bounds[1:]]
        for b0 in divisors:
            for tail in itertools.product(*ranges):
                g = [b0, *tail, 1]
                q, r = _divmod_by_monic(full, g)
                if not any(r):
                    gp = MonicIntPolynomial(m, tuple(g[:-1]))
                    hp = MonicIntPolynomial(n - m, tuple(q[:-1]))
                    return FactorizationWitness("reducible", (gp, hp))
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
