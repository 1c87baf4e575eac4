"""Prime sieving, the Turan sieve inequality, and the sifting pipeline.

The sifting sets here are "irreducible mod p": an admissible polynomial
belongs to A_p when its reduction mod p is irreducible.  One membership
pass counts the polynomials by their bitmask of A_p memberships over the
primes below z; member counts, pairwise intersection counts and the
sifted count are all read off that histogram, exactly.  The bound is
evaluated in exact rational arithmetic, so a violation means a bug.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import FeasibilityError
from .finite_field import TABLE_LIMIT, irreducibility_tester
from .integer_irreducibility import count_admissible_irreducible
from .polynomials import (
    MonicIntPolynomial,
    check_degree,
    count_admissible_exact,
    enumerate_admissible,
)

# Largest integer the prime sieve marks; beyond it the bytearray and the
# scan stop being desk-scale.
SIEVE_LIMIT = 10**7

# Most primes a Turan instance may sieve by.  Its pair table and the
# bound's double sum grow with the square of the prime count: at 500 primes
# each already takes seconds, and 9,592 primes would mean a 46M-entry table.
INSTANCE_PRIME_LIMIT = 500

# Most direct tests an instance may need: the ambient size times the
# primes below z with p^degree > TABLE_LIMIT, which get no lookup table.
# One degree-4 test took 0.1 ms (p near 17) to 0.4 ms (p near 3,571) on
# a 2 vCPU Intel Xeon with Python 3.11, so this is about 8 s at most.
DIRECT_TEST_LIMIT = 20_000

# The Chebyshev audit's band for pi(z) * ln(z) / z, from z = 17 on.
CHEBYSHEV_BAND = (0.9, 1.3)


def _prime_flags(n: int) -> bytearray:
    # Sieve of Eratosthenes over [0, n), n >= 2: flags[i] == 1 iff i is prime.
    if n - 1 > SIEVE_LIMIT:
        raise FeasibilityError(f"sieve too large: {n - 1} exceeds limit {SIEVE_LIMIT}")
    flags = bytearray([1]) * n
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, n, p)))
    return flags


def primes_below(z: int) -> tuple[int, ...]:
    """All primes strictly below z, ascending (sieve of Eratosthenes)."""
    if z < 1:
        raise ValueError(f"z must be >= 1, got {z}")
    if z <= 2:
        return ()
    return tuple(itertools.compress(range(z), _prime_flags(z)))


@dataclass(frozen=True)
class ChebyshevSample:
    z: int
    prime_count: int
    ratio: float


@dataclass(frozen=True)
class ChebyshevAudit:
    """pi(z) * ln(z) / z sampled and scanned against CHEBYSHEV_BAND.

    `within_band` covers every integer z in [scan_start, z_max]; the
    ratios are floating point on purpose (they are reference magnitudes,
    not exact payload data).
    """

    z_max: int
    samples: tuple[ChebyshevSample, ...]
    scan_start: int
    ratio_min: float | None
    ratio_max: float | None
    within_band: bool
    band: tuple[float, float]


def audit_chebyshev(z_max: int) -> ChebyshevAudit:
    """Scan pi(z) * ln(z) / z over [17, z_max] and sample a few checkpoints.

    The scan shares a single sieve pass with the running prime count, so
    a million-point audit stays cheap.
    """
    if z_max < 3:
        raise ValueError(f"z_max must be >= 3, got {z_max}")
    flags = _prime_flags(z_max + 1)

    checkpoints = {3, z_max}
    mark = 10
    while mark <= z_max:
        checkpoints.add(mark)
        mark *= 10

    scan_start = 17
    lo, hi = CHEBYSHEV_BAND
    samples = []
    ratio_min: float | None = None
    ratio_max: float | None = None
    within = True
    log = math.log
    running = 0
    for z in range(2, z_max + 1):
        running += flags[z]
        if z >= scan_start:
            ratio = running * log(z) / z
            if ratio_min is None or ratio < ratio_min:
                ratio_min = ratio
            if ratio_max is None or ratio > ratio_max:
                ratio_max = ratio
            if not lo <= ratio <= hi:
                within = False
        if z in checkpoints:
            samples.append(ChebyshevSample(z=z, prime_count=running, ratio=running * log(z) / z))
    return ChebyshevAudit(
        z_max=z_max,
        samples=tuple(samples),
        scan_start=scan_start,
        ratio_min=ratio_min,
        ratio_max=ratio_max,
        within_band=within,
        band=CHEBYSHEV_BAND,
    )


@dataclass(frozen=True)
class TuranInstance:
    """A fully materialized sifting problem with exact per-prime data.

    member_counts[p] is |A_p|; pair_counts[(p, q)] with p <= q is
    |A_p intersect A_q| (for p == q that is |A_p| itself).  Densities are
    exact rationals in [0, 1).
    """

    ambient_size: int
    z: int
    primes: tuple[int, ...]
    densities: dict[int, Fraction]
    member_counts: dict[int, int]
    pair_counts: dict[tuple[int, int], int]

    def __post_init__(self):
        if self.ambient_size < 0:
            raise ValueError("ambient_size must be >= 0")
        for p in self.primes:
            if p not in self.densities or p not in self.member_counts:
                raise ValueError(f"missing density or member count for prime {p}")
            if not 0 <= self.densities[p] < 1:
                raise ValueError(f"density for {p} must lie in [0, 1)")
            if not 0 <= self.member_counts[p] <= self.ambient_size:
                raise ValueError(f"member count for {p} exceeds the ambient set")
        for p in self.primes:
            for q in self.primes:
                if p < q and (p, q) not in self.pair_counts:
                    raise ValueError(f"missing pair count for ({p}, {q})")
        for (p, q), c in self.pair_counts.items():
            if p > q or p not in self.member_counts or q not in self.member_counts:
                raise ValueError(f"bad pair key ({p}, {q})")
            if p == q and c != self.member_counts[p]:
                raise ValueError(f"pair count ({p}, {p}) must equal the member count")
            if c > min(self.member_counts[p], self.member_counts[q]):
                raise ValueError(f"pair count ({p}, {q}) exceeds a member count")

    def intersection_count(self, p: int, q: int) -> int:
        if p == q:
            return self.member_counts[p]
        key = (p, q) if p < q else (q, p)
        return self.pair_counts[key]


def turan_upper_bound(inst: TuranInstance) -> Fraction:
    """The three-term Turan bound on the sifted count, exactly.

        |A|/U + (2/U) sum_p |R_p| + (1/U^2) sum_{p,q} |R_{p,q}|

    with U the density sum, R_p = |A_p| - d_p|A|, and
    R_{p,q} = |A_p ^ A_q| - d_p d_q |A| summed over ordered pairs,
    the diagonal included.  Raises ValueError ("empty sieve") when U = 0.
    """
    U = sum((inst.densities[p] for p in inst.primes), Fraction(0))
    if U == 0:
        raise ValueError("empty sieve: density sum U(z) is zero")
    size = inst.ambient_size
    single = Fraction(0)
    for p in inst.primes:
        single += abs(inst.member_counts[p] - inst.densities[p] * size)
    double = Fraction(0)
    for p in inst.primes:
        for q in inst.primes:
            expected = inst.densities[p] * inst.densities[q] * size
            double += abs(inst.intersection_count(p, q) - expected)
    return Fraction(size) / U + 2 / U * single + 1 / U**2 * double


def _membership_histogram(ambient: Iterable[MonicIntPolynomial], primes: tuple[int, ...],
                          first_hit: bool = False) -> dict[int, int]:
    # The one membership pass: polynomials counted by an integer mask whose
    # bit i is set iff the reduction mod primes[i] is irreducible.  With
    # first_hit a polynomial stops at its first irreducible reduction, so
    # only mask 0 (the sifted count) stays exact.
    histogram: dict[int, int] = {}
    degree = None
    for f in ambient:
        if f.degree != degree:
            if degree is not None:
                raise ValueError(f"mixed degrees: {f.degree} after {degree}")
            degree = f.degree
            testers = [(1 << i, irreducibility_tester(p, degree)) for i, p in enumerate(primes)]
        coeffs = f.coeffs
        mask = 0
        for bit, test in testers:
            if test(coeffs):
                mask |= bit
                if first_hit:
                    break
        histogram[mask] = histogram.get(mask, 0) + 1
    return histogram


def exact_sifted_count(ambient: Iterable[MonicIntPolynomial], z: int) -> int:
    """Count polynomials whose reduction is reducible at every prime p < z.

    All polynomials must share one degree; a change of degree raises
    ValueError.  With no primes below z nothing is sifted and the
    ambient size comes back unchanged.  A polynomial is tested at no
    further prime once one reduction is irreducible.
    """
    return _membership_histogram(ambient, primes_below(z), first_hit=True).get(0, 0)


def _sifting_problem(degree: int, height: int, z: int) -> tuple[TuranInstance, dict[int, int]]:
    # The Turan instance at level z and the membership histogram it was read from.
    if degree < 2:
        raise ValueError(f"instance needs degree >= 2, got {degree}")
    check_degree(degree)  # before p^degree below
    primes = primes_below(z)
    if len(primes) > INSTANCE_PRIME_LIMIT:
        raise FeasibilityError(f"sieve level too large: {len(primes)} primes below {z} "
                               f"exceed limit {INSTANCE_PRIME_LIMIT}")
    untabled = sum(p**degree > TABLE_LIMIT for p in primes)
    if untabled:
        tests = count_admissible_exact(degree, height) * untabled
        if tests > DIRECT_TEST_LIMIT:
            raise FeasibilityError(f"sieve work too large: {tests} direct tests for primes "
                                   f"without a table exceed limit {DIRECT_TEST_LIMIT}")
    histogram = _membership_histogram(enumerate_admissible(degree, height), primes)
    pair = {(p, q): 0 for i, p in enumerate(primes) for q in primes[i:]}
    for mask, count in histogram.items():
        hits = [p for i, p in enumerate(primes) if mask >> i & 1]
        for key in itertools.combinations_with_replacement(hits, 2):
            pair[key] += count
    instance = TuranInstance(
        ambient_size=sum(histogram.values()),
        z=z,
        primes=primes,
        densities=dict.fromkeys(primes, Fraction(1, degree)),
        member_counts={p: pair[(p, p)] for p in primes},
        pair_counts=pair,
    )
    return instance, histogram


def build_admissible_instance(degree: int, height: int, z: int) -> TuranInstance:
    """Materialize the sifting problem for the admissible set at level z.

    Densities are all 1/degree; member and pairwise counts are exact,
    obtained by testing every admissible polynomial mod every prime
    below z.  The closed-form remainder shapes belong to the pipeline
    report, never to this instance.  Raises FeasibilityError ("sieve
    level too large") past INSTANCE_PRIME_LIMIT primes below z, and
    ("sieve work too large") past DIRECT_TEST_LIMIT direct tests.
    """
    return _sifting_problem(degree, height, z)[0]


def sieve_level(height: int) -> int:
    """round((H * ln H)^(1/3)), the canonical sieve level for height H.

    Rounding is Python's round-half-to-even.  Primes are taken strictly
    below the level, so levels below 3 admit no primes and leave the
    ambient set unsifted.
    """
    if height < 2:
        raise ValueError(f"height must be >= 2, got {height}")
    return round((height * math.log(height)) ** (1.0 / 3.0))


@dataclass(frozen=True)
class PrimeRemainderDetail:
    """Exact remainder at one prime next to its closed-form reference shape.

    `remainder_reference` is H^(n-1)/p^(n/2) + H^(n-2)*p evaluated in
    floating point; it is displayed for comparison only and never enters
    the exact bound.
    """

    p: int
    member_count: int
    remainder: Fraction
    remainder_reference: float


@dataclass(frozen=True)
class PipelineReport:
    """Everything the sifting pipeline produced at one (degree, height).

    Exact fields: ambient_count (the admissible census), sifted_exact,
    turan_bound (None when no primes sit below z), irreducible_count and
    the per-prime remainders.  The *_reference fields are floating-point
    magnitudes for orientation.
    """

    degree: int
    height: int
    z: int
    z_overridden: bool
    density: Fraction
    ambient_count: int
    sifted_exact: int
    turan_bound: Fraction | None
    irreducible_count: int
    turan_inequality_holds: bool | None
    chain_inequality_holds: bool
    main_term_reference: float
    error_term_reference: float
    per_prime: tuple[PrimeRemainderDetail, ...]


def pipeline_lower_bound(
    degree: int, height: int, z_override: int | None = None
) -> PipelineReport:
    """Run the full sifting pipeline and check its two guaranteed inequalities.

    S_exact <= turan bound (when the bound exists) and
    A >= N - S_exact always: a monic factorization over Z reduces to a
    factorization of the same degree split mod every prime, so every
    reducible polynomial survives the sifting.  The closed-form N(H)
    behind the remainders must also equal the enumerated ambient size
    behind the bound.  Violations raise RuntimeError because they can
    only be implementation bugs.
    """
    if degree < 3:
        raise ValueError(f"pipeline requires degree >= 3, got {degree}")
    if height < 0:
        raise ValueError(f"height must be >= 0, got {height}")
    z = z_override
    if z is None:
        z = sieve_level(height) if height >= 2 else 1

    instance, histogram = _sifting_problem(degree, height, z)
    sifted = histogram.get(0, 0)
    ambient_count = count_admissible_exact(degree, height)
    bound = turan_upper_bound(instance) if instance.primes else None
    irreducible = count_admissible_irreducible(degree, height)

    turan_holds = None if bound is None else Fraction(sifted) <= bound
    chain_holds = irreducible >= ambient_count - sifted
    if ambient_count != instance.ambient_size:
        raise RuntimeError("closed-form and enumerated N(H) differ; this is a bug")
    if turan_holds is False:
        raise RuntimeError("Turan inequality violated; this is a bug")
    if not chain_holds:
        raise RuntimeError("sifting chain inequality violated; this is a bug")

    main_ref = height ** (degree - 1) / math.factorial(degree - 1)
    error_ref = (
        height ** (degree - 4.0 / 3.0) * math.log(height) ** (2.0 / 3.0)
        if height >= 2
        else 0.0
    )
    details = []
    for p in instance.primes:
        exact_remainder = instance.member_counts[p] - instance.densities[p] * ambient_count
        shape = height ** (degree - 1) / p ** (degree / 2.0) + height ** (degree - 2) * p
        details.append(
            PrimeRemainderDetail(
                p=p,
                member_count=instance.member_counts[p],
                remainder=exact_remainder,
                remainder_reference=shape,
            )
        )
    return PipelineReport(
        degree=degree,
        height=height,
        z=z,
        z_overridden=z_override is not None,
        density=Fraction(1, degree),
        ambient_count=ambient_count,
        sifted_exact=sifted,
        turan_bound=bound,
        irreducible_count=irreducible,
        turan_inequality_holds=turan_holds,
        chain_inequality_holds=chain_holds,
        main_term_reference=main_ref,
        error_term_reference=error_ref,
        per_prime=tuple(details),
    )
