"""Prime sieving, the Turan sieve inequality, and the sifting pipeline.

The sifting sets here are "irreducible mod p": an admissible polynomial
belongs to A_p when its reduction mod p is irreducible.  The polynomials
are counted by their bitmask of A_p memberships over the primes below z;
member counts, pairwise intersection counts and the sifted count are all
read off that histogram, exactly.  Every Turan instance, the pipeline's
included, takes the cheaper of two routes to it: testing every
polynomial, or counting by residue class.  Membership in A_p depends on
f mod p only, so the second route tests residue vectors and counts the
integer lifts of each in closed form: p^(n-1) vectors mod each prime p
up to the degree n, where A_p must be empty, and P^(n-1) mod the product
P of the primes above it, which give every mask.  The bound is evaluated
in exact rational arithmetic, so a violation means a bug.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .combinatorics import count_two_cap_compositions
from .errors import FeasibilityError
from .finite_field import TABLE_LIMIT, factor_degree_sets
from .integer_irreducibility import is_irreducible_over_z
from .polynomials import (
    MonicIntPolynomial,
    check_degree,
    count_admissible_exact,
    enumerate_admissible,
    target_sum,
)

# Largest integer the prime sieve marks; beyond it the bytearray and the
# scan stop being desk-scale.
SIEVE_LIMIT = 10**7

# Most primes a Turan instance may sieve by.  Its pair table and the
# bound's double sum grow with the square of the prime count: at 500 primes
# each already takes seconds, and 9,592 primes would mean a 46M-entry table.
INSTANCE_PRIME_LIMIT = 500

# Most direct tests an instance may need at the primes below z with
# p^degree > TABLE_LIMIT, which get no lookup table: the ambient size per
# such prime when every polynomial is tested, or the residue vectors of
# each pass per such prime it tests when counting by residue class.
# One degree-4 test took 0.1 ms (p near 17) to 0.4 ms (p near 3,571) on
# a 2 vCPU Intel Xeon with Python 3.11, so this is about 8 s at most; at
# degree 6, the 16,807 tests mod 7 take 2.3 s.
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
    # only mask 0 (the sifted count) stays exact.  A prime p | f(1) is not
    # tested at degree >= 2: x - 1 divides f mod p, so f is reducible there.
    histogram: dict[int, int] = {}
    degree = None
    for f in ambient:
        if f.degree != degree:
            if degree is not None:
                raise ValueError(f"mixed degrees: {f.degree} after {degree}")
            degree = f.degree
            irreducible = 1 | 1 << degree
            lookups = [(1 << i, p, factor_degree_sets(p, degree)) for i, p in enumerate(primes)]
        coeffs = f.coeffs
        at_one = sum(coeffs) + 1 if degree > 1 else 1  # 1: no prime divides it
        mask = 0
        for bit, p, degrees in lookups:
            if at_one % p and degrees(coeffs) == irreducible:
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
    further prime once one reduction is irreducible, and at degree >= 2
    not at a prime dividing f(1), where x - 1 makes it reducible.
    """
    return _membership_histogram(ambient, primes_below(z), first_hit=True).get(0, 0)


def _capped_power(p: int, exponent: int, bound: int) -> int:
    # p^exponent for p >= 1, or some power of p past `bound` when p^exponent
    # is: the exponent is cut at bound's bit length, so huge powers are
    # never built just to be compared.
    return p ** min(exponent, bound.bit_length())


def _sieve_primes(degree: int, z: int) -> tuple[int, ...]:
    # The primes below z, after the checks every Turan instance shares.
    if degree < 2:
        raise ValueError(f"instance needs degree >= 2, got {degree}")
    check_degree(degree)  # before any p^degree
    primes = primes_below(z)
    if len(primes) > INSTANCE_PRIME_LIMIT:
        raise FeasibilityError(f"sieve level too large: {len(primes)} primes below {z} "
                               f"exceed limit {INSTANCE_PRIME_LIMIT}")
    return primes


def _slice_histogram(degree: int, height: int, modulus: int,
                     lookups: list[tuple[int, Callable[[Sequence[int]], int]]]) -> dict[int, int]:
    # {mask: count} over the admissible polynomials, from the
    # modulus^(degree-1) residue vectors r mod `modulus` on the slice
    # sum(r) = degree! - 1 (mod modulus); bit is set where the divisor
    # degrees of r are {0, degree}.  Each (bit, lookup) must depend on
    # f mod `modulus` only.  The lifts a_i = r_i + modulus * q_i in
    # [0, height] have sum(q) = (degree! - 1 - sum(r)) / modulus, with q_i
    # capped at height // modulus, less one when r_i > height % modulus;
    # so vectors with equal (mask, sum(r), number of such r_i) share one
    # two-cap composition count.
    target = target_sum(degree)
    irreducible = 1 | 1 << degree
    cap, rest = divmod(height, modulus)
    groups: dict[tuple[int, int, int], int] = {}
    for tail in itertools.product(range(modulus), repeat=degree - 1):
        r = ((target - sum(tail)) % modulus, *tail)
        mask = 0
        for bit, degrees in lookups:
            if degrees(r) == irreducible:
                mask |= bit
        key = (mask, sum(r), sum(c > rest for c in r))
        groups[key] = groups.get(key, 0) + 1
    histogram: dict[int, int] = {}
    for (mask, total, short), vectors in groups.items():
        lifts = count_two_cap_compositions(degree, (target - total) // modulus, cap, short)
        if lifts:
            histogram[mask] = histogram.get(mask, 0) + vectors * lifts
    return histogram


def _residue_moduli(degree: int, primes: tuple[int, ...]) -> list[int]:
    # The moduli of the residue route's passes, in order: each prime up to
    # the degree, then the product of the primes above it (1 when none).
    return [*(p for p in primes if p <= degree), math.prod(p for p in primes if p > degree)]


def _residue_histogram(degree: int, height: int, primes: tuple[int, ...]) -> dict[int, int]:
    # The membership histogram by residue class, since membership in A_p
    # depends on f mod p only.  A_p is empty for p <= degree, where
    # f(1) = degree! makes x - 1 a factor; one pass mod each such p checks
    # that.  The last pass, mod the product of the primes above the degree,
    # gives every mask; mod 1 it is the one vector with all N(H) lifts.
    *checks, product = _residue_moduli(degree, primes)
    for p in checks:
        if 1 in _slice_histogram(degree, height, p, [(1, factor_degree_sets(p, degree))]):
            raise RuntimeError(f"A_{p} is not empty at degree {degree}; this is a bug")
    sifting = [(1 << i, factor_degree_sets(p, degree)) for i, p in enumerate(primes) if p > degree]
    return _slice_histogram(degree, height, product, sifting)


def _turan_instance(degree: int, z: int, primes: tuple[int, ...],
                    histogram: dict[int, int]) -> TuranInstance:
    # The Turan instance read off a membership histogram over `primes`.
    pair = {(p, q): 0 for i, p in enumerate(primes) for q in primes[i:]}
    for mask, count in histogram.items():
        hits = [p for i, p in enumerate(primes) if mask >> i & 1]
        for key in itertools.combinations_with_replacement(hits, 2):
            pair[key] += count
    return TuranInstance(
        ambient_size=sum(histogram.values()),
        z=z,
        primes=primes,
        densities=dict.fromkeys(primes, Fraction(1, degree)),
        member_counts={p: pair[(p, p)] for p in primes},
        pair_counts=pair,
    )


def _admissible_histogram(degree: int, height: int, primes: tuple[int, ...]) -> dict[int, int]:
    # The membership histogram of the admissible set over `primes`, by the
    # cheaper route: N(H) tests at each prime (priced as one prime when
    # there are none, since the enumeration is still walked), or the
    # residue vectors of the passes _residue_histogram makes, m^(degree-1)
    # for each modulus m of _residue_moduli; a count past the enumeration's
    # price is only known to be past it.  The route's direct tests, at the
    # primes whose polynomials get no lookup table, are checked against
    # DIRECT_TEST_LIMIT before any test is made.
    size = count_admissible_exact(degree, height)
    enumerated = size * max(len(primes), 1)
    moduli = _residue_moduli(degree, primes)
    passes = [(m, _capped_power(m, degree - 1, enumerated)) for m in moduli]
    untabled = [p for p in primes if _capped_power(p, degree, TABLE_LIMIT) > TABLE_LIMIT]
    by_residue = sum(vectors for _, vectors in passes) < enumerated
    tests = (sum(vectors * sum(m % p == 0 for p in untabled) for m, vectors in passes)
             if by_residue else size * len(untabled))
    if tests > DIRECT_TEST_LIMIT:
        raise FeasibilityError(f"sieve work too large: {tests} direct tests for primes "
                               f"without a table exceed limit {DIRECT_TEST_LIMIT}")
    if by_residue:
        return _residue_histogram(degree, height, primes)
    return _membership_histogram(enumerate_admissible(degree, height), primes)


def build_admissible_instance(degree: int, height: int, z: int) -> TuranInstance:
    """Materialize the sifting problem for the admissible set at level z.

    Densities are all 1/degree; member and pairwise counts are exact.
    They come from the cheaper of two routes: testing all N(H)
    admissible polynomials at each of the pi(z) primes below z, or
    counting by residue class, since membership in A_p depends on f mod
    p only.  The residue route tests the residue vectors on the slice of
    coefficient sum degree! - 1, p^(degree-1) of them mod each prime p up
    to the degree and P^(degree-1) mod the product P of the primes above
    it, and counts the lifts of each with one composition count.  With
    no primes below z, P = 1 and its one vector counts all N(H)
    polynomials.  The closed-form remainder shapes belong
    to the pipeline report, never to this instance.  Raises
    FeasibilityError ("sieve level too large") past INSTANCE_PRIME_LIMIT
    primes below z, and ("sieve work too large") when the chosen route
    needs more than DIRECT_TEST_LIMIT direct tests.
    """
    primes = _sieve_primes(degree, z)
    return _turan_instance(degree, z, primes, _admissible_histogram(degree, height, primes))


def sieve_level(height: int) -> int:
    """round((H * ln H)^(1/3)), the canonical sieve level for height H.

    Rounding is Python's round-half-to-even.  Primes are taken strictly
    below the level, so levels below 3 admit no primes and leave the
    ambient set unsifted.
    """
    if height < 2:
        raise ValueError(f"height must be >= 2, got {height}")
    return round((height * math.log(height)) ** (1.0 / 3.0))


def _reference(magnitude: Callable[[], float]) -> float | None:
    """magnitude(), or None when it lies outside float range.

    Past float range a power raises OverflowError, while a product or sum
    of floats rounds to infinity; both become None.
    """
    try:
        value = magnitude()
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class PrimeRemainderDetail:
    """Exact remainder at one prime next to its closed-form reference shape.

    `remainder_reference` is H^(n-1)/p^(n/2) + H^(n-2)*p evaluated in
    floating point, or None outside float range; it is displayed for
    comparison only and never enters the exact bound.
    """

    p: int
    member_count: int
    remainder: Fraction
    remainder_reference: float | None


@dataclass(frozen=True)
class PipelineReport:
    """Everything the sifting pipeline produced at one (degree, height).

    Exact fields: ambient_count (the admissible census), sifted_exact,
    turan_bound (None when no primes sit below z), irreducible_count and
    the per-prime remainders.  The *_reference fields are floating-point
    magnitudes for orientation, None when one lies outside float range.
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
    main_term_reference: float | None
    error_term_reference: float | None
    per_prime: tuple[PrimeRemainderDetail, ...]


def pipeline_lower_bound(
    degree: int, height: int, z_override: int | None = None
) -> PipelineReport:
    """Run the full sifting pipeline and check its two guaranteed inequalities.

    S_exact <= turan bound (when the bound exists) and
    A >= N - S_exact always: a monic factorization over Z reduces to a
    factorization of the same degree split mod every prime, so every
    reducible polynomial survives the sifting.  The closed-form N(H)
    behind the remainders must also equal the number of polynomials the
    A(H) census enumerates.  Violations raise RuntimeError because they
    can only be implementation bugs.  The Turan instance and S_exact come
    from the same histogram as in build_admissible_instance, by either
    route; A(H) is always counted by enumeration, and ENUM_LIMIT is
    checked before any membership test.
    """
    if degree < 3:
        raise ValueError(f"pipeline requires degree >= 3, got {degree}")
    if height < 0:
        raise ValueError(f"height must be >= 0, got {height}")
    z = z_override
    if z is None:
        z = sieve_level(height) if height >= 2 else 1

    primes = _sieve_primes(degree, z)
    ambient = enumerate_admissible(degree, height)
    histogram = _admissible_histogram(degree, height, primes)
    instance = _turan_instance(degree, z, primes, histogram)
    sifted = histogram.get(0, 0)
    ambient_count = count_admissible_exact(degree, height)
    bound = turan_upper_bound(instance) if instance.primes else None
    enumerated = irreducible = 0
    for f in ambient:
        enumerated += 1
        irreducible += is_irreducible_over_z(f).irreducible

    turan_holds = None if bound is None else Fraction(sifted) <= bound
    chain_holds = irreducible >= ambient_count - sifted
    if ambient_count != enumerated:
        raise RuntimeError("closed-form and enumerated N(H) differ; this is a bug")
    if turan_holds is False:
        raise RuntimeError("Turan inequality violated; this is a bug")
    if not chain_holds:
        raise RuntimeError("sifting chain inequality violated; this is a bug")

    main_ref = _reference(lambda: height ** (degree - 1) / math.factorial(degree - 1))
    error_ref = _reference(
        lambda: height ** (degree - 4.0 / 3.0) * math.log(height) ** (2.0 / 3.0)
        if height >= 2
        else 0.0
    )
    details = []
    for p in instance.primes:
        exact_remainder = instance.member_counts[p] - instance.densities[p] * ambient_count
        shape = _reference(
            lambda: height ** (degree - 1) / p ** (degree / 2.0) + height ** (degree - 2) * p
        )
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
