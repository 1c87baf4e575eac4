"""Prime sieving, the Turan sieve inequality, and the sifting pipeline.

The sifting sets here are "irreducible mod p": an admissible polynomial
belongs to A_p when its reduction mod p is irreducible.  The polynomials
are counted by their bitmask of A_p memberships over the primes below z,
and a Turan instance is that histogram: |A|, |A_p|, |A_p intersect A_q|
and the sifted count (mask 0) are all read off it, exactly.  A_p is
empty at every prime p up to the degree n, since f(1) = n! makes x - 1 a
factor mod p, so only the primes above n are tested.  Membership in A_p
depends on f mod p only, so every Turan instance, the pipeline's
included, walks the residue vectors r mod one modulus M that have a
lift, tests each once and counts its lifts in closed form.  r has a lift
exactly when every r_i <= H and n! - 1 - sum(r) = sM with
0 <= s <= n * (H // M) less the number of r_i above H mod M; the others
are skipped before any test.  M is the product P of those primes when its P^(n-1)
vectors cost less than testing every polynomial, else H + 1, where the
walk is the admissible set itself.  The bound is evaluated in exact
rational arithmetic, so a violation means a bug.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .combinatorics import count_two_cap_compositions
from .errors import FeasibilityError
from .finite_field import _capped_power, _tabled, factor_degree_sets
from .integer_irreducibility import is_irreducible_over_z
from .polynomials import (
    MonicIntPolynomial,
    _bounded_vectors,
    check_degree,
    count_admissible_exact,
    enumerate_admissible,
    target_sum,
)

# Largest integer the prime sieve marks; beyond it the bytearray and the
# scan stop being desk-scale.
SIEVE_LIMIT = 10**7

# Most primes a Turan instance may sieve by; its pair table grows with their
# square (9,592 primes: 46M entries).  At 500 primes, (3, 6, 3572) takes about
# 0.45 s to build, nearly all in 10,269 direct tests, 0.06 s for the pair
# table and 0.02 s for the bound (2 vCPU Intel Xeon, Python 3.11).
INSTANCE_PRIME_LIMIT = 500

# Most direct tests an instance may need at the primes in (degree, z) that
# get no lookup table (finite_field._tabled): per such prime, the ambient
# size when the walk is past the height, or the residue vectors mod the
# product of those primes when it is mod that product.
# One degree-4 test took 0.024-0.026 ms (p = 17) to 0.064-0.068 ms
# (p = 3,571) on a 2 vCPU Intel Xeon with Python 3.11, so this is under
# 2 s there; at degree 6, the 16,807 tests of one class mod 7 take 0.65 s.
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

    pi(z) is constant between consecutive primes p < q, and ln(z) / z
    falls for z >= 3, so on each gap [p, q - 1] (the last one cut at
    z_max) the ratio peaks at p and bottoms out at q - 1.  The scan
    evaluates only those two ends of each gap, and the checkpoints' prime
    counts are read off the same sieve.
    """
    if z_max < 3:
        raise ValueError(f"z_max must be >= 3, got {z_max}")
    flags = _prime_flags(z_max + 1)

    def ratio(count: int, z: int) -> float:
        return count * math.log(z) / z

    checkpoints = sorted({3, z_max, *(10**k for k in range(1, len(str(z_max))))})
    counts = {z: flags.count(1, 0, z + 1) for z in checkpoints}
    samples = [ChebyshevSample(z=z, prime_count=c, ratio=ratio(c, z)) for z, c in counts.items()]

    scan_start = 17  # a prime, so the first gap starts there
    lo, hi = CHEBYSHEV_BAND
    ratio_min = ratio_max = None
    if z_max >= scan_start:
        def primes():  # from scan_start to z_max
            return itertools.compress(range(scan_start, z_max + 1), memoryview(flags)[scan_start:])

        first = flags.count(1, 0, scan_start) + 1  # pi(scan_start)
        # Gap i runs from the i-th prime p to q - 1, q the next prime or z_max + 1.
        ends = itertools.chain(itertools.islice(primes(), 1, None), (z_max + 1,))
        ratio_max = max(map(ratio, itertools.count(first), primes()))
        ratio_min = min(ratio(c, q - 1) for c, q in zip(itertools.count(first), ends))
    return ChebyshevAudit(
        z_max=z_max,
        samples=tuple(samples),
        scan_start=scan_start,
        ratio_min=ratio_min,
        ratio_max=ratio_max,
        within_band=ratio_min is None or lo <= ratio_min and ratio_max <= hi,
        band=CHEBYSHEV_BAND,
    )


@dataclass(frozen=True)
class TuranInstance:
    """A sifting problem given by its membership histogram.

    histogram[mask] counts the polynomials of the ambient set A that lie
    in A_p exactly for the primes p = primes[i] whose bit i is set in
    mask; the primes are distinct.  |A| (ambient_size), |A_p|
    (member_counts[p]) and |A_p intersect A_q| (pair_counts[(p, q)] with
    p <= q, the diagonal being |A_p|) are read off it.  Densities are
    exact rationals in [0, 1).
    """

    z: int
    primes: tuple[int, ...]
    densities: dict[int, Fraction]
    histogram: dict[int, int]

    def __post_init__(self):
        if len(set(self.primes)) < len(self.primes):
            raise ValueError("primes must be distinct")
        for p in self.primes:
            if p not in self.densities:
                raise ValueError(f"missing density for prime {p}")
            if not 0 <= self.densities[p] < 1:
                raise ValueError(f"density for {p} must lie in [0, 1)")
        for mask, count in self.histogram.items():
            if mask >> len(self.primes):
                raise ValueError(f"mask {mask} sets a bit past the {len(self.primes)} primes")
            if count < 0:
                raise ValueError(f"count for mask {mask} must be >= 0")

    @cached_property
    def ambient_size(self) -> int:
        return sum(self.histogram.values())

    @cached_property
    def member_counts(self) -> dict[int, int]:
        return {p: self.pair_counts[(p, p)] for p in self.primes}

    @cached_property
    def pair_counts(self) -> dict[tuple[int, int], int]:
        ordered = sorted(self.primes)
        pair = {(p, q): 0 for i, p in enumerate(ordered) for q in ordered[i:]}
        for mask, count in self.histogram.items():
            hits = sorted(p for i, p in enumerate(self.primes) if mask >> i & 1)
            for key in itertools.combinations_with_replacement(hits, 2):
                pair[key] += count
        return pair


def turan_upper_bound(inst: TuranInstance) -> Fraction:
    """The three-term Turan bound on the sifted count, exactly.

        |A|/U + (2/U) sum_p |R_p| + (1/U^2) sum_{p,q} |R_{p,q}|

    with U the density sum, R_p = |A_p| - d_p|A|, and
    R_{p,q} = |A_p ^ A_q| - d_p d_q |A| summed over ordered pairs,
    the diagonal included.  With d_p = a_p/D over the lcm D of the density
    denominators and a = sum a_p, it is one division of integer sums,
    (D a |A| + 2a sum_p |D R_p| + sum_{p<=q} w |D^2 R_{p,q}|) / a^2 with
    w = 1 on the diagonal and 2 off it.  Raises ValueError ("empty sieve")
    when U = 0.
    """
    lcm = math.lcm(*(inst.densities[p].denominator for p in inst.primes))
    scaled = {p: int(inst.densities[p] * lcm) for p in inst.primes}
    total = sum(scaled.values())
    if total == 0:
        raise ValueError("empty sieve: density sum U(z) is zero")
    size = inst.ambient_size
    single = sum(abs(lcm * c - scaled[p] * size) for p, c in inst.member_counts.items())
    double = sum((1 if p == q else 2) * abs(lcm * lcm * c - scaled[p] * scaled[q] * size)
                 for (p, q), c in inst.pair_counts.items())
    return Fraction(lcm * total * size + 2 * total * single + double, total * total)


def exact_sifted_count(ambient: Iterable[MonicIntPolynomial], z: int) -> int:
    """Count polynomials whose reduction is reducible at every prime p < z.

    All polynomials must share one degree; a change of degree raises
    ValueError.  With no primes below z nothing is sifted and the
    ambient size comes back unchanged.  A polynomial is tested at no
    further prime once one reduction is irreducible, and at degree >= 2
    not at a prime dividing f(1), where x - 1 makes it reducible.
    """
    primes = primes_below(z)
    sifted = 0
    degree = None
    for f in ambient:
        if f.degree != degree:
            if degree is not None:
                raise ValueError(f"mixed degrees: {f.degree} after {degree}")
            degree = f.degree
            irreducible = 1 | 1 << degree
            lookups = [(p, factor_degree_sets(p, degree)) for p in primes]
        coeffs = f.coeffs
        at_one = sum(coeffs) + 1 if degree > 1 else 1  # 1: no prime divides it
        for p, degrees in lookups:
            if at_one % p and degrees(coeffs) == irreducible:
                break
        else:
            sifted += 1
    return sifted


def _slice_histogram(degree: int, height: int, modulus: int,
                     lookups: list[tuple[int, Callable[[Sequence[int]], int]]]) -> dict[int, int]:
    # {mask: count} over the admissible polynomials, from the residue
    # vectors r mod `modulus` that have a lift; bit is set where the divisor
    # degrees of r are {0, degree}, and each lookup must depend on f mod
    # `modulus` only.  The lifts a_i = r_i + modulus * q_i in [0, height]
    # have sum(r) = degree! - 1 - modulus * s, s = sum(q), and q_i at most
    # cap = height // modulus, less one for the `short` r_i above
    # height % modulus.  So r has a lift exactly when its entries are at
    # most min(modulus - 1, height) and s <= degree * cap - short: the walk
    # takes each s over the vectors of bounded entries, skips those whose
    # short entries leave no lift before any lookup, and vectors with equal
    # (mask, s, short) share one two-cap composition count.  Mod 1 the one
    # vector has all N(H) lifts; past the height only s = 0 is left, each
    # vector its own lift.
    target = target_sum(degree)
    irreducible = 1 | 1 << degree
    top = min(modulus - 1, height)
    cap, rest = divmod(height, modulus)
    groups: dict[tuple[int, int, int], int] = {}
    for s in range(max(0, -((degree * top - target) // modulus)),
                   min(target // modulus, degree * cap) + 1):
        for r in _bounded_vectors(degree, target - s * modulus, top):
            short = sum(c > rest for c in r)
            if short > degree * cap - s:
                continue
            mask = 0
            for bit, degrees in lookups:
                if degrees(r) == irreducible:
                    mask |= bit
            key = (mask, s, short)
            groups[key] = groups.get(key, 0) + 1
    histogram: dict[int, int] = {}
    for (mask, s, short), vectors in groups.items():
        lifts = count_two_cap_compositions(degree, s, cap, short)
        histogram[mask] = histogram.get(mask, 0) + vectors * lifts
    return histogram


def _admissible_histogram(degree: int, height: int, primes: tuple[int, ...]) -> dict[int, int]:
    # The membership histogram of the admissible set over `primes`.  Only
    # `sifting`, the primes above the degree, is priced and tested: at the
    # others A_p is empty and the bits stay clear.  The walk mod H + 1 makes
    # N(H) tests at each (priced as one prime when there are none, since
    # the vectors are still walked); the walk mod their product P tests at
    # most P^(n-1) vectors, a count past the other price only known to be
    # past it.  The route's direct tests, at the primes with no lookup
    # table, are checked against DIRECT_TEST_LIMIT before any test is made.
    skip = sum(p <= degree for p in primes)
    sifting = primes[skip:]
    size = count_admissible_exact(degree, height)
    enumerated = size * max(len(sifting), 1)
    product = math.prod(sifting)
    vectors = _capped_power(product, degree - 1, enumerated)
    by_residue = vectors < enumerated
    tests = (vectors if by_residue else size) * sum(not _tabled(p, degree) for p in sifting)
    if tests > DIRECT_TEST_LIMIT:
        raise FeasibilityError(f"sieve work too large: {tests} direct tests for primes "
                               f"without a table exceed limit {DIRECT_TEST_LIMIT}")
    lookups = [(1 << i, factor_degree_sets(p, degree)) for i, p in enumerate(sifting, skip)]
    return _slice_histogram(degree, height, product if by_residue else height + 1, lookups)


def build_admissible_instance(degree: int, height: int, z: int) -> TuranInstance:
    """Materialize the sifting problem for the admissible set at level z.

    Densities are all 1/degree; the histogram is exact, and so are the
    member and pairwise counts read off it.  A_p is empty at each prime p
    up to the degree, where f(1) = degree! makes x - 1 a factor, so only
    the primes above the degree are tested, in one walk over the residue
    vectors mod M that have a lift in [0, H]; the others are skipped
    before any test (see _slice_histogram).  M is the product P of those
    primes when its P^(degree-1) vectors cost less than N(H) tests at each
    prime (P = 1 with no such prime: one vector, N(H) lifts), else H + 1,
    where the walk is the admissible set and builds no polynomial object.
    It needs no ENUM_LIMIT: an untabled prime above the degree keeps N(H)
    within DIRECT_TEST_LIMIT, and with every such prime tabled
    N(H) <= 2,600.  The closed-form remainder shapes belong to the
    pipeline report, never to this instance.  Raises FeasibilityError ("sieve level too large")
    past INSTANCE_PRIME_LIMIT primes below z, and ("sieve work too
    large") when the walk needs more than DIRECT_TEST_LIMIT direct tests.
    """
    if degree < 2:
        raise ValueError(f"instance needs degree >= 2, got {degree}")
    check_degree(degree)  # before any p^degree
    primes = primes_below(z)
    if len(primes) > INSTANCE_PRIME_LIMIT:
        raise FeasibilityError(f"sieve level too large: {len(primes)} primes below {z} "
                               f"exceed limit {INSTANCE_PRIME_LIMIT}")
    return TuranInstance(z=z, primes=primes, densities=dict.fromkeys(primes, Fraction(1, degree)),
                         histogram=_admissible_histogram(degree, height, primes))


def sieve_level(height: int) -> int:
    """round((H * ln H)^(1/3)), the canonical sieve level for height H.

    Rounding is Python's round-half-to-even.  Primes are taken strictly
    below the level, so levels below 3 admit no primes and leave the
    ambient set unsifted.  Past float range (H from about 10^306) the
    level is the integer cube root of H * floor(ln H) instead, far past
    SIEVE_LIMIT either way.
    """
    if height < 2:
        raise ValueError(f"height must be >= 2, got {height}")
    try:
        return round((height * math.log(height)) ** (1.0 / 3.0))
    except OverflowError:  # an infinite product, or H itself too large for a float
        cube = height * math.floor(math.log(height))
        root = 1 << -(-cube.bit_length() // 3)  # at least the cube root
        while root**3 > cube:  # Newton's step, from above, stops at the floor
            root = (2 * root + cube // root**2) // 3
        return root


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
    can only be implementation bugs.  S_exact is mask 0 of the histogram
    of build_admissible_instance, the instance the bound is evaluated on,
    so the Turan comparison checks turan_upper_bound's arithmetic, not a
    second count of the sifted set.  The walk builds no polynomial
    object; A(H) is counted by the one enumeration, whose ENUM_LIMIT is
    checked before the instance's limits and any membership test.
    """
    if degree < 3:
        raise ValueError(f"pipeline requires degree >= 3, got {degree}")
    if height < 0:
        raise ValueError(f"height must be >= 0, got {height}")
    z = z_override
    if z is None:
        z = sieve_level(height) if height >= 2 else 1

    ambient = enumerate_admissible(degree, height)
    instance = build_admissible_instance(degree, height, z)
    sifted = instance.histogram.get(0, 0)
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
    error_ref = _reference(lambda: height ** (degree - 4.0 / 3.0)
                           * math.log(height) ** (2.0 / 3.0) if height >= 2 else 0.0)
    details = []
    for p, count in instance.member_counts.items():
        shape = _reference(lambda: height ** (degree - 1) / p ** (degree / 2.0)
                           + height ** (degree - 2) * p)
        remainder = count - instance.densities[p] * ambient_count
        details.append(PrimeRemainderDetail(p=p, member_count=count, remainder=remainder,
                                            remainder_reference=shape))
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
