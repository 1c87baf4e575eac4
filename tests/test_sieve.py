import itertools
import json
import math
import re
import time
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissible import sieve
from admissible.errors import FeasibilityError
from admissible.integer_irreducibility import count_admissible_irreducible
from admissible.polynomials import MonicIntPolynomial, count_admissible_exact, enumerate_admissible
from admissible.sieve import (
    TuranInstance,
    audit_chebyshev,
    build_admissible_instance,
    exact_sifted_count,
    pipeline_lower_bound,
    primes_below,
    sieve_level,
    turan_upper_bound,
)

from oracles import (
    brute_sieve_counts,
    chebyshev_scan,
    count_primes_crosscheck,
    turan_bound_by_ordered_pairs,
)


def test_primes_below_anchors():
    assert primes_below(10) == (2, 3, 5, 7)
    assert primes_below(2) == ()
    assert primes_below(1) == ()
    assert len(primes_below(100)) == 25


def test_prime_count_vs_crosscheck():
    for z in (0, 1, 2, 3, 10, 100, 541, 1000, 7919):
        assert len(primes_below(z + 1)) == count_primes_crosscheck(z), z


def test_turan_bound_hand_computed():
    # Single prime, density 1/2, |A| = 10, |A_p| = 5:
    # 10/(1/2) + (2/(1/2))*0 + (1/(1/4))*|5 - 10/4| = 20 + 0 + 10.
    inst = TuranInstance(z=3, primes=(2,), densities={2: Fraction(1, 2)}, histogram={0: 5, 1: 5})
    assert turan_upper_bound(inst) == 30


def test_turan_bound_single_prime_exact_density():
    # With one prime and the exact density d = |A_p|/|A| the linear
    # remainder vanishes and the bound collapses to
    # |A|/d + (1/d^2) * d(1-d)|A| = |A| (2 - d) / d.
    for size, member in [(12, 3), (10, 5), (21, 7), (100, 1)]:
        d = Fraction(member, size)
        inst = TuranInstance(
            z=3, primes=(2,), densities={2: d}, histogram={0: size - member, 1: member}
        )
        assert turan_upper_bound(inst) == size * (2 - d) / d


def test_turan_bound_invariant_under_prime_reordering():
    # 21 polynomials over (2, 3, 5); reordering the primes moves each
    # membership to the bit of its prime's new place.
    by_prime = {(): 9, (2,): 3, (2, 5): 4, (3, 5): 2, (2, 3, 5): 3}
    densities = {2: Fraction(1, 3), 3: Fraction(1, 3), 5: Fraction(1, 3)}
    instances = []
    for primes in ((2, 3, 5), (5, 3, 2), (3, 2, 5)):
        histogram = {sum(1 << primes.index(p) for p in hits): c for hits, c in by_prime.items()}
        instances.append(TuranInstance(z=6, primes=primes, densities=densities,
                                       histogram=histogram))
    a = instances[0]
    assert a.member_counts == {2: 10, 3: 5, 5: 9}
    assert a.pair_counts == {(2, 2): 10, (2, 3): 3, (2, 5): 7, (3, 3): 5, (3, 5): 5, (5, 5): 9}
    for b in instances[1:]:
        assert b.ambient_size == a.ambient_size == 21
        assert b.pair_counts == a.pair_counts
        assert turan_upper_bound(b) == turan_upper_bound(a)
    for inst in instances:
        assert turan_upper_bound(inst) == turan_bound_by_ordered_pairs(inst) == 68


def test_turan_bound_over_mixed_densities_matches_the_ordered_pair_sum():
    # Denominators 3, 7, 1 and 11 (a zero density among them): one common
    # denominator of 231 for the integer sums.
    by_prime = {(): 9, (2,): 3, (2, 5): 4, (3, 5, 7): 2, (2, 3, 5, 7): 3, (7,): 6}
    densities = {2: Fraction(1, 3), 3: Fraction(2, 7), 5: Fraction(0), 7: Fraction(5, 11)}
    primes = (7, 2, 5, 3)
    histogram = {sum(1 << primes.index(p) for p in hits): c for hits, c in by_prime.items()}
    inst = TuranInstance(z=8, primes=primes, densities=densities, histogram=histogram)
    assert turan_upper_bound(inst) == turan_bound_by_ordered_pairs(inst)
    # Every density zero but one: D = 7 and a = 2.
    lone = TuranInstance(z=8, primes=primes, histogram=histogram,
                         densities={**dict.fromkeys(primes, Fraction(0)), 3: Fraction(2, 7)})
    assert turan_upper_bound(lone) == turan_bound_by_ordered_pairs(lone)


def test_turan_empty_sieve():
    inst = TuranInstance(z=2, primes=(), densities={}, histogram={0: 5})
    assert inst.ambient_size == 5 and inst.member_counts == {} and inst.pair_counts == {}
    with pytest.raises(ValueError, match="empty sieve"):
        turan_upper_bound(inst)
    zeros = TuranInstance(z=4, primes=(2, 3), densities=dict.fromkeys((2, 3), Fraction(0)),
                          histogram={0: 4, 0b11: 1})
    with pytest.raises(ValueError, match="empty sieve"):
        turan_upper_bound(zeros)


def test_instance_validation():
    with pytest.raises(ValueError):
        TuranInstance(
            z=3,
            primes=(2,),
            densities={2: Fraction(1, 1)},  # density must be < 1
            histogram={0: 4, 1: 1},
        )


# |A| = 5, |A_2| = |A_3| = 2, |A_2 ^ A_3| = 1.
_VALID_INSTANCE = dict(
    z=4,
    primes=(2, 3),
    densities={2: Fraction(1, 2), 3: Fraction(1, 2)},
    histogram={0: 2, 0b01: 1, 0b10: 1, 0b11: 1},
)


def test_instance_counts_are_read_off_the_histogram():
    inst = TuranInstance(**_VALID_INSTANCE)
    assert inst.ambient_size == 5
    assert inst.member_counts == {2: 2, 3: 2}
    assert inst.pair_counts == {(2, 2): 2, (2, 3): 1, (3, 3): 2}
    assert inst.pair_counts[(2, 3)] == 1
    assert inst.pair_counts[(3, 3)] == 2
    assert not hasattr(inst, "intersection_count")  # pair_counts is the one pair view


@pytest.mark.parametrize("change, message", [
    ({"primes": (2, 3, 2)}, "primes must be distinct"),
    ({"densities": {2: Fraction(1, 2)}}, "missing density for prime 3"),
    ({"densities": {2: Fraction(1, 2), 3: Fraction(-1, 2)}}, "density for 3 must lie in [0, 1)"),
    ({"histogram": {**_VALID_INSTANCE["histogram"], 0b100: 1}}, "mask 4 sets a bit past the 2 primes"),
    ({"histogram": {**_VALID_INSTANCE["histogram"], 0: -1}}, "count for mask 0 must be >= 0"),
])
def test_instance_validation_messages(change, message):
    TuranInstance(**_VALID_INSTANCE)
    with pytest.raises(ValueError, match=re.escape(message)):
        TuranInstance(**{**_VALID_INSTANCE, **change})


def test_build_instance_anchors():
    inst = build_admissible_instance(3, 6, 4)
    assert inst.ambient_size == 21
    assert inst.primes == (2, 3)
    assert inst.densities[2] == Fraction(1, 3)
    # Every admissible cubic has 1 as a root mod 2 and mod 3 (the full
    # coefficient sum is 3! = 6), so no reduction is irreducible there.
    assert inst.member_counts == {2: 0, 3: 0}
    assert turan_upper_bound(inst) == Fraction(189, 2) == turan_bound_by_ordered_pairs(inst)

    assert build_admissible_instance(3, 1, 4).ambient_size == 0
    assert build_admissible_instance(4, 6, 4).ambient_size == 4


def test_build_instance_member_counts_at_larger_level():
    inst = build_admissible_instance(3, 6, 8)
    assert inst.primes == (2, 3, 5, 7)
    assert inst.member_counts[5] == 7
    assert inst.member_counts[7] == 7
    assert inst.pair_counts[(5, 7)] == 4


def test_turan_bound_at_the_instance_prime_limit_matches_the_ordered_pair_sum():
    inst = build_admissible_instance(3, 6, 3572)
    assert len(inst.primes) == sieve.INSTANCE_PRIME_LIMIT == 500
    assert turan_upper_bound(inst) == turan_bound_by_ordered_pairs(inst)
    assert turan_upper_bound(inst) == Fraction(8_871_807, 250_000)


def test_exact_sifted_count_anchors():
    assert exact_sifted_count(enumerate_admissible(3, 6), 2) == 21
    assert exact_sifted_count(enumerate_admissible(3, 6), 3) == 21
    assert exact_sifted_count(enumerate_admissible(3, 6), 6) == 14
    assert exact_sifted_count(enumerate_admissible(3, 6), 10) == 11
    assert exact_sifted_count(iter(()), 7) == 0
    # x + 1 is irreducible mod 2 although 2 | f(1): degree 1 tests every prime.
    assert exact_sifted_count([MonicIntPolynomial(1, (1,))], 3) == 0


def test_exact_sifted_count_stops_at_the_first_irreducible_reduction(monkeypatch):
    calls = 0
    at_root_one = []  # (p, coeffs) tested with p | f(1), where x - 1 divides f mod p
    lookup = sieve.factor_degree_sets

    def counted_lookup(p, degree):
        degrees = lookup(p, degree)

        def counted(coeffs):
            nonlocal calls
            calls += 1
            if (sum(coeffs) + 1) % p == 0:
                at_root_one.append((p, coeffs))
            return degrees(coeffs)

        return counted

    monkeypatch.setattr(sieve, "factor_degree_sets", counted_lookup)
    n, h, z = 4, 12, 14  # primes 2, ..., 13; A_2 and A_3 are empty for quartics
    sifted = exact_sifted_count(enumerate_admissible(n, h), z)
    assert sifted == brute_sieve_counts(n, h, z)[2]
    assert calls < count_admissible_exact(n, h) * len(primes_below(z))
    assert at_root_one == []


def test_sifted_count_nonincreasing_in_z():
    prev = None
    for z in range(2, 12):
        cur = exact_sifted_count(enumerate_admissible(3, 6), z)
        if prev is not None:
            assert cur <= prev
        prev = cur


def test_sieve_level_anchors():
    assert sieve_level(6) == 2
    assert sieve_level(2) == 1
    assert sieve_level(120) == 8
    with pytest.raises(ValueError):
        sieve_level(1)


def test_sieve_level_is_an_integer_past_float_range():
    # Up to about 10^305 the float formula holds; past it the level is the
    # integer cube root of H * floor(ln H), beyond SIEVE_LIMIT.
    last = 10**305
    assert sieve_level(last) == round((last * math.log(last)) ** (1 / 3))
    for height in (10**306, 10**309, 10**400, int("9" * 4299)):
        cube = height * math.floor(math.log(height))
        level = sieve_level(height)
        assert level**3 <= cube < (level + 1) ** 3, height
        assert level > sieve.SIEVE_LIMIT
        with pytest.raises(FeasibilityError, match="sieve too large"):
            primes_below(level)


def test_pipeline_smallest_nontrivial():
    report = pipeline_lower_bound(3, 6)
    assert report.z == 2
    assert report.ambient_count == 21
    assert report.sifted_exact == 21  # no primes below 2
    assert report.turan_bound is None
    assert report.irreducible_count == 10
    assert report.chain_inequality_holds
    assert report.main_term_reference == pytest.approx(36 / 2)


def test_pipeline_with_override():
    report = pipeline_lower_bound(3, 6, z_override=4)
    assert report.z == 4 and report.z_overridden
    assert report.turan_bound == Fraction(189, 2)
    assert report.turan_inequality_holds
    assert report.chain_inequality_holds
    assert [d.p for d in report.per_prime] == [2, 3]
    assert report.per_prime[0].remainder == Fraction(-7)


def test_pipeline_degenerate():
    report = pipeline_lower_bound(3, 1)
    assert report.ambient_count == 0
    assert report.sifted_exact == 0
    assert report.irreducible_count == 0
    assert report.turan_bound is None
    assert report.error_term_reference == 0.0


def test_pipeline_references_past_float_range_are_none():
    # 7^400 overflows a float power.
    report = pipeline_lower_bound(800, 1, z_override=8)
    assert [d.remainder_reference for d in report.per_prime] == [2.0, 3.0, 5.0, None]
    assert report.main_term_reference == 0.0 and report.error_term_reference == 0.0
    # 2^1098.67 overflows the error term's power.
    report = pipeline_lower_bound(1100, 2, z_override=3)
    assert report.error_term_reference is None
    assert report.per_prime[0].remainder_reference is None
    # H^2 / 2! with H = 10^200 overflows an int / int division.
    report = pipeline_lower_bound(3, 10**200, z_override=8)
    assert report.main_term_reference is None and report.error_term_reference is None
    assert [d.remainder_reference for d in report.per_prime] == [None] * 4
    assert report.ambient_count == 21 and report.chain_inequality_holds
    # H^(5/3) = 4.6e306 is finite, but times (ln H)^(2/3) it rounds to inf.
    assert pipeline_lower_bound(3, 10**184, z_override=8).error_term_reference is None


def test_pipeline_preconditions():
    with pytest.raises(ValueError):
        pipeline_lower_bound(2, 6)
    with pytest.raises(ValueError):
        pipeline_lower_bound(3, -1)
    with pytest.raises(ValueError, match="instance needs degree >= 2, got 1"):
        build_admissible_instance(1, 5, 4)


def test_pipeline_checks_the_sifting_chain(monkeypatch):
    # Every reducible polynomial survives the sifting, so A(H) >= N(H) - S_exact;
    # an irreducibility test that calls everything reducible breaks it.
    monkeypatch.setattr(sieve, "is_irreducible_over_z",
                        lambda f: types.SimpleNamespace(irreducible=False))
    with pytest.raises(RuntimeError, match="sifting chain inequality violated"):
        pipeline_lower_bound(4, 24, z_override=6)


def test_chebyshev_audit():
    audit = audit_chebyshev(2000)
    by_z = {s.z: s for s in audit.samples}
    assert by_z[100].prime_count == 25
    assert by_z[1000].prime_count == 168
    assert by_z[100].ratio == pytest.approx(25 * 4.605170185988092 / 100)
    assert audit.within_band
    assert audit.band == sieve.CHEBYSHEV_BAND == (0.9, 1.3)
    assert 0.9 <= audit.ratio_min <= audit.ratio_max <= 1.3
    with pytest.raises(ValueError):
        audit_chebyshev(2)


def test_chebyshev_audit_matches_a_scan_of_every_integer():
    # The audit evaluates the ends of each prime gap only; the oracle
    # evaluates every z, on a sieve of its own.
    for z_max in (3, 16, 17, 18, 100, 2000, 10**5):
        audit = audit_chebyshev(z_max)
        assert (audit.ratio_min, audit.ratio_max) == chebyshev_scan(z_max), z_max
        assert all(s.prime_count == count_primes_crosscheck(s.z) for s in audit.samples)
        assert audit.samples[-1].z == z_max


def test_chebyshev_band_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr(sieve, "CHEBYSHEV_BAND", (1.2, 1.3))
    audit = audit_chebyshev(2000)
    assert audit.band == (1.2, 1.3)
    assert audit.ratio_min < 1.2 and not audit.within_band


def test_degree_limit_is_checked_before_any_prime_power():
    # Without the check, p^degree for the 25 primes below 100 runs for minutes.
    start = time.perf_counter()
    for call in (
        lambda: build_admissible_instance(10**7, 5, 100),
        lambda: pipeline_lower_bound(10**7, 5, 100),
    ):
        with pytest.raises(FeasibilityError, match="degree too large: 10000000 exceeds limit"):
            call()
    assert time.perf_counter() - start < 1


def test_sieve_limit_bounds_the_largest_integer_sieved(monkeypatch):
    monkeypatch.setattr(sieve, "SIEVE_LIMIT", 100)
    assert primes_below(101)[-1] == 97  # sieves 0..100
    assert audit_chebyshev(100).samples[-1].prime_count == 25  # sieves 0..100
    with pytest.raises(FeasibilityError, match="sieve too large"):
        primes_below(102)
    with pytest.raises(FeasibilityError, match="sieve too large"):
        audit_chebyshev(101)


def test_mixed_degrees_are_rejected_in_either_order():
    a = MonicIntPolynomial(4, (1, 0, 0, 0))  # x^4 + 1
    b = MonicIntPolynomial(5, (3, 0, 0, 0, 0))  # x^5 + 3
    for ambient in ([a, b], [b, a]):
        with pytest.raises(ValueError, match="mixed degrees"):
            exact_sifted_count(ambient, 8)
    assert exact_sifted_count([a, a], 8) == 2  # x^4 + 1 is reducible mod every prime


def _assert_sieve_data_matches_brute_force(n, h, z):
    member, pair, sifted = brute_sieve_counts(n, h, z)
    inst = build_admissible_instance(n, h, z)
    assert inst.member_counts == member, (n, h, z)
    assert inst.pair_counts == pair, (n, h, z)
    assert exact_sifted_count(enumerate_admissible(n, h), z) == sifted, (n, h, z)
    assert pipeline_lower_bound(n, h, z_override=z).sifted_exact == sifted, (n, h, z)


def test_sieve_data_matches_brute_force_on_a_grid():
    # Each z stands for its prime set: (), (2), (2, 3), (2, 3, 5), ... (2, ..., 11).
    for n in (3, 4):
        for h in range(9):
            for z in (1, 2, 3, 4, 6, 8, 12):
                _assert_sieve_data_matches_brute_force(n, h, z)


@given(n=st.sampled_from([3, 4]), h=st.integers(0, 8), z=st.integers(1, 12))
@settings(max_examples=30, deadline=None)
def test_sieve_data_matches_brute_force_property(n, h, z):
    _assert_sieve_data_matches_brute_force(n, h, z)


def test_pipeline_enumerates_the_ambient_set_once_for_the_sieve(monkeypatch):
    # Only the primes above the degree are tested.  (4, 24, z=6): 5^3 = 125
    # residue vectors against 2,600 tests, so the sieve walks mod 5.
    # (4, 24, z=8): 2,600 * 2 = 5,200 tests against 35^3 = 42,875 vectors,
    # so it walks mod 25, past the height.  Either way only A(H) enumerates.
    calls = []

    def counted_enumerate(*args):
        calls.append(args)
        return enumerate_admissible(*args)

    monkeypatch.setattr(sieve, "enumerate_admissible", counted_enumerate)
    routes = _routes_taken(monkeypatch)
    assert sieve._admissible_histogram(4, 24, primes_below(6)) == {0: 1900, 0b100: 700}
    assert calls == []
    irreducible = count_admissible_irreducible(4, 24)
    for z, route in ((6, "residue"), (8, "enumeration")):
        calls.clear()
        routes.clear()
        report = pipeline_lower_bound(4, 24, z_override=z)
        assert calls == [(4, 24)], z
        assert routes == {route}, z
        inst = build_admissible_instance(4, 24, z)
        assert {d.p: d.member_count for d in report.per_prime} == inst.member_counts
        assert report.turan_bound == turan_upper_bound(inst)
        assert report.sifted_exact == exact_sifted_count(enumerate_admissible(4, 24), z)
        assert report.irreducible_count == irreducible


def test_pipeline_compares_closed_form_and_enumerated_ambient_counts(monkeypatch):
    def off_by_one(degree, height):
        return count_admissible_exact(degree, height) + 1

    monkeypatch.setattr(sieve, "count_admissible_exact", off_by_one)
    with pytest.raises(RuntimeError, match="N\\(H\\) differ; this is a bug"):
        pipeline_lower_bound(3, 6, z_override=4)


def test_pipeline_compares_closed_form_n_h_with_the_a_h_enumeration(monkeypatch):
    # On the residue route the instance's ambient size is a sum of
    # composition counts, so N(H) is checked against the A(H) pass: here
    # it misses one polynomial.
    def one_short(degree, height):
        return itertools.islice(enumerate_admissible(degree, height), 1, None)

    monkeypatch.setattr(sieve, "enumerate_admissible", one_short)
    with pytest.raises(RuntimeError, match="closed-form and enumerated N\\(H\\) differ"):
        pipeline_lower_bound(4, 24, z_override=6)


def test_instance_prime_limit_is_checked_before_any_membership_test(monkeypatch):
    def no_lookup(p, degree):
        raise AssertionError("a lookup was built past the prime limit")

    monkeypatch.setattr(sieve, "factor_degree_sets", no_lookup)
    start = time.monotonic()
    with pytest.raises(FeasibilityError, match="sieve level too large"):
        build_admissible_instance(3, 6, 100_000)
    with pytest.raises(FeasibilityError, match="sieve level too large"):
        pipeline_lower_bound(3, 10**12)  # level 30,232: 3,269 primes
    assert time.monotonic() - start < 1


def test_instance_prime_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(sieve, "INSTANCE_PRIME_LIMIT", 4)
    assert build_admissible_instance(3, 6, 8).primes == (2, 3, 5, 7)
    with pytest.raises(FeasibilityError, match="5 primes below 12 exceed limit 4"):
        build_admissible_instance(3, 6, 12)
    # The sifted count alone is linear in the primes and has no limit.
    assert exact_sifted_count(enumerate_admissible(3, 6), 12) == brute_sieve_counts(3, 6, 12)[2]


def test_direct_test_limit_is_checked_before_any_membership_test(monkeypatch):
    def no_lookup(p, degree):
        raise AssertionError("a lookup was built past the direct test limit")

    monkeypatch.setattr(sieve, "factor_degree_sets", no_lookup)
    start = time.monotonic()
    # 2,600 quartics times the 494 primes from 17 to 3,571, whose quartics get no table.
    message = "sieve work too large: 1284400 direct tests"
    with pytest.raises(FeasibilityError, match=message):
        build_admissible_instance(4, 24, 3572)
    with pytest.raises(FeasibilityError, match=message):
        pipeline_lower_bound(4, 24, z_override=3572)
    assert time.monotonic() - start < 1


def test_direct_test_limit_is_inclusive(monkeypatch):
    # Four quartics of height 6; 17 is the first prime whose quartics get no table.
    monkeypatch.setattr(sieve, "DIRECT_TEST_LIMIT", 4)
    _assert_sieve_data_matches_brute_force(4, 6, 18)
    with pytest.raises(FeasibilityError, match="8 direct tests .* exceed limit 4"):
        build_admissible_instance(4, 6, 20)


# (degree, heights, levels): z = 8 and 11 put 5 and 7 above degrees 3 and 4,
# so the residue route counts mod 35; at degree 5 only 7 lies above the
# degree below 11.
_ROUTE_GRIDS = [
    (3, range(9), (1, 2, 3, 4, 6, 8, 11)),
    (4, (5, 6, 7, 9, 10), (2, 4, 6, 8, 11)),
    (5, (24, 25, 27), (6, 8, 11)),
]


def _residue_route(n, h, primes, modulus=None):
    # The walk mod `modulus`, by default the product of the primes above n,
    # with each of those primes at its bit.
    lookups = [(1 << i, sieve.factor_degree_sets(p, n)) for i, p in enumerate(primes) if p > n]
    if modulus is None:
        modulus = math.prod(p for p in primes if p > n)
    return sieve._slice_histogram(n, h, modulus, lookups)


def _reference_histogram(n, h, primes):
    # {mask: count} one polynomial at a time: bit i is set iff f is
    # irreducible mod primes[i], every prime below z tested.
    irreducible = 1 | 1 << n
    histogram = {}
    for f in enumerate_admissible(n, h):
        mask = sum(1 << i for i, p in enumerate(primes)
                   if sieve.factor_degree_sets(p, n)(f.coeffs) == irreducible)
        histogram[mask] = histogram.get(mask, 0) + 1
    return histogram


def _routes_taken(monkeypatch):
    # Records "residue" for each walk mod a modulus up to the height and
    # "enumeration" for each walk past it.
    routes = set()
    real = sieve._slice_histogram

    def counted_slice(degree, height, modulus, lookups):
        routes.add("residue" if modulus <= height else "enumeration")
        return real(degree, height, modulus, lookups)

    monkeypatch.setattr(sieve, "_slice_histogram", counted_slice)
    return routes


def test_residue_route_matches_enumeration_on_grids():
    # The reference tests every prime below z, where f(1) = n! makes each
    # p <= n reducible; the walk mod the product of the primes above n,
    # the walk mod h + 1 and the route the cost model picks all agree.
    for n, heights, levels in _ROUTE_GRIDS:
        for h in heights:
            for z in levels:
                primes = primes_below(z)
                by_test = _reference_histogram(n, h, primes)
                assert _residue_route(n, h, primes) == by_test, (n, h, z)
                assert _residue_route(n, h, primes, h + 1) == by_test, (n, h, z)
                assert sieve._admissible_histogram(n, h, primes) == by_test, (n, h, z)


def test_instances_enumerate_nothing_on_either_route(monkeypatch):
    # Past the height each residue vector is its own lift, so the walk
    # mod h + 1 stands in for the enumeration and builds no polynomial.
    def no_enumeration(*args):
        raise AssertionError("the ambient set was enumerated")

    monkeypatch.setattr(sieve, "enumerate_admissible", no_enumeration)
    routes = _routes_taken(monkeypatch)
    for n, heights, levels in _ROUTE_GRIDS:
        for h in heights:
            for z in levels:
                build_admissible_instance(n, h, z)
    assert routes == {"enumeration", "residue"}


def test_the_walk_visits_only_vectors_with_a_lift():
    # Mod 7 a residue vector r has a lift when its entries are at most
    # min(6, h) and its lift sum s is at most n * (h // 7) less one per
    # r_i above h % 7.  (5, 27): of the 7^4 = 2,401 vectors only 2,075 are
    # tested.  (5, 23): 5 * 23 < 5! - 1, so no quintic and no vector has a
    # lift.  (6, 123): 14,084 of the 16,807 vectors, each a direct test at
    # the untabled (7, 6).
    for n, h, tested in ((5, 27, 2075), (5, 23, 0), (6, 123, 14_084)):
        calls = 0
        lookup = sieve.factor_degree_sets(7, n)

        def counted(coeffs):
            nonlocal calls
            calls += 1
            return lookup(coeffs)

        histogram = sieve._slice_histogram(n, h, 7, [(1, counted)])
        assert histogram == _reference_histogram(n, h, (7,)), (n, h)
        assert calls == tested, (n, h)


def test_residue_route_product_pass_at_the_smoke_instance():
    # (4, 10, 8): A_5 and A_7 are both non-empty, so the masks come from
    # the 35^3 residue vectors mod 35; bits 2 and 3 stand for 5 and 7.
    # The cost model enumerates here (804 * 2 tests) and agrees.
    histogram = {0: 419, 0b0100: 157, 0b1000: 158, 0b1100: 70}
    assert _residue_route(4, 10, primes_below(8)) == histogram
    assert sieve._admissible_histogram(4, 10, primes_below(8)) == histogram


def test_residue_route_makes_one_pass_mod_the_primes_above_the_degree(monkeypatch):
    # No pass is made mod 2 or 3, where A_p is empty.  At (4, 10, 8) the
    # route is taken once N(H) is priced past 35^3 / 2 polynomials.
    moduli = []
    real = sieve._slice_histogram

    def counted_slice(degree, height, modulus, lookups):
        moduli.append(modulus)
        return real(degree, height, modulus, lookups)

    monkeypatch.setattr(sieve, "_slice_histogram", counted_slice)
    assert sieve._admissible_histogram(4, 24, (2, 3, 5)) == {0: 1900, 0b100: 700}
    assert moduli == [5]
    moduli.clear()
    monkeypatch.setattr(sieve, "count_admissible_exact", lambda degree, height: 10**6)
    primes = (2, 3, 5, 7)
    histogram = sieve._admissible_histogram(4, 10, primes)
    assert moduli == [35]
    assert histogram == _reference_histogram(4, 10, primes)


def test_no_lookup_is_built_at_a_prime_up_to_the_degree(monkeypatch):
    # A_p is empty for p <= n, so neither route builds its lookup.
    real = sieve.factor_degree_sets

    def checked_lookup(p, degree):
        assert p > degree, (p, degree)
        return real(p, degree)

    monkeypatch.setattr(sieve, "factor_degree_sets", checked_lookup)
    routes = _routes_taken(monkeypatch)
    for n, heights, levels in _ROUTE_GRIDS:
        for h in heights:
            for z in levels:
                build_admissible_instance(n, h, z)
    assert routes == {"enumeration", "residue"}


def test_an_instance_with_no_prime_above_the_degree_is_answered_without_a_lookup(monkeypatch):
    # (7, 722, 8): every prime below 8 is at most 7, so all four A_p are
    # empty and the one vector mod 1 counts the 54,264 septics.
    def no_lookup(p, degree):
        raise AssertionError("a lookup was built")

    monkeypatch.setattr(sieve, "factor_degree_sets", no_lookup)
    inst = build_admissible_instance(7, 722, 8)
    assert inst.ambient_size == count_admissible_exact(7, 722) == 54_264
    assert inst.member_counts == {2: 0, 3: 0, 5: 0, 7: 0}


def test_direct_tests_are_priced_at_the_primes_above_the_degree_only(run_cli):
    # (7, 722, 17): 54,264 septics tested at 11 and 13, which get no table;
    # 5 and 7 are never tested, so they are not priced.
    proc = run_cli("sieve", "--degree", "7", "--height", "722", "--z", "17", expect_code=3)
    assert proc.stdout == b""
    assert json.loads(proc.stderr)["message"].startswith(
        "sieve work too large: 108528 direct tests")


def test_an_instance_with_no_primes_below_z_is_counted_not_enumerated(monkeypatch):
    # With no prime below z the histogram is {0: N(H)}: the residue route
    # reads it off its one vector mod 1, where enumerating would walk
    # 9,078,630 quintics or stop at ENUM_LIMIT for the sextics.
    def no_enumeration(*args):
        raise AssertionError("the ambient set was enumerated")

    monkeypatch.setattr(sieve, "enumerate_admissible", no_enumeration)
    start = time.process_time()
    inst = build_admissible_instance(6, 719, 2)
    assert inst.ambient_size == 1_634_935_320_144
    assert inst.primes == ()
    assert build_admissible_instance(5, 119, 2).ambient_size == 9_078_630
    assert time.process_time() - start < 1


def test_residue_route_at_degree_6():
    # 14,084 distinct-degree factorizations mod 7, one per residue vector
    # with a lift (DIRECT_TEST_LIMIT prices the 16,807 of all vectors).
    # Enumeration, with 42,504 of them (past DIRECT_TEST_LIMIT, and seconds
    # more), gives the same 8,495.
    inst = build_admissible_instance(6, 123, 8)
    assert inst.ambient_size == 42_504
    assert inst.member_counts == {2: 0, 3: 0, 5: 0, 7: 8495}


def test_cost_model_picks_the_cheaper_route(monkeypatch):
    routes = _routes_taken(monkeypatch)
    # (5, 36, 8): 7^4 = 2,401 residue vectors against 574,665 tests, and
    # A_7 alone is non-empty.
    inst = build_admissible_instance(5, 36, 8)
    assert routes == {"residue"}
    assert inst.ambient_size == 574_665
    assert inst.member_counts == {2: 0, 3: 0, 5: 0, 7: 130_179}
    assert inst.pair_counts[(7, 7)] == 130_179
    assert all(c == 0 for key, c in inst.pair_counts.items() if key != (7, 7))
    assert turan_upper_bound(inst) == turan_bound_by_ordered_pairs(inst) == Fraction(37_194_885, 16)
    # (4, 10, 8): 804 * 2 tests against 35^3 vectors.
    routes.clear()
    inst = build_admissible_instance(4, 10, 8)
    assert routes == {"enumeration"}
    assert inst.pair_counts[(5, 7)] == 70
    assert turan_upper_bound(inst) == 2711


def test_residue_route_answers_6_130_9(monkeypatch):
    # Enumeration would take 8,936,928 direct tests at p = 7; the residue
    # route takes 7^5 = 16,807, within DIRECT_TEST_LIMIT.
    monkeypatch.setattr(sieve, "DIRECT_TEST_LIMIT", 16_806)
    with pytest.raises(FeasibilityError, match="16807 direct tests .* exceed limit 16806"):
        build_admissible_instance(6, 130, 9)
    monkeypatch.undo()
    assert sieve.DIRECT_TEST_LIMIT >= 16_807
    inst = build_admissible_instance(6, 130, 9)
    assert inst.ambient_size == count_admissible_exact(6, 130) == 8_936_928
    assert inst.member_counts == {2: 0, 3: 0, 5: 0, 7: 1_754_907}


def test_pipeline_limits_are_checked_before_any_membership_test(monkeypatch):
    def no_lookup(p, degree):
        raise AssertionError("a lookup was built past a limit")

    monkeypatch.setattr(sieve, "factor_degree_sets", no_lookup)
    # 142,506 sextics tested at p = 7 and 11, against 77^5 vectors mod 77.
    with pytest.raises(FeasibilityError, match="sieve work too large: 285012 direct tests"):
        pipeline_lower_bound(6, 124, z_override=12)
    with pytest.raises(FeasibilityError, match="enumeration too large: 131035104180 "):
        pipeline_lower_bound(6, 200, z_override=4)
    # ENUM_LIMIT is checked first, so it names an input past both limits.
    with pytest.raises(FeasibilityError, match="enumeration too large: 131035104180 "):
        pipeline_lower_bound(6, 200, z_override=12)


def test_route_costs_build_no_huge_prime_powers():
    # 3571^100000 has 355,000 digits; building it for each of the 500
    # primes took over 20 s just to compare with TABLE_LIMIT.
    start = time.process_time()
    inst = build_admissible_instance(100_000, 1, 3572)
    assert inst.ambient_size == 0 and len(inst.primes) == 500
    assert time.process_time() - start < 5
