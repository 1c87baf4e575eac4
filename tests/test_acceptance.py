"""Acceptance gate: every criterion as a hard test at its stated tolerance.

Each test prints one PASS line when it gets through its assertions (run
pytest with -s to see them).  Expected values marked as golden below
were computed with the in-repo brute-force oracles before being frozen.
"""

import math
import time

from admissible.combinatorics import count_bounded_compositions
from admissible.finite_field import count_irreducibles_exact
from admissible.integer_irreducibility import count_admissible_irreducible
from admissible.polynomials import (
    audit_bounds,
    count_admissible_exact,
    enumerate_admissible,
)
from admissible.sieve import (
    audit_chebyshev,
    build_admissible_instance,
    exact_sifted_count,
    primes_below,
    turan_upper_bound,
)

from oracles import (
    brute_admissible_vectors,
    brute_count_tuples,
    brute_force_compositions,
    count_irreducibles_exhaustive,
    count_primes_crosscheck,
    oracle_is_irreducible_over_z,
    turan_bound_by_ordered_pairs,
)


def _report(k, label):
    print(f"\nCRITERION {k} ({label}): PASS")


def test_criterion_1_composition_oracle_equivalence():
    start = time.monotonic()
    for parts in range(1, 6):
        for target in range(0, 31):
            for cap in range(0, 13):
                q = (parts, target, cap)
                assert count_bounded_compositions(*q) == brute_force_compositions(*q), q
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"grid took {elapsed:.1f}s"
    _report(1, "composition-count oracle equivalence")


def test_criterion_2_census_exactness():
    start = time.monotonic()
    for n in (3, 4):
        target = math.factorial(n) - 1
        for h in range(0, math.factorial(n) + 1):
            assert count_admissible_exact(n, h) == brute_count_tuples(n, target, h), (n, h)
    # Anchors, frozen after oracle confirmation.
    assert count_admissible_exact(3, 6) == 21
    assert count_admissible_exact(3, 2) == 3
    assert count_admissible_exact(4, 5) == 0
    assert count_admissible_exact(4, 6) == 4
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"census grid took {elapsed:.1f}s"
    _report(2, "admissible census exactness")


def test_criterion_3_bounds_audit_flags():
    (at_45,) = audit_bounds(4, (5, 5))
    assert at_45.lower_violated
    assert at_45.claimed_lower == 1 and at_45.exact_count == 0
    (at_36,) = audit_bounds(3, (6, 6))
    assert not at_36.lower_violated and not at_36.upper_violated
    _report(3, "bounds audit reproduces the known violation")


def test_criterion_4_finite_field_counts():
    start = time.monotonic()
    for n in range(1, 5):
        for p in (2, 3, 5, 7):
            assert count_irreducibles_exact(n, p) == count_irreducibles_exhaustive(n, p)
    for n in range(1, 11):
        assert count_irreducibles_exact(n, 2) == count_irreducibles_exhaustive(n, 2)
    assert count_irreducibles_exact(2, 2) == 1
    assert count_irreducibles_exact(3, 2) == 2
    assert count_irreducibles_exact(2, 3) == 3
    assert count_irreducibles_exact(4, 2) == 3
    # Normalized error: (N_n - p^n/n)^2 <= p^n, exact rational comparison.
    from fractions import Fraction

    for n in range(2, 11):
        for p in (2, 3, 5, 7):
            exact = count_irreducibles_exact(n, p)
            main = Fraction(p**n, n)
            assert (exact - main) ** 2 <= p**n, (n, p)
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"finite-field grid took {elapsed:.1f}s"
    _report(4, "finite-field irreducible counts")


def _criterion_5_grid():
    for n, heights in ((3, (2, 3, 4, 5, 6)), (4, (6, 12, 24))):
        for h in heights:
            for z in range(2, 11):
                yield n, h, z


def test_criterion_5_turan_inequality():
    for n, h, z in _criterion_5_grid():
        inst = build_admissible_instance(n, h, z)
        sifted = exact_sifted_count(enumerate_admissible(n, h), z)
        if inst.primes:
            bound = turan_upper_bound(inst)
            assert bound == turan_bound_by_ordered_pairs(inst), (n, h, z)
            assert sifted <= bound, (n, h, z, sifted, bound)
        else:
            # z = 2 admits no primes: the bound is undefined and nothing
            # gets sifted.
            assert sifted == inst.ambient_size
    _report(5, "Turan inequality never violated")


def test_criterion_6_sieve_vs_truth_chain():
    start = time.monotonic()
    for n, h, z in _criterion_5_grid():
        ambient = count_admissible_exact(n, h)
        sifted = exact_sifted_count(enumerate_admissible(n, h), z)
        irreducible = count_admissible_irreducible(n, h)
        assert irreducible >= ambient - sifted, (n, h, z)

    # A(H) against the unpruned factor-pair oracle; verdicts are computed
    # once per polynomial at the saturated height and reused across H.
    for n in (3, 4):
        verdicts = {
            vec: oracle_is_irreducible_over_z([*vec, 1])
            for vec in brute_admissible_vectors(n, math.factorial(n))
        }
        for h in range(0, math.factorial(n) + 1):
            want = sum(
                1 for vec, irr in verdicts.items() if irr and max(vec, default=0) <= h
            )
            assert count_admissible_irreducible(n, h) == want, (n, h)
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"chain grid took {elapsed:.1f}s"
    _report(6, "sieve-vs-truth chain and A(H) oracle agreement")


def test_criterion_7_chebyshev():
    assert len(primes_below(101)) == 25 == count_primes_crosscheck(100)
    assert len(primes_below(1001)) == 168 == count_primes_crosscheck(1000)
    assert len(primes_below(10**6 + 1)) == 78498 == count_primes_crosscheck(10**6)
    audit = audit_chebyshev(10**6)
    assert audit.within_band, (audit.ratio_min, audit.ratio_max)
    assert 0.9 <= audit.ratio_min and audit.ratio_max <= 1.3
    _report(7, "Chebyshev prime-count audit")


def test_criterion_8_performance():
    # The closed form must confirm the census size before the heavy run.
    # C(123, 4) = 9,078,630 monic admissible quintics at height 120.
    best = min(
        _timed(lambda: count_bounded_compositions(5, 119, 120))[0]
        for _ in range(3)
    )
    value = count_bounded_compositions(5, 119, 120)
    assert value == math.comb(123, 4) == 9078630
    assert best < 0.010, f"counting took {best * 1000:.3f} ms"

    start = time.monotonic()
    sifted = exact_sifted_count(enumerate_admissible(5, 120), 4)
    elapsed = time.monotonic() - start
    # 5! is divisible by 2 and 3, so every admissible quintic has root 1
    # mod both primes and the sifting removes nothing.
    assert sifted == 9078630
    assert elapsed < 600, f"enumeration + sifting took {elapsed:.1f}s"
    _report(8, "performance envelope (n=5, H=120)")


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def test_criterion_9_cli_determinism(run_cli):
    commands = [
        ["count", "--degree", "3", "--height", "6"],
        ["count", "--degree", "4", "--height", "5", "--format", "csv"],
        ["enumerate", "--degree", "3", "--height", "6", "--limit", "5"],
        ["enumerate", "--degree", "3", "--height", "2", "--format", "csv"],
        ["irr-count", "--degree", "3", "--height", "6"],
        ["sieve", "--degree", "3", "--height", "6"],
        ["sieve", "--degree", "3", "--height", "6", "--z", "4"],
        ["fp-audit", "--degree", "2", "--primes", "2,3,5,7"],
        ["fp-audit", "--degree", "3", "--primes", "2,3", "--format", "csv"],
        ["primes", "--below", "100"],
        ["chebyshev", "--z-max", "10000"],
        ["bounds-audit", "--degree", "4", "--h-min", "0", "--h-max", "10"],
    ]
    for argv in commands:
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.stdout == second.stdout, argv
        assert first.stderr == second.stderr == b""
    _report(9, "CLI determinism (byte-identical reruns)")
