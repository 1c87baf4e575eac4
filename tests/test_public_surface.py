import importlib
import pkgutil

import pytest

import admissible

# Test-only oracles; they live in tests/oracles.py, never in the package.
ORACLE_NAMES = (
    "DEFAULT_EXHAUSTIVE_LIMIT",
    "DEFAULT_ORACLE_LIMIT",
    "brute_force_compositions",
    "brute_mobius",
    "count_irreducibles_exhaustive",
    "count_irreducibles_in_class",
    "count_primes_crosscheck",
    "is_irreducible_rabin",
    "is_irreducible_trial_division",
    "multiply_monic",
)

# Deleted because nothing in the package or the CLI called them: a second
# F_p representation (with its wrappers), the unbounded composition counts
# and pi(z), which is len(primes_below(z + 1)); the defaults of the
# enumeration and search limits, now the constants ENUM_LIMIT and
# SEARCH_LIMIT; the irreducibility probe primes, replaced by the
# factor-degree sets over FACTOR_DEGREE_PRIMES; and the prime divisors
# that Rabin's criterion needed, folded into mobius, with the limit named
# after that criterion, now DIRECT_TEST_LIMIT; the index walk over all p^n
# monic polynomials and the table-or-direct selector, replaced by tables
# per class f(1) mod p behind one lookup path; and that path's private
# builder and its irreducibility predicate, folded into factor_degree_sets;
# and the separate linear-factor loop, now degree 1 of the box search.
DELETED_NAMES = (
    "DEFAULT_ENUM_LIMIT",
    "DEFAULT_SEARCH_LIMIT",
    "PROBE_PRIMES",
    "PrimeFieldPolynomial",
    "RABIN_TEST_LIMIT",
    "_divisor_degrees",
    "_first_factor",
    "_prime_divisors",
    "_same_modulus",
    "_table_or_direct",
    "_tails",
    "count_nonneg_compositions",
    "count_positive_compositions",
    "fp_divmod",
    "fp_gcd",
    "fp_mod",
    "fp_mul",
    "fp_powmod",
    "irreducibility_tester",
    "is_irreducible_mod_p",
    "prime_count",
    "reduce_mod_p",
)

# __main__ runs the CLI on import, so it is left out.
MODULES = [
    importlib.import_module(f"admissible.{info.name}")
    for info in pkgutil.iter_modules(admissible.__path__)
    if info.name != "__main__"
]


def test_every_exported_name_resolves():
    assert len(set(admissible.__all__)) == len(admissible.__all__)
    for name in admissible.__all__:
        assert hasattr(admissible, name), name


def test_star_import():
    namespace = {}
    exec("from admissible import *", namespace)
    assert set(admissible.__all__) <= set(namespace)


@pytest.mark.parametrize("module", [admissible, *MODULES], ids=lambda m: m.__name__)
def test_oracles_are_not_in_the_package(module):
    for name in ORACLE_NAMES:
        with pytest.raises(ImportError):
            exec(f"from {module.__name__} import {name}", {})


@pytest.mark.parametrize("module", [admissible, *MODULES], ids=lambda m: m.__name__)
def test_deleted_names_stay_deleted(module):
    for name in DELETED_NAMES:
        with pytest.raises(ImportError):
            exec(f"from {module.__name__} import {name}", {})
