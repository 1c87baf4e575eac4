import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import admissible

# Test-only oracles; they live in tests/oracles.py, never in the package.
ORACLE_NAMES = (
    "DEFAULT_EXHAUSTIVE_LIMIT",
    "DEFAULT_ORACLE_LIMIT",
    "brute_force_compositions",
    "brute_mobius",
    "chebyshev_scan",
    "count_irreducibles_exhaustive",
    "count_irreducibles_in_class",
    "count_primes_crosscheck",
    "divisor_degree_table_by_products",
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
# and the separate linear-factor loop, now degree 1 of the box search;
# and the list arithmetic the distinct-degree factorization no longer
# calls: _monic, folded into _gcd, and the rest now in tests/oracles.py,
# with _divmod last, once that factorization counted its factors from gcd
# degrees instead of dividing them out; and the box builder and its
# separate candidate count, folded into _bounded_factor_search, which
# builds and counts the box of the open factor degrees only; and the
# residue route's passes mod each p <= n, which only found A_p empty;
# and the per-polynomial membership pass, now the residue walk mod H + 1;
# and the sign rule on x + b, which saved long divisions but no time;
# and a wrapper of count_bounded_compositions' integers and a second binomial;
# and the Turan instance's copies of its histogram and their prime checks;
# and the class member listing that fed one product at a time to the
# table builds, now passes over whole coefficient columns.
DELETED_NAMES = (
    "CompositionQuery",
    "DEFAULT_ENUM_LIMIT",
    "DEFAULT_SEARCH_LIMIT",
    "PROBE_PRIMES",
    "PrimeFieldPolynomial",
    "RABIN_TEST_LIMIT",
    "_check_search_space",
    "_choose",
    "_class_members",
    "_divisor_degrees",
    "_divmod",
    "_first_factor",
    "_linear_signs",
    "_membership_histogram",
    "_mignotte_box",
    "_mod",
    "_monic",
    "_mul",
    "_powmod",
    "_prime_divisors",
    "_residue_histogram",
    "_residue_moduli",
    "_same_modulus",
    "_sieve_primes",
    "_sub",
    "_table_or_direct",
    "_tails",
    "_turan_instance",
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


def _imported_names(tree):
    # Each name an import statement binds, except `from __future__`.
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def test_package_modules_use_every_import():
    # __init__ imports to re-export, so it is left out.
    unused = []
    for path in sorted(Path(admissible.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, name) for name in _imported_names(tree) if name not in used]
    assert not unused


def test_every_private_helper_is_used():
    # A private module-level function or class must be named somewhere in
    # the package besides its definition.  _is_irreducible_raw is the one
    # exception: only the tests and bench/tracer.py read it.
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(admissible.__file__).parent.glob("*.py"))]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")}
    named = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(a.name for a in node.names)
    assert defined - named == {"_is_irreducible_raw"}
