"""Per-layer spans recorded from outside the package.

`Tracer.install()` replaces public entry points of the `admissible`
modules with timing wrappers at every place a module binds them, so
nothing under `src/` changes.  Spans are aggregated in memory per name
(calls, inclusive seconds, self seconds) instead of being kept one by
one: the enumeration alone opens over a million spans per run.  A span's
self time is its duration minus the time of the spans it opened.

Spans and what they stand for:

- combinatorics.count     count_bounded_compositions
- polynomials.enumerate   the enumerate_admissible call and every next()
                          on the generator it returns
- finite_field.table      irreducible_table answered from its cache
- finite_field.build      irreducible_table building a new table
- finite_field.rabin      the Rabin test called directly by sieve and
                          integer_irreducibility (not the tests a table
                          build runs internally, which stay in build)
- integer_irreducibility.decide/probe/search
                          is_irreducible_over_z, its per-prime probe and
                          its Mignotte factor search
- sieve.instance/sift/turan/pipeline
                          build_admissible_instance, exact_sifted_count,
                          turan_upper_bound, pipeline_lower_bound
- cli.main                cli.main, wrapped by the worker that calls it
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self):
        # One open frame per active span: [start, seconds spent in child spans].
        self._stack = [[clock(), 0.0]]
        # name -> [calls, inclusive seconds, self seconds]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)

    def _enter(self):
        self._stack.append([clock(), 0.0])

    def _exit(self, name):
        end = clock()
        start, child = self._stack.pop()
        duration = end - start
        span = self.spans[name]
        span[0] += 1
        span[1] += duration
        span[2] += duration - child
        self._stack[-1][1] += duration

    def wrap(self, name, fn, on_result=None):
        """Wrap `fn` in a span; `on_result` sees each return value."""

        def traced(*args, **kwargs):
            self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def iterate(self, name, iterable, counter):
        """Yield from `iterable`, timing each step as a span of `name`."""
        it = iter(iterable)
        while True:
            self._enter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._exit(name)
            self.counts[counter] += 1
            yield item

    def install(self):
        """Patch every binding of the traced entry points in loaded modules."""
        from admissible import (
            combinatorics,
            finite_field,
            integer_irreducibility,
            polynomials,
            sieve,
        )

        table = finite_field.irreducible_table

        def traced_table(p, degree):
            misses = table.cache_info().misses
            self._enter()
            try:
                result = table(p, degree)
            finally:
                built = table.cache_info().misses != misses
                self._exit("finite_field.build" if built else "finite_field.table")
            if built:
                self.counts["finite_field.table_entries"] += len(result)
            return result

        def traced_enumerate(*args, **kwargs):
            stream = enumerate_call(*args, **kwargs)
            return self.iterate("polynomials.enumerate", stream, "polynomials.enumerated")

        enumerate_call = self.wrap("polynomials.enumerate", polynomials.enumerate_admissible)

        def count_sifted(sifted):
            self.counts["sieve.sifted"] += sifted

        def traced_sift(ambient, z):
            return sift(self._counted(ambient), z)

        sift = self.wrap("sieve.sift", sieve.exact_sifted_count, count_sifted)

        def count_reducible(witness):
            if not witness.irreducible:
                self.counts["integer_irreducibility.witnesses"] += 1

        replace = {
            combinatorics.count_bounded_compositions: self.wrap(
                "combinatorics.count", combinatorics.count_bounded_compositions
            ),
            polynomials.enumerate_admissible: traced_enumerate,
            table: traced_table,
            integer_irreducibility.is_irreducible_over_z: self.wrap(
                "integer_irreducibility.decide", integer_irreducibility.is_irreducible_over_z
            ),
            integer_irreducibility._irreducible_mod: self.wrap(
                "integer_irreducibility.probe", integer_irreducibility._irreducible_mod
            ),
            integer_irreducibility._bounded_factor_search: self.wrap(
                "integer_irreducibility.search",
                integer_irreducibility._bounded_factor_search,
                count_reducible,
            ),
            sieve.build_admissible_instance: self.wrap(
                "sieve.instance", sieve.build_admissible_instance
            ),
            sieve.exact_sifted_count: traced_sift,
            sieve.turan_upper_bound: self.wrap("sieve.turan", sieve.turan_upper_bound),
            sieve.pipeline_lower_bound: self.wrap(
                "sieve.pipeline", sieve.pipeline_lower_bound
            ),
        }
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "admissible"]:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in replace:
                    setattr(module, attr, replace[value])
        # Table builds run Rabin tests of their own; only the direct calls
        # count as rabin, so the finite_field binding stays untouched.
        rabin = self.wrap("finite_field.rabin", finite_field._is_irreducible_raw)
        sieve._is_irreducible_raw = rabin
        integer_irreducibility._is_irreducible_raw = rabin
        self._table = table
        return self

    def _counted(self, iterable):
        for item in iterable:
            self.counts["sieve.ambient"] += 1
            yield item

    def summary(self) -> dict:
        """Plain-JSON aggregate: spans, counters and the table cache state."""
        info = self._table.cache_info()
        counts = dict(self.counts)
        counts["finite_field.table_builds"] = info.misses
        counts["finite_field.table_lookups"] = info.hits
        return {"spans": {k: list(v) for k, v in self.spans.items()}, "counts": counts}
