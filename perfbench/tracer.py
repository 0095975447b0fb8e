"""Run the openbook CLI in this process with its public functions traced.

Usage: python perfbench/tracer.py TRACE.json <openbook arguments...>
(with the repository's ``src`` on PYTHONPATH). Exits with the CLI's code.

Tracing is done from outside: every public function of the traced modules
is replaced, in every ``openbook`` module that binds it, by a wrapper that
records a span. Patching only the defining module would miss names bound
by ``from ... import`` (``cli.parse_pgn_stream``, ``report.query``, ...);
after patching, any module still binding an original function is an
error. A generator function's span is each ``next()``, so the time spent
producing items lands in the generator's layer and not in its consumer's.

Spans nest on a stack and times are integer nanoseconds, so the self
times of all spans add up exactly to the root span's duration.
"""

from __future__ import annotations

import inspect
import json
import sys
import tracemalloc
from time import perf_counter_ns

LAYERS = ("pgn", "rules", "book", "suite", "measures", "stats", "report", "cli")
# bootstrap_ci picks its vectorised path by comparing its default statistic
# to stats.pearson_xy by identity; a wrapper there would change behaviour.
UNTRACED = {"stats.pearson_xy"}


class Tracer:
    def __init__(self):
        self.records = {}   # name -> [calls, inclusive ns, self ns]
        self.stack = []     # child-time accumulators of the open spans
        self.unique_keys = set()
        self.counts = {"games_read": 0, "games_malformed": 0, "games_passed": 0,
                       "plies_parsed": 0, "suite_positions": 0, "rows": 0,
                       "defined_cells": 0, "bootstrap_n": 0, "bootstrap_alloc_peak": 0}

    def _record(self, name):
        record = self.records.get(name)
        if record is None:
            record = self.records[name] = [0, 0, 0]
        return record

    def _close(self, record, start, children):
        elapsed = perf_counter_ns() - start
        self.stack.pop()
        record[1] += elapsed
        record[2] += elapsed - children[0]
        if self.stack:
            self.stack[-1][0] += elapsed

    def wrap(self, name, fn):
        record = self._record(name)
        on_result = getattr(self, "_on_" + name.replace(".", "_"), None)
        if inspect.isgeneratorfunction(fn):
            def generator_wrapper(*args, **kwargs):
                record[0] += 1
                return _TracedIterator(self, record, fn(*args, **kwargs), on_result)
            return generator_wrapper

        def wrapper(*args, **kwargs):
            record[0] += 1
            children = [0]
            self.stack.append(children)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record, start, children)
            if on_result is not None:
                on_result(result, args)
            return result

        if name == "stats.bootstrap_ci":
            return self._with_allocations(wrapper)
        return wrapper

    def run_root(self, fn, *args):
        record = self._record("root")
        record[0] += 1
        children = [0]
        self.stack.append(children)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._close(record, start, children)

    def _with_allocations(self, wrapper):
        def allocations_wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return wrapper(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.counts["bootstrap_alloc_peak"] = max(self.counts["bootstrap_alloc_peak"], peak)
        return allocations_wrapper

    def _on_rules_position_key(self, key, args):
        self.unique_keys.add(key)

    def _on_pgn_parse_pgn_stream(self, item, args):
        self.counts["games_read"] += 1
        if hasattr(item, "moves"):
            self.counts["plies_parsed"] += len(item.moves)
        else:
            self.counts["games_malformed"] += 1
            self.counts["plies_parsed"] += item.move_index or 0

    def _on_pgn_filter_games(self, item, args):
        self.counts["games_passed"] += 1

    def _on_suite_parse_epd_suite(self, entries, args):
        self.counts["suite_positions"] += len(entries)

    def _on_measures_compare_position(self, row, args):
        self.counts["rows"] += 1
        self.counts["defined_cells"] += sum(
            value is not None for value in (row.m_measure, row.max_m, row.jsd, row.overlap))

    def _on_stats_bootstrap_ci(self, result, args):
        self.counts["bootstrap_n"] = max(self.counts["bootstrap_n"], len(args[0]))


class _TracedIterator:
    def __init__(self, tracer, record, inner, on_item):
        self.tracer = tracer
        self.record = record
        self.inner = inner
        self.on_item = on_item

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        children = [0]
        tracer.stack.append(children)
        start = perf_counter_ns()
        try:
            item = next(self.inner)
        finally:
            tracer._close(self.record, start, children)
        if self.on_item is not None:
            self.on_item(item, ())
        return item

    def close(self):
        self.inner.close()


def install(tracer: Tracer) -> None:
    """Wrap every public function of LAYERS wherever an openbook module binds it."""
    import openbook.cli  # noqa: F401  (imports every traced module)
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "openbook" or n.startswith("openbook.")]
    originals = {}
    for layer in LAYERS:
        module = sys.modules[f"openbook.{layer}"]
        for attr, fn in sorted(vars(module).items()):
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__ or name in UNTRACED):
                continue
            originals[id(fn)] = (name, tracer.wrap(name, fn))
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in originals:
                setattr(module, attr, originals[id(value)][1])
    for module in modules:
        for attr, value in vars(module).items():
            if id(value) in originals:
                raise RuntimeError(f"{module.__name__}.{attr} is still untraced")


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import openbook.cli
    code = tracer.run_root(openbook.cli.main, cli_args)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"records": tracer.records, "counts": tracer.counts,
                   "unique_keys": len(tracer.unique_keys)}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
