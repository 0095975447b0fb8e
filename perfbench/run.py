"""Benchmark of ``openbook build`` and ``openbook compare`` on seeded corpora.

Usage, from the repository root:

    python3 perfbench/run.py --workload build_deep --seed 1 --seconds 20 --trace 0

Workloads (each a closed loop: one CLI process at a time, the next started
when the previous exits):

- ``build_deep``: uniformly random games of about 80 plies, all rated and
  finished, built at ``--depth 40`` with no filter. Recorded plies
  dominate, and positions almost never repeat.
- ``build_shallow``: games of about 100 plies whose first 20 plies follow
  a seeded opening tree (popularity decay 0.46 per rank), built at
  ``--depth 12 --min-rating 2200``. Most work is parsing plies past the
  depth and games the filter then drops; recorded positions repeat.
- ``compare``: two books from corpora on one opening tree (decay 0.46,
  "human", and 0.52, "engine"), compared over a suite of book 1's most
  played positions, half of them also in book 2. The books are built in
  set-up with the code under test.

Inputs come from ``--seed`` only and are generated before timing. Every
CLI run is a fresh ``python -m openbook.cli`` process with ``src`` on
PYTHONPATH, and every output is checked (see check.py). ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced runs
with runs under perfbench/tracer.py and reports per-layer metrics. The
last line of standard output is the JSON result.

Times (``wall_s``, ``games_per_s``, ``setup_s``) are reported at a fixed
reference CPU speed, measured alongside each timed process on the one CPU
the benchmark pins itself to (see perfbench/speed.py); the unscaled median
and the host's speed are printed next to them. Per-layer times from the
tracer are not scaled.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from speed import SpeedProbe
from tracer import LAYERS

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
MIN_RUNS = 5
BUILD_PATH = ("cli.main", "cli.build_parser", "cli.cmd_build", "pgn.parse_pgn_stream",
              "pgn.filter_games", "rules.initial_position", "rules.parse_fen",
              "rules.legal_moves", "rules.parse_san", "rules.emit_san", "rules.emit_fen",
              "rules.position_key", "rules.replay_san", "rules.is_check",
              "book.build_book", "book.merge_books")
COMPARE_PATH = ("cli.main", "cli.build_parser", "cli.cmd_compare", "book.load_book",
                "suite.parse_epd_suite", "rules.parse_fen", "rules.position_key",
                "rules.emit_fen", "book.query", "measures.compare_position",
                "measures.expected_score_row", "measures.overlap", "measures.m_measure",
                "measures.max_m", "measures.jsd_similarity", "measures.normalize_counts",
                "measures.expected_score", "stats.pearson", "stats.bootstrap_ci",
                "stats.mean_std", "stats.summarize", "report.build_report",
                "report.render_comparison_tsv", "report.render_expected_tsv",
                "report.render_markdown")
PERFT_NODES = 197281  # perft(start, 4)

# Compare settings: 1500 games of 14 plies give books of about 11k
# positions each, so loading is a visible share of the run next to the
# bootstrap; --min-games 1 keeps several hundred rows defined on corpora
# this small; the bootstrap runs at the CLI's default size.
COMPARE_GAMES = 1500
COMPARE_PLIES = 14
SUITE_SIZE = 800
MIN_GAMES = 1
RESAMPLES = 10000


def _specs():
    from corpus import CorpusSpec
    return {
        "build_deep": [CorpusSpec("deep", games=100, plies=80, depth=40, files=2)],
        "build_shallow": [CorpusSpec(
            "shallow", games=160, plies=100, depth=12, tree_plies=20, decay=0.46,
            files=2, min_rating=2200, low_rated_share=0.6,
            unknown_result_share=0.04, malformed_share=0.02)],
        "compare": [CorpusSpec(name, games=COMPARE_GAMES, plies=COMPARE_PLIES,
                               depth=COMPARE_PLIES + 2, tree_plies=COMPARE_PLIES + 2,
                               decay=decay)
                    for name, decay in (("human", 0.46), ("engine", 0.52))],
    }


class Runner:
    """Spawns CLI processes and measures each one."""

    def __init__(self, work: str):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    def run(self, argv, traced: bool = False):
        """Run one CLI process; return (wall s, peak RSS MB, exit code, stderr, trace)."""
        trace_path = os.path.join(self.work, "trace.json")
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), trace_path] + argv
        else:
            cmd = [sys.executable, "-m", "openbook.cli"] + argv
        out_path = os.path.join(self.work, "cli.out")
        err_path = os.path.join(self.work, "cli.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, "r", encoding="utf-8", errors="replace") as handle:
            stderr = handle.read()
        trace = None
        if traced and proc.returncode == 0:
            with open(trace_path, "r", encoding="utf-8") as handle:
                trace = json.load(handle)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr, trace

    def import_time(self) -> float:
        """Seconds from spawning an interpreter until openbook.cli is imported."""
        code = "import openbook.cli, sys; sys.stdout.write('1'); sys.stdout.flush()"
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE)
        ready = proc.stdout.read(1)
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait() != 0 or ready != b"1":
            raise RuntimeError("importing openbook.cli failed")
        return elapsed


class BuildWorkload:
    def __init__(self, spec, seed, work):
        from corpus import generate, OpeningTree
        tree = OpeningTree(f"{seed}") if spec.tree_plies else None
        self.corpus = generate(spec, seed, tree, work)
        self.out = os.path.join(work, "out.book")
        self.argv = ["build", "--pgn", *self.corpus.paths, "--out", self.out,
                     "--depth", str(spec.depth)]
        if spec.min_rating is not None:
            self.argv += ["--min-rating", str(spec.min_rating)]
        self.operations = spec.games
        self.inputs = self.corpus.paths
        self.path = BUILD_PATH
        self.focus = ("pgn.parse_pgn_stream", "rules.legal_moves", "rules.position_key",
                      "book.build_book")

    def prepare(self):
        if os.path.exists(self.out):
            os.remove(self.out)

    def check(self, code, stderr):
        from check import check_build
        return check_build(self.corpus, code, self.out, stderr)

    def games(self):
        return self.corpus.spec.games

    def expected_counts(self):
        """Traced counts that the seed fixes: the generator's tally."""
        c = self.corpus
        return {"pgn.games_read": c.spec.games, "pgn.games_malformed": len(c.malformed),
                "pgn.games_filtered": c.filtered, "pgn.plies_parsed": c.plies_parsed,
                "book.positions": len(c.tally)}

    def properties(self):
        c = self.corpus
        return {"games": c.spec.games, "plies_parsed": c.plies_parsed,
                "plies_recorded": c.plies_recorded,
                "past_depth_share": c.plies_past_depth / c.plies_parsed,
                "filtered_share": c.filtered / c.spec.games,
                "malformed_share": len(c.malformed) / c.spec.games,
                "keys_per_unique_position": c.plies_recorded / len(c.tally),
                "book_positions": len(c.tally),
                "book_bytes": os.path.getsize(self.out) if os.path.exists(self.out) else 0}


class CompareWorkload:
    def __init__(self, specs, seed, work, runner):
        from check import check_build, expected_report
        from corpus import generate, write_suite, OpeningTree
        tree = OpeningTree(f"{seed}")
        self.books = []
        corpora = []
        for spec in specs:
            corpus = generate(spec, seed, tree, work)
            book = os.path.join(work, f"{spec.name}.book")
            _, _, code, stderr, _ = runner.run(
                ["build", "--pgn", *corpus.paths, "--out", book, "--depth", str(spec.depth)])
            failed, reason = check_build(corpus, code, book, stderr)
            if failed:
                raise RuntimeError(f"set-up build of {spec.name} is wrong: {reason}")
            corpora.append(corpus)
            self.books.append(book)
        self.corpora = corpora
        self.suite = os.path.join(work, "suite.epd")
        keys = write_suite(self.suite, corpora[0].tally, corpora[1].tally, SUITE_SIZE)
        self.expected = expected_report(corpora[0].tally, corpora[1].tally, keys,
                                        MIN_GAMES, RESAMPLES, seed)
        self.out = os.path.join(work, "report")
        self.argv = ["compare", "--book1", self.books[0], "--book2", self.books[1],
                     "--suite", self.suite, "--min-games", str(MIN_GAMES),
                     "--bootstrap", str(RESAMPLES), "--seed", str(seed),
                     "--precision", "full", "--out", self.out]
        self.operations = len(keys)
        self.path = COMPARE_PATH
        self.focus = ("book.load_book", "book.query", "suite.parse_epd_suite",
                      "measures.compare_position", "stats.bootstrap_ci")
        self.inputs = [p for c in corpora for p in c.paths] + self.books + [self.suite]

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def check(self, code, stderr):
        from check import check_compare
        return check_compare(self.expected, code, self.out)

    def games(self):
        """Games summarised by the two books compared (games_per_s on compare)."""
        return sum(c.recorded for c in self.corpora)

    def expected_counts(self):
        """Traced counts that the seed fixes: the suite and the defined rows."""
        return {"suite.positions": self.operations, "stats.bootstrap_n": self.expected.n}

    def properties(self):
        return {"suite_positions": self.operations,
                "book_positions": sum(len(c.tally) for c in self.corpora),
                "book_bytes": sum(os.path.getsize(b) for b in self.books),
                "defined_cell_share": self.expected.defined_cell_share,
                "bootstrap_n": self.expected.n}


def _layer_metrics(trace):
    """Per-layer metrics of one traced CLI run."""
    records, counts = trace["records"], trace["counts"]

    def calls(name):
        return records.get(name, [0, 0, 0])[0]

    def incl(name):
        return records.get(name, [0, 0, 0])[1] / 1e9

    def self_s(name):
        return records.get(name, [0, 0, 0])[2] / 1e9

    def layer_self(prefix):
        return sum(r[2] for n, r in records.items() if n.startswith(prefix)) / 1e9

    plies = counts["plies_parsed"]
    parsed_games = counts["games_read"] - counts["games_malformed"]
    return {
        "pgn.games_read": counts["games_read"],
        "pgn.games_malformed": counts["games_malformed"],
        "pgn.games_filtered": parsed_games - counts["games_passed"],
        "pgn.plies_parsed": plies,
        "pgn.self_s": layer_self("pgn."),
        "rules.legal_moves.calls": calls("rules.legal_moves"),
        "rules.parse_san.calls": calls("rules.parse_san"),
        "rules.emit_san.calls": calls("rules.emit_san"),
        "rules.position_key.calls": calls("rules.position_key"),
        "rules.parse_fen.calls": calls("rules.parse_fen"),
        "rules.legal_moves.s": incl("rules.legal_moves"),
        "rules.parse_san.self_s": self_s("rules.parse_san"),
        "rules.emit_san.self_s": self_s("rules.emit_san"),
        "rules.emit_fen.s": incl("rules.emit_fen"),
        "rules.legal_moves_per_ply": calls("rules.legal_moves") / plies if plies else 0.0,
        "rules.keys_per_unique_position": (calls("rules.position_key") / trace["unique_keys"]
                                           if trace["unique_keys"] else 0.0),
        "book.build_book.self_s": self_s("book.build_book"),
        "book.merge_books.s": incl("book.merge_books"),
        "book.query.calls": calls("book.query"),
        "book.query.self_s": self_s("book.query"),
        "suite.parse_s": incl("suite.parse_epd_suite"),
        "suite.positions": counts["suite_positions"],
        "measures.compare_position.s": incl("measures.compare_position"),
        "measures.expected_score_row.s": incl("measures.expected_score_row"),
        "measures.defined_cell_ratio": (counts["defined_cells"] / (4 * counts["rows"])
                                        if counts["rows"] else 0.0),
        "stats.pearson.s": incl("stats.pearson"),
        "stats.bootstrap_ci.s": incl("stats.bootstrap_ci"),
        "stats.bootstrap_n": counts["bootstrap_n"],
        "stats.bootstrap_alloc_peak_mb": counts["bootstrap_alloc_peak"] / 2 ** 20,
        "report.build_report.self_s": self_s("report.build_report"),
        "report.render_s": sum(r[2] for n, r in records.items()
                               if n.startswith("report.render_")) / 1e9,
        "cli.self_s": layer_self("cli."),
    }


def _report_trace(trace, path, focus):
    """Print one traced run's layer self times, shares and the trace self-test.

    The shares line gives the inclusive time of the functions that do the
    workload's named work as a share of the root span.

    The self-test asks that every function on the workload's path was
    called at least once. A function renamed or dropped from the path
    shows here; the run still reports its (zero) metrics.
    """
    records = trace["records"]
    layers = {layer: sum(r[2] for n, r in records.items() if n.startswith(layer + "."))
              for layer in LAYERS}
    print(f"trace: root_s={records['root'][1] / 1e9:.6f} = root self "
          f"{records['root'][2] / 1e9:.6f} + " + " + ".join(
              f"{layer} {ns / 1e9:.6f}" for layer, ns in layers.items()))
    root = records["root"][1]
    print("trace shares of root: " + ", ".join(
        f"{name} {records.get(name, [0, 0])[1] / root:.1%}" for name in focus))
    uncalled = [name for name in path if records.get(name, [0])[0] == 0]
    if uncalled:
        message = f"trace self-test FAILED: never called: {', '.join(uncalled)}"
        print(message)
        print(message, file=sys.stderr)
    else:
        print(f"trace self-test: ok ({len(path)} functions on the path called, "
              f"self times >= 0, self times add up to the root span)")


def _check_trace(trace):
    """Self times must be non-negative and add up to the root span."""
    records = trace["records"]
    negative = [n for n, r in records.items() if r[2] < 0]
    if negative:
        raise RuntimeError(f"negative self time in {negative}")
    total = sum(r[2] for r in records.values())
    if total != records["root"][1]:
        raise RuntimeError(f"self times add to {total} ns, root span is {records['root'][1]} ns")


def _book_io_seconds(path):
    """Median seconds of the public load_book and save_book on one book."""
    from openbook.book import load_book, save_book
    loads, saves = [], []
    copy = path + ".copy"
    for _ in range(3):
        start = time.perf_counter()
        book = load_book(path)
        loads.append(time.perf_counter() - start)
        start = time.perf_counter()
        save_book(book, copy)
        saves.append(time.perf_counter() - start)
    os.remove(copy)
    return statistics.median(loads), statistics.median(saves), book.position_count


def _perft_nps():
    from openbook import rules
    start = time.perf_counter()
    nodes = rules.perft(rules.initial_position(), 4)
    return nodes, nodes / (time.perf_counter() - start)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("build_deep", "build_shallow", "compare"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    if not os.path.isfile(os.path.join(SRC, "openbook", "cli.py")):
        print(f"perfbench: no openbook sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from corpus import sha256_of

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _bench(args, work, sha256_of)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _terminate(signum, frame):
    """Turn SIGTERM into SystemExit so the running CLI process is killed and reaped."""
    raise SystemExit(128 + signum)


def _bench(args, work, sha256_of) -> int:
    runner = Runner(work)
    started = time.perf_counter()
    specs = _specs()[args.workload]
    if args.workload == "compare":
        workload = CompareWorkload(specs, args.seed, work, runner)
    else:
        workload = BuildWorkload(specs[0], args.seed, work)
    inputs = {os.path.basename(p): sha256_of(p) for p in workload.inputs}
    generated = time.perf_counter() - started

    walls, raw_walls, speeds, rss, setup = [], [], [], [], []
    traced_walls, layer_runs = [], []
    attempted = failed = 0
    reasons = set()
    probe = SpeedProbe()
    try:
        runner.import_time()  # compiles the program's bytecode before timing
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or len(walls) < MIN_RUNS or (
                args.trace and len(traced_walls) < MIN_RUNS):
            traced = bool(args.trace) and len(traced_walls) < len(walls)
            workload.prepare()
            before = probe.read()
            wall, peak, code, stderr, trace = runner.run(workload.argv, traced)
            during = probe.read()
            import_s = runner.import_time()
            setup.append(import_s * probe.scale(before, probe.read()))
            speed = probe.scale(before, during)
            bad, reason = workload.check(code, stderr)
            attempted += workload.operations
            failed += bad
            if reason:
                reasons.add(reason)
            if traced:
                traced_walls.append(wall * speed)
                if trace is not None:
                    _check_trace(trace)
                    layer_runs.append(trace)
            else:
                walls.append(wall * speed)
                raw_walls.append(wall)
                speeds.append(speed)
                rss.append(peak)
    finally:
        probe.close()

    wall_s = statistics.median(walls)
    props = workload.properties()
    print(f"inputs: {json.dumps(inputs, sort_keys=True)}")
    print(f"workload: {json.dumps(props)}")
    print(f"set-up: generated inputs in {generated:.2f} s; python {platform.python_version()}, "
          f"{os.cpu_count()} CPUs")
    error_rate = failed / attempted
    for reason in sorted(reasons):
        print(f"output check failed: {reason}", file=sys.stderr)
    print(f"runs={len(walls)} wall_s median={wall_s:.4f} max={max(walls):.4f} at the "
          f"reference speed (unscaled median {statistics.median(raw_walls):.4f} s; host "
          f"speed median {statistics.median(speeds):.3f}, range {min(speeds):.3f}-"
          f"{max(speeds):.3f} of the reference, on CPU {probe.cpu}); "
          f"setup spawns={len(setup)}")

    correct = failed == 0
    if not args.trace:
        metrics = {
            "wall_s": wall_s,
            "games_per_s": workload.games() / wall_s,
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setup),
        }
    else:
        if not layer_runs:
            print("traced runs failed", file=sys.stderr)
            return 1
        per_run = [_layer_metrics(t) for t in layer_runs]
        metrics = {name: statistics.median(run[name] for run in per_run)
                   for name in per_run[0]}
        nodes, nps = _perft_nps()
        if nodes != PERFT_NODES:
            print(f"perft(start, 4) counted {nodes} nodes, expected {PERFT_NODES}",
                  file=sys.stderr)
            correct = False
        if isinstance(workload, BuildWorkload):
            load_s, save_s, positions = _book_io_seconds(workload.out)
            book_bytes = os.path.getsize(workload.out)
        else:
            load_s = statistics.median(
                t["records"]["book.load_book"][1] / 1e9 for t in layer_runs)
            save_s = 0.0
            positions = props["book_positions"]
            book_bytes = props["book_bytes"]
        metrics.update({
            "book.positions": positions, "book.bytes": book_bytes,
            "book.save_s": save_s, "book.load_s": load_s, "rules.perft_nps": nps,
            "trace.overhead_ratio": statistics.median(traced_walls) / wall_s,
        })
        _report_trace(layer_runs[0], workload.path, workload.focus)
        for name, want in workload.expected_counts().items():
            if metrics[name] != want:
                print(f"{name} = {metrics[name]}, the generated inputs give {want}",
                      file=sys.stderr)
                correct = False

    declared = _declared_units("per_layer" if args.trace else "end_to_end")
    if declared.keys() != metrics.keys():
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(declared.keys() ^ metrics.keys())}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {declared[name]}")
    print(f"error_rate = {error_rate:.6g} ratio ({failed} of {attempted} operations failed)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": declared[name]}
                                  for name, value in metrics.items()}}))
    return 0


def _declared_units(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


if __name__ == "__main__":
    sys.exit(main())
