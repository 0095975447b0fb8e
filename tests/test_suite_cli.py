import hashlib
import os
import random
import re
import stat
import subprocess
import sys

import pytest

from openbook import book as book_mod
from openbook import rules
from openbook.cli import main
from openbook.pgn import GameRecord, MalformedGame, parse_pgn_stream
from openbook.report import parse_comparison_tsv
from openbook.suite import SuiteError, parse_epd_suite


class TestEpdSuite:
    def test_initial_position_with_id(self):
        entries = parse_epd_suite(
            ['rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - id "26";'])
        assert len(entries) == 1
        assert entries[0].position_id == "26"
        assert entries[0].position == rules.initial_position()
        assert entries[0].side_to_move == "w"

    def test_missing_id_auto_assigned(self):
        entries = parse_epd_suite(["4k3/8/8/8/8/8/8/4K3 w - -"])
        assert entries[0].position_id == "pos1"

    def test_other_opcodes_ignored(self):
        entries = parse_epd_suite(
            ['4k3/8/8/8/8/8/8/4K3 w - - bm Kd2; id "x"; c0 "note";'])
        assert entries[0].position_id == "x"

    def test_empty_file_rejected(self):
        with pytest.raises(SuiteError, match="empty"):
            parse_epd_suite([])

    def test_malformed_line_reports_number(self):
        with pytest.raises(SuiteError, match="line 2"):
            parse_epd_suite(["4k3/8/8/8/8/8/8/4K3 w - -", "not a position"])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SuiteError, match="duplicate"):
            parse_epd_suite(['4k3/8/8/8/8/8/8/4K3 w - - id "a";',
                             '4k3/8/8/8/8/8/8/4K3 b - - id "a";'])

    def test_non_utf8_file_rejected(self, tmp_path):
        suite_file = tmp_path / "suite.epd"
        suite_file.write_bytes(b"\xff\xfe4k3/8/8/8/8/8/8/4K3 w - -\n")
        with pytest.raises(SuiteError, match="UTF-8"):
            parse_epd_suite(str(suite_file))

    def test_sample_suite_loads(self, sample_epd_path):
        entries = parse_epd_suite(sample_epd_path)
        assert entries[0].position_id == "26"
        assert len(entries) >= 2


@pytest.fixture()
def built_books(tmp_path, pb_mini_path, comp_mini_path):
    book1 = str(tmp_path / "pb.book")
    book2 = str(tmp_path / "comp.book")
    assert main(["build", "--pgn", pb_mini_path, "--depth", "4",
                 "--out", book1, "--source", "pb-mini"]) == 0
    assert main(["build", "--pgn", comp_mini_path, "--depth", "4",
                 "--out", book2, "--source", "comp-mini"]) == 0
    return book1, book2


class TestCliBuild:
    def test_build_prints_numerics(self, built_books, capsys):
        capsys.readouterr()
        from openbook.book import load_book
        book = load_book(built_books[0])
        assert book.games == 49
        assert book.position_count == 3
        assert book.depth == 4

    def test_unreadable_path_is_data_error(self, tmp_path, capsys):
        code = main(["build", "--pgn", str(tmp_path / "missing.pgn"),
                     "--out", str(tmp_path / "o.book")])
        assert code == 2
        assert "missing.pgn" in capsys.readouterr().err

    def test_empty_pgn_gives_empty_book(self, tmp_path):
        empty = tmp_path / "empty.pgn"
        empty.write_text("")
        out = tmp_path / "o.book"
        assert main(["build", "--pgn", str(empty), "--out", str(out)]) == 0
        from openbook.book import load_book
        assert load_book(str(out)).games == 0

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["build", "--out", "x.book"])  # --pgn missing
        assert err.value.code == 1

    def test_fen_tagged_game_recorded_from_its_position(self, tmp_path, capsys):
        fen = "6k1/5ppp/8/8/8/8/8/R5K1 w - - 0 1"
        pgn = tmp_path / "fen.pgn"
        pgn.write_text(f'[FEN "{fen}"]\n[SetUp "1"]\n[Result "1-0"]\n\n1. Ra8# 1-0\n')
        out = tmp_path / "o.book"
        assert main(["build", "--pgn", str(pgn), "--out", str(out)]) == 0
        assert "skipped" not in capsys.readouterr().err
        from openbook.book import load_book
        book = load_book(str(out))
        assert book.games == 1
        assert list(book.positions) == [rules.position_key(rules.parse_fen(fen))]
        assert list(book.positions[rules.position_key(rules.parse_fen(fen))]) == ["Ra8#"]


    def test_non_ascii_digit_in_fen_tag_skips_only_that_game(self, tmp_path, capsys):
        pgn = tmp_path / "fen.pgn"
        pgn.write_text('[FEN "4k3/8/8/8/8/8/8/4K\u00b21 w - - 0 1"]\n[Result "1-0"]\n\n'
                       '1. Kd2 1-0\n\n[Result "0-1"]\n\n1. e4 0-1\n', encoding="utf-8")
        out = tmp_path / "o.book"
        assert main(["build", "--pgn", str(pgn), "--out", str(out)]) == 0
        assert "skipped game 1: bad FEN tag" in capsys.readouterr().err
        from openbook.book import load_book
        book = load_book(str(out))
        assert book.games == 1
        assert list(book.positions) == [rules.position_key(rules.initial_position())]
        assert main(["query", "--book", str(out), "--fen",
                     "4k3/8/8/8/8/8/8/4K\u00b21 w - - 0 1"]) == 2

    @pytest.mark.parametrize("depth", ["0", "-3", "abc"])
    def test_bad_depth_is_usage_error(self, depth, pb_mini_path, tmp_path, capsys):
        out = tmp_path / "o.book"
        with pytest.raises(SystemExit) as err:
            main(["build", "--pgn", pb_mini_path, "--depth", depth, "--out", str(out)])
        assert err.value.code == 1
        assert "--depth" in capsys.readouterr().err
        assert not out.exists()

    def test_every_parsed_ply_resolved_once(self, tmp_path, monkeypatch, capsys):
        rng = random.Random(3)
        chunks = []
        for index in range(12):
            pos, tokens = rules.initial_position(), []
            for _ in range(rng.randrange(4, 24)):
                moves = rules.legal_moves(pos)
                if not moves:
                    break
                move = rng.choice(moves)
                tokens.append(rules.emit_san(pos, move))
                pos = rules._apply(pos, move)
            if index == 4:
                tokens.insert(3, "Ke5")  # illegal: reported at ply 3
            result = "*" if index == 7 else "1-0"
            elo = 1500 if index == 9 else 2500
            chunks.append(f'[Result "{result}"]\n[WhiteElo "{elo}"]\n[BlackElo "2500"]\n\n'
                          + " ".join(tokens) + " { note ; } " + result + "\n")
        pgn = tmp_path / "games.pgn"
        pgn.write_text("\n".join(chunks))
        parsed = list(parse_pgn_stream(str(pgn)))
        expected = sum(len(g.moves) if isinstance(g, GameRecord) else g.move_index + 1
                       for g in parsed)
        assert sum(isinstance(g, MalformedGame) for g in parsed) == 1

        calls = []
        resolve = rules._resolve
        monkeypatch.setattr(rules, "_resolve", lambda p, text: calls.append(text) or resolve(p, text))
        assert main(["build", "--pgn", str(pgn), "--out", str(tmp_path / "o.book"),
                     "--depth", "6", "--min-rating", "2000"]) == 0
        assert len(calls) == expected
        assert "skipped game 5:" in capsys.readouterr().err

    def test_repeated_pgn_flags_read_every_file(self, tmp_path, pb_mini_path,
                                                comp_mini_path):
        repeated, listed = str(tmp_path / "repeated.book"), str(tmp_path / "listed.book")
        assert main(["build", "--pgn", pb_mini_path, "--pgn", comp_mini_path,
                     "--out", repeated, "--source", "both"]) == 0
        assert main(["build", "--pgn", pb_mini_path, comp_mini_path,
                     "--out", listed, "--source", "both"]) == 0
        with open(repeated, "rb") as fa, open(listed, "rb") as fb:
            assert fa.read() == fb.read()
        from openbook.book import load_book
        parts = [str(tmp_path / "pb.book"), str(tmp_path / "comp.book")]
        for path, out in zip((pb_mini_path, comp_mini_path), parts):
            assert main(["build", "--pgn", path, "--out", out]) == 0
        assert load_book(repeated).games == sum(load_book(out).games for out in parts)

    def test_line_break_in_source_refused(self, tmp_path, pb_mini_path, capsys):
        out = tmp_path / "o.book"
        assert main(["build", "--pgn", pb_mini_path, "--out", str(out),
                     "--source", "a\nb"]) == 2
        assert "line break" in capsys.readouterr().err
        assert not out.exists()


def break_counts_outside(path, suite_keys):
    """Re-checksum the book at ``path`` with one count off in a position not in ``suite_keys``."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")[:-2]
    at = next(i for i, line in enumerate(lines)
              if line.startswith("pos ") and line[4:] not in suite_keys) + 1
    parts = lines[at].split(" ")
    parts[2] = str(int(parts[2]) + 1)
    lines[at] = " ".join(parts)
    body = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(body + f"sha256 {hashlib.sha256(body.encode()).hexdigest()}\n")


class TestCliQuery:
    def test_query_matches_hand_tally(self, built_books, capsys):
        assert main(["query", "--book", built_books[0],
                     "--fen", rules.START_FEN]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "rank\tsan\tgames\tscore%"
        first = lines[1].split("\t")
        assert first[:3] == ["1", "e4", "9"]
        assert len(lines) == 11

    def test_unbooked_position_prints_header_only(self, built_books, capsys):
        assert main(["query", "--book", built_books[0],
                     "--fen", "4k3/8/8/8/8/8/8/4K3 w - - 0 1"]) == 0
        assert capsys.readouterr().out.strip() == "rank\tsan\tgames\tscore%"

    def test_malformed_fen_is_data_error(self, built_books, capsys):
        assert main(["query", "--book", built_books[0], "--fen", "garbage"]) == 2

    def test_epd_input(self, built_books, capsys):
        assert main(["query", "--book", built_books[0],
                     "--epd", 'rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - id "26";']) == 0
        assert "e4" in capsys.readouterr().out

    def test_negative_min_games_is_usage_error(self, built_books, capsys):
        with pytest.raises(SystemExit) as err:
            main(["query", "--book", built_books[0], "--fen", rules.START_FEN,
                  "--min-games", "-1"])
        assert err.value.code == 1
        assert "--min-games" in capsys.readouterr().err

    def test_output_equals_a_full_loads(self, built_books, capsys, monkeypatch):
        """query builds only its one position; what it prints must not change."""
        def run(fen, min_games):
            assert main(["query", "--book", built_books[0], "--fen", fen,
                         "--min-games", min_games]) == 0
            return capsys.readouterr().out

        fens = [key + " 0 1" for key in sorted(book_mod.load_book(built_books[0]).positions)]
        fens.append("4k3/8/8/8/8/8/8/4K3 w - - 0 1")
        cases = [(fen, min_games) for fen in fens for min_games in ("0", "2")]
        viewed = [run(*case) for case in cases]
        full_load = book_mod.load_book
        monkeypatch.setattr(book_mod, "load_book", lambda source, keys=None: full_load(source))
        assert [run(*case) for case in cases] == viewed
        assert viewed[cases.index((rules.START_FEN, "0"))].count("\n") == 11

    def test_bad_count_outside_the_queried_position_is_data_error(self, built_books, capsys):
        start_key = rules.position_key(rules.initial_position())
        break_counts_outside(built_books[0], {start_key})
        assert main(["query", "--book", built_books[0], "--fen", rules.START_FEN]) == 2
        assert "bad counts" in capsys.readouterr().err

    def test_non_utf8_book_is_data_error(self, tmp_path, suite3_path, capsys):
        bad = tmp_path / "bad.book"
        bad.write_bytes(b"openbook-diff v1\nmeta source=\xff games=0 positions=0 depth=4\n")
        assert main(["query", "--book", str(bad), "--fen", rules.START_FEN]) == 2
        assert main(["compare", "--book1", str(bad), "--book2", str(bad),
                     "--suite", suite3_path, "--out", str(tmp_path / "r")]) == 2
        assert "UTF-8" in capsys.readouterr().err


class TestCliCompare:
    def run_compare(self, built_books, suite3_path, tmp_path, extra=()):
        out_dir = str(tmp_path / "report")
        code = main(["compare", "--book1", built_books[0], "--book2", built_books[1],
                     "--suite", suite3_path, "--min-games", "1",
                     "--bootstrap", "1000", "--seed", "5", "--out", out_dir,
                     *extra])
        assert code == 0
        return out_dir

    def test_outputs_written(self, built_books, suite3_path, tmp_path):
        out_dir = self.run_compare(built_books, suite3_path, tmp_path)
        for name in ("comparison.tsv", "expected_score.tsv", "report.md"):
            assert os.path.exists(os.path.join(out_dir, name))

    def test_byte_reproducible(self, built_books, suite3_path, tmp_path):
        first = self.run_compare(built_books, suite3_path, tmp_path / "a")
        second = self.run_compare(built_books, suite3_path, tmp_path / "b")
        for name in ("comparison.tsv", "expected_score.tsv", "report.md"):
            with open(os.path.join(first, name), "rb") as fa, \
                    open(os.path.join(second, name), "rb") as fb:
                assert fa.read() == fb.read()

    def test_self_comparison_rows_and_undefined_correlation(
            self, built_books, suite3_path, tmp_path, capsys):
        out_dir = str(tmp_path / "self")
        assert main(["compare", "--book1", built_books[0], "--book2", built_books[0],
                     "--suite", suite3_path, "--min-games", "1",
                     "--bootstrap", "1000", "--seed", "1", "--out", out_dir]) == 0
        with open(os.path.join(out_dir, "comparison.tsv")) as handle:
            rows, _ = parse_comparison_tsv(handle.read())
        assert all(r.m_measure == 1.0 and r.jsd == 1.0 and r.overlap == 1.0
                   for r in rows)
        with open(os.path.join(out_dir, "comparison.tsv")) as handle:
            text = handle.read()
        assert "pearson_full=undefined" in text

    def test_partially_undefined_row_succeeds(self, built_books, tmp_path):
        suite_file = tmp_path / "suite.epd"
        suite_file.write_text(
            'rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - id "26";\n'
            '4k3/8/8/8/8/8/8/4K3 w - - id "unbooked";\n')
        out_dir = str(tmp_path / "report")
        assert main(["compare", "--book1", built_books[0], "--book2", built_books[1],
                     "--suite", str(suite_file), "--min-games", "1",
                     "--bootstrap", "1000", "--seed", "1", "--out", out_dir]) == 0
        with open(os.path.join(out_dir, "comparison.tsv")) as handle:
            rows, metadata = parse_comparison_tsv(handle.read())
        unbooked = [r for r in rows if r.position_id == "unbooked"][0]
        assert unbooked.m_measure is None and unbooked.jsd is None
        assert metadata["undefined_cells"] != "0"

    @pytest.mark.parametrize("precision", ["abc", "-1", "2.5"])
    def test_bad_precision_is_usage_error(self, precision, built_books, suite3_path,
                                          tmp_path, capsys):
        out_dir = tmp_path / "report"
        with pytest.raises(SystemExit) as err:
            self.run_compare(built_books, suite3_path, tmp_path,
                             extra=("--precision", precision))
        assert err.value.code == 1
        assert "--precision" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag, value", [("--min-games", "-5"), ("--bootstrap", "0"),
                                             ("--bootstrap", "-3")])
    def test_count_below_its_bound_is_usage_error(self, flag, value, built_books,
                                                   suite3_path, tmp_path, capsys):
        out_dir = tmp_path / "report"
        with pytest.raises(SystemExit) as err:
            self.run_compare(built_books, suite3_path, tmp_path, extra=(flag, value))
        assert err.value.code == 1
        assert flag in capsys.readouterr().err
        assert not out_dir.exists()

    def test_undefined_ci_line_gives_its_reason(self, built_books, suite3_path, tmp_path):
        out_dir = self.run_compare(built_books, suite3_path, tmp_path,
                                   extra=("--bootstrap", "5"))
        with open(os.path.join(out_dir, "comparison.tsv")) as handle:
            lines = [line for line in handle if line.startswith("# pearson_full=")]
        assert len(lines) == 1
        assert re.fullmatch(r"# pearson_full=-?[0-9.]+ n=3 "
                            r"note=need at least 1000 resamples, got 5\n", lines[0])

    def test_non_utf8_suite_is_data_error(self, built_books, tmp_path, capsys):
        suite_file = tmp_path / "suite.epd"
        suite_file.write_bytes(b"\xff\xfe4k3/8/8/8/8/8/8/4K3 w - -\n")
        assert main(["compare", "--book1", built_books[0], "--book2", built_books[1],
                     "--suite", str(suite_file), "--out", str(tmp_path / "r")]) == 2
        assert "bad suite" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_defect_outside_the_suite_is_data_error(self, built_books, tmp_path, capsys):
        suite = tmp_path / "start.epd"
        suite.write_text(" ".join(rules.START_FEN.split()[:4]) + ' id "start";\n')
        break_counts_outside(built_books[0], {rules.position_key(rules.initial_position())})
        assert main(["compare", "--book1", built_books[0], "--book2", built_books[1],
                     "--suite", str(suite), "--min-games", "1", "--bootstrap", "1000",
                     "--out", str(tmp_path / "r")]) == 2
        assert "bad book file" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_bad_suite_reported_before_bad_books(self, tmp_path, capsys):
        bad_book = tmp_path / "bad.book"
        bad_book.write_text("not a book\n")
        bad_suite = tmp_path / "bad.epd"
        bad_suite.write_text("garbage\n")
        assert main(["compare", "--book1", str(bad_book), "--book2", str(bad_book),
                     "--suite", str(bad_suite), "--out", str(tmp_path / "r")]) == 2
        assert "bad suite" in capsys.readouterr().err

    def test_unknown_exclude_id_is_data_error(self, built_books, suite3_path, tmp_path,
                                              capsys):
        out_dir = tmp_path / "report"
        assert main(["compare", "--book1", built_books[0], "--book2", built_books[1],
                     "--suite", suite3_path, "--min-games", "1", "--bootstrap", "1000",
                     "--exclude", "nosuch,26,alsonot", "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == (f"openbook: --exclude names no position of suite "
                                           f"{suite3_path}: nosuch, alsonot\n")
        assert not out_dir.exists()

    def test_exclude_id_drops_its_row_from_the_second_pass(self, built_books, suite3_path,
                                                           tmp_path):
        out_dir = self.run_compare(built_books, suite3_path, tmp_path,
                                   extra=("--exclude", "26"))
        with open(os.path.join(out_dir, "comparison.tsv")) as handle:
            lines = handle.read().splitlines()
        assert "# exclude=26" in lines
        assert [line.split()[2] for line in lines if line.startswith("# pearson_")] == [
            "n=3", "n=2"]

    def test_tsv_self_consistency_round_trip(self, built_books, suite3_path, tmp_path):
        out_dir = self.run_compare(built_books, suite3_path, tmp_path,
                                   extra=("--precision", "full"))
        with open(os.path.join(out_dir, "comparison.tsv")) as handle:
            text = handle.read()
        rows, metadata = parse_comparison_tsv(text)
        from openbook.stats import summarize
        summary = summarize(rows)
        avg_line = [l for l in text.splitlines() if l.startswith("Avg")][0]
        cells = avg_line.split("\t")[1:]
        for cell, column in zip(cells, ("m_measure", "max_m", "jsd", "overlap")):
            assert float(cell) == pytest.approx(summary[column][0], abs=1e-12)


class TestCliPlot:
    def test_plot_from_report(self, built_books, suite3_path, tmp_path, capsys):
        out_dir = str(tmp_path / "report")
        main(["compare", "--book1", built_books[0], "--book2", built_books[1],
              "--suite", suite3_path, "--min-games", "1", "--bootstrap", "1000",
              "--seed", "1", "--out", out_dir])
        svg_path = str(tmp_path / "scatter.svg")
        assert main(["plot", "--report", os.path.join(out_dir, "comparison.tsv"),
                     "--out", svg_path, "--mark", "26"]) == 0
        with open(svg_path) as handle:
            svg = handle.read()
        assert svg.startswith("<svg")
        assert svg.count("<circle") == 3
        assert 'fill="red"' in svg  # marked point

    def test_unknown_mark_id_is_data_error(self, built_books, suite3_path, tmp_path, capsys):
        out_dir = str(tmp_path / "report")
        assert main(["compare", "--book1", built_books[0], "--book2", built_books[1],
                     "--suite", suite3_path, "--min-games", "1", "--bootstrap", "1000",
                     "--out", out_dir]) == 0
        svg_path = tmp_path / "scatter.svg"
        assert main(["plot", "--report", os.path.join(out_dir, "comparison.tsv"),
                     "--out", str(svg_path), "--mark", "26,nosuch"]) == 2
        assert capsys.readouterr().err.endswith(": nosuch\n")
        assert not svg_path.exists()

    def test_plot_without_defined_pairs_is_data_error(self, tmp_path, capsys):
        report_path = tmp_path / "empty.tsv"
        report_path.write_text("pos\tm_measure\tmax_m\tjsd\toverlap\n"
                               "x\tundefined\tundefined\tundefined\tundefined\n")
        assert main(["plot", "--report", str(report_path),
                     "--out", str(tmp_path / "o.svg")]) == 2


def test_outputs_get_the_mode_of_the_umask(pb_mini_path, comp_mini_path, suite3_path,
                                           tmp_path):
    books = [str(tmp_path / "pb.book"), str(tmp_path / "comp.book")]
    report, svg = str(tmp_path / "report"), str(tmp_path / "scatter.svg")
    old = os.umask(0o022)
    try:
        for pgn, book in zip((pb_mini_path, comp_mini_path), books):
            assert main(["build", "--pgn", pgn, "--depth", "4", "--out", book]) == 0
        assert main(["compare", "--book1", books[0], "--book2", books[1],
                     "--suite", suite3_path, "--min-games", "1", "--bootstrap", "100",
                     "--out", report]) == 0
        assert main(["plot", "--report", os.path.join(report, "comparison.tsv"),
                     "--out", svg]) == 0
    finally:
        os.umask(old)
    for path in books + [os.path.join(report, "report.md"), svg]:
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o644, path


def run_fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports ``src``."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


# the modules perfbench/tracer.py patches after importing openbook.cli alone
TRACED_LAYERS = ("pgn", "rules", "book", "suite", "measures", "stats", "report", "cli")


def test_cli_import_leaves_numpy_unloaded():
    """``build`` never needs numpy, and no command needs dataclasses or
    fractions; the CLI's import still loads every layer module."""
    out = run_fresh("import sys, openbook.cli\n"
                    "print(*[m for m in ('dataclasses', 'fractions', 'numpy') if m in sys.modules])\n"
                    f"print(*[n for n in {TRACED_LAYERS!r} if 'openbook.' + n not in sys.modules])")
    assert out == "\n\n"


def test_compare_leaves_numpy_ma_unloaded(built_books, suite3_path, tmp_path):
    """np.quantile imports numpy.ma on its first call; the bootstrap's CI does not."""
    argv = ["compare", "--book1", built_books[0], "--book2", built_books[1],
            "--suite", suite3_path, "--min-games", "1", "--bootstrap", "1000",
            "--out", str(tmp_path / "report")]
    out = run_fresh("import sys\nfrom openbook.cli import main\n"
                    f"code = main({argv!r})\n"
                    "print(code, 'numpy' in sys.modules, 'numpy.ma' in sys.modules)")
    assert out.split()[-3:] == ["0", "True", "False"]
