import codecs
import errno
import hashlib
import os
import random
import re
import shutil
import stat
import subprocess
import sys
import tempfile
import xml.dom.minidom

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempfiles import written
import openbook
from openbook import book as book_mod
from openbook import rules
from openbook.cli import main
from openbook.measures import ComparisonRow
from openbook.pgn import GameRecord, MalformedGame, parse_pgn_stream
from openbook.report import parse_comparison_tsv
from openbook.suite import SuiteError, parse_epd_suite

# a sign, a space, a digit separator and Arabic-Indic digits: int() reads
# each as 1000
INT_LOOKALIKES = ["+1000", " 1000", "1_000", "\u0661\u0660\u0660\u0660"]


class TestEpdSuite:
    def test_initial_position_with_id(self):
        entries = parse_epd_suite(
            written('rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - id "26";\n'))
        assert len(entries) == 1
        assert entries[0].position_id == "26"
        assert entries[0].key == rules.position_key(rules.initial_position())
        assert entries[0].side_to_move == "w"

    def test_missing_id_auto_assigned(self):
        entries = parse_epd_suite(written("4k3/8/8/8/8/8/8/4K3 w - -\n"))
        assert entries[0].position_id == "pos1"

    def test_other_opcodes_ignored(self):
        entries = parse_epd_suite(
            written('4k3/8/8/8/8/8/8/4K3 w - - bm Kd2; id "x"; c0 "note";\n'))
        assert entries[0].position_id == "x"

    def test_empty_file_rejected(self):
        with pytest.raises(SuiteError, match="empty"):
            parse_epd_suite(written(""))

    def test_malformed_line_reports_number(self):
        with pytest.raises(SuiteError, match="line 2"):
            parse_epd_suite(written("4k3/8/8/8/8/8/8/4K3 w - -\nnot a position\n"))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SuiteError, match="duplicate"):
            parse_epd_suite(written('4k3/8/8/8/8/8/8/4K3 w - - id "a";\n'
                                    '4k3/8/8/8/8/8/8/4K3 b - - id "a";\n'))

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
        assert f"skipped game 1: {pgn}: bad FEN tag" in capsys.readouterr().err
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

    def test_skip_lines_name_the_failing_position_exactly(self, tmp_path, capsys):
        # each game fails right after: a castle; a piece capture; a double
        # push whose ep square is capturable; one whose ep square is not; a
        # capturing promotion; in FEN-tagged games, a double push whose ep
        # capture would expose the king, and an under-promotion after castling
        games = [
            ("1-0", "", "1. e4 e5 2. Nf3 Nc6 3. Bc4 Bc5 4. O-O Nf6 5. Re1 O-O 6. Kd1"),
            ("1-0", "", "1. e4 e5 2. Nf3 Nc6 3. d4 exd4 4. Nxd4 Kd7"),
            ("1-0", "", "1. e4 Nf6 2. e5 d5 3. Ke3"),
            ("1-0", "", "1. Nf3 Nf6 2. e4 Ke5"),
            ("1-0", "", "1. e4 d5 2. exd5 c6 3. dxc6 Nf6 4. cxb7 Bd7 5. bxa8=Q Ke7"),
            ("0-1", "8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 b - - 3 41", "41... c5 42. Kd3"),
            ("0-1", "r3k2r/1P6/8/8/8/8/6p1/R3K2R b KQkq - 7 30",
             "30... gxh1=Q+ 31. Kd2 O-O 32. bxa8=N Ke2"),
        ]
        pgn = tmp_path / "skips.pgn"
        pgn.write_text("\n".join(
            f'[Result "{result}"]\n' + (f'[SetUp "1"]\n[FEN "{fen}"]\n' if fen else "")
            + f"\n{moves} {result}\n" for result, fen, moves in games))
        assert main(["build", "--pgn", str(pgn), "--out", str(tmp_path / "o.book")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"skipped game 1: {pgn}: illegal SAN 'Kd1' in "
            "r1bq1rk1/pppp1ppp/2n2n2/2b1p3/2B1P3/5N2/PPPP1PPP/RNBQR1K1 w - - 8 6",
            f"skipped game 2: {pgn}: illegal SAN 'Kd7' in "
            "r1bqkbnr/pppp1ppp/2n5/8/3NP3/8/PPP2PPP/RNBQKB1R b KQkq - 0 4",
            f"skipped game 3: {pgn}: illegal SAN 'Ke3' in "
            "rnbqkb1r/ppp1pppp/5n2/3pP3/8/8/PPPP1PPP/RNBQKBNR w KQkq d6 0 3",
            f"skipped game 4: {pgn}: illegal SAN 'Ke5' in "
            "rnbqkb1r/pppppppp/5n2/8/4P3/5N2/PPPP1PPP/RNBQKB1R b KQkq - 0 2",
            f"skipped game 5: {pgn}: illegal SAN 'Ke7' in "
            "Qn1qkb1r/p2bpppp/5n2/8/8/8/PPPP1PPP/RNBQKBNR b KQk - 0 5",
            f"skipped game 6: {pgn}: illegal SAN 'Kd3' in "
            "8/8/3p4/KPp4r/1R3p1k/8/4P1P1/8 w - - 0 42",
            f"skipped game 7: {pgn}: illegal SAN 'Ke2' in "
            "N4rk1/8/8/8/8/8/3K4/R6q b - - 0 32",
        ]

    @pytest.mark.parametrize("value", INT_LOOKALIKES)
    @pytest.mark.parametrize("flag", ["--depth", "--min-rating"])
    def test_integer_option_needs_ascii_digits(self, flag, value, pb_mini_path, tmp_path,
                                               capsys):
        out = tmp_path / "o.book"
        with pytest.raises(SystemExit) as err:
            main(["build", "--pgn", pb_mini_path, flag, value, "--out", str(out)])
        assert err.value.code == 1
        assert flag in capsys.readouterr().err
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
        parsed = list(parse_pgn_stream(str(pgn), 0))
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

    def test_skip_line_names_the_file_of_its_game(self, tmp_path, pb_mini_path, capsys):
        broken = tmp_path / "broken.pgn"
        broken.write_text('[Result "1-0"]\n\n1. e4 Ke3 1-0\n')
        assert main(["build", "--pgn", pb_mini_path, str(broken),
                     "--out", str(tmp_path / "o.book")]) == 0
        assert capsys.readouterr().err == (
            f"skipped game 1: {broken}: illegal SAN 'Ke3' in "
            "rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq - 0 1\n")

    def test_byte_order_mark_changes_no_book_or_skip_line(self, tmp_path, pb_mini_path,
                                                          monkeypatch, capsys):
        """A UTF-8 byte-order mark before the first tag, which Windows tools
        write, starts no phantom game, moves no game number and loses no
        tag: a first game whose first tag is WhiteElo still passes
        --min-rating."""
        with open(pb_mini_path, "rb") as handle:
            data = (b'[WhiteElo "2500"]\n[BlackElo "2500"]\n[Result "1-0"]\n\n1. e4 e5 1-0\n\n'
                    b'[Result "1-0"]\n\n1. e4 Ke3 1-0\n\n' + handle.read())
        outputs = []
        for name, prefix in (("plain", b""), ("bom", codecs.BOM_UTF8)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "games.pgn").write_bytes(prefix + data)
            monkeypatch.chdir(tmp_path / name)
            assert main(["build", "--pgn", "games.pgn", "--out", "games.book",
                         "--depth", "4", "--min-rating", "2000"]) == 0
            outputs.append((capsys.readouterr(), (tmp_path / name / "games.book").read_bytes()))
        assert outputs[1] == outputs[0]
        assert outputs[0][0].err == (
            "skipped game 2: games.pgn: illegal SAN 'Ke3' in "
            "rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq - 0 1\n")
        assert "\ngames=1 " in outputs[0][0].out

    def test_lf_crlf_and_cr_line_ends_build_the_same_book(self, tmp_path, pb_mini_path,
                                                          monkeypatch, capsys):
        """A PGN file's lines may end in LF, CRLF or a lone CR, which old Mac
        tools write: each copy builds the same book, with the same output."""
        with open(pb_mini_path, "rb") as handle:
            data = handle.read()
        outputs = []
        for name, line_end in (("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")):
            (tmp_path / name).mkdir()
            (tmp_path / name / "games.pgn").write_bytes(data.replace(b"\n", line_end))
            monkeypatch.chdir(tmp_path / name)
            assert main(["build", "--pgn", "games.pgn", "--out", "games.book",
                         "--depth", "4"]) == 0
            outputs.append((capsys.readouterr(), (tmp_path / name / "games.book").read_bytes()))
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]
        assert "\ngames=49 positions=3 " in outputs[0][0].out

    def test_unwritable_out_names_the_path_asked_for(self, tmp_path, pb_mini_path, capsys):
        out = tmp_path / "missing" / "o.book"
        assert main(["build", "--pgn", pb_mini_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"openbook: cannot write {out}: ")
        assert ".openbook-" not in err
        assert os.listdir(tmp_path) == []

    def test_repeated_pgn_flags_read_every_file(self, tmp_path, pb_mini_path,
                                                comp_mini_path):
        repeated, listed = str(tmp_path / "repeated.book"), str(tmp_path / "listed.book")
        assert main(["build", "--pgn", pb_mini_path, "--pgn", comp_mini_path,
                     "--out", repeated]) == 0
        assert main(["build", "--pgn", pb_mini_path, comp_mini_path, "--out", listed]) == 0
        with open(repeated, "rb") as fa, open(listed, "rb") as fb:
            assert fa.read() == fb.read()
        from openbook.book import load_book
        # the source names every file read, in order
        assert load_book(repeated).source == "pb_mini.pgn+comp_mini.pgn"
        parts = [str(tmp_path / "pb.book"), str(tmp_path / "comp.book")]
        for path, out in zip((pb_mini_path, comp_mini_path), parts):
            assert main(["build", "--pgn", path, "--out", out]) == 0
        assert load_book(repeated).games == sum(load_book(out).games for out in parts)

    def test_source_names_every_file_read(self, tmp_path, pb_mini_path, capsys):
        # two files with one base name: the source names both
        for folder in ("x", "y"):
            (tmp_path / folder).mkdir()
            shutil.copy(pb_mini_path, tmp_path / folder / "a.pgn")
        out = str(tmp_path / "o.book")
        assert main(["build", "--pgn", str(tmp_path / "x" / "a.pgn"),
                     "--pgn", str(tmp_path / "y" / "a.pgn"), "--out", out]) == 0
        from openbook.book import load_book
        book = load_book(out)
        assert book.source == "a.pgn+a.pgn"
        assert book.games == 2 * 49

    def test_unreadable_pgn_is_data_error_naming_it(self, tmp_path, pb_mini_path,
                                                    monkeypatch, capsys):
        # a directory exists but cannot be read as a PGN file; the file
        # before it is parsed, yet no book is written
        monkeypatch.chdir(tmp_path)
        os.mkdir("adir")
        assert main(["build", "--pgn", pb_mini_path, "adir", "--out", "o.book"]) == 2
        assert capsys.readouterr() == ("", "openbook: cannot read PGN adir: Is a directory\n")
        assert os.listdir() == ["adir"]

    def test_missing_later_pgn_is_data_error_before_any_parse(self, tmp_path, pb_mini_path,
                                                              monkeypatch, capsys):
        parsed = []
        from openbook import cli
        stream = cli.parse_pgn_stream
        monkeypatch.setattr(cli, "parse_pgn_stream",
                            lambda path: parsed.append(path) or stream(path))
        out = tmp_path / "o.book"
        code = main(["build", "--pgn", pb_mini_path, "--pgn", str(tmp_path / "missing.pgn"),
                     "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "missing.pgn" in captured.err
        assert parsed == []
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--require-result", "--no-require-result"])
    def test_require_result_option_is_gone(self, flag, tmp_path, pb_mini_path, capsys):
        out = tmp_path / "o.book"
        with pytest.raises(SystemExit) as err:
            main(["build", "--pgn", pb_mini_path, flag, "--out", str(out)])
        assert err.value.code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_line_break_in_source_refused(self, tmp_path, pb_mini_path, capsys):
        out = tmp_path / "o.book"
        # every character that str.splitlines breaks on, which a reader of the
        # report would take for the end of its line
        for source in ["a\nb", "a\rb", "a\r\nb", "a\vb", "a\fb", "a\x1cb", "a\x1db",
                       "a\x1eb", "a\x85b", "a\u2028b", "a\u2029b", "a\n"]:
            assert main(["build", "--pgn", pb_mini_path, "--out", str(out),
                         "--source", source]) == 2
            assert capsys.readouterr() == (
                "", f"openbook: cannot write book {out}: source {source!r} contains a line "
                    "break\n")
            assert os.listdir(tmp_path) == []

    def test_book_with_line_break_in_source_is_data_error(self, tmp_path, pb_mini_path,
                                                          capsys):
        good = str(tmp_path / "good.book")
        assert main(["build", "--pgn", pb_mini_path, "--out", good, "--source", "ab"]) == 0
        with open(good, encoding="utf-8", newline="") as handle:
            body = handle.read().rsplit("sha256 ", 1)[0].replace("source=ab ", "source=a\rb ")
        bad = tmp_path / "bad.book"
        bad.write_bytes(f"{body}sha256 {hashlib.sha256(body.encode()).hexdigest()}\n".encode())
        capsys.readouterr()
        assert main(["query", "--book", str(bad), "--fen", rules.START_FEN]) == 2
        assert capsys.readouterr().err == (
            f"openbook: bad book file {bad}: line 2: source 'a\\rb' contains a line break\n")


# each character that str.splitlines breaks on, and text around it that a
# report or a book meta line must keep: tab, "=", space and non-ASCII
SOURCE_PIECES = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                 "\u2028", "\u2029", "\t", "=", " ", "a", "\u00e9", "\u4e2d"]


@given(st.lists(st.sampled_from(SOURCE_PIECES), min_size=1, max_size=4).map("".join))
@example("x\ry")
@example("a\t= \u00e9")
@example("a ")  # a note's value keeps its trailing space
@settings(max_examples=40, deadline=None)
def test_a_source_build_writes_is_read_back_by_plot(pb_mini_path, suite3_path, source):
    with tempfile.TemporaryDirectory() as work:
        book = os.path.join(work, "pb.book")
        code = main(["build", "--pgn", pb_mini_path, "--depth", "4",
                     "--out", book, "--source", source])
        if code != 0:
            assert code == 2
            assert os.listdir(work) == []
            return
        report_dir = os.path.join(work, "report")
        assert main(["compare", "--book1", book, "--book2", book,
                     "--suite", suite3_path, "--min-games", "1",
                     "--bootstrap", "1000", "--out", report_dir]) == 0
        tsv = os.path.join(report_dir, "comparison.tsv")
        assert main(["plot", "--report", tsv, "--out", os.path.join(work, "s.svg")]) == 0
        rows = parse_comparison_tsv(tsv)
        assert [row.position_id for row in rows] == ["26", "after-e4", "after-d4"]
        with open(tsv, encoding="utf-8", newline="") as handle:
            assert f"# book1={source}\n" in handle.read()


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

    # query writes no report, so an id that a report could not hold is no error
    @pytest.mark.parametrize("opcodes", ['id "Avg";', 'id "#x";', "bm e4; id y;", ""])
    def test_epd_opcodes_are_ignored(self, opcodes, built_books, capsys):
        assert main(["query", "--book", built_books[0], "--fen", rules.START_FEN]) == 0
        expected = capsys.readouterr()
        assert main(["query", "--book", built_books[0],
                     "--epd", f"{rules.START_FEN.rsplit(' ', 2)[0]} {opcodes}"]) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("epd", ["rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq", ""])
    def test_short_epd_is_data_error_naming_the_fen_fields(self, epd, built_books, capsys):
        assert main(["query", "--book", built_books[0], "--epd", epd]) == 2
        assert capsys.readouterr() == (
            "", f"openbook: expected 4 or 6 fields, got {len(epd.split())}: {epd!r}\n")

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
        monkeypatch.setattr(book_mod, "load_book", lambda path, keys=None: full_load(path))
        assert [run(*case) for case in cases] == viewed
        assert viewed[cases.index((rules.START_FEN, "0"))].count("\n") == 11

    def test_min_games_keeps_the_top_ranks(self, tmp_path, pb_mini_path, capsys):
        book = str(tmp_path / "pb40.book")
        assert main(["build", "--pgn", pb_mini_path, "--depth", "40", "--out", book]) == 0
        capsys.readouterr()
        assert main(["query", "--book", book, "--fen", rules.START_FEN,
                     "--min-games", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rank\tsan\tgames\tscore%"
        assert [line.split("\t")[:3] for line in lines[1:]] == [
            ["1", "e4", "9"], ["2", "d4", "8"], ["3", "Nf3", "5"], ["4", "c4", "5"],
            ["5", "g3", "5"]]

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

    def test_unwritable_report_names_the_path_asked_for(self, built_books, suite3_path,
                                                        tmp_path, capsys):
        # a directory where comparison.tsv goes, found before any temp file
        # is renamed into place
        out_dir = tmp_path / "report"
        (out_dir / "comparison.tsv").mkdir(parents=True)
        assert main(["compare", "--book1", built_books[0], "--book2", built_books[1],
                     "--suite", suite3_path, "--min-games", "1", "--bootstrap", "1000",
                     "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"openbook: cannot write {out_dir / 'comparison.tsv'}: ")
        assert ".openbook-" not in err
        assert os.listdir(out_dir) == ["comparison.tsv"]

    def rerun_over_a_report(self, built_books, suite3_path, tmp_path, capsys, spoil):
        """Write a report with --seed 5, call ``spoil(out_dir)``, rerun with
        --seed 6 into the same directory, and return the rerun's stderr after
        checking that it failed and left every file of the first run as it was."""
        out_dir = self.run_compare(built_books, suite3_path, tmp_path)
        names = ("comparison.tsv", "expected_score.tsv")
        before = {name: (tmp_path / "report" / name).read_bytes() for name in names}
        spoil(out_dir)
        capsys.readouterr()
        assert main(["compare", "--book1", built_books[0], "--book2", built_books[1],
                     "--suite", suite3_path, "--min-games", "1", "--bootstrap", "1000",
                     "--seed", "6", "--out", out_dir]) == 2
        for name in names:
            assert (tmp_path / "report" / name).read_bytes() == before[name], name
        assert sorted(os.listdir(out_dir)) == ["comparison.tsv", "expected_score.tsv",
                                               "report.md"]
        # the seed is in the metadata, so the rerun would have changed both
        self.run_compare(built_books, suite3_path, tmp_path / "fresh", ["--seed", "6"])
        for name in names:
            assert (tmp_path / "fresh" / "report" / name).read_bytes() != before[name], name
        return capsys.readouterr().err

    def test_report_md_a_directory_replaces_no_file(self, built_books, suite3_path,
                                                    tmp_path, capsys):
        def spoil(out_dir):
            os.remove(os.path.join(out_dir, "report.md"))
            os.mkdir(os.path.join(out_dir, "report.md"))
        err = self.rerun_over_a_report(built_books, suite3_path, tmp_path, capsys, spoil)
        report_md = os.path.join(str(tmp_path / "report"), "report.md")
        assert err == f"openbook: cannot write {report_md}: Is a directory\n"

    def test_failed_third_temp_write_replaces_no_file(self, built_books, suite3_path,
                                                      tmp_path, capsys, monkeypatch):
        class FullDisk:
            """A text handle whose writes fail as on a full disk."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def spoil(out_dir):
            real_fdopen, opened = os.fdopen, []

            def fdopen(fd, *args, **kwargs):
                opened.append(fd)
                handle = real_fdopen(fd, *args, **kwargs)
                return FullDisk(handle) if len(opened) == 3 else handle
            monkeypatch.setattr(book_mod.os, "fdopen", fdopen)
        err = self.rerun_over_a_report(built_books, suite3_path, tmp_path, capsys, spoil)
        report_md = os.path.join(str(tmp_path / "report"), "report.md")
        assert err == f"openbook: cannot write {report_md}: {os.strerror(errno.ENOSPC)}\n"

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
        rows = parse_comparison_tsv(os.path.join(out_dir, "comparison.tsv"))
        assert all(r.m_measure == 1.0 and r.jsd == 1.0 and r.overlap == 1.0
                   for r in rows)
        with open(os.path.join(out_dir, "comparison.tsv")) as handle:
            text = handle.read()
        assert "pearson_full=undefined" in text

    def test_partially_undefined_row_succeeds(self, built_books, tmp_path, capsys):
        suite_file = tmp_path / "suite.epd"
        suite_file.write_text(
            'rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - id "26";\n'
            '4k3/8/8/8/8/8/8/4K3 w - - id "unbooked";\n')
        out_dir = str(tmp_path / "report")
        assert main(["compare", "--book1", built_books[0], "--book2", built_books[1],
                     "--suite", str(suite_file), "--min-games", "1",
                     "--bootstrap", "1000", "--seed", "1", "--out", out_dir]) == 0
        tsv = os.path.join(out_dir, "comparison.tsv")
        rows = parse_comparison_tsv(tsv)
        unbooked = [r for r in rows if r.position_id == "unbooked"][0]
        assert unbooked.m_measure is None and unbooked.jsd is None
        with open(tsv, encoding="utf-8", newline="") as handle:
            assert "# undefined_cells=4\n" in handle.read()
        assert capsys.readouterr().out == f"report written to {out_dir}\nundefined cells: 4\n"

    def test_fully_defined_run_prints_only_where_it_wrote(self, built_books, suite3_path,
                                                          tmp_path, capsys):
        out_dir = self.run_compare(built_books, suite3_path, tmp_path)
        with open(os.path.join(out_dir, "comparison.tsv"), encoding="utf-8") as handle:
            assert "# undefined_cells=0\n" in handle.read()
        assert capsys.readouterr().out == f"report written to {out_dir}\n"

    # past 17 places a double prints only noise; a huge value broke the formatter
    @pytest.mark.parametrize("precision", ["abc", "-1", "2.5", "+3", "\u0663", "18",
                                           "99999999999"])
    def test_bad_precision_is_usage_error(self, precision, built_books, suite3_path,
                                          tmp_path, capsys):
        out_dir = tmp_path / "report"
        with pytest.raises(SystemExit) as err:
            self.run_compare(built_books, suite3_path, tmp_path,
                             extra=("--precision", precision))
        assert err.value.code == 1
        assert "--precision" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("precision", ["0", "17"])
    def test_precision_bounds_are_accepted(self, precision, built_books, suite3_path,
                                           tmp_path):
        out_dir = self.run_compare(built_books, suite3_path, tmp_path,
                                   extra=("--precision", precision))
        with open(os.path.join(out_dir, "comparison.tsv")) as handle:
            avg = [line for line in handle if line.startswith("Avg\t")][0]
        assert len(avg.split("\t")[1].strip().partition(".")[2]) == int(precision)

    # plot and report.md would lose a row with such an id: a "#" line is a
    # note, and Avg and Std are the summary rows
    @pytest.mark.parametrize("position_id, reads_as", [("#1", "note"), ("Avg", "summary row"),
                                                        ("Std", "summary row")])
    def test_id_the_report_cannot_hold_is_data_error(self, position_id, reads_as, built_books,
                                                     tmp_path, capsys):
        suite = tmp_path / "suite.epd"
        suite.write_text(f'{rules.START_FEN[:-4]} id "plain";\n'
                         f'{rules.START_FEN[:-4]} id "{position_id}";\n')
        out_dir = tmp_path / "report"
        assert main(["compare", "--book1", built_books[0], "--book2", built_books[1],
                     "--suite", str(suite), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == (f"openbook: bad suite file {suite}: line 2: id "
                                           f"{position_id!r} would read as a report "
                                           f"{reads_as}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag, value", [("--min-games", "-5"), ("--bootstrap", "0"),
                                             ("--bootstrap", "-3"), ("--seed", "-1")])
    def test_count_below_its_bound_is_usage_error(self, flag, value, built_books,
                                                   suite3_path, tmp_path, capsys):
        out_dir = tmp_path / "report"
        with pytest.raises(SystemExit) as err:
            self.run_compare(built_books, suite3_path, tmp_path, extra=(flag, value))
        assert err.value.code == 1
        assert flag in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", INT_LOOKALIKES)
    @pytest.mark.parametrize("flag", ["--min-games", "--bootstrap", "--seed"])
    def test_integer_option_needs_ascii_digits(self, flag, value, built_books, suite3_path,
                                               tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            self.run_compare(built_books, suite3_path, tmp_path, extra=(flag, value))
        assert err.value.code == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    def test_out_naming_a_file_is_data_error(self, built_books, suite3_path, tmp_path,
                                             monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with open("afile", "w") as handle:
            handle.write("kept\n")
        before = sorted(os.listdir())
        capsys.readouterr()
        assert main(["compare", "--book1", built_books[0], "--book2", built_books[1],
                     "--suite", suite3_path, "--min-games", "1", "--bootstrap", "1000",
                     "--out", "afile"]) == 2
        assert capsys.readouterr() == ("", "openbook: cannot write afile: File exists\n")
        assert sorted(os.listdir()) == before
        with open("afile") as handle:
            assert handle.read() == "kept\n"

    def test_undefined_ci_line_gives_its_reason(self, built_books, suite3_path, tmp_path):
        out_dir = self.run_compare(built_books, suite3_path, tmp_path,
                                   extra=("--bootstrap", "5"))
        with open(os.path.join(out_dir, "comparison.tsv")) as handle:
            lines = [line for line in handle if line.startswith("# pearson_full=")]
        assert len(lines) == 1
        assert re.fullmatch(r"# pearson_full=-?[0-9.]+ n=3 "
                            r"note=need at least 1000 resamples, got 5\n", lines[0])

    def test_byte_order_mark_before_the_suite_changes_no_report(self, built_books,
                                                                suite3_path, tmp_path):
        bom_suite = tmp_path / "bom.epd"
        with open(suite3_path, "rb") as handle:
            bom_suite.write_bytes(codecs.BOM_UTF8 + handle.read())
        plain = self.run_compare(built_books, suite3_path, tmp_path / "plain")
        bom = self.run_compare(built_books, str(bom_suite), tmp_path / "bom")
        for name in ("comparison.tsv", "expected_score.tsv", "report.md"):
            with open(os.path.join(plain, name), "rb") as fa, \
                    open(os.path.join(bom, name), "rb") as fb:
                assert fb.read() == fa.read()

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
        tsv = os.path.join(out_dir, "comparison.tsv")
        with open(tsv) as handle:
            text = handle.read()
        rows = parse_comparison_tsv(tsv)
        from openbook.stats import summarize
        summary = summarize(rows, ComparisonRow._fields[1:])
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

    def test_unwritable_out_names_the_path_asked_for(self, tmp_path, capsys):
        report_path = tmp_path / "report.tsv"
        report_path.write_text("pos\tm_measure\tmax_m\tjsd\toverlap\n"
                               "a\t0.5\t1\t0.25\t1\nb\t0.75\t1\t0.5\t1\n")
        out = tmp_path / "missing" / "o.svg"
        assert main(["plot", "--report", str(report_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"openbook: cannot write {out}: ")
        assert ".openbook-" not in err
        assert os.listdir(tmp_path) == ["report.tsv"]

    def test_mark_on_row_without_defined_pair_is_data_error(self, tmp_path, capsys):
        report_path = tmp_path / "partial.tsv"
        report_path.write_text("pos\tm_measure\tmax_m\tjsd\toverlap\n"
                               "a\t0.5\t1.0\t0.5\t1\n"
                               "b\t0.5\t1.0\tundefined\t1\n")
        svg_path = tmp_path / "o.svg"
        assert main(["plot", "--report", str(report_path), "--out", str(svg_path),
                     "--mark", "a,b"]) == 2
        assert capsys.readouterr().err.endswith(": b\n")
        assert not svg_path.exists()
        assert main(["plot", "--report", str(report_path), "--out", str(svg_path),
                     "--mark", "a"]) == 0
        assert svg_path.read_text().count('fill="red"') == 2  # the point and the arrow head

    def test_ids_with_markup_characters_stay_whole(self, built_books, tmp_path):
        """An id's "&", "<" and ">" are escaped in the SVG, and its "|" in
        report.md, so both parse with one label and one cell per id."""
        ids = ("R&D<1>", "a|b", "after-d4")
        suite = tmp_path / "odd_ids.epd"
        suite.write_text(
            f'rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - id "{ids[0]}";\n'
            f'rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq - id "{ids[1]}";\n'
            f'rnbqkbnr/pppppppp/8/8/3P4/8/PPP1PPPP/RNBQKBNR b KQkq - id "{ids[2]}";\n')
        out_dir = str(tmp_path / "report")
        assert main(["compare", "--book1", built_books[0], "--book2", built_books[1],
                     "--suite", str(suite), "--min-games", "1", "--bootstrap", "100",
                     "--out", out_dir]) == 0
        svg_path = tmp_path / "scatter.svg"
        assert main(["plot", "--report", os.path.join(out_dir, "comparison.tsv"),
                     "--out", str(svg_path), "--mark", ids[0]]) == 0
        dom = xml.dom.minidom.parse(str(svg_path))
        labels = [node.firstChild.data for node in dom.getElementsByTagName("text")]
        assert set(ids) <= set(labels)

        with open(os.path.join(out_dir, "report.md"), encoding="utf-8") as handle:
            markdown = handle.read()
        tables = [[line for line in block.splitlines() if line.startswith("|")]
                  for block in markdown.split("## ")[1:]]
        rows = 0
        for table in tables:
            widths = {len(re.split(r"(?<!\\)\|", line)) for line in table}
            assert len(widths) == 1, table
            rows += sum(line.startswith("| " + ids[1].replace("|", "\\|") + " |")
                        for line in table)
        assert rows == 2  # one row in each table

    @pytest.mark.parametrize("cell, reason", [
        ("nan", "non-finite jsd in comparison TSV row: 'b\\t0.75\\t1\\tnan\\t1'"),
        ("-inf", "non-finite jsd in comparison TSV row: 'b\\t0.75\\t1\\t-inf\\t1'"),
        ("x", "could not convert string to float: 'x'"),
    ], ids=["nan", "-inf", "x"])
    def test_bad_cell_is_data_error_naming_the_report(self, cell, reason, tmp_path, capsys):
        """A cell that is not a finite number, which compare never writes,
        would give an SVG with nan coordinates; it is a data error instead."""
        report_path = tmp_path / "report.tsv"
        report_path.write_text("pos\tm_measure\tmax_m\tjsd\toverlap\n"
                               f"a\t0.5\t1\t0.25\t1\nb\t0.75\t1\t{cell}\t1\n")
        assert main(["plot", "--report", str(report_path),
                     "--out", str(tmp_path / "o.svg")]) == 2
        assert capsys.readouterr() == ("", f"openbook: bad report file {report_path}: {reason}\n")
        assert os.listdir(tmp_path) == ["report.tsv"]

    @pytest.mark.parametrize("header", [
        "pos\tjsd\tmax_m\tm_measure\toverlap",
        "pos\tm_measure\tmax_m\tjsd",
        "pos\tM\tmax_m\tjsd\toverlap",
    ], ids=["reordered", "short", "renamed"])
    def test_header_other_than_compares_is_data_error(self, header, tmp_path, capsys):
        """plot reads the cells in the order compare writes them, so a report
        with any other header, which would draw one column as another, is
        a data error, and no SVG is written."""
        report_path = tmp_path / "report.tsv"
        report_path.write_text(f"{header}\na\t0.25\t1\t0.5\t1\nb\t0.5\t1\t0.75\t1\n")
        assert main(["plot", "--report", str(report_path),
                     "--out", str(tmp_path / "o.svg")]) == 2
        assert capsys.readouterr() == (
            "", f"openbook: bad report file {report_path}: bad comparison TSV header: {header!r}\n")
        assert os.listdir(tmp_path) == ["report.tsv"]

    # with no table header there is no table: a bad file, not a report without pairs
    @pytest.mark.parametrize("text", ["", "# openbook-report v1\n# seed=0\n"],
                             ids=["empty", "notes only"])
    def test_report_without_header_is_data_error(self, text, tmp_path, capsys):
        report_path = tmp_path / "report.tsv"
        report_path.write_text(text)
        assert main(["plot", "--report", str(report_path),
                     "--out", str(tmp_path / "o.svg")]) == 2
        assert capsys.readouterr() == (
            "", f"openbook: bad report file {report_path}: no comparison TSV header\n")
        assert os.listdir(tmp_path) == ["report.tsv"]

    def test_plot_without_defined_pairs_is_data_error(self, tmp_path, capsys):
        report_path = tmp_path / "empty.tsv"
        report_path.write_text("pos\tm_measure\tmax_m\tjsd\toverlap\n"
                               "x\tundefined\tundefined\tundefined\tundefined\n")
        assert main(["plot", "--report", str(report_path),
                     "--out", str(tmp_path / "o.svg")]) == 2


@pytest.mark.parametrize("state, code", [("missing", errno.ENOENT),
                                         ("directory", errno.EISDIR)])
@pytest.mark.parametrize("option, kind", [
    ("--pgn", "PGN"), ("--book", "book"), ("--book1", "book"), ("--book2", "book"),
    ("--suite", "suite"), ("--report", "report")])
def test_unreadable_input_is_one_data_error(option, kind, state, code, built_books,
                                            suite3_path, tmp_path, monkeypatch, capsys):
    """Every file a command reads fails alike: one line that names its kind,
    its path and the OS's reason, exit code 2, and nothing written."""
    argv = next(argv for argv in (
        ["build", "--pgn", "input", "--out", "o.book"],
        ["query", "--book", "input", "--fen", rules.START_FEN],
        ["compare", "--book1", built_books[0], "--book2", built_books[1],
         "--suite", suite3_path, "--min-games", "1", "--bootstrap", "1000", "--out", "report"],
        ["plot", "--report", "input", "--out", "o.svg"]) if option in argv)
    argv[argv.index(option) + 1] = "input"
    (tmp_path / "run").mkdir()
    monkeypatch.chdir(tmp_path / "run")
    if state == "directory":
        os.mkdir("input")
    before = os.listdir()
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"openbook: cannot read {kind} input: "
                                       f"{os.strerror(code)}\n")
    assert os.listdir() == before


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
    """Stdout of ``code`` run in a fresh interpreter that imports the openbook
    these tests import, installed or not."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(openbook.__file__)))
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


def test_one_module_import_loads_no_other_openbook_module():
    """The package root re-exports nothing, so ``from openbook import rules``
    loads only the package and that module."""
    out = run_fresh("import sys\nfrom openbook import rules\n"
                    "print(*sorted(n for n in sys.modules if n.split('.')[0] == 'openbook'))")
    assert out == "openbook openbook.rules\n"


def test_compare_leaves_numpy_ma_unloaded(built_books, suite3_path, tmp_path):
    """np.quantile imports numpy.ma on its first call; the bootstrap's CI does not."""
    argv = ["compare", "--book1", built_books[0], "--book2", built_books[1],
            "--suite", suite3_path, "--min-games", "1", "--bootstrap", "1000",
            "--out", str(tmp_path / "report")]
    out = run_fresh("import sys\nfrom openbook.cli import main\n"
                    f"code = main({argv!r})\n"
                    "print(code, 'numpy' in sys.modules, 'numpy.ma' in sys.modules)")
    assert out.split()[-3:] == ["0", "True", "False"]
