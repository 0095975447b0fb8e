import hashlib
import os
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ranked_from_counts, recorded, reference_book
from tempfiles import saved, written
from openbook import rules
from openbook.book import (
    Book,
    BookFormatError,
    MoveStats,
    build_book,
    load_book,
    merge_books,
    query,
    save_book,
)
from openbook.pgn import GameRecord, filter_games, parse_pgn_stream


START_KEY = rules.position_key(rules.initial_position())
E4_KEY = rules.position_key(rules.parse_fen(
    "rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq - 0 1"))


# the initial position, one with castles and promotions, and one with an
# en-passant capture
STARTS = (rules.START_FEN,
          "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1",
          "rnbqkbnr/pp2p1pp/8/2ppPp2/8/8/PPPP1PPP/RNBQKBNR w KQkq f6 0 4")


@st.composite
def drawn_games(draw):
    """A game as a (fen, tokens, result, elos) for reference_book and as the
    PGN text that holds it: a legal walk of up to 8 plies from one of
    STARTS, now and then with "a1", which no pawn can play, put among its
    tokens, and with a FEN tag unless it starts from the initial position."""
    fen = draw(st.sampled_from(STARTS))
    pos, tokens = rules.parse_fen(fen), []
    for _ in range(draw(st.integers(0, 8))):
        moves = rules.legal_moves(pos)
        if not moves:
            break
        move = draw(st.sampled_from(moves))
        tokens.append(rules.emit_san(pos, move))
        pos = rules._apply(pos, move)
    if draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))), "a1")
    result = draw(st.sampled_from(("1-0", "0-1", "1/2-1/2", "*")))
    elos = tuple(draw(st.sampled_from((None, "1900", "2400", "2500", "2_400")))
                 for _ in range(2))
    tags = {"Result": result, "WhiteElo": elos[0], "BlackElo": elos[1],
            "FEN": None if fen == rules.START_FEN else fen}
    text = "".join(f'[{name} "{value}"]\n' for name, value in tags.items()
                   if value is not None) + "\n" + " ".join(tokens + [result]) + "\n"
    return (fen, tokens, result, elos), text


def signed(body):
    """Book text with a valid checksum line, so only later checks can refuse it."""
    return body + f"sha256 {hashlib.sha256(body.encode()).hexdigest()}\n"


def roundtrip(book):
    path = written(b"")
    save_book(book, path)
    return load_book(path)


class TestBuild:
    def test_direct_counts_and_score(self):
        book = build_book([recorded(["e4"], "1-0"), recorded(["e4"], "1/2-1/2")],
                          max_depth=4)
        ranked = query(book, rules.position_key(rules.initial_position()))
        assert len(ranked) == 1
        assert ranked[0].san == "e4"
        assert ranked[0].games == 2
        assert ranked[0].score_percent == 75.0
        stats = book.positions[rules.position_key(rules.initial_position())]["e4"]
        assert (stats.white_wins, stats.draws, stats.black_wins) == (1, 1, 0)

    def test_transpositions_aggregate(self):
        book = build_book([recorded(["e4", "e5", "Nf3", "Nc6"], "1-0"),
                           recorded(["Nf3", "e5", "e4", "Nc6"], "0-1")], max_depth=8)
        p = rules.initial_position()
        for token in ["e4", "e5", "Nf3"]:
            p = rules._apply(p, rules.parse_san(p, token))
        ranked = query(book, rules.position_key(p))
        assert [(e.san, e.games) for e in ranked] == [("Nc6", 2)]

    def test_empty_input_gives_empty_book(self):
        book = build_book([], max_depth=4)
        assert book.games == 0
        assert book.position_count == 0

    def test_depth_limits_recorded_plies(self):
        book = build_book([recorded(["e4", "e5", "Nf3", "Nc6"], "1-0")], max_depth=2)
        assert book.position_count == 2

    def test_unknown_result_games_skipped(self):
        book = build_book(filter_games([recorded(["e4"], "*")]), max_depth=4)
        assert book.games == 0

    def test_depth_below_one_rejected(self):
        with pytest.raises(ValueError):
            build_book([], max_depth=0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(drawn_games(), max_size=5), st.integers(1, 6),
           st.sampled_from((None, 2000, 2400)))
    def test_parsed_games_build_the_reference_book(self, drawn, depth, min_rating):
        """Parsing at a depth and rating, filtering and building give the
        book that the reference replay counts, with its own rating and
        result rule, from the games the PGN text was written from."""
        text = "\n".join(pgn for _, pgn in drawn)
        built = build_book(filter_games(parse_pgn_stream(written(text), depth, min_rating)),
                           depth)
        entered, counts = reference_book([game for game, _ in drawn], depth, min_rating)
        assert built.games == entered
        assert {key: {san: list(stats[1:]) for san, stats in moves.items()}
                for key, moves in built.positions.items()} == counts

    def test_peak_memory_is_the_book_it_returns(self):
        """build_book turns its counts into MoveStats in place, so it never
        holds much more than the book it returns."""
        rng = random.Random(7)
        lines = []
        for _ in range(200):
            p = rules.initial_position()
            tokens = []
            for _ in range(20):
                moves = rules.legal_moves(p)
                if not moves:
                    break
                m = rng.choice(moves)
                tokens.append(rules.emit_san(p, m))
                p = rules._apply(p, m)
            lines += ['[Result "1-0"]', "", " ".join(tokens) + " 1-0", ""]
        records = list(parse_pgn_stream(written("\n".join(lines) + "\n"), 20))
        assert all(isinstance(r, GameRecord) and r.plies for r in records)
        assert len(records) == 200
        tracemalloc.start()
        try:
            built = build_book(records, max_depth=20)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built.games == 200
        assert peak <= 1.25 * held


class TestQuery:
    def test_rank_order_follows_popularity(self):
        games = [recorded(["e4"], "1-0")] * 3 + [recorded(["d4"], "1-0")] * 5
        ranked = query(build_book(games, max_depth=2),
                       rules.position_key(rules.initial_position()))
        assert [e.san for e in ranked] == ["d4", "e4"]

    def test_tie_breaks_lexicographically(self):
        games = [recorded(["e4"], "1-0"), recorded(["d4"], "1-0"), recorded(["c4"], "1-0")]
        ranked = query(build_book(games, max_depth=2),
                       rules.position_key(rules.initial_position()))
        assert [e.san for e in ranked] == ["c4", "d4", "e4"]

    def test_absent_position_gives_empty_list(self):
        book = build_book([recorded(["e4"], "1-0")], max_depth=2)
        absent = rules.parse_fen("4k3/8/8/8/8/8/8/4K3 w - - 0 1")
        assert query(book, rules.position_key(absent)) == []

    def test_ranked_from_counts_matches_query_ordering(self):
        ranked = ranked_from_counts({"e4": 3, "d4": 5, "c4": 3})
        assert [(e.san, e.games) for e in ranked] == [("d4", 5), ("c4", 3), ("e4", 3)]
        games = ([recorded(["e4"], "0-1")] * 3 + [recorded(["d4"], "0-1")] * 5
                 + [recorded(["c4"], "0-1")] * 3)
        assert query(build_book(games, max_depth=1), START_KEY) == ranked


class TestPersistence:
    def build_sample(self):
        games = [recorded(["e4", "e5"], "1-0"), recorded(["d4"], "1/2-1/2"),
                 recorded(["e4", "c5"], "0-1")]
        return build_book(games, max_depth=4, source="sample")

    def test_round_trip_identity(self):
        book = self.build_sample()
        assert roundtrip(book) == book

    def test_empty_book_round_trips(self):
        book = build_book([], max_depth=4, source="empty")
        assert roundtrip(book) == book

    def test_truncated_file_rejected(self):
        text = saved(self.build_sample())
        with pytest.raises(BookFormatError):
            load_book(written(text[:len(text) // 2]))

    def test_corrupted_byte_fails_checksum(self):
        text = saved(self.build_sample()).replace("mv e4", "mv e5", 1)
        with pytest.raises(BookFormatError, match="checksum"):
            load_book(written(text))

    def test_malformed_line_reports_number(self):
        book = build_book([recorded(["e4"], "1-0")], max_depth=2, source="s")
        lines = saved(book).splitlines()
        lines[3] = "mv e4 1 1 0"  # drop a count column
        body = "\n".join(lines[:-1]) + "\n"
        import hashlib
        digest = hashlib.sha256(body.encode()).hexdigest()
        with pytest.raises(BookFormatError, match="line 4"):
            load_book(written(body + f"sha256 {digest}\n"))

    @pytest.mark.parametrize("mv", ["mv e4 0 0 0 0", "mv e4 1 2 0 -1"])
    def test_unplayed_or_negative_counts_rejected(self, mv):
        # checksummed, so only the count check can refuse them
        body = ("openbook-diff v1\nmeta source=s games=1 positions=1 depth=2\n"
                f"pos {rules.position_key(rules.initial_position())}\n{mv}\n")
        import hashlib
        digest = hashlib.sha256(body.encode()).hexdigest()
        with pytest.raises(BookFormatError, match="line 4: bad counts"):
            load_book(written(body + f"sha256 {digest}\n"))

    @pytest.mark.parametrize("games, mv, message", [
        ("\u0661", "mv e4 1 1 0 0", "line 2: bad meta line"),
        ("1", "mv e4 \u0661 \u0661 0 0", "non-ASCII text after line 2"),
    ])
    def test_non_ascii_digits_rejected(self, games, mv, message):
        # "١" is an Arabic-Indic 1, which int() and re's \d accept
        body = (f"openbook-diff v1\nmeta source=caf\u00e9 games={games} positions=1 depth=2\n"
                f"pos {rules.position_key(rules.initial_position())}\n{mv}\n")
        import hashlib
        digest = hashlib.sha256(body.encode()).hexdigest()
        with pytest.raises(BookFormatError, match=message):
            load_book(written(body + f"sha256 {digest}\n"))
        # the same book with ASCII digits loads, non-ASCII source and all
        ascii_body = body.replace("\u0661", "1")
        digest = hashlib.sha256(ascii_body.encode()).hexdigest()
        assert load_book(written(ascii_body + f"sha256 {digest}\n")).source == "caf\u00e9"

    @pytest.mark.parametrize("mv", ["mv e4 +1 1 0 0", "mv e4 0_1 1 0 0", "mv e4 01 1 0 0",
                                    "mv e4  1 1 0 0", "mv e4\t1 1 0 0", "mv e4 1 1 0 0 "])
    def test_counts_and_spacing_save_book_does_not_write_rejected(self, mv):
        # each has counts that add up and would once load as 1/1/0/0, to be
        # saved back as "mv e4 1 1 0 0"
        body = ("openbook-diff v1\nmeta source=s games=1 positions=1 depth=2\n"
                f"pos {START_KEY}\n{mv}\n")
        with pytest.raises(BookFormatError, match="line 4: "):
            load_book(written(signed(body)))

    def test_missing_final_line_break_rejected(self):
        text = signed("openbook-diff v1\nmeta source=s games=0 positions=0 depth=2\n")
        with pytest.raises(BookFormatError, match="line 3: no line break at the end"):
            load_book(written(text[:-1]))

    def test_non_utf8_file_rejected(self):
        data = saved(self.build_sample()).encode()
        with pytest.raises(BookFormatError, match="UTF-8"):
            load_book(written(data.replace(b"sample", b"s\xe4mple")))

    @pytest.mark.parametrize("source", ["a\nb", "a\udcffb"])
    def test_unreadable_source_refused_before_writing(self, source):
        book = build_book([recorded(["e4"], "1-0")], max_depth=2, source=source)
        path = written(b"")
        with pytest.raises(BookFormatError, match="source"):
            save_book(book, path)
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == ""

    def test_save_to_path_leaves_the_umask_alone(self, tmp_path, monkeypatch):
        def umask(mask):
            raise AssertionError("the process-wide umask was changed")
        monkeypatch.setattr(os, "umask", umask)
        path = tmp_path / "b.book"
        save_book(self.build_sample(), str(path))
        assert load_book(str(path)) == self.build_sample()
        assert os.listdir(tmp_path) == ["b.book"]

    def test_save_to_path_replaces_the_file_whole_or_not_at_all(self, tmp_path, monkeypatch):
        path = tmp_path / "b.book"
        save_book(self.build_sample(), str(path))
        assert load_book(str(path)) == self.build_sample()
        before = path.read_bytes()
        refused = build_book([recorded(["e4"], "1-0")], max_depth=2, source="a\nb")
        with pytest.raises(BookFormatError, match="source"):
            save_book(refused, str(path))

        def interrupted(src, dst):
            raise OSError("interrupted")
        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            save_book(build_book([], max_depth=4, source="other"), str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["b.book"]  # no temp file left behind


# a two-position book; each case below breaks one line of it (or its meta
# count), and the error must not depend on which positions are built
FIRST, SECOND = sorted([START_KEY, E4_KEY])
VIEW_LINES = ["openbook-diff v1", "meta source=s games=4 positions=2 depth=2",
              f"pos {FIRST}", "mv e5 2 1 1 0", "mv c5 1 0 0 1",
              f"pos {SECOND}", "mv e4 3 1 1 1", "mv d4 1 1 0 0"]
MALFORMED = [
    (7, "mv e4 +3 1 1 1", "line 7: non-canonical counts"),
    (7, "mv e4 0_3 1 1 1", "line 7: non-canonical counts"),
    (7, "mv e4 03 1 1 1", "line 7: non-canonical counts"),
    (7, "mv e4  3 1 1 1", "line 7: bad mv line"),
    (7, "mv e4\t3 1 1 1", "line 7: bad mv line"),
    (7, "mv e4 3 1 1 1 ", "line 7: bad mv line"),
    (7, "mv e4 3 1 1", "line 7: bad mv line"),
    (7, "mv e4 x 1 1 1", "line 7: non-integer counts"),
    (7, "mv e4 4 1 1 1", "line 7: bad counts"),
    (7, "mv e4 0 0 0 0", "line 7: bad counts"),
    (7, "mv e4 1 2 0 -1", "line 7: bad counts"),
    (7, "mv  3 1 1 1", "line 7: bad mv line"),
    (7, "mv e4 3 1 1 1\r", "line 7: bad mv line"),
    (7, "mv e\x7f4 3 1 1 1", "line 7: bad mv line"),
    # counts checked once at line 5; the SAN is still checked here
    (8, "mv d\t4 1 0 0 1", "line 8: bad mv line"),
    (8, "mv e4 1 1 0 0", "line 8: duplicate move 'e4'"),
    (8, "mv a4 3 1 1 1", "line 8: move 'a4' out of order"),
    (8, "mv d4 4 1 1 2", "line 8: move 'd4' out of order"),
    (6, f"pos {FIRST}", "line 6: duplicate position"),
    (6, "pos 4k3/8/8/8/8/8/8/4K3 w - -",
     "line 6: position '4k3/8/8/8/8/8/8/4K3 w - -' out of order"),
    (6, "pos a\tb", "line 6: bad pos line"),
    (6, "pos ", "line 6: bad pos line"),
    (6, f"pos {SECOND}\r", "line 6: bad pos line"),
    (6, "pos a\x7fb", "line 6: bad pos line"),
    (6, "", "line 6: unexpected line"),
    (3, "mv e5 1 1 0 0", "line 3: mv line before any pos line"),
    (2, "meta source=s games=4 positions=3 depth=2", "meta positions=3 but file has 2"),
]


def view_book(edit=None):
    lines = list(VIEW_LINES)
    if edit is not None:
        lines[edit[0] - 1] = edit[1]
    return signed("\n".join(lines) + "\n")


class TestKeys:
    @pytest.mark.parametrize("number, line, message", MALFORMED)
    def test_checks_do_not_depend_on_keys(self, number, line, message):
        text = view_book((number, line))
        away = SECOND if number <= 5 else FIRST
        errors = set()
        for keys in (None, set(), {away}):
            with pytest.raises(BookFormatError) as err:
                load_book(written(text), keys)
            errors.add(str(err.value))
        assert len(errors) == 1
        assert errors.pop().startswith(message)

    def test_defects_found_anywhere_in_a_large_book(self):
        # every line gets the same counts, so all but the first mv line
        # reuse checked counts; a defect must still be found wherever it is
        lines = ["openbook-diff v1", "meta source=s games=1 positions=4000 depth=2"]
        for i in range(4000):
            lines += [f"pos k{i:05d}", "mv e4 1 1 0 0"]
        text = "\n".join(lines) + "\n"
        load_book(written(signed(text)), set())
        for number in [4, 3999, 4000, 4001, len(lines)]:
            for edit, message in (("junk", "unexpected line"), ("mv e4 2 1 0 0", "bad counts"),
                                  ("mv \x7f 1 1 0 0", "bad mv line")):
                broken = list(lines)
                broken[number - 1] = edit
                with pytest.raises(BookFormatError, match=f"^line {number}: {message}"):
                    load_book(written(signed("\n".join(broken) + "\n")), set())

    def test_view_holds_only_the_requested_positions(self):
        full = load_book(written(view_book()))
        assert sorted(full.positions) == [FIRST, SECOND]
        for keys in (set(), {FIRST}, {SECOND}, {FIRST, SECOND, "absent"}):
            view = load_book(written(view_book()), keys)
            assert (view.depth, view.source, view.games) == (full.depth, full.source, full.games)
            assert view.positions == {k: full.positions[k] for k in keys if k in full.positions}
            for key in (FIRST, SECOND):
                assert query(view, key) == (query(full, key) if key in keys else [])


class TestMerge:
    def test_merge_with_empty_is_identity(self):
        book = build_book([recorded(["e4"], "1-0")], max_depth=4, source="s")
        empty = build_book([], max_depth=4, source="s")
        assert merge_books(book, empty) == book

    def test_merge_commutes(self):
        a = build_book([recorded(["e4"], "1-0")], max_depth=4, source="s")
        b = build_book([recorded(["d4"], "0-1")], max_depth=4, source="s")
        assert merge_books(a, b) == merge_books(b, a)

    def test_depth_mismatch_rejected(self):
        a = build_book([], max_depth=4)
        b = build_book([], max_depth=6)
        with pytest.raises(ValueError, match="depth"):
            merge_books(a, b)

    def test_partitioned_build_equals_whole_build(self):
        rng = random.Random(5)
        games = []
        for _ in range(30):
            p = rules.initial_position()
            tokens = []
            for _ in range(rng.randrange(1, 7)):
                moves = rules.legal_moves(p)
                if not moves:
                    break
                m = rng.choice(moves)
                tokens.append(rules.emit_san(p, m))
                p = rules._apply(p, m)
            games.append(recorded(tokens, rng.choice(["1-0", "0-1", "1/2-1/2"])))
        whole = build_book(games, max_depth=6, source="s")
        for cut in (1, 10, 15, 29):
            merged = merge_books(build_book(games[:cut], max_depth=6, source="s"),
                                 build_book(games[cut:], max_depth=6, source="s"))
            assert merged == whole
            # bit-identical files, not just equal objects
            assert saved(whole) == saved(merged)

    def test_build_order_invariance(self):
        games = [recorded(["e4", "e5"], "1-0"), recorded(["d4"], "0-1"),
                 recorded(["e4", "c5"], "1/2-1/2")]
        forward = build_book(games, max_depth=4, source="s")
        backward = build_book(list(reversed(games)), max_depth=4, source="s")
        assert forward == backward


def test_move_stats_score():
    stats = MoveStats("e4", 4, 1, 2, 1)
    assert stats.score_percent == 50.0


def test_move_stats_is_immutable_and_hashable():
    stats = MoveStats("e4", 4, 1, 2, 1)
    with pytest.raises(AttributeError):
        stats.games = 0
    assert len({stats, MoveStats("e4", 4, 1, 2, 1)}) == 1
