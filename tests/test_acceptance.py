"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Tolerances are fixed here and nowhere else.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import os
import random
from fractions import Fraction

import pytest

import refdata
from oracles import jsd_entropy_form, normalize, ranked_from_counts, recorded
from tempfiles import saved, written
from openbook import rules
from openbook.book import Book, MoveStats, build_book, load_book, merge_books, save_book
from openbook.cli import main
from openbook.measures import (
    _exact,
    jsd_similarity,
    m_measure,
    max_m,
    normalize_counts,
    overlap,
)
from openbook.pgn import parse_pgn_stream
from openbook.report import parse_comparison_tsv
from openbook.stats import bootstrap_ci, mean_std, pearson

HUMAN = ranked_from_counts(refdata.TOP10_HUMAN)
ENGINE = ranked_from_counts(refdata.TOP10_ENGINE)


def test_criterion_1_worked_example_golden_values():
    """Top-10 worked example: overlap, reciprocal ranks, maxM, M, JSD."""
    label = "criterion 1: worked-example golden test"
    try:
        assert overlap(HUMAN, ENGINE) == pytest.approx(9 / 11, abs=1e-9)
        den, pairs, _ = _exact(HUMAN, ENGINE, len(HUMAN), len(ENGINE))
        assert {san: (Fraction(na, den), Fraction(nb, den))
                for san, (na, nb) in pairs.items()} == refdata.TOP10_RECIPROCAL
        assert max_m(10, 10) == pytest.approx(4.0398, abs=5e-4)
        assert m_measure(HUMAN, ENGINE) == pytest.approx(0.9694, abs=1e-4)
        p = normalize_counts(HUMAN, min_games=1)
        q = normalize_counts(ENGINE, min_games=1)
        assert sum(refdata.TOP10_HUMAN.values()) == 1_010_757
        assert sum(refdata.TOP10_ENGINE.values()) == 276_540
        for move, (mass_p, mass_q) in refdata.TOP10_DISTRIBUTIONS.items():
            assert round(p.get(move, 0.0), 4) == mass_p
            assert round(q.get(move, 0.0), 4) == mass_q
        assert jsd_similarity(p, q) == pytest.approx(0.935, abs=1e-3)
    except AssertionError:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def test_criterion_1_worked_example_through_compare(tmp_path):
    """The worked example's initial-position books, at the published counts,
    give the published overlap, M, maxM and JSD through ``compare``."""
    label = "criterion 1: worked example through compare"
    key = rules.position_key(rules.initial_position())
    books = []
    for name, counts in (("human", refdata.TOP10_HUMAN), ("engine", refdata.TOP10_ENGINE)):
        # results enter none of the four measures, so every game is a draw
        moves = {san: MoveStats(san, games, 0, games, 0) for san, games in counts.items()}
        path = str(tmp_path / f"{name}.book")
        save_book(Book(depth=1, source=name, games=sum(counts.values()),
                       positions={key: moves}), path)
        books.append(path)
    suite = tmp_path / "start.epd"
    suite.write_text(f'{rules.START_FEN.rsplit(" ", 2)[0]} id "start";\n')
    out_dir = str(tmp_path / "report")
    try:
        assert main(["compare", "--book1", books[0], "--book2", books[1],
                     "--suite", str(suite), "--precision", "full", "--out", out_dir]) == 0
        tsv = os.path.join(out_dir, "comparison.tsv")
        with open(tsv, encoding="utf-8", newline="") as handle:
            lines = handle.read().split("\n")
        assert lines[3:5] == ["# book1_games=1010757", "# book2_games=276540"]
        rows = parse_comparison_tsv(tsv)
        [row] = rows
        assert row.overlap == 9 / 11
        assert round(row.m_measure, 4) == 0.9694
        assert round(row.max_m, 4) == 4.0398
        assert round(row.jsd, 3) == 0.935
    except AssertionError:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def test_criterion_2_summary_statistics_reproduction():
    """Correlation and bootstrap CIs from the 26-row summary columns."""
    label = "criterion 2: summary-table statistics"
    full = refdata.SUMMARY_M, refdata.SUMMARY_JSD
    kept = [i for i, pid in enumerate(refdata.SUMMARY_POSITIONS)
            if pid not in refdata.OUTLIER_IDS]
    reduced = [refdata.SUMMARY_M[i] for i in kept], [refdata.SUMMARY_JSD[i] for i in kept]
    try:
        assert pearson(*full) == pytest.approx(0.5397, abs=0.01)
        assert pearson(*reduced) == pytest.approx(0.6549, abs=0.01)
        lower, upper = bootstrap_ci(*full, resamples=10000, seed=0)
        assert lower == pytest.approx(0.2625, abs=0.05)
        assert upper == pytest.approx(0.7644, abs=0.05)
        lower, upper = bootstrap_ci(*reduced, resamples=10000, seed=0)
        assert lower == pytest.approx(0.3655, abs=0.05)
        assert upper == pytest.approx(0.8228, abs=0.05)
        for column, golden in (
                (refdata.SUMMARY_M, (0.768, 0.175)),
                (refdata.SUMMARY_JSD, (0.702, 0.144)),
                (refdata.SUMMARY_OVERLAP, (0.605, 0.157))):
            mean, std = mean_std(column)
            assert mean == pytest.approx(golden[0], abs=0.01)
            assert std == pytest.approx(golden[1], abs=0.01)
    except AssertionError:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def test_criterion_3_expected_score_summaries():
    """Expected-score column means and sample standard deviations."""
    label = "criterion 3: expected-score summaries"
    try:
        mean, std = mean_std(refdata.EXPECTED_HUMAN)
        assert mean == pytest.approx(55.139, abs=0.01)
        assert std == pytest.approx(4.301, abs=0.01)
        mean, std = mean_std(refdata.EXPECTED_ENGINE)
        assert mean == pytest.approx(55.817, abs=0.01)
        assert std == pytest.approx(5.743, abs=0.01)
    except AssertionError:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def test_criterion_4_move_generation_oracle_equivalence():
    """perft(1..4) from the initial position matches the frozen counts."""
    label = "criterion 4: move-generation perft equivalence"
    try:
        start = rules.initial_position()
        for depth, expected in ((1, 20), (2, 400), (3, 8902), (4, 197281)):
            assert rules.perft(start, depth) == expected
    except AssertionError:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def _random_ranked(rng, vocabulary):
    size = rng.randrange(0, len(vocabulary) + 1)
    moves = rng.sample(vocabulary, size)
    return ranked_from_counts({m: rng.randrange(1, 1000) for m in moves})


def test_criterion_5a_measure_properties_bulk():
    """Symmetry, identity, range, and the maxM bound on 10^4 random pairs."""
    label = "criterion 5a/5b: measure properties on 10^4 pairs"
    rng = random.Random(2024)
    vocabulary = tuple("abcdefghijkl")
    checked = 0
    try:
        while checked < 10_000:
            a = _random_ranked(rng, vocabulary)
            b = _random_ranked(rng, vocabulary)
            if not a and not b:
                continue
            checked += 1
            if sorted((len(a), len(b))) != [0, 1]:  # zero normalizer
                m_ab = m_measure(a, b)
                assert m_ab == pytest.approx(m_measure(b, a), abs=1e-12)
                assert 0.0 <= m_ab <= 1.0
            ov = overlap(a, b)
            assert ov == overlap(b, a)
            assert 0.0 <= ov <= 1.0
            den, pairs, bound = _exact(a, b, len(a), len(b))
            footrule = sum(abs(na - nb) for na, nb in pairs.values())
            assert Fraction(footrule, den) <= Fraction(bound, den)
            if a and b:
                p = normalize_counts(a, 1)
                q = normalize_counts(b, 1)
                sim = jsd_similarity(p, q)
                assert sim == pytest.approx(jsd_similarity(q, p), abs=1e-12)
                assert 0.0 <= sim <= 1.0
            if checked % 2500 == 0:
                assert m_measure(a, a) == 1.0 if a else True
    except AssertionError:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def test_criterion_5c_jsd_entropy_oracle():
    """JSD against the independent entropy-form computation."""
    label = "criterion 5c: JSD entropy-form oracle within 1e-12"
    rng = random.Random(7)
    vocabulary = tuple("abcdef")
    try:
        for _ in range(500):
            a = _random_ranked(rng, vocabulary)
            b = _random_ranked(rng, vocabulary)
            if not a or not b:
                continue
            p = normalize_counts(a, 1)
            q = normalize_counts(b, 1)
            divergence = (1.0 - jsd_similarity(p, q)) ** 2
            assert divergence == pytest.approx(jsd_entropy_form(p, q), abs=1e-12)
    except AssertionError:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def _random_games(rng, count):
    games = []
    for _ in range(count):
        pos = rules.initial_position()
        tokens = []
        for _ in range(rng.randrange(1, 8)):
            moves = rules.legal_moves(pos)
            if not moves:
                break
            move = rng.choice(moves)
            tokens.append(rules.emit_san(pos, move))
            pos = rules._apply(pos, move)
        games.append(recorded(tokens, rng.choice(["1-0", "0-1", "1/2-1/2"])))
    return games


def test_criterion_5d_build_merge_determinism():
    """Random partitions of a game set merge to a bit-identical book file."""
    label = "criterion 5d: build/merge determinism"
    rng = random.Random(31)
    games = _random_games(rng, 24)
    whole = build_book(games, max_depth=6, source="s")
    reference = saved(whole)
    try:
        for _ in range(5):
            cut = rng.randrange(1, len(games))
            shuffled = games[:]
            rng.shuffle(shuffled)
            merged = merge_books(build_book(shuffled[:cut], max_depth=6, source="s"),
                                 build_book(shuffled[cut:], max_depth=6, source="s"))
            assert saved(merged) == reference
    except AssertionError:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def test_criterion_5e_book_round_trip_with_checksum():
    """Book file round trip, including checksum verification."""
    label = "criterion 5e: book format round trip"
    rng = random.Random(41)
    try:
        for _ in range(5):
            book = build_book(_random_games(rng, 10), max_depth=6, source="rt")
            text = saved(book)
            assert load_book(written(text)) == book
            assert text.splitlines()[-1].startswith("sha256 ")
    except AssertionError:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def test_criterion_5f_san_fen_round_trips():
    """SAN and FEN round trips over randomly played games."""
    label = "criterion 5f: SAN/FEN round trips"
    rng = random.Random(53)
    try:
        for _ in range(3):
            pos = rules.initial_position()
            for _ in range(40):
                moves = rules.legal_moves(pos)
                if not moves:
                    break
                for move in moves:
                    assert rules.parse_san(pos, rules.emit_san(pos, move)) == move
                assert rules.parse_fen(rules.emit_fen(pos)) == normalize(pos)
                pos = rules._apply(pos, rng.choice(moves))
    except AssertionError:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def test_criterion_6_end_to_end_fixture_run(tmp_path, pb_mini_path,
                                            comp_mini_path, suite3_path):
    """Fixture corpora mirror the worked example's move sets and rank
    orders at the initial position, so the rank-structure measures
    (overlap, M, maxM) must match the golden values. The fixture counts
    cannot be exactly proportional to the published ones with <= 50 whole
    games per corpus, so the JSD cell is checked for reproducibility, not
    against the golden value.
    """
    label = "criterion 6: end-to-end fixture run"
    book1 = str(tmp_path / "pb.book")
    book2 = str(tmp_path / "comp.book")
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    try:
        games1 = [g for g in parse_pgn_stream(pb_mini_path, 0)]
        games2 = [g for g in parse_pgn_stream(comp_mini_path, 0)]
        assert len(games1) <= 50 and len(games2) <= 50
        assert main(["build", "--pgn", pb_mini_path, "--depth", "4",
                     "--out", book1, "--source", "pb-mini"]) == 0
        assert main(["build", "--pgn", comp_mini_path, "--depth", "4",
                     "--out", book2, "--source", "comp-mini"]) == 0
        for out_dir in (out_a, out_b):
            assert main(["compare", "--book1", book1, "--book2", book2,
                         "--suite", suite3_path, "--min-games", "1",
                         "--bootstrap", "1000", "--seed", "7",
                         "--precision", "full", "--out", out_dir]) == 0
        with open(os.path.join(out_a, "comparison.tsv"), "rb") as fa, \
                open(os.path.join(out_b, "comparison.tsv"), "rb") as fb:
            text = fa.read()
            assert text == fb.read()
        rows = parse_comparison_tsv(os.path.join(out_a, "comparison.tsv"))
        row = {r.position_id: r for r in rows}["26"]
        assert row.overlap == pytest.approx(9 / 11, abs=1e-9)
        assert row.m_measure == pytest.approx(0.9694, abs=1e-4)
        assert row.max_m == pytest.approx(4.0398, abs=5e-4)
        assert row.jsd is not None and 0.0 <= row.jsd <= 1.0
    except AssertionError:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")
