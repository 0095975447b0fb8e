import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import openbook
import refdata
from oracles import jsd_entropy_form, ranked_from_counts
from openbook.measures import (
    UndefinedMeasureError,
    _exact,
    compare_position,
    expected_score,
    expected_score_row,
    jsd_similarity,
    m_measure,
    max_m,
    normalize_counts,
    overlap,
)
from openbook.book import RankedMove

HUMAN = ranked_from_counts(refdata.TOP10_HUMAN)
ENGINE = ranked_from_counts(refdata.TOP10_ENGINE)


def random_lists(rng, vocabulary=("a", "b", "c", "d", "e", "f", "g", "h", "i", "j")):
    k1 = rng.randrange(0, len(vocabulary) + 1)
    k2 = rng.randrange(0 if k1 else 1, len(vocabulary) + 1)
    moves1 = rng.sample(vocabulary, k1)
    moves2 = rng.sample(vocabulary, k2)
    return (ranked_from_counts({m: rng.randrange(1, 1000) for m in moves1}),
            ranked_from_counts({m: rng.randrange(1, 1000) for m in moves2}))


def exact_reciprocals(a, b):
    """Reciprocal ranks over the move union as Fractions, from ``_exact``."""
    den, pairs, _ = _exact(a, b, len(a), len(b))
    return {san: (Fraction(na, den), Fraction(nb, den)) for san, (na, nb) in pairs.items()}


def exact_footrule_and_bound(a, b):
    """The footrule sum and maxM as Fractions, from ``_exact``."""
    den, pairs, bound = _exact(a, b, len(a), len(b))
    return Fraction(sum(abs(na - nb) for na, nb in pairs.values()), den), Fraction(bound, den)


class TestOverlap:
    def test_golden_value(self):
        assert overlap(HUMAN, ENGINE) == pytest.approx(refdata.GOLDEN_OVERLAP, abs=1e-12)

    def test_identical_lists(self):
        assert overlap(HUMAN, HUMAN) == 1.0

    def test_disjoint_lists(self):
        a = ranked_from_counts({"e4": 5})
        b = ranked_from_counts({"d4": 5})
        assert overlap(a, b) == 0.0

    def test_both_empty_rejected(self):
        with pytest.raises(UndefinedMeasureError):
            overlap([], [])


class TestReciprocalRanks:
    def test_golden_table_exact(self):
        assert exact_reciprocals(HUMAN, ENGINE) == refdata.TOP10_RECIPROCAL

    def test_top_move_in_both(self):
        a = ranked_from_counts({"e4": 9, "d4": 1})
        b = ranked_from_counts({"e4": 7})
        ranks = exact_reciprocals(a, b)
        assert ranks["e4"] == (Fraction(1), Fraction(1))
        assert ranks["d4"] == (Fraction(1, 2), Fraction(1, 2))  # absent: 1/(1+1)


class TestMaxM:
    def test_golden_value(self):
        assert max_m(10, 10) == pytest.approx(refdata.GOLDEN_MAX_M, abs=5e-4)

    def test_singletons(self):
        assert max_m(1, 1) == pytest.approx(1.0, abs=1e-12)

    def test_against_empty_list(self):
        # absent list has length 0, so its missing-rank reciprocal is 1
        assert max_m(2, 0) == pytest.approx(0.5, abs=1e-12)

    def test_both_zero_rejected(self):
        with pytest.raises(UndefinedMeasureError):
            max_m(0, 0)


class TestMMeasure:
    def test_golden_value(self):
        assert m_measure(HUMAN, ENGINE) == pytest.approx(refdata.GOLDEN_M, abs=1e-4)

    def test_identical_lists(self):
        assert m_measure(HUMAN, HUMAN) == 1.0

    def test_fully_disjoint_equal_length(self):
        a = ranked_from_counts({"a": 3, "b": 2, "c": 1})
        b = ranked_from_counts({"x": 3, "y": 2, "z": 1})
        assert m_measure(a, b) == 0.0

    def test_one_empty_list(self):
        a = ranked_from_counts({"a": 3, "b": 2})
        assert m_measure(a, []) == 0.0

    def test_both_empty_rejected(self):
        with pytest.raises(UndefinedMeasureError):
            m_measure([], [])


class TestNormalizeCounts:
    def test_golden_distributions_at_four_decimals(self):
        p = normalize_counts(HUMAN, min_games=1)
        q = normalize_counts(ENGINE, min_games=1)
        assert sum(refdata.TOP10_HUMAN.values()) == refdata.TOP10_HUMAN_TOTAL
        assert sum(refdata.TOP10_ENGINE.values()) == refdata.TOP10_ENGINE_TOTAL
        for move, (mass_p, mass_q) in refdata.TOP10_DISTRIBUTIONS.items():
            assert round(p.get(move, 0.0), 4) == mass_p
            assert round(q.get(move, 0.0), 4) == mass_q

    def test_masses_sum_to_one(self):
        assert sum(normalize_counts(HUMAN, 1).values()) == pytest.approx(1.0, abs=1e-12)

    def test_threshold_removes_moves(self):
        a = ranked_from_counts({"e4": 100, "d4": 5})
        assert set(normalize_counts(a, min_games=10)) == {"e4"}
        assert normalize_counts(a, min_games=10)["e4"] == 1.0

    def test_nothing_surviving_rejected(self):
        with pytest.raises(UndefinedMeasureError):
            normalize_counts(ranked_from_counts({"e4": 3}), min_games=10)


class TestJsd:
    def test_golden_value(self):
        p = normalize_counts(HUMAN, 1)
        q = normalize_counts(ENGINE, 1)
        assert jsd_similarity(p, q) == pytest.approx(refdata.GOLDEN_JSD, abs=1e-3)

    def test_identical_distributions(self):
        p = normalize_counts(HUMAN, 1)
        assert jsd_similarity(p, p) == 1.0

    def test_disjoint_supports(self):
        assert jsd_similarity({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_value_independent_of_hash_seed(self):
        code = ("from openbook.measures import jsd_similarity\n"
                "p = {f'm{i}': 1 / 7 for i in range(7)}\n"
                "q = {f'm{i}': (i + 1) / 28 for i in range(7)}\n"
                "print(repr(jsd_similarity(p, q)))")
        src = os.path.dirname(os.path.dirname(openbook.__file__))
        outputs = {subprocess.run([sys.executable, "-c", code], check=True,
                                  capture_output=True, text=True,
                                  env=dict(os.environ, PYTHONHASHSEED=seed,
                                           PYTHONPATH=src)).stdout
                   for seed in ("0", "1", "2", "3")}
        assert len(outputs) == 1

    def test_matches_entropy_form_oracle(self):
        rng = random.Random(17)
        for _ in range(300):
            a, b = random_lists(rng)
            if not a or not b:
                continue
            p = normalize_counts(a, 1)
            q = normalize_counts(b, 1)
            divergence = (1.0 - jsd_similarity(p, q)) ** 2
            assert divergence == pytest.approx(jsd_entropy_form(p, q), abs=1e-12)


class TestExpectedScore:
    def entry(self, rank, san, games, score):
        return RankedMove(rank, san, games, score)

    def test_all_white_wins(self):
        score, games = expected_score([self.entry(1, "e4", 10, 100.0)], 10)
        assert (score, games) == (100.0, 10)

    def test_symmetric_results(self):
        ranked = [self.entry(1, "e4", 10, 100.0), self.entry(2, "d4", 10, 0.0)]
        score, games = expected_score(ranked, 10)
        assert (score, games) == (50.0, 20)

    def test_threshold_and_weighting(self):
        # (games, score%) = (20, 62.5), (15, 50.0), (9, 100.0); last filtered
        ranked = [self.entry(1, "a", 20, 62.5), self.entry(2, "b", 15, 50.0),
                  self.entry(3, "c", 9, 100.0)]
        score, games = expected_score(ranked, 10)
        assert games == 35
        assert score == pytest.approx(100 * (12.5 + 7.5) / 35, abs=1e-9)

    def test_filter_monotonicity(self):
        rng = random.Random(23)
        for _ in range(200):
            ranked = [self.entry(i + 1, f"m{i}", rng.randrange(1, 50), 50.0)
                      for i in range(rng.randrange(1, 8))]
            previous = None
            for threshold in (1, 5, 10, 20):
                try:
                    _, games = expected_score(ranked, threshold)
                except UndefinedMeasureError:
                    games = 0
                if previous is not None:
                    assert games <= previous
                previous = games


class TestCompareRow:
    def test_identical_lists_row(self):
        row = compare_position("x", HUMAN, HUMAN, min_games=1)
        assert row.overlap == 1.0
        assert row.m_measure == 1.0
        assert row.jsd == 1.0
        assert row.max_m == pytest.approx(max_m(10, 10))

    def test_one_empty_list_row(self):
        a = ranked_from_counts({"e4": 20, "d4": 10})
        row = compare_position("x", a, [], min_games=10)
        assert row.overlap == 0.0
        assert row.m_measure == 0.0
        assert row.jsd is None  # filtered support empty on one side

    def test_threshold_applies_to_jsd_only(self):
        a = ranked_from_counts({"e4": 100, "d4": 5})
        b = ranked_from_counts({"e4": 100, "c4": 5})
        row = compare_position("x", a, b, min_games=10)
        assert row.overlap == pytest.approx(1 / 3)  # full lists
        assert row.jsd == 1.0  # both filter down to {e4: 1.0}

    def test_expected_row_undefined_side(self):
        a = ranked_from_counts({"e4": 3})
        row = expected_score_row("x", "w", a, [], min_games=10)
        assert row.score1 is None and row.games1 is None
        assert row.score2 is None and row.games2 is None


class TestProperties:
    def test_randomized_symmetry_identity_range_and_bound(self):
        rng = random.Random(99)
        for _ in range(2000):
            a, b = random_lists(rng)
            if a or b:
                assert overlap(a, b) == overlap(b, a)
                assert 0.0 <= overlap(a, b) <= 1.0
                footrule, bound = exact_footrule_and_bound(a, b)
                assert footrule <= bound
                if sorted((len(a), len(b))) != [0, 1]:  # zero normalizer
                    assert m_measure(a, b) == pytest.approx(
                        m_measure(b, a), abs=1e-12)
                    assert 0.0 <= m_measure(a, b) <= 1.0
            if a and b:
                p = normalize_counts(a, 1)
                q = normalize_counts(b, 1)
                sim = jsd_similarity(p, q)
                assert sim == pytest.approx(jsd_similarity(q, p), abs=1e-12)
                assert 0.0 <= sim <= 1.0

    @given(st.dictionaries(st.sampled_from("abcdefgh"),
                           st.integers(min_value=1, max_value=10**6),
                           min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_identity_is_exactly_one(self, counts):
        ranked = ranked_from_counts(counts)
        assert m_measure(ranked, ranked) == 1.0
        assert overlap(ranked, ranked) == 1.0
        p = normalize_counts(ranked, 1)
        assert jsd_similarity(p, p) == 1.0

    @given(st.lists(st.integers(min_value=1, max_value=10**6),
                    min_size=1, max_size=10),
           st.lists(st.integers(min_value=1, max_value=10**6),
                    min_size=1, max_size=10))
    @settings(max_examples=200)
    def test_footrule_never_exceeds_disjoint_bound(self, counts1, counts2):
        a = ranked_from_counts({f"a{i}": c for i, c in enumerate(counts1)})
        b = ranked_from_counts({f"b{i}": c for i, c in enumerate(counts2)})
        # fully disjoint by construction: the bound is attained
        footrule, bound = exact_footrule_and_bound(a, b)
        assert footrule == bound
        assert float(footrule) == pytest.approx(max_m(len(a), len(b)), abs=1e-12)


def oracle_reciprocals(a, b):
    ranks_a = {e.san: e.rank for e in a}
    ranks_b = {e.san: e.rank for e in b}
    return {san: (Fraction(1, ranks_a.get(san, len(a) + 1)),
                  Fraction(1, ranks_b.get(san, len(b) + 1)))
            for san in ranks_a.keys() | ranks_b.keys()}


def oracle_footrule(a, b):
    return sum((abs(ra - rb) for ra, rb in oracle_reciprocals(a, b).values()), Fraction(0))


def oracle_m_and_max(a, b):
    """(M, maxM) from Fraction arithmetic, or (None, None) where undefined."""
    k1, k2 = len(a), len(b)
    footrule = oracle_footrule(a, b)
    bound = (sum((abs(Fraction(1, i) - Fraction(1, k2 + 1)) for i in range(1, k1 + 1)),
                 Fraction(0))
             + sum((abs(Fraction(1, j) - Fraction(1, k1 + 1)) for j in range(1, k2 + 1)),
                   Fraction(0)))
    if bound == 0:
        return None, None
    return float(1 - footrule / bound), float(bound)


# hand-built lists: any ranks, consecutive or not, one entry per move
hand_built = st.lists(st.tuples(st.sampled_from("abcdefghij"), st.integers(1, 40)),
                      max_size=8, unique_by=lambda t: t[0]).map(
    lambda pairs: [RankedMove(rank, san, 1, 50.0) for san, rank in pairs])
single = [RankedMove(1, "e4", 5, 50.0)]


class TestExactM:
    @given(hand_built, hand_built)
    @example([], [])
    @example(single, [])
    @example([], single)
    @example(single, single)
    @example(single, [RankedMove(3, "d4", 5, 50.0)])
    @settings(max_examples=400)
    def test_m_and_max_match_fraction_oracle(self, a, b):
        assert exact_reciprocals(a, b) == oracle_reciprocals(a, b)
        assert exact_footrule_and_bound(a, b)[0] == oracle_footrule(a, b)
        m_value, max_value = oracle_m_and_max(a, b)
        row = compare_position("p", a, b)
        assert row.m_measure == m_value
        assert row.max_m == max_value
        if m_value is not None:
            assert m_measure(a, b) == m_value
            assert max_m(len(a), len(b)) == max_value
