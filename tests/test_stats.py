import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import refdata
from openbook.measures import ComparisonRow, ExpectedScoreRow
from openbook.stats import (
    StatsError,
    _quantile,
    bootstrap_ci,
    mean_std,
    pearson,
    summarize,
)


def summary_columns(exclude=()):
    """The summary table's M and JSD columns, without the ``exclude`` rows."""
    kept = [i for i, pid in enumerate(refdata.SUMMARY_POSITIONS) if pid not in exclude]
    return ([refdata.SUMMARY_M[i] for i in kept],
            [refdata.SUMMARY_JSD[i] for i in kept])


class TestPearson:
    def test_reference_columns(self):
        assert pearson(*summary_columns()) == pytest.approx(
            refdata.GOLDEN_PEARSON_FULL, abs=0.01)

    def test_reference_columns_without_outliers(self):
        assert pearson(*summary_columns(refdata.OUTLIER_IDS)) == pytest.approx(
            refdata.GOLDEN_PEARSON_EXCLUDED, abs=0.01)

    def test_perfect_linearity(self):
        x = (1.0, 2.0, 3.0, 4.0)
        assert pearson(x, [2 * v + 3 for v in x]) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_and_affine_invariance(self):
        x, y = summary_columns()
        assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-12)
        assert pearson([5 * v - 2 for v in x], y) == pytest.approx(pearson(x, y), abs=1e-12)

    def test_constant_column_rejected(self):
        with pytest.raises(StatsError):
            pearson((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))

    def test_too_small_sample_rejected(self):
        with pytest.raises(StatsError):
            pearson((1.0,), (2.0,))


class TestBootstrap:
    def test_reference_interval(self):
        lower, upper = bootstrap_ci(*summary_columns(), resamples=10000, seed=0)
        assert lower == pytest.approx(refdata.GOLDEN_CI_FULL[0], abs=0.05)
        assert upper == pytest.approx(refdata.GOLDEN_CI_FULL[1], abs=0.05)

    def test_reference_interval_without_outliers(self):
        lower, upper = bootstrap_ci(*summary_columns(refdata.OUTLIER_IDS),
                                    resamples=10000, seed=0)
        assert lower == pytest.approx(refdata.GOLDEN_CI_EXCLUDED[0], abs=0.05)
        assert upper == pytest.approx(refdata.GOLDEN_CI_EXCLUDED[1], abs=0.05)

    def test_deterministic_for_seed(self):
        a = bootstrap_ci(*summary_columns(), resamples=2000, seed=42)
        b = bootstrap_ci(*summary_columns(), resamples=2000, seed=42)
        assert a == b
        c = bootstrap_ci(*summary_columns(), resamples=2000, seed=43)
        assert a != c

    def test_resample_count_stability(self):
        small = bootstrap_ci(*summary_columns(), resamples=10**4, seed=0)
        large = bootstrap_ci(*summary_columns(), resamples=10**5, seed=0)
        assert abs(small[0] - large[0]) < 0.01
        assert abs(small[1] - large[1]) < 0.01

    def test_too_few_resamples_rejected(self):
        with pytest.raises(StatsError):
            bootstrap_ci(*summary_columns(), resamples=100, seed=0)

    def test_constant_column_rejected_before_the_draw(self):
        # every resample of a constant column is degenerate, so a draw would
        # give another message; the size checks come first
        x, y = (1.0, 2.0, 3.0), (0.5, 0.5, 0.5)
        with pytest.raises(StatsError, match="^correlation undefined: constant column$"):
            bootstrap_ci(x, y, resamples=1000, seed=0)
        with pytest.raises(StatsError, match="^need at least 1000 resamples, got 999$"):
            bootstrap_ci(x, y, resamples=999, seed=0)
        with pytest.raises(StatsError, match="^need at least 3 pairs to bootstrap, got 2$"):
            bootstrap_ci(x[:2], y[:2], resamples=999, seed=0)

    def test_mostly_degenerate_resamples_rejected(self):
        # 15 of the 27 index triples leave x or y constant
        with pytest.raises(StatsError, match="degenerate"):
            bootstrap_ci((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), resamples=1000, seed=0)


class TestSummaries:
    def test_reference_column_summaries(self):
        rows = [ComparisonRow(pid, m, mm, j, o) for pid, m, mm, j, o in zip(
            refdata.SUMMARY_POSITIONS, refdata.SUMMARY_M, refdata.SUMMARY_MAXM,
            refdata.SUMMARY_JSD, refdata.SUMMARY_OVERLAP)]
        summary = summarize(rows, ComparisonRow._fields[1:])
        for column, (mean, std) in refdata.GOLDEN_SUMMARY_MEAN_STD.items():
            got_mean, got_std = summary[column]
            assert got_mean == pytest.approx(mean, abs=0.001)
            assert got_std == pytest.approx(std, abs=0.002)

    def test_expected_score_summaries(self):
        mean, std = mean_std(refdata.EXPECTED_HUMAN)
        assert mean == pytest.approx(refdata.GOLDEN_EXPECTED_HUMAN_MEAN_STD[0], abs=0.01)
        assert std == pytest.approx(refdata.GOLDEN_EXPECTED_HUMAN_MEAN_STD[1], abs=0.01)
        mean, std = mean_std(refdata.EXPECTED_ENGINE)
        assert mean == pytest.approx(refdata.GOLDEN_EXPECTED_ENGINE_MEAN_STD[0], abs=0.01)
        assert std == pytest.approx(refdata.GOLDEN_EXPECTED_ENGINE_MEAN_STD[1], abs=0.01)

    def test_named_columns_of_expected_score_rows(self):
        rows = [ExpectedScoreRow(str(i), "w", human, 10, engine, 10) for i, (human, engine)
                in enumerate(zip(refdata.EXPECTED_HUMAN, refdata.EXPECTED_ENGINE))]
        rows.append(ExpectedScoreRow("none", "b", None, None, None, None))
        assert summarize(rows, ("score1", "score2")) == {
            "score1": mean_std([r.score1 for r in rows[:-1]]),
            "score2": mean_std([r.score2 for r in rows[:-1]])}

    def test_all_equal_column_has_zero_std(self):
        assert mean_std([3.0, 3.0, 3.0]) == (3.0, 0.0)

    def test_undefined_cells_excluded(self):
        rows = [ComparisonRow("a", 0.5, 2.0, None, 0.5),
                ComparisonRow("b", 0.7, 2.0, None, 0.7),
                ComparisonRow("c", None, 2.0, None, 0.9)]
        summary = summarize(rows, ComparisonRow._fields[1:])
        assert summary["m_measure"] == pytest.approx((0.6, 0.1414), abs=1e-3)
        assert summary["jsd"] is None


def whole_matrix_pearson_bootstrap(x, y, resamples, seed):
    """Reference: every resample's Pearson value from one full-matrix pass."""
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    indices = np.random.Generator(np.random.PCG64(seed)).integers(
        0, len(x), size=(resamples, len(x)))
    xs = x[indices]
    ys = y[indices]
    xm = xs - xs.mean(axis=1, keepdims=True)
    ym = ys - ys.mean(axis=1, keepdims=True)
    denominator = np.sqrt((xm * xm).sum(axis=1) * (ym * ym).sum(axis=1))
    valid = denominator > 0.0
    values = (xm * ym).sum(axis=1)[valid] / denominator[valid]
    lower, upper = np.quantile(values, [0.025, 0.975])
    return float(lower), float(upper)


def correlated_columns(n):
    rng = np.random.Generator(np.random.PCG64(1000 + n))
    x = rng.random(n)
    y = 0.6 * x + 0.4 * rng.random(n)
    return tuple(x), tuple(y)


class TestBootstrapBits:
    """The Pearson fast path gives the bits of a whole-matrix pass."""

    @pytest.mark.parametrize("seed", [0, 7, 11])
    @pytest.mark.parametrize("n", [3, 127, 128, 129, 400])
    @pytest.mark.parametrize("resamples", [1000, 1001, 10000])
    def test_interval_bit_identical(self, seed, n, resamples):
        x, y = correlated_columns(n)
        assert bootstrap_ci(x, y, resamples=resamples, seed=seed) == \
            whole_matrix_pearson_bootstrap(x, y, resamples, seed)

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_many_degenerate_resamples_bit_identical(self, seed):
        # a constant x or y column in about 40% of the resamples
        x, y = (1.0, 1.0, 2.0), (1.0, 2.0, 3.0)
        assert bootstrap_ci(x, y, resamples=10000, seed=seed) == \
            whole_matrix_pearson_bootstrap(x, y, 10000, seed)


@given(st.integers(1, 3000), st.integers(0, 2**32 - 1), st.integers(0, 17),
       st.sampled_from([0.025, 0.5, 0.975]))
@example(1, 0, 17, 0.025)
@example(2, 0, 0, 0.975)
@settings(max_examples=300, deadline=None)
def test_quantile_matches_numpy_bit_for_bit(n, seed, digits, q):
    # values like correlations, rounded to ``digits`` places: few places, many
    # ties. Adding 0.0 turns -0.0 into 0.0: the two compare equal, so which of
    # them a sort puts first is not defined, yet their bits differ
    values = np.round(np.random.default_rng(seed).uniform(-1.0, 1.0, n), digits) + 0.0
    ours = _quantile(np.sort(values), q)
    assert np.float64(ours).tobytes() == np.float64(np.quantile(values, q)).tobytes()


def _outcome(correlate, *args):
    """The bits of ``correlate(*args)``, or the message of its StatsError."""
    try:
        return np.float64(correlate(*args)).tobytes()
    except StatsError as exc:
        return str(exc)


# few distinct values, so that ties and constant columns come up often
_PEARSON_VALUES = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, 0.1, 1.0, -3.0]))


@given(st.lists(st.tuples(_PEARSON_VALUES, _PEARSON_VALUES), min_size=2, max_size=300))
@example([(1.0, 0.0), (1.0, 2.0), (1.0, 5.0)])
@example([(0.0, 1.0), (0.1, 1.0)])
@example([(0.1, 0.1), (0.2, 0.3), (0.3, 0.2)])
@settings(max_examples=400, deadline=None)
def test_pearson_matches_the_one_vector_formula(pairs):
    x, y = zip(*pairs)
    assert _outcome(pearson, x, y) == _outcome(oracles.pearson_xy, x, y)
