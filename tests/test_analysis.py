"""Tests for the analysis toolkit: stats, tables, plots, ratios."""

import math

import pytest

from repro.analysis import (
    ascii_histogram,
    ascii_plot,
    compare_algorithms,
    confidence_interval,
    describe,
    format_markdown,
    format_table,
    geometric_mean,
    mean,
    measure_ratio,
    quantile,
    std,
    write_csv,
)
from repro.analysis.stats import _t_quantile
from repro.errors import InvalidInstanceError
from repro.workloads import uniform_instance


class TestStats:
    def test_mean_std(self):
        assert mean([1, 2, 3]) == 2
        assert std([2, 4]) == pytest.approx(math.sqrt(2))
        assert std([5]) == 0.0

    def test_mean_empty(self):
        with pytest.raises(InvalidInstanceError):
            mean([])

    def test_confidence_interval_contains_mean(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        lo, hi = confidence_interval(xs)
        assert lo < 3.0 < hi

    def test_ci_single_sample(self):
        assert confidence_interval([7.0]) == (7.0, 7.0)

    def test_describe(self):
        s = describe([1.0, 2.0, 3.0])
        assert s.n == 3
        assert s.minimum == 1.0 and s.maximum == 3.0
        assert s.ci_low <= s.mean <= s.ci_high
        assert "mean" in str(s)

    def test_quantile(self):
        xs = [1, 2, 3, 4, 5]
        assert quantile(xs, 0) == 1
        assert quantile(xs, 1) == 5
        assert quantile(xs, 0.5) == 3
        assert quantile(xs, 0.25) == 2
        with pytest.raises(InvalidInstanceError):
            quantile(xs, 2)

    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        with pytest.raises(InvalidInstanceError):
            geometric_mean([1, 0])

    def test_small_sample_ci_uses_student_t(self):
        # n = 5: the 95% half-width is t(4) = 2.7764, not the normal 1.96
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        lo, hi = confidence_interval(xs)
        assert hi - 3.0 == pytest.approx(2.7764451052 * std(xs) / math.sqrt(5))
        assert 3.0 - lo == pytest.approx(hi - 3.0)

    def test_ci_rejects_confidence_outside_unit_interval(self):
        with pytest.raises(InvalidInstanceError):
            confidence_interval([1.0, 2.0], confidence=1.5)
        with pytest.raises(InvalidInstanceError):
            confidence_interval([7.0], confidence=0.0)


#: Two-sided Student-t critical values t(df, confidence) from the
#: standard printed table (four decimals).
_T_TABLE = {
    1: (6.3138, 12.7062, 63.6567),
    2: (2.9200, 4.3027, 9.9248),
    5: (2.0150, 2.5706, 4.0321),
    10: (1.8125, 2.2281, 3.1693),
    30: (1.6973, 2.0423, 2.7500),
    120: (1.6577, 1.9799, 2.6174),
}


class TestTQuantile:
    @pytest.mark.parametrize("df", sorted(_T_TABLE))
    @pytest.mark.parametrize("column,confidence",
                             enumerate((0.90, 0.95, 0.99)))
    def test_matches_published_table(self, df, column, confidence):
        assert round(_t_quantile(df, confidence), 4) == _T_TABLE[df][column]

    @pytest.mark.parametrize("confidence",
                             [1e-6, 0.1, 0.5, 0.9, 0.95, 0.99, 0.9999])
    def test_one_degree_of_freedom_is_cauchy(self, confidence):
        # t with df = 1 is the Cauchy law: t = tan(pi c / 2), written as
        # cot(pi (1 - c) / 2) so c near 1 does not lose digits
        expected = 1.0 / math.tan(math.pi * (1.0 - confidence) / 2.0)
        assert _t_quantile(1, confidence) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 7, 10, 29, 30, 120, 1000, 10**5])
    def test_matches_scipy(self, df):
        stats = pytest.importorskip("scipy.stats")
        for confidence in (0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999):
            expected = float(stats.t.ppf(0.5 + confidence / 2, df))
            assert _t_quantile(df, confidence) == pytest.approx(
                expected, rel=1e-9, abs=0
            ), (df, confidence)

    @pytest.mark.parametrize("confidence",
                             [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_rejects_confidence_outside_unit_interval(self, confidence):
        with pytest.raises(InvalidInstanceError, match="confidence"):
            _t_quantile(5, confidence)

    @pytest.mark.parametrize("df", [0, 0.5, -3, float("inf"), float("nan")])
    def test_rejects_bad_degrees_of_freedom(self, df):
        with pytest.raises(InvalidInstanceError, match="degrees of freedom"):
            _t_quantile(df, 0.95)


class TestTables:
    ROWS = [
        {"name": "lsrc", "ratio": 1.25, "ok": True},
        {"name": "fcfs", "ratio": 2.0, "ok": False},
    ]

    def test_format_table_alignment(self):
        text = format_table(self.ROWS, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "lsrc" in text and "fcfs" in text
        assert "yes" in text and "no" in text  # bool rendering

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_markdown(self):
        md = format_markdown(self.ROWS)
        assert md.startswith("| name | ratio | ok |")
        assert "|---|---|---|" in md

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        text = write_csv(self.ROWS, str(path))
        assert path.read_text() == text
        assert text.splitlines()[0] == "name,ratio,ok"
        assert len(text.splitlines()) == 3

    def test_column_selection(self):
        text = format_table(self.ROWS, columns=["ratio"])
        assert "lsrc" not in text


class TestPlotting:
    def test_ascii_plot_contains_series(self):
        series = {
            "up": [(x / 10, x / 10) for x in range(11)],
            "down": [(x / 10, 1 - x / 10) for x in range(11)],
        }
        chart = ascii_plot(series, width=40, height=10)
        assert "up" in chart and "down" in chart
        assert "*" in chart and "+" in chart

    def test_y_clipping(self):
        series = {"explodes": [(x / 10, 10.0**x) for x in range(1, 8)]}
        chart = ascii_plot(series, width=30, height=8, y_max=100)
        assert "explodes" in chart

    def test_plot_validation(self):
        with pytest.raises(InvalidInstanceError):
            ascii_plot({})
        with pytest.raises(InvalidInstanceError):
            ascii_plot({"x": [(0, 0)]}, width=2, height=2)

    def test_histogram(self):
        text = ascii_histogram([1, 1, 2, 3, 3, 3], bins=3, title="demo")
        assert text.startswith("demo")
        assert "#" in text

    def test_histogram_empty(self):
        with pytest.raises(InvalidInstanceError):
            ascii_histogram([])


class TestRatioMeasurement:
    def test_measure_against_lb(self):
        instances = [uniform_instance(10, 8, seed=s) for s in range(4)]
        report = measure_ratio("lsrc", instances, reference="lb")
        assert len(report.samples) == 4
        assert all(s.ratio >= 1.0 - 1e-9 for s in report.samples)
        assert report.worst.ratio == max(s.ratio for s in report.samples)
        row = report.as_row()
        assert row["algorithm"] == "lsrc"

    def test_measure_against_opt(self):
        instances = [uniform_instance(5, 4, seed=s) for s in range(3)]
        report = measure_ratio("lsrc", instances, reference="opt")
        # vs the true optimum the ratio is within Graham's bound
        for s in report.samples:
            assert 1.0 - 1e-9 <= s.ratio <= 2.0

    def test_compare_algorithms(self):
        instances = [uniform_instance(8, 8, seed=s) for s in range(3)]
        rows = compare_algorithms(["lsrc", "fcfs"], instances)
        assert [r["algorithm"] for r in rows] == ["lsrc", "fcfs"]

    def test_bad_reference(self):
        with pytest.raises(InvalidInstanceError):
            measure_ratio("lsrc", [], reference="vibes")
