"""Tests for the table/figure runners: Table I, Table II, Figs. 1 and 16."""

import pytest

from repro.experiments import (
    DefenseInDepthConfig,
    ScalingConfig,
    datasets_table,
    defense_in_depth,
    format_kv,
    format_series,
    format_table,
    motivation_study,
    scaling_study,
)


class TestDatasetsTable:
    def test_all_rows_present(self):
        result = datasets_table(scale=0.03)
        assert [row.name for row in result.rows] == [
            "facebook",
            "ca-HepTh",
            "ca-AstroPh",
            "email-Enron",
            "soc-Epinions",
            "soc-Slashdot",
            "synthetic",
        ]

    def test_measured_values_sane(self):
        result = datasets_table(scale=0.05, names=["facebook", "synthetic"])
        for row in result.rows:
            assert row.nodes > 0
            assert row.edges > row.nodes  # both datasets have m ~ 4
            assert 0 <= row.clustering <= 1
            assert row.diameter >= 2

    def test_clustering_ordering_matches_paper(self):
        """The high-clustering stand-ins must measure above the
        low-clustering ones, preserving Table I's ordering."""
        result = datasets_table(
            scale=0.1, names=["facebook", "soc-Slashdot", "synthetic"]
        )
        by_name = {row.name: row for row in result.rows}
        assert by_name["facebook"].clustering > by_name["soc-Slashdot"].clustering
        assert by_name["facebook"].clustering > by_name["synthetic"].clustering

    def test_render(self):
        result = datasets_table(scale=0.03, names=["facebook"])
        text = result.render()
        assert "facebook" in text
        assert "paper cc" in text


class TestMotivation:
    def test_figure1_series_shape(self):
        result = motivation_study()
        assert len(result.friends) == 43
        assert len(result.pending) == 43
        assert all(f >= 50 for f in result.friends)
        # Every account has a significant pending pile (the paper's
        # observed range is 16.7%-67.9%).
        assert all(0.1 < frac < 0.72 for frac in result.pending_fractions)

    def test_render_mentions_paper_totals(self):
        text = motivation_study().render()
        assert "2804" in text and "2065" in text


class TestDefenseInDepth:
    @pytest.fixture(scope="class")
    def result(self):
        return defense_in_depth(
            DefenseInDepthConfig(
                num_legit=400,
                removal_fractions=(0.0, 0.25, 0.5),
                k_steps=8,
            )
        )

    def test_budgets_resolve_to_counts(self, result):
        assert result.removal_budgets == [0, 100, 200]

    def test_auc_improves_with_removal(self, result):
        """Fig. 16's claim: removing Rejecto's detections improves
        SybilRank's ranking quality."""
        assert result.auc_values[-1] > result.auc_values[0]
        assert result.auc_values[-1] > 0.9

    def test_removals_are_mostly_fakes(self, result):
        assert result.removed_fakes[-1] > 0.9 * result.removal_budgets[-1]

    def test_render(self, result):
        text = result.render()
        assert "SybilRank AUC" in text


class TestScaling:
    def test_rows_and_linearity(self):
        config = ScalingConfig(user_counts=(300, 600, 1200), k_steps=2)
        results = [scaling_study(config) for _ in range(3)]
        for result in results:
            assert [row.users for row in result.rows] == [300, 600, 1200]
            assert all(row.wall_seconds > 0 for row in result.rows)
            assert all(row.network_messages > 0 for row in result.rows)
        # Near-linear scaling: per-edge cost within a loose constant band
        # across a 4x size range (Table II's qualitative claim). Each size
        # is timed as the fastest of three runs, so one stalled run on a
        # loaded machine does not decide the ratio.
        per_edge = [
            min(result.rows[i].microseconds_per_edge for result in results)
            for i in range(len(config.user_counts))
        ]
        assert max(per_edge) < 12 * min(per_edge)

    def test_render(self):
        result = scaling_study(ScalingConfig(user_counts=(300,), k_steps=2))
        assert "Table II" in result.render()


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "2.500" in text

    def test_format_series(self):
        text = format_series("x", [1, 2], {"s": [0.1, 0.2]}, title="T")
        assert text.startswith("T")
        assert "0.200" in text

    def test_format_kv(self):
        text = format_kv({"key": 1, "longer": "v"}, title="KV")
        assert "KV" in text and "longer" in text
