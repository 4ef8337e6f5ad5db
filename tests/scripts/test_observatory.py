"""Tests for the cross-run observatory dashboard."""

import importlib
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent
SCRIPTS = REPO / "scripts"


@pytest.fixture(scope="module")
def dash():
    """Import scripts/obs_dashboard.py as a module."""
    sys.path.insert(0, str(SCRIPTS))
    try:
        return importlib.import_module("obs_dashboard")
    finally:
        sys.path.remove(str(SCRIPTS))


def _telemetry_events(queries=531.0, wall=0.5, with_summary=True):
    events = [
        {"event": "span", "path": "experiment.e3", "depth": 0,
         "wall_s": wall, "status": "ok", "metrics": {"oracle.calls": queries}},
        {"event": "row", "table": "E3 / Theorem 1.3 - queries",
         "span_path": "experiment.e3", "meta": {"m": 1580, "k": 20},
         "values": {"eps": 0.6, "queries": queries, "bound": 219.4},
         "wall_s": wall},
        {"event": "row", "table": "E1b / Theorem 1.1 - bits",
         "span_path": "experiment.e3",
         "values": {"eps": 0.25, "n": 8, "beta": 1, "mean_bits": 1216.0,
                    "envelope": 32.0}},
        {"event": "bound_check", "spec": "thm13.queries", "theorem": "Thm 1.3",
         "kind": "row", "status": "pass", "measured": queries,
         "predicted": 219.4, "ratio": queries / 219.4},
    ]
    if with_summary:
        events.append(
            {"event": "summary",
             "metrics": {"counters": {"oracle.calls": queries},
                         "gauges": {}, "histograms": {}}}
        )
    return events


def _store_with_runs(root, queries=(531.0, 600.0)):
    """An experiment store with one telemetry commit per query count."""
    from repro.obs.store import ExperimentStore

    store = ExperimentStore.init(root)
    for n, value in enumerate(queries):
        events = _telemetry_events(queries=value)
        blob = "".join(json.dumps(e) + "\n" for e in events).encode()
        store.commit_artifacts(
            {"telemetry.jsonl": (blob, "telemetry")},
            message=f"run {n}",
            timestamp=1000.0 + n,
        )
    return store


class TestCondenseRun:
    def test_summarises_all_sections(self, dash, tmp_path):
        events = _telemetry_events()
        record = dash.condense_run(events, label="pr3", source="t.jsonl")
        assert record["label"] == "pr3"
        assert not record["partial"]
        assert record["spans"]["experiment.e3"]["count"] == 1
        assert record["metrics"]["oracle.calls"] == 531.0
        assert len(record["rows"]) == 2
        assert record["rows"][0]["meta"] == {"m": 1580, "k": 20}
        (check,) = record["bound_checks"]
        assert check["spec"] == "thm13.queries"
        assert "event" not in check

    def test_partial_flag(self, dash):
        record = dash.condense_run(_telemetry_events(with_summary=False))
        assert record["partial"]


class TestAsciiPlot:
    def test_plots_points_and_axes(self, dash):
        lines = dash.ascii_plot(
            [("*", [(0.1, 100.0), (0.2, 25.0), (0.4, 6.0)]),
             ("o", [(0.1, 50.0), (0.4, 3.0)])]
        )
        joined = "\n".join(lines)
        assert "*" in joined and "o" in joined
        assert "100" in joined  # y-axis max label
        assert "0.1" in joined and "0.4" in joined  # x-axis labels

    def test_overlap_marker(self, dash):
        lines = dash.ascii_plot(
            [("*", [(1.0, 1.0), (2.0, 2.0)]), ("o", [(1.0, 1.0)])]
        )
        assert any("@" in line for line in lines)

    def test_empty_series(self, dash):
        assert dash.ascii_plot([("*", [])]) == ["(no data)"]


class TestDashboard:
    def _runs(self, dash, slow_factor=1.0, queries=531.0):
        base = dash.condense_run(_telemetry_events(), label="pr2")
        other = dash.condense_run(
            _telemetry_events(queries=queries, wall=0.5 * slow_factor),
            label="pr3",
        )
        return [base, other]

    def test_markdown_sections(self, dash):
        text = dash.render_markdown(self._runs(dash))
        assert "# Observability dashboard" in text
        assert "Thm 1.1 - for-each sketch bits vs eps" in text
        assert "VERIFY-GUESS queries vs eps" in text
        assert "Bound certification" in text
        assert "all bounds hold" in text
        assert "Span wall-time trends" in text
        assert "Regression verdict" in text

    def test_single_run_has_no_verdict(self, dash):
        runs = [dash.condense_run(_telemetry_events(), label="only")]
        assert "Need at least two ingested runs" in dash.render_markdown(runs)

    def test_regression_flagged_on_slow_span(self, dash):
        text = dash.render_markdown(self._runs(dash, slow_factor=3.0))
        assert "REGRESSION" in text
        assert "span timing regression" in text

    def test_ok_verdict_when_stable(self, dash):
        text = dash.render_markdown(self._runs(dash))
        assert "pr2 -> pr3: OK" in text

    def test_metric_regression_flagged_above_threshold(self, dash):
        # 531 -> 600 queries is a +13% move, well past the 5% band.
        text = dash.render_markdown(self._runs(dash, queries=600.0))
        assert "REGRESSION" in text
        assert "1 metric regression(s): oracle.calls" in text
        assert "metric verdicts" in text
        assert "REGRESSED" in text

    def test_metric_within_threshold_is_neutral(self, dash):
        text = dash.render_markdown(self._runs(dash, queries=531.0 * 1.04))
        assert "pr2 -> pr3: OK" in text
        assert "NEUTRAL" in text

    def test_metric_exactly_at_threshold_is_neutral(self, dash):
        runs = self._runs(dash)
        # Pin exact values: (105 - 100) / 100 is the 5% band edge, which
        # classify() keeps NEUTRAL.
        runs[0]["metrics"]["oracle.calls"] = 100.0
        runs[1]["metrics"]["oracle.calls"] = 105.0
        text = dash.render_markdown(runs)
        assert "pr2 -> pr3: OK" in text
        assert "metric regression" not in text

    def test_metric_improvement_is_not_a_problem(self, dash):
        text = dash.render_markdown(self._runs(dash, queries=400.0))
        assert "pr2 -> pr3: OK" in text
        assert "IMPROVED" in text

    def test_missing_metric_is_neutral_with_note(self, dash):
        runs = self._runs(dash)
        runs[0]["metrics"]["legacy.counter"] = 5.0
        text = dash.render_markdown(runs)
        assert "pr2 -> pr3: OK" in text
        assert "legacy.counter" in text
        assert "gone" in text

    def test_html_rendering(self, dash):
        html_text = dash.render_html(
            dash.render_markdown(self._runs(dash))
        )
        assert html_text.startswith("<!DOCTYPE html>")
        assert "<pre>" in html_text and "</pre>" in html_text
        assert "<h1>Observability dashboard</h1>" in html_text

    def test_main_writes_dashboard_files(
        self, dash, tmp_path, capsys, monkeypatch
    ):
        # The default store and output locations, both under .obs/.
        monkeypatch.chdir(tmp_path)
        _store_with_runs(tmp_path / ".obs" / "store")
        monkeypatch.setattr(sys, "argv", ["obs_dashboard.py"])
        assert dash.main() == 0
        text = (tmp_path / ".obs" / "dashboard.md").read_text()
        assert (tmp_path / ".obs" / "dashboard.html").exists()
        assert "Regression verdict" in text
        # 531 -> 600 queries across the two commits is a metric regression.
        assert "1 metric regression(s): oracle.calls" in text

    def test_main_errors_without_history(
        self, dash, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            sys, "argv",
            ["obs_dashboard.py", "--store", str(tmp_path / "none")],
        )
        assert dash.main() == 1
        assert "no runs" in capsys.readouterr().err


class TestStoreBackedDashboard:
    def test_runs_from_store_condenses_each_commit(self, dash, tmp_path):
        store = _store_with_runs(tmp_path / "store")
        runs = dash.runs_from_store(store.root)
        assert len(runs) == 2
        assert runs[0]["metrics"]["oracle.calls"] == 531.0
        assert runs[1]["metrics"]["oracle.calls"] == 600.0
        assert runs[0]["source"] == "store:run 0"
        assert runs[0]["ingested_at"] == 1000.0

    def test_main_prefers_store_when_present(
        self, dash, tmp_path, capsys, monkeypatch
    ):
        store = _store_with_runs(tmp_path / "store")
        monkeypatch.setattr(
            sys, "argv",
            ["obs_dashboard.py", "--store", str(store.root),
             "--out-dir", str(tmp_path)],
        )
        assert dash.main() == 0
        text = (tmp_path / "dashboard.md").read_text()
        # 531 -> 600 queries across the two commits is a metric regression.
        assert "1 metric regression(s): oracle.calls" in text
