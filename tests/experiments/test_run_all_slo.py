"""Tests for run_all's --slo / --live-export / --live-port surface."""

import json
import urllib.request

import pytest

from repro.experiments.run_all import (
    EXIT_SLO_BREACH,
    EXIT_STORE_FAILURE,
    main,
)
from tests.obs.released import assert_obs_released


class TestSloExitCodes:
    def test_breached_rule_exits_6(self, tmp_path, capsys):
        # e7 always calls the CSR max-flow kernel, so a ceiling of 0 on
        # its call counter must breach.
        assert main(
            ["e7", "--no-telemetry", "--slo=metric:csr.maxflow.calls<=0"]
        ) == EXIT_SLO_BREACH
        captured = capsys.readouterr()
        assert "== SLO ==" in captured.out
        assert "slo BREACH:" in captured.out
        assert "slo.violation" in captured.out
        assert "SLO breach" in captured.err

    def test_honored_rule_exits_0(self, capsys):
        assert main(
            ["e7", "--no-telemetry", "--slo=metric:csr.maxflow.calls<=1e9"]
        ) == 0
        captured = capsys.readouterr()
        assert "== SLO ==" in captured.out
        assert "slo ok:" in captured.out
        assert "BREACH" not in captured.out

    def test_default_rules_pass_on_healthy_run(self, capsys):
        # Bare --slo: every certified bound's margin floor + stall.
        assert main(["e7", "--no-telemetry", "--slo"]) == 0
        captured = capsys.readouterr()
        assert "slo: " in captured.out
        assert "slo rule:" in captured.err

    def test_malformed_spec_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["e7", "--no-telemetry", "--slo=widget:a<=1"])
        assert excinfo.value.code == 2

    def test_baseline_rule_without_store_exits_5(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)  # no .obs/store here
        assert main(
            ["e7", "--no-telemetry",
             "--slo=baseline:metric:csr.maxflow.calls<=1.1x@HEAD"]
        ) == EXIT_STORE_FAILURE
        assert "experiment store" in capsys.readouterr().err
        assert_obs_released()


class TestSloTelemetry:
    def test_breach_lands_in_telemetry(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(
            ["e7", "--telemetry", str(path),
             "--slo=metric:csr.maxflow.calls<=0"]
        ) == EXIT_SLO_BREACH
        capsys.readouterr()
        violations = [
            json.loads(line) for line in path.read_text().splitlines()
            if json.loads(line).get("event") == "slo.violation"
        ]
        assert len(violations) == 1
        assert violations[0]["target"] == "csr.maxflow.calls"
        assert violations[0]["threshold"] == 0.0

    def test_stdout_tables_unchanged_by_slo(self, capsys):
        # The digest contract: experiment tables render identically
        # with and without the live machinery attached.
        assert main(["e7", "--no-telemetry"]) == 0
        plain = capsys.readouterr().out
        assert main(
            ["e7", "--no-telemetry", "--slo=metric:csr.maxflow.calls<=1e9"]
        ) == 0
        watched = capsys.readouterr().out
        assert watched.startswith(plain.rstrip("\n"))


class TestLiveExport:
    def test_live_export_streams_records(self, tmp_path, capsys):
        export = tmp_path / "live.jsonl"
        assert main(
            ["e7", "--no-telemetry", "--live-export", str(export)]
        ) == 0
        captured = capsys.readouterr()
        assert "live export:" in captured.err
        assert str(export) not in captured.out  # stderr only
        records = [
            json.loads(line) for line in export.read_text().splitlines()
        ]
        kinds = {r["event"] for r in records}
        assert "span" in kinds and "row" in kinds

    def test_unopenable_export_exits_3(self, tmp_path, capsys):
        export = tmp_path / "no_such_dir" / "live.jsonl"
        assert main(
            ["e7", "--no-telemetry", "--live-export", str(export)]
        ) == 3
        assert "cannot open live export" in capsys.readouterr().err
        assert_obs_released()


class TestLivePort:
    def test_metrics_endpoint_serves_during_setup(self, tmp_path, capsys,
                                                  monkeypatch):
        # Port 0 binds ephemerally; the URL is announced on stderr.
        monkeypatch.chdir(tmp_path)
        assert main(["e7", "--no-telemetry", "--live-port", "0"]) == 0
        err = capsys.readouterr().err
        assert "live metrics: http://127.0.0.1:" in err

    def test_endpoint_scrapes_while_running(self, capsys, monkeypatch):
        # A probe experiment scrapes its own run's endpoint mid-run:
        # the exposition must already carry live registry state.
        import socket

        from repro.experiments import run_all as run_all_mod
        from repro.experiments.harness import Table

        probe_sock = socket.socket()
        probe_sock.bind(("127.0.0.1", 0))
        port = probe_sock.getsockname()[1]
        probe_sock.close()
        scraped = {}

        def _probe():
            base = f"http://127.0.0.1:{port}"
            with urllib.request.urlopen(
                base + "/metrics", timeout=5
            ) as resp:
                scraped["metrics"] = resp.read().decode()
            with urllib.request.urlopen(
                base + "/snapshot", timeout=5
            ) as resp:
                scraped["snapshot"] = json.loads(resp.read().decode())
            table = Table(title="probe", columns=["ok"])
            table.add_row(ok=1)
            return [table]

        monkeypatch.setitem(run_all_mod.REGISTRY, "e0probe", _probe)
        assert main(
            ["e0probe", "--no-telemetry", "--live-port", str(port)]
        ) == 0
        capsys.readouterr()
        assert scraped["metrics"].startswith("# TYPE repro_")
        assert "repro_live_workers" in scraped["metrics"]
        assert scraped["snapshot"]["window_s"] > 0


class TestFlushEvery:
    def test_explicit_flush_every_accepted(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(
            ["e7", "--telemetry", str(path), "--flush-every", "5"]
        ) == 0
        capsys.readouterr()
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_zero_flush_every_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["e7", "--telemetry", str(tmp_path / "t.jsonl"),
                  "--flush-every", "0"])
