"""Tests for the gate registry in scripts/bench_report.py and the
failure paths of scripts/cut_bench.py.

Every gate here is a fake or runs with its timer monkeypatched, so no
test times real work or runs ``run_all``.
"""

import importlib
import json
import shutil
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent
SCRIPTS = REPO / "scripts"


def _import(name):
    sys.path.insert(0, str(SCRIPTS))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(SCRIPTS))


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """bench_report with its repository root moved to ``tmp_path``."""
    module = _import("bench_report")
    monkeypatch.setattr(module, "REPO", tmp_path)
    return module


def _fake_gate(bench, verdict):
    def gate(quick):
        yield bench.check(
            "fake requirement", 1.0, ">= 2.0", ok=verdict == "pass",
            skip="no such hardware here" if verdict == "skipped" else None,
        )

    return gate


def _report(tmp_path):
    return json.loads((tmp_path / ".bench" / "report.json").read_text())


def _fast_obs_guard(bench, monkeypatch, seconds):
    """obs_guard with no workload and every timing reading ``seconds``."""
    monkeypatch.setattr(bench, "median_time", lambda fn, repeats=5: seconds)
    monkeypatch.setattr(bench, "guard_workload", lambda: (None,) * 4)


@pytest.mark.parametrize(
    "verdict,code", [("pass", 0), ("fail", 1), ("skipped", 0)]
)
def test_verdict_sets_exit_code(bench, monkeypatch, tmp_path, verdict, code):
    monkeypatch.setattr(bench, "GATES", {"fake": _fake_gate(bench, verdict)})
    assert bench.main(["--gate", "fake"]) == code
    (entry,) = _report(tmp_path)["gates"]["fake"]
    assert entry["verdict"] == verdict
    assert set(entry) == {"requirement", "value", "bound", "verdict", "reason"}


def test_skipped_entry_has_reason_and_no_passed_flag(bench, monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "GATES", {"fake": _fake_gate(bench, "skipped")})
    bench.main([])
    (entry,) = _report(tmp_path)["gates"]["fake"]
    assert entry["reason"] == "no such hardware here"
    assert "passed" not in (tmp_path / ".bench" / "report.json").read_text()


def test_only_selected_gates_run(bench, monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "GATES", {
        "good": _fake_gate(bench, "pass"),
        "bad": _fake_gate(bench, "fail"),
    })
    assert bench.main(["--gate", "good"]) == 0
    assert list(_report(tmp_path)["gates"]) == ["good"]


def test_raising_gate_fails_and_keeps_earlier_checks(bench, monkeypatch, tmp_path):
    def broken(quick):
        yield bench.check("measured first")
        raise RuntimeError("daemon died")

    monkeypatch.setattr(bench, "GATES", {"broken": broken})
    assert bench.main([]) == 1
    first, last = _report(tmp_path)["gates"]["broken"]
    assert first["verdict"] == "pass"
    assert last["verdict"] == "fail"
    assert last["reason"] == "RuntimeError: daemon died"


def test_unknown_gate_exits_2(bench):
    with pytest.raises(SystemExit) as exc:
        bench.main(["--gate", "no_such_gate"])
    assert exc.value.code == 2


def test_header_names_the_machine(bench, monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "GATES", {"fake": _fake_gate(bench, "pass")})
    bench.main([])
    header = _report(tmp_path)["header"]
    assert {"cores", "python", "platform", "kernels"} <= set(header)


@pytest.mark.parametrize("baseline", [None, "not json"])
def test_obs_guard_without_baseline_is_skipped(
    bench, monkeypatch, tmp_path, baseline
):
    if baseline is not None:
        (tmp_path / "BENCH_PR1.json").write_text(baseline)
    _fast_obs_guard(bench, monkeypatch, 0.01)
    idle, guard = bench.run_gate("obs_guard", quick=False)
    assert idle["verdict"] == "pass"
    assert guard["verdict"] == "skipped"
    assert guard["reason"] == "no BENCH_PR1 baseline"


def test_obs_guard_fails_over_its_baseline(bench, monkeypatch, tmp_path):
    shutil.copy(REPO / "BENCH_PR1.json", tmp_path)
    baseline = bench.pr1_baseline()
    _fast_obs_guard(bench, monkeypatch, baseline * 1.2)
    _, guard = bench.run_gate("obs_guard", quick=False)
    assert guard["verdict"] == "fail"
    assert guard["value"] == pytest.approx(1.2)


def test_run_leaves_committed_bench_files_alone(bench, monkeypatch, tmp_path):
    committed = sorted(REPO.glob("BENCH_PR*.json"))
    assert committed
    for path in committed:
        shutil.copy(path, tmp_path)
    _fast_obs_guard(bench, monkeypatch, 0.01)
    monkeypatch.setattr(bench, "GATES", {
        "obs_guard": bench.gate_obs_guard,
        "fake": _fake_gate(bench, "pass"),
    })
    assert bench.main([]) == 0
    for path in committed:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes()
    written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")}
    assert written - {p.name for p in committed} == {".bench", ".bench/report.json"}


def _silent_worker(queue):
    """A load-generator process that exits without putting a result."""


def test_load_generator_without_result_times_out(monkeypatch):
    cut_bench = _import("cut_bench")
    monkeypatch.setattr(cut_bench, "LOADGEN_TIMEOUT_S", 0.5)
    with pytest.raises(RuntimeError, match="gave no result"):
        cut_bench._run_workers(_silent_worker, [()])


def test_daemon_cleans_up_when_announcement_fails(monkeypatch, tmp_path):
    cut_bench = _import("cut_bench")
    started = []

    class FakeProc:
        def __init__(self, argv, stderr, env):
            self.stderr, self.terminated = stderr, False
            started.append(self)

        def terminate(self):
            self.terminated = True

        def wait(self, timeout=None):
            return 0

    def no_announcement(*args, **kwargs):
        raise TimeoutError("no announcement")

    monkeypatch.setattr(cut_bench.subprocess, "Popen", FakeProc)
    monkeypatch.setattr(cut_bench, "read_announcement", no_announcement)
    with pytest.raises(TimeoutError):
        cut_bench.Daemon("t", tmp_path, 1, 0.0)
    (proc,) = started
    assert proc.terminated
    assert proc.stderr.closed
