"""End-to-end tests for scripts/obs_store.py over real run_all output.

These run the CLI (and run_all itself) as subprocesses — the exit codes
are part of the contract (0 success, 1 store/fsck error, 2 regression
under ``diff --check``) and only a real process exercises the
``--commit-run`` wiring end to end.
"""

import json
import os
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent
CLI = REPO / "scripts" / "obs_store.py"


def _run(*argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, *map(str, argv)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def _cli(*argv, cwd):
    return _run(CLI, *argv, cwd=cwd)


def _run_all(*argv, cwd):
    return _run("-m", "repro.experiments.run_all", *argv, cwd=cwd)


def _perturb_summary_counter(telemetry):
    """Double one summary counter in place; returns its metric name."""
    lines = telemetry.read_text().splitlines()
    for i, line in enumerate(lines):
        event = json.loads(line)
        if event.get("event") != "summary":
            continue
        counters = event["metrics"]["counters"]
        name = sorted(k for k, v in counters.items() if v > 0)[0]
        counters[name] = counters[name] * 2
        lines[i] = json.dumps(event)
        telemetry.write_text("\n".join(lines) + "\n")
        return name
    raise AssertionError("telemetry has no summary event")


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    """Two committed e5 runs, the second with one perturbed counter."""
    root = tmp_path_factory.mktemp("e2e")
    proc = _run_all("e5", "--telemetry", "run1.jsonl", "--commit-run", cwd=root)
    assert proc.returncode == 0, proc.stderr
    assert "run committed to .obs/store" in proc.stdout

    proc = _run_all("e5", "--telemetry", "run2.jsonl", cwd=root)
    assert proc.returncode == 0, proc.stderr
    metric = _perturb_summary_counter(root / "run2.jsonl")

    proc = _cli(
        "commit", "--telemetry", "run2.jsonl", "-m", "perturbed run", cwd=root
    )
    assert proc.returncode == 0, proc.stderr
    return root, metric


class TestEndToEnd:
    def test_diff_flags_exactly_the_perturbed_metric(self, seeded):
        root, metric = seeded
        proc = _cli("diff", "HEAD~1", "HEAD", "--json", cwd=root)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        regressed = [
            m["name"] for m in payload["metrics"] if m["verdict"] == "REGRESSED"
        ]
        assert regressed == [metric]

    def test_diff_check_exits_two_on_regression(self, seeded):
        root, metric = seeded
        proc = _cli("diff", "HEAD~1", "HEAD", "--check", cwd=root)
        assert proc.returncode == 2
        assert "REGRESSED" in proc.stdout
        assert metric in proc.stdout

    def test_log_shows_both_commits_with_meta(self, seeded):
        root, _ = seeded
        proc = _cli("log", cwd=root)
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 2
        assert "perturbed run" in lines[0]
        assert "experiments=e5" in lines[1]

    def test_show_lists_artifacts(self, seeded):
        root, _ = seeded
        proc = _cli("show", "HEAD", cwd=root)
        assert proc.returncode == 0
        assert "telemetry.jsonl" in proc.stdout
        assert "bounds.json" in proc.stdout

    def test_fsck_passes_on_real_store(self, seeded):
        root, _ = seeded
        proc = _cli("fsck", cwd=root)
        assert proc.returncode == 0
        assert "fsck: OK" in proc.stdout

    def test_fsck_fails_loudly_on_bit_flip(self, seeded, tmp_path):
        root, _ = seeded
        copy = tmp_path / "store"
        shutil.copytree(root / ".obs" / "store", copy)
        flipped = False
        for path in sorted(copy.glob("objects/*/*")):
            body = bytearray(zlib.decompress(path.read_bytes()))
            if not body.startswith(b"blob "):
                continue
            body[-1] ^= 0x01
            path.write_bytes(zlib.compress(bytes(body)))
            flipped = True
            break
        assert flipped, "no blob object found to corrupt"
        proc = _cli("--store", copy, "fsck", cwd=tmp_path)
        assert proc.returncode == 1
        assert "CORRUPT" in proc.stdout
        assert "hash mismatch" in proc.stdout


class TestSyntheticStore:
    """CLI verbs over a small handwritten store (no run_all needed)."""

    def _telemetry(self, tmp_path, n, value):
        path = tmp_path / f"t{n}.jsonl"
        summary = {
            "event": "summary",
            "metrics": {"counters": {"comm.bits": value}, "gauges": {},
                        "histograms": {}},
        }
        path.write_text(json.dumps(summary) + "\n")
        return path

    def _seed(self, tmp_path, values):
        assert _cli("init", cwd=tmp_path).returncode == 0
        for n, value in enumerate(values):
            path = self._telemetry(tmp_path, n, value)
            proc = _cli(
                "commit", "--telemetry", path.name, "-m", f"run {n}",
                cwd=tmp_path,
            )
            assert proc.returncode == 0, proc.stderr

    def test_init_is_idempotent(self, tmp_path):
        assert "initialised" in _cli("init", cwd=tmp_path).stdout
        assert "reusing" in _cli("init", cwd=tmp_path).stdout

    def test_missing_store_errors(self, tmp_path):
        proc = _cli("log", cwd=tmp_path)
        assert proc.returncode == 1
        assert "not an experiment store" in proc.stderr

    def test_branch_and_checkout(self, tmp_path):
        self._seed(tmp_path, [100.0, 200.0])
        proc = _cli("branch", "lines/kernels", cwd=tmp_path)
        assert proc.returncode == 0
        listing = _cli("branch", cwd=tmp_path).stdout
        assert "* main" in listing
        assert "lines/kernels" in listing

        out = tmp_path / "extracted"
        proc = _cli("checkout", "HEAD~1", "--out", out, cwd=tmp_path)
        assert proc.returncode == 0
        assert json.loads(
            (out / "telemetry.jsonl").read_text()
        )["metrics"]["counters"]["comm.bits"] == 100.0

    def test_bisect_finds_first_bad_commit(self, tmp_path):
        self._seed(tmp_path, [100.0, 100.0, 200.0, 200.0])
        proc = _cli(
            "bisect", "--good", "HEAD~3", "--bad", "HEAD",
            "--metric", "comm.bits", "--json", cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        show = _cli("show", payload["first_bad"], cwd=tmp_path).stdout
        assert "run 2" in show

    def test_bisect_usage_error_exits_one(self, tmp_path):
        self._seed(tmp_path, [100.0, 200.0])
        proc = _cli("bisect", "--good", "HEAD~1", "--bad", "HEAD", cwd=tmp_path)
        assert proc.returncode == 1
        assert "exactly one target" in proc.stderr
