"""Shared helpers: checkout paths, statistics, host header, result line.

Everything the benchmark writes goes under ``<checkout>/.perfbench``:
the compiled-kernel cache, temp files (run_all telemetry, daemon logs)
and written traces.  :func:`prepare_environment` points the program's
own caches there before ``repro`` is imported, so a run reads and
writes nothing outside its checkout.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: The checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of the benchmark inside the checkout (git-ignored).
WORK = ROOT / ".perfbench"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


class BenchError(Exception):
    """The benchmark cannot run (missing program, daemon failure...)."""


def prepare_environment() -> None:
    """Make ``repro`` importable and keep every write inside the checkout.

    Raises :class:`BenchError` when the program's sources are absent,
    so a directory holding only the benchmark fails before measuring.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNELS_CACHE"] = str(WORK / "kernels")
    os.environ["TMPDIR"] = str(tmp)
    # The tables workload runs run_all with its default --jobs; pin the
    # default to serial so an inherited REPRO_JOBS cannot change it.
    os.environ.pop("REPRO_JOBS", None)
    tempfile.tempdir = str(tmp)
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if src not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([src] + paths)


# -- statistics ---------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    if not values:
        raise BenchError("quantile of an empty sample")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


# -- host ---------------------------------------------------------------


def calibrate(loops: int = 1_500_000) -> float:
    """Seconds for a fixed pure-python loop: the box's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i % 7
    elapsed = time.perf_counter() - start
    if acc < 0:  # keeps the loop observable
        raise BenchError("calibration overflowed")
    return elapsed


#: CPU seconds one :mod:`perfbench.probe` sample takes on the reference
#: host.  The ``cpu_norm_ms`` metrics are CPU times rescaled to that speed.
PROBE_REF_S = 0.0005


@contextmanager
def one_cpu_probe() -> Iterator["SpeedProbe"]:
    """Pin this process to one CPU and run a :class:`SpeedProbe` beside it.

    Child processes started inside inherit the pinning, so the probe
    sees the speed they run at too.  The old affinity is restored.
    """
    home = os.sched_getaffinity(0)
    one = {min(home)}
    os.sched_setaffinity(0, one)
    try:
        with SpeedProbe(one) as probe:
            yield probe
    finally:
        os.sched_setaffinity(0, home)


class SpeedProbe:
    """A :mod:`perfbench.probe` side process pinned to ``cpus``.

    Used as a context manager around a measured window; the side process
    is stopped and waited for on every way out.  :meth:`scale` then
    turns seconds (CPU or wall) spent between two ``time.monotonic()``
    stamps into seconds at the reference host's speed.  The probe takes about 3% of
    its CPU's time, the same in every run.
    """

    def __init__(self, cpus: Optional[set] = None) -> None:
        import subprocess

        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(ROOT),
            preexec_fn=None if not cpus else lambda: os.sched_setaffinity(0, cpus),
        )
        self.samples: List[tuple] = []

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        if self.proc.returncode is not None:
            return
        try:
            out, _ = self.proc.communicate(b"", timeout=30)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        if self.proc.returncode != 0:
            raise BenchError(f"speed probe exited {self.proc.returncode}")
        self.samples = [tuple(s) for s in json.loads(out)]

    def scale(self, start: float, end: float) -> float:
        """Mean of reference/actual step time over the samples in [start, end].

        The mean of ratios weights each sample's interval equally, so a
        busy CPU's CPU seconds are rescaled by the speed they ran at.
        """
        if not self.samples:
            raise BenchError("the speed probe recorded no sample")
        window = [dt for t, dt in self.samples if start <= t <= end]
        if not window:  # a window shorter than the sampling period
            window = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return sum(PROBE_REF_S / max(dt, 1e-9) for dt in window) / len(window)

    def scaled(self, spans: Sequence[Tuple[float, float]]) -> List[float]:
        """Each ``(start, end)`` span's length at the reference speed."""
        return [(end - start) * self.scale(start, end) for start, end in spans]

    def describe(self) -> str:
        dts = [dt for _, dt in self.samples]
        return (f"speed probe: {len(dts)} samples, median {median(dts) * 1e3:.3f} ms "
                f"(reference {PROBE_REF_S * 1e3:g} ms)")


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def host_header() -> Dict[str, object]:
    """nproc, python, commit and kernel backend of this run."""
    from repro import kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "kernel_backend": kernels.backend_name(),
        "kernel_sources": kernels.available_backends(),
    }


def rss_peak_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of ``pid`` (default: this process), MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None
    raise BenchError(f"{path} has no VmHWM line")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds ``pid`` has used (from /proc/<pid>/stat).

    Unlike wall time this excludes time the hypervisor stole from the
    VM, so a per-request CPU cost holds steady while wall-clock numbers
    swing with the host's load.
    """
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError as exc:
        raise BenchError(f"cannot read /proc/{pid}/stat: {exc}") from None
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def steal_ticks() -> int:
    """Cumulative CPU ticks stolen from this VM by the hypervisor."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


# -- output -------------------------------------------------------------


def load_spec() -> Dict[str, object]:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in load_spec()[kind]}


def say(line: str) -> None:
    """A human-readable report line (the JSON result is the last line)."""
    print(line, flush=True)


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, float], kind: str
) -> str:
    """The closing JSON object, holding exactly the metrics of ``kind``."""
    units = metric_units(kind)
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise BenchError(f"{kind} metrics mismatch: missing {missing}, extra {extra}")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(metrics[name]), "unit": units[name]}
                for name in units
            },
        }
    )


def fmt(values: List[float]) -> str:
    return ", ".join(f"{v:.4g}" for v in values)


class Samples:
    """Latency samples with their completion times, for windowed medians.

    This box's speed drifts within a run, so a statistic is computed
    per sub-window of ``width`` seconds and the median over sub-windows
    is reported: a stall in one sub-window moves one value of several.
    """

    def __init__(self) -> None:
        from array import array

        self.ends = array("d")
        self.values = array("d")

    def add(self, end: float, value: float) -> None:
        self.ends.append(end)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def _windows(self, width: float) -> List[List[float]]:
        if not self.values:
            raise BenchError("no samples")
        first = min(self.ends)
        buckets: Dict[int, List[float]] = {}
        for end, value in zip(self.ends, self.values):
            buckets.setdefault(int((end - first) / width), []).append(value)
        # Drop a trailing partial window (under half the width of data).
        last = max(buckets)
        if len(buckets) > 1 and max(self.ends) - first - last * width < width / 2:
            del buckets[last]
        return [buckets[k] for k in sorted(buckets)]

    def per_window(self, width: float, q: Optional[float] = None) -> List[float]:
        """Each sub-window's ``q`` quantile, or its completions per second."""
        windows = self._windows(width)
        if q is None:
            return [len(w) / width for w in windows]
        return [quantile(w, q) for w in windows]

    def quantile(self, q: float, width: float) -> float:
        """Median over sub-windows of each window's ``q`` quantile."""
        return median(self.per_window(width, q))

    def rate(self, width: float) -> float:
        """Median over full sub-windows of completions per second."""
        return median(self.per_window(width))
