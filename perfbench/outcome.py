"""What one workload run hands back to the command line."""

from __future__ import annotations

from typing import Dict

from perfbench.common import WORK, say


class Outcome:
    """Counts, end-to-end metrics and per-layer metrics of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}

    @staticmethod
    def note(name: str, value: float, unit: str, detail: str = "") -> None:
        """Print one metric by name and unit (a human-readable line)."""
        say(f"metric {name} = {value:.6g} {unit}" + (f"  ({detail})" if detail else ""))

    @staticmethod
    def trace_file(tracer, stem: str) -> None:
        path = WORK / "traces" / f"{stem}.npz"
        tracer.write(path)
        say(f"# trace: {len(tracer.names)} span names, spans written to {path.name}")

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        say(f"# FAILED CHECK: {reason}")
