"""One wiring site for a command line's observability.

``run_all`` and the serving daemon both enter :func:`session`, which
stacks the scoped pieces of :mod:`repro.obs` on one ``ExitStack``: the
switch and sink (:func:`~repro.obs.core.enabled`), the live bus
(:func:`~repro.obs.live.publishing`) with its aggregator and
subscribers, the wire capture (:func:`~repro.obs.capture.capturing`),
the bound monitor (:func:`~repro.obs.bounds.monitoring`) and the
profilers (:func:`~repro.obs.memory.profiling`).  The live bus is
installed only when something subscribes to it (an SLO engine, a JSONL
export or a metrics endpoint).  A failed setup step raises
:class:`SessionError` with the process exit code after the stack has
unwound whatever was entered, so it leaves no global state behind.
"""

from __future__ import annotations

import os
import sys
from contextlib import ExitStack, contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.errors import ObsError
from repro.obs import bounds, core, live, memory
from repro.obs import capture as _capture
from repro.obs import slo as _slo
from repro.obs.exporters import JsonlExporter, MetricsServer
from repro.obs.metrics import REGISTRY, reset_metrics
from repro.obs.profile import SpanProfiler
from repro.obs.sink import JsonlSink, RotatingJsonlSink, event

#: Exit code for a usage error such as a malformed ``--slo`` spec
#: (argparse's code), and for a bound violation under ``--strict-bounds``.
EXIT_USAGE = EXIT_BOUND_VIOLATION = 2
#: Exit code for an output that could not be opened or failed mid-run.
EXIT_TELEMETRY_FAILURE = 3
#: Exit code for a baseline SLO rule the experiment store could not
#: resolve (``run_all`` also uses it for a failed ``--commit-run``).
EXIT_STORE_FAILURE = 5
#: Exit code for an SLO breach.
EXIT_SLO_BREACH = 6


class SessionError(ObsError):
    """Session setup failed; ``exit_code`` is what the CLI returns."""

    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code

    def report(self, parser) -> int:
        """Print the failure, return its code (usage errors exit via argparse)."""
        if self.exit_code == EXIT_USAGE:
            parser.error(str(self))
        print(f"error: {self}", file=sys.stderr)
        return self.exit_code


def open_jsonl(what: str, factory, path: str, **kwargs: Any):
    """``factory(path, **kwargs)``, with an ``OSError`` as exit code 3."""
    try:
        return factory(path, **kwargs)
    except OSError as exc:
        raise SessionError(
            EXIT_TELEMETRY_FAILURE,
            f"cannot open {what} {os.path.abspath(path)}: {exc}",
        ) from exc


class Session:
    """The parts :func:`session` wired; ``None`` for those not asked for."""

    monitor = bus = aggregator = engine = exporter = metrics = None
    capture = capture_sink = profiler = memory = None

    def __init__(self, sink=None):
        self.sink = sink

    def write_failure(self) -> Optional[str]:
        """The first output whose writing failed mid-run, as a message."""
        for what, out in (
            ("live export", self.exporter),
            ("wire capture", self.capture_sink),
            ("telemetry", self.sink),
        ):
            if out is not None and out.error is not None:
                return (
                    f"{what} writing to {os.path.abspath(out.path)} "
                    f"failed: {out.error}"
                )
        return None


@contextmanager
def session(
    *,
    enable: bool = False,
    sink=None,
    slo: Optional[str] = None,
    store: Optional[str] = None,
    live_export: Optional[str] = None,
    metrics_port: Optional[int] = None,
    metrics_label: str = "live metrics",
    capture: Optional[str] = None,
    capture_meta: Optional[Dict[str, Any]] = None,
    capture_retain: Optional[int] = None,
    capture_rotate_bytes: Optional[int] = None,
    memory_mode: Optional[str] = None,
    profile: bool = False,
) -> Iterator[Session]:
    """Wire observability for one run; yields the :class:`Session`.

    ``sink`` is an open telemetry sink, which the session installs and
    closes.  The switch turns on when ``enable`` is set or any part
    needs it.  ``slo`` is a :func:`repro.obs.slo.parse_spec` spec whose
    baseline rules resolve from the store at ``store``; ``capture`` is
    a wire-capture path, rotated past ``capture_rotate_bytes`` when
    given.  Status lines go to stderr.  On a normal exit the closing
    records are written while the sink is still open (:func:`_finish`).
    """
    obs = Session(sink)
    live_on = (
        slo is not None or live_export is not None or metrics_port is not None
    )
    with ExitStack() as stack:
        if sink is not None:
            stack.callback(sink.close)
        if memory_mode is not None:
            # Before the SLO spec parses: a bare --slo (and any bound:*
            # wildcard) expands over the registry, space specs included.
            memory.register_space_bounds()
            stack.callback(memory.unregister_space_bounds)
        parts = (sink, capture, memory_mode)
        if enable or live_on or any(part is not None for part in parts):
            reset_metrics()
            stack.enter_context(core.enabled(sink))
        if live_on:
            _wire_live(stack, obs, slo, store, live_export, metrics_port,
                       metrics_label)
        if capture is not None:
            recorder = _capture.WireCapture(
                meta=capture_meta, retain=capture_retain
            )
            if capture_rotate_bytes is None:
                obs.capture_sink = open_jsonl("wire capture", JsonlSink, capture)
            else:
                obs.capture_sink = open_jsonl(
                    "wire capture", RotatingJsonlSink, capture,
                    max_bytes=capture_rotate_bytes,
                    header_factory=recorder.header_record,
                )
            stack.callback(obs.capture_sink.close)
            obs.capture_sink.write(recorder.header_record())
            recorder.sink = obs.capture_sink
            obs.capture = stack.enter_context(_capture.capturing(recorder))
        obs.monitor = stack.enter_context(bounds.monitoring())
        if profile:
            obs.profiler = SpanProfiler().start()
            stack.callback(obs.profiler.stop)
        if memory_mode is not None:
            obs.memory = stack.enter_context(memory.profiling(memory_mode))
            print(
                f"memory profiler: mode={obs.memory.mode}, rss sampler "
                f"every {obs.memory.interval}s",
                file=sys.stderr,
            )
        yield obs
        _finish(obs)


def _wire_live(stack, obs, slo, store, live_export, metrics_port,
               metrics_label) -> None:
    """Install the bus, its aggregator and every subscriber asked for."""
    obs.bus = stack.enter_context(live.publishing())
    obs.aggregator = live.LiveAggregator().attach(obs.bus)
    if slo is not None:
        try:
            rules = _slo.parse_spec(slo)
        except _slo.SloError as exc:
            raise SessionError(EXIT_USAGE, str(exc)) from exc
        obs.engine = _slo.SloEngine(
            rules, aggregator=obs.aggregator, store_root=store
        ).attach(obs.bus)
        try:
            obs.engine.resolve_baselines()
        except _slo.SloError as exc:
            raise SessionError(EXIT_STORE_FAILURE, str(exc)) from exc
        for rule in obs.engine.rules:
            print(f"slo rule: {rule.describe()}", file=sys.stderr)
    if live_export is not None:
        obs.exporter = open_jsonl(
            "live export", JsonlExporter, live_export,
            aggregator=obs.aggregator,
        ).attach(obs.bus)
        stack.callback(obs.exporter.close)
        print(f"live export: {os.path.abspath(live_export)}", file=sys.stderr)
    if metrics_port is not None:
        try:
            obs.metrics = MetricsServer(
                port=metrics_port, aggregator=obs.aggregator
            ).start()
        except OSError as exc:
            raise SessionError(
                EXIT_TELEMETRY_FAILURE,
                f"cannot bind the live metrics server on port "
                f"{metrics_port}: {exc}",
            ) from exc
        stack.callback(obs.metrics.stop)
        obs.metrics.announce(metrics_label)


def _finish(obs: Session) -> None:
    """Write the closing records, in order, while the sink is still open.

    Memory records reach the aggregator before the SLO engine's last
    pass (so ``mem:`` rules see them), and late breaches land in the
    telemetry stream before the ``summary`` event closes it.
    """
    if obs.profiler is not None:
        obs.profiler.stop()
    if obs.memory is not None:
        obs.memory.stop()
        obs.memory.emit_events()
        # One closing clock pulse so the exporter serialises a
        # live.snapshot frame that includes the memory records just
        # published (worker ticks stopped with the pool).
        live.tick()
        rss = obs.memory.rss_record()
        print(
            f"memory: rss {rss['rss_bytes']} bytes, "
            f"peak {rss['rss_peak_bytes']} bytes "
            f"({rss['samples']} samples, {rss['source']}), "
            f"{len(obs.memory.footprints)} footprints",
            file=sys.stderr,
        )
    obs.monitor.finish()
    if obs.engine is not None:
        obs.engine.finish()
    if obs.profiler is not None:
        obs.profiler.emit_events()
    if obs.sink is not None:
        # The authoritative cumulative totals for trace_report.
        event("summary", metrics=REGISTRY.as_dict())


__all__ = [
    "EXIT_BOUND_VIOLATION",
    "EXIT_SLO_BREACH",
    "EXIT_STORE_FAILURE",
    "EXIT_TELEMETRY_FAILURE",
    "EXIT_USAGE",
    "Session",
    "SessionError",
    "open_jsonl",
    "session",
]
