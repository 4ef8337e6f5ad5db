"""Declarative SLO rules evaluated live over the telemetry bus.

A :class:`SloRule` states one service-level objective in terms the
observability stack already measures; an :class:`SloEngine` subscribes
to the :mod:`repro.obs.live` bus, evaluates the rules per window (every
``live.tick`` and at least every ``eval_interval_s`` of event time),
and emits one structured ``slo.violation`` event per breached rule —
``run_all --slo`` turns any breach into exit code 6.

Rule kinds:

``metric``
    Cumulative threshold on a global-registry entry (counter value, or
    a histogram's ``.count`` / ``.sum``):
    ``metric:oracle.query.neighbor<=50000``.
``span``
    Windowed latency-quantile ceiling on a span path (leaf name, full
    path, or path prefix): ``span:experiment.e3:p99<=2.0``.
``bound``
    Slack-margin floor on a certified bound (see
    :func:`repro.obs.live.bound_margin`; margin 1.0 is the violation
    line, so a floor above 1 alerts *before* the Thm 1.1/1.2/1.3/5.7
    envelope is actually crossed): ``bound:thm13.queries>=1.0``, or
    ``bound:*>=1.0`` for every registered spec.  An actual
    ``bound_check`` violation event always breaches immediately.
``baseline``
    Threshold resolved from a committed run in the experiment store
    (:mod:`repro.obs.store`): ``baseline:metric:comm.wire_bits<=1.10x@HEAD``
    breaches when the live total exceeds 1.10x the total recorded in
    the telemetry of the commit ``HEAD`` resolves to.
``stall``
    Worker-liveness: breaches when any parallel worker's heartbeat is
    older than the threshold — ``stall:5`` — firing *before* the pool's
    hung-worker retry path replaces the worker.
``mem``
    Ceiling (bytes) on the peak traced allocation attributed to a span
    path by the memory profiler (:mod:`repro.obs.memory`, ``--memory=
    trace``): ``mem:experiment.e3<=50e6``, or ``mem:*<=50e6`` for every
    profiled span.  Matching follows span rules: leaf name, full path,
    or path prefix.
``rss``
    Ceiling (bytes) on the peak resident-set size over every observed
    source — the main process's RSS sampler and each worker heartbeat's
    ``rss`` field: ``rss:<=2e9`` (the operator may be omitted:
    ``rss:2e9``).

Rules parse from a compact ``;``-separated spec string or from a JSON
file (a list of rule objects with the same field names); see
:func:`parse_spec`.  :func:`default_rules` is what the bare
``run_all --slo`` installs: a margin floor of 1.0 on every registered
bound spec plus a 30 s stall rule.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import ObsError
from repro.obs import bounds as _bounds
from repro.obs import sink as _sink
from repro.obs.live import LiveAggregator, LiveBus

#: Recognised rule kinds.
KINDS = ("metric", "span", "bound", "baseline", "stall", "mem", "rss")

#: Comparison operators a rule may use.
OPS = ("<=", ">=")

#: Default stall threshold (seconds) for :func:`default_rules`.
DEFAULT_STALL_S = 30.0

#: Default p99 ceiling (seconds) on one served request, the headline
#: objective of the serving tier (:mod:`repro.serving`).
DEFAULT_SERVING_P99_S = 0.25

#: The serving daemon's bare ``--slo`` spec: one windowed latency
#: ceiling on the synthetic ``serve.request`` spans the daemon emits per
#: answered request.  Operators add e.g. ``span:serve.batch:p99<=0.05``.
SERVING_DEFAULT_SLO = f"span:serve.request:p99<={DEFAULT_SERVING_P99_S:g}"


class SloError(ObsError):
    """An SLO spec failed to parse or a baseline failed to resolve."""


@dataclass
class SloRule:
    """One declarative objective.  Construct directly or via :func:`parse_spec`."""

    name: str
    kind: str  # one of KINDS
    target: str  # metric name / span path / bound spec / "" for stall
    op: str  # "<=" or ">="
    threshold: float
    #: Latency quantile for ``span`` rules (0 < q <= 1).
    quantile: Optional[float] = None
    #: Baseline multiplier and revision for ``baseline`` rules.
    factor: Optional[float] = None
    rev: Optional[str] = None
    #: Filled by :meth:`SloEngine.resolve_baselines`.
    resolved: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SloError(f"rule kind must be one of {KINDS}, got {self.kind!r}")
        if self.op not in OPS:
            raise SloError(f"rule op must be one of {OPS}, got {self.op!r}")
        if self.kind == "span":
            if self.quantile is None:
                self.quantile = 0.99
            if not 0.0 < self.quantile <= 1.0:
                raise SloError(
                    f"span quantile must be in (0, 1], got {self.quantile!r}"
                )
        if self.kind == "baseline" and (self.factor is None or not self.rev):
            raise SloError(
                "baseline rules need a factor and a revision "
                "(e.g. baseline:metric:comm.wire_bits<=1.10x@HEAD)"
            )

    def describe(self) -> str:
        """One-line human rendering (run_all and obs_watch print these)."""
        if self.kind == "stall":
            return f"{self.name}: worker heartbeat age <= {self.threshold}s"
        if self.kind == "rss":
            return (
                f"{self.name}: peak RSS (incl. workers) "
                f"{self.op} {self.threshold:g} bytes"
            )
        if self.kind == "mem":
            return (
                f"{self.name}: span {self.target} peak allocation "
                f"{self.op} {self.threshold:g} bytes"
            )
        if self.kind == "span":
            return (
                f"{self.name}: span {self.target} "
                f"p{int(round(self.quantile * 100))} {self.op} {self.threshold}s"
            )
        if self.kind == "baseline":
            return (
                f"{self.name}: metric {self.target} {self.op} "
                f"{self.factor}x @{self.rev}"
            )
        return f"{self.name}: {self.kind} {self.target} {self.op} {self.threshold}"


def _parse_threshold(text: str, clause: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SloError(
            f"cannot parse threshold {text!r} in SLO clause {clause!r}"
        ) from None


def _split_op(body: str, clause: str) -> tuple:
    for op in OPS:
        if op in body:
            lhs, _, rhs = body.partition(op)
            return lhs, op, rhs
    raise SloError(f"SLO clause {clause!r} needs one of {OPS}")


def _parse_clause(clause: str) -> SloRule:
    kind, sep, body = clause.partition(":")
    kind = kind.strip()
    if not sep:
        raise SloError(
            f"SLO clause {clause!r} must look like kind:..., kinds: {KINDS}"
        )
    if kind == "stall":
        return SloRule(
            name=f"stall<={body.strip()}s",
            kind="stall",
            target="*",
            op="<=",
            threshold=_parse_threshold(body.strip(), clause),
        )
    if kind == "metric":
        target, op, rhs = _split_op(body, clause)
        return SloRule(
            name=clause.strip(),
            kind="metric",
            target=target.strip(),
            op=op,
            threshold=_parse_threshold(rhs.strip(), clause),
        )
    if kind == "span":
        lhs, op, rhs = _split_op(body, clause)
        target, sep, qtext = lhs.rpartition(":")
        if not sep or not qtext.strip().startswith("p"):
            raise SloError(
                f"span clause {clause!r} must name a quantile, "
                "e.g. span:experiment.e3:p99<=2.0"
            )
        quantile = _parse_threshold(qtext.strip()[1:], clause) / 100.0
        return SloRule(
            name=clause.strip(),
            kind="span",
            target=target.strip(),
            op=op,
            threshold=_parse_threshold(rhs.strip(), clause),
            quantile=quantile,
        )
    if kind == "bound":
        target, op, rhs = _split_op(body, clause)
        return SloRule(
            name=clause.strip(),
            kind="bound",
            target=target.strip(),
            op=op,
            threshold=_parse_threshold(rhs.strip(), clause),
        )
    if kind == "rss":
        text = body.strip()
        op = "<="
        for candidate in OPS:
            if text.startswith(candidate):
                op, text = candidate, text[len(candidate):].strip()
                break
        return SloRule(
            name=clause.strip(),
            kind="rss",
            target="*",
            op=op,
            threshold=_parse_threshold(text, clause),
        )
    if kind == "mem":
        if any(op in body for op in OPS):
            target, op, rhs = _split_op(body, clause)
            target = target.strip() or "*"
        else:  # bare bytes: ceiling over every profiled span
            target, op, rhs = "*", "<=", body
        return SloRule(
            name=clause.strip(),
            kind="mem",
            target=target,
            op=op,
            threshold=_parse_threshold(rhs.strip(), clause),
        )
    if kind == "baseline":
        inner = body.strip()
        if inner.startswith("metric:"):
            inner = inner[len("metric:"):]
        lhs, op, rhs = _split_op(inner, clause)
        factor_text, at, rev = rhs.partition("@")
        factor_text = factor_text.strip()
        if factor_text.endswith("x"):
            factor_text = factor_text[:-1]
        if not at or not rev.strip():
            raise SloError(
                f"baseline clause {clause!r} must name a revision, "
                "e.g. baseline:metric:comm.wire_bits<=1.10x@HEAD"
            )
        return SloRule(
            name=clause.strip(),
            kind="baseline",
            target=lhs.strip(),
            op=op,
            threshold=float("nan"),  # resolved against the store later
            factor=_parse_threshold(factor_text, clause),
            rev=rev.strip(),
        )
    raise SloError(f"unknown SLO rule kind {kind!r}; kinds: {KINDS}")


def parse_spec(spec: str) -> List[SloRule]:
    """Parse an SLO spec: inline clauses, or a JSON rule file path.

    Inline form: ``;``-separated clauses, e.g. ::

        metric:oracle.query.neighbor<=50000;span:experiment.e3:p99<=2.0;
        bound:*>=1.0;baseline:metric:comm.wire_bits<=1.10x@HEAD;stall:5

    If ``spec`` names an existing file it is read as JSON: a list of
    objects with :class:`SloRule` field names (``kind``, ``target``,
    ``op``, ``threshold``, optional ``name`` / ``quantile`` /
    ``factor`` / ``rev``).
    """
    spec = spec.strip()
    if not spec:
        return default_rules()
    if os.path.exists(spec):
        try:
            raw = json.loads(open(spec).read())
        except (OSError, json.JSONDecodeError) as exc:
            raise SloError(f"cannot read SLO rule file {spec!r}: {exc}") from exc
        if not isinstance(raw, list):
            raise SloError(f"SLO rule file {spec!r} must hold a JSON list")
        rules = []
        for index, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise SloError(
                    f"SLO rule file {spec!r} entry {index} is not an object"
                )
            entry = dict(entry)
            entry.setdefault("name", f"rule{index}")
            try:
                rules.append(SloRule(**entry))
            except TypeError as exc:
                raise SloError(
                    f"SLO rule file {spec!r} entry {index}: {exc}"
                ) from exc
        return _expand_wildcards(rules)
    return _expand_wildcards(
        [_parse_clause(clause) for clause in spec.split(";") if clause.strip()]
    )


def _expand_wildcards(rules: Sequence[SloRule]) -> List[SloRule]:
    """Expand ``bound:*`` into one rule per registered bound spec."""
    expanded: List[SloRule] = []
    for rule in rules:
        if rule.kind == "bound" and rule.target == "*":
            for spec in _bounds.registered_specs():
                expanded.append(
                    SloRule(
                        name=f"bound:{spec.name}{rule.op}{rule.threshold}",
                        kind="bound",
                        target=spec.name,
                        op=rule.op,
                        threshold=rule.threshold,
                    )
                )
        else:
            expanded.append(rule)
    return expanded


def default_rules(stall_s: float = DEFAULT_STALL_S) -> List[SloRule]:
    """The bare ``--slo`` rule set: every bound's margin floor + stall."""
    rules = _expand_wildcards(
        [SloRule(name="bound:*", kind="bound", target="*", op=">=", threshold=1.0)]
    )
    rules.append(
        SloRule(
            name=f"stall<={stall_s}s",
            kind="stall",
            target="*",
            op="<=",
            threshold=stall_s,
        )
    )
    return rules


# ----------------------------------------------------------------------
# The engine.
# ----------------------------------------------------------------------


def _compare(value: float, op: str, threshold: float) -> bool:
    """Whether ``value`` honors ``op threshold`` (True = within SLO)."""
    return value <= threshold if op == "<=" else value >= threshold


class SloEngine:
    """Evaluates SLO rules against the live aggregator state.

    ``attach(bus)`` subscribes the engine (and its aggregator, when it
    owns one); every ``live.tick`` — and at least every
    ``eval_interval_s`` of event time — triggers :meth:`evaluate`.
    Breaches are recorded once per ``(rule, subject)`` pair and emitted
    as ``slo.violation`` events through the telemetry sink (which tees
    them right back onto the bus for the exporters to stream).
    """

    def __init__(
        self,
        rules: Sequence[SloRule],
        aggregator: Optional[LiveAggregator] = None,
        store_root: Optional[str] = None,
        eval_interval_s: float = 0.5,
    ):
        self.rules = list(rules)
        self.aggregator = aggregator or LiveAggregator()
        self._owns_aggregator = aggregator is None
        self.store_root = store_root
        self.eval_interval_s = float(eval_interval_s)
        #: First breach record per (rule name, subject) key.
        self.breaches: Dict[tuple, Dict[str, Any]] = {}
        self._last_eval: Optional[float] = None

    # -- wiring ---------------------------------------------------------

    def attach(self, bus: LiveBus) -> "SloEngine":
        if self._owns_aggregator:
            self.aggregator.attach(bus)
        bus.subscribe(self.on_record)
        return self

    def detach(self, bus: LiveBus) -> None:
        bus.unsubscribe(self.on_record)
        if self._owns_aggregator:
            self.aggregator.detach(bus)

    def resolve_baselines(self) -> None:
        """Resolve every baseline rule's threshold from the store.

        Loud by design: a missing store, unknown revision, or a commit
        whose telemetry never recorded the metric raises
        :class:`SloError` — a baseline rule silently skipped would
        report "no breach" while checking nothing.
        """
        baseline_rules = [r for r in self.rules if r.kind == "baseline"]
        if not baseline_rules:
            return
        # Imported lazily: the store package pulls in repro.obs.report,
        # which imports the harness — a cycle at module-import time.
        from repro.obs.store import DEFAULT_STORE, ExperimentStore, StoreError
        from repro.obs.store.diff import commit_metric_value

        root = self.store_root or DEFAULT_STORE
        if not ExperimentStore.is_store(root):
            raise SloError(
                f"baseline SLO rules need an experiment store at {root!r} "
                "(create one with run_all --commit-run)"
            )
        store = ExperimentStore.open(root)
        for rule in baseline_rules:
            try:
                oid = store.resolve(rule.rev)
            except StoreError as exc:
                raise SloError(
                    f"cannot resolve baseline revision {rule.rev!r} "
                    f"for rule {rule.name!r}: {exc}"
                ) from exc
            reference = commit_metric_value(store, oid, rule.target)
            if reference is None:
                raise SloError(
                    f"commit {oid[:10]} has no metric {rule.target!r} "
                    f"for baseline rule {rule.name!r}"
                )
            rule.threshold = reference * rule.factor
            rule.resolved = {
                "commit": oid,
                "rev": rule.rev,
                "reference": reference,
                "factor": rule.factor,
            }

    # -- event handling -------------------------------------------------

    def on_record(self, record: Dict[str, Any]) -> None:
        kind = record.get("event")
        if kind == "bound_check":
            self._on_bound_check(record)
        ts = record.get("ts")
        now = float(ts) if isinstance(ts, (int, float)) else time.time()
        if kind == "live.tick" or self._eval_due(now):
            self.evaluate(now)

    def _eval_due(self, now: float) -> bool:
        if self._last_eval is None:
            self._last_eval = now
            return False
        return now - self._last_eval >= self.eval_interval_s

    def _on_bound_check(self, record: Dict[str, Any]) -> None:
        """A certified bound actually violated always breaches live."""
        if record.get("status") != "violation":
            return
        spec = record.get("spec", "?")
        for rule in self.rules:
            if rule.kind == "bound" and rule.target == spec:
                self._breach(
                    rule,
                    subject=f"{spec}/{record.get('kind', 'row')}",
                    value=record.get("ratio"),
                    detail={
                        "reason": "bound_check violation",
                        "theorem": record.get("theorem"),
                        "table": record.get("table"),
                    },
                )

    # -- evaluation -----------------------------------------------------

    def evaluate(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Evaluate every rule; returns breaches recorded this pass."""
        if now is None:
            now = time.time()
        self._last_eval = now
        fresh: List[Dict[str, Any]] = []
        for rule in self.rules:
            fresh.extend(self._evaluate_rule(rule, now))
        return fresh

    def _evaluate_rule(self, rule: SloRule, now: float) -> List[Dict[str, Any]]:
        if rule.kind == "metric":
            value = self._metric_value(rule.target)
            if value is None or _compare(value, rule.op, rule.threshold):
                return []
            return self._breach(rule, subject=rule.target, value=value)
        if rule.kind == "baseline":
            if rule.threshold != rule.threshold:  # NaN: never resolved
                return []
            value = self._metric_value(rule.target)
            if value is None or _compare(value, rule.op, rule.threshold):
                return []
            return self._breach(
                rule,
                subject=rule.target,
                value=value,
                detail=dict(rule.resolved),
            )
        if rule.kind == "span":
            value = self.aggregator.span_quantile(
                rule.target, rule.quantile, now
            )
            if value is None or _compare(value, rule.op, rule.threshold):
                return []
            return self._breach(
                rule,
                subject=rule.target,
                value=value,
                detail={"quantile": rule.quantile},
            )
        if rule.kind == "bound":
            margin = self.aggregator.bound_min_margin(rule.target, now)
            if margin is None or _compare(margin, rule.op, rule.threshold):
                return []
            return self._breach(
                rule,
                subject=rule.target,
                value=margin,
                detail={"reason": "slack margin under floor"},
            )
        if rule.kind == "rss":
            value = self.aggregator.max_rss(now)
            if value is None or _compare(value, rule.op, rule.threshold):
                return []
            return self._breach(
                rule,
                subject="process",
                value=value,
                detail={"reason": "peak resident set over ceiling"},
            )
        if rule.kind == "mem":
            breaches = []
            for span, peak in self.aggregator.span_alloc_peaks(rule.target):
                if _compare(peak, rule.op, rule.threshold):
                    continue
                breaches.extend(
                    self._breach(
                        rule,
                        subject=f"span:{span}",
                        value=peak,
                        detail={"reason": "span allocation over ceiling"},
                    )
                )
            return breaches
        if rule.kind == "stall":
            breaches = []
            for entry in self.aggregator.stalled_workers(rule.threshold, now):
                pid = entry.get("worker")
                breaches.extend(
                    self._breach(
                        rule,
                        subject=f"worker:{pid}",
                        value=now - entry.get("ts", now),
                        detail={
                            "worker": pid,
                            "chunk": entry.get("chunk"),
                            "trial": entry.get("trial"),
                            "reason": "heartbeat stalled",
                        },
                    )
                )
            return breaches
        return []

    @staticmethod
    def _metric_value(name: str) -> Optional[float]:
        from repro.obs.metrics import REGISTRY

        return REGISTRY.snapshot().get(name)

    def _breach(
        self,
        rule: SloRule,
        subject: str,
        value: Optional[float],
        detail: Optional[Mapping[str, Any]] = None,
    ) -> List[Dict[str, Any]]:
        """Record + emit one breach, once per (rule, subject)."""
        key = (rule.name, subject)
        if key in self.breaches:
            return []
        record: Dict[str, Any] = {
            "rule": rule.name,
            "kind": rule.kind,
            "target": rule.target,
            "subject": subject,
            "op": rule.op,
            "threshold": rule.threshold,
            "value": value,
        }
        if detail:
            record.update(detail)
        self.breaches[key] = record
        # Through the sink so the breach lands in telemetry.jsonl; emit
        # tees it back onto the bus for the live exporters.  (emit, not
        # event(): the record's "kind" field — the rule kind — would
        # collide with event()'s positional parameter.)
        _sink.emit({"event": "slo.violation", **record})
        return [record]

    # -- finishing ------------------------------------------------------

    def finish(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Final evaluation pass; returns every breach of the run."""
        self.evaluate(now)
        return list(self.breaches.values())

    @property
    def breached(self) -> bool:
        return bool(self.breaches)

    def summary_lines(self) -> List[str]:
        """Human-readable status per rule (run_all prints these)."""
        lines = []
        breached_rules = {key[0] for key in self.breaches}
        for rule in self.rules:
            status = "BREACH" if rule.name in breached_rules else "ok"
            lines.append(f"slo {status}: {rule.describe()}")
        for record in self.breaches.values():
            value = record.get("value")
            shown = f"{value:.6g}" if isinstance(value, (int, float)) else "?"
            lines.append(
                f"slo.violation {record['rule']} [{record['subject']}]: "
                f"value {shown} vs {record['op']} {record['threshold']:.6g}"
            )
        return lines


__all__ = [
    "DEFAULT_SERVING_P99_S",
    "DEFAULT_STALL_S",
    "KINDS",
    "SERVING_DEFAULT_SLO",
    "SloEngine",
    "SloError",
    "SloRule",
    "default_rules",
    "parse_spec",
]
