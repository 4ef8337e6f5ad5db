#!/usr/bin/env python
"""Render the cross-run observability dashboard.

Reads run history from the versioned experiment store at ``--store``
(commits made by ``run_all --commit-run`` or ``scripts/obs_store.py
commit``) and writes a static dashboard into ``--out-dir`` (default
``.obs``: ``.obs/dashboard.md`` + ``.obs/dashboard.html``):

* **Measured-vs-theory curves** for the latest run — sketch bits vs ε
  against the Ω̃(n·√β/ε) / Ω(n·β/ε²) envelopes, and VERIFY-GUESS
  queries vs ε and vs k against the min{2m, m/(ε²k)} curve — as log-log
  ASCII plots (``*`` measured, ``o`` theory envelope);
* **Bound certification** status of the latest run (every
  ``bound_check`` verdict);
* **Span wall-time trends** across all committed runs — how long each
  experiment region takes per commit;
* **Regression verdict** comparing the two most recent runs: per-metric
  IMPROVED / REGRESSED / NEUTRAL verdicts (via
  :func:`repro.obs.store.diff.metric_deltas`, the same classifier
  ``obs_store.py diff`` uses) plus span wall-time ratios, with a
  headline OK / REGRESSION line.

Usage::

    PYTHONPATH=src python scripts/obs_dashboard.py
    PYTHONPATH=src python scripts/obs_dashboard.py --branch lines/kernels
"""

import argparse
import html
import math
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.harness import Table  # noqa: E402
from repro.obs.report import (  # noqa: E402
    aggregate_spans,
    is_partial,
    metric_totals,
)
from repro.obs.store import (  # noqa: E402
    DEFAULT_STORE,
    ExperimentStore,
    events_from_bytes,
    metric_deltas,
    short_oid,
)

#: Relative change below which a metric delta is NEUTRAL.
METRIC_THRESHOLD = 0.05

#: Span whose wall time grows by more than this factor between the two
#: latest runs counts as a timing regression.
SPAN_REGRESSION_RATIO = 1.5

#: Ignore span timing ratios below this many seconds in the newer run —
#: sub-millisecond regions are all interpreter noise.
SPAN_MIN_SECONDS = 0.005

#: The dashboard's curve catalogue: (title, table-name fragment, x
#: column, measured column, envelope column).  Matching by fragment
#: keeps the dashboard working as experiment titles gain suffixes.
CURVES = [
    (
        "Thm 1.1 - for-each sketch bits vs eps",
        "E1b",
        "eps",
        "mean_bits",
        "envelope",
    ),
    (
        "Thm 1.2 - for-all sketch bits vs eps",
        "E2b",
        "eps",
        "mean_bits",
        "envelope",
    ),
    (
        "Thm 1.3 - VERIFY-GUESS queries vs eps",
        "E3 /",
        "eps",
        "queries",
        "bound",
    ),
    (
        "Thm 1.3 - VERIFY-GUESS queries vs k",
        "E3b",
        "k",
        "queries",
        "bound",
    ),
]


def _log(value):
    return math.log(value) if value > 0 else 0.0


def ascii_plot(series, width=56, height=12):
    """Log-log ASCII scatter of ``[(marker, [(x, y), ...]), ...]``.

    Overlapping markers collapse to ``@``.  Returns a list of lines
    including axis annotations; empty series produce a placeholder.
    """
    points = [(x, y) for _, pts in series for x, y in pts if x > 0 and y > 0]
    if not points:
        return ["(no data)"]
    xs = [_log(x) for x, _ in points]
    ys = [_log(y) for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for marker, pts in series:
        for x, y in pts:
            if x <= 0 or y <= 0:
                continue
            col = round((_log(x) - x_lo) / x_span * (width - 1))
            row = height - 1 - round((_log(y) - y_lo) / y_span * (height - 1))
            cell = grid[row][col]
            grid[row][col] = marker if cell in (" ", marker) else "@"
    x_min, x_max = math.exp(x_lo), math.exp(x_hi)
    y_min, y_max = math.exp(y_lo), math.exp(y_hi)
    lines = [f"{y_max:>10.4g} +" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append(" " * 10 + " |" + "".join(row))
    lines.append(f"{y_min:>10.4g} +" + "".join(grid[-1]))
    lines.append(" " * 12 + "-" * width)
    lines.append(
        " " * 12 + f"{x_min:<.4g}" + " " * max(1, width - 18) + f"{x_max:>.4g}"
    )
    return lines


def _curve_points(run, fragment, x_col, y_col, env_col):
    """(measured, envelope) point lists for one curve of one run."""
    measured, envelope = [], []
    for row in run.get("rows", []):
        table = row.get("table") or ""
        if fragment not in table:
            continue
        values = row.get("values", {})
        x = values.get(x_col)
        if x is None:
            continue
        if values.get(y_col) is not None:
            measured.append((float(x), float(values[y_col])))
        if values.get(env_col) is not None:
            envelope.append((float(x), float(values[env_col])))
    return measured, envelope


def curves_section(run):
    lines = ["## Measured vs theory (latest run)", ""]
    plotted = 0
    for title, fragment, x_col, y_col, env_col in CURVES:
        measured, envelope = _curve_points(run, fragment, x_col, y_col, env_col)
        if not measured:
            continue
        plotted += 1
        lines.append(f"### {title}")
        lines.append("")
        lines.append(
            f"log-log, x = {x_col}; `*` measured {y_col}, "
            f"`o` theory envelope, `@` overlap"
        )
        lines.append("")
        lines.append("```")
        lines.extend(ascii_plot([("*", measured), ("o", envelope)]))
        lines.append("```")
        lines.append("")
    if not plotted:
        lines.append(
            "_No curve tables in the latest run — commit a full "
            "`run_all` run._"
        )
        lines.append("")
    return lines


def bounds_section(run):
    lines = ["## Bound certification (latest run)", ""]
    checks = run.get("bound_checks", [])
    if not checks:
        lines.append("_No bound_check events in the latest run._")
        lines.append("")
        return lines
    table = Table(
        title="bound checks",
        columns=["spec", "kind", "status", "measured", "predicted", "ratio"],
    )
    violations = 0
    for check in checks:
        violations += check.get("status") == "violation"
        table.add_row(
            spec=check.get("spec", "?"),
            kind=check.get("kind", "?"),
            status=check.get("status", "?"),
            measured=check.get("measured", ""),
            predicted=check.get("predicted", ""),
            ratio=check.get("ratio", ""),
        )
    verdict = (
        "all bounds hold within declared slack"
        if not violations
        else f"{violations} VIOLATION(S)"
    )
    lines.append(f"**{len(checks)} checks — {verdict}.**")
    lines.append("")
    lines.append("```")
    lines.append(table.render())
    lines.append("```")
    lines.append("")
    return lines


def _run_name(run, index):
    return str(run.get("label") or f"run{index}")


def trends_section(runs):
    lines = ["## Span wall-time trends (seconds per run)", ""]
    names = [_run_name(run, i) for i, run in enumerate(runs)]
    paths = sorted(
        {path for run in runs for path in run.get("spans", {})},
        key=lambda p: -(runs[-1].get("spans", {}).get(p, {}).get("total_s", 0.0)),
    )
    if not paths:
        lines.append("_No span data ingested yet._")
        lines.append("")
        return lines
    table = Table(title="span total_s per run", columns=["span"] + names)
    for path in paths:
        cells = {"span": path}
        for name, run in zip(names, runs):
            stats = run.get("spans", {}).get(path)
            cells[name] = round(stats["total_s"], 4) if stats else ""
        table.add_row(**cells)
    lines.append("```")
    lines.append(table.render())
    lines.append("```")
    lines.append("")
    return lines


def regression_section(runs):
    lines = ["## Regression verdict (last two runs)", ""]
    if len(runs) < 2:
        lines.append("_Need at least two ingested runs for a verdict._")
        lines.append("")
        return lines
    base, other = runs[-2], runs[-1]
    base_name = _run_name(base, len(runs) - 2)
    other_name = _run_name(other, len(runs) - 1)

    problems = []
    new_violations = sum(
        1 for c in other.get("bound_checks", []) if c.get("status") == "violation"
    )
    if new_violations:
        problems.append(f"{new_violations} bound violation(s) in {other_name}")

    slow = Table(
        title=f"span regressions > {SPAN_REGRESSION_RATIO}x",
        columns=["span", base_name, other_name, "ratio"],
    )
    for path, stats in other.get("spans", {}).items():
        before = base.get("spans", {}).get(path)
        now_s = stats.get("total_s", 0.0)
        if not before or now_s < SPAN_MIN_SECONDS:
            continue
        prev_s = before.get("total_s", 0.0)
        if prev_s > 0 and now_s / prev_s > SPAN_REGRESSION_RATIO:
            slow.add_row(
                **{
                    "span": path,
                    base_name: round(prev_s, 4),
                    other_name: round(now_s, 4),
                    "ratio": round(now_s / prev_s, 2),
                }
            )
    if slow.rows:
        problems.append(f"{len(slow.rows)} span timing regression(s)")

    # Per-metric verdicts through the same classifier obs_store.py diff
    # uses, so the dashboard and the store agree on what "regressed"
    # means.  Missing metrics are NEUTRAL with a note — a counter that
    # vanished is a schema change, not a performance win.
    deltas = metric_deltas(
        base.get("metrics", {}),
        other.get("metrics", {}),
        threshold=METRIC_THRESHOLD,
    )
    regressed = [d for d in deltas if d.verdict == "REGRESSED"]
    if regressed:
        problems.append(
            f"{len(regressed)} metric regression(s): "
            + ", ".join(d.name for d in regressed)
        )

    verdict = "OK" if not problems else "REGRESSION: " + "; ".join(problems)
    lines.append(f"**{base_name} -> {other_name}: {verdict}**")
    lines.append("")
    if slow.rows:
        lines.append("```")
        lines.append(slow.render())
        lines.append("```")
        lines.append("")
    if deltas:
        metric_table = Table(
            title=f"metric verdicts · {other_name} vs {base_name}",
            columns=["metric", base_name, other_name, "verdict", "note"],
        )
        for delta in deltas:
            metric_table.add_row(
                **{
                    "metric": delta.name,
                    base_name: delta.base if delta.base is not None else "-",
                    other_name: delta.other if delta.other is not None else "-",
                    "verdict": delta.verdict,
                    "note": delta.note,
                }
            )
        lines.append("```")
        lines.append(metric_table.render())
        lines.append("```")
    else:
        lines.append("_Metric totals identical across the two runs._")
    lines.append("")
    return lines


def condense_run(events, label=None, source=None):
    """One run record summarising a telemetry event stream."""
    rows = []
    for record in events:
        if record.get("event") != "row":
            continue
        row = {"table": record.get("table"), "values": record.get("values", {})}
        if record.get("meta"):
            row["meta"] = record["meta"]
        if "wall_s" in record:
            row["wall_s"] = record["wall_s"]
        rows.append(row)
    bound_checks = [
        {k: v for k, v in record.items() if k not in ("event", "seq", "ts")}
        for record in events
        if record.get("event") == "bound_check"
    ]
    return {
        "label": label,
        "source": source,
        "partial": is_partial(events),
        "spans": aggregate_spans(events),
        "metrics": metric_totals(events),
        "rows": rows,
        "bound_checks": bound_checks,
    }


def runs_from_store(store_path, branch=None):
    """Condensed run records from an experiment-store branch, oldest first.

    Each commit contributes its telemetry blobs, condensed by
    :func:`condense_run`; commits without telemetry are skipped.
    """
    store = ExperimentStore.open(store_path)
    runs = []
    for oid, commit in store.history(branch or "HEAD"):
        blobs = store.artifacts_by_role(oid, "telemetry")
        if not blobs:
            continue
        events = [e for _name, data in blobs for e in events_from_bytes(data)]
        record = condense_run(
            events, label=short_oid(oid), source=f"store:{commit.message}"
        )
        record["ingested_at"] = commit.timestamp
        runs.append(record)
    return runs


def render_markdown(runs):
    latest = runs[-1]
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    lines = [
        "# Observability dashboard",
        "",
        f"Generated {stamp} from {len(runs)} ingested run(s); "
        f"latest: `{_run_name(latest, len(runs) - 1)}`"
        + (" **(partial run)**" if latest.get("partial") else "")
        + ".",
        "",
    ]
    lines += curves_section(latest)
    lines += bounds_section(latest)
    lines += trends_section(runs)
    lines += regression_section(runs)
    return "\n".join(lines) + "\n"


def render_html(markdown_text):
    """Minimal static HTML wrapper (the plots are preformatted text)."""
    body = []
    in_code = False
    for line in markdown_text.splitlines():
        if line.strip() == "```":
            body.append("</pre>" if in_code else "<pre>")
            in_code = not in_code
            continue
        if in_code:
            body.append(html.escape(line))
        elif line.startswith("# "):
            body.append(f"<h1>{html.escape(line[2:])}</h1>")
        elif line.startswith("## "):
            body.append(f"<h2>{html.escape(line[3:])}</h2>")
        elif line.startswith("### "):
            body.append(f"<h3>{html.escape(line[4:])}</h3>")
        elif line.strip():
            body.append(f"<p>{html.escape(line)}</p>")
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        "<title>Observability dashboard</title>"
        "<style>body{font-family:sans-serif;margin:2em;max-width:72em}"
        "pre{background:#f6f8fa;padding:1em;overflow-x:auto;"
        "font-size:13px;line-height:1.25}</style>"
        "</head><body>\n" + "\n".join(body) + "\n</body></html>\n"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--store",
        default=DEFAULT_STORE,
        help="experiment store to read runs from (default: %(default)s)",
    )
    parser.add_argument(
        "--branch",
        default=None,
        help="store branch to trend over (default: the checked-out branch)",
    )
    parser.add_argument(
        "--out-dir",
        default=".obs",
        help="output directory (default: %(default)s)",
    )
    args = parser.parse_args()

    source = f"store {args.store}" + (
        f" branch {args.branch}" if args.branch else ""
    )
    runs = []
    if ExperimentStore.is_store(args.store):
        runs = runs_from_store(args.store, branch=args.branch)
    if not runs:
        print(
            f"error: no runs in {source}; commit one with "
            "run_all --commit-run",
            file=sys.stderr,
        )
        return 1
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    markdown_text = render_markdown(runs)
    md_path = out_dir / "dashboard.md"
    html_path = out_dir / "dashboard.html"
    md_path.write_text(markdown_text)
    html_path.write_text(render_html(markdown_text))
    print(f"wrote {md_path}")
    print(f"wrote {html_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
