#!/usr/bin/env python
"""Drive the versioned experiment store: git-like verbs over run artifacts.

The store (default ``.obs/store``) holds immutable, content-addressed
snapshots of experiment runs — telemetry, wire transcripts, bench gate
reports, bound summaries — organised into commits on branches per
experiment line.  See :mod:`repro.obs.store` for the object model.

Subcommands::

    init                                create the store
    commit    --telemetry t.jsonl ...   snapshot one run's artifacts
    log       [REV] [-n N]              first-parent history
    show      REV                       one commit's header + artifacts
    branch    [NAME] [--delete]         list / create / delete branches
    checkout  REV [--out DIR]           move HEAD; optionally extract
    diff      BASE OTHER [--check]      structural run diff + verdict
    fsck                                verify every object and ref
    bisect    --good A --bad B --metric M   find the first bad commit

Exit codes: 0 success; 1 store/usage error (including fsck corruption);
2 ``diff --check`` found a REGRESSED verdict.

Typical session::

    PYTHONPATH=src python -m repro.experiments.run_all --commit-run \
        --capture-wire                      # auto-commits the run
    PYTHONPATH=src python scripts/obs_store.py log
    PYTHONPATH=src python scripts/obs_store.py diff HEAD~1 HEAD
    PYTHONPATH=src python scripts/obs_store.py bisect \
        --good HEAD~8 --bad HEAD --metric comm.total_bits
"""

import argparse
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.obs.store import (  # noqa: E402
    DEFAULT_STORE,
    DiffThresholds,
    ExperimentStore,
    StoreError,
    bisect_commits,
    collect_run_files,
    diff_commits,
    fsck,
    short_oid,
)
from repro.obs.store.bisect import BisectError  # noqa: E402

#: Exit code for a REGRESSED verdict under ``diff --check``.
EXIT_REGRESSED = 2


def _open_store(args):
    return ExperimentStore.open(args.store)


def cmd_init(args):
    created = not ExperimentStore.is_store(args.store)
    ExperimentStore.init(args.store)
    print(
        f"{'initialised' if created else 'reusing'} experiment store at "
        f"{Path(args.store).resolve()}"
    )
    return 0


def cmd_commit(args):
    store = _open_store(args)
    bench = args.bench if args.bench is not None else sorted(
        Path.cwd().glob("BENCH_*.json")
    )
    files = collect_run_files(
        telemetry_path=args.telemetry,
        capture_path=args.capture,
        bench_paths=bench,
    )
    oid = store.commit_artifacts(
        files,
        message=args.message or f"run committed {time.strftime('%Y-%m-%d %H:%M:%S')}",
        branch=args.branch,
        meta={"committed_by": "obs_store.py"},
    )
    branch = args.branch or store.refs.current_branch()
    print(
        f"[{branch} {short_oid(oid)}] {len(files)} artifact(s): "
        + ", ".join(sorted(files))
    )
    return 0


def cmd_log(args):
    store = _open_store(args)
    entries = store.log(args.rev, limit=args.max_count)
    if not entries:
        print("no commits")
        return 0
    for oid, commit in entries:
        stamp = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(commit.timestamp)
        )
        line = f"{short_oid(oid)}  {stamp}  {commit.author}  {commit.message}"
        extras = []
        if commit.meta.get("experiments"):
            extras.append("experiments=" + ",".join(commit.meta["experiments"]))
        if commit.meta.get("kernels"):
            extras.append(f"kernels={commit.meta['kernels']}")
        if extras:
            line += "  (" + " ".join(extras) + ")"
        print(line)
    return 0


def cmd_show(args):
    store = _open_store(args)
    oid = store.resolve(args.rev)
    commit = store.read_commit(oid)
    print(f"commit {oid}")
    print(f"tree   {commit.tree}")
    for parent in commit.parents:
        print(f"parent {parent}")
    stamp = time.strftime(
        "%Y-%m-%d %H:%M:%S", time.localtime(commit.timestamp)
    )
    print(f"author {commit.author}")
    print(f"date   {stamp}")
    if commit.meta:
        print(f"meta   {json.dumps(commit.meta, sort_keys=True)}")
    print(f"\n    {commit.message}\n")
    tree = store.read_tree_of(oid)
    for entry in tree.entries:
        size = len(store.blob_bytes(entry.oid))
        print(f"  {short_oid(entry.oid)}  {entry.role:<10} {entry.name}  ({size} bytes)")
    return 0


def cmd_branch(args):
    store = _open_store(args)
    if args.delete:
        if not args.name:
            print("error: --delete needs a branch name", file=sys.stderr)
            return 1
        store.refs.delete_branch(args.name)
        print(f"deleted branch {args.name}")
        return 0
    if args.name:
        tip = store.refs.resolve_head()
        if tip is None:
            print(
                "error: cannot branch from an unborn HEAD (commit first)",
                file=sys.stderr,
            )
            return 1
        if store.refs.read_branch(args.name) is not None:
            print(f"error: branch {args.name!r} already exists", file=sys.stderr)
            return 1
        store.refs.update_branch(args.name, tip, message=f"branch from {short_oid(tip)}")
        print(f"created branch {args.name} at {short_oid(tip)}")
        return 0
    current = store.refs.current_branch()
    for name in store.refs.list_branches():
        marker = "*" if name == current else " "
        tip = store.refs.read_branch(name)
        print(f"{marker} {name}  {short_oid(tip) if tip else '(unborn)'}")
    return 0


def cmd_checkout(args):
    store = _open_store(args)
    oid = store.checkout(args.rev, out_dir=args.out)
    where = f", artifacts extracted to {args.out}" if args.out else ""
    print(f"HEAD is now at {short_oid(oid)} ({args.rev}){where}")
    return 0


def cmd_diff(args):
    store = _open_store(args)
    thresholds = DiffThresholds(metric=args.metric_threshold)
    diff = diff_commits(store, args.base, args.other, thresholds=thresholds)
    if args.json:
        print(json.dumps(diff.as_dict(), indent=1, sort_keys=True))
    else:
        print(diff.render())
    if args.check and diff.verdict == "REGRESSED":
        return EXIT_REGRESSED
    return 0


def cmd_fsck(args):
    store = _open_store(args)
    report = fsck(store)
    print(report.summary())
    issues = report.issues if args.verbose else report.errors
    for issue in issues:
        print(f"  {issue}")
    return 0 if report.ok else 1


def cmd_bisect(args):
    store = _open_store(args)
    try:
        result = bisect_commits(
            store,
            good_rev=args.good,
            bad_rev=args.bad,
            metric=args.metric,
            gate=args.gate,
            threshold=args.threshold,
            lower_is_better=not args.higher_is_better,
            verify_replay=not args.no_replay,
        )
    except BisectError as exc:
        print(f"bisect error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.as_dict(), indent=1, sort_keys=True))
        return 0
    print(result.summary())
    first_bad = store.read_commit(result.first_bad)
    print(f"  first bad: {short_oid(result.first_bad)}  {first_bad.message}")
    for ev in result.evaluations:
        print(
            f"  evaluated {short_oid(ev.oid)}: value={ev.value} "
            f"{ev.status} (transcript: {ev.replay})"
        )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--store",
        default=DEFAULT_STORE,
        help="store root (default: %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create the store")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("commit", help="snapshot one run's artifacts")
    p.add_argument("--telemetry", default=None, help="telemetry JSONL to commit")
    p.add_argument("--capture", default=None, help="wire capture JSONL to commit")
    p.add_argument(
        "--bench",
        nargs="*",
        default=None,
        help="BENCH_*.json reports (default: all in the working directory)",
    )
    p.add_argument("-m", "--message", default=None, help="commit message")
    p.add_argument(
        "--branch",
        default=None,
        help="branch to commit to (default: the checked-out branch; a new "
        "name starts an independent experiment line)",
    )
    p.set_defaults(func=cmd_commit)

    p = sub.add_parser("log", help="first-parent history")
    p.add_argument("rev", nargs="?", default="HEAD")
    p.add_argument("-n", "--max-count", type=int, default=None)
    p.set_defaults(func=cmd_log)

    p = sub.add_parser("show", help="one commit's header and artifacts")
    p.add_argument("rev")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("branch", help="list / create / delete branches")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--delete", action="store_true")
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("checkout", help="move HEAD; optionally extract artifacts")
    p.add_argument("rev")
    p.add_argument("--out", default=None, help="extract the commit's artifacts here")
    p.set_defaults(func=cmd_checkout)

    p = sub.add_parser("diff", help="structural diff of two commits")
    p.add_argument("base")
    p.add_argument("other")
    p.add_argument(
        "--metric-threshold",
        type=float,
        default=0.05,
        help="relative neutral band per metric (default: %(default)s)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--check",
        action="store_true",
        help=f"exit {EXIT_REGRESSED} when the verdict is REGRESSED",
    )
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("fsck", help="verify object, ref, and reflog integrity")
    p.add_argument(
        "--verbose", action="store_true", help="also print warnings (dangling objects)"
    )
    p.set_defaults(func=cmd_fsck)

    p = sub.add_parser("bisect", help="find the first commit that moved a metric")
    p.add_argument("--good", required=True, help="known-good revision")
    p.add_argument("--bad", required=True, help="known-bad revision")
    p.add_argument("--metric", default=None, help="metric name to track")
    p.add_argument("--gate", default=None, help="BENCH_*.json report to track")
    p.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="relative regression threshold (default: %(default)s)",
    )
    p.add_argument(
        "--higher-is-better",
        action="store_true",
        help="treat increases of the metric as improvements",
    )
    p.add_argument(
        "--no-replay",
        action="store_true",
        help="skip replay verification of cached wire transcripts",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_bisect)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
