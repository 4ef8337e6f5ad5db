"""Content-addressed, versioned storage for experiment artifacts.

This package is the observatory's run history.  It answers the
navigation questions a series of runs raises — what lineage is this
run part of, what changed between these two runs, did anything rot,
and **which commit moved this metric**.  It is a small git: immutable zlib-compressed objects
addressed by SHA-256, trees grouping one run's artifacts (telemetry,
wire transcripts, bench gate reports, bound summaries — the certified
envelope evidence of Thms 1.1/1.2/1.3/5.7), commits with parent links,
branches per experiment line, tags, a reflog, and the verbs over them:

* :mod:`repro.obs.store.objects` — the object database
  (:class:`ObjectStore`, :class:`Tree`, :class:`Commit`);
* :mod:`repro.obs.store.refs` — branches / tags / HEAD / reflog
  (:class:`RefStore`);
* :mod:`repro.obs.store.repo` — the :class:`ExperimentStore` facade
  (init / commit / log / show / checkout / revision resolution) and
  the ``run_all`` bridge (:func:`collect_run_files`);
* :mod:`repro.obs.store.diff` — structural run-to-run comparison with
  per-metric ``IMPROVED`` / ``REGRESSED`` / ``NEUTRAL`` verdicts,
  reusing :mod:`repro.obs.report` for totals and
  :func:`repro.obs.capture.first_divergence` for wire transcripts;
* :mod:`repro.obs.store.fsck` — re-hash every reachable object and
  validate commit/tree/ref/reflog integrity;
* :mod:`repro.obs.store.bisect` — the automated regression bisector,
  replay-verifying cached wire transcripts
  (:func:`repro.obs.replay.replay_capture`) before trusting a
  commit's numbers.

Drive it with ``scripts/obs_store.py`` (init / commit / log / show /
branch / checkout / diff / fsck / bisect) or commit runs
automatically with ``python -m repro.experiments.run_all
--commit-run``.  The store lives at ``.obs/store`` by default and is
safe to delete — it holds *copies* of artifacts, never originals.
"""

from repro.obs.store.bisect import (
    BisectError,
    BisectEval,
    BisectResult,
    bisect_commits,
    commit_chain,
    verify_transcript,
)
from repro.obs.store.diff import (
    DiffThresholds,
    GateDelta,
    MetricDelta,
    RunDiff,
    SpanDelta,
    capture_from_events,
    classify,
    diff_commits,
    metric_deltas,
)
from repro.obs.store.fsck import FsckIssue, FsckReport, fsck
from repro.obs.store.objects import (
    Commit,
    ObjectStore,
    StoreError,
    Tree,
    TreeEntry,
    hash_object,
    short_oid,
)
from repro.obs.store.refs import DEFAULT_BRANCH, RefStore, validate_ref_name
from repro.obs.store.repo import (
    DEFAULT_STORE,
    ExperimentStore,
    bounds_summary,
    collect_run_files,
    events_from_bytes,
)

__all__ = [
    "BisectError",
    "BisectEval",
    "BisectResult",
    "Commit",
    "DEFAULT_BRANCH",
    "DEFAULT_STORE",
    "DiffThresholds",
    "ExperimentStore",
    "FsckIssue",
    "FsckReport",
    "GateDelta",
    "MetricDelta",
    "ObjectStore",
    "RefStore",
    "RunDiff",
    "SpanDelta",
    "StoreError",
    "Tree",
    "TreeEntry",
    "bisect_commits",
    "bounds_summary",
    "capture_from_events",
    "classify",
    "collect_run_files",
    "commit_chain",
    "diff_commits",
    "events_from_bytes",
    "fsck",
    "hash_object",
    "metric_deltas",
    "short_oid",
    "validate_ref_name",
    "verify_transcript",
]
