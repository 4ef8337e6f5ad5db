"""PR5 — the parallel trial-execution engine.

Two claims, each a table:

1. **Determinism.**  The engine's contract is bit-identity: a for-each
   Index game and a for-all Gap-Hamming game produce byte-identical
   result digests at every worker count.  Parallelism is a pure
   wall-clock optimisation — no statistical caveats, no seed drift.
2. **Fan-out throughput.**  A blocking workload (trials dominated by
   waiting, the distributed-experiment shape) completes ~jobs times
   faster under the pool; a CPU-bound workload scales with physical
   cores.  The acceptance gate (>= 3x on 4 workers) lives in
   ``scripts/bench_report.py --gate parallel`` -> ``.bench/report.json``.
"""

import hashlib
import time

import numpy as np

from repro.experiments.harness import Table
from repro.foreach_lb.game import run_index_game
from repro.foreach_lb.params import ForEachParams
from repro.parallel import TrialPool, fork_available, run_trials
from repro.sketch.noisy import NoisyForEachSketch

SLEEP_TRIALS = 12
SLEEP_S = 0.15


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _foreach_digest(jobs):
    params = ForEachParams(inv_eps=4, sqrt_beta=1, num_groups=2)
    result = run_index_game(
        params,
        lambda g, r: NoisyForEachSketch(g, epsilon=0.1, rng=r),
        rounds=10,
        rng=33,
        jobs=jobs,
    )
    return _digest(
        (result.summary, result.mean_sketch_bits, result.encoding_failure_rate)
    )


def _blocking_trial(rng):
    time.sleep(SLEEP_S)
    return float(rng.random())


def _run_blocking(jobs):
    start = time.perf_counter()
    results = run_trials(
        _blocking_trial, SLEEP_TRIALS, np.random.default_rng(1), jobs=jobs
    )
    return time.perf_counter() - start, results


def test_digest_identical_across_worker_counts(benchmark, emit_table):
    table = Table(
        title="PR5 - for-each game result digest vs worker count (10 rounds)",
        columns=["jobs", "digest", "matches_serial"],
    )
    serial = _foreach_digest(jobs=1)
    table.add_row(jobs=1, digest=serial, matches_serial=True)
    worker_counts = (2, 4) if fork_available() else ()
    for jobs in worker_counts:
        digest = _foreach_digest(jobs=jobs)
        assert digest == serial
        table.add_row(jobs=jobs, digest=digest, matches_serial=True)
    table.add_note(
        "bit-identical digests: the pool changes wall time, never results"
    )
    emit_table(table)
    benchmark.pedantic(lambda: _foreach_digest(jobs=1), rounds=1, iterations=1)


def test_blocking_fanout_speedup(benchmark, emit_table):
    table = Table(
        title="PR5 - blocking workload (%d trials x %.2fs) vs worker count"
        % (SLEEP_TRIALS, SLEEP_S),
        columns=["jobs", "wall_s", "speedup", "digest"],
    )
    serial_s, serial_results = _run_blocking(jobs=1)
    table.add_row(
        jobs=1, wall_s=serial_s, speedup=1.0, digest=_digest(serial_results)
    )
    worker_counts = (2, 4) if fork_available() else ()
    for jobs in worker_counts:
        wall_s, results = _run_blocking(jobs=jobs)
        assert results == serial_results
        table.add_row(
            jobs=jobs,
            wall_s=wall_s,
            speedup=serial_s / wall_s,
            digest=_digest(results),
        )
    table.add_note(
        "blocking trials fan out ~jobs-fold; digests stay equal to serial"
    )
    emit_table(table)
    benchmark.pedantic(
        lambda: _run_blocking(jobs=4 if fork_available() else 1),
        rounds=1,
        iterations=1,
    )


def test_pool_overhead_small_items(benchmark, emit_table):
    # The other side of the ledger: chunking amortises per-task overhead,
    # so tiny items should not be catastrophically slower than inline.
    items = list(range(512))

    def fanned():
        return TrialPool(jobs=2).map(lambda x: x * x, items)

    start = time.perf_counter()
    inline = [x * x for x in items]
    inline_s = time.perf_counter() - start
    start = time.perf_counter()
    assert fanned() == inline
    pool_s = time.perf_counter() - start
    table = Table(
        title="PR5 - pool overhead on 512 trivial items",
        columns=["path", "wall_s"],
    )
    table.add_row(path="inline", wall_s=inline_s)
    table.add_row(path="pool_jobs2", wall_s=pool_s)
    table.add_note(
        "chunked dispatch: overhead is per-chunk (jobs*factor), not per-item"
    )
    emit_table(table)
    benchmark.pedantic(fanned, rounds=1, iterations=1)
