"""Side process that samples its CPU's speed while a run measures.

This box's CPUs run slower per instruction for seconds at a time while
the host's other tenants are busy, so CPU time alone swings from one run
to the next.  Pinned to the CPU the measured process runs on, this
process runs a fixed pure-python step every ``PERIOD_S`` and records
``(monotonic time, CPU seconds of the step)``.  The step copies a small
dict-of-dicts graph and collects its edges as frozensets, the
allocation- and hashing-heavy kind of work the program does (Karger
contraction, Stoer–Wagner, request decoding), so it slows down under
contention by the same factor as the program.  When its stdin closes it
prints the samples as one JSON list and exits::

    python perfbench/probe.py < /dev/null
"""

from __future__ import annotations

import json
import random
import select
import sys
import time

#: Pause between samples.
PERIOD_S = 0.02


def fixed_graph(nodes: int = 120, picks: int = 4):
    rnd = random.Random(3)
    graph = {u: {} for u in range(nodes)}
    for u in range(nodes):
        for _ in range(picks):
            v = rnd.randrange(nodes)
            if v != u:
                w = rnd.random()
                graph[u][v] = w
                graph[v][u] = w
    return graph


GRAPH = fixed_graph()


def step() -> float:
    """CPU seconds of one fixed step (about half a millisecond)."""
    start = time.thread_time()
    adj = {u: dict(nbrs) for u, nbrs in GRAPH.items()}
    seen = set()
    edges = []
    for u, nbrs in adj.items():
        for v, w in nbrs.items():
            key = frozenset((u, v))
            if key not in seen:
                seen.add(key)
                edges.append((u, v, w))
    if sum(w for _, _, w in edges) < 0:  # keeps the step observable
        raise SystemExit("negative weight")
    return time.thread_time() - start


def main() -> int:
    samples = []
    while True:
        samples.append((time.monotonic(), step()))
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready:
            break
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
