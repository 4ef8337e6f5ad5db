"""Karger contraction: the one engine behind every randomized min cut.

Plain Karger contraction (:func:`contraction_cuts`) contracts random
weighted edges down to two super-nodes; it backs
:func:`repro.graphs.mincut.karger_min_cut` and the distributed
coordinator's near-minimum cut sampler
(:func:`repro.graphs.mincut.sample_near_min_cuts`).  It needs
``Theta(n^2 log n)`` runs for high confidence; Karger–Stein
(:func:`karger_stein_min_cut`) contracts only down to
``n/sqrt(2) + 1`` before *branching into two independent recursions*,
pushing the success probability of one tree to ``Omega(1/log n)`` and
the total work to ``O(n^2 log^3 n)``.  The suite cross-checks both
against Stoer–Wagner and enumeration.

Implementation: the graph is flattened once into immutable edge arrays
(``tails``/``heads``/``weights``); a contraction state is nothing but a
union-find ``parent`` vector, so cloning a branch is one ``ndarray.copy``
and no per-step edge-list materialization happens at all.  The
contraction pass itself runs through the runtime-selected kernel backend
(:mod:`repro.kernels`): uniforms are pre-drawn on the Python side — one
per contraction step — so python and native backends consume an
identical RNG stream and produce identical cuts per seed (pinned by
``tests/graphs/test_karger_kernel_regression.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graphs.ugraph import Node, UGraph
from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class _EdgeArrays:
    """Flattened immutable edge list shared by every contraction branch."""

    labels: Tuple[Node, ...]
    tails: np.ndarray
    heads: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_graph(cls, graph: UGraph) -> "_EdgeArrays":
        labels = tuple(graph.nodes())
        index = {label: i for i, label in enumerate(labels)}
        edges = list(graph.edges())
        m = len(edges)
        tails = np.empty(m, dtype=np.int64)
        heads = np.empty(m, dtype=np.int64)
        weights = np.empty(m, dtype=np.float64)
        for e, (u, v, w) in enumerate(edges):
            tails[e] = index[u]
            heads[e] = index[v]
            weights[e] = w
        return cls(labels=labels, tails=tails, heads=heads, weights=weights)


def _contract(
    parent: np.ndarray, size: int, target: int, arrays: _EdgeArrays, gen, backend
) -> int:
    """Contract ``parent`` toward ``target`` super-nodes; returns reached size.

    Uniforms are always drawn ``size - target`` at a time regardless of
    how many the kernel consumes, so the RNG stream advances identically
    on every backend (and on every failure mode).
    """
    draws = size - target
    uniforms = gen.random(draws) if draws > 0 else np.empty(0, dtype=np.float64)
    reached, _used = backend.contract_to(
        arrays.tails, arrays.heads, arrays.weights, parent, size, target, uniforms
    )
    return reached


def _cut_of_two(
    parent: np.ndarray, arrays: _EdgeArrays
) -> Tuple[float, FrozenSet[Node]]:
    """Cut value and side for a fully contracted (2 super-node) state."""
    crossing = parent[arrays.tails] != parent[arrays.heads]
    value = float(arrays.weights[crossing].sum())
    side = frozenset(
        arrays.labels[i] for i in np.flatnonzero(parent == parent[0]).tolist()
    )
    return value, side


def _plain_runs(
    parent: np.ndarray, size: int, runs: int, arrays: _EdgeArrays, gen, backend
) -> Iterator[Tuple[float, FrozenSet[Node]]]:
    """Cuts of ``runs`` independent contractions of ``parent`` to two.

    A run that stops above two super-nodes (no crossing weight left:
    the graph is disconnected) is skipped.
    """
    for _ in range(runs):
        trial = parent.copy()
        if _contract(trial, size, 2, arrays, gen, backend) == 2:
            yield _cut_of_two(trial, arrays)


def contraction_cuts(
    graph: UGraph, runs: int, gen
) -> Iterator[Tuple[float, FrozenSet[Node]]]:
    """Plain Karger: ``(value, side)`` of each of ``runs`` contractions.

    Each side contains ``graph.nodes()[0]``; runs that cannot reach two
    super-nodes are skipped.
    """
    from repro.kernels import get_backend, mark_use

    arrays = _EdgeArrays.from_graph(graph)
    backend = get_backend()
    mark_use(backend)
    n = graph.num_nodes
    return _plain_runs(np.arange(n, dtype=np.int64), n, runs, arrays, gen, backend)


def _recurse(
    parent: np.ndarray, size: int, arrays: _EdgeArrays, gen, backend
) -> Tuple[float, FrozenSet[Node]]:
    if size <= 6:
        # Base case: finish with repeated plain contraction.
        best = min(
            _plain_runs(parent, size, size * size, arrays, gen, backend),
            key=lambda item: item[0],
            default=None,
        )
        if best is None:
            raise GraphError("graph is disconnected")
        return best
    target = max(2, int(math.ceil(size / math.sqrt(2.0))) + 1)
    results: List[Tuple[float, FrozenSet[Node]]] = []
    for _ in range(2):
        branch = parent.copy()
        if _contract(branch, size, target, arrays, gen, backend) == target:
            results.append(_recurse(branch, target, arrays, gen, backend))
    if not results:
        raise GraphError("graph is disconnected")
    return min(results, key=lambda item: item[0])


def karger_stein_min_cut(
    graph: UGraph, repetitions: Optional[int] = None, rng: RngLike = None
) -> Tuple[float, FrozenSet[Node]]:
    """Global min cut by Karger–Stein recursive contraction.

    ``repetitions`` independent recursion trees are run (default
    ``ceil(log^2 n) + 2``), each succeeding with probability
    ``Omega(1/log n)``; the best cut over all trees is returned.
    """
    from repro.kernels import get_backend, mark_use

    n = graph.num_nodes
    if n < 2:
        raise GraphError("min cut needs at least two nodes")
    if not graph.is_connected():
        return 0.0, frozenset(graph.connected_components()[0])
    if repetitions is None:
        log_n = max(1.0, math.log(n))
        repetitions = int(math.ceil(log_n * log_n)) + 2
    gen = ensure_rng(rng)
    arrays = _EdgeArrays.from_graph(graph)
    backend = get_backend()
    mark_use(backend)
    best: Optional[Tuple[float, FrozenSet[Node]]] = None
    for _ in range(repetitions):
        parent = np.arange(n, dtype=np.int64)
        candidate = _recurse(parent, n, arrays, gen, backend)
        if best is None or candidate[0] < best[0]:
            best = candidate
    assert best is not None
    return best
