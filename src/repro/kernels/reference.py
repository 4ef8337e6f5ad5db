"""Pure-Python reference implementations of the kernel interface.

This module *defines* the semantics every other backend must match.
All kernels operate on flat typed arrays — no dataclass objects, no
dict adjacency — so a compiled backend can run the identical algorithm
over the identical memory layout.  Where floating point is involved the
accumulation order is part of the contract: a native backend that adds
the same doubles in the same order produces bit-identical results, and
the parity suite (``tests/kernels/test_parity.py``) holds it to that.

Calling convention (shared by every backend)
--------------------------------------------

**Dinic max-flow** works on a residual arc array layout: snapshot edge
``e`` owns forward arc ``2e`` and reverse arc ``2e + 1`` (so the
reverse of arc ``a`` is ``a ^ 1``); ``indptr``/``adj`` is a CSR-style
flattened per-node arc list built in edge order (forward arc appended
to the tail's list, reverse arc to the head's, edge by edge).
``dinic_solve`` mutates ``arc_flow`` in place and returns
``(flow_value, phases)``; ``residual_reachable`` fills the ``seen``
byte vector with the residual-reachable set (a min-cut side).
``level``/``iters``/``stack``/``path``/``queue`` are caller-allocated
scratch vectors, reused across the repeated flow calls of global
min-cut and Gomory–Hu.

**Contraction** (``contract_to``) implements one weighted Karger
contraction pass over an edge list plus a union-find ``parent``
vector: each step draws one pre-supplied uniform in ``[0, 1)``,
scales it by the total weight of edges whose endpoints lie in
different components (accumulated in edge order), picks the edge by
cumulative scan, and unions head-root under tail-root.  Randomness is
supplied by the *caller* (one uniform per contraction) precisely so
python and native backends consume an identical stream.  On return
``parent`` is fully path-compressed (``parent[i]`` is the component
root for every ``i``) and the reached super-node count is reported.

**Hadamard** kernels evaluate Lemma 3.2 products against the memoized
Sylvester matrix ``H`` (entries ±1, ``int8``): ``had_combine_many``
computes ``H^T C_b H`` per coefficient block (exact ``int64``),
``had_row_products`` computes the full product table ``H X H^T`` for a
reshaped query vector, and ``had_decode_one`` recovers one coefficient
``<x, H_i (x) H_j> / ||row||^2``, materializing the dense row exactly
like the pre-kernel implementation did.

**Stoer–Wagner** (``stoer_wagner``) runs the global min cut over a
dense C-contiguous ``float64[n, n]`` symmetric weight matrix with a
zero diagonal, which it mutates as phases merge nodes, and fills the
``uint8[n]`` ``side`` vector with the indicator of the best cut's side;
it returns the cut value.  The tie-break rules are part of the
contract: each phase starts at the lowest alive index, scans the alive
nodes in ascending index order, the first strict maximum of the
attachment weights joins ``A``, and a phase cut replaces the best one
only when strictly ``<``.  Merging ``t`` into ``s`` adds row ``t`` to
row ``s``, mirrors it into column ``s``, zeroes the diagonal and clears
row and column ``t``.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

_EPS = 1e-12


# ----------------------------------------------------------------------
# Dinic max flow over flat residual arc arrays
# ----------------------------------------------------------------------
def dinic_solve(
    indptr: np.ndarray,
    adj: np.ndarray,
    arc_head: np.ndarray,
    arc_cap: np.ndarray,
    arc_flow: np.ndarray,
    level: np.ndarray,
    iters: np.ndarray,
    stack: np.ndarray,
    path: np.ndarray,
    queue: np.ndarray,
    source: int,
    sink: int,
) -> Tuple[float, int]:
    """Run Dinic from ``source`` to ``sink``; mutates ``arc_flow``.

    The hot loops run over plain Python lists (the fastest interpreted
    representation); the mutated flow vector is written back into the
    caller's ``arc_flow`` array before returning.
    """
    n = len(indptr) - 1
    indptr_l = indptr.tolist()
    adj_l = adj.tolist()
    head_l = arc_head.tolist()
    cap_l = arc_cap.tolist()
    flow_l = arc_flow.tolist()

    total = 0.0
    phases = 0
    while True:
        levels = _bfs_levels(n, indptr_l, adj_l, head_l, cap_l, flow_l, source)
        if levels[sink] < 0:
            break
        phases += 1
        total += _blocking_flow(
            n, indptr_l, adj_l, head_l, cap_l, flow_l, levels, source, sink
        )
    arc_flow[:] = flow_l
    return total, phases


def _bfs_levels(n, indptr, adj, arc_head, arc_cap, arc_flow, source) -> List[int]:
    from collections import deque

    level = [-1] * n
    level[source] = 0
    queue = deque([source])
    while queue:
        cur = queue.popleft()
        for k in range(indptr[cur], indptr[cur + 1]):
            a = adj[k]
            head = arc_head[a]
            if level[head] < 0 and arc_cap[a] - arc_flow[a] > _EPS:
                level[head] = level[cur] + 1
                queue.append(head)
    return level


def _blocking_flow(
    n, indptr, adj, arc_head, arc_cap, arc_flow, level, source, sink
) -> float:
    """Iterative blocking flow for one Dinic phase (reference order)."""
    iters = [0] * n
    total = 0.0
    stack = [source]
    path: List[int] = []
    while stack:
        u = stack[-1]
        if u == sink:
            push = min(arc_cap[a] - arc_flow[a] for a in path)
            total += push
            for a in path:
                arc_flow[a] += push
                arc_flow[a ^ 1] -= push
            # Retreat to just past the first arc this push saturated.
            cut = 0
            for i, a in enumerate(path):
                if arc_cap[a] - arc_flow[a] <= _EPS:
                    cut = i
                    break
            del stack[cut + 1 :]
            del path[cut:]
            continue
        advanced = False
        while iters[u] < indptr[u + 1] - indptr[u]:
            a = adj[indptr[u] + iters[u]]
            head = arc_head[a]
            if arc_cap[a] - arc_flow[a] > _EPS and level[head] == level[u] + 1:
                stack.append(head)
                path.append(a)
                advanced = True
                break
            iters[u] += 1
        if not advanced:
            level[u] = -1  # dead end for the rest of this phase
            stack.pop()
            if path:
                path.pop()
                iters[stack[-1]] += 1
    return total


def residual_reachable(
    indptr: np.ndarray,
    adj: np.ndarray,
    arc_head: np.ndarray,
    arc_cap: np.ndarray,
    arc_flow: np.ndarray,
    seen: np.ndarray,
    stack: np.ndarray,
    source: int,
) -> None:
    """Fill ``seen`` (uint8) with the residual-reachable set from source."""
    n = len(indptr) - 1
    indptr_l = indptr.tolist()
    adj_l = adj.tolist()
    head_l = arc_head.tolist()
    cap_l = arc_cap.tolist()
    flow_l = arc_flow.tolist()
    seen_l = [0] * n
    seen_l[source] = 1
    work = [source]
    while work:
        cur = work.pop()
        for k in range(indptr_l[cur], indptr_l[cur + 1]):
            a = adj_l[k]
            head = head_l[a]
            if not seen_l[head] and cap_l[a] - flow_l[a] > _EPS:
                seen_l[head] = 1
                work.append(head)
    seen[:] = seen_l


# ----------------------------------------------------------------------
# Weighted contraction over an edge list + union-find parent vector
# ----------------------------------------------------------------------
def _find(parent: List[int], i: int) -> int:
    """Root of ``i`` with path halving (the shared union-find rule)."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def contract_to(
    tails: np.ndarray,
    heads: np.ndarray,
    weights: np.ndarray,
    parent: np.ndarray,
    size: int,
    target: int,
    uniforms: np.ndarray,
) -> Tuple[int, int]:
    """Contract until ``target`` super-nodes remain (or stuck).

    Returns ``(reached_size, uniforms_consumed)``.  ``reached_size``
    stays above ``target`` only when the alive subgraph ran out of
    cross-component edges (disconnected).  ``parent`` is mutated and
    fully compressed on return.
    """
    m = int(tails.size)
    tails_l = tails.tolist()
    heads_l = heads.tolist()
    weights_l = weights.tolist()
    parent_l = parent.tolist()
    uniforms_l = uniforms.tolist()
    used = 0
    current = size
    while current > target:
        total = 0.0
        for e in range(m):
            if _find(parent_l, tails_l[e]) != _find(parent_l, heads_l[e]):
                total += weights_l[e]
        if total <= 0.0:
            break
        pick = uniforms_l[used] * total
        used += 1
        acc = 0.0
        chosen = -1
        for e in range(m):
            ra = _find(parent_l, tails_l[e])
            rb = _find(parent_l, heads_l[e])
            if ra == rb:
                continue
            chosen = e
            acc += weights_l[e]
            if pick <= acc:
                break
        ra = _find(parent_l, tails_l[chosen])
        rb = _find(parent_l, heads_l[chosen])
        parent_l[rb] = ra
        current -= 1
    for i in range(len(parent_l)):
        parent_l[i] = _find(parent_l, i)
    parent[:] = parent_l
    return current, used


# ----------------------------------------------------------------------
# Stoer–Wagner global min cut over a dense weight matrix
# ----------------------------------------------------------------------
def stoer_wagner(matrix: np.ndarray, side: np.ndarray) -> float:
    """Global min cut value; mutates ``matrix`` and fills ``side``.

    The attachment vector ``key`` holds ``-inf`` for the nodes already
    in ``A`` (and the merged-away ones), so ``argmax`` picks the first
    strict maximum among the rest and adding a row leaves them at
    ``-inf``; every other entry sums the same doubles in the same order
    as a per-node scan.
    """
    n = matrix.shape[0]
    alive = np.ones(n, dtype=bool)
    group = np.arange(n)  # the super node each original node sits in
    best = math.inf
    for remaining in range(n, 1, -1):
        start = int(np.argmax(alive))
        key = matrix[start].copy()
        key[~alive] = -math.inf
        key[start] = -math.inf
        s = t = start
        cut = 0.0
        for _ in range(remaining - 1):
            s, t = t, int(np.argmax(key))
            cut = float(key[t])
            key[t] = -math.inf
            key += matrix[t]
        if cut < best:
            best = cut
            side[:] = group == t
        group[group == t] = s
        matrix[s] += matrix[t]
        matrix[:, s] = matrix[s]
        matrix[s, s] = 0.0
        matrix[t] = 0.0
        matrix[:, t] = 0.0
        alive[t] = False
    return best


# ----------------------------------------------------------------------
# Lemma 3.2 Hadamard products
# ----------------------------------------------------------------------
def had_combine_many(h: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """``H^T C_b H`` for a batch of coefficient matrices, exact int64.

    ``h`` is the (side, side) ±1 Sylvester matrix (int8); ``coeff`` is
    (B, side, side) int64.  Returns (B, side * side) int64 — each block
    flattened row-major, matching the paper's edge indexing.
    """
    side = h.shape[0]
    h64 = h.astype(np.int64)
    dense = np.matmul(h64.T, np.matmul(coeff, h64))
    return dense.reshape(coeff.shape[0], side * side)


def had_row_products(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """All row inner products ``<x, H_i (x) H_j>`` as the table ``H X H^T``.

    ``x`` has length ``side**2``; entry ``(i, j)`` of the result is the
    inner product of ``x`` with the tensor row ``H_i (x) H_j``.
    """
    side = h.shape[0]
    hf = h.astype(np.float64)
    X = np.asarray(x, dtype=np.float64).reshape(side, side)
    return hf @ X @ hf.T


def had_decode_one(h: np.ndarray, x: np.ndarray, i: int, j: int) -> float:
    """``<x, H_i (x) H_j>`` via the dense row (the legacy evaluation).

    Kept as an explicit kron-then-dot so the default python backend
    reproduces the pre-kernel implementation bit for bit.
    """
    row = np.kron(h[i], h[j]).astype(np.float64)
    return float(np.dot(np.asarray(x, dtype=np.float64), row))


def make_backend():
    """The python reference :class:`~repro.kernels.registry.KernelBackend`."""
    from repro.kernels.registry import KernelBackend

    return KernelBackend(
        name="python",
        source="python",
        dinic_solve=dinic_solve,
        residual_reachable=residual_reachable,
        contract_to=contract_to,
        had_combine_many=had_combine_many,
        had_row_products=had_row_products,
        had_decode_one=had_decode_one,
        stoer_wagner=stoer_wagner,
    )
