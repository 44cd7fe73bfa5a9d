"""Max-flow solvers for the column/symbol transport network.

The network has a source feeding every column with unit capacity, every
symbol draining into a sink with unit capacity, and middle edges
column k -> symbol g carrying the prescribed capacities.  A fractional
perfect matching within those capacities exists iff the max flow equals n.

Two solvers share this contract:

* a pure shortest-augmenting-path (Dinic) solver, generic over the number
  type, so it runs both in float64 (augmenting tolerance 1e-12) and in exact
  Fraction arithmetic (tolerance 0);
* an integer-scaled scipy solver for larger instances.  scipy's Dinic
  silently misbehaves once any capacity reaches 2**31, so capacities are
  floor-scaled by a power of two kept below that limit (scaled_caps).
  Scaling makes the feasibility verdict conservative in a narrow band;
  verdicts inside the band are reported as ambiguous and the caller
  re-solves exactly.  The network's CSR arrays are built directly
  (transport_csr), in the order a COO-to-CSR conversion would give.

certified_status tells scipy_transport's verdict without solving, where
a certificate proves it, on the same scaled integer network:

* infeasible: one of the two one-sided cuts (every column, or every
  symbol, cut at the cheaper of its unit edge and its middle edges) is
  below full - nnz, so the max flow is too (cut_certifies_infeasible);
* feasible: a nearly doubly stochastic witness (a Sinkhorn scaling of the
  row), shrunk to fit the scaled capacities, is a real flow of value above
  full - 1; an integer network's max flow is an integer at least that, so
  it is full (witness_certifies_feasible, which states the float margins).

Either proof fixes the verdict the exact integer solve would return, so a
caller may skip the solve and keep every outcome bit-identical.  Cases
neither certificate settles, the ambiguous band among them, are solved.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

AUGMENT_TOL = 1e-12

_EPS = float(np.finfo(np.float64).eps)


class _Net:
    """Adjacency-list flow network with paired reverse edges."""

    def __init__(self, n_nodes: int):
        self.head = [[] for _ in range(n_nodes)]
        self.to = []
        self.cap = []

    def add_edge(self, u: int, v: int, c) -> int:
        eid = len(self.to)
        self.to.append(v)
        self.cap.append(c)
        self.head[u].append(eid)
        self.to.append(u)
        self.cap.append(0)
        self.head[v].append(eid + 1)
        return eid


def _push(net: _Net, level, it, snk: int, tol, u: int, limit):
    """The flow of one augmenting path from u, depth first in the level
    graph; not a closure, which would hold itself and net in a cycle."""
    if u == snk:
        return limit
    while it[u] < len(net.head[u]):
        eid = net.head[u][it[u]]
        v = net.to[eid]
        if net.cap[eid] > tol and level[v] == level[u] + 1:
            got = _push(net, level, it, snk, tol, v,
                        min(limit, net.cap[eid]))
            if got > tol:
                net.cap[eid] -= got
                net.cap[eid ^ 1] += got
                return got
        it[u] += 1
    level[u] = -1
    return 0


def _dinic(net: _Net, src: int, snk: int, tol):
    """Blocking-flow phases until no augmenting path of residual > tol remains."""
    n_nodes = len(net.head)
    total = 0
    while True:
        level = [-1] * n_nodes
        level[src] = 0
        queue = [src]
        for u in queue:
            for eid in net.head[u]:
                v = net.to[eid]
                if level[v] < 0 and net.cap[eid] > tol:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[snk] < 0:
            return total
        it = [0] * n_nodes
        while True:
            pushed = _push(net, level, it, snk, tol, src, float("inf"))
            if pushed <= tol:
                break
            total = total + pushed


def solve_transport(mid_caps, one=1.0, tol: float = AUGMENT_TOL):
    """Max flow of the transport network, generic arithmetic.

    Args:
        mid_caps: n x n capacities, indexed [column, symbol].  Any number
            type supporting +, -, comparison (float, Fraction).
        one: the unit capacity of source/sink edges in the same number type.
        tol: residual threshold; 0 for exact arithmetic.

    Returns:
        (value, flow) where flow[k][g] is the flow on the middle edge.
    """
    n = len(mid_caps)
    src, snk = 2 * n, 2 * n + 1
    net = _Net(2 * n + 2)
    src_edges = [net.add_edge(src, k, one) for k in range(n)]
    snk_edges = [net.add_edge(n + g, snk, one) for g in range(n)]
    mid_edges = {}
    for k in range(n):
        row = mid_caps[k]
        for g in range(n):
            c = row[g]
            if c > tol:
                mid_edges[(k, g)] = net.add_edge(k, n + g, c)
    value = _dinic(net, src, snk, tol)
    zero = one - one
    flow = [[zero] * n for _ in range(n)]
    for (k, g), eid in mid_edges.items():
        flow[k][g] = net.cap[eid ^ 1]  # reverse capacity equals pushed flow
    return value, flow


def scaled_caps(mid_caps: np.ndarray) -> Tuple[int, np.ndarray]:
    """(scale, mid_int): the integer network scipy_transport solves.

    mid_caps is nonnegative.  scale is the largest power of two (at most
    2**30) keeping every scaled capacity strictly below 2**31, and
    mid_int = floor(scale * mid_caps).
    The source and sink edges carry scale, so the scaled max flow is
    full = n * scale exactly when the real network saturates up to the
    flooring loss.
    """
    cmax = float(mid_caps.max(initial=0.0))
    s = 30
    while cmax * (1 << s) >= 2 ** 31 - 1 and s > 1:
        s -= 1
    scale = 1 << s
    return scale, np.floor(mid_caps * scale).astype(np.int64)


def transport_csr(scale: int, mid_int: np.ndarray):
    """The scaled transport network as a CSR matrix, built directly.

    Node k < n is column k, node n + g symbol g, 2n the source and 2n + 1
    the sink.  Rows are laid out as ``csr_matrix((data, (rows, cols)))``
    would sort the same edges: each column's positive middle edges in
    symbol order, each symbol's sink edge, the source's n edges, and an
    empty sink row.
    """
    import scipy.sparse as sp

    n = mid_int.shape[0]
    positive = mid_int > 0
    _, gg = np.nonzero(positive)
    nnz = len(gg)
    indptr = np.empty(2 * n + 3, dtype=np.int32)
    indptr[0] = 0
    np.cumsum(np.count_nonzero(positive, axis=1), out=indptr[1:n + 1])
    indptr[n + 1:2 * n + 1] = nnz + np.arange(1, n + 1)
    indptr[2 * n + 1:] = nnz + 2 * n
    indices = np.concatenate([gg + n, np.full(n, 2 * n + 1), np.arange(n)]
                             ).astype(np.int32)
    data = np.concatenate([mid_int[positive],
                           np.full(2 * n, scale, dtype=np.int64)])
    return sp.csr_matrix((data, indices, indptr), shape=(2 * n + 2, 2 * n + 2))


def scipy_transport(mid_caps: np.ndarray) -> Tuple[str, Optional[np.ndarray]]:
    """Integer-scaled scipy max flow.

    Returns ("feasible", q) with q exactly doubly stochastic up to float
    summation, ("infeasible", None), or ("ambiguous", None) when the scaled
    verdict falls inside the rounding band and an exact solver must decide.
    """
    from scipy.sparse.csgraph import maximum_flow

    n = mid_caps.shape[0]
    scale, mid_int = scaled_caps(mid_caps)
    graph = transport_csr(scale, mid_int)
    res = maximum_flow(graph, 2 * n, 2 * n + 1)
    full = n * scale
    if res.flow_value == full:
        q = res.flow.toarray()[0:n, n : 2 * n].astype(np.float64) / scale
        return "feasible", q
    # flooring can have cost at most one unit per positive middle edge on
    # any cut, so a deficit beyond that certifies true infeasibility
    if res.flow_value < full - (graph.nnz - 2 * n):
        return "infeasible", None
    return "ambiguous", None


def cut_certifies_infeasible(scale: int, mid_int: np.ndarray) -> bool:
    """True when a one-sided cut proves scipy_transport says "infeasible".

    Cutting, for each column k, the cheaper of its source edge (scale) and
    its middle edges (row sum of mid_int) separates source from sink, and
    so does the same choice on the symbol side.  The max flow is at most
    either cut, so a cut below full - nnz (nnz the positive middle edges)
    forces scipy_transport's "infeasible" branch.  Exact int64 arithmetic.
    """
    n = mid_int.shape[0]
    cut = min(np.minimum(mid_int.sum(axis=1), scale).sum(),
              np.minimum(mid_int.sum(axis=0), scale).sum())
    return int(cut) < n * scale - int(np.count_nonzero(mid_int))


def witness_certifies_feasible(scale: int, mid_int: np.ndarray,
                               witness: np.ndarray) -> bool:
    """True when witness proves scipy_transport says "feasible".

    witness is a nonnegative, nearly doubly stochastic (n, n) matrix.  Let
    f = (1 - delta) * scale * witness, with 1 - delta the reciprocal of the
    witness's largest line sum (slightly inflated).  If

      (a) 0 <= f <= mid_int entrywise,
      (b) every row and column sum of f is at most scale, and
      (c) sum(f) > full - 1,

    then f is a real flow of the scaled network with value above full - 1.
    The network's capacities are integers, so its max flow is an integer
    no smaller than any real flow's value, hence full, and scipy's exact
    integer solver takes the "feasible" branch.

    The float64 f is checked as stored, so (a) is an exact comparison
    (mid_int < 2**31 converts exactly).  A float sum of m nonnegative terms
    is within (m - 1) u of the true sum relative to it (u = 2**-53), so the
    line sums are checked against scale * (1 - r) and the total, a sum of
    row sums at most full by (b), against full - 1 + 2 r full, with
    r = 2 n eps = 4 n u: that covers the 2n - 2 roundings of the total
    and the rounding of the threshold itself.  Anything not certified this
    way is left to the solver.
    """
    n = mid_int.shape[0]
    r = 2 * n * _EPS
    rows = witness.sum(axis=1)
    peak = max(float(rows.max()), float(witness.sum(axis=0).max()))
    if not peak > 0:
        return False
    f = witness * (scale / (peak * (1 + 2 * r)))
    if not (f.min() >= 0 and (f <= mid_int).all()):
        return False
    rows = f.sum(axis=1)
    bound = scale * (1 - r)
    if rows.max() > bound or f.sum(axis=0).max() > bound:
        return False
    full = n * scale
    return float(rows.sum()) > full - 1 + 2 * r * full


def certified_status(mid_caps: np.ndarray,
                     witness: Optional[np.ndarray]) -> Optional[str]:
    """scipy_transport's status for mid_caps when a certificate proves it.

    "infeasible" by cut_certifies_infeasible, "feasible" by
    witness_certifies_feasible on witness (None for no witness), None when
    neither certificate applies and only a solve can tell.
    """
    scale, mid_int = scaled_caps(mid_caps)
    if cut_certifies_infeasible(scale, mid_int):
        return "infeasible"
    if witness is not None and witness_certifies_feasible(scale, mid_int,
                                                          witness):
        return "feasible"
    return None
