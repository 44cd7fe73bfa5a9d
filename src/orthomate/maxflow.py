"""Max-flow solvers for the column/symbol transport network.

The network has a source feeding every column with unit capacity, every
symbol draining into a sink with unit capacity, and middle edges
column k -> symbol g carrying the prescribed capacities.  A fractional
perfect matching within those capacities exists iff the max flow equals n.

Two solvers share this contract:

* a pure shortest-augmenting-path (Dinic) solver, generic over the number
  type, so it runs both in float64 (augmenting tolerance 1e-12) and in exact
  Fraction arithmetic (tolerance 0).  Its first phase is one pass over the
  rows of capacities, since every first-phase path is source -> column ->
  symbol -> sink; only the later phases, when there are any, build the
  adjacency-list network, and their depth-first search keeps its path on
  an explicit stack, so a long path does not meet the recursion limit;
* an integer-scaled scipy solver for larger instances.  scipy's Dinic
  silently misbehaves once any capacity reaches 2**31, so capacities are
  floor-scaled by a power of two kept below that limit (scaled_caps).
  Scaling makes the feasibility verdict conservative in a narrow band;
  verdicts inside the band are reported as ambiguous and the caller
  re-solves exactly.  The network's CSR arrays are built directly
  (transport_csr), in the order a COO-to-CSR conversion would give.

RowCertificates tells scipy_transport's verdict without solving, where a
certificate proves it, on the same scaled integer network, for the
questions of one row (is there a flow under ratio * d?):

* infeasible: one of the two one-sided cuts (every column, or every
  symbol, cut at the cheaper of its unit edge and its middle edges) is
  below full - nnz, so the max flow is too;
* feasible: a nearly doubly stochastic witness (a Sinkhorn scaling of the
  row), shrunk to fit the scaled capacities, is a real flow of value above
  full - 1; an integer network's max flow is an integer at least that, so
  it is full (RowCertificates states the float margins).  The shrunk
  witness, its line sums and its total depend on a question only through
  the scale, so they are taken once per row and scale; a question adds
  its capacities, the cut and one entrywise comparison.

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

    def add_edge(self, u: int, v: int, c, back=0) -> int:
        """Edge u -> v of residual c whose reverse edge has residual back."""
        eid = len(self.to)
        self.to.append(v)
        self.cap.append(c)
        self.head[u].append(eid)
        self.to.append(u)
        self.cap.append(back)
        self.head[v].append(eid + 1)
        return eid


def _push(net: _Net, level, it, snk: int, tol, src: int):
    """The flow of one augmenting path from src, depth first in the level
    graph, or 0 when none is left.

    The path is an explicit stack of edges, so its length is not bounded by
    the recursion limit.  Edges are tried in adjacency order from it[u]; a
    node whose edges are all spent is marked dead (level -1) and its parent
    moves on to its next edge, as a recursive search would.
    """
    head, to, cap = net.head, net.to, net.cap
    path, limits = [], []
    u, limit = src, float("inf")
    while u != snk:
        edges = head[u]
        i = it[u]
        while i < len(edges):
            eid = edges[i]
            v = to[eid]
            if cap[eid] > tol and level[v] == level[u] + 1:
                break
            i += 1
        it[u] = i
        if i < len(edges):
            path.append(eid)
            limits.append(limit)
            limit = min(limit, cap[eid])
            u = v
            continue
        level[u] = -1
        if not path:
            return 0
        limit = limits.pop()
        u = to[path.pop() ^ 1]
        it[u] += 1
    for eid in path:
        cap[eid] -= limit
        cap[eid ^ 1] += limit
    return limit


def _dinic(net: _Net, src: int, snk: int, tol, total=0):
    """Blocking-flow phases until no augmenting path of residual > tol
    remains; returns total plus the flow they push."""
    n_nodes = len(net.head)
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
            pushed = _push(net, level, it, snk, tol, src)
            if pushed <= tol:
                break
            total = total + pushed


def solve_transport(mid_caps, one=1.0, tol: float = AUGMENT_TOL):
    """Max flow of the transport network, generic arithmetic.

    Dinic's first phase needs no network.  Its level graph puts every
    column one level below the source and every symbol with an edge one
    level below the columns, so each augmenting path is src -> k -> g ->
    snk, and the depth-first search takes them column by column, each
    column's edges in symbol order, pushing the least of the three
    residuals.  Every push empties the column, the edge or the symbol, so
    an edge carries at most one push: one pass over the rows does the whole
    phase, keeping only the flow rows and the residuals of the source and
    sink edges.  Only when a column keeps a source residual above tol can a
    later phase augment; the network is then built from the residuals, in
    the edge order the phase would have used, and Dinic continues on it.
    The value, each flow entry and its type are those of running every
    phase on the network.

    Args:
        mid_caps: n x n capacities, indexed [column, symbol].  Any number
            type supporting +, -, comparison (float, Fraction).
        one: the unit capacity of source/sink edges in the same number type.
        tol: residual threshold; 0 for exact arithmetic.

    Returns:
        (value, flow) where flow[k][g] is the flow on the middle edge: the
        int 0 on an edge that carries none, one - one where there is no
        edge (a capacity at most tol).
    """
    n = len(mid_caps)
    zero = one - one
    total = 0
    src_res, snk_res = [one] * n, [one] * n
    flow = []
    for k in range(n):
        row = mid_caps[k]
        f = [0 if c > tol else zero for c in row]
        res = one
        if res > tol:
            for g, c in enumerate(row):
                if c > tol:
                    s = snk_res[g]
                    if s > tol:
                        # min(min(res, c), s), as a path's limit is taken
                        got = c if c < res else res
                        if s < got:
                            got = s
                        res -= got
                        snk_res[g] = s - got
                        total = total + got
                        f[g] = got
                        if not res > tol:
                            break
        src_res[k] = res
        flow.append(f)
    if not any(res > tol for res in src_res):
        return total, flow
    # a later phase, on the network of the residuals.  No augmenting path
    # enters the source or leaves the sink, so the reverse edges of their
    # edges stay at 0; a middle edge's reverse residual is its flow
    src, snk = 2 * n, 2 * n + 1
    net = _Net(2 * n + 2)
    for k in range(n):
        net.add_edge(src, k, src_res[k])
    for g in range(n):
        net.add_edge(n + g, snk, snk_res[g])
    for k, (row, f) in enumerate(zip(mid_caps, flow)):
        for g, c in enumerate(row):
            if c > tol:
                net.add_edge(k, n + g, c - f[g], f[g])
    total = _dinic(net, src, snk, tol, total)
    eid = 4 * n
    for row, f in zip(mid_caps, flow):
        for g, c in enumerate(row):
            if c > tol:
                f[g] = net.cap[eid + 1]  # reverse residual = pushed flow
                eid += 2
    return total, flow


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
    # int32, the dtype scipy's maximum_flow works in, so it copies nothing:
    # scaled_caps keeps every capacity below 2**31 and scale <= 2**30
    data = np.empty(nnz + 2 * n, dtype=np.int32)
    data[:nnz] = mid_int[positive]
    data[nnz:] = scale
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


class RowCertificates:
    """scipy_transport's verdict on the questions of one row, where a
    certificate proves it: is there a flow under ratio * d?

    d is the row's (column, symbol) weights as float64 and witness a
    nonnegative, nearly doubly stochastic (n, n) matrix, or None for no
    witness.  A question's capacities are d * ratio, its integer network
    (scale, mid_int) = scaled_caps(d * ratio), with full = n * scale.

    infeasible: cutting, for each column k, the cheaper of its source edge
    (scale) and its middle edges (row sum of mid_int) separates source from
    sink, and so does the same choice on the symbol side.  The max flow is
    at most either cut, so a cut below full - nnz (nnz the positive middle
    edges) forces scipy_transport's "infeasible" branch.  Exact int64
    arithmetic.

    feasible: let f = (1 - delta) * scale * witness, with 1 - delta the
    reciprocal of the witness's largest line sum (slightly inflated).  If

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

    Of the witness certificate only f <= mid_int depends on the question:
    f, f >= 0, (b) and (c) depend on it through scale alone, so they are
    taken once per distinct scale, which a row's questions seldom change.
    """

    def __init__(self, d: np.ndarray, witness: Optional[np.ndarray]):
        self.d = np.asarray(d, dtype=np.float64)
        self.witness = witness
        self._flows = {}  # scale -> f when f >= 0, (b) and (c) hold, else None
        self._peak = 0.0
        if witness is not None:
            self._peak = max(float(witness.sum(axis=1).max()),
                             float(witness.sum(axis=0).max()))

    def status(self, ratio) -> Optional[str]:
        """"infeasible" or "feasible" when a certificate proves that
        scipy_transport(d * ratio) says so, None when only a solve can
        tell."""
        scale, mid_int = scaled_caps(self.d * float(ratio))
        n = mid_int.shape[0]
        cut = min(np.minimum(mid_int.sum(axis=1), scale).sum(),
                  np.minimum(mid_int.sum(axis=0), scale).sum())
        if int(cut) < n * scale - int(np.count_nonzero(mid_int)):
            return "infeasible"
        if scale not in self._flows:
            self._flows[scale] = self._witness_flow(scale)
        f = self._flows[scale]
        if f is not None and (f <= mid_int).all():
            return "feasible"
        return None

    def _witness_flow(self, scale: int) -> Optional[np.ndarray]:
        """The witness shrunk to f for scale when f >= 0, (b) and (c) hold
        of it, else None (also without a witness or at peak <= 0 or nan)."""
        if not self._peak > 0:
            return None
        n = self.witness.shape[0]
        r = 2 * n * _EPS
        f = self.witness * (scale / (self._peak * (1 + 2 * r)))
        if not f.min() >= 0:
            return None
        rows = f.sum(axis=1)
        bound = scale * (1 - r)
        if rows.max() > bound or f.sum(axis=0).max() > bound:
            return None
        full = n * scale
        if not float(rows.sum()) > full - 1 + 2 * r * full:
            return None
        return f
