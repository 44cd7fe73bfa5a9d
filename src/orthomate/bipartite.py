"""Bipartite perfect matchings on column/symbol graphs.

hopcroft_karp, the pure matcher, serves the Hall-regime greedy (rng-shuffled
left-vertex order) and, through perfect_matching_on_mask in a fixed order,
the Birkhoff walk below n = 16; from n = 16 on the walk uses scipy's C
Hopcroft-Karp (perfect_matching_scipy).  The random rectangle generator
matches nothing here: baselines._random_row and _augment build its rows.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

import numpy as np

INF = -1


def hopcroft_karp(adj: Sequence[Sequence[int]], n_right: int,
                  order: Optional[Sequence[int]] = None) -> np.ndarray:
    """Maximum matching of left vertices 0..len(adj)-1 into right vertices.

    Args:
        adj: adjacency lists, adj[u] = iterable of right neighbours of u.
        n_right: number of right vertices.
        order: processing order of left vertices; defaults to 0..n_left-1.
            The result is deterministic given (adj, order).

    Returns:
        match_left array, match_left[u] = matched right vertex or -1.
    """
    n_left = len(adj)
    if order is None:
        order = range(n_left)
    match_l = np.full(n_left, -1, dtype=np.int64)
    match_r = np.full(n_right, -1, dtype=np.int64)
    dist = np.empty(n_left, dtype=np.int64)

    def bfs() -> bool:
        queue = deque()
        for u in order:
            if match_l[u] < 0:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w < 0:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = match_r[v]
            if w < 0 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in order:
            if match_l[u] < 0:
                dfs(u)
    return match_l


def perfect_matching_on_mask(mask: np.ndarray) -> Optional[np.ndarray]:
    """Perfect matching columns -> symbols on a boolean support mask.

    Returns match[k] = symbol matched to column k, or None if no perfect
    matching exists.
    """
    n = mask.shape[0]
    adj = [np.nonzero(mask[k])[0].tolist() for k in range(n)]
    match = hopcroft_karp(adj, n)
    if (match < 0).any():
        return None
    return match


def perfect_matching_scipy(mask: np.ndarray) -> Optional[np.ndarray]:
    """scipy-accelerated variant of perfect_matching_on_mask (C Hopcroft-Karp).

    mask must be boolean.  The CSR graph is built directly from it: indptr
    from the per-row counts, indices from the row-major nonzero positions.
    That is the same graph, in the same edge order, that
    scipy.sparse.csr_matrix(mask) builds through its slower dense
    conversion, so the matching is the same too.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import maximum_bipartite_matching

    rows, cols = mask.shape
    indptr = np.zeros(rows + 1, dtype=np.int32)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    indices = (np.flatnonzero(mask) % cols).astype(np.int32)
    csr = sp.csr_matrix((np.ones(indices.size, dtype=bool), indices, indptr),
                        shape=mask.shape)
    match = maximum_bipartite_matching(csr, perm_type="column")
    if (match < 0).any():
        return None
    return match.astype(np.int64)
