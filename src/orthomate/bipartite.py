"""Bipartite perfect matchings on column/symbol graphs.

perfect_matching_scipy, scipy's C Hopcroft-Karp, is the package's one
perfect matcher: the Birkhoff walk calls it at every n, and the Hall-regime
greedy calls it on a legality graph whose rows and columns it has permuted
by its rng.  The walk keeps each threshold level's support as one
SupportGraph: a CSR graph built once per level from the mask's flat nonzero
positions, from which it deletes the matched edges that leave the level
after each term, in place of converting a fresh mask for every matching.
A deletion finds its edges by binary search in the graph's sorted edge
keys and compacts the keys, whose low bits are the CSR's indices.  When
every matched edge leaves, which is the usual term, the deletion takes one
edge from each row and the row ends move back by a fixed step.  The
matcher reads that CSR and nothing else; it is imported once, on first use,
so importing this module does not import scipy.  The random rectangle
generator matches nothing here: baselines._random_row and _augment build
its rows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: scipy's Hopcroft-Karp, imported on the first perfect_matching_scipy call
_scipy_matching = None


class SupportGraph:
    """The CSR graph of a boolean (column, symbol) mask, with edge deletion.

    Built once from the flat nonzero positions of the mask widened to a
    power-of-two number of columns, each an edge's key k << shift | j, in
    row-major order, with indptr from the keys where each row starts.  That
    is the graph, in the same edge order, that
    scipy.sparse.csr_matrix(mask) builds through its slower dense
    conversion.  drop and drop_matching delete edges from that one
    CSR object and keep the order, so the graph stays equal to the CSR of
    the shrunken mask rebuilt from scratch.  The graph keeps its edges'
    sorted keys beside the CSR: a deletion finds its edges there by binary
    search, compacts the keys, whose low bits are the new indices, and
    moves each row's end back by the edges deleted up to it;
    drop_matching, which takes one edge from every row, moves it by the
    row's index instead of counting the rows.

    Raises:
        ValueError: an edge key, row << bits(n_cols - 1) | column, would not
            fit in int32 (a mask of about 2^31 entries or more).
    """

    def __init__(self, mask: np.ndarray):
        import scipy.sparse as sp

        n_rows, n_cols = mask.shape
        # edge (k, j) has the key k << shift | j: sorted like the edges, its
        # low bits are the column scipy reads, and it is the flat position
        # of (k, j) in the mask widened to 2^shift columns
        shift = self._shift = max(n_cols - 1, 1).bit_length()
        if n_rows << shift > np.iinfo(np.int32).max:
            raise ValueError(f"mask {mask.shape} too large for int32 keys")
        self._low = np.int32((1 << shift) - 1)
        wide = mask
        if n_cols < 1 << shift:
            wide = np.zeros((n_rows, 1 << shift), dtype=bool)
            wide[:, :n_cols] = mask
        self._keys = np.flatnonzero(wide).astype(np.int32)
        self._keep = np.empty(self._keys.size, dtype=bool)
        self._ones = np.ones(self._keys.size, dtype=bool)
        rows = np.arange(n_rows + 1, dtype=np.int32)
        self._row_keys = rows[:-1] << shift
        self._steps = rows[1:]
        indptr = self._keys.searchsorted(rows << shift).astype(np.int32)
        self.csr = sp.csr_matrix((self._ones, self._keys & self._low, indptr),
                                 shape=mask.shape)
        self._ends = self.csr.indptr[1:]  # a view: where each row ends

    def _delete(self, gone: np.ndarray, counts) -> None:
        """Delete the edges of the distinct int32 keys gone; counts[k] is
        how many of them lie in rows 0 .. k."""
        keys = self._keys
        keep = self._keep[:keys.size]
        keep.fill(True)
        keep.put(keys.searchsorted(gone), False)
        # n deletions leave at most n + 1 runs to copy, and the and is one
        # vector pass: cheaper than compacting a second array
        keys = self._keys = keys[keep]
        self.csr.indices = keys & self._low
        self.csr.data = self._ones[:keys.size]
        self._ends -= counts

    def drop(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Delete the distinct edges (rows[i], cols[i]), all in the graph."""
        self._delete(((rows << self._shift) | cols).astype(np.int32),
                     np.cumsum(np.bincount(rows, minlength=self.csr.shape[0]),
                               dtype=np.int32))

    def drop_matching(self, cols: np.ndarray) -> None:
        """Delete edge (k, cols[k]) of every row k, all in the graph."""
        self._delete(self._row_keys | cols.astype(np.int32), self._steps)


def perfect_matching_scipy(graph: SupportGraph) -> Optional[np.ndarray]:
    """Perfect matching columns -> symbols by scipy's C Hopcroft-Karp.

    Returns match[k] = symbol matched to column k, or None if no perfect
    matching exists.  scipy reads the graph's CSR object as it stands, so
    the matching is the one csr_matrix of the current mask would give.
    """
    global _scipy_matching
    if _scipy_matching is None:
        from scipy.sparse.csgraph import maximum_bipartite_matching
        _scipy_matching = maximum_bipartite_matching
    match = _scipy_matching(graph.csr, perm_type="column")
    if match.min(initial=0) < 0:  # scipy marks an unmatched column -1
        return None
    return match.astype(np.int64)
