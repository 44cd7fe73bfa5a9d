"""Bipartite perfect matchings on column/symbol graphs.

perfect_matching_scipy, scipy's C Hopcroft-Karp, is the package's one
perfect matcher: the Birkhoff walk calls it at every n, and the Hall-regime
greedy calls it on a legality graph whose rows and columns it has permuted
by its rng.  The walk keeps each threshold level's support as one
SupportGraph: a CSR graph built once per level from the mask's flat nonzero
positions, from which it deletes the matched edges that leave the level
after each term, in place of converting a fresh mask for every matching.
When every matched edge leaves, which is the usual term, the deletion takes
one edge from each row and the row starts move by a fixed step.  The
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

    Built once from the mask's flat nonzero positions f: row k = f // n_cols
    and column j = f - k * n_cols, in row-major order, with indptr from the
    positions where each row starts.  That is the graph, in the same edge
    order, that scipy.sparse.csr_matrix(mask) builds through its slower
    dense conversion.  drop and drop_matching delete edges from that one
    CSR object and keep the order, so the graph stays equal to the CSR of
    the shrunken mask rebuilt from scratch.  Each deletion reuses one keep
    buffer; drop_matching, which takes one edge from every row, moves each
    row's start back by its row index instead of counting the rows.

    Raises:
        ValueError: an edge key, row << bits(n_cols - 1) | column, would not
            fit in int32 (a mask of about 2^31 entries or more).
    """

    def __init__(self, mask: np.ndarray):
        import scipy.sparse as sp

        n_rows, n_cols = mask.shape
        # edge (k, j) has the key k << shift | j: sorted like the edges, and
        # its low bits are the column scipy reads
        self._shift = max(n_cols - 1, 1).bit_length()
        if n_rows << self._shift > np.iinfo(np.int32).max:
            raise ValueError(f"mask {mask.shape} too large for int32 keys")
        self._low = np.int32((1 << self._shift) - 1)
        f = np.flatnonzero(mask)
        k = f // n_cols
        j = (f - k * n_cols).astype(np.int32)
        self._keys = (k << self._shift).astype(np.int32) | j
        self._keep = np.empty(self._keys.size, dtype=bool)
        self._ones = np.ones(self._keys.size, dtype=bool)
        rows = np.arange(n_rows + 1)
        self._row_keys = (rows[:-1] << self._shift).astype(np.int32)
        self._steps = rows[1:].astype(np.int32)
        indptr = np.searchsorted(f, rows * n_cols).astype(np.int32)
        self.csr = sp.csr_matrix((self._ones, j, indptr), shape=mask.shape)

    def _delete(self, gone: np.ndarray) -> None:
        """Delete the edges of the distinct keys gone from keys and indices;
        the caller moves indptr."""
        keep = self._keep[:self._keys.size]
        keep.fill(True)
        keep[np.searchsorted(self._keys, gone)] = False
        self._keys = self._keys[keep]
        self.csr.indices = self._keys & self._low
        self.csr.data = self._ones[:self._keys.size]

    def drop(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Delete the distinct edges (rows[i], cols[i]), all in the graph."""
        self._delete(((rows << self._shift) | cols).astype(np.int32))
        self.csr.indptr[1:] -= np.cumsum(
            np.bincount(rows, minlength=self.csr.shape[0]), dtype=np.int32)

    def drop_matching(self, cols: np.ndarray) -> None:
        """Delete edge (k, cols[k]) of every row k, all in the graph."""
        self._delete(self._row_keys | cols.astype(np.int32))
        self.csr.indptr[1:] -= self._steps


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
    if (match < 0).any():
        return None
    return match.astype(np.int64)
