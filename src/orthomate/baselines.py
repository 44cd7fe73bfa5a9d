"""Reference constructors: Hall-regime greedy, exhaustive search, random J.

hall_greedy extends the mate one row at a time by a perfect matching of the
legality graph (column/symbol pairs not conflicting with the prefix).  Each
placed row excludes at most two symbols per column and two columns per
symbol, so after t rows the graph has minimum degree n - 2t; for m <= n/4
that stays >= n/2 and a matching always exists.

Both constructors keep the same two masks of the pairs the placed rows
use, column/symbol and diagonal/symbol, mark each placed row in them once,
and take a row's legal pairs from them by one rule (_legal_pairs).

backtrack_mate answers the existence question outright at desk scale by
depth-first search over legal rows in lexicographic symbol order with
forward checking.

random_latin_rectangle extends a random prefix row by row; the availability
graph after t rows is (n - t)-regular, so an extension always exists.  The
sampler is "extension-random", not uniform over all Latin rectangles
(uniform sampling is a known hard problem); the first row is an exactly
uniform random permutation.
"""

from __future__ import annotations

import sys
from typing import Optional, Union

import numpy as np

from .core import LatinRectangle, OrthomateError, Shape
from .bipartite import SupportGraph, perfect_matching_scipy


class NoPerfectMatching(OrthomateError):
    """Legality graph of the active row has no perfect matching."""


class LimitExceeded(OrthomateError):
    """Backtracking node budget exhausted."""


#: node budget of backtrack_mate unless the caller sets one
NODE_LIMIT = 2_000_000


def _as_rng(rng: Union[int, np.random.Generator, None]) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _legal_pairs(J: LatinRectangle, col_used: np.ndarray,
                 diag_used: np.ndarray, t: int) -> np.ndarray:
    """(n, n) bool of the legal (column, symbol) pairs of mate row t.

    (k, g) is legal unless an earlier row put g in column k (col_used[k, g])
    or on the diagonal of J through cell (t, k), the cells of J that hold
    the symbol J[t, k] (diag_used[J[t, k], g]).
    """
    return ~(col_used | diag_used[J.grid[t]])


def _mark_row(J: LatinRectangle, col_used: np.ndarray, diag_used: np.ndarray,
              t: int, row: np.ndarray, value: bool = True) -> None:
    """Record (value True) or withdraw (False) the pairs mate row t, whose
    symbols are row, uses."""
    col_used[np.arange(J.shape.n), row] = value
    diag_used[J.grid[t], row] = value


def hall_greedy(J: LatinRectangle, m: Optional[int] = None,
                rng: Union[int, np.random.Generator, None] = 0
                ) -> LatinRectangle:
    """Row-by-row perfect-matching extension of an orthogonal mate.

    Guaranteed to succeed for m <= n/4; may legitimately fail beyond.

    Args:
        J: reference rectangle; only its first m rows are mated.
        m: number of rows to build (defaults to all of J's rows).
        rng: seed or generator; each row draws a symbol permutation, then a
            column permutation, and scipy's matcher sees the legality graph
            with its symbols and columns reordered by them.

    Raises:
        NoPerfectMatching: some row's legality graph has no perfect matching
            (only possible when m > n/4).
    """
    rng = _as_rng(rng)
    n = J.shape.n
    m = J.shape.m if m is None else m
    if m > J.shape.m:
        raise ValueError(f"m={m} exceeds J's row count {J.shape.m}")
    grid = np.zeros((m, n), dtype=np.int64)
    col_used = np.zeros((n, n), dtype=bool)   # [k, g]: g used in column k
    diag_used = np.zeros((n, n), dtype=bool)  # [d, g]: g used on diagonal d
    for t in range(m):
        allowed = _legal_pairs(J, col_used, diag_used, t)
        sym_order = rng.permutation(n)
        col_order = rng.permutation(n)
        match = perfect_matching_scipy(
            SupportGraph(allowed[np.ix_(col_order, sym_order)]))
        if match is None:
            degree = min(allowed.sum(axis=0).min(), allowed.sum(axis=1).min())
            raise NoPerfectMatching(
                f"row {t}: legality graph has no perfect matching "
                f"(min degree {degree})"
            )
        grid[t, col_order] = sym_order[match]
        _mark_row(J, col_used, diag_used, t, grid[t])
    if m == J.shape.m:
        return LatinRectangle(J.shape, grid)
    return LatinRectangle(Shape(n=n, m=m), grid)


def random_latin_rectangle(n: int, m: int,
                           rng: Union[int, np.random.Generator, None] = 0
                           ) -> LatinRectangle:
    """A random m x n Latin rectangle, built row by row.

    Each row is drawn by shuffled greedy choice over the still-available
    symbols per column, with augmenting-path repair when a column runs out.
    The first row is a uniform random permutation.
    """
    rng = _as_rng(rng)
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    avail = np.ones((n, n), dtype=bool)  # symbol g unused in column k
    grid = np.zeros((m, n), dtype=np.int64)
    for t in range(m):
        row = _random_row(avail, rng)
        grid[t] = row
        avail[np.arange(n), row] = False
    return LatinRectangle(Shape(n=n, m=m), grid)


def _random_row(avail: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One perfect matching of the availability graph, greedy + repair."""
    n = avail.shape[0]
    row = np.full(n, -1, dtype=np.int64)
    owner = np.full(n, -1, dtype=np.int64)  # symbol -> column holding it
    free = np.ones(n, dtype=bool)  # owner < 0
    for k in rng.permutation(n):
        choices = np.flatnonzero(avail[k] & free)
        if choices.size:
            # the draw rng.choice(choices) makes, at a fraction of its cost
            g = int(choices[rng.integers(0, choices.size)])
            row[k] = g
            owner[g] = k
            free[g] = False
        elif _augment(int(k), avail, row, owner, rng):
            np.less(owner, 0, out=free)
        else:
            raise AssertionError(
                "availability graph lost Hall's condition; corrupted state")
    return row


def _augment(k: int, avail, row, owner, rng) -> bool:
    """Alternating-path repair assigning column k some symbol."""
    n = avail.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [k]
    parent_sym = {}
    while stack:
        u = stack.pop()
        for g in rng.permutation(np.nonzero(avail[u] & ~seen)[0]):
            g = int(g)
            seen[g] = True
            parent_sym[g] = u
            w = int(owner[g])
            if w < 0:
                # unwind the alternating path
                while True:
                    u2 = parent_sym[g]
                    prev = int(row[u2])
                    row[u2] = g
                    owner[g] = u2
                    if u2 == k:
                        return True
                    g = prev
            else:
                stack.append(w)
    return False


def _too_deep(J: LatinRectangle) -> LimitExceeded:
    return LimitExceeded(
        f"search depth {J.shape.m * (J.shape.n + 1)} (one frame per cell) "
        f"exceeds the recursion limit {sys.getrecursionlimit()}")


def backtrack_mate(J: LatinRectangle, node_limit: int = NODE_LIMIT
                   ) -> Optional[LatinRectangle]:
    """Exhaustive depth-first search for an orthogonal mate of J.

    Rows are enumerated in lexicographic symbol order, columns left to
    right, with forward checking that every remaining column of the current
    row still has a legal symbol.  Deterministic.  Intended for n <= 7.

    Returns:
        A mate, or None once the whole space is exhausted.  The mate is
        not verified here; its callers in the CLI, cli.cmd_mate and
        cli.run_single_trial, check it with verify_orthogonal.

    Raises:
        LimitExceeded: node budget spent before exhaustion, or the search
            depth, one frame per cell, beyond Python's recursion limit.
            A mate takes m (n + 1) nested frames or more, so the search
            does not start when they exceed the limit.
    """
    n, m = J.shape.n, J.shape.m
    if m * (n + 1) > sys.getrecursionlimit():
        raise _too_deep(J)
    col_used = np.zeros((n, n), dtype=bool)   # [k, g]: g used in column k
    diag_used = np.zeros((n, n), dtype=bool)  # [d, g]: g used on diagonal d
    grid = np.zeros((m, n), dtype=np.int64)
    nodes = 0

    def search(t: int) -> bool:
        nonlocal nodes
        if t == m:
            return True
        allowed = _legal_pairs(J, col_used, diag_used, t)
        row_used = np.zeros(n, dtype=bool)

        def rec(k: int) -> bool:
            nonlocal nodes
            if k == n:
                _mark_row(J, col_used, diag_used, t, grid[t])
                if search(t + 1):
                    return True
                _mark_row(J, col_used, diag_used, t, grid[t], False)
                return False
            for g in np.nonzero(allowed[k] & ~row_used)[0]:
                nodes += 1
                if nodes > node_limit:
                    raise LimitExceeded(f"node budget {node_limit} exhausted")
                feasible = True
                row_used[g] = True
                grid[t, k] = g
                for k2 in range(k + 1, n):
                    if not (allowed[k2] & ~row_used).any():
                        feasible = False
                        break
                if feasible and rec(k + 1):
                    return True
                row_used[g] = False
            return False

        return rec(0)

    try:
        found = search(0)
    except RecursionError:
        raise _too_deep(J) from None
    if found:
        return LatinRectangle(J.shape, grid.copy())
    return None
