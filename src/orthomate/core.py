"""Domain types for Latin rectangles: shapes, rectangles, exact verifiers, I/O.

An m x n Latin rectangle assigns one of n symbols to each cell of an
m x n grid so that every row contains each symbol exactly once and every
column contains each symbol at most once.  Two rectangles J, L on the same
grid are orthogonal when the mn ordered pairs (J(i,k), L(i,k)) are all
distinct; equivalently, every L-colour class is a partial transversal
of J.

Everything here is immutable after construction and safe to share across
parallel runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class OrthomateError(Exception):
    """Base class for all package errors."""


class ParseError(OrthomateError):
    """Malformed rectangle text."""


class NotLatin(OrthomateError):
    """A grid violates the Latin rectangle invariants."""


class ShapeMismatch(OrthomateError):
    """Two rectangles do not share the same (m, n)."""


@dataclass(frozen=True)
class Shape:
    """Grid dimensions: n columns (= symbols), m <= n rows."""

    n: int
    m: int

    def __post_init__(self):
        if not (1 <= self.m <= self.n):
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")

    @property
    def epsilon(self) -> float:
        """Row deficit 1 - m/n, in [0, 1)."""
        return 1.0 - self.m / self.n


@dataclass(frozen=True)
class LatinRectangle:
    """An m x n grid of symbol indices in [0, n), row-Latin, column-injective.

    Raises:
        NotLatin: the grid has the wrong shape, entries of a non-integer
            dtype (float, bool, str, or object such as ints beyond 64 bits),
            or breaks a Latin invariant.
    """

    shape: Shape
    grid: np.ndarray = field(repr=False)

    def __post_init__(self):
        g = np.asarray(self.grid)
        if g.shape != (self.shape.m, self.shape.n):
            raise NotLatin(
                f"grid shape {g.shape} does not match (m, n)="
                f"({self.shape.m}, {self.shape.n})"
            )
        if g.dtype.kind not in "iu":
            raise NotLatin(f"grid entries must be integers, got dtype {g.dtype}")
        # an unsigned entry >= 2^63 wraps to a negative one here, which
        # verify_latin_grid rejects as out of range
        g = g.astype(np.int64)
        g.setflags(write=False)
        object.__setattr__(self, "grid", g)
        rep = verify_latin_grid(g, self.shape.n)
        if not rep.ok:
            raise NotLatin(rep.violations[0])

    @classmethod
    def cyclic(cls, n: int, m: Optional[int] = None) -> "LatinRectangle":
        """The first m rows of the cyclic square L(i,k) = (i + k) mod n."""
        m = n if m is None else m
        i, k = np.ogrid[0:m, 0:n]
        return cls(Shape(n=n, m=m), (i + k) % n)

    def row_inverse(self) -> np.ndarray:
        """inv[i, s] = the column of symbol s in row i."""
        m, n = self.grid.shape
        inv = np.empty((m, n), dtype=np.int64)
        rows = np.repeat(np.arange(m), n)
        inv[rows, self.grid.ravel()] = np.tile(np.arange(n), m)
        return inv

    def to_text(self) -> str:
        return "\n".join(" ".join(str(int(v)) for v in row) for row in self.grid) + "\n"


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a verifier; lists every violation rather than only the first."""

    ok: bool
    violations: tuple = ()


def parse_rectangle(text: str) -> LatinRectangle:
    """Parse a whitespace/comma separated integer grid and validate it.

    Args:
        text: m lines of n entries each.

    Raises:
        ParseError: malformed grid (ragged rows, non-integers, empty input).
        NotLatin: the grid is rectangular but violates a Latin invariant.
    """
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        try:
            rows.append([int(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer entry ({exc})") from None
    if not rows:
        raise ParseError("empty grid")
    n = len(rows[0])
    for idx, row in enumerate(rows):
        if len(row) != n:
            raise ParseError(f"row {idx} has {len(row)} entries, expected {n}")
    m = len(rows)
    if m > n:
        raise NotLatin(f"more rows ({m}) than columns ({n})")
    # on the Python ints, before an entry beyond int64 reaches numpy
    bad = next(((i, k) for i, row in enumerate(rows)
                for k, v in enumerate(row) if not 0 <= v < n), None)
    if bad is not None:
        raise NotLatin(f"symbol out of range at cell {bad}")
    return LatinRectangle(Shape(n=n, m=m), np.array(rows, dtype=np.int64))


def verify_latin_grid(grid: np.ndarray, n: int) -> VerifyReport:
    """Check the two Latin invariants on a raw grid (internal helper)."""
    violations = []
    m = grid.shape[0]
    if grid.min(initial=0) < 0 or grid.max(initial=0) >= n:
        violations.append("symbol index outside [0, n)")
        return VerifyReport(False, tuple(violations))
    for i in range(m):
        counts = np.bincount(grid[i], minlength=n)
        for s in np.nonzero(counts != 1)[0]:
            violations.append(
                f"row {i}: symbol {int(s)} occurs {int(counts[s])} times, expected 1"
            )
    for k in range(grid.shape[1]):
        counts = np.bincount(grid[:, k], minlength=n)
        for s in np.nonzero(counts > 1)[0]:
            violations.append(
                f"column {k}: symbol {int(s)} occurs {int(counts[s])} times, expected <= 1"
            )
    return VerifyReport(not violations, tuple(violations))


def verify_latin(rect: LatinRectangle) -> VerifyReport:
    """Verify the row-exactness and column-injectivity invariants."""
    return verify_latin_grid(rect.grid, rect.shape.n)


def verify_orthogonal(L: LatinRectangle, J: LatinRectangle) -> VerifyReport:
    """Check that all mn ordered pairs (J(i,k), L(i,k)) are distinct.

    Raises:
        ShapeMismatch: the rectangles differ in (m, n).
    """
    if L.shape != J.shape:
        raise ShapeMismatch(
            f"L is {L.shape.m}x{L.shape.n}, J is {J.shape.m}x{J.shape.n}"
        )
    n = L.shape.n
    codes = J.grid.astype(np.int64) * n + L.grid.astype(np.int64)
    counts = np.bincount(codes.ravel(), minlength=n * n)
    violations = []
    for code in np.nonzero(counts > 1)[0]:
        violations.append(
            f"pair (J={code // n}, L={code % n}) occurs {int(counts[code])} times"
        )
    return VerifyReport(not violations, tuple(violations))
