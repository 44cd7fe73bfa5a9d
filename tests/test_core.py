"""Domain types, verifiers and serialization."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthomate import (
    LatinRectangle,
    NotLatin,
    ParseError,
    Shape,
    ShapeMismatch,
    parse_rectangle,
    verify_latin,
    verify_orthogonal,
)
from orthomate.baselines import backtrack_mate
from orthomate.core import verify_latin_grid

from conftest import random_rect
from oracles import line_members


class TestParse:
    def test_cyclic_2x2(self):
        rect = parse_rectangle("0 1\n1 0")
        assert rect.shape == Shape(n=2, m=2)
        assert rect.grid.tolist() == [[0, 1], [1, 0]]

    def test_cyclic_2x3(self):
        rect = parse_rectangle("0 1 2\n1 2 0")
        assert rect.shape == Shape(n=3, m=2)

    def test_column_repeat_rejected(self):
        with pytest.raises(NotLatin, match="column 0"):
            parse_rectangle("0 1\n0 1")

    def test_commas_and_blank_lines(self):
        rect = parse_rectangle("0, 1, 2\n\n1, 2, 0\n")
        assert rect.grid.tolist() == [[0, 1, 2], [1, 2, 0]]

    def test_ragged_grid(self):
        with pytest.raises(ParseError, match="row 1"):
            parse_rectangle("0 1 2\n1 2")

    def test_non_integer(self):
        with pytest.raises(ParseError):
            parse_rectangle("0 x\n1 0")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_rectangle("   \n  ")

    def test_symbol_out_of_range(self):
        with pytest.raises(NotLatin):
            parse_rectangle("0 5\n1 0")

    def test_symbol_beyond_int64(self):
        with pytest.raises(NotLatin, match=r"out of range at cell \(1, 0\)"):
            parse_rectangle("0 1\n99999999999999999999 0")

    def test_row_repeat_rejected(self):
        with pytest.raises(NotLatin):
            parse_rectangle("0 0 1\n1 2 0")

    def test_text_roundtrip(self):
        rect = random_rect(7, 4, seed=5)
        again = parse_rectangle(rect.to_text())
        assert (again.grid == rect.grid).all()


class TestVerifyLatin:
    def test_cyclic_z3_ok(self, z3):
        assert verify_latin(z3).ok

    def test_single_row_ok(self):
        for n in (1, 2, 5):
            rect = LatinRectangle(Shape(n=n, m=1), np.arange(n)[None, :])
            assert verify_latin(rect).ok

    def test_duplicate_in_row_reported(self):
        rep = verify_latin_grid(np.array([[0, 0, 1], [1, 2, 0]]), 3)
        assert not rep.ok
        assert any("row 0" in v and "symbol 0" in v for v in rep.violations)

    def test_reports_all_violations(self):
        rep = verify_latin_grid(np.array([[0, 0, 2], [0, 2, 2]]), 3)
        assert not rep.ok
        assert len(rep.violations) >= 3  # two row problems plus column repeats

    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2 ** 30))
    @settings(max_examples=25, deadline=None)
    def test_random_rectangles_pass(self, n, seed):
        m = 1 + seed % n
        rect = random_rect(n, m, seed)
        assert verify_latin(rect).ok

    @pytest.mark.parametrize("grid, match", [
        ([[0.7, 1.2]], "dtype float64"),
        ([[0.0, 1.0]], "dtype float64"),
        ([[True, False]], "dtype bool"),
        ([["1", "0"]], "dtype <U1"),
        ([[2 ** 63, 0]], "dtype float64"),
        ([[2 ** 64, 0]], "dtype object"),
        # wraps to a negative int64
        (np.array([[2 ** 63, 0]], dtype=np.uint64), r"outside \[0, n\)"),
    ], ids=["fractional", "integral-float", "bool", "str", "2^63", "2^64",
            "uint64-2^63"])
    def test_non_integer_grid_rejected(self, grid, match):
        # no entry is rounded, cast from bool or parsed from text, and
        # none beyond int64 overflows while it is cast
        with pytest.raises(NotLatin, match=match):
            LatinRectangle(Shape(n=2, m=1), grid)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8,
                                       np.uint64])
    def test_integer_dtypes_accepted(self, dtype):
        grid = np.array([[0, 1, 2], [1, 2, 0]], dtype=dtype)
        rect = LatinRectangle(Shape(n=3, m=2), grid)
        assert rect.grid.dtype == np.int64
        assert rect.grid.tolist() == [[0, 1, 2], [1, 2, 0]]

    def test_row_indicator_sums(self):
        # row-exactness is the all-ones indicator sum per (row, symbol)
        rect = random_rect(6, 4, seed=3)
        onehot = np.eye(6, dtype=int)[rect.grid]  # (m, n, syms)
        assert (onehot.sum(axis=1) == 1).all()


class TestVerifyOrthogonal:
    def test_m1_always_orthogonal(self):
        J = LatinRectangle(Shape(n=4, m=1), np.array([[0, 1, 2, 3]]))
        L = LatinRectangle(Shape(n=4, m=1), np.array([[2, 0, 3, 1]]))
        assert verify_orthogonal(L, J).ok

    def test_z2_self_pairs_repeat(self, z2):
        # brute force the 4 ordered pairs: (0,0),(1,1),(1,1),(0,0)
        pairs = {(int(z2.grid[i, k]), int(z2.grid[i, k]))
                 for i in range(2) for k in range(2)}
        assert len(pairs) < 4
        rep = verify_orthogonal(z2, z2)
        assert not rep.ok

    def test_z3_with_backtracked_mate(self, z3):
        mate = backtrack_mate(z3)
        assert mate is not None
        # independent oracle: direct pair-set cardinality
        pairs = {(int(z3.grid[i, k]), int(mate.grid[i, k]))
                 for i in range(3) for k in range(3)}
        assert len(pairs) == 9
        assert verify_orthogonal(mate, z3).ok

    def test_shape_mismatch(self, z3, z2):
        with pytest.raises(ShapeMismatch):
            verify_orthogonal(z3, z2)

    def test_symmetry(self):
        # pair-distinctness is symmetric in the pair set
        for seed in range(6):
            J = random_rect(5, 3, seed)
            L = random_rect(5, 3, seed + 100)
            assert verify_orthogonal(L, J).ok == verify_orthogonal(J, L).ok


class TestLines:
    def test_rc_line(self):
        pts = line_members(("RC", 0, 0), Shape(n=3, m=2))
        assert pts == [(0, 0, 0), (0, 0, 1), (0, 0, 2)]

    def test_cs_line(self):
        pts = line_members(("CS", 1, 2), Shape(n=3, m=2))
        assert pts == [(0, 1, 2), (1, 1, 2)]

    def test_ds_line_reads_diagonal(self, z3):
        # diagonal 0 of the cyclic Z3 square: cells (0,0), (1,2), (2,1)
        pts = line_members(("DS", 0, 1), z3.shape, z3)
        assert pts == [(0, 0, 1), (1, 2, 1), (2, 1, 1)]
        for row, col, _ in pts:
            assert z3.grid[row, col] == 0

    def test_ds_requires_reference(self):
        with pytest.raises(ValueError):
            line_members(("DS", 0, 0), Shape(n=3, m=2))

    def test_sizes(self, z3):
        shape = Shape(n=3, m=2)
        rect = LatinRectangle.cyclic(3, 2)
        assert len(line_members(("RC", 1, 2), shape)) == 3
        assert len(line_members(("RS", 0, 1), shape)) == 3
        assert len(line_members(("CS", 2, 0), shape)) == 2
        assert len(line_members(("DS", 2, 0), shape, rect)) == 2

    @pytest.mark.parametrize("n,m", [(3, 2), (4, 3), (6, 3)])
    def test_linear_hypergraph(self, n, m):
        # any two distinct points lie on at most one common line
        J = random_rect(n, m, seed=n * 10 + m)
        shape = J.shape
        lines = []
        for i in range(m):
            for k in range(n):
                lines.append(line_members(("RC", i, k), shape))
            for s in range(n):
                lines.append(line_members(("RS", i, s), shape))
        for k in range(n):
            for s in range(n):
                lines.append(line_members(("CS", k, s), shape))
        for d in range(n):
            for s in range(n):
                lines.append(line_members(("DS", d, s), shape, J))
        membership = {}
        for idx, pts in enumerate(lines):
            for a, b in itertools.combinations(sorted(pts), 2):
                key = (a, b)
                assert key not in membership, (
                    f"points {a}, {b} share lines {membership[key]} and {idx}")
                membership[key] = idx


class TestShape:
    def test_epsilon(self):
        assert Shape(n=4, m=2).epsilon == pytest.approx(0.5)
        assert Shape(n=4, m=4).epsilon == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            Shape(n=3, m=4)
        with pytest.raises(ValueError):
            Shape(n=3, m=0)

    @pytest.mark.parametrize("n, m", [
        (4.0, 2), (4, 2.5), (4, 2.0), (True, True), (4, True), (False, 1),
        ("4", 2), (None, 2), (4, np.float64(2))])
    def test_non_integer_dimensions_rejected(self, n, m):
        # a float, bool, string or None is no grid dimension, even where it
        # equals an integer; numpy's float64 is a float
        with pytest.raises(ValueError, match="must be an integer"):
            Shape(n=n, m=m)

    def test_numpy_integers_accepted(self):
        shape = Shape(n=np.int64(4), m=np.int32(2))
        assert shape == Shape(n=4, m=2)
        rect = LatinRectangle(shape, np.array([[0, 1, 2, 3], [1, 2, 3, 0]]))
        assert rect.shape.epsilon == 0.5
