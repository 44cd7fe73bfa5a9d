"""Hall-regime greedy, exhaustive mate search, random rectangle generator."""

import hashlib
import math
import sys
import time

import numpy as np
import pytest

from orthomate import (
    LatinRectangle,
    LimitExceeded,
    NoPerfectMatching,
    Shape,
    backtrack_mate,
    hall_greedy,
    random_latin_rectangle,
    run_process,
    verify_latin,
    verify_orthogonal,
)

from conftest import random_rect
from oracles import build_legality_graph


class TestHallGreedy:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_quarter_regime_always_succeeds(self, n):
        m = n // 4
        for seed in range(10):
            J = random_rect(n, m, seed + n)
            mate = hall_greedy(J, rng=np.random.default_rng(seed))
            assert verify_orthogonal(mate, J).ok

    def test_m1(self):
        for n in (1, 3, 6):
            J = LatinRectangle(Shape(n=n, m=1), np.arange(n)[None, :])
            mate = hall_greedy(J, rng=np.random.default_rng(0))
            assert verify_orthogonal(mate, J).ok

    def test_prefix_rows(self):
        J = random_rect(12, 6, seed=1)
        mate = hall_greedy(J, m=3, rng=np.random.default_rng(2))
        assert mate.shape.m == 3
        sub = LatinRectangle(Shape(n=12, m=3), J.grid[:3])
        assert verify_orthogonal(mate, sub).ok

    def test_degree_bound_during_construction(self):
        # each placed row excludes at most 2 pairs per vertex
        n, m = 12, 5
        J = random_rect(n, m, seed=4)
        rng = np.random.default_rng(0)
        grid = np.zeros((m, n), dtype=np.int64)
        for t in range(m):
            allowed = build_legality_graph(J, grid, t)
            assert allowed.sum(axis=0).min() >= n - 2 * t
            assert allowed.sum(axis=1).min() >= n - 2 * t
            mate_row = hall_greedy(J, m=t + 1, rng=np.random.default_rng(7))
            grid[t] = mate_row.grid[t]

    def test_failure_is_possible_beyond_quarter(self):
        # m = n is far beyond the guarantee; some seed fails on Z2
        J = LatinRectangle.cyclic(2)
        with pytest.raises(NoPerfectMatching):
            for seed in range(4):
                hall_greedy(J, rng=np.random.default_rng(seed))

    def test_determinism(self):
        J = random_rect(16, 4, seed=0)
        a = hall_greedy(J, rng=np.random.default_rng(5))
        b = hall_greedy(J, rng=np.random.default_rng(5))
        assert (a.grid == b.grid).all()


class TestBacktrack:
    def test_order2_has_no_mate(self, z2):
        assert backtrack_mate(z2) is None

    def test_order3_cyclic_has_mate(self, z3):
        mate = backtrack_mate(z3)
        assert mate is not None
        assert verify_orthogonal(mate, z3).ok

    def test_order4_cyclic_has_no_mate(self):
        # the Cayley table of Z4 famously has no orthogonal mate
        assert backtrack_mate(LatinRectangle.cyclic(4)) is None

    def test_m1_any_permutation(self):
        J = LatinRectangle(Shape(n=4, m=1), np.array([[1, 3, 0, 2]]))
        mate = backtrack_mate(J)
        assert mate is not None
        assert verify_orthogonal(mate, J).ok

    def test_limit_exceeded(self, z3):
        with pytest.raises(LimitExceeded):
            backtrack_mate(z3, node_limit=2)

    def test_depth_beyond_the_recursion_limit(self):
        # one frame per cell: a single row wider than the recursion limit
        # fails before the search descends, not at the bottom of it
        J = LatinRectangle.cyclic(sys.getrecursionlimit(), 1)
        t0 = time.perf_counter()
        with pytest.raises(LimitExceeded, match="search depth"):
            backtrack_mate(J)
        assert time.perf_counter() - t0 < 0.05

    def test_deterministic(self, z3):
        a = backtrack_mate(z3)
        b = backtrack_mate(z3)
        assert (a.grid == b.grid).all()

    def test_agrees_with_guided_process_at_n2(self, z2):
        # exhaustion proves no mate exists, so the process can never succeed
        assert backtrack_mate(z2) is None
        for seed in range(10):
            assert not run_process(z2, seed=seed).success

    def test_agrees_with_guided_process_at_n4(self):
        J = LatinRectangle.cyclic(4)
        assert backtrack_mate(J) is None
        for seed in range(10):
            assert not run_process(J, seed=seed).success


class TestRandomRectangle:
    def test_latin_square(self):
        rect = random_latin_rectangle(5, 5, np.random.default_rng(0))
        assert verify_latin(rect).ok

    def test_determinism(self):
        a = random_latin_rectangle(7, 4, np.random.default_rng(3))
        b = random_latin_rectangle(7, 4, np.random.default_rng(3))
        assert (a.grid == b.grid).all()

    def test_seed_int_accepted(self):
        a = random_latin_rectangle(6, 2, 9)
        b = random_latin_rectangle(6, 2, 9)
        assert (a.grid == b.grid).all()

    def test_first_cell_marginals(self):
        # first row is a uniform permutation: P(cell (0,0) = s) = 1/4
        draws = 5000
        counts = np.zeros(4)
        for seed in range(draws):
            rect = random_latin_rectangle(4, 1, np.random.default_rng(seed))
            counts[rect.grid[0, 0]] += 1
        freqs = counts / draws
        tol = 4.0 * math.sqrt(0.1875 / draws)
        assert (np.abs(freqs - 0.25) <= tol).all()

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            random_latin_rectangle(3, 4, 0)

    @pytest.mark.parametrize("n,m", [(2, 2), (5, 3), (9, 9), (16, 8)])
    def test_always_valid(self, n, m):
        for seed in range(5):
            rect = random_latin_rectangle(n, m, np.random.default_rng(seed))
            assert verify_latin(rect).ok


class TestRandomRectangleGolden:
    """Grids of random_latin_rectangle pinned by hash: every J a workload,
    golden or acceptance ensemble draws comes from it, so a change to its
    random stream must show here.  The m = n cases run the augmenting-path
    repair."""

    # (n, m, seed) -> sha256 of the int64 grid's bytes, first 16 digits
    GOLDEN = {
        (16, 16, 0): "806ba6181e4bb06d", (16, 16, 1): "fab729f8dc88c2dc",
        (16, 16, 2): "f04b5784252ef829", (32, 32, 0): "cc661c22064269c1",
        (32, 32, 1): "2d78fd59c70de3c2", (32, 32, 2): "5096eaf094ca4547",
        (64, 16, 0): "d9e54222b072bf72", (64, 16, 1): "f11049ebe0decd96",
        (64, 16, 2): "798838e5013a6087", (64, 32, 0): "945fbae6cdb08f52",
        (64, 32, 1): "796bf0f7835f4352", (64, 32, 2): "f4e18f2cd630a4b6",
        (128, 32, 0): "6ecb0c71603e916e", (128, 32, 1): "7b3da85b32857032",
        (128, 32, 2): "ed43d1f8519d3753", (192, 96, 0): "6d345de82cdf2280",
        (192, 96, 1): "648cd6e50884706e", (192, 96, 2): "ab0cf1e8ec090ae1",
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN),
                             ids=lambda c: "-".join(map(str, c)))
    def test_grid_digest(self, case):
        n, m, seed = case
        grid = random_latin_rectangle(n, m, np.random.default_rng(seed)).grid
        assert grid.dtype == np.int64
        digest = hashlib.sha256(grid.tobytes()).hexdigest()[:16]
        assert digest == self.GOLDEN[case]

    @pytest.mark.parametrize("n", [16, 32])
    def test_squares_run_the_repair(self, monkeypatch, n):
        from orthomate import baselines

        calls = []
        augment = baselines._augment
        monkeypatch.setattr(baselines, "_augment",
                            lambda *a: calls.append(a[0]) or augment(*a))
        for seed in range(3):
            assert verify_latin(random_latin_rectangle(n, n, seed)).ok
        assert calls

    def test_choice_is_an_integers_draw(self):
        # the generator draws a[integers(0, len(a))] where it once called
        # choice(a); both must take the same value from the same stream
        for seed in range(20):
            one = np.random.default_rng(seed)
            two = np.random.default_rng(seed)
            for size in (1, 2, 3, 7, 64, 127, 192, 1000):
                a = np.arange(size) * 3 + 1
                assert one.choice(a) == a[two.integers(0, a.size)]
            assert one.integers(0, 2 ** 62) == two.integers(0, 2 ** 62)
