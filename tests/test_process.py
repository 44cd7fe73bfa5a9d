"""Guidance state, kills, Gamma region, transitions, and the main loop."""

import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from orthomate import (
    DegenerateDenominator,
    GammaReport,
    LatinRectangle,
    ProcessConfig,
    Shape,
    advance_state,
    build_fractional_matching,
    check_gamma,
    init_state,
    normalize_row,
    run_process,
    sample_matching_lazy,
    verify_latin,
    verify_orthogonal,
)
from orthomate.core import OrthomateError
from orthomate.process import diag_column_map, gamma_bounds, later_kills

from conftest import in_place, random_rect, rebuilt, survival
from oracles import (birkhoff_decompose, central_projections, kill_mask,
                     line_members)


class TestInitState:
    def test_uniform_quarter(self):
        state = init_state(Shape(n=4, m=2))
        assert state.p.shape == (2, 4, 4)
        assert (state.p == 0.25).all()
        assert state.t == 0 and state.stopped_at is None

    def test_single_point(self):
        state = init_state(Shape(n=1, m=1))
        assert state.p.shape == (1, 1, 1)
        assert state.p[0, 0, 0] == 1.0

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (4, 2), (9, 5), (16, 4)])
    def test_initial_state_is_good(self, n, m):
        state = init_state(Shape(n=n, m=m))
        eps = Shape(n=n, m=m).epsilon
        assert check_gamma(state, eps).good

    def test_exact_initial(self):
        state = init_state(Shape(n=4, m=2), exact=True)
        assert state.p[0, 0, 0] == Fraction(1, 4)


class TestCheckGamma:
    def test_forced_a_violation(self):
        state = init_state(Shape(n=100, m=50))
        state.p[10, 3, 7] = 1.0
        state = rebuilt(state)  # init_state's sums and ceilings no longer hold
        rep = check_gamma(state, 0.5)
        assert not rep.good
        viol = [v for v in rep.violations if v.ineq == "A_x"]
        assert viol and viol[0].location == (10, 3, 7)
        assert viol[0].lhs == pytest.approx(1.0)
        assert viol[0].margin == pytest.approx(1.0 - 1.1 * 4.0 / 100)

    def test_zeroed_rs_line_b_violation(self):
        state = init_state(Shape(n=16, m=8))
        state.p[3, :, 5] = 0.0  # kill the whole line (row 3, symbol 5)
        state = rebuilt(state)  # init_state's sums and ceilings no longer hold
        rep = check_gamma(state, 0.5)
        bad = [v for v in rep.violations if v.ineq == "B_line"]
        assert any(v.location == ("RS", 3, 5) for v in bad)

    def test_c_violation(self):
        n = 16
        state = init_state(Shape(n=n, m=4))
        state.p[2, 1, :] = 0.9  # two heavy columns in row 2
        state.p[2, 3, :] = 0.9
        state = rebuilt(state)  # init_state's sums and ceilings no longer hold
        rep = check_gamma(state, 0.9)
        # columns 1 and 3 break C with each other and with each of the 14
        # other columns: 29 pairs, each counted once, the first (0, 1)
        assert [(v.location, count)
                for v, count in zip(rep.violations, rep.counts)
                if v.ineq == "C_ikl"] == [((2, 0, 1), 29)]

    def test_coloured_rows_ignored_for_b(self):
        state = init_state(Shape(n=16, m=4))
        state.p[0, :, 2] = 0.0
        state.t = 1  # row 0 already coloured
        state = rebuilt(state)  # init_state's sums and ceilings no longer hold
        rep = check_gamma(state, 0.5)
        assert not any(v.ineq == "B_line" for v in rep.violations)

    def test_t_set_on_a_built_state_raises(self):
        # init_state's sums cover all four rows; after t = 1 they would
        # hide the zeroed RS line (2, 5), which a rebuilt state reports
        state = init_state(Shape(n=16, m=4))
        state.p[2, :, 5] = 0.0
        state.t = 1
        with pytest.raises(ValueError, match="line_sums"):
            check_gamma(state, 0.5)
        rep = check_gamma(rebuilt(state), 0.5)
        assert [v.location for v in rep.violations
                if v.ineq == "B_line"] == [("RS", 2, 5)]

    def test_epsilon_zero_disables_a(self):
        state = init_state(Shape(n=4, m=4))
        state.p[1, 0, 0] = 1.0
        state = rebuilt(state)  # init_state's sums and ceilings no longer hold
        a_bound, *_ = gamma_bounds(4, 0.0)
        assert a_bound == math.inf
        rep = check_gamma(state, 0.0)
        assert not any(v.ineq == "A_x" for v in rep.violations)

    def test_finished_state_has_nothing_to_check(self):
        # a successful run's final state has no uncoloured row left
        out = run_process(random_rect(8, 2, 0), epsilon=0.75, seed=0)
        assert out.success and out.final_state.t == 2
        assert check_gamma(out.final_state, 0.75) == GammaReport(True, ())


class TestProjections:
    """The oracle's central projections, and the run path at the same
    cells: process.diag_column_map gives the column of rho_DS, which is not
    the cell's own, and process.later_kills names the symbols the placed
    row puts at rho_CS and rho_DS."""

    @staticmethod
    def assert_run_path(x, t, J, rho_cs, rho_ds):
        row, col, _ = x
        k2 = diag_column_map(J, t, t + 1)
        assert rho_ds[1] == k2[row - t - 1, col]
        assert k2[row - t - 1, col] != col
        n = J.shape.n
        for shift in range(n):  # every symbol at every column of row t
            L_row = np.roll(np.arange(n), shift)
            killed = later_kills(L_row, k2)[row - t - 1, col]
            assert killed.tolist() == [L_row[rho_cs[1]], L_row[rho_ds[1]]]

    def test_derived_example_z3(self, z3):
        # x = (2, 0, 1), active row 0: diagonal J(2,0)=2 meets row 0 where
        # J(0, k') = 2, i.e. k' = 2
        rho_cs, rho_ds = central_projections((2, 0, 1), 0, z3)
        assert rho_cs == (0, 0, 1)
        assert rho_ds == (0, 2, 1)
        assert z3.grid[0, rho_ds[1]] == z3.grid[2, 0]
        self.assert_run_path((2, 0, 1), 0, z3, rho_cs, rho_ds)

    def test_always_distinct(self):
        J = random_rect(5, 4, seed=2)
        for t in range(3):
            for i in range(t + 1, 4):
                for k in range(5):
                    for s in range(5):
                        a, b = central_projections((i, k, s), t, J)
                        assert a != b
                        assert a[0] == b[0] == t
                        assert a[2] == b[2] == s
                        self.assert_run_path((i, k, s), t, J, a, b)

    def test_projections_lie_on_the_lines(self, z3):
        # oracle: membership in the point's CS and DS lines
        row, col, sym = x = (2, 1, 0)
        rho_cs, rho_ds = central_projections(x, 0, z3)
        cs_line = line_members(("CS", col, sym), z3.shape)
        ds_line = line_members(("DS", int(z3.grid[row, col]), sym),
                               z3.shape, z3)
        assert rho_cs in cs_line
        assert rho_ds in ds_line
        self.assert_run_path(x, 0, z3, rho_cs, rho_ds)


def brute_force_kills(L_row, t, J):
    """Oracle: a point dies iff a placed cell lies on one of its central lines."""
    m, n = J.shape.m, J.shape.n
    placed = {(t, k, int(L_row[k])) for k in range(n)}
    killed = set()
    for i in range(t + 1, m):
        for k in range(n):
            for s in range(n):
                cs = set(line_members(("CS", k, s), J.shape))
                ds = set(line_members(
                    ("DS", int(J.grid[i, k]), s), J.shape, J))
                if (cs | ds) & placed:
                    killed.add((i, k, s))
    return killed


class TestKillMask:
    def test_against_line_membership_oracle(self, z3):
        L_row = np.array([0, 1, 2])
        mask = kill_mask(L_row, 0, z3, z3.shape)
        expected = brute_force_kills(L_row, 0, z3)
        got = {tuple(idx) for idx in np.argwhere(mask)}
        assert got == expected

    def test_per_line_bound(self):
        for seed in range(10):
            J = random_rect(6, 4, seed)
            rng = np.random.default_rng(seed)
            L_row = rng.permutation(6)
            mask = kill_mask(L_row, 0, J, J.shape)
            assert mask[0].sum() == 0
            assert int(mask.sum(axis=2).max()) <= 2  # RC lines
            assert int(mask.sum(axis=1).max()) <= 2  # RS lines

    def test_last_row_empty(self, z3):
        rect = LatinRectangle.cyclic(3, 1)
        mask = kill_mask(np.array([0, 1, 2]), 0, rect, rect.shape)
        assert not mask.any()

    @pytest.mark.parametrize("J", [random_rect(9, 6, 3), random_rect(16, 5, 4),
                                   LatinRectangle.cyclic(7, 5),
                                   LatinRectangle.cyclic(1)])
    def test_diag_column_map_inverts_one_row(self, J):
        # row t of J inverted alone gives the map the whole row inverse gives
        inv = J.row_inverse()
        for t in range(J.shape.m):
            for rows_from in range(t, J.shape.m + 1):
                got = diag_column_map(J, t, rows_from)
                want = inv[t][J.grid[rows_from:]]
                assert got.dtype == want.dtype and np.array_equal(got, want)
        for i in range(1, J.shape.m):
            for k in range(J.shape.n):
                x = (i, k, int((i * 3 + k) % J.shape.n))
                _, ds = central_projections(x, i - 1, J)
                assert ds[1] == inv[i - 1, J.grid[i, k]]


class TestAdvanceState:
    def _setup(self, n=4, m=3, seed=0):
        J = random_rect(n, m, seed)
        state = init_state(J.shape)
        d = normalize_row(state, 0)
        q, eta = build_fractional_matching(d)
        rng = np.random.default_rng(seed)
        L_row = sample_matching_lazy(q, rng)
        return J, state, q, L_row

    def test_killed_points_zeroed(self):
        J, state, q, L_row = self._setup()
        after = advance_state(state, q, L_row, J)
        mask = kill_mask(L_row, 0, J, J.shape)
        assert (after.p[mask] == 0).all()
        assert after.t == 1

    def test_zero_projection_mass_leaves_p_unchanged(self, z3):
        state = init_state(z3.shape)
        q = np.zeros((3, 3))
        q[np.arange(3), [0, 1, 2]] = 1.0  # all mass on the identity row
        after = in_place(state, q, np.array([0, 1, 2]), z3)
        # (1, 0, 2): projections (0, 0, 2) and (0, 1, 2) both carry no q mass
        x = (1, 0, 2)
        (_, k_cs, g_cs), (_, k_ds, g_ds) = central_projections(x, 0, z3)
        assert q[k_cs, g_cs] == 0 and q[k_ds, g_ds] == 0
        assert after.p[x] == state.p[x]

    def test_survivors_monotone(self):
        for seed in range(5):
            J, state, q, L_row = self._setup(n=6, m=4, seed=seed)
            after = in_place(state, q, L_row, J)
            mask = kill_mask(L_row, 0, J, J.shape)
            alive = ~mask & (state.p > 0)
            alive[0] = False
            assert (after.p[alive] >= state.p[alive]).all()

    def test_frozen_rows_unchanged(self):
        J, state, q, L_row = self._setup(n=5, m=3)
        after = in_place(state, q, L_row, J)
        assert (after.p[0] == state.p[0]).all()

    def test_degenerate_denominator(self, z3):
        state = init_state(z3.shape)
        q = np.zeros((3, 3))
        q[np.arange(3), [0, 1, 2]] = 1.0  # claims the identity a.s.
        # a row that contradicts q: survivors see probability-zero survival
        with pytest.raises(DegenerateDenominator):
            advance_state(state, q, np.array([1, 2, 0]), z3)

    def test_stopped_state_rejected(self, z3):
        state = init_state(z3.shape)
        state.stopped_at = 0
        with pytest.raises(ValueError):
            advance_state(state, np.eye(3), np.array([0, 1, 2]), z3)


class TestMartingale:
    """Exhaustive expectation over the Birkhoff support equals the state."""

    @pytest.mark.parametrize("n,m", [(3, 2), (4, 3), (5, 3)])
    def test_uniform_state(self, n, m):
        J = random_rect(n, m, seed=n + m)
        state = init_state(J.shape)
        d = normalize_row(state, 0)
        q, _ = build_fractional_matching(d)
        terms = birkhoff_decompose(q)
        expected = np.zeros_like(state.p)
        for c, perm in terms:
            after = in_place(state, q, np.asarray(perm), J)
            expected += float(c) * after.p
        assert np.abs(expected[1:] - state.p[1:]).max() <= 1e-9

    def test_evolved_state(self):
        # run two steps, then check the identity from the reached state
        J = random_rect(6, 4, seed=9)
        state = init_state(J.shape)
        rng = np.random.default_rng(0)
        for t in range(2):
            d = normalize_row(state, t)
            q, _ = build_fractional_matching(d)
            L_row = sample_matching_lazy(q, rng)
            state = advance_state(state, q, L_row, J)
        d = normalize_row(state, 2)
        q, _ = build_fractional_matching(d)
        terms = birkhoff_decompose(q)
        expected = np.zeros_like(state.p)
        for c, perm in terms:
            after = in_place(state, q, np.asarray(perm), J)
            expected += float(c) * after.p
        # the identity holds where survival probability is positive; a point
        # whose projections carry all of q's mass is certainly killed and
        # must average to exactly zero instead
        from orthomate.process import diag_column_map
        den = 1.0 - q[None, :, :] - q[diag_column_map(J, 2, 3), :]
        pos = den > 1e-12
        assert not pos.all()  # the seed reaches a certainly killed point
        assert np.abs((expected[3:] - state.p[3:])[pos]).max() <= 1e-9
        assert np.abs(expected[3:][~pos]).max() <= 1e-9

    def test_exact_arithmetic_is_exactly_zero(self):
        J = random_rect(4, 3, seed=4)
        state = init_state(J.shape, exact=True)
        d = normalize_row(state, 0)
        q, _ = build_fractional_matching(d)
        terms = birkhoff_decompose(q)
        assert sum(c for c, _ in terms) == 1
        m, n = J.shape.m, J.shape.n
        expected = np.full((m, n, n), Fraction(0), dtype=object)
        for c, perm in terms:
            after = in_place(state, q, np.asarray(perm), J)
            expected = expected + np.vectorize(lambda v: c * v)(after.p)
        diff = expected[1:] - state.p[1:]
        assert all(v == 0 for v in diff.ravel())


class TestRunProcess:
    def test_m1_always_success(self):
        for n in (1, 2, 4, 7):
            J = LatinRectangle(Shape(n=n, m=1), np.arange(n)[None, :])
            for seed in range(3):
                out = run_process(J, seed=seed)
                assert out.success
                assert verify_orthogonal(out.rectangle, J).ok

    def test_hall_regime_n16(self):
        J = random_rect(16, 4, seed=7)
        for seed in range(5):
            out = run_process(J, epsilon=0.75, seed=seed)
            assert out.success
            assert verify_latin(out.rectangle).ok
            assert verify_orthogonal(out.rectangle, J).ok

    def test_determinism(self):
        J = random_rect(12, 5, seed=3)
        a = run_process(J, seed=42)
        b = run_process(J, seed=42)
        assert a.kind == b.kind and a.time == b.time
        if a.success:
            assert (a.rectangle.grid == b.rectangle.grid).all()
        assert a.eta_used == b.eta_used

    def test_n2_never_succeeds(self, z2):
        for seed in range(20):
            out = run_process(z2, seed=seed)
            assert not out.success
            assert out.kind == "gamma_exit" and out.time == 1

    def test_gamma_exit_freezes_state(self):
        J = random_rect(32, 16, seed=0)
        out = run_process(J, seed=0)
        assert out.kind == "gamma_exit"
        assert out.final_state.stopped_at == out.time
        assert out.final_state.t == out.time
        with pytest.raises(ValueError):
            advance_state(out.final_state, np.eye(32), np.arange(32), J)

    def test_zero_absorption_prefix_legality(self):
        # compose the pipeline manually; placed rows never use killed points
        # (an Infeasible row legitimately ends the run at this size)
        from orthomate import Infeasible

        J = random_rect(8, 5, seed=11)
        state = init_state(J.shape)
        rng = np.random.default_rng(5)
        zero_since = {}
        placed = 0
        for t in range(5):
            d = normalize_row(state, t)
            try:
                q, _ = build_fractional_matching(d)
            except Infeasible:
                break
            L_row = sample_matching_lazy(q, rng)
            for k in range(8):
                assert (t, k, int(L_row[k])) not in zero_since
            state = advance_state(state, q, L_row, J)
            placed += 1
            for idx in np.argwhere(state.p[t + 1:] == 0):
                i, k, g = idx
                zero_since.setdefault((int(i) + t + 1, int(k), int(g)), t)
            # once zero, stays zero
            for (i, k, g), _ in zero_since.items():
                if i > t:
                    assert state.p[i, k, g] == 0
        assert placed >= 3  # the run exercised several transitions

    def test_trajectory_recorded(self):
        J = random_rect(8, 4, seed=2)
        out = run_process(J, seed=1)
        assert out.trajectory is not None
        assert out.trajectory.steps_executed == (
            4 if out.success else out.time)

    def test_record_disabled(self):
        J = random_rect(8, 4, seed=2)
        cfg = ProcessConfig(record_trajectory=False)
        out = run_process(J, seed=1, config=cfg)
        assert out.trajectory is None

    def test_exact_matches_float(self):
        J = LatinRectangle.cyclic(5, 3)
        for seed in range(4):
            o_ex = run_process(J, seed=seed,
                               config=ProcessConfig(arithmetic="exact"))
            o_fl = run_process(J, seed=seed)
            assert o_ex.kind == o_fl.kind and o_ex.time == o_fl.time
            diff = np.abs(o_fl.final_state.p
                          - o_ex.final_state.p.astype(np.float64)).max()
            assert diff <= 1e-12

    def test_exact_size_guard(self):
        J = random_rect(16, 4, seed=0)
        with pytest.raises(ValueError):
            run_process(J, config=ProcessConfig(arithmetic="exact"))

    def test_epsilon_defaults_to_shape(self):
        J = random_rect(6, 3, seed=1)
        out = run_process(J, seed=0)
        assert out.kind in ("success", "gamma_exit", "infeasible_row")

    def test_infeasible_row_outcome(self):
        # a symbol's surviving support thins past Hall at this seed
        J = random_rect(5, 4, seed=85)
        out = run_process(J, seed=85)
        # the seed's precondition: the flow of row 2 is infeasible
        assert out.time == 2 and "flow_infeasible" in out.detail
        assert out.kind == "infeasible_row"
        assert out.final_state.stopped_at == 2

    def test_determinism_scipy_flow_path(self):
        # n = 32 exercises the scipy flow backend and the lazy sampler
        J = random_rect(32, 16, seed=21)
        a = run_process(J, seed=8)
        b = run_process(J, seed=8)
        assert a.kind == b.kind and a.time == b.time
        assert a.eta_used == b.eta_used
        pa = a.final_state.p
        pb = b.final_state.p
        assert (pa == pb).all()

    def test_exact_gamma_check_on_object_state(self):
        state = init_state(Shape(n=4, m=2), exact=True)
        assert check_gamma(state, 0.5).good
        state.p[1, 0, 0] = Fraction(99, 100)
        # p written in place: the sums and the ceilings no longer hold
        state = rebuilt(state)
        rep = check_gamma(state, 0.5)
        assert not rep.good
        assert any(v.ineq == "B_line" and v.location == ("RC", 1, 0)
                   for v in rep.violations)
        assert any(v.ineq == "C_ikl" and v.location == (1, 0, 1)
                   for v in rep.violations)
        # a tighter epsilon makes the pointwise bound fire too
        rep2 = check_gamma(state, 0.9)
        assert any(v.ineq == "A_x" and v.location == (1, 0, 0)
                   for v in rep2.violations)


class TestConfig:
    @pytest.mark.parametrize("field, value", [
        ("arithmetic", "exakt"),
        ("arithmetic", None),
        ("arithmetic", 1),
        ("record_trajectory", "false"),
        ("record_trajectory", 1),
        ("record_trajectory", 0),
        ("record_trajectory", None),
    ])
    def test_rejects_out_of_range_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            ProcessConfig(**{field: value})

    @pytest.mark.parametrize("knob", ["eta_initial", "eta_max"])
    def test_eta_knobs_are_gone(self, knob):
        with pytest.raises(TypeError, match=knob):
            ProcessConfig(**{knob: 8.0})

    @pytest.mark.parametrize("knob", ["sampler", "zero_tol", "flow_backend",
                                      "eta_policy", "tracked_lines",
                                      "gamma_a_coeff", "gamma_b_slack",
                                      "gamma_c_slack"])
    def test_removed_knobs_are_gone(self, knob):
        with pytest.raises(TypeError, match=knob):
            ProcessConfig(**{knob: 1})

    @pytest.mark.parametrize("arithmetic", ["float64", "exact"])
    @pytest.mark.parametrize("record", [True, False])
    def test_to_json(self, arithmetic, record):
        # the provenance line prints this dict, in this key order
        blob = ProcessConfig(arithmetic, record_trajectory=record).to_json()
        assert list(blob.items()) == [("arithmetic", arithmetic),
                                      ("record_trajectory", record)]
        assert json.loads(json.dumps(blob)) == blob

    def test_two_fields(self):
        assert [f.name for f in dataclasses.fields(ProcessConfig)] == [
            "arithmetic", "record_trajectory"]


class TestGammaBounds:
    # A: 1.1 / (epsilon^2 n), off at epsilon = 0; B: 1 -/+ log n / sqrt n;
    # C: (1 + log n / sqrt n) / n
    @pytest.mark.parametrize("n, eps, expected", [
        (1, 0.5, (4.4, 1.0, 1.0, 1.0)),
        (16, 0.0, (math.inf, 0.3068528194400547, 1.6931471805599454,
                   0.10582169878499659)),
        (16, 0.5, (0.275, 0.3068528194400547, 1.6931471805599454,
                   0.10582169878499659)),
        (64, 0.75, (0.030555555555555558, 0.48013961458004106,
                    1.519860385419959, 0.02374781852218686)),
        (192, 0.5, (0.02291666666666667, 0.6205729539620686,
                    1.3794270460379314, 0.0071845158647808926)),
        (256, 0.75, (0.0076388888888888895, 0.6534264097200273,
                     1.3465735902799727, 0.005260053087031143)),
    ])
    def test_paper_constants(self, n, eps, expected):
        assert gamma_bounds(n, eps) == expected

    @pytest.mark.parametrize("eps, a_bound", [
        (1e-200, math.inf),  # eps^2 n rounds to 0: A off, as at eps = 0
        (1e200, 0.0),  # eps^2 overflows: every p > 0 violates A
    ])
    def test_a_bound_float_limits(self, eps, a_bound):
        assert gamma_bounds(8, eps)[0] == a_bound
        state = init_state(Shape(n=8, m=4))
        rep = check_gamma(state, eps)
        a_counts = [count for v, count in zip(rep.violations, rep.counts)
                    if v.ineq == "A_x"]
        assert a_counts == ([4 * 8 * 8] if a_bound == 0.0 else [])

    @pytest.mark.parametrize("knob", ["a_coeff", "b_slack", "c_slack",
                                      "max_violations"])
    def test_check_gamma_takes_no_constant_overrides(self, knob):
        state = init_state(Shape(n=4, m=2))
        with pytest.raises(TypeError, match=knob):
            check_gamma(state, 0.5, **{knob: 1})


class TestEpsilon:
    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -0.5, None,
                                     True, False])
    def test_bad_epsilon_rejected(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            gamma_bounds(16, eps)
        # a nan bound would switch A off and report this state as good
        state = init_state(Shape(n=16, m=8))
        state.p[2, 0, 0] = 0.3
        state = rebuilt(state)  # init_state's sums and ceilings no longer hold
        assert any(v.ineq == "A_x" for v in check_gamma(state, 0.5).violations)
        with pytest.raises(ValueError, match="epsilon"):
            check_gamma(state, eps)

    def test_run_process_rejects_bad_epsilon(self):
        J = random_rect(8, 4, seed=0)
        with pytest.raises(ValueError, match="epsilon"):
            run_process(J, epsilon=float("nan"))


class TestTransition:
    """advance_state takes the killed symbols from process.later_kills and
    the survival probabilities it divides by from process.survival_blocks,
    and hands both to the recorder."""

    @pytest.mark.parametrize("exact", [False, True])
    def test_killed_matches_kill_mask_on_every_row(self, exact):
        J = random_rect(6, 4, seed=1)
        state = init_state(J.shape, exact=exact)
        rng = np.random.default_rng(2)
        for t in range(4):  # t = 3 is the last row: nothing left to kill
            try:
                q, _ = build_fractional_matching(normalize_row(state, t))
            except OrthomateError as e:  # the seed places all four rows
                pytest.fail(f"row {t} cannot be placed at this seed: {e}")
            L_row = sample_matching_lazy(q, rng)
            after = advance_state(state, q, L_row, J)
            killed = later_kills(L_row, diag_column_map(J, t, t + 1))
            assert killed.shape == (3 - t, 6, 2)
            den = survival(q, J, t, exact)
            assert den.shape == (3 - t, 6, 6)
            assert (killed[:, :, 0] != killed[:, :, 1]).all()
            mask = np.zeros(den.shape, dtype=bool)
            np.put_along_axis(mask, killed, True, axis=2)
            assert (mask == kill_mask(L_row, t, J, J.shape)[t + 1:]).all()
            assert (after.p[t + 1:][mask] == 0).all()
            state = after

    @pytest.mark.parametrize("n, m", [(8, 5), (12, 7), (16, 9)])
    @pytest.mark.parametrize("seed", range(2))
    def test_killed_symbols_on_random_rows(self, n, m, seed):
        # a uniform q gives every point survival probability 1 - 2/n, so
        # any permutation can be placed at every row
        J = random_rect(n, m, seed)
        state = init_state(J.shape)
        q = np.full((n, n), 1.0 / n)
        den = (1.0 - 1.0 / n) - 1.0 / n
        rng = np.random.default_rng(seed)
        for t in range(m):
            L_row = rng.permutation(n)
            after = in_place(state, q, L_row, J)
            killed = later_kills(L_row, diag_column_map(J, t, t + 1))
            assert killed.dtype == np.int64
            assert killed.shape == (m - t - 1, n, 2)
            # two kills per later cell, so the mask's symbols of each cell,
            # in row-major order, are the sorted pair
            mask = kill_mask(L_row, t, J, J.shape)[t + 1:]
            syms = np.nonzero(mask)[2].reshape(killed.shape)
            assert (np.sort(killed, axis=2) == syms).all()
            assert (after.p[t + 1:][mask] == 0).all()
            assert (after.p[t + 1:][~mask]
                    == state.p[t + 1:][~mask] / den).all()
            state = after

    def test_den_keeps_degenerate_values(self, z3):
        # all q mass on the identity: some survival probabilities are 0,
        # and every point there is killed, so the step goes through
        state = init_state(z3.shape)
        q = np.zeros((3, 3))
        q[np.arange(3), [0, 1, 2]] = 1.0
        after = advance_state(state, q, np.array([0, 1, 2]), z3)
        assert after.t == 1
        expected = 1.0 - q[None, :, :] - q[diag_column_map(z3, 0, 1), :]
        assert (expected <= 0).any()
        assert (survival(q, z3, 0) == expected).all()

    @pytest.mark.parametrize("record, bound", [(False, 1.3), (True, 1.45)])
    def test_run_peak(self, record, bound):
        # one state array, which each step divides in place, Gamma's line
        # sums and the flow's lists; the recorder works a block of rows at a
        # time: no step allocates a second p, or the survival probabilities
        # or a work array of all rows, and the pure flow re-solve builds no
        # network in its first phase
        cfg = ProcessConfig(record_trajectory=record)
        run_process(random_rect(16, 8, 0), epsilon=0.5, config=cfg)  # imports
        J = random_rect(128, 64, 0)
        tracemalloc.start()
        try:
            out = run_process(J, epsilon=0.5, seed=0, config=cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.time is None or out.time > 8
        assert peak < bound * out.final_state.p.nbytes


def _removed_keyword_calls():
    """One call per library function whose keyword knob nothing set, or
    that took the recorder's statistics hand-off, each passing that keyword
    with an otherwise valid argument list."""
    from orthomate.baselines import hall_greedy
    from orthomate.diagnostics import TrajectoryRecorder
    from orthomate.matching import birkhoff_terms, solve_fixed_eta

    J = LatinRectangle.cyclic(4, 2)
    rng = np.random.default_rng(0)
    q, row = np.full((4, 4), 0.25), np.arange(4)
    after = advance_state(init_state(J.shape), q, row, J)
    return {
        "run_process(rng=)": lambda: run_process(J, rng=rng),
        "advance_state(den_tol=)": lambda: advance_state(
            init_state(J.shape), np.full((4, 4), 0.25), np.arange(4), J,
            den_tol=1e-12),
        "advance_state(out=)": lambda: advance_state(
            init_state(J.shape), np.full((4, 4), 0.25), np.arange(4), J,
            out=None),
        "hall_greedy(m=)": lambda: hall_greedy(J, m=2, rng=0),
        "birkhoff_terms(zero_tol=)": lambda: birkhoff_terms(
            np.eye(3), zero_tol=1e-12),
        "sample_matching_lazy(zero_tol=)": lambda: sample_matching_lazy(
            np.eye(3), rng, zero_tol=1e-12),
        "solve_fixed_eta(backend=)": lambda: solve_fixed_eta(
            np.full((3, 3), 1 / 3), 0.0, backend="python"),
        "check_gamma(stats=)": lambda: check_gamma(
            init_state(J.shape), 0.5, stats=None),
        "record_step(stats=)": lambda: TrajectoryRecorder(J).record_step(
            init_state(J.shape), q, row, after, stats=None),
    }


class TestRemovedKeywords:
    @pytest.mark.parametrize("name", sorted(_removed_keyword_calls()))
    def test_removed_keyword_is_a_type_error(self, name):
        with pytest.raises(TypeError, match="unexpected keyword"):
            _removed_keyword_calls()[name]()


def _removed_names():
    """(owner, attribute) of each removed second form: the Birkhoff terms
    are a plain tuple, the support graph keeps only its CSR, each output
    has only the format its command writes, the pair sums are taken by
    pair_sums alone, the recorder takes the kills, the survival
    probabilities and the column map from the blocks the transition hands
    it (diagnostics imports none of the transition's helpers) and no state
    carries them, the records keep no kill count that the kill rule fixes,
    scipy's Hopcroft-Karp is the one perfect matcher, a row's flow
    certificates are asked through one maxflow.RowCertificates, and the
    library keeps neither the paper's point and line vocabulary nor the
    oracles that only tests call (tests/oracles.py holds those)."""
    import orthomate
    from orthomate import (baselines, bipartite, core, diagnostics, matching,
                           maxflow, process)
    from orthomate.bipartite import SupportGraph
    from orthomate.diagnostics import (SummaryReport, TrajectoryStats,
                                       summarize)

    out = run_process(random_rect(8, 4, 0), seed=0)
    record, summary = out.trajectory.records[0], summarize(out.trajectory)

    out_of_library = {
        core: ("Point", "LINE_CLASSES", "LineId", "IndexOutOfRange",
               "line_members"),
        process: ("RowAlreadyColoured", "central_projections", "kill_mask"),
        matching: ("TooLarge", "CUT_BRUTEFORCE_MAX_N", "cut_check_bruteforce",
                   "_cut_check_exact", "birkhoff_decompose",
                   "sample_matching"),
        baselines: ("build_legality_graph",),
    }
    # the package exported each of them but the constants and the helper
    exported = [attr for attrs in out_of_library.values() for attr in attrs
                if not (attr.isupper() or attr.startswith("_"))]
    return {
        **{f"{owner.__name__.rpartition('.')[2]}.{attr}": (owner, attr)
           for owner, attrs in out_of_library.items() for attr in attrs},
        **{f"orthomate.{attr}": (orthomate, attr) for attr in exported},
        "orthomate.BirkhoffDecomposition": (orthomate, "BirkhoffDecomposition"),
        "matching.BirkhoffDecomposition": (matching, "BirkhoffDecomposition"),
        "bipartite.perfect_matching_on_mask": (bipartite,
                                               "perfect_matching_on_mask"),
        "bipartite.hopcroft_karp": (bipartite, "hopcroft_karp"),
        "bipartite.perfect_matching_pure": (bipartite,
                                            "perfect_matching_pure"),
        "SupportGraph().mask": (SupportGraph(np.eye(3, dtype=bool)), "mask"),
        "LatinRectangle.to_json": (LatinRectangle, "to_json"),
        "LatinRectangle.from_json": (LatinRectangle, "from_json"),
        "ProcessConfig.from_json": (ProcessConfig, "from_json"),
        "TrajectoryStats.to_json": (TrajectoryStats, "to_json"),
        "SummaryReport.to_csv": (SummaryReport, "to_csv"),
        "process.line_statistics": (process, "line_statistics"),
        "process.state_line_sums": (process, "state_line_sums"),
        "orthomate.Transition": (orthomate, "Transition"),
        "process.Transition": (process, "Transition"),
        "GuidanceState().transition": (out.final_state, "transition"),
        "StepRecord().kills_this_step": (record, "kills_this_step"),
        "StepRecord().kills_line_max": (record, "kills_line_max"),
        "StepRecord().c_kills_max": (record, "c_kills_max"),
        "SummaryReport().kills_line_max": (summary, "kills_line_max"),
        "SummaryReport().c_kills_max": (summary, "c_kills_max"),
        "diagnostics.diag_column_map": (diagnostics, "diag_column_map"),
        "diagnostics.later_kills": (diagnostics, "later_kills"),
        "diagnostics.survival_blocks": (diagnostics, "survival_blocks"),
        "maxflow.certified_status": (maxflow, "certified_status"),
        "maxflow.cut_certifies_infeasible": (maxflow,
                                             "cut_certifies_infeasible"),
        "maxflow.witness_certifies_feasible": (maxflow,
                                               "witness_certifies_feasible"),
    }


class TestRemovedNames:
    @pytest.mark.parametrize("name", sorted(_removed_names()))
    def test_name_is_gone(self, name):
        owner, attr = _removed_names()[name]
        assert not hasattr(owner, attr)
