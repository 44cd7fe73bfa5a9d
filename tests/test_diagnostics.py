"""Per-step statistics, martingale residuals, kill counts, identities."""

import io
import json
import math

import numpy as np
import pytest

from orthomate import (
    EmptyTrajectory,
    TrajectoryRecorder,
    TrajectoryStats,
    advance_state,
    build_fractional_matching,
    init_state,
    normalize_row,
    run_process,
    sample_matching_lazy,
    summarize,
)

from conftest import random_rect


def run_with_recorder(n, m, seed, steps=None):
    J = random_rect(n, m, seed)
    state = init_state(J.shape)
    rng = np.random.default_rng(seed)
    rec = TrajectoryRecorder(J)
    steps = steps or m
    for t in range(steps):
        d = normalize_row(state, t)
        q, eta = build_fractional_matching(d)
        L_row = sample_matching_lazy(q, rng)
        after = advance_state(state, q, L_row, J)
        rec.record_step(state, q, L_row, after, eta_used=eta)
        state = after
    return J, rec


class TestRecordStep:
    def test_first_step_from_uniform(self):
        n, m = 8, 4
        J, rec = run_with_recorder(n, m, seed=0, steps=1)
        r = rec.stats.records[0]
        # before the step every local line sums to exactly 1; afterwards a
        # line lost at most 2 points and survivors only grew
        assert r.b_min >= 1.0 - 2.0 * (1.0 / n) - 1e-12
        assert r.b_max <= 1.0 / (1.0 - 2.0 * r.p_max) + 1e-9
        assert r.kills_line_max <= 2
        assert r.growth_max >= 1.0

    def test_martingale_residual_small(self):
        J, rec = run_with_recorder(8, 4, seed=3)
        for r in rec.stats.records:
            assert r.martingale_residual <= 1e-9

    def test_kill_bounds(self):
        for seed in range(5):
            J, rec = run_with_recorder(8, 4, seed=seed)
            for r in rec.stats.records:
                assert r.kills_line_max <= 2
                assert r.c_kills_max <= 4

    def test_b_deviation_identity(self):
        # E_t of a B sum is the current B sum; per-step deviation is bounded
        # by the kill mass plus the growth of surviving entries
        J, rec = run_with_recorder(8, 4, seed=1)
        for r in rec.stats.records:
            assert r.b_dev_max <= 2 * r.p_max + 8 * r.p_max * (r.growth_max - 1.0) + 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_wrong_survival_probability_is_caught(self, monkeypatch, seed):
        # a transition that divides by the survival probability of the
        # wrong diagonal (k2 rolled by one column) and kills by it is no
        # martingale; its own den still fits it, so only the recorder's
        # independent spot check can see it
        from orthomate import process

        n, m = 16, 8
        J = random_rect(n, m, seed)
        rng = np.random.default_rng(seed)
        state = init_state(J.shape)
        rec = TrajectoryRecorder(J)
        for t in range(3):
            q, eta = build_fractional_matching(normalize_row(state, t))
            L_row = sample_matching_lazy(q, rng)
            after = advance_state(state, q, L_row, J)
            assert rec.record_step(state, q, L_row, after
                                   ).martingale_residual <= 1e-9
            state = after
        q, eta = build_fractional_matching(normalize_row(state, 3))
        L_row = sample_matching_lazy(q, rng)
        column_map = process.diag_column_map
        monkeypatch.setattr(
            process, "diag_column_map",
            lambda *args: np.roll(column_map(*args), 1, axis=1))
        after = advance_state(state, q, L_row, J)
        assert rec.record_step(state, q, L_row, after
                               ).martingale_residual > 1e-9

    def test_standalone_record_step(self):
        J = random_rect(6, 3, seed=4)
        state = init_state(J.shape)
        d = normalize_row(state, 0)
        q, eta = build_fractional_matching(d)
        L_row = sample_matching_lazy(q, np.random.default_rng(0))
        after = advance_state(state, q, L_row, J)
        r = TrajectoryRecorder(J).record_step(state, q, L_row, after,
                                              eta_used=eta)
        assert r.t == 0
        assert r.kills_this_step == int(
            (after.p[1:] == 0).sum() - (state.p[1:] == 0).sum())


class TestGuidedRunDiagnostics:
    def test_full_run_residuals(self):
        J = random_rect(16, 8, seed=5)
        out = run_process(J, seed=5)
        assert out.trajectory is not None
        for r in out.trajectory.records:
            assert r.martingale_residual <= 1e-9
            assert r.kills_line_max <= 2
            assert r.c_kills_max <= 4
            assert r.growth_max >= 1.0

    def test_eta_recorded(self):
        J = random_rect(12, 4, seed=6)
        out = run_process(J, seed=6)
        recs = out.trajectory.records
        assert all(not math.isnan(r.eta_used) for r in recs)
        assert tuple(r.eta_used for r in recs) == out.eta_used


class TestSummarize:
    def test_success_run(self):
        J = random_rect(16, 4, seed=7)
        out = run_process(J, epsilon=0.75, seed=1)
        assert out.success
        rep = summarize(out.trajectory, exit_time=out.time)
        assert rep.exit_time is None
        assert rep.steps_executed == 4
        assert rep.b_rel_dev_max >= 0.0
        assert rep.phi_scale == pytest.approx(math.log(16) / 4.0)
        assert rep.kills_line_max <= 2

    def test_gamma_exit_run(self):
        J = random_rect(32, 16, seed=0)
        out = run_process(J, seed=0)
        assert out.kind == "gamma_exit"
        rep = summarize(out.trajectory, exit_time=out.time)
        assert rep.exit_time == out.time
        assert rep.steps_executed == out.time

    def test_empty_trajectory(self):
        with pytest.raises(EmptyTrajectory):
            summarize(TrajectoryStats(n=4, m=2))

    def test_json_export(self):
        J = random_rect(8, 4, seed=8)
        out = run_process(J, seed=8)
        rep = summarize(out.trajectory, exit_time=out.time)
        blob = json.loads(rep.to_json())
        assert blob["n"] == 8
        assert "martingale_residual_max" in blob


class TestExports:
    def test_schema_and_roundtrip(self):
        J = random_rect(8, 4, seed=9)
        out = run_process(J, seed=9)
        buf = io.StringIO()
        out.trajectory.to_csv(buf)
        text = buf.getvalue()
        lines = text.strip().splitlines()
        assert lines[0].startswith("# orthomate-trajectory-v3")
        # the v3 column order, spelled out: a reordered or renamed
        # StepRecord field must change the schema name, not pass here
        assert lines[1] == (
            "t,b_min,b_max,c_max,p_max,kills_this_step,eta_used,"
            "kills_line_max,c_kills_max,martingale_residual,"
            "b_dev_max,c_dev_max,growth_max")
        assert len(lines) == 2 + out.trajectory.steps_executed
        for line, rec in zip(lines[2:], out.trajectory.records):
            assert line == ",".join(
                repr(getattr(rec, name)) for name in lines[1].split(","))
