"""Per-step statistics, martingale residuals, kill counts, identities."""

import io
import json
import math

import numpy as np
import pytest

from orthomate import (
    EmptyTrajectory,
    LatinRectangle,
    OrthomateError,
    ProcessConfig,
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
from orthomate import process
from orthomate.diagnostics import KILLS_PER_C_SUM, KILLS_PER_LINE

from conftest import kill_counts, random_rect


def guided_steps(J, seed, steps=None, exact=False, recorder=None):
    """Yield (state, q, eta, L_row, after) for each step of a guided run
    of J, up to `steps` rows, each into a fresh array; a recorder given
    sees every state before its step and observes the transition."""
    state = init_state(J.shape, exact=exact)
    rng = np.random.default_rng(seed)
    observe = None if recorder is None else recorder.observe_block
    for t in range(steps or J.shape.m):
        q, eta = build_fractional_matching(normalize_row(state, t))
        L_row = sample_matching_lazy(q, rng)
        if recorder is not None:
            recorder.before_step(state)
        after = advance_state(state, q, L_row, J, observe=observe)
        yield state, q, eta, L_row, after
        state = after


def run_with_recorder(n, m, seed, steps=None):
    J = random_rect(n, m, seed)
    rec = TrajectoryRecorder(J)
    for state, q, eta, L_row, after in guided_steps(J, seed, steps,
                                                    recorder=rec):
        rec.record_step(state, q, L_row, after, eta_used=eta)
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
        # every point has mass 1/n, so every kill is fresh
        assert r.fresh_kills == 2 * n * (m - 1)
        assert r.growth_max >= 1.0

    def test_martingale_residual_small(self):
        J, rec = run_with_recorder(8, 4, seed=3)
        for r in rec.stats.records:
            assert r.martingale_residual <= 1e-9

    @pytest.mark.parametrize("family, n, m, seed", [
        *(("random", 8, 4, seed) for seed in range(5)),
        ("cyclic", 8, 4, 0), ("cyclic", 9, 5, 1)])
    def test_kill_bounds(self, family, n, m, seed):
        # from the dense kill_mask of each placed row: every local line of
        # a later row loses exactly KILLS_PER_LINE points and no C sum more
        # than KILLS_PER_C_SUM, the constants summarize() uses
        J = (random_rect(n, m, seed) if family == "random"
             else LatinRectangle.cyclic(n, m))
        for state, q, eta, L_row, after in guided_steps(J, seed):
            t = state.t
            want = (0, 0) if t == m - 1 else (KILLS_PER_LINE, KILLS_PER_C_SUM)
            assert kill_counts(L_row, t, J) == want

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
        # martingale; the recorder takes the survival probabilities and the
        # kills from J's own column map (and its spot check with its own
        # code), which the transition's do not fit.  The transition runs in
        # place, as in run_process
        from orthomate import process

        n, m = 16, 8
        J = random_rect(n, m, seed)
        rng = np.random.default_rng(seed)
        state = init_state(J.shape)
        rec = TrajectoryRecorder(J)
        for t in range(3):
            q, eta = build_fractional_matching(normalize_row(state, t))
            L_row = sample_matching_lazy(q, rng)
            rec.before_step(state)
            after = advance_state(state, q, L_row, J, out=state.p,
                                  observe=rec.observe_block)
            assert rec.record_step(state, q, L_row, after
                                   ).martingale_residual <= 1e-9
            state = after
        q, eta = build_fractional_matching(normalize_row(state, 3))
        L_row = sample_matching_lazy(q, rng)
        column_map = process.diag_column_map
        monkeypatch.setattr(
            process, "diag_column_map",
            lambda *args: np.roll(column_map(*args), 1, axis=1))
        rec.before_step(state)
        after = advance_state(state, q, L_row, J, out=state.p,
                              observe=rec.observe_block)
        assert rec.record_step(state, q, L_row, after
                               ).martingale_residual > 1e-9

    @pytest.mark.parametrize("n, m, seed, exact", [
        (6, 3, 4, False), (16, 8, 1, False), (12, 6, 2, False),
        (6, 3, 4, True), (8, 4, 0, True)])
    def test_standalone_record_step(self, n, m, seed, exact):
        # fresh_kills is the number of points the step zeroes, on every
        # step up to the last (which zeroes none)
        J = random_rect(n, m, seed)
        rec = TrajectoryRecorder(J)
        steps = 0
        for state, q, eta, L_row, after in guided_steps(
                J, seed, exact=exact, recorder=rec):
            r = rec.record_step(state, q, L_row, after, eta_used=eta)
            assert r.t == state.t
            assert r.fresh_kills == int(
                (after.p == 0).sum() - (state.p == 0).sum())
            steps += 1
        assert steps == m
        assert r.fresh_kills == 0

    def test_wrong_column_map_outside_the_spot_sample_is_caught(
            self, monkeypatch):
        # at n = 128 the spot check samples columns 0 .. 63 only; a
        # transition whose column map swaps columns 100 and 101 for one
        # step divides by wrong survival probabilities and kills wrong
        # points outside that sample, which the record must still show;
        # the transition runs in place, as in run_process
        n, m = 128, 64
        J = random_rect(n, m, 0)
        rng = np.random.default_rng(0)
        state = init_state(J.shape)
        rec = TrajectoryRecorder(J)
        for t in range(3):
            q, eta = build_fractional_matching(normalize_row(state, t))
            L_row = sample_matching_lazy(q, rng)
            if t == 2:
                column_map = process.diag_column_map
                monkeypatch.setattr(
                    process, "diag_column_map",
                    lambda *args: column_map(*args)[:, [*range(100), 101,
                                                        100, *range(102, n)]])
            rec.before_step(state)
            after = advance_state(state, q, L_row, J, out=state.p,
                                  observe=rec.observe_block)
            residual = rec.record_step(state, q, L_row, after
                                       ).martingale_residual
            assert (residual > 1e-9) == (t == 2)
            state = after

    def test_unobserved_step_raises(self):
        # the record never walks a step itself: a step whose blocks it did
        # not see, or saw for another step, is an error
        J = random_rect(8, 4, 0)
        rec = TrajectoryRecorder(J)
        steps = guided_steps(J, 0, recorder=rec)
        state, q, eta, L_row, after = next(steps)
        rec.record_step(state, q, L_row, after)
        rec.before_step(state)
        with pytest.raises(OrthomateError, match="rows 1 .. 3 were not"):
            rec.record_step(state, q, L_row, after)
        state, q, eta, L_row, after = next(steps)
        rec.before_step(after)
        with pytest.raises(OrthomateError, match="rows 3 .. 3 were not"):
            rec.record_step(after, q, L_row, after)

    @pytest.mark.parametrize("steps, exact", [(1, False), (2, False),
                                              (4, False), (2, True)])
    def test_step_before_step_did_not_see_raises(self, steps, exact):
        # before_step reads the old state, which a transition in place
        # overwrites: a step it did not see, or saw for another step, is
        # an error, at the first step, a later one and the last one; with
        # the state seen, the same step records
        J = random_rect(8, 4, 0)
        *_, (state, q, eta, L_row, _) = guided_steps(J, 0, steps,
                                                     exact=exact)
        rec = TrajectoryRecorder(J)
        after = advance_state(state, q, L_row, J, observe=rec.observe_block)
        with pytest.raises(OrthomateError, match="before_step"):
            rec.record_step(state, q, L_row, after)
        rec.before_step(after)
        with pytest.raises(OrthomateError, match="before_step"):
            rec.record_step(state, q, L_row, after)
        rec.before_step(state)
        assert rec.record_step(state, q, L_row, after).t == steps - 1

class TestGuidedRunDiagnostics:
    @pytest.mark.parametrize("arithmetic, n, epsilon, seed", [
        ("float64", 32, 0.75, 1), ("exact", 8, 0.75, 0)])
    def test_one_walk_per_step(self, monkeypatch, arithmetic, n, epsilon,
                               seed):
        # a recorded step takes the column map, the kills and the survival
        # blocks once, in the transition; an unrecorded run calls no
        # recorder code
        calls = dict.fromkeys(("diag_column_map", "later_kills",
                               "survival_blocks", "observe_block"), 0)

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("diag_column_map", "later_kills", "survival_blocks"):
            monkeypatch.setattr(process, name,
                                counted(getattr(process, name), name))
        monkeypatch.setattr(
            TrajectoryRecorder, "observe_block",
            counted(TrajectoryRecorder.observe_block, "observe_block"))
        J = random_rect(n, round((1.0 - epsilon) * n), seed)
        for record in (True, False):
            calls.update(dict.fromkeys(calls, 0))
            out = run_process(J, epsilon=epsilon, seed=seed,
                              config=ProcessConfig(arithmetic=arithmetic,
                                                   record_trajectory=record))
            assert out.success
            m = J.shape.m
            assert calls["diag_column_map"] == calls["later_kills"] == (
                calls["survival_blocks"]) == m
            # one block per step at these orders, none at the last row
            assert calls["observe_block"] == (m - 1 if record else 0)
    def test_full_run_residuals(self):
        J = random_rect(16, 8, seed=5)
        out = run_process(J, seed=5)
        assert out.trajectory is not None
        for r in out.trajectory.records:
            assert r.martingale_residual <= 1e-9
            assert 0 <= r.fresh_kills <= 2 * 16 * (8 - r.t - 1)
            assert r.growth_max >= 1.0

    def test_eta_recorded(self):
        J = random_rect(12, 4, seed=6)
        out = run_process(J, seed=6)
        recs = out.trajectory.records
        assert all(not math.isnan(r.eta_used) for r in recs)
        assert tuple(r.eta_used for r in recs) == out.eta_used

    @pytest.mark.parametrize("arithmetic, n, epsilon, seed", [
        ("float64", 32, 0.75, 1), ("float64", 64, 0.5, 2),
        ("exact", 8, 0.75, 0), ("exact", 8, 0.5, 1)])
    def test_p_max_of_the_run_is_that_of_every_state(
            self, monkeypatch, arithmetic, n, epsilon, seed):
        # a record's p_max covers the rows >= t of the new state; every
        # other row is final and was in the record of the step that placed
        # it, so the largest p_max of a run is the largest entry of any
        # state the run made (an entry a later step kills can exceed every
        # final one, so the final state alone would not do)
        tops = []
        advance = process.advance_state

        def tracked(*args, **kwargs):
            after = advance(*args, **kwargs)
            tops.append(float(np.asarray(after.p, dtype=np.float64).max()))
            return after

        monkeypatch.setattr(process, "advance_state", tracked)
        J = random_rect(n, round((1.0 - epsilon) * n), seed)
        out = run_process(J, epsilon=epsilon, seed=seed,
                          config=ProcessConfig(arithmetic=arithmetic))
        recs = out.trajectory.records
        assert len(recs) == len(tops) > 1
        assert max(r.p_max for r in recs) == max(tops)
        assert summarize(out.trajectory, out.time).p_max == max(tops)


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
        excess = rep.growth_max - 1.0
        assert rep.xi_b_empirical == pytest.approx(
            KILLS_PER_LINE * rep.p_max + excess)
        assert rep.xi_c_empirical == pytest.approx(
            KILLS_PER_C_SUM * rep.p_max ** 2 * 16 + 2.0 * excess)

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
        assert lines[0].startswith("# orthomate-trajectory-v6")
        # the v6 column order (v5's and v4's), spelled out: a reordered or
        # renamed StepRecord field must change the schema name, not pass
        assert lines[1] == (
            "t,b_min,b_max,c_max,p_max,fresh_kills,eta_used,"
            "martingale_residual,b_dev_max,c_dev_max,growth_max")
        assert len(lines) == 2 + out.trajectory.steps_executed
        for line, rec in zip(lines[2:], out.trajectory.records):
            assert line == ",".join(
                repr(getattr(rec, name)) for name in lines[1].split(","))
