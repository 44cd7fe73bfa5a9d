"""Empirical monitoring of the quantities the analysis controls.

Per step this records: the extremes of the local line sums (B statistic),
the largest quasi-random pair sum of the row the next step places (C
statistic), the largest entry of the rows >= t (A statistic), the fresh
kills (points of positive mass the step zeroes), the martingale residual
of the transition, and step deviations of the tracked sums from their
conditional expectations.

Kill counts per local line and per C sum are constants of the kill rule
(KILLS_PER_LINE, KILLS_PER_C_SUM) and are not recorded.  The deviation and
drift numbers are reported against the log n / sqrt n scale, never
enforced, since their theoretical counterparts are asymptotic.  A stopped
run is recorded only up to its exit: one record per placed row, none for
the row where run_process stopped (a Gamma exit or an infeasible row) or
for any row after it.

Everything is taken from (before, q, L_row, after), each quantity once: the
line sums and row maxima from the process.LineSums the transition carries
on before and after (taken here only for init_state's state, at t = 0),
the kills from process.later_kills, as the transition takes them, and the
pair sums of row t + 1 of after from process.pair_sums, the product
check_gamma takes.

c_max is that one row's largest pair sum, not the largest over every row
> t, which would cost O((m - t) n^3) per step.  Row t + 1 of after is
final: the next step builds its weights from it and the transition copies
it unchanged, so each placed row's C is recorded once, in the state the
process used.  Every row > t has been through the same t + 1 steps, so the
next row is a fair sample of the others.  A C violation on any row is
still named exactly, with its value, by check_gamma's GammaReport.  The
recorder reads and writes no C ceiling, so a recorded run's checks
multiply exactly the rows an unrecorded run's do.

The martingale residual over all rows > t takes the survival probabilities
from process.survival_blocks, the helper the transition divides by, a few
rows at a time: the record holds no (rows, n, n) array of them, and the
residual sees the rounding of the division.  Whether a block can hold a
survival probability <= 0 is told once per step by the transition's lower
bound (1 - q_max) - q_max, not by each block's minimum.  A spot check at a
fixed sample of points (min(n, TRACKED_LINES) per row > t) recomputes the
survival probability from q and J with its own code and the kill rule from
the placed row, without later_kills, and folds its residual into the same
number: a transition that divides by a wrong survival probability or kills
the wrong points shows there.  On a correct transition each sampled value
equals the full pass's value at that point, so the record does not move.

Recomputing every point would redo the transition, and the expectation of
every C sum costs O(n^4) per step, so a deterministic sample of
min(n, TRACKED_LINES) columns per row and as many (row, column pair) triples
is checked.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, asdict, astuple, fields
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import LatinRectangle, OrthomateError
from .process import (GuidanceState, diag_column_map, later_kills,
                      pair_sums, state_line_sums, survival_blocks)


class EmptyTrajectory(OrthomateError):
    """summarize() needs at least one recorded step."""


CSV_SCHEMA = "orthomate-trajectory-v6"

#: sample size of the spot check and of the tracked C sums
TRACKED_LINES = 64

#: kills per local line of a later row, as the placed row is a permutation
KILLS_PER_LINE = 2

#: kills per C sum at most: those of its two column/symbol lines
KILLS_PER_C_SUM = 4


@dataclass(frozen=True)
class StepRecord:
    t: int
    b_min: float
    b_max: float
    c_max: float              # largest pair sum of after's row t + 1
    p_max: float
    fresh_kills: int          # points with p > 0 that the step zeroes
    eta_used: float
    martingale_residual: float
    b_dev_max: float
    c_dev_max: float
    growth_max: float


CSV_COLUMNS = tuple(f.name for f in fields(StepRecord))


@dataclass
class TrajectoryStats:
    """Per-step records of one run."""

    n: int
    m: int
    records: list = field(default_factory=list)
    drift_c_cumulative: float = 0.0

    @property
    def steps_executed(self) -> int:
        return len(self.records)

    def to_csv(self, fh, provenance: str = "") -> None:
        """Write the schema line, then the header and one row per step.

        provenance, when given, follows the schema name on the first line:
        the package version, seed and config that reproduce the run.
        """
        fh.write(f"# {CSV_SCHEMA} {provenance}\n" if provenance
                 else f"# {CSV_SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(astuple(rec) for rec in self.records)


@dataclass(frozen=True)
class SummaryReport:
    """Run-level aggregates of the tracked quantities."""

    n: int
    m: int
    steps_executed: int
    exit_time: Optional[int]
    b_rel_dev_max: float      # max |B sum - 1| observed
    c_rel_dev_max: float      # max (c_max * n - 1): each row as placed
    p_max: float
    phi_scale: float          # log n / sqrt n reference scale
    growth_max: float         # largest one-step survivor ratio observed
    martingale_residual_max: float
    xi_b_empirical: float     # KILLS_PER_LINE * max-term + growth excess
    xi_c_empirical: float     # same, KILLS_PER_C_SUM on C sums, X0 = 1/n
    drift_c_cumulative: float
    eta_max_used: float
    eta_mean_used: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


class TrajectoryRecorder:
    """Accumulates the StepRecords of one run; each step also checks a
    deterministic sample of min(n, TRACKED_LINES) columns and C sums."""

    def __init__(self, J: LatinRectangle):
        self.J = J
        n, m = J.shape.n, J.shape.m
        self.n, self.m = n, m
        self.stats = TrajectoryStats(n=n, m=m)
        self.Jinv = J.row_inverse()
        k = min(n, TRACKED_LINES)
        # deterministic samples: columns j; triples (j % m, j, j+1 mod n)
        self.lines = np.arange(k)
        self.triples = np.array(
            [(j % m, j, (j + 1) % n) for j in range(k) if n >= 2],
            dtype=np.int64).reshape(-1, 3).T

    def record_step(self, before: GuidanceState, q_row, L_row: np.ndarray,
                    after: GuidanceState, eta_used: float = math.nan
                    ) -> StepRecord:
        """Record the transition before -> after under (q_row, L_row).

        The line sums and row maxima are read from the LineSums before
        and after carry (process.state_line_sums), those of p from
        before's rows > t; the pair sums of row t + 1 are taken here, and
        the passes that need the survival probabilities, the kills or a
        work array one block of rows at a time.  Steps of one run are
        recorded in order.
        """
        m, n = self.m, self.n
        t = before.t
        q_raw = np.asarray(q_row)
        q = np.asarray(q_raw, dtype=np.float64)
        p_before = np.asarray(before.p, dtype=np.float64)
        p_after = np.asarray(after.p, dtype=np.float64)
        L_row = np.asarray(L_row, dtype=np.int64)

        # line sums and row maxima of the rows >= t of before and > t of
        # after, as the transition (or, at t = 0, this call) took them
        sums_b, sums_a = state_line_sums(before), state_line_sums(after)
        b_min = b_max = c_max = math.nan
        fresh_kills, mart_res, growth_max, b_dev_max = 0, 0.0, 1.0, 0.0
        if t + 1 < m:
            # statistics of the new state over rows that can still change
            pa, pb = p_after[t + 1:], p_before[t + 1:]
            b_rc, b_rs = sums_a.rc, sums_a.rs
            b_min = float(min(b_rc.min(), b_rs.min()))
            b_max = float(max(b_rc.max(), b_rs.max()))
            b_dev_max = float(max(np.abs(b_rc - sums_b.rc[1:]).max(),
                                  np.abs(b_rs - sums_b.rs[1:]).max()))
            # the largest pair sum of row t + 1, the row the next step places
            c_max = float(pair_sums(pa[0]).max())

            # the fresh kills, the martingale residual and the largest
            # survivor ratio p' / p, a block of rows at a time, with the
            # block's survival probabilities and one block-sized work array
            one = Fraction(1) if before.exact else 1.0
            # no den of the step is below dmin, as in advance_state, and
            # float() rounds monotonically, so dmin > 0 rules out a den <= 0
            # in every block; nan fails the test and leaves it to each block
            q_max = np.max(q_raw)
            all_positive = float((one - q_max) - q_max) > 0
            k2 = diag_column_map(self.J, t, t + 1)
            killed = later_kills(L_row, k2)
            i_idx = np.arange(m - t - 1)[:, None, None]
            k_idx = np.arange(n)[None, :, None]
            work = None
            mart, ratios = [], []
            for a, den in survival_blocks(q_raw, k2, one):
                blk = slice(a, a + len(den))
                if work is None:
                    work = np.empty(den.shape)
                buf = work[:len(den)]
                kills = (i_idx[:len(den)], k_idx, killed[blk])
                fresh_kills += int(np.count_nonzero(pb[blk][kills] > 0))
                mart.append(self._martingale_residual(
                    np.asarray(den, dtype=np.float64), pb[blk], pa[blk],
                    kills, buf, all_positive))
                # killed points and points of zero mass (0 / 0) are nan
                # and ignored
                with np.errstate(divide="ignore", invalid="ignore"):
                    np.divide(pa[blk], pb[blk], out=buf)
                buf[kills] = math.nan
                ratios.append(np.fmax.reduce(buf.reshape(-1)))

            # np.max, not max(), wherever a nan must reach the record
            spot = self._spot_residual(before, q_raw, L_row, pb, pa)
            mart_res = float(np.max(np.append(mart, spot)))
            ratio = np.fmax.reduce(ratios)
            if not math.isnan(ratio):
                growth_max = float(ratio)

        # rows < t are final and were in the records of the steps that
        # placed them, so the run's largest p_max is that of all its states;
        # row t of after is row t of before, which the transition copies
        p_max = float(np.max(np.append(sums_b.row_max[:1], sums_a.row_max)))

        c_dev_max = self._tracked_c_deviation(p_before, p_after, q, t)

        rec = StepRecord(
            t=t, b_min=b_min, b_max=b_max, c_max=c_max, p_max=p_max,
            fresh_kills=fresh_kills, eta_used=float(eta_used),
            martingale_residual=mart_res, b_dev_max=b_dev_max,
            c_dev_max=c_dev_max, growth_max=growth_max,
        )
        self.stats.records.append(rec)
        return rec

    @staticmethod
    def _martingale_residual(den, pb, pa, kills, buf, all_positive):
        """max |den * p' - p| over one block of the rows > t, in buf.

        A point of positive survival probability contributes
        |den * s - p|, where s is p' if it survived and p / den if it was
        killed: the two branches of the expectation.  Where den <= 0 the
        point is certainly killed and the term is the kill consistency
        |p'|.  kills indexes the block's killed points; all_positive tells
        that the step's lower bound on den is > 0, so no block needs its
        minimum.
        """
        np.multiply(den, pa, out=buf)
        np.subtract(buf, pb, out=buf)
        np.abs(buf, out=buf)
        d, b = den[kills], pb[kills]
        buf[kills] = np.abs(d * (b / np.where(d > 0, d, 1.0)) - b)
        # nan takes this branch too, as den > 0 fails
        if not (all_positive or den.min() > 0):
            low = ~(den > 0)
            buf[low] = np.abs(pa[low])
        return buf.max()

    def _spot_residual(self, before, q, L_row, pb, pa) -> np.ndarray:
        """The martingale residual at the sample points, independent of the
        transition's kill and survival code.

        In every row i > t the points (i, j, (i + j) mod n) for the columns
        j in self.lines are checked: their survival probability
        1 - q(rho_cs) - q(rho_ds) is recomputed from q and the
        recorder's own row inverse of J, in the same order and dtype as
        advance_state, and their kill indicator from L_row.  A point the
        rule kills must also be zero in the new state.  On a correct
        transition every value equals the full pass's value at that point.
        """
        t = before.t
        n = self.n
        i = np.arange(t + 1, self.m)[:, None]
        k = self.lines[None, :]
        g = (i + k) % n
        k2 = self.Jinv[t][self.J.grid[i, k]]
        one = Fraction(1) if before.exact else 1.0
        den = np.asarray((one - q[k, g]) - q[k2, g], dtype=np.float64)
        killed = (g == L_row[k]) | (g == L_row[k2])
        b = pb[i - t - 1, k, g]
        a = pa[i - t - 1, k, g]
        pos = den > 0
        survive = np.where(killed, b / np.where(pos, den, 1.0), a)
        resid = np.where(pos, np.abs(den * survive - b), np.abs(a))
        return np.where(killed, np.maximum(resid, np.abs(a)), resid)

    def _tracked_c_deviation(self, p_before, p_after, q, t):
        """|X^{t+1} - E_t[X^{t+1}]| for the sampled C sums.

        The joint kill expectation is exactly expressible from q: the two
        kill indicators can only coincide when one point's diagonal crosses
        the other's column on the active row, in which case the shared
        projection point's q mass is the joint probability.  All triples in
        rows > t are evaluated at once; each pair sum is the numpy sum of
        the products of two state lines, whose order depends on no BLAS
        kernel, and the drift is accumulated in triple order.
        """
        i, k, l = self.triples
        live = (i > t) & (k != l)
        i, k, l = i[live], k[live], l[live]
        grid = self.J.grid
        inv_t = self.Jinv[t]
        pk = p_before[i, k, :]
        pl = p_before[i, l, :]
        x_now = (pk * pl).sum(axis=1)
        x_next = (p_after[i, k, :] * p_after[i, l, :]).sum(axis=1)
        k2k = inv_t[grid[i, k]]
        k2l = inv_t[grid[i, l]]
        rk = q[k, :] + q[k2k, :]
        rl = q[l, :] + q[k2l, :]
        joint = np.zeros((i.size, self.n))
        joint += np.where((k == k2l)[:, None], q[k, :], 0.0)
        joint += np.where((k2k == l)[:, None], q[k2k, :], 0.0)
        den_k = 1.0 - rk
        den_l = 1.0 - rl
        ok = (den_k > 0) & (den_l > 0)
        factor = np.where(ok, (1.0 - rk - rl + joint) /
                          np.where(ok, den_k * den_l, 1.0), 0.0)
        expected = (pk * pl * factor).sum(axis=1)
        # Python's max(a, b) keeps a unless b > a: fmax and the where()s
        # below skip a nan and turn -0.0 into 0.0 in the same places, and,
        # as Python's float arithmetic, an inf - inf is a quiet nan
        x0 = 1.0 / self.n
        with np.errstate(invalid="ignore"):
            worst = float(np.fmax.reduce(np.abs(x_next - expected),
                                         initial=0.0))
            rise = expected - x_now
            gain = (np.where(rise > 0.0, rise, 0.0)
                    / np.where(x0 > x_now, x0, x_now))
        # accumulate adds one value at a time, in triple order
        stats = self.stats
        stats.drift_c_cumulative = float(np.add.accumulate(
            np.append(stats.drift_c_cumulative, gain))[-1])
        return worst


def summarize(stats: TrajectoryStats, exit_time: Optional[int] = None
              ) -> SummaryReport:
    """Aggregate a trajectory into the report-only stability quantities.

    Raises:
        EmptyTrajectory: no steps were recorded.
    """
    if not stats.records:
        raise EmptyTrajectory("no steps recorded")
    recs = stats.records
    n = stats.n
    b_vals = [r for r in recs if not math.isnan(r.b_min)]
    b_rel = max((max(abs(r.b_min - 1.0), abs(r.b_max - 1.0)) for r in b_vals),
                default=0.0)
    c_rel = max((r.c_max * n - 1.0 for r in b_vals), default=0.0)
    p_max = max(r.p_max for r in recs)
    growth_excess = max(r.growth_max - 1.0 for r in recs)
    etas = [r.eta_used for r in recs if not math.isnan(r.eta_used)]
    phi = math.log(n) / math.sqrt(n) if n > 1 else 0.0
    return SummaryReport(
        n=n, m=stats.m, steps_executed=len(recs), exit_time=exit_time,
        b_rel_dev_max=b_rel, c_rel_dev_max=c_rel, p_max=p_max, phi_scale=phi,
        growth_max=growth_excess + 1.0,
        martingale_residual_max=max(r.martingale_residual for r in recs),
        xi_b_empirical=KILLS_PER_LINE * p_max + growth_excess,
        xi_c_empirical=KILLS_PER_C_SUM * p_max ** 2 * n + growth_excess * 2.0,
        drift_c_cumulative=stats.drift_c_cumulative,
        eta_max_used=max(etas, default=math.nan),
        eta_mean_used=sum(etas) / len(etas) if etas else math.nan,
    )
