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

Everything is taken once: the line sums and row maxima from the
process.LineSums the transition carries on before and after (taken here
only for init_state's state, at t = 0), the pair sums of row t + 1 of
after from process.pair_sums, the product check_gamma takes, and the fresh
kills, martingale residual and growth ratio from each block of survival
probabilities, kills and column map that advance_state hands to
observe_block while it is in cache.  run_process advances its one p in
place, so what the record needs of the old state beyond those blocks is
read by before_step, from the state's p, before the transition runs: the
old values of the spot sample and of the tracked lines, and at t = 0 the
line sums.  record_step raises, and never walks the step itself, when
before_step did not see the step or the blocks do not cover the rows > t.

c_max is that one row's largest pair sum (largest_pair_sum: the same on
every BLAS kernel), not the largest over every row > t, which would cost
O((m - t) n^3) per step.  Row t + 1 of after is
final: the next step builds its weights from it and the transition leaves
it unchanged, so each placed row's C is recorded once, in the state the
process used.  Every row > t has been through the same t + 1 steps, so the
next row is a fair sample of the others.  A C violation on any row is
still counted by check_gamma's GammaReport, which names the first exactly,
with its value.  The recorder reads and writes no C ceiling, so a
recorded run's checks multiply exactly the rows an unrecorded run's do.

Two checks do not trust the transition's code.  observe_block compares
the column map of every block with the recorder's own row inverse of J
and makes the step's martingale residual +inf where they differ.  A spot
check at a fixed sample of points (min(n, TRACKED_LINES) per row > t)
recomputes the survival probability from q and J with its own code and
the kill rule from the placed row, without later_kills, and folds its
residual into the same number; it reads the old values at those points
from p itself (before_step), not from the blocks the transition hands
on: a transition that divides by a wrong survival probability or kills
the wrong points shows there.  On a correct transition each sampled value
equals the block's value at that point, so the record does not move.

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
from .process import GuidanceState, pair_sums, state_line_sums


class EmptyTrajectory(OrthomateError):
    """summarize() needs at least one recorded step."""


CSV_SCHEMA = "orthomate-trajectory-v6"

#: sample size of the spot check and of the tracked C sums
TRACKED_LINES = 64

#: kills per local line of a later row, as the placed row is a permutation
KILLS_PER_LINE = 2

#: kills per C sum at most: those of its two column/symbol lines
KILLS_PER_C_SUM = 4


def largest_pair_sum(row: np.ndarray) -> float:
    """The largest math.fsum of the float products x(k, g) x(l, g) over
    the pairs k < l of one float64 (n, n) row x, 0.0 below n = 2.  IEEE
    products and fsum's correctly rounded sum are the same on every
    machine, so no BLAS kernel changes it.

    Only the pairs whose process.pair_sums value is at least
    top (1 - 4 (n + 2) u), top the largest, are summed again.  With
    u = 2^-53 and gamma_n = n u / (1 - n u), for a pair of exact sum E:
      the computed pair sum of n nonnegative terms is within 1 +- gamma_n
      of E, in any summation order, with or without FMA;
      its fsum F is within (1 +- u)^2 of E: a rounding per product, one
      of the sum;
    so the pair of the largest F has a computed sum of at least
    top (1 - gamma_n) (1 - u)^2 / ((1 + gamma_n) (1 + u)^2), about
    top (1 - (2 n + 4) u), and the threshold, with its two roundings,
    stays below that while the margin exceeds about (2 n + 6) u.  The
    terms are nonnegative, as every state a transition makes is; the
    argument assumes no product underflows, true of rows whose entries
    are near 1/n.  A nan top keeps no pair and is returned.
    """
    gram = pair_sums(row)
    top = gram.max()
    n = row.shape[0]
    k, l = np.nonzero(np.triu(gram >= top * (1.0 - 4 * (n + 2) * 2.0 ** -53),
                              1))
    return max(map(math.fsum, (row[k] * row[l]).tolist()),
               default=float(top))


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
        # (t, next row) of the step observe_block folds, None when none
        self._seen = None
        # what before_step read of the state before the step, None when none
        self._before = None

    def before_step(self, state: GuidanceState) -> None:
        """Read what record_step needs of state before the transition
        writes its p: the line sums of the rows >= t (state_line_sums,
        which reads p only where state carries none), and the values of
        the spot sample and of the tracked lines in the rows > t, as
        float64.  Called once per step, before advance_state."""
        t = state.t
        i, k, g = self._spot_points(t)
        spot = np.asarray(state.p[i, k, g], dtype=np.float64)
        self._before = (t, state_line_sums(state), spot,
                        self._tracked_lines(state.p, t))

    def observe_block(self, t, lo, old, new, den, k2, kills, all_positive):
        """Fold one block of the rows > t of the transition at step t into
        the step's fresh kills, martingale residual and largest survivor
        ratio p' / p; advance_state's observer, whose arguments it names.
        The block's column map must equal the recorder's own, from its row
        inverse of J.  Nothing of the call is kept."""
        if lo == t + 1:
            self._fresh, self._mart, self._ratios = 0, [], []
            self._same_map = True
            self._seen = (t, lo)
        if self._seen != (t, lo):
            self._seen = None
            return
        hi = lo + len(den)
        self._seen = (t, hi)
        self._same_map &= np.array_equal(k2, self.Jinv[t][self.J.grid[lo:hi]])
        pb, den = np.asarray(old, np.float64), np.asarray(den, np.float64)
        self._fresh += int(np.count_nonzero(pb[kills] > 0))
        # martingale residual |den * s - p|, s = p' at a survivor and p / den
        # at a killed point (the two branches of the expectation), and |p'|
        # where den <= 0 or is nan: such a point is certainly killed
        buf = np.multiply(den, new)
        np.subtract(buf, pb, out=buf)
        np.abs(buf, out=buf)
        d, b = den[kills], pb[kills]
        buf[kills] = np.abs(d * (b / np.where(d > 0, d, 1.0)) - b)
        if not (all_positive or den.min() > 0):
            low = ~(den > 0)
            buf[low] = np.abs(new[low])
        self._mart.append(buf.max())
        # killed points and points of zero mass (0 / 0) are nan and ignored
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(new, pb, out=buf)
        buf[kills] = math.nan
        self._ratios.append(np.fmax.reduce(buf.reshape(-1)))

    def record_step(self, before: GuidanceState, q_row, L_row: np.ndarray,
                    after: GuidanceState, eta_used: float = math.nan
                    ) -> StepRecord:
        """Record the transition before -> after under (q_row, L_row).

        before is the state before_step saw (its p may be after's, if
        the transition ran in place); of it only t and the arithmetic are
        read here.  The line sums and row maxima are read from the
        LineSums before (through before_step) and after carry
        (process.state_line_sums), the fresh kills, the martingale
        residual and the growth ratio from what observe_block folded of
        the transition, and the pair sums of row t + 1 are taken here.
        Steps of one run are recorded in order.

        Raises:
            OrthomateError: before_step did not see step t, or
                observe_block did not see rows t + 1 .. m - 1.
        """
        m, t = self.m, before.t
        pre, self._before = self._before, None
        if pre is None or pre[0] != t:
            raise OrthomateError(f"step {t}: the state before the step was "
                                 "not observed (before_step)")
        _, sums_b, spot_b, lines_b = pre
        q_raw = np.asarray(q_row)
        q = np.asarray(q_raw, dtype=np.float64)
        L_row = np.asarray(L_row, dtype=np.int64)

        # line sums and row maxima of the rows >= t of before and > t of
        # after, as the transition (or, at t = 0, before_step) took them
        sums_a = state_line_sums(after)
        b_min = b_max = c_max = math.nan
        fresh_kills, mart_res, growth_max, b_dev_max = 0, 0.0, 1.0, 0.0
        if t + 1 < m:
            if self._seen != (t, m):
                raise OrthomateError(f"step {t}: rows {t + 1} .. {m - 1} were "
                                     "not observed (advance_state(observe=))")
            self._seen = None
            # statistics of the new state over rows that can still change
            b_rc, b_rs = sums_a.rc, sums_a.rs
            b_min = float(min(b_rc.min(), b_rs.min()))
            b_max = float(max(b_rc.max(), b_rs.max()))
            b_dev_max = float(max(np.abs(b_rc - sums_b.rc[1:]).max(),
                                  np.abs(b_rs - sums_b.rs[1:]).max()))
            # the largest pair sum of row t + 1, the row the next step places
            c_max = largest_pair_sum(
                np.asarray(after.p[t + 1], dtype=np.float64))

            # np.max, not max(), wherever a nan must reach the record
            spot = self._spot_residual(t, before.exact, q_raw, L_row, spot_b,
                                       after.p)
            mart_res = (float(np.max(np.append(self._mart, spot)))
                        if self._same_map else math.inf)
            fresh_kills, ratio = self._fresh, np.fmax.reduce(self._ratios)
            if not math.isnan(ratio):
                growth_max = float(ratio)

        # rows < t are final and were in the records of the steps that
        # placed them, so the run's largest p_max is that of all its states;
        # row t of after is row t of before, which the transition keeps
        p_max = float(np.max(np.append(sums_b.row_max[:1], sums_a.row_max)))

        c_dev_max = self._tracked_c_deviation(
            lines_b, self._tracked_lines(after.p, t), q, t)

        rec = StepRecord(
            t=t, b_min=b_min, b_max=b_max, c_max=c_max, p_max=p_max,
            fresh_kills=fresh_kills, eta_used=float(eta_used),
            martingale_residual=mart_res, b_dev_max=b_dev_max,
            c_dev_max=c_dev_max, growth_max=growth_max,
        )
        self.stats.records.append(rec)
        return rec

    def _spot_points(self, t):
        """(i, k, g) of the spot sample of step t: the points
        (i, j, (i + j) mod n) of every row i > t for the columns j in
        self.lines, as index arrays of shape (rows > t, lines)."""
        i = np.arange(t + 1, self.m)[:, None]
        k = self.lines[None, :]
        return i, k, (i + k) % self.n

    def _spot_residual(self, t, exact, q, L_row, b, p) -> np.ndarray:
        """The martingale residual at the sample points of step t, whose
        old values are b (before_step's) and new values are read from p,
        the new state's, independent of the transition's kill and survival
        code.

        The survival probability 1 - q(rho_cs) - q(rho_ds) of each point
        (_spot_points) is recomputed from q and the recorder's own row
        inverse of J, in the same order and dtype as advance_state, and its
        kill indicator from L_row.  A point the rule kills must also be
        zero in the new state.  On a correct transition every value equals
        the block's value at that point.
        """
        i, k, g = self._spot_points(t)
        a = np.asarray(p[i, k, g], dtype=np.float64)
        k2 = self.Jinv[t][self.J.grid[i, k]]
        one = Fraction(1) if exact else 1.0
        den = np.asarray((one - q[k, g]) - q[k2, g], dtype=np.float64)
        killed = (g == L_row[k]) | (g == L_row[k2])
        pos = den > 0
        survive = np.where(killed, b / np.where(pos, den, 1.0), a)
        resid = np.where(pos, np.abs(den * survive - b), np.abs(a))
        return np.where(killed, np.maximum(resid, np.abs(a)), resid)

    def _live_triples(self, t):
        """Row i and lines (k, l), as a (2, triples) array, of the
        tracked triples of step t: those in rows > t with k != l."""
        i, k, l = self.triples
        live = (i > t) & (k != l)
        return i[live], self.triples[1:, live]

    def _tracked_lines(self, p, t):
        """Lines k and l of the row i of each live triple of step t, as
        a float64 (2, triples, n) array, gathered from p at once."""
        i, kl = self._live_triples(t)
        return np.asarray(p[i, kl], dtype=np.float64)

    def _tracked_c_deviation(self, lines_before, lines_after, q, t):
        """|X^{t+1} - E_t[X^{t+1}]| for the sampled C sums, from the
        _tracked_lines of the states before and after step t.

        The joint kill expectation is exactly expressible from q: the two
        kill indicators can only coincide when one point's diagonal crosses
        the other's column on the active row, in which case the shared
        projection point's q mass is the joint probability.  All triples in
        rows > t are evaluated at once; each pair sum is the numpy sum of
        the products of two state lines, whose order depends on no BLAS
        kernel, and the drift is accumulated in triple order.
        """
        # the diagonal column maps of both lines of each triple
        i, kl = self._live_triples(t)
        k2 = self.Jinv[t][self.J.grid[i, kl]]
        (k, l), (k2k, k2l) = kl, k2
        (pk, pl), (ak, al) = lines_before, lines_after
        prod = pk * pl
        x_now = prod.sum(axis=1)
        x_next = (ak * al).sum(axis=1)
        rk, rl = q[kl] + q[k2]
        joint = np.zeros((i.size, self.n))
        joint += np.where((k == k2l)[:, None], q[k, :], 0.0)
        joint += np.where((k2k == l)[:, None], q[k2k, :], 0.0)
        den_k = 1.0 - rk
        den_l = 1.0 - rl
        ok = (den_k > 0) & (den_l > 0)
        factor = np.where(ok, (1.0 - rk - rl + joint) /
                          np.where(ok, den_k * den_l, 1.0), 0.0)
        expected = (prod * factor).sum(axis=1)
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
