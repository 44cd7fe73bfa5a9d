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
process.LineSums that before and after carry (the transition does not
write the old state's), the pair sums of row t + 1 of after from
process.pair_sums, the product check_gamma takes, and the fresh kills,
martingale residual and growth ratio from each block of survival
probabilities, kills and column map that advance_state hands to
observe_block while it is in cache.  advance_state divides p in place, so
what the record needs of the old p beyond those blocks is read by
before_step, from the state's p, before the transition runs: the old
values of the spot sample and of the tracked lines.  record_step raises,
and never walks the step itself, when before_step did not see the step or
the blocks do not cover the rows > t.
The indices a step reads (the live triples, the column maps of the
samples) are taken once per step and shared by before_step and
record_step; the blocks' largest residual and ratio are kept as scalars.

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
from .process import GuidanceState, pair_sums


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
    k, l = np.divmod(np.flatnonzero(
        gram >= top * (1.0 - 4 * (n + 2) * 2.0 ** -53)), n)
    upper = k < l
    k, l = k[upper], l[upper]
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
        # the triples with k != l, each's row, lines and the symbols
        # J[i, k], J[i, l]; a step reads those in rows > t
        distinct = self.triples[1] != self.triples[2]
        self._tri_i = self.triples[0, distinct]
        self._tri_kl = self.triples[1:, distinct]
        self._tri_cells = J.grid[self._tri_i, self._tri_kl]
        # the spot point (i, j, (i + j) mod n) of every row i and column j
        # in lines: its symbol, its flat index into p and into q, and J[i, j]
        rows = np.arange(m)[:, None]
        self._spot_g = (rows + self.lines) % n
        self._spot_p = (rows * n + self.lines) * n + self._spot_g
        self._spot_q = self.lines * n + self._spot_g
        self._spot_cells = J.grid[:, :k]
        # (t, the indices step t reads), None before any step (_sample)
        self._step = None
        # (t, next row) of the step observe_block folds, None when none
        self._seen = None
        # what before_step read of the state before the step, None when none
        self._before = None

    def before_step(self, state: GuidanceState) -> None:
        """Read what record_step needs of state's p before the transition
        writes it: the values of the spot sample and of the tracked lines
        in the rows > t, as float64.  Called once per step, before
        advance_state."""
        t = state.t
        spot = np.asarray(state.p.reshape(-1)[self._spot_p[t + 1:]],
                          dtype=np.float64)
        self._before = (t, spot, self._tracked_lines(state.p, t))

    def observe_block(self, t, lo, old, new, den, k2, kills, all_positive):
        """Fold one block of the rows > t of the transition at step t into
        the step's fresh kills, martingale residual and largest survivor
        ratio p' / p; advance_state's observer, whose arguments it names.
        The block's column map must equal the recorder's own, from its row
        inverse of J.  Nothing of the call is kept."""
        if lo == t + 1:
            # the step's fresh kills, largest residual and largest ratio
            self._fresh, self._mart, self._ratio = 0, -math.inf, math.nan
            self._same_map = True
            self._seen = (t, lo)
        if self._seen != (t, lo):
            self._seen = None
            return
        hi = lo + len(den)
        self._seen = (t, hi)
        self._same_map &= np.array_equal(k2, self.Jinv[t][self.J.grid[lo:hi]])
        pb, den = np.asarray(old, np.float64), np.asarray(den, np.float64)
        d, b = den.take(kills), pb.take(kills)
        self._fresh += int(np.count_nonzero(b > 0))
        # martingale residual |den * s - p|, s = p' at a survivor and p / den
        # at a killed point (the two branches of the expectation), and |p'|
        # where den <= 0 or is nan: such a point is certainly killed
        buf = np.multiply(den, new)
        np.subtract(buf, pb, out=buf)
        np.abs(buf, out=buf)
        buf.put(kills, np.abs(d * (b / np.where(d > 0, d, 1.0)) - b))
        if not (all_positive or den.min() > 0):
            low = ~(den > 0)
            buf[low] = np.abs(new[low])
        self._mart = np.maximum(self._mart, buf.max())
        # killed points and points of zero mass (0 / 0) are nan and ignored
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(new, pb, out=buf)
        buf.put(kills, math.nan)
        self._ratio = np.fmax(self._ratio, np.fmax.reduce(buf.reshape(-1)))

    def record_step(self, before: GuidanceState, q_row, L_row: np.ndarray,
                    after: GuidanceState, eta_used: float = math.nan
                    ) -> StepRecord:
        """Record the transition before -> after under (q_row, L_row).

        before is the state before_step saw, which the transition
        consumed: its p is after's, so of it only t, the arithmetic and the
        LineSums it carries, those of the old rows >= t, are read here.
        The line sums and row maxima are read from the LineSums of before
        and after, the fresh kills, the martingale residual and the growth
        ratio from what observe_block folded of the transition, and the
        pair sums of row t + 1 are taken here.  Steps of one run are
        recorded in order.

        Raises:
            OrthomateError: before_step did not see step t, or
                observe_block did not see rows t + 1 .. m - 1.
        """
        m, t = self.m, before.t
        pre, self._before = self._before, None
        if pre is None or pre[0] != t:
            raise OrthomateError(f"step {t}: the state before the step was "
                                 "not observed (before_step)")
        _, spot_b, lines_b = pre
        q_raw = np.asarray(q_row)
        q = np.asarray(q_raw, dtype=np.float64)
        L_row = np.asarray(L_row, dtype=np.int64)

        # line sums and row maxima of the rows >= t of before and > t of
        # after, as the states carry them
        sums_b, sums_a = before.line_sums, after.line_sums
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

            # np.maximum, not max(), wherever a nan must reach the record
            spot = self._spot_residual(t, before.exact, q_raw, L_row, spot_b,
                                       after.p)
            mart_res = (float(np.maximum(self._mart, spot))
                        if self._same_map else math.inf)
            fresh_kills, ratio = self._fresh, self._ratio
            if not math.isnan(ratio):
                growth_max = float(ratio)

        # rows < t are final and were in the records of the steps that
        # placed them, so the run's largest p_max is that of all its states;
        # row t of after is row t of before, which the transition keeps
        p_max = float(np.maximum(sums_b.row_max[0],
                                 sums_a.row_max.max(initial=-math.inf)))

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

    def _sample(self, t):
        """The indices step t reads, taken once per step and kept until a
        step other than t asks: the row i and lines (k, l) of each tracked
        triple in a row > t with k != l, as i and a (2, triples) array, the
        columns where those lines' diagonals meet row t (the same shape),
        and the column where the diagonal of each spot point meets row t,
        as a (rows > t, lines) array."""
        if self._step is None or self._step[0] != t:
            live = self._tri_i > t
            # a finished state, t = m, has no row > t: every array is empty
            inv = self.Jinv[t] if t < self.m else self.Jinv[:0, 0]
            self._step = (t, self._tri_i[live], self._tri_kl[:, live],
                          inv[self._tri_cells[:, live]],
                          inv[self._spot_cells[t + 1:]])
        return self._step

    def _spot_residual(self, t, exact, q, L_row, b, p):
        """The largest martingale residual at the spot points of step t:
        the points (i, j, (i + j) mod n) of every row i > t for the columns
        j in self.lines, whose old values are b (before_step's) and new
        values are read from p, the new state's, independent of the
        transition's kill and survival code.

        The survival probability 1 - q(rho_cs) - q(rho_ds) of each point is
        recomputed from q and the recorder's own row inverse of J, in the
        same order and dtype as advance_state, and its kill indicator from
        L_row.  A point the rule kills must also be zero in the new state.
        On a correct transition every value equals the block's value at
        that point.
        """
        _, _, _, _, k2 = self._sample(t)
        g = self._spot_g[t + 1:]
        a = np.asarray(p.reshape(-1)[self._spot_p[t + 1:]], dtype=np.float64)
        q_flat = q.reshape(-1)
        one = Fraction(1) if exact else 1.0
        den = np.asarray((one - q_flat[self._spot_q[t + 1:]])
                         - q_flat[k2 * self.n + g], dtype=np.float64)
        killed = (g == L_row[self.lines]) | (g == L_row[k2])
        pos = den > 0
        size = np.abs(a)
        survive = np.where(killed, b / np.where(pos, den, 1.0), a)
        resid = np.where(pos, np.abs(den * survive - b), size)
        return np.where(killed, np.maximum(resid, size), resid).max()

    def _tracked_lines(self, p, t):
        """Lines k and l of the row i of each live triple of step t, as
        a float64 (2, triples, n) array, gathered from p at once."""
        _, i, kl, _, _ = self._sample(t)
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
        _, _, kl, k2, _ = self._sample(t)
        (k, l), (k2k, k2l) = kl, k2
        (pk, pl), (ak, al) = lines_before, lines_after
        prod = pk * pl
        x_now = prod.sum(axis=1)
        x_next = (ak * al).sum(axis=1)
        # r: the q mass of each line's two projection points on row t,
        # den = 1 - r: the line's survival probability
        r = q[kl] + q[k2]
        den = 1.0 - r
        ok = (den > 0).all(axis=0)
        # both lines survive with probability (1 - r_k) - r_l plus the
        # joint kill probability, which is zero unless the lines share a
        # projection point; 1 - r_k is never -0.0, nor is both, so adding
        # that zero would change no bit
        both = den[0] - r[1]
        shared_k, shared_l = k == k2l, k2k == l
        if shared_k.any() or shared_l.any():
            both += (np.where(shared_k[:, None], q[k], 0.0)
                     + np.where(shared_l[:, None], q[k2k], 0.0))
        factor = np.where(ok, both / np.where(ok, den[0] * den[1], 1.0), 0.0)
        expected = (prod * factor).sum(axis=1)
        # as Python's max(a, b), which keeps a unless b > a: fmax and the
        # where() skip a nan deviation or rise and turn -0.0 into 0.0,
        # maximum keeps a nan x_now and lifts a -0.0 one to x0; an
        # inf - inf is a quiet nan, as in Python's float arithmetic
        x0 = 1.0 / self.n
        with np.errstate(invalid="ignore"):
            worst = float(np.fmax.reduce(np.abs(x_next - expected),
                                         initial=0.0))
            rise = expected - x_now
            gain = np.where(rise > 0.0, rise, 0.0) / np.maximum(x_now, x0)
        # one value at a time, in triple order
        drift = self.stats.drift_c_cumulative
        for value in gain.tolist():
            drift += value
        self.stats.drift_c_cumulative = drift
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
