"""Empirical monitoring of the quantities the analysis controls.

Per step this records: the extremes of the local line sums (B statistic),
the largest quasi-random pair sum (C statistic), the largest state entry
(A statistic), kill counts per local line and per C sum, the martingale
residual of the transition, step deviations of the tracked sums from their
conditional expectations, and a telescoping identity relating the survival
product along a central line to a running sum S of rescaled state values.

Kill counts obey structural bounds (at most 2 per local line, 4 per C sum);
the deviation and drift numbers are reported against the log n / sqrt n
scale, never enforced, since their theoretical counterparts are asymptotic.
Both the pre-stop prefix and the stopped tail are recorded for stopped runs.

Kills and survival probabilities come from the step's Transition, line sums
and pair sums from process.line_statistics.

Tracking every central line and every column pair would be O(n^2) and
O(n^3) bookkeeping per step, so a deterministic sample of min(n, 64) lines
per central class and as many (row, column pair) triples is tracked.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from .core import LatinRectangle, OrthomateError
from .matching import FractionalMatching
from .process import GuidanceState, line_statistics


class EmptyTrajectory(OrthomateError):
    """summarize() needs at least one recorded step."""


CSV_SCHEMA = "orthomate-trajectory-v1"

CSV_COLUMNS = (
    "t", "b_min", "b_max", "c_max", "p_max", "kills_this_step", "eta_used",
    "kills_line_max", "c_kills_max", "martingale_residual",
    "b_dev_max", "c_dev_max", "s_identity_err", "growth_max",
)


@dataclass(frozen=True)
class StepRecord:
    t: int
    b_min: float
    b_max: float
    c_max: float
    p_max: float
    kills_this_step: int
    eta_used: float
    kills_line_max: int
    c_kills_max: int
    martingale_residual: float
    b_dev_max: float
    c_dev_max: float
    s_identity_err: float
    growth_max: float


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

    def to_csv(self, fh) -> None:
        fh.write(f"# {CSV_SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in self.records:
            d = asdict(rec)
            writer.writerow([d[c] for c in CSV_COLUMNS])

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": CSV_SCHEMA,
                "n": self.n,
                "m": self.m,
                "drift_c_cumulative": self.drift_c_cumulative,
                "records": [asdict(r) for r in self.records],
            },
            indent=2,
        )


@dataclass(frozen=True)
class SummaryReport:
    """Run-level aggregates of the tracked quantities."""

    n: int
    m: int
    steps_executed: int
    exit_time: Optional[int]
    b_rel_dev_max: float      # max |B sum - 1| observed
    c_rel_dev_max: float      # max (C sum * n - 1) observed
    p_max: float
    phi_scale: float          # log n / sqrt n reference scale
    growth_max: float         # largest one-step survivor ratio observed
    kills_line_max: int
    c_kills_max: int
    martingale_residual_max: float
    s_identity_err_max: float
    xi_b_empirical: float     # kills * max-term / X0 + growth excess, X0 = 1
    xi_c_empirical: float     # same for the C sums, X0 = 1/n
    drift_c_cumulative: float
    eta_max_used: float
    eta_mean_used: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    def to_csv(self, fh) -> None:
        d = asdict(self)
        writer = csv.writer(fh)
        writer.writerow(d.keys())
        writer.writerow(d.values())


class TrajectoryRecorder:
    """Accumulates StepRecords plus the cross-step central-line sums.

    For each sampled central line (column/symbol and diagonal/symbol) it
    maintains the running sum S built from the survival-rescaled state at
    the line's active-row point, and the product of survival factors; the
    two are linked by  prod (1 - p)^{-1} = 1 / (1 - S)  while the line is
    alive, which is checked each step as a wiring diagnostic.
    """

    def __init__(self, J: LatinRectangle, tracked_lines: int = 64):
        self.J = J
        n, m = J.shape.n, J.shape.m
        self.n, self.m = n, m
        self.stats = TrajectoryStats(n=n, m=m)
        self.Jinv = J.row_inverse()
        k = min(n, tracked_lines)
        # deterministic samples: lines (j, j); triples (j % m, j, j+1 mod n)
        self.lines = [(j, j) for j in range(k)]
        self.triples = [(j % m, j, (j + 1) % n) for j in range(k) if n >= 2]
        self.S_cs = np.zeros((n, n))
        self.S_ds = np.zeros((n, n))
        self.logpi_cs = np.zeros((n, n))
        self.logpi_ds = np.zeros((n, n))
        self.alive_cs = np.ones((n, n), dtype=bool)
        self.alive_ds = np.ones((n, n), dtype=bool)
        self.drift_c_cum = 0.0

    def record_step(self, before: GuidanceState, q_row, L_row: np.ndarray,
                    after: GuidanceState, eta_used: float = math.nan
                    ) -> StepRecord:
        """Record the transition before -> after under (q_row, L_row).

        after must still carry the Transition advance_state gave it.
        """
        m = self.m
        t = before.t
        tr = after.transition
        if tr is None or tr.t != t:
            raise ValueError(f"after carries no transition from step {t}")
        q = q_row.q if isinstance(q_row, FractionalMatching) else q_row
        q = np.asarray(q, dtype=np.float64)
        p_before = np.asarray(before.p, dtype=np.float64)
        p_after = np.asarray(after.p, dtype=np.float64)
        L_row = np.asarray(L_row, dtype=np.int64)

        b_min = b_max = c_max = math.nan
        kills_line_max = c_kills_max = kills_total = 0
        mart_res, growth_max, b_dev_max = 0.0, 1.0, 0.0
        if t + 1 < m:
            # statistics of the new state over rows that can still change
            b_rc, b_rs, gram = line_statistics(p_after[t + 1:])
            b_min = float(min(b_rc.min(), b_rs.min()))
            b_max = float(max(b_rc.max(), b_rs.max()))
            c_max = float(gram.max())

            # kill counts per local line and the pairwise C bound
            killed = tr.killed
            kc_rc = killed.sum(axis=2)  # kills on line (row, col)
            kc_rs = killed.sum(axis=1)  # kills on line (row, sym)
            kills_line_max = int(max(kc_rc.max(), kc_rs.max()))
            top2 = np.sort(kc_rc, axis=1)[:, -2:]
            c_kills_max = int(top2.sum(axis=1).max())
            kills_total = int(killed.sum())

            # martingale residual: two-branch expectation against the old
            # state where the survival probability is positive; a point whose
            # projections carry all q mass is certainly killed, and there the
            # residual term is the kill-consistency |p'|
            den = np.asarray(tr.den, dtype=np.float64)
            pb = p_before[t + 1:]
            pa = p_after[t + 1:]
            pos = den > 0
            survive_val = np.where(killed, pb / np.where(pos, den, 1.0), pa)
            resid = np.where(pos, np.abs(den * survive_val - pb), np.abs(pa))
            mart_res = float(resid.max())
            alive = ~killed & (pb > 0)
            if alive.any():
                growth_max = float((pa[alive] / pb[alive]).max())
            b_dev_max = float(max(
                np.abs((pa - pb).sum(axis=2)).max(),
                np.abs((pa - pb).sum(axis=1)).max(),
            ))
        p_max = float(p_after.max())

        c_dev_max = self._tracked_c_deviation(p_before, p_after, q, t)
        s_err = self._update_central_sums(p_before, L_row, t)

        rec = StepRecord(
            t=t, b_min=b_min, b_max=b_max, c_max=c_max, p_max=p_max,
            kills_this_step=kills_total, eta_used=float(eta_used),
            kills_line_max=kills_line_max, c_kills_max=c_kills_max,
            martingale_residual=mart_res, b_dev_max=b_dev_max,
            c_dev_max=c_dev_max, s_identity_err=s_err,
            growth_max=growth_max,
        )
        self.stats.records.append(rec)
        return rec

    def _tracked_c_deviation(self, p_before, p_after, q, t):
        """|X^{t+1} - E_t[X^{t+1}]| for the sampled C sums.

        The joint kill expectation is exactly expressible from q: the two
        kill indicators can only coincide when one point's diagonal crosses
        the other's column on the active row, in which case the shared
        projection point's q mass is the joint probability.
        """
        J = self.J
        worst = 0.0
        inv_t = self.Jinv[t]
        for (i, k, l) in self.triples:
            if i <= t or k == l:
                continue
            pk = p_before[i, k, :]
            pl = p_before[i, l, :]
            x_now = float(pk @ pl)
            x_next = float(p_after[i, k, :] @ p_after[i, l, :])
            k2k = int(inv_t[J.grid[i, k]])
            k2l = int(inv_t[J.grid[i, l]])
            rk = q[k, :] + q[k2k, :]
            rl = q[l, :] + q[k2l, :]
            joint = np.zeros(self.n)
            if k == k2l:
                joint += q[k, :]
            if k2k == l:
                joint += q[k2k, :]
            den_k = 1.0 - rk
            den_l = 1.0 - rl
            ok = (den_k > 0) & (den_l > 0)
            factor = np.where(ok, (1.0 - rk - rl + joint) /
                              np.where(ok, den_k * den_l, 1.0), 0.0)
            expected = float((pk * pl * factor).sum())
            worst = max(worst, abs(x_next - expected))
            x0 = 1.0 / self.n
            self.drift_c_cum += max(0.0, expected - x_now) / max(x_now, x0)
        self.stats.drift_c_cumulative = self.drift_c_cum
        return worst

    def _update_central_sums(self, p_before, L_row, t):
        """Advance S and the survival product; return the identity error."""
        n = self.n
        inv_t = self.Jinv[t]
        # active-row state values indexed by line: CS line (k, g) meets the
        # active row at (t, k, g); DS line (d, g) at (t, inv_t[d], g)
        p_cs = p_before[t]
        p_ds = p_before[t][inv_t, :]
        for S, logpi, alive, pact in (
            (self.S_cs, self.logpi_cs, self.alive_cs, p_cs),
            (self.S_ds, self.logpi_ds, self.alive_ds, p_ds),
        ):
            upd = alive & (pact < 1.0)
            S[upd] += (1.0 - S[upd]) * pact[upd]
            logpi[upd] -= np.log1p(-pact[upd])
            alive[alive & ~(pact < 1.0)] = False  # saturated line, stop tracking
        # the placed row kills the lines through its cells
        cols = np.arange(n)
        self.alive_cs[cols, L_row] = False
        self.alive_ds[self.J.grid[t], L_row] = False

        err = 0.0
        for (a, b) in self.lines:
            if self.alive_cs[a, b]:
                lhs = math.exp(self.logpi_cs[a, b]) * (1.0 - self.S_cs[a, b])
                err = max(err, abs(lhs - 1.0))
            if self.alive_ds[a, b]:
                lhs = math.exp(self.logpi_ds[a, b]) * (1.0 - self.S_ds[a, b])
                err = max(err, abs(lhs - 1.0))
        return err


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
    kills_line = max(r.kills_line_max for r in recs)
    c_kills = max(r.c_kills_max for r in recs)
    etas = [r.eta_used for r in recs if not math.isnan(r.eta_used)]
    phi = math.log(n) / math.sqrt(n) if n > 1 else 0.0
    return SummaryReport(
        n=n, m=stats.m, steps_executed=len(recs), exit_time=exit_time,
        b_rel_dev_max=b_rel, c_rel_dev_max=c_rel, p_max=p_max, phi_scale=phi,
        growth_max=growth_excess + 1.0,
        kills_line_max=kills_line, c_kills_max=c_kills,
        martingale_residual_max=max(r.martingale_residual for r in recs),
        s_identity_err_max=max(r.s_identity_err for r in recs),
        xi_b_empirical=kills_line * p_max + growth_excess,
        xi_c_empirical=c_kills * p_max ** 2 * n + growth_excess * 2.0,
        drift_c_cumulative=stats.drift_c_cumulative,
        eta_max_used=max(etas, default=math.nan),
        eta_mean_used=sum(etas) / len(etas) if etas else math.nan,
    )
