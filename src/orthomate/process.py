"""The guided greedy row process: state vector, kills, goodness region, loop.

The constructor maintains a vector p over all (row, column, symbol) points,
initially 1/n everywhere.  At step t it places row t of the output rectangle:

  1. check the state is good (region Gamma below); stop otherwise,
  2. normalize row t of p per symbol and build a fractional matching q
     with q <= (1 + eta) * d via max flow,
  3. draw a permutation row with expectation q (Birkhoff sampling),
  4. kill every future point whose column/symbol or diagonal/symbol line
     passes through a newly placed cell, and rescale the survivors by the
     conditional survival probability, which makes p a martingale.

Goodness is three families of inequalities with explicit finite-n constants:

  A (pointwise):    p(x) <= 1.1 * eps^-2 / n
  B (local lines):  |sum over an RC or RS line of p - 1| <= log n / sqrt n
  C (quasi-random): sum_g p(i,k,g) * p(i,l,g) <= (1 + log n / sqrt n) / n

All three are enforced on uncoloured rows, including the row about to be
placed; coloured rows are frozen and no longer constrain the extension.
A frozen row passed A while it was still uncoloured and the transition
never writes it again, so A need not be checked there either.
Logarithms are natural.  The epsilon in A is a free parameter so stress
configurations can decouple it from the actual row count.

A state that survives all m steps yields a rectangle orthogonal to J by
construction: killed points have p = 0, get weight 0 in every later q, and
thus never appear in a sampled row.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, asdict, fields
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (
    LatinRectangle,
    OrthomateError,
    Point,
    Shape,
    verify_latin,
    verify_orthogonal,
)
from .matching import (
    DeadSymbol,
    FractionalMatching,
    Infeasible,
    build_fractional_matching,
    normalize_row,
    sample_matching_lazy,
)

EXACT_MAX_N = 12

#: allowed values of the ProcessConfig string fields
CONFIG_CHOICES = {
    "eta_policy": ("doubling", "fixed"),
    "arithmetic": ("float64", "exact"),
}


class RowAlreadyColoured(OrthomateError):
    """Projection requested for a point whose row is already placed."""


class DegenerateDenominator(OrthomateError):
    """Survival probability <= 0 for a surviving point; process failure."""


@dataclass
class ProcessConfig:
    """Knobs of the guided process; serializable as JSON.

    Raises:
        ValueError: a field holds a value outside its documented range.
    """

    eta_policy: str = "doubling"
    eta_initial: Optional[float] = None
    eta_max: float = 64.0
    arithmetic: str = "float64"  # or "exact" (Fractions, n <= 12)
    gamma_a_coeff: float = 1.1
    gamma_b_slack: float = 1.0
    gamma_c_slack: float = 1.0
    record_trajectory: bool = True
    tracked_lines: int = 64

    def __post_init__(self):
        for name, allowed in CONFIG_CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(allowed)}; "
                                 f"got {value!r}")
        if not (isinstance(self.eta_max, numbers.Real)
                and 0 < self.eta_max < math.inf):
            raise ValueError(f"eta_max must be a finite number > 0; "
                             f"got {self.eta_max!r}")
        if self.eta_initial is not None and not (
                isinstance(self.eta_initial, numbers.Real)
                and 0 <= self.eta_initial < math.inf):
            raise ValueError(f"eta_initial must be a finite number >= 0 or "
                             f"null; got {self.eta_initial!r}")
        if not (isinstance(self.gamma_a_coeff, numbers.Real)
                and 0 < self.gamma_a_coeff < math.inf):
            raise ValueError(f"gamma_a_coeff must be a finite number > 0; "
                             f"got {self.gamma_a_coeff!r}")
        for name in ("gamma_b_slack", "gamma_c_slack"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0 <= value < math.inf):
                raise ValueError(f"{name} must be a finite number >= 0; "
                                 f"got {value!r}")
        if not (isinstance(self.tracked_lines, int)
                and self.tracked_lines >= 0):
            raise ValueError(f"tracked_lines must be an integer >= 0; "
                             f"got {self.tracked_lines!r}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ProcessConfig":
        """Build a config from a JSON object; unknown keys are an error."""
        if not isinstance(obj, dict):
            raise ValueError(
                f"config must be a JSON object; got {type(obj).__name__}")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        return cls(**obj)


@dataclass(frozen=True)
class Transition:
    """Kill indicators and survival probabilities 1 - q(rho_cs) - q(rho_ds)
    of the rows > t, as advance_state computed them placing row t."""

    t: int
    killed: np.ndarray  # (m - t - 1, n, n) bool
    den: np.ndarray  # same shape, dtype of 1 - q; degenerate values kept


@dataclass
class GuidanceState:
    """The vector p at time t, plus stopping bookkeeping.

    p has shape (m, n, n) indexed [row, col, sym].  Rows below t are frozen;
    entries killed at earlier times are exactly zero.  A point's colouring
    time is simply its row index: row i is placed at step t = i.
    advance_state attaches the Transition that led to the state;
    run_process drops it once the step is recorded.
    """

    shape: Shape
    t: int
    p: np.ndarray
    stopped_at: Optional[int] = None
    transition: Optional[Transition] = None

    @property
    def exact(self) -> bool:
        return self.p.dtype == object


@dataclass(frozen=True)
class KillMask:
    """Kill indicators for points in rows beyond the active one."""

    t: int
    killed: np.ndarray  # (m, n, n) bool; rows <= t all False


@dataclass(frozen=True)
class GammaViolation:
    ineq: str  # "A_x" | "B_line" | "C_ikl"
    location: tuple
    lhs: float
    bound: tuple  # (lo, hi); lo is None for one-sided bounds
    margin: float  # amount by which the bound is exceeded (> 0)


@dataclass(frozen=True)
class GammaReport:
    good: bool
    violations: tuple = ()


def init_state(shape: Shape, exact: bool = False) -> GuidanceState:
    """Uniform initial state p = 1/n everywhere."""
    m, n = shape.m, shape.n
    if exact:
        p = np.full((m, n, n), Fraction(1, n), dtype=object)
    else:
        p = np.full((m, n, n), 1.0 / n)
    return GuidanceState(shape=shape, t=0, p=p)


def check_epsilon(epsilon) -> float:
    """epsilon if it is a finite number >= 0, else ValueError: a nan would
    switch A off silently, a negative value would act as its absolute value.
    """
    if not (isinstance(epsilon, numbers.Real) and 0 <= epsilon < math.inf):
        raise ValueError(f"epsilon must be a finite number >= 0; "
                         f"got {epsilon!r}")
    return epsilon


def check_arithmetic(n: int, config: ProcessConfig) -> None:
    """ValueError when config asks for exact arithmetic at an order n above
    EXACT_MAX_N; callers run it before they open outputs or fork workers."""
    if config.arithmetic == "exact" and n > EXACT_MAX_N:
        raise ValueError(f"exact arithmetic supported for n <= {EXACT_MAX_N}")


def gamma_bounds(n: int, epsilon: float, a_coeff: float = 1.1,
                 b_slack: float = 1.0, c_slack: float = 1.0):
    """(A upper bound, B low, B high, C upper bound) for the goodness region."""
    check_epsilon(epsilon)
    log_term = math.log(n) / math.sqrt(n) if n > 1 else 0.0
    a_bound = math.inf if epsilon == 0 else a_coeff / (epsilon ** 2 * n)
    return (
        a_bound,
        1.0 - b_slack * log_term,
        1.0 + b_slack * log_term,
        (1.0 + c_slack * log_term) / n,
    )


def line_statistics(rows: np.ndarray):
    """(rc, rs, gram) of a float64 stack of rows of p: the (row, col) and
    (row, sym) line sums and the pair sums G[r, k, l], zero where k = l."""
    gram = rows @ rows.transpose(0, 2, 1)
    idx = np.arange(rows.shape[1])
    gram[:, idx, idx] = 0.0
    return rows.sum(axis=2), rows.sum(axis=1), gram


def check_gamma(state: GuidanceState, epsilon: float,
                a_coeff: float = 1.1, b_slack: float = 1.0,
                c_slack: float = 1.0,
                max_violations: Optional[int] = None) -> GammaReport:
    """Evaluate the three goodness families and report every violation.

    All three are checked on uncoloured rows only (>= t).  A coloured row
    was checked for A while it was still uncoloured and is frozen since, so
    checking it again could not find anything new.  max_violations
    optionally truncates the list per family.
    """
    n, t = state.shape.n, state.t
    a_bound, b_lo, b_hi, c_bound = gamma_bounds(n, epsilon, a_coeff,
                                                b_slack, c_slack)
    sub = state.p[t:]
    if state.exact:
        sub = sub.astype(np.float64)
    cap = slice(None, max_violations)
    violations = []

    if a_bound != math.inf:
        bad = sub > a_bound
        if bad.any():
            for i_off, k, g in np.argwhere(bad)[cap]:
                lhs = float(sub[i_off, k, g])
                violations.append(GammaViolation(
                    "A_x", (int(i_off) + t, int(k), int(g)), lhs,
                    (None, a_bound), lhs - a_bound))

    rc, rs, gram = line_statistics(sub)
    for cls, sums in (("RC", rc), ("RS", rs)):
        bad = (sums < b_lo) | (sums > b_hi)
        if bad.any():
            for i_off, j in np.argwhere(bad)[cap]:
                lhs = float(sums[i_off, j])
                margin = max(b_lo - lhs, lhs - b_hi)
                violations.append(GammaViolation(
                    "B_line", (cls, int(i_off) + t, int(j)), lhs,
                    (b_lo, b_hi), margin))
    bad = gram > c_bound
    if bad.any():
        for r, k, l in np.argwhere(bad)[cap]:
            lhs = float(gram[r, k, l])
            violations.append(GammaViolation(
                "C_ikl", (int(r) + t, int(k), int(l)), lhs,
                (None, c_bound), lhs - c_bound))

    return GammaReport(not violations, tuple(violations))


def diag_column_map(J: LatinRectangle, t: int, rows_from: int) -> np.ndarray:
    """k2[i - rows_from, k] = column where the diagonal of (i, k) meets row t."""
    inv_t = J.row_inverse()[t]
    return inv_t[J.grid[rows_from:, :]]


def central_projections(x: Point, t: int, J: LatinRectangle):
    """The two points of the active row t on x's central (CS and DS) lines.

    Both share the RS line (t, sym(x)) and are always distinct, because J's
    column injectivity forces x's diagonal to cross row t away from col(x).

    Raises:
        RowAlreadyColoured: x lies in row t or an earlier row.
    """
    if x.row <= t:
        raise RowAlreadyColoured(f"point {x} has colouring time {x.row} <= {t}")
    rho_cs = Point(t, x.col, x.sym)
    k2 = int(J.row_inverse()[t, J.grid[x.row, x.col]])
    rho_ds = Point(t, k2, x.sym)
    return rho_cs, rho_ds


def kill_mask(L_row: np.ndarray, t: int, J: LatinRectangle,
              shape: Shape) -> KillMask:
    """Kill indicators induced by placing L_row at the active row t.

    A point x in a later row dies iff the placed row occupies the point of
    x's column/symbol line or of x's diagonal/symbol line on row t.  Per
    local line of a later row this kills at most 2 points.
    """
    m, n = shape.m, shape.n
    killed = np.zeros((m, n, n), dtype=bool)
    if t + 1 < m:
        killed[t + 1:] = _later_kills(L_row, diag_column_map(J, t, t + 1))
    return KillMask(t=t, killed=killed)


def _later_kills(L_row: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Kill indicators on the rows whose diagonal column map is k2.

    Point (i, k, g) dies iff g = L_row[k] (its column/symbol line meets the
    placed cell (t, k)) or g = L_row[k2[i, k]] (its diagonal/symbol line
    meets the placed cell on its diagonal).
    """
    L_row = np.asarray(L_row, dtype=np.int64)
    rows, n = k2.shape
    killed = np.zeros((rows, n, n), dtype=bool)
    i, k = np.ogrid[:rows, :n]
    killed[i, k, L_row[k]] = True
    killed[i, k, L_row[k2]] = True
    return killed


def advance_state(state: GuidanceState, q_row, L_row: np.ndarray,
                  J: LatinRectangle, den_tol: float = 1e-12) -> GuidanceState:
    """One transition of the state under the placed row.

    Surviving points in uncoloured rows are divided by their survival
    probability 1 - q(rho_cs) - q(rho_ds); killed points drop to zero;
    coloured rows stay frozen and are copied as they are.  Survivors can
    only grow, since the divisor never exceeds 1.  A point with zero mass
    stays at zero whatever its survival probability.  The new state
    carries the kill mask and survival probabilities as its Transition.

    The same code runs on float64 and on Fraction states; den_tol applies
    to floats, Fractions are degenerate only at survival probability <= 0.

    Raises:
        DegenerateDenominator: a surviving point has survival probability
            <= den_tol (<= 0 for Fractions) under q, i.e. q places mass
            >= 1 - den_tol (>= 1) on its two projections.
    """
    if state.stopped_at is not None:
        raise ValueError("cannot advance a stopped state")
    t = state.t
    m = state.shape.m
    if t >= m:
        raise ValueError(f"no row left to place at t={t}")
    q = q_row.q if isinstance(q_row, FractionalMatching) else q_row
    p = state.p
    new_p = np.empty_like(p)
    new_p[:t + 1] = p[:t + 1]
    one = Fraction(1) if state.exact else 1.0
    tol = 0 if state.exact else den_tol
    k2 = diag_column_map(J, t, t + 1)
    killed = _later_kills(L_row, k2)
    p_sub = p[t + 1:]
    # den is built in the gathered copy of q; it takes the dtype of 1 - q,
    # so an integer q (a permutation matrix) still divides as floats
    one_minus_q = one - q
    den = q[k2, :].astype(one_minus_q.dtype, copy=False)
    np.subtract(one_minus_q, den, out=den)
    low = den <= tol
    divisor = den
    if low.any():
        degenerate = low & ~killed & (p_sub > 0)
        if degenerate.any():
            i, k, g = np.argwhere(degenerate)[0]
            raise DegenerateDenominator(
                f"surviving point ({int(i) + t + 1}, {int(k)}, {int(g)}) "
                f"has survival probability {float(den[i, k, g]):.3e}"
            )
        # what is left there is killed or has p = 0: divide by one so that
        # a zero stays +0 instead of turning into -0 or nan; den keeps the
        # raw values for the recorder's martingale residual
        divisor = np.where(low, one, den)
    np.divide(p_sub, divisor, out=new_p[t + 1:])
    new_p[t + 1:][killed] = 0 * one
    return GuidanceState(shape=state.shape, t=t + 1, p=new_p,
                         transition=Transition(t, killed, den))


@dataclass
class ProcessOutcome:
    """Result of one guided run.

    kind is "success", "gamma_exit" or "infeasible_row"; the trajectory
    carries the per-step statistics when recording was enabled.
    """

    kind: str
    rectangle: Optional[LatinRectangle] = None
    time: Optional[int] = None
    gamma_report: Optional[GammaReport] = None
    detail: str = ""
    trajectory: Optional[object] = None
    eta_used: tuple = ()
    final_state: Optional[GuidanceState] = None

    @property
    def success(self) -> bool:
        return self.kind == "success"


def run_process(J: LatinRectangle, epsilon: Optional[float] = None,
                seed: int = 0, config: Optional[ProcessConfig] = None,
                rng: Optional[np.random.Generator] = None) -> ProcessOutcome:
    """Run the full guided construction of an orthogonal mate for J.

    All randomness is drawn from a single generator in a fixed order: one
    uniform per row for the Birkhoff coefficient sampling.  Identical
    (J, epsilon, seed, config) reproduce the outcome exactly.

    Args:
        J: the reference rectangle.
        epsilon: the epsilon used in the A bound; defaults to 1 - m/n.
        seed: seeds a fresh generator when rng is not given.
        config: process knobs; defaults to ProcessConfig().

    Returns:
        ProcessOutcome; kind "success" carries a verified mate, "gamma_exit"
        the violated inequalities, "infeasible_row" the failing step and a
        reason (flow infeasible at eta_max, dead symbol, or degenerate
        survival probability).
    """
    config = config or ProcessConfig()
    shape = J.shape
    m, n = shape.m, shape.n
    if epsilon is None:
        epsilon = shape.epsilon
    check_arithmetic(n, config)
    exact = config.arithmetic == "exact"
    if rng is None:
        rng = np.random.default_rng(seed)

    recorder = None
    if config.record_trajectory:
        from .diagnostics import TrajectoryRecorder

        recorder = TrajectoryRecorder(J, tracked_lines=config.tracked_lines)

    state = init_state(shape, exact=exact)
    grid = np.zeros((m, n), dtype=np.int64)
    etas = []
    outcome = None

    for t in range(m):
        report = check_gamma(state, epsilon, config.gamma_a_coeff,
                             config.gamma_b_slack, config.gamma_c_slack)
        if not report.good:
            state.stopped_at = t
            outcome = ProcessOutcome(kind="gamma_exit", time=t,
                                     gamma_report=report)
            break
        try:
            d = normalize_row(state, t)
        except DeadSymbol as exc:
            state.stopped_at = t
            outcome = ProcessOutcome(kind="infeasible_row", time=t,
                                     detail=f"dead_symbol: {exc}")
            break
        try:
            q, eta_used = build_fractional_matching(
                d, eta_policy=config.eta_policy,
                eta_initial=config.eta_initial, eta_max=config.eta_max)
        except Infeasible as exc:
            state.stopped_at = t
            outcome = ProcessOutcome(kind="infeasible_row", time=t,
                                     detail=f"flow_infeasible: {exc}")
            break
        etas.append(eta_used)
        L_row = sample_matching_lazy(q, rng)
        grid[t] = L_row
        try:
            after = advance_state(state, q, L_row, J)
        except DegenerateDenominator as exc:
            state.stopped_at = t
            outcome = ProcessOutcome(kind="infeasible_row", time=t,
                                     detail=f"degenerate_denominator: {exc}")
            break
        if recorder is not None:
            recorder.record_step(state, q, L_row, after, eta_used=eta_used)
        after.transition = None  # as large as p[t + 1:]; do not carry it on
        state = after

    if outcome is None:
        L = LatinRectangle(shape, grid)
        if not (verify_latin(L).ok and verify_orthogonal(L, J).ok):
            raise OrthomateError(
                "internal error: constructed rectangle failed verification")
        outcome = ProcessOutcome(kind="success", rectangle=L)

    outcome.eta_used = tuple(etas)
    outcome.final_state = state
    if recorder is not None:
        outcome.trajectory = recorder.stats
    return outcome
