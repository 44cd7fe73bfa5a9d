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
    verify_orthogonal,
)
from .matching import (
    DeadSymbol,
    Infeasible,
    build_fractional_matching,
    normalize_row,
    sample_matching_lazy,
)

EXACT_MAX_N = 12

#: a float survival probability at or below this is degenerate
DEN_TOL = 1e-12

#: relative margin of check_gamma's Cauchy-Schwarz screen of C.  With u =
#: 2^-53 and gamma_n = n u / (1 - n u), each of the n-term sums of
#: nonnegative products is computed within a factor 1 +- gamma_n of its
#: value (the two squared norms and the pair sum), and the norm product
#: and c_bound^2 (1 - margin) add a few u more.  A skipped row then has
#: computed pair sums at most c_bound sqrt((1 - margin) (1 + gamma_n)^2
#: (1 + 4u) / ((1 - gamma_n)^2 (1 - u))), which is at most c_bound while
#: the margin exceeds about 4 (n + 2) u: 1e-9 covers every n below 2 * 10^6,
#: far past any state that fits in memory (p alone is n^2 m floats).
C_SCREEN_MARGIN = 1e-9


class RowAlreadyColoured(OrthomateError):
    """Projection requested for a point whose row is already placed."""


class DegenerateDenominator(OrthomateError):
    """Survival probability <= 0 for a surviving point; process failure."""


#: the detail prefix of an infeasible_row outcome, by the exception that
#: stopped the row
ROW_FAILURES = {
    DeadSymbol: "dead_symbol",
    Infeasible: "flow_infeasible",
    DegenerateDenominator: "degenerate_denominator",
}


def _is_number(value) -> bool:
    """A real number and not a bool: JSON true/false must not pass as 1/0."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class ProcessConfig:
    """Knobs of the guided process; serializable as JSON.

    Raises:
        ValueError: a field holds a value outside its documented range.
    """

    arithmetic: str = "float64"  # or "exact" (Fractions, n <= 12)
    record_trajectory: bool = True

    def __post_init__(self):
        if self.arithmetic not in ("float64", "exact"):
            raise ValueError(f"arithmetic must be one of float64, exact; "
                             f"got {self.arithmetic!r}")
        if not isinstance(self.record_trajectory, bool):
            raise ValueError(f"record_trajectory must be true or false; "
                             f"got {self.record_trajectory!r}")

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
    """Killed symbols and survival probabilities 1 - q(rho_cs) - q(rho_ds)
    of the rows > t, as advance_state computed them placing row t.

    killed[i, k] holds the two symbols that die in cell (t + 1 + i, k).
    They differ: the two projections lie in different columns of row t
    (see central_projections), and the placed row is a permutation.
    """

    t: int
    killed: np.ndarray  # (m - t - 1, n, 2) int64
    den: np.ndarray  # (m - t - 1, n, n), dtype of 1 - q; degenerate kept


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
    if not (_is_number(epsilon) and 0 <= epsilon < math.inf):
        raise ValueError(f"epsilon must be a finite number >= 0; "
                         f"got {epsilon!r}")
    return epsilon


def check_arithmetic(n: int, config: ProcessConfig) -> None:
    """ValueError when config asks for exact arithmetic at an order n above
    EXACT_MAX_N; callers run it before they open outputs or fork workers."""
    if config.arithmetic == "exact" and n > EXACT_MAX_N:
        raise ValueError(f"exact arithmetic supported for n <= {EXACT_MAX_N}")


def gamma_bounds(n: int, epsilon: float):
    """(A upper bound, B low, B high, C upper bound) for the goodness region;
    where eps^2 n leaves the float range, A's bound is its float limit."""
    check_epsilon(epsilon)
    log_term = math.log(n) / math.sqrt(n) if n > 1 else 0.0
    try:
        a_bound = 1.1 / (epsilon ** 2 * n)
    except ZeroDivisionError:  # eps = 0 or eps^2 n rounds to 0: A is off
        a_bound = math.inf
    except OverflowError:  # eps^2 overflows: every point with p > 0 fails A
        a_bound = 0.0
    return a_bound, 1.0 - log_term, 1.0 + log_term, (1.0 + log_term) / n


def pair_sums(row: np.ndarray) -> np.ndarray:
    """The pair sums G[k, l] = sum_g p(k, g) p(l, g) of one float64 (n, n)
    row of p, zero where k = l.  numpy sends the product to BLAS syrk."""
    gram = row @ row.T
    idx = np.arange(row.shape[0])
    gram[idx, idx] = 0.0
    return gram


def uncoloured_rows(state: GuidanceState) -> np.ndarray:
    """The rows >= t of p as float64, the rows check_gamma constrains."""
    sub = state.p[state.t:]
    return sub.astype(np.float64) if state.exact else sub


def check_gamma(state: GuidanceState, epsilon: float) -> GammaReport:
    """Evaluate the three goodness families and report every violation.

    All three are checked on uncoloured rows only (>= t).  A coloured row
    was checked for A while it was still uncoloured and is frozen since, so
    checking it again could not find anything new.

    C is screened by Cauchy-Schwarz: G[i, k, l] <= |p_ik| |p_il|, so row i
    cannot break C when the product of its two largest squared line norms
    sum_g p(i, k, g)^2 is at most c_bound^2.  The row is skipped only when
    that product is at most c_bound^2 (1 - C_SCREEN_MARGIN), which leaves
    room for the rounding of the norms, the product and the row's pair
    sums.  A kept row's pair sums are pair_sums(p_i).  numpy sends the
    one-row and the batched product alike to BLAS syrk, so the report
    equals the one from the dense (rows, n, n) Gram tensor.
    """
    n, t = state.shape.n, state.t
    a_bound, b_lo, b_hi, c_bound = gamma_bounds(n, epsilon)
    sub = uncoloured_rows(state)
    rc, rs = sub.sum(axis=2), sub.sum(axis=1)
    violations = []

    # the max first: the (rows, n, n) mask is built only when A fails
    if a_bound != math.inf and sub.size and sub.max() > a_bound:
        for i_off, k, g in np.argwhere(sub > a_bound):
            lhs = float(sub[i_off, k, g])
            violations.append(GammaViolation(
                "A_x", (int(i_off) + t, int(k), int(g)), lhs,
                (None, a_bound), lhs - a_bound))

    for cls, sums in (("RC", rc), ("RS", rs)):
        bad = (sums < b_lo) | (sums > b_hi)
        if bad.any():
            for i_off, j in np.argwhere(bad):
                lhs = float(sums[i_off, j])
                margin = max(b_lo - lhs, lhs - b_hi)
                violations.append(GammaViolation(
                    "B_line", (cls, int(i_off) + t, int(j)), lhs,
                    (b_lo, b_hi), margin))

    # C has no pair k != l below n = 2, and no row to check at t = m
    if n < 2 or not sub.shape[0]:
        return GammaReport(not violations, tuple(violations))
    sq = np.einsum("rkg,rkg->rk", sub, sub)
    top2 = np.partition(sq, n - 2, axis=1)[:, n - 2:]
    screen = c_bound * c_bound * (1.0 - C_SCREEN_MARGIN)
    for r in np.flatnonzero(top2[:, 0] * top2[:, 1] > screen):
        block = pair_sums(sub[r])
        bad = block > c_bound
        if bad.any():
            for k, l in np.argwhere(bad):
                lhs = float(block[k, l])
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
              shape: Shape) -> np.ndarray:
    """(m, n, n) bool kill indicators induced by placing L_row at row t.

    A point x in a later row dies iff the placed row occupies the point of
    x's column/symbol line or of x's diagonal/symbol line on row t.  Per
    local line of a later row this kills at most 2 points; rows <= t are
    all False.  The dense form of Transition.killed, kept as its oracle.
    """
    m, n = shape.m, shape.n
    L_row = np.asarray(L_row, dtype=np.int64)
    killed = np.zeros((m, n, n), dtype=bool)
    if t + 1 < m:
        i, k = np.ogrid[t + 1:m, :n]
        killed[i, k, L_row[k]] = True
        killed[i, k, L_row[diag_column_map(J, t, t + 1)]] = True
    return killed


def _later_kills(L_row: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """The two killed symbols of each cell of the rows whose diagonal
    column map is k2, as an (rows, n, 2) int64 array.

    Point (i, k, g) dies iff g = L_row[k] (its column/symbol line meets the
    placed cell (t, k)) or g = L_row[k2[i, k]] (its diagonal/symbol line
    meets the placed cell on its diagonal).
    """
    L_row = np.asarray(L_row, dtype=np.int64)
    killed = np.empty(k2.shape + (2,), dtype=np.int64)
    killed[:, :, 0] = L_row
    killed[:, :, 1] = L_row[k2]
    return killed


def advance_state(state: GuidanceState, q, L_row: np.ndarray,
                  J: LatinRectangle) -> GuidanceState:
    """One transition of the state under the placed row.

    Surviving points in uncoloured rows are divided by their survival
    probability 1 - q(rho_cs) - q(rho_ds); killed points drop to zero;
    coloured rows stay frozen and are copied as they are.  Survivors can
    only grow, since the divisor never exceeds 1.  A point with zero mass
    stays at zero whatever its survival probability.  The new state
    carries the killed symbols and survival probabilities as its
    Transition.

    The same code runs on float64 and on Fraction states; DEN_TOL applies
    to floats, Fractions are degenerate only at survival probability <= 0.

    Raises:
        DegenerateDenominator: a surviving point has survival probability
            <= DEN_TOL (<= 0 for Fractions) under q, i.e. q places mass
            >= 1 - DEN_TOL (>= 1) on its two projections.
    """
    if state.stopped_at is not None:
        raise ValueError("cannot advance a stopped state")
    t = state.t
    m = state.shape.m
    if t >= m:
        raise ValueError(f"no row left to place at t={t}")
    p = state.p
    new_p = np.empty_like(p)
    new_p[:t + 1] = p[:t + 1]
    one = Fraction(1) if state.exact else 1.0
    tol = 0 if state.exact else DEN_TOL
    k2 = diag_column_map(J, t, t + 1)
    killed = _later_kills(L_row, k2)
    p_sub = p[t + 1:]
    # den is built in the gathered copy of q; it takes the dtype of 1 - q,
    # so an integer q (a permutation matrix) still divides as floats
    one_minus_q = one - q
    den = q[k2, :].astype(one_minus_q.dtype, copy=False)
    np.subtract(one_minus_q, den, out=den)
    # the points with den <= tol, looked for only when some den is that low
    # (or nan); divide by one there, so that a zero stays +0 instead of
    # turning into -0 or nan; den keeps the raw values for the recorder's
    # martingale residual
    low = None if den.min(initial=math.inf) > tol else den <= tol
    divisor = den if low is None else np.where(low, one, den)
    new_sub = new_p[t + 1:]
    np.divide(p_sub, divisor, out=new_sub)
    np.put_along_axis(new_sub, killed, 0 * one, axis=2)
    if low is not None:
        # a low point is fine if it was killed or has p = 0; it kept p
        # there, so what is still positive is a survivor
        degenerate = low & (new_sub > 0)
        if degenerate.any():
            i, k, g = np.argwhere(degenerate)[0]
            raise DegenerateDenominator(
                f"surviving point ({int(i) + t + 1}, {int(k)}, {int(g)}) "
                f"has survival probability {float(den[i, k, g]):.3e}"
            )
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
                seed: int = 0, config: Optional[ProcessConfig] = None
                ) -> ProcessOutcome:
    """Run the full guided construction of an orthogonal mate for J.

    All randomness is drawn from one generator seeded with seed, in a
    fixed order: one uniform per row for the Birkhoff coefficient sampling.
    Identical (J, epsilon, seed, config) reproduce the outcome exactly.

    Args:
        J: the reference rectangle.
        epsilon: the epsilon used in the A bound; defaults to 1 - m/n.
        seed: seeds the run's generator.
        config: process knobs; defaults to ProcessConfig().

    Returns:
        ProcessOutcome; kind "success" carries a verified mate, "gamma_exit"
        the violated inequalities, "infeasible_row" the failing step and a
        reason (flow infeasible at ETA_MAX, dead symbol, or degenerate
        survival probability; see ROW_FAILURES).
    """
    config = config or ProcessConfig()
    shape = J.shape
    m, n = shape.m, shape.n
    if epsilon is None:
        epsilon = shape.epsilon
    check_arithmetic(n, config)
    exact = config.arithmetic == "exact"
    rng = np.random.default_rng(seed)

    recorder = None
    if config.record_trajectory:
        from .diagnostics import TrajectoryRecorder

        recorder = TrajectoryRecorder(J)

    state = init_state(shape, exact=exact)
    grid = np.zeros((m, n), dtype=np.int64)
    etas = []
    outcome = None

    for t in range(m):
        report = check_gamma(state, epsilon)
        if not report.good:
            outcome = ProcessOutcome(kind="gamma_exit", time=t,
                                     gamma_report=report)
            break
        try:
            d = normalize_row(state, t)
            q, eta_used = build_fractional_matching(d)
            etas.append(eta_used)
            L_row = sample_matching_lazy(q, rng)
            after = advance_state(state, q, L_row, J)
        except tuple(ROW_FAILURES) as exc:
            outcome = ProcessOutcome(
                kind="infeasible_row", time=t,
                detail=f"{ROW_FAILURES[type(exc)]}: {exc}")
            break
        grid[t] = L_row
        if recorder is not None:
            recorder.record_step(state, q, L_row, after, eta_used=eta_used)
        after.transition = None  # as large as p[t + 1:]; do not carry it on
        state = after

    if outcome is None:
        L = LatinRectangle(shape, grid)
        if not verify_orthogonal(L, J).ok:
            raise OrthomateError(
                "internal error: constructed rectangle failed verification")
        outcome = ProcessOutcome(kind="success", rectangle=L)
    else:
        state.stopped_at = outcome.time

    outcome.eta_used = tuple(etas)
    outcome.final_state = state
    if recorder is not None:
        outcome.trajectory = recorder.stats
    return outcome
