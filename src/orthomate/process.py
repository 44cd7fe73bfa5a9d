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

The survival probabilities of a step are produced by survival_blocks, a
few rows at a time in one reused buffer, and the killed symbols by
later_kills, once per step: the transition hands a recorded run's blocks
to the trajectory recorder, and no step holds the probabilities for all
rows at once.  The transition also takes the line sums and row maxima of
each block of new rows right after dividing it, while the block is in
cache, and the new state carries them (GuidanceState.line_sums):
check_gamma reads B and A's maximum from them, and the trajectory recorder
its B statistics, so a step takes its line sums once.  run_process holds
one (m, n, n) array for the whole run: each step divides the rows > t of
p in place (advance_state with out=state.p), and a step that fails writes
nothing.  Each state also carries a per-row ceiling on its largest C
pair sum: init_state and check_gamma set it from pair sums they compute,
the transition multiplies it by the step's growth bound, and check_gamma
skips a row whose ceiling clears c_bound by the rounding margin
C_CEILING_MARGIN; it is the only screen of C.  The trajectory recorder
reads the ceiling nowhere and writes it nowhere, so a recorded run's
checks multiply the same rows as an unrecorded run's.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, asdict
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import LatinRectangle, OrthomateError, Shape, verify_orthogonal
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

#: survival_blocks gathers about this many survival probabilities per block
#: (at least one row), a few hundred kB of float64 that stay in cache
BLOCK_ENTRIES = 1 << 16

#: relative margin of the C ceiling (GuidanceState.c_ceiling).  The ceiling
#: of row i bounds the exact pair sums sum_g x(k, g) x(l, g) of x, the row
#: as the float64 array check_gamma reads (p itself, or each Fraction
#: rounded to nearest), so with u = 2^-53 and gamma_n = n u / (1 - n u):
#:   set:  a computed pair sum of n nonnegative terms is within 1 +- gamma_n
#:         of the exact one, in any summation order, with or without FMA,
#:         so M (1 + margin), rounded, bounds the exact sums of a row whose
#:         largest computed pair sum is M while the margin exceeds about
#:         (n + 1) u;
#:   grow: a survivor becomes x / d rounded once (a Fraction divides
#:         exactly and is rounded once, its x once before), d >= dmin =
#:         (1 - q_max) - q_max computed alike: rounding is monotone, so no
#:         computed survival probability of the step, killed or not, is
#:         below it; a killed point or a low one (which must have p = 0)
#:         becomes 0.  So every row's exact sums grow at most by
#:         (1 + u)^2 / ((1 - u)^2 dmin^2),
#:         and ceiling * (1 / dmin)^2 * (1 + margin), with its four
#:         roundings and the rounding of a Fraction's dmin, stays above
#:         them while the margin exceeds about 10 u; dmin <= 0 or nan makes
#:         the ceiling +inf;
#:   skip: a row with ceiling <= c_bound (1 - margin) has computed pair sums
#:         at most c_bound (1 - margin) (1 + 2u) (1 + gamma_n) <= c_bound
#:         while the margin exceeds about (n + 2) u.
#: The terms are nonnegative, as every state a transition makes is; a
#: product that underflows errs by at most 2^-1074 absolutely, far inside
#: the margin of c_bound >= 1/n.  So 1e-9 covers every n below 2 * 10^6,
#: far past any state that fits in memory (p alone is n^2 m floats),
#: whatever the BLAS kernel, and the report of a skipped row equals the one
#: its product would give.
C_CEILING_MARGIN = 1e-9


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
    """Knobs of the guided process; to_json is what CSV provenance prints.

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


@dataclass(frozen=True)
class LineSums:
    """The local line sums and row maxima of the rows >= t of a state, taken
    of the rows as float64 (p itself, or each Fraction rounded to nearest):
    rc[i - t, k] = sum_g p(i, k, g), rs[i - t, g] = sum_k p(i, k, g) and
    row_max[i - t] = max_{k, g} p(i, k, g).

    A reduction of each row alone gives the same bits as one over all rows,
    so sums taken a block of rows at a time equal those of all rows at once.
    """

    rc: np.ndarray
    rs: np.ndarray
    row_max: np.ndarray


@dataclass
class GuidanceState:
    """The vector p at time t, plus stopping bookkeeping.

    p has shape (m, n, n) indexed [row, col, sym].  Rows below t are frozen;
    entries killed at earlier times are exactly zero.  A point's colouring
    time is simply its row index: row i is placed at step t = i.

    c_ceiling is an (m,) float64 array: c_ceiling[i] is an upper bound on
    the largest pair sum of row i (see C_CEILING_MARGIN), +inf where none
    is known: everywhere in a state built by hand without one.  init_state
    and check_gamma set it from pair sums they compute, and advance_state
    carries it over to the next state.

    line_sums, when not None, holds the LineSums of the rows >= t, which
    advance_state takes as it writes them; check_gamma and the recorder
    read them there and take them from p only where a state carries none
    (init_state's, or one built by hand).

    Code that writes p of a state in place must reset the ceiling to +inf
    and set line_sums to None.  advance_state(state, ..., out=state.p)
    writes it too, and returns the state that owns the new p: the old
    state is consumed and is not used again.
    """

    shape: Shape
    t: int
    p: np.ndarray
    stopped_at: Optional[int] = None
    c_ceiling: Optional[np.ndarray] = None
    line_sums: Optional[LineSums] = None

    def __post_init__(self):
        if self.c_ceiling is None:
            self.c_ceiling = np.full(self.shape.m, math.inf)

    @property
    def exact(self) -> bool:
        return self.p.dtype == object


@dataclass(frozen=True)
class GammaViolation:
    ineq: str  # "A_x" | "B_line" | "C_ikl"
    location: tuple
    lhs: float
    margin: float  # amount by which the bound is exceeded (> 0)


@dataclass(frozen=True)
class GammaReport:
    good: bool
    violations: tuple = ()  # the first of each violated family, A, B, C
    counts: tuple = ()  # counts[i]: violations in violations[i]'s family


def init_state(shape: Shape, exact: bool = False) -> GuidanceState:
    """Uniform initial state p = 1/n everywhere; its rows are all alike, so
    one row's pair sums set the C ceiling of every row."""
    m, n = shape.m, shape.n
    if exact:
        p = np.full((m, n, n), Fraction(1, n), dtype=object)
    else:
        p = np.full((m, n, n), 1.0 / n)
    top = pair_sums(np.asarray(p[0], dtype=np.float64)).max()
    return GuidanceState(shape=shape, t=0, p=p, c_ceiling=np.full(
        m, float(top) * (1.0 + C_CEILING_MARGIN)))


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


def state_line_sums(state: GuidanceState, rows: Optional[np.ndarray] = None
                    ) -> LineSums:
    """The LineSums of state's rows >= t: the ones it carries, or else those
    of rows, its uncoloured_rows (taken here when not given)."""
    if state.line_sums is not None:
        return state.line_sums
    if rows is None:
        rows = uncoloured_rows(state)
    return LineSums(rows.sum(axis=2), rows.sum(axis=1), rows.max(axis=(1, 2)))


def check_gamma(state: GuidanceState, epsilon: float) -> GammaReport:
    """Check the three goodness families and report each violated one's count
    and first violation in row-major order, B's RC lines before its RS ones.

    All three are checked on uncoloured rows only (>= t).  A coloured row
    was checked for A while it was still uncoloured and is frozen since, so
    checking it again could not find anything new.

    B and the largest entry, which decides whether A needs its per-point
    pass, come from state_line_sums: the sums and row maxima the transition
    carries, or, on a state that carries none, taken here from p.  p itself
    is read only for the points that break A and for C.

    C is checked on the rows whose state.c_ceiling does not clear it: a
    row with a ceiling at most c_bound (1 - C_CEILING_MARGIN) cannot break
    C, as the margin leaves room for rounding.  Every other row's pair sums
    are pair_sums(p_i), and its ceiling becomes their maximum, inflated by
    C_CEILING_MARGIN.  numpy sends the one-row and the batched product alike
    to BLAS syrk, so the report equals the one from the dense (rows, n, n)
    Gram tensor, whose symmetry lets each pair count once, as k < l.
    """
    n, t = state.shape.n, state.t
    a_bound, b_lo, b_hi, c_bound = gamma_bounds(n, epsilon)
    sub = uncoloured_rows(state)
    sums = state_line_sums(state, sub)
    found = []  # (GammaViolation, count) of each violated family

    def add(ineq, count, bad, values, place, hi, lo=-math.inf):
        if count:  # the first violation: the first True of bad, at place
            first = np.unravel_index(np.argmax(bad), bad.shape)
            lhs = float(values[first])
            found.append((GammaViolation(ineq, place(*map(int, first)), lhs,
                                         max(lo - lhs, lhs - hi)), int(count)))

    # the max first: the (rows, n, n) mask is built only when A fails
    if (a_bound != math.inf and sums.row_max.size
            and sums.row_max.max() > a_bound):
        bad = sub > a_bound
        add("A_x", np.count_nonzero(bad), bad, sub,
            lambda i, k, g: (i + t, k, g), a_bound)

    lines = np.stack((sums.rc, sums.rs))  # every RC line, then every RS one
    bad = (lines < b_lo) | (lines > b_hi)
    add("B_line", np.count_nonzero(bad), bad, lines,
        lambda c, i, j: (("RC", "RS")[c], i + t, j), b_hi, b_lo)

    ceiling, c_count, c_first = state.c_ceiling, 0, None
    for r in np.flatnonzero(
            ~(ceiling[t:] <= c_bound * (1.0 - C_CEILING_MARGIN))):
        block = pair_sums(sub[r])
        ceiling[t + r] = float(block.max()) * (1.0 + C_CEILING_MARGIN)
        bad = block > c_bound
        if bad.any():
            bad = np.triu(bad, 1)
            c_count += np.count_nonzero(bad)
            c_first = c_first or (int(r) + t, bad, block)
    if c_first:
        i, bad, block = c_first
        add("C_ikl", c_count, bad, block, lambda k, l: (i, k, l), c_bound)

    return GammaReport(not found, *zip(*found))  # violations, counts


def _row_inverse(J: LatinRectangle, t: int) -> np.ndarray:
    """inv[s] = the column of symbol s in row t of J: row t of
    J.row_inverse(), in O(n)."""
    inv = np.empty(J.shape.n, dtype=np.int64)
    inv[J.grid[t]] = np.arange(J.shape.n)
    return inv


def diag_column_map(J: LatinRectangle, t: int, rows_from: int) -> np.ndarray:
    """k2[i - rows_from, k] = column where the diagonal of (i, k) meets row t."""
    return _row_inverse(J, t)[J.grid[rows_from:, :]]


def later_kills(L_row: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """The two killed symbols of each cell of the rows whose diagonal
    column map is k2, as an (rows, n, 2) int64 array.

    Point (i, k, g) dies iff g = L_row[k] (its column/symbol line meets the
    placed cell (t, k)) or g = L_row[k2[i, k]] (its diagonal/symbol line
    meets the placed cell on its diagonal).  The two symbols differ, as L_row
    is a permutation and k2[i, k] != k: J is column-injective, so the
    diagonal of (i, k), the cells holding J[i, k], meets row t in a column
    other than k.
    """
    L_row = np.asarray(L_row, dtype=np.int64)
    killed = np.empty(k2.shape + (2,), dtype=np.int64)
    killed[:, :, 0] = L_row
    killed[:, :, 1] = L_row[k2]
    return killed


def survival_blocks(q, k2: np.ndarray, one):
    """Yield (a, den) over consecutive blocks of the rows of k2, where
    den[i - a, k, g] = (1 - q[k, g]) - q[k2[i, k], g] is the survival
    probability 1 - q(rho_cs) - q(rho_ds) of the point (i, k, g) of the
    rows whose diagonal column map is k2 (one is 1 in q's arithmetic):
    rho_cs = (t, k, g) and rho_ds = (t, k2[i, k], g) are the points of the
    placed row t on its column/symbol and its diagonal/symbol line.

    den takes the dtype of 1 - q, so an integer q (a permutation matrix)
    still gives float probabilities; degenerate values are kept as they
    are.  Every block is written into one buffer of about BLOCK_ENTRIES
    entries, which the next block overwrites.
    """
    one_minus_q = one - q
    q = np.asarray(q).astype(one_minus_q.dtype, copy=False)
    rows, n = k2.shape
    step = max(1, BLOCK_ENTRIES // max(1, n * n))
    buf = np.empty((min(step, rows), n, n), dtype=one_minus_q.dtype)
    for a in range(0, rows, step):
        den = buf[:min(step, rows - a)]
        # k2 holds column indices of q, so no index needs mode="raise",
        # which would gather into a temporary copy of den first
        np.take(q, k2[a:a + len(den)], axis=0, out=den, mode="clip")
        np.subtract(one_minus_q, den, out=den)
        yield a, den


def _grown_ceiling(ceiling: np.ndarray, dmin) -> np.ndarray:
    """The C ceilings of rows whose survival probabilities are all at
    least dmin, after the transition: each times (1 / dmin)^2
    (1 + C_CEILING_MARGIN), and all +inf where dmin is <= 0 or nan or that
    factor overflows (a zero ceiling times +inf would be nan)."""
    dmin = np.float64(dmin)
    with np.errstate(over="ignore"):
        inv = 1.0 / dmin if dmin > 0 else math.inf
        grow = inv * inv * (1.0 + C_CEILING_MARGIN)
        if grow == math.inf:
            return np.full_like(ceiling, math.inf)
        return ceiling * grow


def advance_state(state: GuidanceState, q, L_row: np.ndarray,
                  J: LatinRectangle, out: Optional[np.ndarray] = None,
                  observe=None) -> GuidanceState:
    """One transition of the state under the placed row.

    Surviving points in uncoloured rows are divided by their survival
    probability 1 - q(rho_cs) - q(rho_ds) from survival_blocks; killed
    points drop to zero; coloured rows stay frozen.  Survivors can only
    grow, since the divisor never exceeds 1.  A point with zero mass stays
    at zero whatever its survival probability.  The killed symbols come
    from later_kills.  The new state carries the old state's C ceilings,
    those of the rows > t multiplied by the step's growth bound
    (see C_CEILING_MARGIN), and the LineSums of its rows > t: each block of
    new rows is summed right after it is written, while it is in cache,
    from the block itself on float states and from its float64 view on
    Fraction states, which is what uncoloured_rows gives check_gamma.

    out is None or state.p.  Without it the new p is a fresh array and
    state is left as it was.  With out=state.p the rows > t are divided in
    place, block by block, and rows <= t are not written: the new state
    shares p with state, which the step consumes (its carried sums and
    ceilings no longer describe p), so run_process holds a single (m, n, n)
    array.  Each new row depends only on its own old row, so both forms
    give the same p bit for bit.  A step that raises DegenerateDenominator
    writes nothing: unless dmin (below) already rules degenerate points
    out, every block is checked before any is written.

    observe, when given, is called once per block of survival
    probabilities, after the block is divided and its kills zeroed:
    observe(t, lo, old, new, den, k2, kills, all_positive) gets rows
    lo .. lo + len(den) - 1 of p and of the new p (as float64), their den,
    k2 and kill index, and whether every den is known to be > 0.  In place,
    old is a copy of the block taken before it is divided, in one
    block-sized buffer; that buffer and den are reused by the next block,
    so observe keeps nothing from the call
    (TrajectoryRecorder.observe_block).

    The same code runs on float64 and on Fraction states; DEN_TOL applies
    to floats, Fractions are degenerate only at survival probability <= 0.

    Raises:
        DegenerateDenominator: a surviving point has survival probability
            <= DEN_TOL (<= 0 for Fractions) under q, i.e. q places mass
            >= 1 - DEN_TOL (>= 1) on its two projections; the first such
            point in (row, column, symbol) order is named.
        ValueError: out is neither None nor state.p.
    """
    if state.stopped_at is not None:
        raise ValueError("cannot advance a stopped state")
    t = state.t
    m = state.shape.m
    if t >= m:
        raise ValueError(f"no row left to place at t={t}")
    p = state.p
    n = state.shape.n
    if out is None:
        out = np.empty_like(p)
        out[:t + 1] = p[:t + 1]
    elif out is not p:
        raise ValueError("out must be None or state.p")
    sums = LineSums(np.empty((m - t - 1, n)), np.empty((m - t - 1, n)),
                    np.empty(m - t - 1))
    one = Fraction(1) if state.exact else 1.0
    tol = 0 if state.exact else DEN_TOL
    k2 = diag_column_map(J, t, t + 1)
    killed = later_kills(L_row, k2)
    # rounding is monotone, so no computed den is below (1 - q_max) - q_max
    # computed alike: when that clears tol, no block needs its minimum, and
    # it bounds the growth of every row's C ceiling
    q_max = np.max(q)
    dmin = (one - q_max) - q_max
    all_clear = dmin > tol
    # row and column indices that pair with killed[a:b] to name its points
    i_idx = np.arange(m)[:, None, None]
    k_idx = np.arange(n)[None, :, None]

    def low_points(den):
        """den <= tol, or None when no den of the block is that low (or
        nan)."""
        if all_clear or den.min(initial=math.inf) > tol:
            return None
        return den <= tol

    if not all_clear:
        # a degenerate point is a low one that has p > 0 and is not killed
        for a, den in survival_blocks(q, k2, one):
            low = low_points(den)
            if low is None:
                continue
            lo = t + 1 + a
            survivor = p[lo:lo + len(den)] > 0
            survivor[i_idx[:len(den)], k_idx, killed[a:a + len(den)]] = False
            degenerate = low & survivor
            if degenerate.any():
                i, k, g = np.argwhere(degenerate)[0]
                raise DegenerateDenominator(
                    f"surviving point ({int(i) + lo}, {int(k)}, {int(g)}) "
                    f"has survival probability {float(den[i, k, g]):.3e}")
    held = None  # the old rows of the block observe gets, when out is p
    for a, den in survival_blocks(q, k2, one):
        lo, hi = t + 1 + a, t + 1 + a + len(den)
        new = out[lo:hi]
        kills = (i_idx[:len(den)], k_idx, killed[a:a + len(den)])
        old = p[lo:hi]
        if observe is not None and out is p:
            if held is None:
                held = np.empty_like(old)  # the first block is the largest
            old = held[:len(den)]
            old[...] = p[lo:hi]
        # divide by one at the low points (all killed or of zero mass, as
        # checked above), so that a zero stays +0 instead of turning into
        # -0 or nan
        low = low_points(den)
        np.divide(p[lo:hi], den if low is None else np.where(low, one, den),
                  out=new)
        new[kills] = 0 * one
        rows = new.astype(np.float64) if state.exact else new
        blk = slice(a, a + len(den))
        rows.sum(axis=2, out=sums.rc[blk])
        rows.sum(axis=1, out=sums.rs[blk])
        rows.max(axis=(1, 2), out=sums.row_max[blk])
        if observe is not None:
            observe(t, lo, old, rows, den, k2[blk], kills, low is None)
    ceiling = state.c_ceiling.copy()
    ceiling[t + 1:] = _grown_ceiling(ceiling[t + 1:], dmin)
    return GuidanceState(shape=state.shape, t=t + 1, p=out,
                         c_ceiling=ceiling, line_sums=sums)


@dataclass
class ProcessOutcome:
    """Result of one guided run.

    kind is "success", "gamma_exit" or "infeasible_row"; a gamma_exit's
    gamma_report holds each violated family's count and first violation,
    and the trajectory carries the per-step statistics when recording was
    enabled.
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
        the step and check_gamma's report (each violated family's count and
        first violation), "infeasible_row" the failing step and a
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

    recorder = observe = None
    if config.record_trajectory:
        from .diagnostics import TrajectoryRecorder

        recorder = TrajectoryRecorder(J)
        observe = recorder.observe_block

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
            if recorder is not None:
                recorder.before_step(state)
            # in place: state's p becomes after's, one (m, n, n) array for
            # the whole run; a step that fails leaves it as it was
            after = advance_state(state, q, L_row, J, out=state.p,
                                  observe=observe)
        except tuple(ROW_FAILURES) as exc:
            outcome = ProcessOutcome(
                kind="infeasible_row", time=t,
                detail=f"{ROW_FAILURES[type(exc)]}: {exc}")
            break
        grid[t] = L_row
        if recorder is not None:
            recorder.record_step(state, q, L_row, after, eta_used=eta_used)
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
