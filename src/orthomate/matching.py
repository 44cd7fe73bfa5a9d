"""Fractional matchings on a row: normalization, flow construction, Birkhoff.

Given the guidance state restricted to one row, the pipeline is:

  normalize_row   -> per-symbol normalized weights d with sum_k d(k, g) = 1
  build_fractional_matching
                  -> doubly stochastic q with q <= (1 + eta) * d, found as a
                     max flow with middle capacities (1 + eta) * d(k, g);
                     eta starts at 4 * sqrt(log n / sqrt n) and doubles until
                     the flow saturates or ETA_MAX is reached, then a short
                     balance search lowers the cap ratio.  Every feasibility
                     question, the schedule's and the search's, goes to one
                     oracle that asks the row's maxflow.RowCertificates
                     first where they apply (a cut, or a Sinkhorn scaling of
                     d as the witness, shrunk once per row), so a row costs
                     about one flow solve: the final one
  birkhoff_terms  -> express q as a convex combination of permutations by a
                     threshold-greedy elimination walk on one support graph
                     per threshold level, pruned of each term's spent edges;
                     sample_matching_lazy stops at the term a uniform draw
                     selects, in float and in Fraction arithmetic
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .core import OrthomateError
from . import maxflow
from .bipartite import SupportGraph, perfect_matching_scipy

#: instance size above which the float flow path uses the scipy solver
SCIPY_FLOW_MIN_N = 24

#: entries below this are truncated to zero before decompositions
ZERO_TOL = 1e-12

#: flow feasibility tolerance: a float max flow within it of n is feasible
FEAS_TOL = 1e-9

#: Sinkhorn-Knopp iterations spent on one row's feasibility witness
SINKHORN_MAX_ITER = 60

#: last and largest eta of the schedule; Infeasible beyond it
ETA_MAX = 64.0


class DeadSymbol(OrthomateError):
    """A symbol with zero total mass on the row; a fatal B-line breakdown."""


class Infeasible(OrthomateError):
    """No fractional matching under the capacity bound at ETA_MAX."""


class NoSupportMatching(OrthomateError):
    """Support of a nominally doubly stochastic matrix violates Hall."""


def normalize_row(state, row: int) -> np.ndarray:
    """Per-symbol normalization of the state restricted to one row: the
    (column, symbol) weights d, each symbol summing to 1.

    Raises:
        DeadSymbol: some symbol has zero total mass on the row.
    """
    if row < state.t:
        raise ValueError(f"row {row} already coloured at time {state.t}")
    p_row = state.p[row]
    totals = p_row.sum(axis=0)
    dead = [g for g in range(p_row.shape[1]) if not totals[g] > 0]
    if dead:
        raise DeadSymbol(f"row {row}: symbols {dead} have zero mass")
    return p_row / totals[None, :]


def default_eta_initial(n: int) -> float:
    """4 * sqrt(log n / sqrt n); zero at n = 1."""
    if n <= 1:
        return 0.0
    return 4.0 * math.sqrt(math.log(n) / math.sqrt(n))


def eta_schedule(n: int):
    """The sequence of eta values tried by build_fractional_matching:
    default_eta_initial(n), doubling up to ETA_MAX."""
    etas = [min(default_eta_initial(n), ETA_MAX)]
    while etas[-1] < ETA_MAX:
        nxt = etas[-1] * 2 if etas[-1] > 0 else 0.25
        etas.append(min(nxt, ETA_MAX))
    return etas


def sinkhorn_witness(w) -> Optional[np.ndarray]:
    """diag(x) w diag(y) by Sinkhorn-Knopp scaling, or None.

    w is a float (column, symbol) array whose symbol sums are 1.  The
    iteration alternately rescales the columns' and the symbols' sums to 1
    (Sinkhorn and Knopp, Pacific J. Math. 21, 1967) and stops once every
    column sum is within 4 eps of 1 or after SINKHORN_MAX_ITER rounds.  The
    result is only a witness for maxflow.RowCertificates, which checks
    it; it is not a certified matching by itself.  None when a line
    of w has no mass.
    """
    tol = 4 * np.finfo(np.float64).eps
    y = np.ones(w.shape[1])
    wy = w.sum(axis=1)
    for _ in range(SINKHORN_MAX_ITER):
        if not (wy > 0).all():
            return None
        x = 1.0 / wy
        xw = x @ w
        if not (xw > 0).all():
            return None
        y = 1.0 / xw
        wy = w @ y
        if np.abs(x * wy - 1).max() <= tol:
            break
    return x[:, None] * w * y[None, :]


def _scale_caps(w, factor):
    if np.asarray(w).dtype == object:
        f = factor if isinstance(factor, Fraction) else Fraction(factor)
        return np.asarray(w) * f
    return np.asarray(w, dtype=np.float64) * float(factor)


def _scipy_solves(w) -> bool:
    """The one solver rule: scipy for float rows with n >= SCIPY_FLOW_MIN_N,
    the pure solver for smaller float rows and for Fraction rows.  The
    certificates of build_fractional_matching prove scipy's verdict, so
    they are asked exactly where this holds."""
    return w.dtype != object and w.shape[0] >= SCIPY_FLOW_MIN_N


def solve_fixed_eta(d, eta) -> Optional[np.ndarray]:
    """One feasibility solve: q <= (1 + eta) * d doubly stochastic, or None.

    The max flow under middle capacities (1 + eta) * d, solved by the
    solver _scipy_solves picks.  Ambiguous scipy verdicts (within the
    integer rounding band) re-solve with the pure solver.  Fraction weights
    solve exactly in Fractions.
    """
    caps = _scale_caps(d, 1 + eta)
    n = caps.shape[0]
    if caps.dtype == object:
        value, flow = maxflow.solve_transport(caps.tolist(), one=Fraction(1),
                                              tol=0)
        if value == n:
            return np.array(flow, dtype=object)
        return None
    if _scipy_solves(caps):
        status, q = maxflow.scipy_transport(caps)
        if status == "feasible":
            return q
        if status == "infeasible":
            return None
        # ambiguous: fall through to the exact float solver
    value, flow = maxflow.solve_transport(caps.tolist(), one=1.0,
                                          tol=maxflow.AUGMENT_TOL)
    if n - value <= FEAS_TOL:
        return np.array(flow, dtype=np.float64)
    return None


def build_fractional_matching(d) -> Tuple[np.ndarray, float]:
    """Construct q <= (1 + eta) * d doubly stochastic, escalating eta.

    The eta schedule (eta_schedule) finds a feasible level; among the max
    flows under the cap, the returned q is additionally balanced: a short
    binary search finds (nearly) the smallest ratio beta with a flow
    q <= beta * d and returns that flow.  An unbalanced max flow may pile
    mass at the capacity ceiling on a few entries, which needlessly
    inflates the growth of the guided state at finite n; balancing also
    makes q = d whenever d is itself doubly stochastic.

    The search tries beta = 1, then 1 + log n / sqrt n, then up to four
    bisection points.  The schedule and the search put every "is there a
    flow under beta * d?" to one oracle.  Where scipy solves the row
    (_scipy_solves) it asks the row's maxflow.RowCertificates first, which
    prove the verdict the solve would give by a cut or by the row's
    Sinkhorn witness; both the witness (sinkhorn_witness) and its half of
    the certificate that no beta changes are taken once per row.  A
    question neither settles, and every question the pure solver answers,
    is solved by solve_fixed_eta and its flow kept.  The flow is then solved once at
    the final beta, unless that point was solved already, so q and
    eta_used are bit for bit those of solving every point.

    Returns:
        (q, eta_used): q is an (n, n) array with all line sums 1, and
        1 + eta_used its certified entrywise cap ratio (eta_used is at most
        the schedule value that proved feasibility).

    Raises:
        Infeasible: max flow below n even at ETA_MAX.
        OrthomateError: the final solve found no flow at a ratio a
            certificate proved feasible (an internal error, never hidden).
    """
    w = np.asarray(d)
    n = w.shape[0]
    certificates = (maxflow.RowCertificates(w, sinkhorn_witness(w))
                    if _scipy_solves(w) else None)
    solved = {}  # ratio - 1 -> the solved flow, None when infeasible

    def feasible(x):
        if x in solved:
            return solved[x] is not None
        if certificates is not None:
            status = certificates.status(1 + x)
            if status is not None:
                return status == "feasible"
        solved[x] = solve_fixed_eta(w, x)
        return solved[x] is not None

    eta = next((x for x in eta_schedule(n) if feasible(x)), None)
    if eta is None:
        raise Infeasible(
            f"no fractional matching within (1+eta)*d for eta up to {ETA_MAX:g}"
        )

    # balance: smallest feasible cap ratio, tried tight-first
    log_term = math.log(n) / math.sqrt(n) if n > 1 else 0.0
    lo, hi = 0.0, float(eta)  # lo infeasible, hi feasible
    if feasible(0.0):
        hi = 0.0
    else:
        natural = min(log_term, hi)
        if natural > lo:
            if feasible(natural):
                hi = natural
            else:
                lo = natural
        for _ in range(4):
            if hi - lo <= 0.05 * max(hi, 1e-9):
                break
            mid = (lo + hi) / 2
            if feasible(mid):
                hi = mid
            else:
                lo = mid
    if hi not in solved:
        solved[hi] = solve_fixed_eta(w, hi)
        if solved[hi] is None:
            raise OrthomateError(
                f"internal: ratio 1 + {hi!r} was certified feasible but the "
                "flow solve found none")
    return solved[hi], hi


def birkhoff_terms(q):
    """Yield the (coefficient, permutation) terms of a Birkhoff decomposition.

    The elimination walk behind sample_matching_lazy.  Each term is a
    perfect matching on the entries at or above a halving threshold (the
    full positive support once the threshold passes the smallest entry), so
    early terms carry large coefficients; its coefficient is the smallest
    matched entry, which is then subtracted.  Support matchings come from scipy's Hopcroft-Karp
    (perfect_matching_scipy, looked up in this module at each call) at every
    n; it is deterministic, so the walk is reproducible.

    Each threshold level's support is built once, as a SupportGraph.  A
    term changes only its matched entries, and only lowers them, so after
    each term the walk deletes from the graph the matched edges that left
    the level (fell below the threshold, or to 0 on the full support);
    the graph stays the CSR of the level's mask rebuilt from scratch.  The
    matched entries are read and written through a flat view of the
    working copy, and when all of them leave the level, the usual case,
    the graph deletes them as one matching (SupportGraph.drop_matching).  A
    miss halves the threshold and builds the next level's graph.

    q may hold float64 or Fraction entries.  Entries below zero_tol, ZERO_TOL
    for floats and 0 for Fractions, are truncated to zero.
    The walk ends when the coefficients sum to 1 (within 1e-12 for floats)
    or, for floats, when no support matching is left and the residual mass
    is float dust below 1e-9.

    Raises:
        NoSupportMatching: the positive support has no perfect matching.
    """
    Q = np.array(q, copy=True, order="C")
    exact = Q.dtype == object
    if not exact:
        Q = Q.astype(np.float64, copy=False)
    zero_tol = 0 if exact else ZERO_TOL
    stop_tol, dust_tol = (0, 0) if exact else (1e-12, 1e-9)
    n = Q.shape[0]
    Q[Q < zero_tol] = 0
    flat = Q.reshape(-1)  # a view of the C-ordered copy
    base = np.arange(n) * n
    acc = 0
    walked = False
    theta = Q.max() / 2
    graph = None  # the support of the current threshold level
    for _ in range(n * n + 2 * n + 80):
        full = theta <= zero_tol
        if graph is None:
            graph = SupportGraph((Q > 0) if full else (Q >= theta))
        match = perfect_matching_scipy(graph)
        if match is None:
            if full:
                if walked and 1 - acc <= dust_tol:
                    return
                raise NoSupportMatching(
                    f"support violates Hall at residual mass {float(1 - acc):.3e}"
                )
            pos = Q[Q > 0]
            theta = theta / 2
            if pos.size == 0 or theta < pos.min():
                theta = 0  # next level is the full support
            graph = None
            continue
        entries = base + match
        matched = flat[entries]
        c = matched.min()
        acc += c
        walked = True
        yield c, match
        if 1 - acc <= stop_tol:
            return
        # only the matched entries change, so only they can fall below
        # zero_tol or leave the level; every other entry keeps its place
        matched -= c
        matched[matched < zero_tol] = 0
        flat[entries] = matched
        stay = (matched > 0) if full else (matched >= theta)
        if stay.any():
            gone = np.flatnonzero(~stay)
            graph.drop(gone, match[gone])
        else:
            graph.drop_matching(match)  # every matched edge leaves
    raise NoSupportMatching("Birkhoff walk failed to terminate")


def sample_matching_lazy(q, rng) -> np.ndarray:
    """Draw a permutation with the coefficients of q's Birkhoff terms as
    probabilities, without materializing all terms.

    Walks birkhoff_terms only up to the first term whose cumulative
    coefficient, summed in q's arithmetic, exceeds one uniform draw of rng,
    or to the last term when float dust leaves the sum at or below it.
    Each call walks the terms again.
    """
    u = rng.random()
    acc = 0
    for c, match in birkhoff_terms(q):
        acc += c
        if u < acc:
            return match
    return match
