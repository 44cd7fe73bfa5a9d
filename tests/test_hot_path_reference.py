"""The per-row hot path against straightforward reference implementations.

Each reference below is the plain dense version of a function the guided
loop calls on every row: the support matching through
``scipy.sparse.csr_matrix(mask)``, the Birkhoff walk that truncates the
whole matrix after every term, the state transition that builds the full
kill mask and divides the whole state, the Gamma check that scans every
row for A, the trajectory recorder that evaluates each record with its
own masks and gathers, and the balance search that solves a max flow at
every ratio it tries.  The package versions do less work and must agree
with them bit for bit on seeded random inputs, including the failure cases.
hall_greedy, which shares the support matcher, is checked against a replay
of its rng draws matched through ``csr_matrix`` too.
"""

from __future__ import annotations

import hashlib
import math
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from orthomate import (
    DegenerateDenominator,
    GammaReport,
    GammaViolation,
    GuidanceState,
    ProcessConfig,
    Shape,
    StepRecord,
    TrajectoryRecorder,
    advance_state,
    build_fractional_matching,
    check_gamma,
    init_state,
    normalize_row,
    run_process,
    sample_matching_lazy,
    verify_orthogonal,
)
from orthomate import diagnostics, matching, maxflow, process
from orthomate.baselines import hall_greedy
from orthomate.bipartite import SupportGraph, perfect_matching_scipy
from orthomate.matching import (
    ZERO_TOL,
    Infeasible,
    NoSupportMatching,
    birkhoff_terms,
    eta_schedule,
    solve_fixed_eta,
)
from orthomate.process import gamma_bounds

from conftest import random_rect, survival
from oracles import build_legality_graph, kill_mask


# --------------------------------------------------------------- references

def matching_reference(mask):
    import scipy.sparse as sp
    from scipy.sparse.csgraph import maximum_bipartite_matching

    match = maximum_bipartite_matching(sp.csr_matrix(mask), perm_type="column")
    if (match < 0).any():
        return None
    return match.astype(np.int64)


def birkhoff_reference(Q, zero_tol):
    """The Birkhoff walk with a dense support pass and truncation per term."""
    Q = np.array(Q, dtype=np.float64)
    n = Q.shape[0]
    Q[Q < zero_tol] = 0
    cols = np.arange(n)
    acc = 0
    walked = False
    theta = Q.max() / 2
    for _ in range(n * n + 2 * n + 80):
        support = Q > 0
        match = matching_reference(
            support if theta <= zero_tol else (Q >= theta))
        if match is None:
            if theta <= zero_tol:
                if walked and 1 - acc <= 1e-9:
                    return
                raise NoSupportMatching(
                    f"support violates Hall at residual mass {float(1 - acc):.3e}")
            pos = Q[support]
            theta = theta / 2
            if pos.size == 0 or theta < pos.min():
                theta = 0
            continue
        c = Q[cols, match].min()
        acc += c
        walked = True
        yield c, match
        if 1 - acc <= 1e-12:
            return
        Q[cols, match] -= c
        Q[Q < zero_tol] = 0
    raise NoSupportMatching("Birkhoff walk failed to terminate")


def balance_reference(w):
    """build_fractional_matching with a max-flow solve at every ratio."""
    n = w.shape[0]
    for eta in eta_schedule(n):
        q = solve_fixed_eta(w, eta)
        if q is not None:
            break
    if q is None:
        raise Infeasible("no fractional matching")
    if eta <= 0:
        return q, eta
    q_ds = solve_fixed_eta(w, 0.0)
    if q_ds is not None:
        return q_ds, 0.0
    log_term = math.log(n) / math.sqrt(n) if n > 1 else 0.0
    lo, hi = 0.0, float(eta)
    natural = min(log_term, hi)
    if natural > lo:
        q_nat = solve_fixed_eta(w, natural)
        if q_nat is not None:
            hi, q = natural, q_nat
        else:
            lo = natural
    for _ in range(4):
        if hi - lo <= 0.05 * max(hi, 1e-9):
            break
        mid = (lo + hi) / 2
        q_mid = solve_fixed_eta(w, mid)
        if q_mid is not None:
            hi, q = mid, q_mid
        else:
            lo = mid
    return q, hi


def advance_reference(state, q, L_row, J, den_tol=1e-12):
    t = state.t
    m, n = state.shape.m, state.shape.n
    exact = state.p.dtype == object
    positive = ((lambda a: np.vectorize(lambda v: v > 0)(a)) if exact
                else (lambda a: a > 0))
    new_p = state.p.copy()
    if t + 1 < m:
        L_row = np.asarray(L_row, dtype=np.int64)
        syms = np.arange(n)
        k2 = J.row_inverse()[t][J.grid[t + 1:, :]]
        mask = ((L_row[:, None] == syms[None, :])[None, :, :]
                | (L_row[k2][:, :, None] == syms[None, None, :]))
        one = Fraction(1) if exact else 1.0
        den = one - q[None, :, :] - q[k2, :]
        p_sub = state.p[t + 1:]
        alive = ~mask & positive(p_sub)
        if exact:
            degenerate = alive & np.vectorize(lambda v: v <= 0)(den)
        else:
            degenerate = alive & (den <= den_tol)
        if degenerate.any():
            i, k, g = np.argwhere(degenerate)[0]
            raise DegenerateDenominator(
                f"surviving point ({int(i) + t + 1}, {int(k)}, {int(g)}) "
                f"has survival probability {float(den[i, k, g]):.3e}")
        safe_den = np.where(mask | ~positive(den), one, den)
        new_p[t + 1:] = np.where(mask, 0 * one, p_sub / safe_den)
    return GuidanceState(shape=state.shape, t=t + 1, p=new_p)


def gamma_violations(state, epsilon):
    """Every Gamma violation of state, one object per violating point, line
    or pair (each C pair twice, as (k, l) and as (l, k)), in the order A, B,
    C and row-major within each: the oracle of check_gamma.  A is checked
    on every row, B and C on the rows >= t, C through the dense Gram
    tensor."""
    n, m, t = state.shape.n, state.shape.m, state.t
    a_bound, b_lo, b_hi, c_bound = gamma_bounds(n, epsilon)
    p = state.p if state.p.dtype != object else state.p.astype(np.float64)
    violations = []
    if a_bound != math.inf:
        for i, k, g in np.argwhere(p > a_bound):
            lhs = float(p[i, k, g])
            violations.append(GammaViolation(
                "A_x", (int(i), int(k), int(g)), lhs, lhs - a_bound))
    if t < m:
        sub = p[t:]
        for cls, sums in (("RC", sub.sum(axis=2)), ("RS", sub.sum(axis=1))):
            for i_off, j in np.argwhere((sums < b_lo) | (sums > b_hi)):
                lhs = float(sums[i_off, j])
                violations.append(GammaViolation(
                    "B_line", (cls, int(i_off) + t, int(j)), lhs,
                    max(b_lo - lhs, lhs - b_hi)))
        gram = sub @ sub.transpose(0, 2, 1)
        idx = np.arange(n)
        gram[:, idx, idx] = 0.0
        for r, k, l in np.argwhere(gram > c_bound):
            lhs = float(gram[r, k, l])
            violations.append(GammaViolation(
                "C_ikl", (int(r) + t, int(k), int(l)), lhs, lhs - c_bound))
    return tuple(violations)


def reduced(violations):
    """The GammaReport of a full list of violations: the first of each
    family, in the list's order, and each family's count, with a C pair
    counted once, as (r, k, l) with k < l."""
    firsts, counts = {}, {}
    for v in violations:
        if v.ineq == "C_ikl" and v.location[1] > v.location[2]:
            continue
        firsts.setdefault(v.ineq, v)
        counts[v.ineq] = counts.get(v.ineq, 0) + 1
    return GammaReport(not firsts, tuple(firsts.values()),
                       tuple(counts.values()))


def gamma_reference(state, epsilon, monitor=False):
    """The report check_gamma must give: gamma_violations reduced, without
    A on the frozen rows (< t).  A run that stops at its first violation
    never breaks A on a frozen row; one that goes on past it (monitor) may,
    and check_gamma does not look there."""
    full = gamma_violations(state, epsilon)
    frozen = [v.ineq == "A_x" and v.location[0] < state.t for v in full]
    assert monitor or not any(frozen)
    full = [v for v, f in zip(full, frozen) if not f]
    want = reduced(full)
    # a C pair is violated on both sides or on neither, and the full list's
    # first C violation is the report's, with k < l
    c_full = [v for v in full if v.ineq == "C_ikl"]
    c_want = [(v, c) for v, c in zip(want.violations, want.counts)
              if v.ineq == "C_ikl"]
    assert len(c_full) == 2 * sum(c for _, c in c_want)
    assert [v for v, _ in c_want] == c_full[:1]
    assert len(want.violations) <= 3
    return want


def fsum_pair_max(row):
    """The largest math.fsum of x(k, g) x(l, g) over every pair k < l of
    the row x, one pair at a time; 0.0 below n = 2."""
    n = row.shape[0]
    return max((math.fsum(row[k] * row[l]) for k in range(n)
                for l in range(k + 1, n)), default=0.0)


class RecorderReference(TrajectoryRecorder):
    """record_step with a mask, a gather or a fresh array per quantity:
    np.where chains for the martingale residual, boolean gathers for the
    growth ratio, line sums of pa and pb of its own, kills from the dense
    kill_mask of the placed row rather than later_kills, fresh kills from
    that mask, p_max over the rows >= t, a batched (rows, n, n) Gram tensor
    of the rows > t, c_max as the largest math.fsum of the products of
    every pair of row t + 1, the row placed next (fsum_pair_max), and one
    sampled C sum at a time."""

    def record_step(self, before, q_row, L_row, after, eta_used=math.nan):
        m = self.m
        t = before.t
        q = np.asarray(q_row, dtype=np.float64)
        p_before = np.asarray(before.p, dtype=np.float64)
        p_after = np.asarray(after.p, dtype=np.float64)
        L_row = np.asarray(L_row, dtype=np.int64)

        b_min = b_max = c_max = math.nan
        fresh_kills = 0
        mart_res, growth_max, b_dev_max = 0.0, 1.0, 0.0
        if t + 1 < m:
            pa = p_after[t + 1:]
            b_rc, b_rs = pa.sum(axis=2), pa.sum(axis=1)
            gram = pa @ pa.transpose(0, 2, 1)
            idx = np.arange(self.n)
            gram[:, idx, idx] = 0.0
            b_min = float(min(b_rc.min(), b_rs.min()))
            b_max = float(max(b_rc.max(), b_rs.max()))
            c_max = fsum_pair_max(pa[0])  # row t + 1, placed next
            killed = kill_mask(L_row, t, self.J, self.J.shape)[t + 1:]
            pb = p_before[t + 1:]
            fresh_kills = int((killed & (pb > 0)).sum())
            den = np.asarray(survival(q_row, self.J, t, before.exact),
                             dtype=np.float64)
            pos = den > 0
            survive_val = np.where(killed, pb / np.where(pos, den, 1.0), pa)
            resid = np.where(pos, np.abs(den * survive_val - pb), np.abs(pa))
            mart_res = float(resid.max())
            alive = ~killed & (pb > 0)
            if alive.any():
                growth_max = float((pa[alive] / pb[alive]).max())
            b_dev_max = float(max(
                np.abs(pa.sum(axis=2) - pb.sum(axis=2)).max(),
                np.abs(pa.sum(axis=1) - pb.sum(axis=1)).max(),
            ))
        p_max = float(p_after[t:].max())

        c_dev_max = self._tracked_c_deviation(p_before, p_after, q, t)
        rec = StepRecord(
            t=t, b_min=b_min, b_max=b_max, c_max=c_max, p_max=p_max,
            fresh_kills=fresh_kills, eta_used=float(eta_used),
            martingale_residual=mart_res, b_dev_max=b_dev_max,
            c_dev_max=c_dev_max, growth_max=growth_max,
        )
        self.stats.records.append(rec)
        return rec

    def _tracked_c_deviation(self, p_before, p_after, q, t):
        J = self.J
        stats = self.stats
        worst = 0.0
        inv_t = self.Jinv[t]
        for (i, k, l) in zip(*self.triples.tolist()):
            if i <= t or k == l:
                continue
            pk = p_before[i, k, :]
            pl = p_before[i, l, :]
            x_now = float((pk * pl).sum())
            x_next = float((p_after[i, k, :] * p_after[i, l, :]).sum())
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
            stats.drift_c_cumulative += (max(0.0, expected - x_now)
                                         / max(x_now, x0))
        return worst


# ------------------------------------------------------------------ helpers

def guided(n, m, seed, exact=False):
    """Yield (J, state, q, L_row) for each row of a guided run, in order."""
    J = random_rect(n, m, seed)
    state = init_state(J.shape, exact=exact)
    rng = np.random.default_rng(seed)
    while True:
        q, _ = build_fractional_matching(normalize_row(state, state.t))
        L_row = sample_matching_lazy(q, rng)
        yield J, state, q, L_row
        state = advance_state(state, q, L_row, J)


def evolved(n, m, steps, seed, exact=False):
    """(J, state after `steps` guided rows, q and L_row for the next row)."""
    return next(row for row in guided(n, m, seed, exact)
                if row[1].t == steps)


def same_array(a, b):
    if a.dtype == object:
        return (a.shape == b.shape
                and all(type(x) is type(y) and x == y
                        for x, y in zip(a.ravel(), b.ravel())))
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def outcome(fn, *args):
    try:
        return fn(*args)
    except DegenerateDenominator as exc:
        return f"raised: {exc}"


def copied(state):
    """state with its own copy of p and of the C ceilings, for a transition
    in place (out=p), which consumes the state it advances."""
    return GuidanceState(shape=state.shape, t=state.t, p=state.p.copy(),
                         c_ceiling=state.c_ceiling.copy(),
                         line_sums=state.line_sums)


def in_place(state, q, L_row, J, observe=None):
    """advance_state of a copy of state in place, as run_process runs it;
    state is left as it was."""
    own = copied(state)
    return advance_state(own, q, L_row, J, out=own.p, observe=observe)


def assert_same_advance(state, q, L_row, J):
    """advance_state, into a fresh array and in place, against
    advance_reference: the same p, or the same DegenerateDenominator with
    p left as it was."""
    want = outcome(advance_reference, state, q, L_row, J)
    own = copied(state)
    for got in (outcome(advance_state, state, q, L_row, J),
                outcome(lambda *a: advance_state(*a, out=own.p),
                        own, q, L_row, J)):
        if isinstance(want, str):
            assert got == want
            assert same_array(own.p, state.p)
        else:
            assert not isinstance(got, str), got
            assert got.t == want.t
            assert same_array(got.p, want.p)


# ----------------------------------------------------------------- matching

def random_masks(n, rng):
    """Masks of several densities, one with an empty row, one Hall violator."""
    masks = []
    for density in (0.02, 0.05, 0.15, 0.5, 0.95):
        masks.append(rng.random((n, n)) < density)
    # a permutation plus sparse noise: the shape Birkhoff supports take
    near = rng.random((n, n)) < 2.0 / n
    near[np.arange(n), rng.permutation(n)] = True
    masks.append(near)
    empty_row = near.copy()
    empty_row[rng.integers(n)] = False
    masks.append(empty_row)
    # three rows that reach only two columns: Hall fails, no row is empty
    hall = near.copy()
    rows = rng.choice(n, 3, replace=False)
    cols = rng.choice(n, 2, replace=False)
    hall[rows] = False
    hall[np.ix_(rows, cols)] = True
    masks.append(hall)
    return masks


def assert_same_matching(graph, mask):
    """The matcher on the graph's CSR equals its reference on the mask."""
    got, want = perfect_matching_scipy(graph), matching_reference(mask)
    if want is None:
        assert got is None
    else:
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


class TestMatchingReference:
    @pytest.mark.parametrize("n", [8, 12, 16, 64, 192])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_csr_matrix_matching(self, n, seed):
        rng = np.random.default_rng(1000 * n + seed)
        for mask in random_masks(n, rng):
            assert_same_matching(SupportGraph(mask), mask)

    @pytest.mark.parametrize("n", [8, 12, 16, 64, 192])
    def test_failure_cases_return_none(self, n):
        rng = np.random.default_rng(n)
        *_, empty_row, hall = random_masks(n, rng)
        for mask in (empty_row, hall, np.zeros((n, n), dtype=bool)):
            assert perfect_matching_scipy(SupportGraph(mask)) is None


def hall_greedy_reference(J, m, seed):
    """hall_greedy's rng draws, each row matched on the permuted legality
    mask through csr_matrix."""
    rng = np.random.default_rng(seed)
    n = J.shape.n
    grid = np.zeros((m, n), dtype=np.int64)
    for t in range(m):
        allowed = build_legality_graph(J, grid, t)
        sym_order = rng.permutation(n)
        col_order = rng.permutation(n)
        match = matching_reference(allowed[np.ix_(col_order, sym_order)])
        grid[t, col_order] = sym_order[match]
    return grid


class TestHallGreedyReference:
    @pytest.mark.parametrize("n", [8, 16, 64])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_reference(self, n, seed):
        m = n // 4
        J = random_rect(n, m, seed)
        mate = hall_greedy(J, m=m, rng=seed)
        assert np.array_equal(mate.grid, hall_greedy_reference(J, m, seed))
        assert verify_orthogonal(mate, J).ok


class TestSupportGraph:
    @pytest.mark.parametrize("n", [8, 16, 64, 192])
    @pytest.mark.parametrize("seed", range(3))
    def test_drops_equal_the_rebuilt_csr(self, n, seed):
        import scipy.sparse as sp

        rng = np.random.default_rng(7000 * n + seed)
        for mask in random_masks(n, rng):
            graph = SupportGraph(mask.copy())
            want = mask.copy()
            while want.any():
                # a random subset of the edges, in random order, several
                # per row at times; the first drop may delete nothing
                edges = np.flatnonzero(want)
                gone = rng.choice(edges, rng.integers(edges.size // 4 + 2),
                                  replace=False)
                rows, cols = np.divmod(gone, n)
                graph.drop(rows, cols)
                want[rows, cols] = False
                ref = sp.csr_matrix(want)
                assert np.array_equal(graph.csr.indptr, ref.indptr)
                assert np.array_equal(graph.csr.indices, ref.indices)
                assert_same_matching(graph, want)

    @pytest.mark.parametrize("n", [8, 16, 64, 192])
    @pytest.mark.parametrize("seed", range(3))
    def test_one_edge_from_every_row(self, n, seed):
        # the walk's usual term: every matched edge leaves the level, one
        # per row, through drop_matching and through drop naming every row
        # once, in random order
        import scipy.sparse as sp

        rng = np.random.default_rng(9000 * n + seed)
        for density in (0.1, 0.5, 0.95):
            mask = rng.random((n, n)) < density
            mask[np.arange(n), rng.permutation(n)] = True
            graphs = SupportGraph(mask), SupportGraph(mask)
            want = mask.copy()
            while want.any(axis=1).all():
                # a random edge of each row
                cols = np.where(want, rng.random((n, n)), -1).argmax(axis=1)
                graphs[0].drop_matching(cols)
                order = rng.permutation(n)
                graphs[1].drop(order, cols[order])
                want[np.arange(n), cols] = False
                ref = sp.csr_matrix(want)
                for graph in graphs:
                    assert np.array_equal(graph.csr.indptr, ref.indptr)
                    assert np.array_equal(graph.csr.indices, ref.indices)
            assert_same_matching(graphs[0], want)

    @pytest.mark.parametrize("n", [8, 16, 64, 192])
    @pytest.mark.parametrize("seed", range(3))
    def test_n_edges_from_a_repeated_row(self, n, seed):
        # as many edges as a matching has, but one row gives two and
        # another none: the row starts move by the rows actually named
        import scipy.sparse as sp

        rng = np.random.default_rng(11000 * n + seed)
        mask = rng.random((n, n)) < 0.6
        mask[np.arange(n), rng.permutation(n)] = True
        graph = SupportGraph(mask)
        want = mask.copy()
        rounds = 0
        while True:
            counts = want.sum(axis=1)
            twice = np.flatnonzero(counts >= 2)
            if twice.size == 0:
                break
            r = rng.choice(twice)
            empty = np.flatnonzero(counts == 0)
            if empty.size > 1 or (empty.size == 1 and empty[0] == r):
                break
            s = (empty[0] if empty.size
                 else rng.choice(np.setdiff1d(np.arange(n), [r])))
            others = [k for k in range(n) if k != s]
            first = {k: rng.choice(np.flatnonzero(want[k])) for k in others}
            second = rng.choice(np.setdiff1d(np.flatnonzero(want[r]),
                                             [first[r]]))
            rows = np.array(others + [r])
            cols = np.array([first[k] for k in others] + [second])
            order = rng.permutation(n)
            graph.drop(rows[order], cols[order])
            want[rows, cols] = False
            ref = sp.csr_matrix(want)
            assert np.array_equal(graph.csr.indptr, ref.indptr)
            assert np.array_equal(graph.csr.indices, ref.indices)
            rounds += 1
        assert rounds > 0
        assert_same_matching(graph, want)

    def test_keys_that_overflow_int32_are_refused(self):
        # a read-only view: the shape is refused before any edge is read
        mask = np.broadcast_to(False, (1 << 16, 1 << 16))
        with pytest.raises(ValueError, match="too large for int32 keys"):
            SupportGraph(mask)


# ------------------------------------------------------------ Birkhoff walk

def walk(terms):
    """Every term as (exact coefficient, matching), then the error if any."""
    out = []
    try:
        for c, match in terms:
            out.append((float(c).hex(), match.tolist()))
    except NoSupportMatching as exc:
        out.append(f"raised: {exc}")
    return out


class TestBirkhoffReference:
    @pytest.mark.parametrize("n", [8, 16, 40])
    @pytest.mark.parametrize("zero_tol", [1e-12, 1e-4, 1e-2])
    @pytest.mark.parametrize("seed", range(3))
    def test_terms_equal_dense_truncation_walk(self, monkeypatch, n,
                                               zero_tol, seed):
        # convex combinations whose coefficients span several magnitudes,
        # so residuals land below zero_tol and must be truncated the same
        monkeypatch.setattr(matching, "ZERO_TOL", zero_tol)
        rng = np.random.default_rng(seed)
        k = 3 * n
        coeff = rng.dirichlet(np.full(k, 0.3)) * np.logspace(0, -6, k)
        coeff /= coeff.sum()
        q = np.zeros((n, n))
        for c in coeff:
            q[np.arange(n), rng.permutation(n)] += c
        got = walk(birkhoff_terms(q))
        assert got == walk(birkhoff_reference(q, zero_tol))

    @pytest.mark.parametrize("n", [8, 40])
    def test_transposed_input(self, n):
        # the walk works on a flat view of its own C-ordered copy, so a
        # Fortran-ordered q walks as its contiguous copy does
        rng = np.random.default_rng(n)
        q = np.zeros((n, n))
        for c in rng.dirichlet(np.ones(2 * n)):
            q[np.arange(n), rng.permutation(n)] += c
        assert not q.T.flags.c_contiguous
        want = walk(birkhoff_terms(np.ascontiguousarray(q.T)))
        assert walk(birkhoff_terms(q.T)) == want
        assert want == walk(birkhoff_reference(q.T, ZERO_TOL))
        exact = np.array([[Fraction(int(x), 4) for x in row]
                          for row in np.eye(n, dtype=int)[::-1] * 4],
                         dtype=object)
        assert (walk(birkhoff_terms(exact.T))
                == walk(birkhoff_terms(np.ascontiguousarray(exact.T))))

    @pytest.mark.parametrize("n,m,rows", [(16, 8, range(2, 8)),
                                          (64, 12, (2, 3, 6)),
                                          (192, 4, (2,))])
    def test_guided_rows_equal_dense_truncation_walk(self, monkeypatch, n, m,
                                                     rows):
        # rows a guided run samples from: the first two are near uniform,
        # later ones miss at many threshold levels before the walk ends
        qs = [q for _, state, q, _ in islice(guided(n, m, seed=n),
                                             max(rows) + 1)
              if state.t in rows]
        misses = []

        def counted(graph):
            match = perfect_matching_scipy(graph)
            misses.append(match is None)
            return match

        monkeypatch.setattr(matching, "perfect_matching_scipy", counted)
        for q in qs:
            misses.clear()
            got = walk(birkhoff_terms(q))
            assert got == walk(birkhoff_reference(q, ZERO_TOL))
            assert sum(misses) >= 10


# --------------------------------------------------------------- transition

class TestAdvanceReference:
    @pytest.mark.parametrize("n,m,steps", [(16, 8, 0), (16, 8, 3),
                                           (32, 16, 5), (48, 12, 11)])
    @pytest.mark.parametrize("seed", range(3))
    def test_float_states(self, n, m, steps, seed):
        J, state, q, L_row = evolved(n, m, steps, seed)
        assert_same_advance(state, q, L_row, J)

    @pytest.mark.parametrize("n,m,steps", [(5, 3, 0), (6, 4, 1), (7, 4, 2)])
    def test_fraction_states(self, n, m, steps):
        J, state, q, L_row = evolved(n, m, steps, seed=n, exact=True)
        assert state.p.dtype == object and q.dtype == object
        assert_same_advance(state, q, L_row, J)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_zero_and_negative_denominators(self, exact, seed):
        # q is one permutation, the placed row another: survivors whose
        # projections carry mass 1 (den 0) or 2 (den -1) get p = 0, so the
        # transition must leave them at exactly +0 without raising
        n, m = 6, 4
        J, state, _, _ = evolved(n, m, 1, seed, exact=exact)
        rng = np.random.default_rng(seed)
        one = Fraction(1) if exact else 1.0
        sigma, tau = rng.permutation(n), rng.permutation(n)
        q = np.full((n, n), 0 * one, dtype=state.p.dtype)
        q[np.arange(n), sigma] = one
        den = one - q[None, :, :] - q[J.row_inverse()[1][J.grid[2:]], :]
        p = state.p.copy()
        p[2:][den <= 0] = 0 * one
        state = GuidanceState(shape=state.shape, t=1, p=p)
        assert_same_advance(state, q, tau, J)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_degenerate_denominator_raises_the_same(self, exact, seed):
        n, m = 6, 4
        J = random_rect(n, m, seed)
        rng = np.random.default_rng(seed)
        state = init_state(J.shape, exact=exact)
        one = Fraction(1) if exact else 1.0
        sigma, tau = rng.permutation(n), rng.permutation(n)
        while (sigma == tau).all():
            tau = rng.permutation(n)
        q = np.full((n, n), 0 * one, dtype=state.p.dtype)
        q[np.arange(n), sigma] = one
        with pytest.raises(DegenerateDenominator):
            advance_state(state, q, tau, J)
        assert_same_advance(state, q, tau, J)

    def test_tiny_positive_denominator_raises_for_floats(self):
        # den = delta <= den_tol counts as degenerate for float states
        n, m, delta = 6, 4, 1e-13
        J = random_rect(n, m, 2)
        rng = np.random.default_rng(2)
        sigma, tau = rng.permutation(n), rng.permutation(n)
        q = np.zeros((n, n))
        q[np.arange(n), sigma] = 1.0 - delta
        q[np.arange(n), tau] += delta
        state = init_state(J.shape)
        with pytest.raises(DegenerateDenominator):
            advance_state(state, q, tau, J)
        assert_same_advance(state, q, tau, J)

    @pytest.mark.parametrize("exact", [False, True])
    def test_integer_permutation_matrix_q(self, exact):
        # q given as an integer 0/1 matrix, placed row consistent with it
        J = random_rect(6, 4, 5)
        state = init_state(J.shape, exact=exact)
        perm = np.random.default_rng(5).permutation(6)
        q = np.zeros((6, 6), dtype=np.int64)
        q[np.arange(6), perm] = 1
        assert_same_advance(state, q, perm, J)

    def test_last_row_only_advances_time(self):
        J, state, q, L_row = evolved(8, 3, 2, seed=1)
        assert_same_advance(state, q, L_row, J)

    @pytest.mark.parametrize("n, m, block_rows, exact", [
        (64, 40, 16, False), (192, 10, 1, False), (8, 4, 1024, True)])
    def test_in_place_over_whole_runs(self, n, m, block_rows, exact):
        # run_process's one array: each step divides the rows > t of p in
        # place and must give the fresh array's p, line sums and ceilings
        # bit for bit, hand its observer the same old and new rows, and
        # equal the reference; blocks of 16 rows at n = 64 (the last one
        # shorter), of one row at n = 192, all Fraction rows in one at n = 8
        assert max(1, process.BLOCK_ENTRIES // (n * n)) == block_rows
        J = random_rect(n, m, n)
        state = init_state(J.shape, exact=exact)
        rng = np.random.default_rng(n)

        def observer(seen):
            return lambda t, lo, old, new, *rest: seen.append(
                (lo, old.copy(), new.copy()))

        for t in range(m):
            q, _ = build_fractional_matching(normalize_row(state, t))
            L_row = sample_matching_lazy(q, rng)
            want = advance_reference(state, q, L_row, J)
            fresh_seen, seen = [], []
            fresh = advance_state(state, q, L_row, J,
                                  observe=observer(fresh_seen))
            p = state.p
            got = advance_state(state, q, L_row, J, out=p,
                                observe=observer(seen))
            assert got.p is p
            assert same_array(got.p, fresh.p)
            assert same_array(got.p, want.p)
            assert same_array(got.c_ceiling, fresh.c_ceiling)
            for name in ("rc", "rs", "row_max"):
                assert same_array(getattr(got.line_sums, name),
                                  getattr(fresh.line_sums, name))
            assert len(seen) == len(fresh_seen) == -(-(m - t - 1)
                                                       // block_rows)
            for (lo, old, new), (lo_f, old_f, new_f) in zip(seen,
                                                            fresh_seen):
                assert lo == lo_f
                assert same_array(old, old_f)
                assert same_array(new, new_f)
            state = got
        assert state.t == m

    @pytest.mark.parametrize("n, m, bad_row", [(64, 40, 35), (192, 8, 5)])
    def test_degenerate_in_place_writes_nothing(self, n, m, bad_row):
        # q is one permutation and the placed row another; p is zero at
        # every point of survival probability 0 except the surviving ones
        # of bad_row, in the third block of 16 rows at n = 64 and the fifth
        # of one row at n = 192: the step raises as the reference does and
        # leaves p, its line sums and its ceilings as they were
        J = random_rect(n, m, n)
        rng = np.random.default_rng(n)
        sigma, tau = rng.permutation(n), rng.permutation(n)
        q = np.zeros((n, n))
        q[np.arange(n), sigma] = 1.0
        den = survival(q, J, 0)
        p = np.full((m, n, n), 1.0 / n)
        p[1:][den <= 0] = 0.0
        killed = kill_mask(tau, 0, J, J.shape)
        p[bad_row][(den[bad_row - 1] <= 0) & ~killed[bad_row]] = 1.0 / n
        state = copied(init_state(J.shape))
        state.p[...] = p
        state.line_sums = process.state_line_sums(state)
        before = p.copy(), state.c_ceiling.copy()
        want = outcome(advance_reference, state, q, tau, J)
        assert want.startswith(f"raised: surviving point ({bad_row}, ")
        assert outcome(advance_state, state, q, tau, J) == want
        for observe in (None, TrajectoryRecorder(J).observe_block):
            got = outcome(lambda *a: advance_state(*a, out=state.p,
                                                   observe=observe),
                          state, q, tau, J)
            assert got == want
            assert same_array(state.p, before[0])
            assert same_array(state.c_ceiling, before[1])
            TestLineSums.assert_fresh(state)

    def test_out_is_none_or_p(self):
        J, state, q, L_row = evolved(8, 4, 1, seed=0)
        with pytest.raises(ValueError, match="out must be None or state.p"):
            advance_state(state, q, L_row, J, out=state.p.copy())

    def test_no_state_sized_temporary(self):
        # the survival probabilities live in one block-sized buffer and the
        # new p is written over the old one, so a step allocates a small
        # fraction of p (a fresh p and a whole den would be twice its size)
        J, state, q, L_row = evolved(128, 64, 20, seed=0)
        tracemalloc.start()
        try:
            advance_state(state, q, L_row, J, out=state.p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < state.p.nbytes / 8


# -------------------------------------------------------------------- gamma

def multiplied_rows(monkeypatch):
    """A list that collects a copy of every row check_gamma multiplies
    (passes to process.pair_sums) from now on."""
    rows = []
    pair_sums = process.pair_sums
    monkeypatch.setattr(process, "pair_sums",
                        lambda row: rows.append(row.copy()) or pair_sums(row))
    return rows


def spoiled(n, m, steps, seed, exact=False):
    """An evolved state with A, B and C violations planted in rows >= t."""
    state = evolved(n, m, steps, seed, exact=exact)[1]
    t = state.t
    rng = np.random.default_rng(seed)
    p = state.p.copy()
    big = Fraction(1, 2) if exact else 0.5
    # A and B: one large entry in a later row
    i = int(rng.integers(t, m))
    p[i, rng.integers(n), rng.integers(n)] = big
    # C: two columns of the active row put half their mass on each of the
    # same two symbols
    k, l = rng.choice(n, 2, replace=False)
    p[t, [k, l]] = 0 * big
    p[np.ix_([t], [k, l], rng.choice(n, 2, replace=False))] = big
    return GuidanceState(shape=state.shape, t=t, p=p)


class TestGammaReference:
    @pytest.mark.parametrize("n,m,steps", [(16, 8, 0), (16, 8, 3),
                                           (32, 16, 6), (48, 12, 10)])
    @pytest.mark.parametrize("seed", range(3))
    def test_float_states(self, n, m, steps, seed):
        state = spoiled(n, m, steps, seed)
        eps = 1.0 - m / n
        got = check_gamma(state, eps)
        want = gamma_reference(state, eps)
        assert {v.ineq for v in want.violations} == {"A_x", "B_line", "C_ikl"}
        assert got == want

    @pytest.mark.parametrize("seed", range(3))
    def test_epsilon_moves_the_a_bound(self, seed):
        # a smaller epsilon raises the A bound 1.1 / (epsilon^2 n): the A
        # violations can only shrink, and the planted 0.5 entries pass at
        # epsilon = 0.25; B and C do not depend on epsilon
        state = spoiled(32, 16, 6, seed)
        epsilons = (0.5, 0.4, 0.3, 0.25, 0.0)
        reports = [check_gamma(state, eps) for eps in epsilons]
        for eps, rep in zip(epsilons, reports):
            assert rep == gamma_reference(state, eps)
        a_sets = [{v.location for v in gamma_violations(state, eps)
                   if v.ineq == "A_x"} for eps in epsilons]
        assert all(later <= earlier
                   for earlier, later in zip(a_sets, a_sets[1:]))
        assert a_sets[0] and not a_sets[3] and not a_sets[4]
        others = {tuple((v, c) for v, c in zip(rep.violations, rep.counts)
                        if v.ineq != "A_x") for rep in reports}
        assert len(others) == 1

    @pytest.mark.parametrize("steps", [0, 1, 2])
    def test_fraction_states(self, steps):
        state = spoiled(6, 4, steps, seed=steps, exact=True)
        got = check_gamma(state, 0.5)
        assert got == gamma_reference(state, 0.5)
        assert not got.good

    @pytest.mark.parametrize("seed", range(3))
    def test_many_planted_violations(self, seed):
        # five more planted pairs of large entries on random rows >= t:
        # many A points, B lines and C pairs on several rows, of which the
        # report keeps one per family and counts the rest
        state = spoiled(32, 16, 6, seed)
        p = state.p.copy()
        rng = np.random.default_rng(seed)
        for _ in range(5):
            i, g = int(rng.integers(state.t, 16)), int(rng.integers(32))
            p[i, rng.choice(32, 2, replace=False), g] = 0.5
        planted = GuidanceState(shape=state.shape, t=state.t, p=p)
        got = check_gamma(planted, 0.5)
        assert got == gamma_reference(planted, 0.5)
        assert [v.ineq for v in got.violations] == ["A_x", "B_line", "C_ikl"]
        assert all(count > 1 for count in got.counts)

    def test_a_run_past_its_first_violation(self):
        # every step of a guided run at n = 64, eps = 0.3 that goes on
        # past its first violation (at t = 18 of 45) instead of stopping, as
        # a monitor would; most later steps break C, and many A and B too,
        # many times over
        n, eps = 64, 0.3
        J = random_rect(n, round((1 - eps) * n), 0)
        rng = np.random.default_rng(0)
        state = init_state(J.shape)
        reports = []
        for t in range(J.shape.m):
            reports.append(check_gamma(state, eps))
            assert reports[-1] == gamma_reference(state, eps, monitor=True)
            q, _ = build_fractional_matching(normalize_row(state, t))
            L_row = sample_matching_lazy(q, rng)
            state = advance_state(state, q, L_row, J, out=state.p)
        bad = [rep for rep in reports if not rep.good]
        assert len(bad) > 20
        assert max(sum(rep.counts) for rep in bad) > 1000
        assert any(len(rep.violations) == 3 for rep in bad)

    def test_good_states_agree(self):
        for steps in range(4):
            state = evolved(24, 12, steps, seed=steps)[1]
            assert check_gamma(state, 0.5) == gamma_reference(state, 0.5)

    def test_frozen_rows_are_not_rechecked_for_a(self):
        # A frozen row was checked while it was active and cannot change
        # since, so a planted A violation there is no longer reported
        state = evolved(16, 8, 3, seed=0)[1]
        assert check_gamma(state, 0.5).good
        p = state.p.copy()
        p[0, 0, 0] = 0.9
        frozen = GuidanceState(shape=state.shape, t=state.t, p=p)
        assert check_gamma(frozen, 0.5).good
        old = gamma_violations(frozen, 0.5)
        assert [(v.ineq, v.location) for v in old] == [("A_x", (0, 0, 0))]

    @pytest.mark.parametrize("n, m, exact", [(16, 8, False), (8, 4, True)])
    @pytest.mark.parametrize("above", [False, True])
    def test_cauchy_schwarz_equality(self, n, m, exact, above):
        # two parallel lines k, l alone in a later row: their pair sum
        # equals the product of their norms, the row's two largest, and is
        # exactly c_bound (no violation) or the next float above it; the
        # hand-built state's ceilings start at +inf, so the row is
        # multiplied and its ceiling set from that pair sum
        state = evolved(n, m, 1, seed=n, exact=exact)[1]
        c_bound = gamma_bounds(n, 0.5)[3]
        x = 2 * c_bound if not above else np.nextafter(2 * c_bound, 1.0)
        p = state.p.copy()
        i, k, l, g = m - 1, 1, n - 2, 3
        p[i] = 0 * p[i]
        p[i, k, g] = Fraction(x) if exact else x
        p[i, l, g] = Fraction(1, 2) if exact else 0.5
        spot = GuidanceState(shape=state.shape, t=state.t, p=p)
        got = check_gamma(spot, 0.5)
        assert got == gamma_reference(spot, 0.5)
        c_hits = [(v, c) for v, c in zip(got.violations, got.counts)
                  if v.ineq == "C_ikl"]
        if above:
            # the pair once, as (k, l)
            [(v, count)] = c_hits
            assert (v.location, count) == ((i, k, l), 1)
            assert v.lhs == np.nextafter(c_bound, 1.0)
        else:
            assert not c_hits
        pair = np.nextafter(c_bound, 1.0) if above else c_bound
        assert spot.c_ceiling[i] == pair * (1 + process.C_CEILING_MARGIN)

    @pytest.mark.parametrize("n, m, exact", [(16, 8, False), (8, 4, True)])
    @pytest.mark.parametrize("ceiling_above", [False, True])
    @pytest.mark.parametrize("pair_above", [False, True])
    def test_ceiling_at_the_skip_threshold(self, monkeypatch, n, m, exact,
                                           ceiling_above, pair_above):
        # the row of test_cauchy_schwarz_equality, with its ceiling set by
        # hand at the skip threshold or the next float above: the row is
        # multiplied only above it
        state = evolved(n, m, 1, seed=n, exact=exact)[1]
        c_bound = gamma_bounds(n, 0.5)[3]
        x = np.nextafter(2 * c_bound, 1.0) if pair_above else 2 * c_bound
        p = state.p.copy()
        i, k, l, g = m - 1, 1, n - 2, 3
        p[i] = 0 * p[i]
        p[i, k, g] = Fraction(x) if exact else x
        p[i, l, g] = Fraction(1, 2) if exact else 0.5
        threshold = c_bound * (1.0 - process.C_CEILING_MARGIN)
        ceiling = np.full(m, math.inf)
        ceiling[i] = np.nextafter(threshold, 1.0) if ceiling_above else threshold
        spot = GuidanceState(shape=state.shape, t=state.t, p=p,
                             c_ceiling=ceiling)
        multiplied = multiplied_rows(monkeypatch)
        got = check_gamma(spot, 0.5)
        row_i = [row for row in multiplied
                 if same_array(row, process.uncoloured_rows(spot)[i - spot.t])]
        want = gamma_reference(spot, 0.5)
        if ceiling_above:
            assert row_i and got == want
            # the product sets the ceiling, above c_bound when C breaks
            assert spot.c_ceiling[i] == float(c_bound if not pair_above
                                              else np.nextafter(c_bound, 1.0)
                                              ) * (1 + process.C_CEILING_MARGIN)
        else:
            # the ceiling is trusted and the row is not multiplied: a pair
            # sum at c_bound breaks nothing, so the report is the
            # reference's; one a float above goes unreported
            assert not row_i and spot.c_ceiling[i] == threshold
            full = gamma_violations(spot, 0.5)
            hidden = [v for v in full
                      if v.ineq == "C_ikl" and v.location[0] == i]
            assert len(hidden) == (2 if pair_above else 0)
            assert got == reduced(v for v in full if v not in hidden)

    @pytest.mark.parametrize("n, m, exact, x, y", [
        (16, 8, False, 0.5253080956801089, 0.15423279937722625),
        (8, 4, True, 0.5253080956801089, 0.23225570201143575)])
    def test_ceiling_covers_the_rounding_of_a_step(self, n, m, exact, x, y):
        # lines k and l of a later row share symbol g with p = x and y,
        # and the row's product sets the ceiling.  Under a uniform q
        # every survival probability is d, and x y / d^2 rounds to just
        # above c_bound, while the ceiling carried without its margin,
        # fl(fl(x y) (1 / d)^2), stays at or below c_bound: only the
        # margin keeps the row from being skipped with a C violation
        J, state, _, _ = evolved(n, m, 1, seed=n, exact=exact)
        t, i = state.t, m - 1
        k, l, g = 1, 2, 0
        one = Fraction(1) if exact else 1.0
        p = state.p.copy()
        p[i] = 0 * one
        p[i, k, g], p[i, l, g] = (Fraction(x), Fraction(y)) if exact else (x, y)
        spot = GuidanceState(shape=state.shape, t=t, p=p)
        assert check_gamma(spot, 0.5) == gamma_reference(spot, 0.5)
        assert spot.c_ceiling[i] < math.inf

        q = np.full((n, n), one / n, dtype=p.dtype)
        k2 = process.diag_column_map(J, t, t + 1)[i - t - 1]
        rng = np.random.default_rng(n)
        while True:  # a placed row that kills neither (i, k, g) nor (i, l, g)
            L_row = rng.permutation(n)
            if g not in L_row[[k, l, k2[k], k2[l]]]:
                break
        after = advance_state(spot, q, L_row, J)
        c_bound = gamma_bounds(n, 0.5)[3]
        d = float((one - one / n) - one / n)
        new_pair = float(after.p[i, k, g]) * float(after.p[i, l, g])
        assert new_pair > c_bound >= (x * y) * ((1.0 / d) * (1.0 / d))
        got = check_gamma(after, 0.5)
        assert got == gamma_reference(after, 0.5)
        assert ("C_ikl", (i, k, l)) in [(v.ineq, v.location)
                                        for v in gamma_violations(after, 0.5)]

    def test_one_large_line(self):
        # row i has one large line and tiny others: its pair sums are far
        # below c_bound, and so is the ceiling its product sets, which
        # clears the row at the next check; row j has the same large line
        # beside its evolved lines, breaks C and keeps a ceiling above it
        n, m = 32, 16
        state = evolved(n, m, 4, seed=2)[1]
        p = state.p.copy()
        i, j = m - 1, m - 2
        p[i] = 1e-4
        p[i, 5] = 0.0
        p[[i, j], 5, 7] = 0.9
        spot = GuidanceState(shape=state.shape, t=state.t, p=p)
        got = check_gamma(spot, 0.5)
        assert got == gamma_reference(spot, 0.5)
        c_bound = gamma_bounds(n, 0.5)[3]
        assert spot.c_ceiling[i] <= c_bound * (1 - process.C_CEILING_MARGIN)
        assert spot.c_ceiling[j] > c_bound
        c_rows = {v.location[0] for v in gamma_violations(spot, 0.5)
                  if v.ineq == "C_ikl"}
        assert j in c_rows and i not in c_rows

    @pytest.mark.parametrize("steps", [0, 1, 2])
    def test_exact_state_with_pair_sums_near_the_bound(self, steps):
        # a Fraction state in which columns 0 and 1 share one symbol, with
        # a pair sum just above c_bound in the active row and exactly
        # c_bound in the next
        n, m = 10, 5
        state = evolved(n, m, steps, seed=steps, exact=True)[1]
        c_bound = gamma_bounds(n, 0.5)[3]
        p = state.p.copy()
        t = state.t
        p[t, :2] = Fraction(0)
        p[t, 0, 0] = Fraction(np.nextafter(2 * c_bound, 1.0))
        p[t, 1, 0] = Fraction(1, 2)
        p[t + 1, :2] = Fraction(0)
        p[t + 1, 0, 1] = Fraction(2 * c_bound)
        p[t + 1, 1, 1] = Fraction(1, 2)
        spot = GuidanceState(shape=state.shape, t=t, p=p)
        got = check_gamma(spot, 0.5)
        assert got == gamma_reference(spot, 0.5)
        c_hits = [(v.location, c) for v, c in zip(got.violations, got.counts)
                  if v.ineq == "C_ikl"]
        assert c_hits == [((t, 0, 1), 1)]

    def test_no_pair_and_no_row(self):
        # n = 1 has no pair k != l; a finished run has no uncoloured row
        one = init_state(Shape(1, 1))
        assert check_gamma(one, 0.5) == gamma_reference(one, 0.5)
        out = run_process(random_rect(32, 8, 1), epsilon=0.75, seed=1,
                          config=ProcessConfig(record_trajectory=False))
        assert out.success and out.final_state.t == 8
        final = out.final_state
        assert check_gamma(final, 0.75) == gamma_reference(final, 0.75)

    def test_guided_runs(self, monkeypatch):
        # every check of unrecorded guided runs, whose rows sit on both
        # sides of the C ceiling; the runs end on C
        check = process.check_gamma
        cleared, exits = [], []

        def checked_gamma(state, epsilon, **kwargs):
            c_bound = gamma_bounds(state.shape.n, epsilon)[3]
            cleared.extend(state.c_ceiling[state.t:] <= c_bound * (
                1.0 - process.C_CEILING_MARGIN))
            got = check(state, epsilon, **kwargs)
            assert got == gamma_reference(state, epsilon)
            return got

        monkeypatch.setattr(process, "check_gamma", checked_gamma)
        for n, seed in ((64, 0), (64, 1), (128, 0)):
            out = run_process(random_rect(n, n // 2, seed), epsilon=0.5,
                              seed=seed,
                              config=ProcessConfig(record_trajectory=False))
            exits.append(out.gamma_report)
        assert any(cleared) and not all(cleared)
        assert any(rep is not None and any(v.ineq == "C_ikl"
                                           for v in rep.violations)
                   for rep in exits)

    def test_no_gram_tensor(self):
        # the check multiplies one row at a time, so its peak is far below
        # the (rows, n, n) Gram tensor of the uncoloured rows, also when no
        # ceiling clears any row
        evolved_state = evolved(128, 64, 20, seed=0)[1]
        state = GuidanceState(shape=evolved_state.shape, t=evolved_state.t,
                              p=evolved_state.p)
        sub = process.uncoloured_rows(state)
        assert (state.c_ceiling[state.t:] == math.inf).all()
        tracemalloc.start()
        try:
            check_gamma(state, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sub.nbytes / 4


class TestCeiling:
    @pytest.mark.parametrize("n, m, exact", [(32, 16, False), (8, 4, True)])
    def test_first_check_multiplies_every_row(self, monkeypatch, n, m, exact):
        # a state built by hand without a ceiling starts at +inf for every
        # row, so its first check multiplies them all, also the uniform rows
        # whose pair sums are far below c_bound; the ceilings that check
        # sets clear every row at the next one.  init_state starts every
        # row at the uniform row's ceiling, the one that check sets, so its
        # first check multiplies no row
        state = init_state(Shape(n, m), exact=exact)
        by_hand = GuidanceState(shape=state.shape, t=0, p=state.p.copy())
        assert by_hand.c_ceiling.shape == (m,)
        assert (by_hand.c_ceiling == math.inf).all()
        multiplied = multiplied_rows(monkeypatch)
        assert check_gamma(by_hand, 0.5) == gamma_reference(by_hand, 0.5)
        assert len(multiplied) == m
        assert same_array(state.c_ceiling, by_hand.c_ceiling)
        for spot in (state, by_hand):
            del multiplied[:]
            assert check_gamma(spot, 0.5).good and not multiplied

    @pytest.mark.parametrize("n, m, steps, exact", [
        (32, 16, 3, False), (64, 32, 10, False), (8, 4, 1, True),
        (10, 5, 2, True)])
    def test_growth_by_the_step_wide_bound(self, n, m, steps, exact):
        # every ceiling of the rows > t grows by (1 / dmin)^2
        # (1 + C_CEILING_MARGIN), dmin = (1 - q_max) - q_max in the state's
        # arithmetic, which bounds every survival probability of the step;
        # the other ceilings and the old state's are kept
        J, state, q, L_row = evolved(n, m, steps, seed=n, exact=exact)
        check_gamma(state, 0.5)
        t, old = state.t, state.c_ceiling.copy()
        assert (old[t:] < math.inf).all()
        after = advance_state(state, q, L_row, J)
        one = Fraction(1) if exact else 1.0
        dmin = np.float64((one - np.max(q)) - np.max(q))
        assert 0 < dmin < 1
        inv = 1.0 / dmin
        grown = old[t + 1:] * (inv * inv * (1.0 + process.C_CEILING_MARGIN))
        assert same_array(after.c_ceiling[t + 1:], grown)
        assert same_array(after.c_ceiling[:t + 1], old[:t + 1])
        assert same_array(state.c_ceiling, old)

    @pytest.mark.parametrize("exact", [False, True])
    def test_no_growth_bound_without_a_positive_one(self, exact):
        # q a permutation matrix: q_max = 1 and dmin = -1, so every ceiling
        # of the rows > t becomes +inf, although each survivor keeps p
        J = random_rect(6, 4, 5)
        state = init_state(J.shape, exact=exact)
        check_gamma(state, 0.5)
        assert (state.c_ceiling < math.inf).all()
        perm = np.random.default_rng(5).permutation(6)
        q = np.zeros((6, 6), dtype=np.int64)
        q[np.arange(6), perm] = 1
        after = advance_state(state, q, perm, J)
        assert after.c_ceiling[0] == state.c_ceiling[0]
        assert (after.c_ceiling[1:] == math.inf).all()

    @pytest.mark.parametrize("n, m, steps, exact", [
        (64, 32, 18, False), (8, 4, 1, True)])
    def test_recorder_leaves_the_ceiling(self, n, m, steps, exact):
        # the recorder takes c_max from row t + 1 and writes no ceiling:
        # the new state's ceilings are the transition's grown ones
        J, state, q, L_row = evolved(n, m, steps, seed=n, exact=exact)
        check_gamma(state, 0.5)
        rec = TrajectoryRecorder(J)
        rec.before_step(state)
        after = advance_state(state, q, L_row, J, out=state.p,
                              observe=rec.observe_block)
        grown = after.c_ceiling.copy()
        rec.record_step(state, q, L_row, after)
        assert same_array(after.c_ceiling, grown)

    @pytest.mark.parametrize("arithmetic, n, seeds", [
        ("float64", 64, (0, 1)), ("float64", 128, (0,)), ("exact", 8, (0, 1))])
    def test_recording_changes_no_check(self, monkeypatch, arithmetic, n,
                                        seeds):
        # at every step of a guided run, recorded or not, the check gives
        # the same report, multiplies the same rows (process.pair_sums,
        # each row's bytes hashed) and leaves the same ceilings
        check, pair_sums = process.check_gamma, process.pair_sums
        log = []

        def logged_pair_sums(row):
            log.append(hashlib.sha256(row.tobytes()).digest())
            return pair_sums(row)

        def logged_gamma(state, epsilon):
            got = check(state, epsilon)
            log.append((state.t, got, state.c_ceiling.tobytes()))
            return got

        monkeypatch.setattr(process, "pair_sums", logged_pair_sums)
        monkeypatch.setattr(process, "check_gamma", logged_gamma)
        logs = {}
        for record in (True, False):
            del log[:]
            for seed in seeds:
                run_process(random_rect(n, n // 2, seed), epsilon=0.5,
                            seed=seed, config=ProcessConfig(
                                arithmetic=arithmetic,
                                record_trajectory=record))
            logs[record] = list(log)
        assert logs[True] == logs[False]
        assert any(isinstance(e, bytes) for e in logs[True])

    @pytest.mark.parametrize("n, seed, exact", [
        (64, 0, False), (128, 0, False), (8, 0, True), (10, 1, True)])
    def test_ceiling_bounds_the_pair_sums(self, monkeypatch, n, seed, exact):
        # at every check of a guided run, each finite ceiling is at least
        # its row's largest pair sum, whether the check skips the row or
        # not: an unsound skip would otherwise show only where C breaks.
        # The float runs also skip rows; the short exact ones may not
        check = process.check_gamma
        c_bound = gamma_bounds(n, 0.5)[3]
        finite, cleared = [], []

        def checked_gamma(state, epsilon):
            rows = process.uncoloured_rows(state)
            for r, ceiling in enumerate(state.c_ceiling[state.t:]):
                if ceiling < math.inf:
                    assert process.pair_sums(rows[r]).max() <= ceiling
                    finite.append(ceiling)
                    cleared.append(
                        ceiling <= c_bound * (1 - process.C_CEILING_MARGIN))
            return check(state, epsilon)

        monkeypatch.setattr(process, "check_gamma", checked_gamma)
        arithmetic = "exact" if exact else "float64"
        run_process(random_rect(n, n // 2, seed), epsilon=0.5, seed=seed,
                    config=ProcessConfig(arithmetic=arithmetic,
                                         record_trajectory=False))
        assert finite and (exact or any(cleared))


class TestLineSums:
    """The line sums and row maxima the transition carries: equal to a
    fresh reduction of the new state, and read by the check and the
    recorder with no change to a report or a record."""

    @staticmethod
    def assert_fresh(state):
        rows = process.uncoloured_rows(state)
        sums = state.line_sums
        assert same_array(sums.rc, rows.sum(axis=2))
        assert same_array(sums.rs, rows.sum(axis=1))
        assert same_array(sums.row_max, rows.max(axis=(1, 2)))

    @pytest.mark.parametrize("n, m, block_rows, exact", [
        (64, 40, 16, False), (192, 12, 1, False), (8, 4, 1024, True)])
    def test_carried_sums_equal_fresh_ones(self, n, m, block_rows, exact):
        # blocks of 16 rows at n = 64, of one row at n = 192 and the float64
        # view of all Fraction rows in one block at n = 8, over whole runs
        # (the sums of the last step hold no row), into a fresh array and
        # in place
        assert max(1, process.BLOCK_ENTRIES // (n * n)) == block_rows
        for J, state, q, L_row in islice(guided(n, m, n, exact), m):
            for advance in (advance_state, in_place):
                after = advance(state, q, L_row, J)
                self.assert_fresh(after)
                assert after.line_sums.rc.shape == (m - state.t - 1, n)

    @pytest.mark.parametrize("record, n, exact", [
        (True, 64, False), (False, 64, False), (True, 128, False),
        (False, 128, False), (True, 8, True), (False, 10, True)])
    def test_check_reports_equal_without_carried_sums(self, monkeypatch,
                                                      record, n, exact):
        # at every check of guided runs, the report from the carried sums
        # is the report of the same state carrying none, and both checks
        # leave the same C ceilings
        check = process.check_gamma
        carried = []

        def checked_gamma(state, epsilon):
            bare = GuidanceState(shape=state.shape, t=state.t, p=state.p,
                                 c_ceiling=state.c_ceiling.copy())
            want = check(bare, epsilon)
            carried.append(state.line_sums is not None)
            got = check(state, epsilon)
            assert got == want
            assert same_array(state.c_ceiling, bare.c_ceiling)
            return got

        monkeypatch.setattr(process, "check_gamma", checked_gamma)
        config = ProcessConfig(arithmetic="exact" if exact else "float64",
                               record_trajectory=record)
        for seed in range(2):
            run_process(random_rect(n, n // 2, seed), epsilon=0.5, seed=seed,
                        config=config)
        # only init_state's state carries none
        assert carried.count(False) == 2 and carried.count(True) > 2

    @pytest.mark.parametrize("exact", [False, True])
    def test_p_written_in_place_drops_the_sums(self, exact):
        # p of an advanced state written in place: with its carried sums
        # dropped, as GuidanceState asks, the check reports the new B
        # violations; the stale sums would have hidden them
        def b_family(state):
            state.c_ceiling[:] = math.inf
            rep = check_gamma(state, 0.5)
            return [(v, c) for v, c in zip(rep.violations, rep.counts)
                    if v.ineq == "B_line"]

        def b_lines(state):
            return {v.location for v in gamma_violations(state, 0.5)
                    if v.ineq == "B_line"}

        J, state, q, L_row = evolved(8 if exact else 32, 4, 2, seed=8,
                                     exact=exact)
        assert state.line_sums is not None
        t, old, old_lines = state.t, b_family(state), b_lines(state)
        new = {("RC", t + 1, 2), ("RS", t + 1, 3)}
        assert not old_lines & new
        state.p[t + 1, 2, 3] += 1
        assert b_lines(state) == old_lines | new
        assert b_family(state) == old
        state.line_sums = None
        assert [c for _, c in b_family(state)] == [len(old_lines) + 2]
        assert check_gamma(state, 0.5) == gamma_reference(state, 0.5)

# ------------------------------------------------------------- flow search

class TestBalanceSearchReference:
    @pytest.mark.parametrize("n, m, steps, seed", [
        (24, 12, 0, 0), (24, 12, 1, 1), (24, 12, 7, 2), (64, 32, 1, 3),
        (64, 32, 12, 4), (128, 64, 6, 5), (192, 96, 3, 6)])
    def test_same_q_and_eta_as_solving_every_ratio(self, n, m, steps, seed):
        state = evolved(n, m, steps, seed)[1]
        for row in range(state.t, min(state.t + 3, m)):
            d = normalize_row(state, row)
            got, got_eta = build_fractional_matching(d)
            want, want_eta = balance_reference(d)
            assert repr(got_eta) == repr(want_eta)
            assert same_array(got, want)

    def test_scipy_solves_per_row(self, monkeypatch):
        solves, rows = [], []
        scipy_transport = maxflow.scipy_transport
        build = process.build_fractional_matching
        monkeypatch.setattr(maxflow, "scipy_transport",
                            lambda caps: solves.append(1)
                            or scipy_transport(caps))
        monkeypatch.setattr(process, "build_fractional_matching",
                            lambda *a, **kw: rows.append(1)
                            or build(*a, **kw))
        J = random_rect(64, 32, 0)
        run_process(J, epsilon=0.5, seed=0,
                    config=ProcessConfig(record_trajectory=False))
        assert len(rows) > 10
        assert len(solves) <= 1.1 * len(rows)


class LoopRecorder(TrajectoryRecorder):
    """_tracked_c_deviation with one Python max, abs and += per triple, the
    loop the package's array form replaced; the arrays before it are the
    package's."""

    def _tracked_c_deviation(self, lines_before, lines_after, q, t):
        i, (k, l) = self._live_triples(t)
        grid = self.J.grid
        inv_t = self.Jinv[t]
        pk, pl = lines_before
        x_now = (pk * pl).sum(axis=1)
        x_next = (lines_after[0] * lines_after[1]).sum(axis=1)
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
        worst = 0.0
        x0 = 1.0 / self.n
        stats = self.stats
        for now, nxt, exp in zip(x_now.tolist(), x_next.tolist(),
                                 expected.tolist()):
            worst = max(worst, abs(nxt - exp))
            stats.drift_c_cumulative += max(0.0, exp - now) / max(now, x0)
        return worst


class TestTrackedCSums:
    """The tracked C sums' largest deviation and cumulative drift equal
    the per-triple loop's bit for bit."""

    @staticmethod
    def assert_same(rec, loop, p_before, p_after, q, t):
        args = (rec._tracked_lines(p_before, t),
                rec._tracked_lines(p_after, t), q, t)
        assert repr(rec._tracked_c_deviation(*args)) == repr(
            loop._tracked_c_deviation(*args))
        assert repr(rec.stats.drift_c_cumulative) == repr(
            loop.stats.drift_c_cumulative)

    @pytest.mark.parametrize("arithmetic, n, epsilon, seed", [
        ("float64", 32, 0.75, 1), ("float64", 64, 0.5, 0),
        ("float64", 64, 0.75, 1), ("exact", 8, 0.5, 1)])
    def test_recorded_runs(self, monkeypatch, arithmetic, n, epsilon, seed):
        # every step of recorded runs, the drift summed over the whole run
        checked = []

        class Checked(TrajectoryRecorder):
            def __init__(self, J):
                super().__init__(J)
                self.loop = LoopRecorder(J)

            def _tracked_c_deviation(self, lines_before, lines_after, q,
                                     t):
                loop = self.loop
                want = loop._tracked_c_deviation(lines_before, lines_after,
                                                 q, t)
                got = super()._tracked_c_deviation(lines_before, lines_after,
                                                   q, t)
                assert repr(got) == repr(want)
                assert repr(self.stats.drift_c_cumulative) == repr(
                    loop.stats.drift_c_cumulative)
                checked.append(t)
                return got

        monkeypatch.setattr(diagnostics, "TrajectoryRecorder", Checked)
        out = recorded_run(arithmetic, n, epsilon, seed)
        assert checked == [r.t for r in out.trajectory.records]
        assert out.trajectory.drift_c_cumulative > 0

    def test_nan_and_negative_zero(self):
        # lines of nan and of -0.0 in the old and the new state: a nan
        # deviation or gain is skipped by max, a nan sum reaches the
        # drift, and -0.0 sums meet 0.0 and x0 in max
        n, m, t = 16, 8, 2
        J, state, q, L_row = evolved(n, m, t, seed=3)
        after = advance_state(state, q, L_row, J)
        q = np.asarray(q, dtype=np.float64)
        rec, loop = TrajectoryRecorder(J), LoopRecorder(J)
        live = [(i, k, l) for i, k, l in zip(*rec.triples.tolist())
                if i > t and k != l]
        assert len(live) >= 6
        pb, pa = state.p.copy(), after.p.copy()
        (i0, k0, _), (i1, k1, _), (i2, k2, _), (i3, k3, _) = live[:4]
        pb[i0, k0, 3] = math.nan       # x_now, x_next's expectation nan
        pa[i1, k1, 5] = math.nan       # x_next nan
        pb[i2, k2] = -0.0              # x_now -0.0
        pa[i3, k3] = -0.0              # x_next -0.0
        self.assert_same(rec, loop, pb, pa, q, t)
        self.assert_same(rec, loop, state.p, after.p, q, t)
        # a drift that is already nan stays nan
        rec.stats.drift_c_cumulative = loop.stats.drift_c_cumulative = (
            math.nan)
        self.assert_same(rec, loop, state.p, after.p, q, t)
        assert math.isnan(rec.stats.drift_c_cumulative)

    def test_no_live_triple(self):
        # at the last step no triple is in a row > t: nothing is added
        n, m = 16, 8
        J, state, q, L_row = evolved(n, m, m - 1, seed=4)
        after = advance_state(state, q, L_row, J)
        rec, loop = TrajectoryRecorder(J), LoopRecorder(J)
        rec.stats.drift_c_cumulative = loop.stats.drift_c_cumulative = 0.25
        self.assert_same(rec, loop, state.p, after.p,
                         np.asarray(q, dtype=np.float64), m - 1)
        assert rec.stats.drift_c_cumulative == 0.25


# ----------------------------------------------------------------- recorder

def assert_same_record(got, want):
    """Field by field; repr tells -0.0 from 0.0, an int from a numpy int,
    and prints every nan alike."""
    for f in fields(StepRecord):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert repr(a) == repr(b), (got.t, f.name, a, b)


@pytest.fixture
def paired_recorders(monkeypatch):
    """Make run_process record every step twice, by the package and by the
    reference, and compare every Gamma check with gamma_reference.  The
    reference reads a copy of each state before its step, which the
    transition in place overwrites.  Returns the list of (package,
    reference) recorders."""
    pairs = []
    check = process.check_gamma

    class Paired(TrajectoryRecorder):
        def __init__(self, J):
            super().__init__(J)
            self.reference = RecorderReference(J)
            pairs.append((self, self.reference))

        def before_step(self, state):
            super().before_step(state)
            self.copy_before = copied(state)

        def record_step(self, before, q_row, L_row, after,
                        eta_used=math.nan):
            rec = super().record_step(before, q_row, L_row, after, eta_used)
            want = self.reference.record_step(self.copy_before, q_row,
                                              L_row, after, eta_used)
            assert_same_record(rec, want)
            return rec

    def checked_gamma(state, epsilon):
        got = check(state, epsilon)
        assert got == gamma_reference(state, epsilon)
        return got

    monkeypatch.setattr(diagnostics, "TrajectoryRecorder", Paired)
    monkeypatch.setattr(process, "check_gamma", checked_gamma)
    return pairs


def recorded_run(arithmetic, n, epsilon, seed):
    J = random_rect(n, round((1.0 - epsilon) * n), seed)
    cfg = ProcessConfig(arithmetic=arithmetic)
    return run_process(J, epsilon=epsilon, seed=seed, config=cfg)


class TestRecorderReference:
    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("epsilon", [0.5, 0.75])
    @pytest.mark.parametrize("seed", range(2))
    def test_float_runs(self, paired_recorders, n, epsilon, seed):
        out = recorded_run("float64", n, epsilon, seed)
        (rec, ref), = paired_recorders
        assert len(rec.stats.records) == len(out.trajectory.records) > 0
        assert repr(rec.stats.drift_c_cumulative) == repr(
            ref.stats.drift_c_cumulative)

    @pytest.mark.parametrize("epsilon, seed", [(0.5, 1), (0.75, 0)])
    def test_exact_runs(self, paired_recorders, epsilon, seed):
        out = recorded_run("exact", 8, epsilon, seed)
        (rec, ref), = paired_recorders
        assert out.trajectory.records
        assert repr(rec.stats.drift_c_cumulative) == repr(
            ref.stats.drift_c_cumulative)

    @pytest.mark.parametrize("arithmetic, n, epsilon, seed", [
        ("float64", 32, 0.75, 1), ("exact", 8, 0.75, 0)])
    def test_last_step(self, paired_recorders, arithmetic, n, epsilon, seed):
        out = recorded_run(arithmetic, n, epsilon, seed)
        assert out.success
        assert out.trajectory.records[-1].t == out.rectangle.shape.m - 1

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_permutation_q_with_nonpositive_denominators(self, exact, seed):
        # q is the placed permutation itself: every killed point has
        # survival probability 0, and the |p'| branch decides the residual
        n, m, steps = 12, 6, 2
        J, state, _, _ = evolved(n, m, steps, seed, exact=exact)
        rec, ref = TrajectoryRecorder(J), RecorderReference(J)
        perm = np.random.default_rng(seed).permutation(n)
        q = np.zeros((n, n), dtype=np.int64)
        q[np.arange(n), perm] = 1
        rec.before_step(state)
        after = advance_state(state, q, perm, J, observe=rec.observe_block)
        assert (survival(q, J, steps, exact) <= 0).any()
        assert_same_record(rec.record_step(state, q, perm, after),
                           ref.record_step(state, q, perm, after))

    @pytest.mark.parametrize("arithmetic, n, epsilon, seed, success", [
        ("float64", 32, 0.75, 1, True), ("float64", 64, 0.5, 0, False),
        ("exact", 8, 0.75, 0, True)])
    def test_c_max_is_the_next_rows(self, monkeypatch, arithmetic, n,
                                    epsilon, seed, success):
        # c_max is the largest pair sum of row t + 1 of the new state, the
        # row the next step places, as the fsum of the pair's products, and
        # nan at the last step, which a successful run records
        steps = []

        class Checked(TrajectoryRecorder):
            def record_step(self, before, q_row, L_row, after,
                            eta_used=math.nan):
                rec = super().record_step(before, q_row, L_row, after,
                                          eta_used)
                t = before.t
                if t + 1 < self.m:
                    row = np.asarray(after.p[t + 1], dtype=np.float64)
                    assert repr(rec.c_max) == repr(fsum_pair_max(row))
                else:
                    assert math.isnan(rec.c_max)
                steps.append(t)
                return rec

        monkeypatch.setattr(diagnostics, "TrajectoryRecorder", Checked)
        out = recorded_run(arithmetic, n, epsilon, seed)
        assert steps == [r.t for r in out.trajectory.records]
        assert out.success == success
        if success:
            assert steps[-1] == out.rectangle.shape.m - 1

    def test_largest_pair_sum_is_the_fsum_maximum(self):
        # rows whose pairs tie in exact arithmetic, so that the syrk's
        # summation order decides which computed sum is largest: a uniform
        # row, lines that are cyclic shifts of one line (the pairs of one
        # shift tie), random lines; and an evolved row; nan comes through
        rng = np.random.default_rng(0)
        line = rng.random(24)
        rows = [np.full((16, 16), 1.0 / 16),
                np.array([np.roll(line, k) for k in range(24)]),
                rng.random((40, 40)), np.zeros((1, 1)),
                np.asarray(evolved(64, 32, 6, seed=1)[1].p[7], np.float64)]
        for row in rows:
            assert repr(diagnostics.largest_pair_sum(row)) == repr(
                fsum_pair_max(row))
        rows[2][3, 5] = math.nan
        assert math.isnan(diagnostics.largest_pair_sum(rows[2]))

    def test_no_gram_tensor_in_the_record(self):
        # the pair sums are taken one row at a time, and the survival
        # probabilities and the work array of the other passes a block of
        # rows at a time: the record, with the blocks the transition hands
        # it, holds no (rows, n, n) Gram tensor, den or work array of the
        # rows > t
        n, m, t = 128, 64, 20
        J, state, q, L_row = evolved(n, m, t, seed=0)
        rows = state.p[t + 1:]
        rec = TrajectoryRecorder(J)
        tracemalloc.start()
        try:
            rec.before_step(state)
            after = advance_state(state, q, L_row, J, out=state.p,
                                  observe=rec.observe_block)
            rec.record_step(state, q, L_row, after)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes / 2
