"""Reference implementations that the tests check the run path against.

None of these runs in a guided, hall or backtrack run.  They speak the
paper's vocabulary: a point is a (row, column, symbol) tuple and a line a
(class, first, second) tuple, whose class is one of RC, RS (local lines,
inside one row), CS or DS (central lines, across rows):

  RC: (row, col)   RS: (row, sym)   CS: (col, sym)   DS: (diagonal, sym)

A DS line is indexed by a diagonal of the reference rectangle J, i.e. a
J-colour class.

- kill_mask, the dense form of process.later_kills;
- cut_check_bruteforce, the cut condition that matching.solve_fixed_eta's
  flow feasibility must equal;
- birkhoff_decompose and sample_matching, every term of
  matching.birkhoff_terms at once and a draw from them, which
  matching.sample_matching_lazy must equal;
- line_members and central_projections, the lines and the projections the
  kill rule is stated with;
- build_legality_graph, the baselines' legal pairs of one row rebuilt from
  a whole mate prefix.
"""

from fractions import Fraction

import numpy as np

from orthomate.baselines import _legal_pairs, _mark_row
from orthomate.matching import FEAS_TOL, birkhoff_terms
from orthomate.process import _row_inverse, diag_column_map


def line_members(line, shape, J=None):
    """All points on line, a (class, first, second) tuple, in index order.

    RC and RS lines have n points, CS and DS lines have m points.  The
    reference rectangle J is required only for DS lines, whose diagonal is
    the J-colour class of the given symbol value.

    Raises:
        ValueError: DS line requested without J.
    """
    n, m = shape.n, shape.m
    cls, a, b = line
    if cls == "RC":
        return [(a, b, s) for s in range(n)]
    if cls == "RS":
        return [(a, k, b) for k in range(n)]
    if cls == "CS":
        return [(i, a, b) for i in range(m)]
    # DS: one cell of the diagonal per row
    if J is None:
        raise ValueError("DS line membership requires the reference rectangle J")
    inv = J.row_inverse()
    return [(i, int(inv[i, a]), b) for i in range(m)]


def central_projections(x, t, J):
    """The two points of the active row t on the CS and DS lines of the
    point x = (row, col, sym), a point of a row below t.

    Both share the RS line (t, sym) and are always distinct, because J's
    column injectivity forces x's diagonal to cross row t away from col.
    """
    row, col, sym = x
    k2 = int(_row_inverse(J, t)[J.grid[row, col]])
    return (t, col, sym), (t, k2, sym)


def kill_mask(L_row, t, J, shape):
    """(m, n, n) bool kill indicators induced by placing L_row at row t.

    A point x in a later row dies iff the placed row occupies the point of
    x's column/symbol line or of x's diagonal/symbol line on row t.  Per
    local line of a later row this kills at most 2 points; rows <= t are
    all False.
    """
    m, n = shape.m, shape.n
    L_row = np.asarray(L_row, dtype=np.int64)
    killed = np.zeros((m, n, n), dtype=bool)
    if t + 1 < m:
        i, k = np.ogrid[t + 1:m, :n]
        killed[i, k, L_row[k]] = True
        killed[i, k, L_row[diag_column_map(J, t, t + 1)]] = True
    return killed


def cut_check_bruteforce(d, eta):
    """Exhaustive check of the cut inequality
    2n - |A| - |B| + (1 + eta) * sum_{g in A, k in B} d(k, g) >= n.

    Subsets are enumerated including the full sets A = S and B = K: the
    proper-subset restriction in the usual statement is only harmless for
    near doubly stochastic inputs, and the oracle must match the flow
    verdict on arbitrary ones.  For each column subset B the worst A of
    every size is found by sorting the per-symbol masses, which prunes the
    enumeration from 4^n to 2^n * n log n.  Time and memory grow as 2^n n,
    so it is meant for n <= 14.

    Args:
        d: (n, n) weights array [column, symbol].
        eta: capacity inflation; float violations below the flow solver's
            FEAS_TOL are ignored, Fraction weights are checked exactly.

    Returns:
        (feasible, witness); witness is (symbols A, columns B) for the first
        violating pair found, None when feasible.
    """
    w = np.asarray(d)
    n = len(w)
    if w.dtype == object:
        return _cut_check_exact(w, eta, n)
    w = w.astype(np.float64)
    # membership matrix of all nonempty column subsets (full set included)
    masks = np.arange(1, 1 << n, dtype=np.uint32)
    member = (masks[:, None] >> np.arange(n)[None, :]) & 1  # (2^n - 1, n)
    sizes = member.sum(axis=1)
    sym_mass = member.astype(np.float64) @ w  # (subsets, symbols)
    order = np.argsort(sym_mass, axis=1)
    prefix = np.cumsum(np.take_along_axis(sym_mass, order, axis=1), axis=1)
    a_sizes = np.arange(1, n + 1)
    # slack of the cut inequality for the worst A of each size
    slack = (
        (n - a_sizes)[None, :]
        - sizes[:, None]
        + (1.0 + eta) * prefix
    )
    viol = slack < -FEAS_TOL
    if not viol.any():
        return True, None
    b_idx, s_idx = np.argwhere(viol)[0]
    a_syms = tuple(int(g) for g in order[b_idx, : s_idx + 1])
    b_cols = tuple(int(k) for k in np.nonzero(member[b_idx])[0])
    return False, (a_syms, b_cols)


def _cut_check_exact(w, eta, n):
    """Fraction-arithmetic cut check (small n, exact mode)."""
    eta_f = eta if isinstance(eta, Fraction) else Fraction(eta)
    cols = list(range(n))
    for mask in range(1, 1 << n):
        b_cols = [k for k in cols if mask >> k & 1]
        mass = [sum(w[k][g] for k in b_cols) for g in range(n)]
        order = sorted(range(n), key=lambda g: mass[g])
        acc = 0
        for s, g in enumerate(order, start=1):
            acc += mass[g]
            if (n - s) - len(b_cols) + (1 + eta_f) * acc < 0:
                return False, (tuple(order[:s]), tuple(b_cols))
    return True, None


def birkhoff_decompose(q) -> tuple:
    """All terms of the birkhoff_terms walk as a tuple of (coefficient,
    permutation column -> symbol) pairs.

    The float dust left when the walk ends is added to the last
    coefficient, so the coefficients sum to 1.

    Raises:
        ValueError: a row or column sum differs from 1 by more than 1e-6.
        NoSupportMatching: the positive support has no perfect matching.
    """
    Q = np.asarray(q)
    if Q.dtype != object:
        Q = Q.astype(np.float64)
    row_err = np.abs(Q.sum(axis=1) - 1).max()
    col_err = np.abs(Q.sum(axis=0) - 1).max()
    if max(row_err, col_err) > 1e-6:
        raise ValueError(
            "input not doubly stochastic within 1e-06 "
            f"(row err {float(row_err):.2e}, col err {float(col_err):.2e})"
        )
    terms = list(birkhoff_terms(Q))
    c_last, m_last = terms[-1]
    terms[-1] = (c_last + (1 - sum(c for c, _ in terms)), m_last)
    return tuple(terms)


def sample_matching(terms: tuple, rng) -> np.ndarray:
    """Draw a permutation with the convex coefficients as probabilities.

    With terms = birkhoff_decompose(q) and the same generator state, the
    draw is the one matching.sample_matching_lazy(q, rng) makes."""
    u = rng.random()
    acc = 0.0
    for c, perm in terms:
        acc += float(c)
        if u < acc:
            return np.asarray(perm)
    return np.asarray(terms[-1][1])


def build_legality_graph(J, prefix, t):
    """(n, n) bool of the legal (column, symbol) pairs at row t given the
    first t placed rows of the mate (see baselines._legal_pairs)."""
    n = J.shape.n
    col_used = np.zeros((n, n), dtype=bool)
    diag_used = np.zeros((n, n), dtype=bool)
    for s in range(t):
        _mark_row(J, col_used, diag_used, s, prefix[s])
    return _legal_pairs(J, col_used, diag_used, t)
