"""Row normalization, cut oracle, flow construction, Birkhoff machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest

from orthomate import (
    DeadSymbol,
    Infeasible,
    Shape,
    birkhoff_terms,
    build_fractional_matching,
    init_state,
    normalize_row,
    maxflow,
    sample_matching_lazy,
)
from orthomate.matching import (
    ETA_MAX,
    FEAS_TOL,
    SCIPY_FLOW_MIN_N,
    default_eta_initial,
    eta_schedule,
    solve_fixed_eta,
)

from oracles import birkhoff_decompose, cut_check_bruteforce, sample_matching


def random_distribution(n, seed):
    """Per-symbol Dirichlet weights: a generic (column, symbol) row matrix."""
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(n), size=n).T.copy()


def random_doubly_stochastic(n, seed, terms=None):
    """Convex mix of random permutations; doubly stochastic by construction."""
    rng = np.random.default_rng(seed)
    terms = terms or (2 * n)
    coeffs = rng.dirichlet(np.ones(terms))
    q = np.zeros((n, n))
    cols = np.arange(n)
    for c in coeffs:
        q[cols, rng.permutation(n)] += c
    return q


class TestNormalizeRow:
    def test_uniform(self):
        state = init_state(Shape(n=4, m=2))
        d = normalize_row(state, 0)
        assert np.allclose(d, 0.25)
        assert np.allclose(d.sum(axis=0), 1.0)

    def test_killed_column_renormalizes(self):
        state = init_state(Shape(n=4, m=2))
        state.p = state.p.copy()
        state.p[1, 0, 2] = 0.0  # kill symbol 2 at column 0 of row 1
        d = normalize_row(state, 1)
        assert np.allclose(d[1:, 2], 1.0 / 3.0)
        assert d[0, 2] == 0.0

    def test_dead_symbol(self):
        state = init_state(Shape(n=3, m=1))
        state.p[0, :, 1] = 0.0
        with pytest.raises(DeadSymbol):
            normalize_row(state, 0)

    def test_coloured_row_rejected(self):
        state = init_state(Shape(n=3, m=2))
        state.t = 1
        with pytest.raises(ValueError):
            normalize_row(state, 0)


class TestCutOracle:
    def test_uniform_feasible_any_eta(self):
        d = np.full((5, 5), 0.2)
        for eta in (0.0, 0.3, 2.0):
            feasible, witness = cut_check_bruteforce(d, eta)
            assert feasible and witness is None

    def test_permutation_feasible_at_zero(self):
        d = np.eye(4)
        feasible, _ = cut_check_bruteforce(d, 0.0)
        assert feasible

    def test_hall_violator(self):
        # symbols 0 and 1 both supported only on column 0
        d = np.zeros((4, 4))
        d[0, 0] = d[0, 1] = 1.0
        d[:, 2] = d[:, 3] = 0.25
        feasible, witness = cut_check_bruteforce(d, 0.0)
        assert not feasible
        a_syms, b_cols = witness
        assert set(a_syms) >= {0, 1} or 0 not in b_cols

    def test_witness_actually_violates(self):
        d = random_distribution(6, seed=3)
        feasible, witness = cut_check_bruteforce(d, 0.0)
        if not feasible:
            a_syms, b_cols = witness
            mass = d[np.ix_(list(b_cols), list(a_syms))].sum()
            assert 2 * 6 - len(a_syms) - len(b_cols) + mass < 6

    def test_n12_agrees_with_flow(self):
        rng = np.random.default_rng(77)
        for _ in range(3):
            d = rng.dirichlet(np.ones(12), size=12).T.copy()
            for eta in (0.0, 0.3):
                feas_cut, _ = cut_check_bruteforce(d, eta)
                feas_flow = solve_fixed_eta(d, eta) is not None
                assert feas_cut == feas_flow

    def test_exact_fraction_path(self):
        n = 3
        w = np.empty((n, n), dtype=object)
        for k in range(n):
            for g in range(n):
                w[k, g] = Fraction(1, n)
        feasible, _ = cut_check_bruteforce(w, Fraction(0))
        assert feasible


class TestFlowConstruction:
    def test_uniform_gives_uniform(self):
        # balanced selection returns d itself whenever d is doubly stochastic
        d = np.full((5, 5), 0.2)
        q, eta = build_fractional_matching(d)
        assert np.allclose(q, 0.2, atol=1e-12)
        assert eta == 0.0

    def test_doubly_stochastic_returned_exactly(self):
        d = random_doubly_stochastic(6, seed=1)
        q, eta = build_fractional_matching(d)
        assert eta == 0.0
        assert np.allclose(q, d, atol=1e-9)

    def test_invariants_on_random_inputs(self):
        for seed in range(10):
            n = 4 + seed % 5
            d = random_distribution(n, seed)
            try:
                q, eta = build_fractional_matching(d)
            except Infeasible:
                continue
            assert np.abs(q.sum(axis=1) - 1.0).max() <= 1e-9
            assert np.abs(q.sum(axis=0) - 1.0).max() <= 1e-9
            assert (q <= (1.0 + eta) * d + 1e-12).all()
            assert (q >= -1e-15).all()

    def test_infeasible_support(self):
        d = np.zeros((4, 4))
        d[0, 0] = d[0, 1] = 1.0  # two symbols live only on column 0
        d[:, 2] = d[:, 3] = 0.25
        with pytest.raises(Infeasible):
            build_fractional_matching(d)

    def test_backend_agreement_small(self, monkeypatch):
        # at n = SCIPY_FLOW_MIN_N solve_fixed_eta asks scipy, and its
        # verdict must be the one of the pure solver's flow value
        n = SCIPY_FLOW_MIN_N
        statuses = []
        scipy_transport = maxflow.scipy_transport

        def counted(caps):
            result = scipy_transport(caps)
            statuses.append(result[0])
            return result

        monkeypatch.setattr(maxflow, "scipy_transport", counted)
        verdicts = set()
        for seed in range(8):
            d = random_distribution(n, seed + 50)
            for eta in (0.0, 0.5, 2.0):
                value, _ = maxflow.solve_transport(
                    (d * (1 + eta)).tolist(), one=1.0, tol=maxflow.AUGMENT_TOL)
                feasible = solve_fixed_eta(d, eta) is not None
                assert feasible == (n - value <= FEAS_TOL)
                verdicts.add(feasible)
        assert len(statuses) == 24 and verdicts == {False, True}

    @pytest.mark.parametrize("n, exact, scipy_solves", [
        (SCIPY_FLOW_MIN_N - 1, False, False),
        (SCIPY_FLOW_MIN_N, False, True),
        (6, True, False),
    ])
    def test_one_solver_rule(self, monkeypatch, n, exact, scipy_solves):
        # the certificates prove scipy's verdict, so they are built for
        # the rows scipy solves, once per row, and for no other row
        built, certified, scipy_flows = [], [], []
        scipy_transport = maxflow.scipy_transport

        class CountedCertificates(maxflow.RowCertificates):
            def __init__(self, d, witness):
                built.append(d.shape[0])
                super().__init__(d, witness)

            def status(self, ratio):
                certified.append(ratio)
                return super().status(ratio)

        def counted_scipy(caps):
            result = scipy_transport(caps)
            scipy_flows.append(result[1])
            return result

        monkeypatch.setattr(maxflow, "RowCertificates", CountedCertificates)
        monkeypatch.setattr(maxflow, "scipy_transport", counted_scipy)
        d = random_distribution(n, seed=7)
        if exact:
            w = np.random.default_rng(7).integers(1, 10, size=(n, n))
            d = np.array([[Fraction(int(v), int(s)) for v, s in
                           zip(row, w.sum(axis=0))] for row in w],
                         dtype=object)
        q, _ = build_fractional_matching(d)
        if scipy_solves:
            assert built == [n] and certified
            # the final solve is scipy's: q is the flow it returned
            assert any(flow is q for flow in scipy_flows)
        else:
            assert built == certified == scipy_flows == []

    def test_flow_matches_cut_oracle(self):
        mismatches = 0
        for seed in range(40):
            n = 4 + seed % 4
            d = random_distribution(n, seed + 800)
            for eta in (0.0, 0.1, 0.5):
                feas_flow = solve_fixed_eta(d, eta) is not None
                feas_cut, _ = cut_check_bruteforce(d, eta)
                mismatches += feas_flow != feas_cut
        assert mismatches == 0

    @pytest.mark.parametrize("n, etas", [
        (1, [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
        (16, [3.3302184446307908, 6.6604368892615815, 13.320873778523163,
              26.641747557046326, 53.28349511409265, 64.0]),
        (192, [2.4639059918363166, 4.927811983672633, 9.855623967345267,
               19.711247934690533, 39.422495869381066, 64.0]),
    ])
    def test_eta_schedule(self, n, etas):
        # 4 sqrt(log n / sqrt n), doubling, capped at ETA_MAX = 64
        got = eta_schedule(n)
        assert got == pytest.approx(etas, rel=1e-14)
        assert got[0] == default_eta_initial(n) and got[-1] == ETA_MAX

    @pytest.mark.parametrize("knob", ["eta_initial", "eta_max"])
    def test_eta_knobs_are_gone(self, knob):
        with pytest.raises(TypeError, match=knob):
            build_fractional_matching(np.full((4, 4), 0.25), **{knob: 1.0})
        with pytest.raises(TypeError, match=knob):
            eta_schedule(16, **{knob: 1.0})

    def test_exact_flow(self):
        n = 3
        w = np.empty((n, n), dtype=object)
        for k in range(n):
            for g in range(n):
                w[k, g] = Fraction(1, n)
        q, eta = build_fractional_matching(w)
        sums = [sum(q[k, g] for g in range(n)) for k in range(n)]
        assert all(s == 1 for s in sums)


def reconstruct(terms, n):
    """The float sum of c * (permutation matrix) over Birkhoff terms."""
    out = np.zeros((n, n))
    cols = np.arange(n)
    for c, perm in terms:
        out[cols, perm] += float(c)
    return out


def coefficient_sum(terms):
    return sum(c for c, _ in terms)


class TestBirkhoff:
    def test_permutation_single_term(self):
        q = np.zeros((4, 4))
        q[np.arange(4), [2, 0, 3, 1]] = 1.0
        terms = birkhoff_decompose(q)
        assert isinstance(terms, tuple) and len(terms) == 1
        c, perm = terms[0]
        assert c == pytest.approx(1.0)
        assert perm.tolist() == [2, 0, 3, 1]

    def test_uniform_n3(self):
        terms = birkhoff_decompose(np.full((3, 3), 1.0 / 3.0))
        assert abs(coefficient_sum(terms) - 1.0) <= 1e-9
        assert np.abs(reconstruct(terms, 3) - 1.0 / 3.0).max() <= 1e-7

    def test_two_disjoint_permutations(self):
        m1 = [1, 2, 3, 0]
        m2 = [3, 0, 1, 2]
        q = np.zeros((4, 4))
        q[np.arange(4), m1] += 0.5
        q[np.arange(4), m2] += 0.5
        terms = birkhoff_decompose(q)
        assert np.abs(reconstruct(terms, 4) - q).max() <= 1e-7
        assert len(terms) <= 2

    @pytest.mark.parametrize("n", [2, 5, 8, 12])
    def test_random_reconstruction(self, n):
        for seed in range(6):
            q = random_doubly_stochastic(n, seed * 31 + n)
            terms = birkhoff_decompose(q)
            assert np.abs(reconstruct(terms, n) - q).max() <= 1e-7
            assert abs(coefficient_sum(terms) - 1.0) <= 1e-9
            assert len(terms) <= n * n - 2 * n + 2
            assert all(c > 0 for c, _ in terms)

    def test_exact_decomposition_terminates_at_zero(self):
        n = 4
        q = np.empty((n, n), dtype=object)
        for k in range(n):
            for g in range(n):
                q[k, g] = Fraction(1, n)
        terms = birkhoff_decompose(q)
        assert coefficient_sum(terms) == 1
        assert np.abs(reconstruct(terms, n) - 0.25).max() <= 1e-15

    def test_not_doubly_stochastic_rejected(self):
        q = np.full((3, 3), 1.0 / 3.0)
        q[0, 0] += 1e-5
        with pytest.raises(ValueError, match="doubly stochastic"):
            birkhoff_decompose(q)

    def test_float_dust_folded_into_last_coefficient(self):
        # the walk stops short of 1 by the dust it cannot match; that
        # remainder lands on the last coefficient
        q = random_doubly_stochastic(6, seed=9) * (1 - 1e-11)
        walked = sum(c for c, _ in birkhoff_terms(q))
        assert walked < 1
        terms = birkhoff_decompose(q)
        assert coefficient_sum(terms) == pytest.approx(1.0, abs=1e-15)


class TestSampling:
    def test_single_term_always(self):
        terms = birkhoff_decompose(np.eye(3))
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert sample_matching(terms, rng).tolist() == [0, 1, 2]

    def test_two_term_frequencies(self):
        m1 = [1, 2, 3, 0]
        m2 = [3, 0, 1, 2]
        q = np.zeros((4, 4))
        q[np.arange(4), m1] += 0.5
        q[np.arange(4), m2] += 0.5
        terms = birkhoff_decompose(q)
        rng = np.random.default_rng(7)
        draws = 10_000
        hits = sum(sample_matching(terms, rng)[0] == m1[0] for _ in range(draws))
        tol = 4.0 * math.sqrt(0.25 / draws)
        assert abs(hits / draws - 0.5) <= tol

    def test_determinism(self):
        q = random_doubly_stochastic(5, seed=3)
        terms = birkhoff_decompose(q)
        a = [sample_matching(terms, np.random.default_rng(11)).tolist()
             for _ in range(1)]
        b = [sample_matching(terms, np.random.default_rng(11)).tolist()
             for _ in range(1)]
        assert a == b

    def test_lazy_determinism(self):
        q = random_doubly_stochastic(6, seed=5)
        a = sample_matching_lazy(q, np.random.default_rng(2)).tolist()
        b = sample_matching_lazy(q, np.random.default_rng(2)).tolist()
        assert a == b

    @pytest.mark.parametrize("n", [6, 20])
    def test_lazy_draw_equals_decomposition_draw(self, n):
        # one elimination walk serves both; n = 20 matches supports with
        # scipy, n = 6 with the pure solver
        q = random_doubly_stochastic(n, seed=n)
        terms = birkhoff_decompose(q)
        for s in range(40):
            lazy = sample_matching_lazy(q, np.random.default_rng(s))
            eager = sample_matching(terms, np.random.default_rng(s))
            assert lazy.tolist() == eager.tolist()

    def test_lazy_draw_equals_decomposition_draw_exact(self):
        n = 5
        rng = np.random.default_rng(4)
        weights = rng.integers(1, 9, size=2 * n)
        q = np.full((n, n), Fraction(0), dtype=object)
        cols = np.arange(n)
        for w in weights:
            q[cols, rng.permutation(n)] += Fraction(int(w), int(weights.sum()))
        terms = birkhoff_decompose(q)
        assert coefficient_sum(terms) == 1
        for s in range(40):
            lazy = sample_matching_lazy(q, np.random.default_rng(s))
            eager = sample_matching(terms, np.random.default_rng(s))
            assert lazy.tolist() == eager.tolist()

    def test_lazy_marginal_matches_q(self):
        # the lazy walk samples a valid decomposition of q: empirical mean == q
        n = 5
        q = random_doubly_stochastic(n, seed=8)
        rng = np.random.default_rng(123)
        draws = 20_000
        freq = np.zeros((n, n))
        cols = np.arange(n)
        for _ in range(draws):
            freq[cols, sample_matching_lazy(q, rng)] += 1.0
        freq /= draws
        tol = 4.0 * np.sqrt(q * (1.0 - q) / draws) + 1e-9
        assert (np.abs(freq - q) <= tol).all()
