"""Transport max-flow solvers: pure, scipy-scaled, exact Fractions."""

import gc
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthomate import OrthomateError, matching, maxflow
from orthomate.matching import (
    build_fractional_matching,
    default_eta_initial,
    sinkhorn_witness,
)


def transport_value(mid_caps, tol=1e-12):
    value, _ = maxflow.solve_transport(mid_caps, one=1.0, tol=tol)
    return value


class TestPureSolver:
    def test_uniform_saturates(self):
        n = 4
        caps = [[1.0 / n] * n for _ in range(n)]
        value, flow = maxflow.solve_transport(caps)
        assert value == pytest.approx(n, abs=1e-9)
        assert np.allclose(np.asarray(flow), 1.0 / n)

    def test_permutation_caps(self):
        caps = [[0.0] * 4 for _ in range(4)]
        for k in range(4):
            caps[k][(k + 1) % 4] = 1.0
        value, flow = maxflow.solve_transport(caps)
        assert value == pytest.approx(4.0, abs=1e-12)
        assert flow[0][1] == pytest.approx(1.0)

    def test_bottleneck(self):
        # column 0 capped at 0.5 total: max flow is n - 0.5
        n = 3
        caps = [[1.0] * n for _ in range(n)]
        caps[0] = [0.5 / n] * n
        value, _ = maxflow.solve_transport(caps)
        assert value == pytest.approx(n - 0.5, abs=1e-9)

    def test_zero_caps(self):
        assert transport_value([[0.0, 0.0], [0.0, 0.0]]) == 0

    def test_exact_fractions(self):
        n = 3
        caps = [[Fraction(1, 2) if k == g else Fraction(1, 4)
                 for g in range(n)] for k in range(n)]
        value, flow = maxflow.solve_transport(caps, one=Fraction(1), tol=0)
        assert isinstance(value, Fraction)
        assert value == 3
        sums = [sum(flow[k][g] for g in range(n)) for k in range(n)]
        assert all(s == 1 for s in sums)

    def test_exact_infeasible_value(self):
        caps = [[Fraction(1, 3), Fraction(0)], [Fraction(1, 3), Fraction(0)]]
        value, _ = maxflow.solve_transport(caps, one=Fraction(1), tol=0)
        assert value == Fraction(2, 3)

    def test_network_freed_without_the_cycle_collector(self):
        # the solver's network (about 3 MB of lists at n = 128) must go
        # when solve_transport returns, by reference counting alone
        n = 128
        caps = np.random.default_rng(0).random((n, n))
        caps = (1.2 * caps / caps.sum(axis=1, keepdims=True)).tolist()
        maxflow.solve_transport(caps)  # warm-up
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            maxflow.solve_transport(caps)
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert left < 0.1e6


class TestScipySolver:
    def test_matches_pure_on_random(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(3, 9))
            caps = rng.dirichlet(np.ones(n), size=n).T * (1.0 + rng.random())
            status, q = maxflow.scipy_transport(caps)
            value_pure, _ = maxflow.solve_transport(caps.tolist())
            if status == "feasible":
                assert n - value_pure <= 1e-9
                assert np.abs(q.sum(axis=1) - 1.0).max() <= 1e-9
                assert np.abs(q.sum(axis=0) - 1.0).max() <= 1e-9
                assert (q <= caps + 1e-12).all()
            elif status == "infeasible":
                assert n - value_pure > 1e-9
            # ambiguous is allowed; the caller re-solves exactly

    def test_big_capacities_scaled_safely(self):
        # entries above 1 force the scale below 2**30; verdict must survive
        n = 4
        caps = np.full((n, n), 3.0)
        status, q = maxflow.scipy_transport(caps)
        assert status == "feasible"
        assert np.abs(q.sum(axis=1) - 1.0).max() <= 1e-9

    def test_exactly_tight_instance_is_ambiguous(self, monkeypatch):
        # capacities equal to a doubly stochastic matrix make the max flow
        # exactly n; integer flooring loses mass, so the scaled verdict must
        # come back ambiguous rather than a wrong "infeasible"
        rng = np.random.default_rng(3)
        n = matching.SCIPY_FLOW_MIN_N
        q0 = permutation_mix(n, rng, terms=30)
        status, _ = maxflow.scipy_transport(q0)
        assert status == "ambiguous"
        # the production entry point, which asks scipy at this n, falls
        # back to the pure solver
        pure_solves = []
        solve_transport = maxflow.solve_transport

        def counted(*args, **kwargs):
            pure_solves.append(args)
            return solve_transport(*args, **kwargs)

        monkeypatch.setattr(maxflow, "solve_transport", counted)
        q = matching.solve_fixed_eta(q0, 0.0)
        assert len(pure_solves) == 1
        assert q is not None
        assert np.abs(q.sum(axis=1) - 1.0).max() <= 1e-9
        assert (q <= q0 + 1e-12).all()


def coo_transport(scale, mid_int):
    """The transport CSR as scipy_transport assembled it from COO triplets."""
    import scipy.sparse as sp

    n = mid_int.shape[0]
    src, snk = 2 * n, 2 * n + 1
    kk, gg = np.nonzero(mid_int > 0)
    rows = np.concatenate([np.full(n, src), np.arange(n) + n, kk])
    cols = np.concatenate([np.arange(n), np.full(n, snk), gg + n])
    data = np.concatenate([np.full(n, scale, dtype=np.int64),
                           np.full(n, scale, dtype=np.int64),
                           mid_int[kk, gg]])
    return sp.csr_matrix((data, (rows, cols)), shape=(2 * n + 2, 2 * n + 2))


def per_symbol(w):
    return w / w.sum(axis=0)[None, :]


def killed_zeros(n, rng):
    """Random weights with a fifth of the entries killed."""
    w = rng.random((n, n)) * (rng.random((n, n)) >= 0.2)
    w[rng.integers(n), :] = 1.0  # keeps every symbol alive
    return per_symbol(w)


def permutation_mix(n, rng, terms):
    q = np.zeros((n, n))
    cols = np.arange(n)
    for c in rng.dirichlet(np.ones(terms)):
        q[cols, rng.permutation(n)] += c
    return q


def near_doubly_stochastic(n, rng):
    q = permutation_mix(n, rng, n)
    return per_symbol(q * (1 + 0.05 * rng.random((n, n))))


def doubly_stochastic_on_support(n, rng):
    """1 / (n - 2) off two disjoint permutations: the second row's
    distribution after the first row's kills, doubly stochastic on its
    support; or a mix of permutations normalized per symbol."""
    if rng.random() < 0.5:
        d = np.ones((n, n))
        cols, shift = np.arange(n), rng.integers(1, n)
        perm = rng.permutation(n)
        d[cols, perm] = d[cols, perm[(cols + shift) % n]] = 0.0
        return d / (n - 2)
    return per_symbol(permutation_mix(n, rng, 6))


class TestCertificates:
    def test_direct_csr_equals_coo_built(self):
        rng = np.random.default_rng(5)
        for n in (1, 3, 24, 40):
            for density in (0.0, 0.3, 1.0):
                mid_int = (rng.integers(1, 2 ** 31 - 1, size=(n, n))
                           * (rng.random((n, n)) < density))
                mid_int[rng.integers(n), :] = 0  # an empty column row
                scale = 1 << int(rng.integers(1, 31))
                got = maxflow.transport_csr(scale, mid_int)
                want = coo_transport(scale, mid_int)
                for attr in ("indptr", "indices", "data"):
                    a, b = getattr(got, attr), getattr(want, attr)
                    assert a.dtype == b.dtype and np.array_equal(a, b), attr
                assert got.shape == want.shape

    @pytest.mark.parametrize("make", [killed_zeros, near_doubly_stochastic,
                                      doubly_stochastic_on_support])
    @pytest.mark.parametrize("n", [24, 40, 64])
    def test_certified_verdict_is_scipys(self, make, n):
        rng = np.random.default_rng(n)
        certified = {"feasible": 0, "infeasible": 0}
        for _ in range(4):
            d = make(n, rng)
            witness = sinkhorn_witness(d)
            for beta in np.linspace(1.0, 1.0 + default_eta_initial(n), 12):
                caps = d * beta
                status = maxflow.certified_status(caps, witness)
                assert status in (None, maxflow.scipy_transport(caps)[0])
                if status is not None:
                    certified[status] += 1
        assert certified["feasible"] > 0
        if make is killed_zeros:
            assert certified["infeasible"] > 0

    def test_certificates_on_small_integer_networks(self):
        # a small scale leaves each certificate no room for slack: a
        # verdict must hold of the integer max flow itself
        from scipy.sparse.csgraph import maximum_flow

        rng = np.random.default_rng(11)
        certified = {"feasible": 0, "infeasible": 0}
        for _ in range(400):
            n, scale = int(rng.integers(2, 6)), int(rng.choice([4, 8, 16]))
            witness = permutation_mix(n, rng, 3)
            mid_int = np.floor(witness * scale * rng.uniform(0.8, 1.3)
                               + rng.integers(0, 2, size=(n, n))
                               ).astype(np.int64)
            value = maximum_flow(maxflow.transport_csr(scale, mid_int),
                                 2 * n, 2 * n + 1).flow_value
            full = n * scale
            if maxflow.witness_certifies_feasible(scale, mid_int, witness):
                assert value == full
                certified["feasible"] += 1
            if maxflow.cut_certifies_infeasible(scale, mid_int):
                assert value < full - np.count_nonzero(mid_int)
                certified["infeasible"] += 1
        assert min(certified.values()) > 0

    def test_witness_one_unit_short_is_not_certified(self):
        # max flow full - 1: the witness fits every capacity, but its value
        # cannot exceed full - 1
        scale = 4
        mid_int = np.array([[2, 2], [2, 1]])
        witness = mid_int / scale
        assert not maxflow.witness_certifies_feasible(scale, mid_int, witness)
        assert maxflow.witness_certifies_feasible(scale, np.full((2, 2), 2),
                                                  np.full((2, 2), 0.5))

    def test_tight_second_row_is_left_to_the_solver(self):
        # the second row's d saturates exactly at ratio 1: flooring makes
        # scipy's verdict ambiguous, and neither certificate may claim it
        n = 64
        d = np.ones((n, n)) - np.eye(n) - np.eye(n, k=1) - np.eye(n, k=1 - n)
        d /= n - 2
        assert maxflow.scipy_transport(d)[0] == "ambiguous"
        assert maxflow.certified_status(d, sinkhorn_witness(d)) is None
        assert maxflow.certified_status(d * 1.001, sinkhorn_witness(d)) \
            == "feasible"

    def test_no_witness_for_an_empty_line(self):
        d = np.full((24, 24), 1.0 / 23)
        d[3, :] = 0.0
        assert sinkhorn_witness(d) is None
        assert maxflow.certified_status(d * 2, None) in (
            None, maxflow.scipy_transport(d * 2)[0])

    def test_certified_feasible_ratio_the_solver_rejects_raises(
            self, monkeypatch):
        calls = []

        def no_flow(d, eta):
            calls.append(eta)
            return None

        monkeypatch.setattr(matching, "solve_fixed_eta", no_flow)
        monkeypatch.setattr(maxflow, "certified_status",
                            lambda caps, witness: "feasible")
        d = near_doubly_stochastic(24, np.random.default_rng(0))
        with pytest.raises(OrthomateError, match="internal"):
            build_fractional_matching(d)
        # every ratio is certified, so the search ends at ratio 1 and the
        # one solve is the final one
        assert calls == [0.0]


class TestHypothesisCutMonotone:
    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_flow_value_monotone_in_eta(self, seed):
        from orthomate.matching import solve_fixed_eta

        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        d = rng.dirichlet(np.ones(n), size=n).T.copy()
        feas = [solve_fixed_eta(d, eta) is not None
                for eta in (0.0, 0.25, 1.0, 4.0)]
        # capacity growth only ever helps
        assert feas == sorted(feas)
