"""Transport max-flow solvers: pure, scipy-scaled, exact Fractions."""

import gc
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthomate import (OrthomateError, ProcessConfig, advance_state,
                       init_state, matching, maxflow, normalize_row,
                       run_process, sample_matching_lazy)
from orthomate.matching import (
    build_fractional_matching,
    default_eta_initial,
    sinkhorn_witness,
)

from conftest import random_rect


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


# --------------------------------------------------------------- reference

class _RefNet:
    """Adjacency-list flow network with paired reverse edges."""

    def __init__(self, n_nodes):
        self.head = [[] for _ in range(n_nodes)]
        self.to = []
        self.cap = []

    def add_edge(self, u, v, c):
        eid = len(self.to)
        self.to.append(v)
        self.cap.append(c)
        self.head[u].append(eid)
        self.to.append(u)
        self.cap.append(0)
        self.head[v].append(eid + 1)
        return eid


def _ref_push(net, level, it, snk, tol, u, limit):
    if u == snk:
        return limit
    while it[u] < len(net.head[u]):
        eid = net.head[u][it[u]]
        v = net.to[eid]
        if net.cap[eid] > tol and level[v] == level[u] + 1:
            got = _ref_push(net, level, it, snk, tol, v,
                            min(limit, net.cap[eid]))
            if got > tol:
                net.cap[eid] -= got
                net.cap[eid ^ 1] += got
                return got
        it[u] += 1
    level[u] = -1
    return 0


def _ref_dinic(net, src, snk, tol):
    n_nodes = len(net.head)
    total = 0
    while True:
        level = [-1] * n_nodes
        level[src] = 0
        queue = [src]
        for u in queue:
            for eid in net.head[u]:
                v = net.to[eid]
                if level[v] < 0 and net.cap[eid] > tol:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[snk] < 0:
            return total
        it = [0] * n_nodes
        while True:
            pushed = _ref_push(net, level, it, snk, tol, src, float("inf"))
            if pushed <= tol:
                break
            total = total + pushed


def transport_reference(mid_caps, one=1.0, tol=1e-12):
    """solve_transport as every phase of Dinic on the whole network, with a
    recursive depth-first search: the solver the one-pass first phase must
    equal bit for bit."""
    n = len(mid_caps)
    src, snk = 2 * n, 2 * n + 1
    net = _RefNet(2 * n + 2)
    for k in range(n):
        net.add_edge(src, k, one)
    for g in range(n):
        net.add_edge(n + g, snk, one)
    mid_edges = {}
    for k in range(n):
        row = mid_caps[k]
        for g in range(n):
            c = row[g]
            if c > tol:
                mid_edges[(k, g)] = net.add_edge(k, n + g, c)
    value = _ref_dinic(net, src, snk, tol)
    zero = one - one
    flow = [[zero] * n for _ in range(n)]
    for (k, g), eid in mid_edges.items():
        flow[k][g] = net.cap[eid ^ 1]
    return value, flow


def same_number(x, y):
    if type(x) is not type(y):
        return False
    return x.hex() == y.hex() if isinstance(x, float) else x == y


def assert_same_solve(caps, one=1.0, tol=1e-12):
    """solve_transport equals transport_reference: the value, every flow
    entry and each one's type."""
    value, flow = maxflow.solve_transport(caps, one=one, tol=tol)
    want_value, want_flow = transport_reference(caps, one=one, tol=tol)
    assert same_number(value, want_value), (value, want_value)
    assert len(flow) == len(want_flow)
    for row, want_row in zip(flow, want_flow):
        assert len(row) == len(want_row)
        assert all(same_number(x, y) for x, y in zip(row, want_row))
    return value


@pytest.fixture
def later_phases(monkeypatch):
    """One entry per hand-off from the first phase to the network: whether
    a later phase added flow (which it can only do through a reverse edge,
    every forward path being blocked by the first phase)."""
    runs = []
    dinic = maxflow._dinic

    def counted(net, src, snk, tol, total=0):
        value = dinic(net, src, snk, tol, total)
        runs.append(value != total)
        return value

    monkeypatch.setattr(maxflow, "_dinic", counted)
    return runs


def random_network(n, rng):
    """Capacities of one of three shapes, scaled so that some networks
    saturate and some do not: dense per-symbol weights, sparse ones with
    empty lines, and a near doubly stochastic mix of permutations."""
    shape = rng.integers(3)
    if shape == 0:
        w = per_symbol(rng.random((n, n)) + 1e-3)
    elif shape == 1:
        w = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.1, 0.6))
        w = w / max(w.sum(axis=0).max(), 1e-300)
    else:
        w = permutation_mix(n, rng, int(rng.integers(1, n + 2)))
    return w * rng.uniform(0.7, 1.4)


def chain(n, one=1.0):
    """Column k reaches symbols k and k + 1, column n - 1 symbol 0: the
    first phase leaves column n - 1 without a symbol, and the one
    augmenting path left runs back through every column."""
    zero = one - one
    caps = [[zero] * n for _ in range(n)]
    for k in range(n - 1):
        caps[k][k] = caps[k][k + 1] = one
    caps[n - 1][0] = one
    return caps


class TestTransportReference:
    @pytest.mark.parametrize("tol", [1e-12, 0.0, 1e-3])
    def test_random_float_networks(self, later_phases, tol):
        rng = np.random.default_rng(int(tol * 1e15) + 7)
        verdicts = {True: 0, False: 0}
        for n in range(1, 41):
            for _ in range(6):
                value = assert_same_solve(random_network(n, rng).tolist(),
                                          tol=tol)
                verdicts[n - value <= 1e-9] += 1
        assert min(verdicts.values()) > 0
        assert len(later_phases) > 0 and any(later_phases)

    def test_fraction_networks(self, later_phases):
        rng = np.random.default_rng(3)
        verdicts = {True: 0, False: 0}
        for _ in range(300):
            n = int(rng.integers(1, 9))
            scale = int(rng.integers(n, 3 * n))
            caps = [[Fraction(int(x), scale) for x in row]
                    for row in rng.integers(0, 4, size=(n, n))
                    * (rng.random((n, n)) < 0.6)]
            value = assert_same_solve(caps, one=Fraction(1), tol=0)
            assert isinstance(value, (int, Fraction))
            verdicts[value == n] += 1
        assert min(verdicts.values()) > 0
        assert any(later_phases)

    @pytest.mark.parametrize("n", [2, 3, 8, 31])
    def test_later_phase_through_reverse_edges(self, later_phases, n):
        for one in (1.0, Fraction(1)):
            later_phases.clear()
            tol = 0 if isinstance(one, Fraction) else 1e-12
            assert assert_same_solve(chain(n, one), one=one, tol=tol) == n
            assert later_phases == [True]

    def test_nothing_to_push(self, later_phases):
        # no edge above tol: the value is the int 0 of an empty phase, and
        # the flow keeps one - one where there is no edge
        for caps, tol in (([[0.0, 0.0], [0.0, 0.0]], 1e-12),
                          ([[1e-4, 0.0], [0.0, 1e-4]], 1e-3), ([], 1e-12)):
            assert assert_same_solve(caps, tol=tol) == 0
        assert assert_same_solve([[Fraction(0)]], one=Fraction(1), tol=0) == 0

    @pytest.mark.parametrize("n", [64, 128, 192])
    def test_guided_rows(self, monkeypatch, n):
        # the rows the pure solver re-solves in guided runs: t = 0 and 1,
        # where d is doubly stochastic on its support and scipy's verdict
        # falls in the rounding band
        asked = []
        solve = maxflow.solve_transport

        def captured(mid_caps, *args, **kwargs):
            asked.append((mid_caps, args, kwargs))
            return solve(mid_caps, *args, **kwargs)

        monkeypatch.setattr(maxflow, "solve_transport", captured)
        J = random_rect(n, 3, n)
        state = init_state(J.shape)
        rng = np.random.default_rng(n)
        for _ in range(2):
            q, _ = build_fractional_matching(normalize_row(state, state.t))
            state = advance_state(state, q, sample_matching_lazy(q, rng), J)
        monkeypatch.undo()
        assert asked
        for mid_caps, args, kwargs in asked:
            value = assert_same_solve(mid_caps, *args, **kwargs)
            assert n - value <= matching.FEAS_TOL

    def test_long_augmenting_path(self):
        # the later phase's path passes all 2n + 2 nodes: deeper than the
        # recursion limit allows a recursive search
        n = 600
        value, flow = maxflow.solve_transport(chain(n))
        assert value == n
        assert all(flow[k][k + 1] == 1.0 and flow[k][k] == 0
                   for k in range(n - 1))
        assert flow[n - 1][0] == 1.0


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


# The certificates as three functions of one question each, every quantity
# taken afresh: the oracle maxflow.RowCertificates must agree with.

def cut_certifies_infeasible(scale, mid_int):
    """True when a one-sided cut proves scipy_transport says "infeasible"
    (see maxflow.RowCertificates)."""
    n = mid_int.shape[0]
    cut = min(np.minimum(mid_int.sum(axis=1), scale).sum(),
              np.minimum(mid_int.sum(axis=0), scale).sum())
    return int(cut) < n * scale - int(np.count_nonzero(mid_int))


def witness_certifies_feasible(scale, mid_int, witness):
    """True when witness, shrunk to f, proves scipy_transport says
    "feasible": (a) 0 <= f <= mid_int, (b) line sums of f at most
    scale (1 - r), (c) sum(f) > full - 1 + 2 r full (see
    maxflow.RowCertificates)."""
    n = mid_int.shape[0]
    r = 2 * n * float(np.finfo(np.float64).eps)
    rows = witness.sum(axis=1)
    peak = max(float(rows.max()), float(witness.sum(axis=0).max()))
    if not peak > 0:
        return False
    f = witness * (scale / (peak * (1 + 2 * r)))
    if not (f.min() >= 0 and (f <= mid_int).all()):
        return False
    rows = f.sum(axis=1)
    bound = scale * (1 - r)
    if rows.max() > bound or f.sum(axis=0).max() > bound:
        return False
    full = n * scale
    return float(rows.sum()) > full - 1 + 2 * r * full


def certified_status(mid_caps, witness):
    """scipy_transport's status for mid_caps when a certificate proves it,
    None when neither applies."""
    scale, mid_int = maxflow.scaled_caps(mid_caps)
    if cut_certifies_infeasible(scale, mid_int):
        return "infeasible"
    if witness is not None and witness_certifies_feasible(scale, mid_int,
                                                          witness):
        return "feasible"
    return None


def assert_agrees_with_oracle(certificates, ratios):
    """The statuses certificates gives for ratios, each equal to the
    oracle's on the same question."""
    got = [certificates.status(ratio) for ratio in ratios]
    want = [certified_status(certificates.d * float(ratio),
                             certificates.witness) for ratio in ratios]
    assert got == want
    return got


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
                for attr in ("indptr", "indices"):
                    a, b = getattr(got, attr), getattr(want, attr)
                    assert a.dtype == b.dtype and np.array_equal(a, b), attr
                # the COO build keeps int64 data; the direct one is int32,
                # the dtype maximum_flow solves in, with the same values
                assert got.data.dtype == np.int32
                assert np.array_equal(got.data, want.data)
                assert got.shape == want.shape

    @pytest.mark.parametrize("make", [killed_zeros, near_doubly_stochastic,
                                      doubly_stochastic_on_support])
    @pytest.mark.parametrize("n", [24, 40, 64])
    def test_certified_verdict_is_scipys(self, make, n):
        rng = np.random.default_rng(n)
        certified = {"feasible": 0, "infeasible": 0}
        for _ in range(4):
            d = make(n, rng)
            certificates = maxflow.RowCertificates(d, sinkhorn_witness(d))
            betas = np.linspace(1.0, 1.0 + default_eta_initial(n), 12)
            for beta, status in zip(betas, assert_agrees_with_oracle(
                    certificates, betas)):
                assert status in (None, maxflow.scipy_transport(d * beta)[0])
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
            if witness_certifies_feasible(scale, mid_int, witness):
                assert value == full
                certified["feasible"] += 1
            if cut_certifies_infeasible(scale, mid_int):
                assert value < full - np.count_nonzero(mid_int)
                certified["infeasible"] += 1
        assert min(certified.values()) > 0

    def test_witness_one_unit_short_is_not_certified(self):
        # max flow full - 1: the witness fits every capacity, but its value
        # cannot exceed full - 1
        scale = 4
        mid_int = np.array([[2, 2], [2, 1]])
        witness = mid_int / scale
        assert not witness_certifies_feasible(scale, mid_int, witness)
        assert witness_certifies_feasible(scale, np.full((2, 2), 2),
                                          np.full((2, 2), 0.5))

    def test_tight_second_row_is_left_to_the_solver(self):
        # the second row's d saturates exactly at ratio 1: flooring makes
        # scipy's verdict ambiguous, and neither certificate may claim it
        n = 64
        d = np.ones((n, n)) - np.eye(n) - np.eye(n, k=1) - np.eye(n, k=1 - n)
        d /= n - 2
        assert maxflow.scipy_transport(d)[0] == "ambiguous"
        certificates = maxflow.RowCertificates(d, sinkhorn_witness(d))
        assert assert_agrees_with_oracle(certificates, [1.0, 1.001]) == [
            None, "feasible"]

    def test_no_witness_for_an_empty_line(self):
        d = np.full((24, 24), 1.0 / 23)
        d[3, :] = 0.0
        assert sinkhorn_witness(d) is None
        status, = assert_agrees_with_oracle(
            maxflow.RowCertificates(d, None), [2.0])
        assert status in (None, maxflow.scipy_transport(d * 2)[0])

    def test_certified_feasible_ratio_the_solver_rejects_raises(
            self, monkeypatch):
        calls = []

        def no_flow(d, eta):
            calls.append(eta)
            return None

        monkeypatch.setattr(matching, "solve_fixed_eta", no_flow)
        monkeypatch.setattr(maxflow.RowCertificates, "status",
                            lambda self, ratio: "feasible")
        d = near_doubly_stochastic(24, np.random.default_rng(0))
        with pytest.raises(OrthomateError, match="internal"):
            build_fractional_matching(d)
        # every ratio is certified, so the search ends at ratio 1 and the
        # one solve is the final one
        assert calls == [0.0]


class TestRowCertificates:
    """maxflow.RowCertificates against the one-question oracle above."""

    @pytest.mark.parametrize("n, m", [(24, 12), (64, 12), (128, 8),
                                      (192, 6)])
    def test_every_question_of_guided_runs(self, monkeypatch, n, m):
        asked = []
        status = maxflow.RowCertificates.status

        def recorded(self, ratio):
            got = status(self, ratio)
            asked.append((self, ratio, got))
            return got

        monkeypatch.setattr(maxflow.RowCertificates, "status", recorded)
        for seed in range(2):
            run_process(random_rect(n, m, seed + 40), seed=seed,
                        config=ProcessConfig(record_trajectory=False))
        monkeypatch.undo()
        assert len({id(certs) for certs, _, _ in asked}) > m
        verdicts = set()
        for certs, ratio, got in asked:
            assert got == certified_status(certs.d * float(ratio),
                                           certs.witness)
            verdicts.add(got)
        assert "feasible" in verdicts and None in verdicts

    @pytest.mark.parametrize("make", [killed_zeros, near_doubly_stochastic])
    def test_no_witness(self, make):
        rng = np.random.default_rng(3)
        d = make(32, rng)
        statuses = assert_agrees_with_oracle(
            maxflow.RowCertificates(d, None), [1.0, 1.1, 2.0, 64.0])
        assert "feasible" not in statuses

    def test_zero_peak(self):
        d = near_doubly_stochastic(24, np.random.default_rng(4))
        statuses = assert_agrees_with_oracle(
            maxflow.RowCertificates(d, np.zeros_like(d)), [1.0, 1.5, 64.0])
        assert "feasible" not in statuses

    def test_change_of_scale(self):
        # ratios past 2 / max(d) halve the scale, and back again: each
        # question must read the shrunk witness of its own scale
        d = near_doubly_stochastic(24, np.random.default_rng(5))
        ratios = [1.0, 1.05, 3.0 / d.max(), 1.02, 40.0, 9.0 / d.max(), 1.1]
        scales = {maxflow.scaled_caps(d * r)[0] for r in ratios}
        assert len(scales) >= 3
        statuses = assert_agrees_with_oracle(
            maxflow.RowCertificates(d, sinkhorn_witness(d)), ratios)
        assert statuses[2] == statuses[4] == statuses[5] == "feasible"

    def test_one_unit_short_of_the_witness(self):
        # (a) fails at one entry by one unit of the scaled capacities: not
        # certified; one unit more and it is
        rng = np.random.default_rng(6)
        n = 24
        witness = permutation_mix(n, rng, 4)
        certificates = maxflow.RowCertificates(witness * 1.01, witness)
        scale, mid_int = maxflow.scaled_caps(certificates.d)
        assert assert_agrees_with_oracle(certificates, [1.0]) == ["feasible"]
        f = certificates._flows[scale]
        k, g = np.unravel_index(np.argmax(f), f.shape)
        for units, want in ((0, "feasible"), (-1, None)):
            d = certificates.d.copy()
            d[k, g] = (np.ceil(f[k, g]) + units) / scale  # exact: scale = 2^s
            short = maxflow.RowCertificates(d, witness)
            assert maxflow.scaled_caps(d)[0] == scale
            assert assert_agrees_with_oracle(short, [1.0]) == [want]


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
