"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 ensembles are shared with criterion 7 through a session fixture.
Ensemble sizes: at least 500 guided runs spread over n in {8, 16, 32, 64}
with both a comfortable (0.75) and a demanding (0.5) epsilon; random J and
distinct seeds per run.  All randomness is seeded, so every check here is
deterministic.
"""

import collections
import math

import numpy as np
import pytest

from orthomate import (
    LatinRectangle,
    backtrack_mate,
    build_fractional_matching,
    hall_greedy,
    run_process,
    verify_latin,
    verify_orthogonal,
)
from orthomate import process
from orthomate.baselines import random_latin_rectangle
from orthomate.cli import main as cli_main
from orthomate.matching import solve_fixed_eta

from conftest import kill_counts
from oracles import birkhoff_decompose, cut_check_bruteforce, sample_matching

ENSEMBLE = [
    # (n, epsilon, number of runs)
    (8, 0.75, 100), (8, 0.5, 100),
    (16, 0.75, 75), (16, 0.5, 75),
    (32, 0.75, 50), (32, 0.5, 50),
    (64, 0.75, 30), (64, 0.5, 30),
]


def report(num, ok, detail):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def run_counting_kills(J, eps, seed):
    """run_process(J, eps, seed) and the kill_counts of every row it
    placed, from the dense kill_mask of the row."""
    kills = []
    advance = process.advance_state

    def counted(state, q, L_row, J, **kwargs):
        after = advance(state, q, L_row, J, **kwargs)
        kills.append(kill_counts(L_row, state.t, J))
        return after

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(process, "advance_state", counted)
        out = run_process(J, epsilon=eps, seed=seed)
    return out, kills


@pytest.fixture(scope="session")
def guided_ensemble():
    """All criterion-1 runs with their reference rectangles, outcomes and
    the kill counts of each placed row."""
    runs = []
    seed = 0
    for n, eps, count in ENSEMBLE:
        m = round((1.0 - eps) * n)
        for _ in range(count):
            seed += 1
            J = random_latin_rectangle(n, m, np.random.default_rng(seed))
            runs.append((n, eps, J, *run_counting_kills(J, eps, seed)))
    return runs


def test_criterion_1_exactness_of_success(guided_ensemble):
    total = len(guided_ensemble)
    successes = 0
    bad = 0
    for n, eps, J, out, kills in guided_ensemble:
        if out.success:
            successes += 1
            if not (verify_latin(out.rectangle).ok
                    and verify_orthogonal(out.rectangle, J).ok):
                bad += 1
    report(1, total >= 500 and successes > 0 and bad == 0,
           f"{total} runs, {successes} successes, {bad} verification failures")


def test_criterion_2_hall_regime_guarantee():
    failures = 0
    checked = 0
    for n in (8, 16, 32, 64):
        m = n // 4
        for seed in range(100):
            J = random_latin_rectangle(n, m, np.random.default_rng(seed + 7 * n))
            try:
                mate = hall_greedy(J, rng=np.random.default_rng(seed))
                ok = verify_orthogonal(mate, J).ok
            except Exception:
                ok = False
            checked += 1
            failures += not ok
    report(2, failures == 0, f"{checked} hall_greedy runs at m = n/4, "
           f"{failures} failures")


def test_criterion_3_flow_vs_cut_equivalence():
    mismatches = 0
    checked = 0
    for n in range(4, 11):
        rng = np.random.default_rng(1000 + n)
        for _ in range(500):
            d = rng.dirichlet(np.ones(n), size=n).T.copy()
            for eta in (0.0, 0.1, 0.5):
                feas_flow = solve_fixed_eta(d, eta) is not None
                feas_cut, _ = cut_check_bruteforce(d, eta)
                checked += 1
                mismatches += feas_flow != feas_cut
    report(3, mismatches == 0,
           f"{checked} (distribution, eta) pairs, {mismatches} mismatches")


def test_criterion_4_birkhoff_correctness():
    rng = np.random.default_rng(42)
    worst_err = 0.0
    worst_coeff = 0.0
    count_bad = 0
    matrices = 0
    while matrices < 200:
        n = int(rng.integers(2, 13))
        k = int(rng.integers(n, 2 * n + 2))
        coeffs = rng.dirichlet(np.ones(k))
        q = np.zeros((n, n))
        cols = np.arange(n)
        for c in coeffs:
            q[cols, rng.permutation(n)] += c
        matrices += 1
        terms = birkhoff_decompose(q)
        rebuilt = np.zeros((n, n))
        for c, perm in terms:
            rebuilt[cols, perm] += c
        err = np.abs(rebuilt - q).max()
        csum = abs(sum(c for c, _ in terms) - 1.0)
        worst_err = max(worst_err, err)
        worst_coeff = max(worst_coeff, csum)
        if err > 1e-7 or csum > 1e-9 or len(terms) > n * n - 2 * n + 2:
            count_bad += 1
    report(4, count_bad == 0,
           f"200 matrices, worst reconstruction {worst_err:.2e}, "
           f"worst coefficient-sum error {worst_coeff:.2e}")


def test_criterion_5_sampler_unbiasedness():
    n = 6
    rng = np.random.default_rng(5)
    d = rng.dirichlet(np.ones(n), size=n).T.copy()
    q, _ = build_fractional_matching(d)
    terms = birkhoff_decompose(q)
    draws = 20_000
    freq = np.zeros((n, n))
    cols = np.arange(n)
    sample_rng = np.random.default_rng(99)
    for _ in range(draws):
        freq[cols, sample_matching(terms, sample_rng)] += 1.0
    freq /= draws
    tol = 4.0 * np.sqrt(q * (1.0 - q) / draws) + 1e-9
    dev = np.abs(freq - q)
    ok = (dev <= tol).all()
    report(5, ok, f"max |freq - q| = {dev.max():.5f}, "
           f"max allowed {tol.max():.5f} over {draws} draws")


def test_criterion_6_martingale_identity():
    worst = 0.0
    steps = 0
    for seed, eps in ((11, 0.5), (12, 0.5), (13, 0.75), (14, 0.75),
                      (15, 0.5), (16, 0.75), (17, 0.5), (18, 0.75)):
        n = 32
        m = round((1.0 - eps) * n)
        J = random_latin_rectangle(n, m, np.random.default_rng(seed))
        out = run_process(J, epsilon=eps, seed=seed)
        for r in out.trajectory.records:
            worst = max(worst, r.martingale_residual)
            steps += 1
    report(6, worst <= 1e-9,
           f"max analytic residual {worst:.2e} over {steps} steps at n=32")


def test_criterion_7_kill_bounds(guided_ensemble):
    # every placed row of the criterion-1 runs, and of guided runs on cyclic
    # J, whose structure differs from a random J's
    kills = [k for *_, run_kills in guided_ensemble for k in run_kills]
    for n, eps in ((8, 0.5), (16, 0.75), (32, 0.5), (64, 0.75)):
        J = LatinRectangle.cyclic(n, round((1.0 - eps) * n))
        for seed in range(3):
            kills += run_counting_kills(J, eps, seed)[1]
    worst_line = max(line for line, _ in kills)
    worst_c = max(c for _, c in kills)
    report(7, worst_line <= 2 and worst_c <= 4,
           f"{len(kills)} placed rows: max per-line kills {worst_line} "
           f"(<= 2), max per-C-sum kills {worst_c} (<= 4)")


def test_criterion_8_small_n_ground_truth():
    z2 = LatinRectangle.cyclic(2)
    z3 = LatinRectangle.cyclic(3)
    no_mate_2 = backtrack_mate(z2) is None
    mate3 = backtrack_mate(z3)
    mate3_ok = mate3 is not None and verify_orthogonal(mate3, z3).ok
    guided_never = all(not run_process(z2, seed=s).success for s in range(25))
    report(8, no_mate_2 and mate3_ok and guided_never,
           f"order-2 exhausted: {no_mate_2}, order-3 mate verified: {mate3_ok}, "
           f"guided n=2 never succeeds over 25 seeds: {guided_never}")


def test_criterion_9_cli_determinism(tmp_path):
    def run_twice(args, out_name):
        texts = []
        for tag in ("a", "b"):
            out = tmp_path / f"{out_name}_{tag}"
            assert cli_main(args + ["--out", str(out)]) == 0
            texts.append(out.read_text())
        return texts

    g1, g2 = run_twice(["gen", "--n", "10", "--m", "5", "--seed", "4"], "g")
    rect_ok = g1 == g2

    t1, t2 = run_twice(["trials", "--n", "12", "--epsilon", "0.75",
                        "--count", "8", "--seed", "2"], "t")

    def strip_wall(text):
        lines = text.strip().splitlines()
        return [ln if ln.startswith(("#", "trial")) else ln.rsplit(",", 1)[0]
                for ln in lines]

    trials_ok = strip_wall(t1) == strip_wall(t2)
    report(9, rect_ok and trials_ok,
           f"gen byte-identical: {rect_ok}, trials CSV identical modulo "
           f"wall time: {trials_ok}")


def test_criterion_10_theorem_diagnostic_report():
    from orthomate.matching import default_eta_initial

    n, eps, trials = 128, 0.5, 30
    m = round((1.0 - eps) * n)
    outcomes = collections.Counter()
    exit_ineqs = collections.Counter()
    b_margins = []
    c_margins = []
    verified = 0
    escalations = 0
    for i in range(trials):
        J = random_latin_rectangle(n, m, np.random.default_rng(5000 + i))
        out = run_process(J, epsilon=eps, seed=5000 + i)
        escalations += sum(e > default_eta_initial(n) for e in out.eta_used)
        outcomes[out.kind] += 1
        if out.success:
            verified += verify_orthogonal(out.rectangle, J).ok
        if out.gamma_report is not None and out.gamma_report.violations:
            exit_ineqs[out.gamma_report.violations[0].ineq] += 1
        if out.trajectory is not None and out.trajectory.records:
            recs = [r for r in out.trajectory.records if not math.isnan(r.b_min)]
            if recs:
                b_margins.append(max(max(abs(r.b_min - 1), abs(r.b_max - 1))
                                     for r in recs))
                c_margins.append(max(r.c_max * n - 1 for r in recs))
    scale = math.log(n) / math.sqrt(n)
    print(f"\n  n={n} eps={eps} trials={trials}; log n / sqrt n = {scale:.3f}")
    print(f"  outcomes: {dict(outcomes)}")
    print(f"  gamma-exit inequality histogram: {dict(exit_ineqs)}")
    print(f"  rows needing eta beyond the initial "
          f"4*sqrt(log n/sqrt n) = {escalations}")
    if b_margins:
        print(f"  max |B - 1| per run: median {np.median(b_margins):.3f}, "
              f"max {max(b_margins):.3f} (scale {scale:.3f})")
        print(f"  max n*C - 1 per run, each row as placed: median "
              f"{np.median(c_margins):.3f}, max {max(c_margins):.3f} "
              f"(scale {scale:.3f})")
    ok = sum(outcomes.values()) == trials and verified == outcomes["success"]
    report(10, ok, f"report emitted for {trials} trials "
           f"(success fraction {outcomes['success'] / trials:.2f})")
