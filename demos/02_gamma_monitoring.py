"""
Watching the goodness region during a run
=========================================

The guided process stays alive while the state satisfies three families of
inequalities: a pointwise cap (A), local line sums within 1 +- log n/sqrt n
(B), and the quasi-random pair bound (C).  This script runs one demanding
construction (epsilon = 0.5) and prints the per-step margins next to the
log n / sqrt n scale, showing which inequality gives out first at finite n
and how many of its inequalities are broken when the run stops.
"""

import math

import numpy as np

from orthomate import run_process, summarize
from orthomate.baselines import random_latin_rectangle

n, eps = 64, 0.5
m = round((1 - eps) * n)
J = random_latin_rectangle(n, m, np.random.default_rng(3))

outcome = run_process(J, epsilon=eps, seed=3)
scale = math.log(n) / math.sqrt(n)
print(f"n={n} m={m}: outcome = {outcome.kind} at t = {outcome.time}")
print(f"log n / sqrt n = {scale:.3f}\n")

print("n*C - 1: C is the largest pair sum of row t + 1, the row placed "
      "next\n")
print("  t   |B-1| max   n*C - 1    p max    fresh kills")
for r in outcome.trajectory.records:
    b_dev = max(abs(r.b_min - 1), abs(r.b_max - 1))
    print(f"{r.t:>3}   {b_dev:>8.3f}   {r.c_max * n - 1:>8.3f}"
          f"   {r.p_max:>7.4f}   {r.fresh_kills:>7}")

if outcome.gamma_report is not None:
    print("\nviolated families, each with its first violation:")
    for v, count in zip(outcome.gamma_report.violations,
                        outcome.gamma_report.counts):
        print(f"  {v.ineq}: {count} violation(s), first at {v.location}, "
              f"lhs {v.lhs:.5f}, margin {v.margin:.2e}")

report = summarize(outcome.trajectory, exit_time=outcome.time)
print("\nrun summary:")
print(report.to_json())
