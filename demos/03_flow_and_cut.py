"""
Fractional matchings by max flow
================================

A row of the guided state normalizes to per-symbol weights d.  A fractional
perfect matching q <= (1 + eta) * d exists iff every cut of the transport
network has capacity at least n; build_fractional_matching decides this by
max flow, raising eta until the flow saturates, and returns a balanced
doubly stochastic q.  When no eta up to ETA_MAX works, as when two symbols
share a single column, it raises Infeasible.  (The test suite checks the
flow verdict against a brute-force enumeration of the cuts:
tests/test_acceptance.py, criterion 3.)
"""

import numpy as np

from orthomate import Infeasible, build_fractional_matching

rng = np.random.default_rng(0)
n = 6

# a feasible instance: the returned q is doubly stochastic under the cap
d = rng.dirichlet(np.ones(n), size=n).T
q, eta_used = build_fractional_matching(d)
print(f"feasible instance: eta_used = {eta_used:.3f}")
print(f"  row sum error    {np.abs(q.sum(axis=1) - 1).max():.2e}")
print(f"  column sum error {np.abs(q.sum(axis=0) - 1).max():.2e}")
print(f"  q <= (1+eta) d   {(q <= (1 + eta_used) * d + 1e-12).all()}")

# symbols 0 and 1 have mass only in column 0, so no matching places both:
# no eta lets the flow saturate
bad = np.zeros((4, 4))
bad[0, 0] = bad[0, 1] = 1.0
bad[:, 2] = bad[:, 3] = 0.25
try:
    build_fractional_matching(bad)
except Infeasible as exc:
    print(f"\nHall violator: {exc}")
else:
    raise SystemExit("the Hall violator got a fractional matching")
