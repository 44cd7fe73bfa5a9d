"""
Fractional matchings by max flow, certified by brute-force cuts
===============================================================

A row of the guided state normalizes to per-symbol weights d.  A fractional
perfect matching q <= (1 + eta) * d exists iff every cut of the transport
network has capacity at least n; the solver decides this by max flow, and
cut_check_bruteforce verifies the same condition by enumerating all column
subsets directly.  The two must agree everywhere, including on inputs with
broken Hall structure.
"""

import numpy as np

from orthomate import Infeasible, build_fractional_matching, cut_check_bruteforce
from orthomate.matching import solve_fixed_eta

rng = np.random.default_rng(0)
n = 6

print("random per-symbol weight matrices, flow vs cut verdicts:")
agree = 0
for trial in range(200):
    d = rng.dirichlet(np.ones(n), size=n).T
    for eta in (0.0, 0.25):
        flow_ok = solve_fixed_eta(d, eta) is not None
        cut_ok, _ = cut_check_bruteforce(d, eta)
        agree += flow_ok == cut_ok
print(f"  {agree} / 400 verdicts identical")

# a feasible instance: the returned q is doubly stochastic under the cap
d = rng.dirichlet(np.ones(n), size=n).T
q, eta_used = build_fractional_matching(d)
print(f"\nfeasible instance: eta_used = {eta_used:.3f}")
print(f"  row sum error    {np.abs(q.sum(axis=1) - 1).max():.2e}")
print(f"  column sum error {np.abs(q.sum(axis=0) - 1).max():.2e}")
print(f"  q <= (1+eta) d   {(q <= (1 + eta_used) * d + 1e-12).all()}")

# two symbols supported on one shared column: infeasible at every eta,
# and the oracle produces the violating subset pair as a witness
bad = np.zeros((4, 4))
bad[0, 0] = bad[0, 1] = 1.0
bad[:, 2] = bad[:, 3] = 0.25
feasible, witness = cut_check_bruteforce(bad, 1000.0)
print(f"\nHall violator: feasible = {feasible}, witness (symbols, columns) = {witness}")
try:
    build_fractional_matching(bad)
except Infeasible as exc:
    print(f"flow solver agrees: {exc}")
