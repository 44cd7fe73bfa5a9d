"""
Birkhoff decomposition and unbiased row sampling
================================================

Any doubly stochastic q is a convex combination of permutation matrices.
Interpreting the coefficients as probabilities gives a random permutation
whose expected indicator matrix is exactly q; this is how the guided
process draws each row.  The script walks the terms of a q with
birkhoff_terms, reconstructs q from them, and checks the row sampler
sample_matching_lazy, which stops the same walk at the term a uniform draw
selects, against q entrywise.
"""

import numpy as np

from orthomate import birkhoff_terms, sample_matching_lazy

rng = np.random.default_rng(11)
n = 5

# build a doubly stochastic matrix as a hidden mix of permutations
coeffs = rng.dirichlet(np.ones(8))
q = np.zeros((n, n))
cols = np.arange(n)
for c in coeffs:
    q[cols, rng.permutation(n)] += c

terms = list(birkhoff_terms(q))
rebuilt = np.zeros((n, n))
for c, perm in terms:
    rebuilt[cols, perm] += c
print(f"decomposition: {len(terms)} terms "
      f"(bound n^2 - 2n + 2 = {n * n - 2 * n + 2})")
print(f"coefficient sum      {sum(c for c, _ in terms):.12f}")
print(f"reconstruction error {np.abs(rebuilt - q).max():.2e}")
print("largest three terms:")
for c, perm in sorted(terms, reverse=True, key=lambda t: t[0])[:3]:
    print(f"  {c:.4f} * {perm.tolist()}")

draws = 5_000
freq = np.zeros((n, n))
sampler_rng = np.random.default_rng(2)
for _ in range(draws):
    freq[cols, sample_matching_lazy(q, sampler_rng)] += 1
freq /= draws
tol = 4 * np.sqrt(q * (1 - q) / draws)
print(f"\nafter {draws} draws: max |freq - q| = {np.abs(freq - q).max():.4f}"
      f" (4-sigma allowance {tol.max():.4f})")
