"""
Birkhoff decomposition and unbiased row sampling
================================================

Any doubly stochastic q is a convex combination of permutation matrices.
Interpreting the coefficients as probabilities gives a random permutation
whose expected indicator matrix is exactly q; this is how the guided
process draws each row.  The script decomposes a q, reconstructs it, and
checks the sampler's empirical mean against q entrywise.

Both entry points walk the same terms: birkhoff_decompose collects all of
them as (coefficient, permutation) pairs, sample_matching_lazy stops at the
term the uniform draw selects, so the two return the same permutation for
the same generator state.  The 20,000 draws below go through
sample_matching on one decomposition: the lazy sampler would walk the terms
again for every draw.
"""

import numpy as np

from orthomate import birkhoff_decompose, sample_matching, sample_matching_lazy

rng = np.random.default_rng(11)
n = 5

# build a doubly stochastic matrix as a hidden mix of permutations
coeffs = rng.dirichlet(np.ones(8))
q = np.zeros((n, n))
cols = np.arange(n)
for c in coeffs:
    q[cols, rng.permutation(n)] += c

terms = birkhoff_decompose(q)
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

draws = 20_000
freq = np.zeros((n, n))
sampler_rng = np.random.default_rng(2)
for _ in range(draws):
    freq[cols, sample_matching(terms, sampler_rng)] += 1
freq /= draws
tol = 4 * np.sqrt(q * (1 - q) / draws)
print(f"\nafter {draws} draws: max |freq - q| = {np.abs(freq - q).max():.4f}"
      f" (4-sigma allowance {tol.max():.4f})")

# the lazy walk stops at the drawn term instead of materializing them all
one = sample_matching_lazy(q, np.random.default_rng(2))
same = sample_matching(terms, np.random.default_rng(2))
print(f"lazy sampler draw: {one.tolist()} "
      f"(decomposition draw: {same.tolist()})")
