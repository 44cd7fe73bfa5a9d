"""
Quickstart: construct an orthogonal mate for a random Latin rectangle
=====================================================================

Generate a random 16 x 4 Latin rectangle J, run the guided greedy process
to build an orthogonal mate L, and verify the pair exactly: every L-colour
class is a partial transversal of J.
"""

import numpy as np

from orthomate import (
    run_process,
    verify_latin,
    verify_orthogonal,
)
from orthomate.baselines import random_latin_rectangle

n, m = 16, 4
J = random_latin_rectangle(n, m, np.random.default_rng(7))
print("reference rectangle J:")
print(J.grid)

outcome = run_process(J, epsilon=0.75, seed=1)
print("\noutcome:", outcome.kind)

L = outcome.rectangle
print("\nconstructed mate L:")
print(L.grid)

print("\nrow/column invariants hold:", verify_latin(L).ok)
print("pair is orthogonal:        ", verify_orthogonal(L, J).ok)
