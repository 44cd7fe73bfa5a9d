from fractions import Fraction

import numpy as np
import pytest

from orthomate import LatinRectangle
from orthomate.baselines import random_latin_rectangle
from orthomate.process import diag_column_map, survival_blocks

from oracles import kill_mask


@pytest.fixture
def z3():
    """Cyclic square of order 3 (Cayley table of Z3)."""
    return LatinRectangle.cyclic(3)


@pytest.fixture
def z2():
    """Cyclic square of order 2; famously has no orthogonal mate."""
    return LatinRectangle.cyclic(2)


def random_rect(n, m, seed):
    return random_latin_rectangle(n, m, np.random.default_rng(seed))


def survival(q, J, t, exact=False):
    """The survival probabilities of the rows > t when row t is placed
    under q, all blocks of process.survival_blocks in one array."""
    k2 = diag_column_map(J, t, t + 1)
    one = Fraction(1) if exact else 1.0
    dtype = (one - np.asarray(q)).dtype
    den = np.empty(k2.shape + (k2.shape[1],), dtype=dtype)
    for a, block in survival_blocks(q, k2, one):
        den[a:a + len(block)] = block
    return den


def kill_counts(L_row, t, J):
    """(most kills on a local line, most on a C sum) in the rows > t when
    L_row is placed at row t, from the dense kill_mask; a C sum of row i
    and columns k, l loses at most the kills of the RC lines (i, k) and
    (i, l).  (0, 0) at the last row."""
    killed = kill_mask(L_row, t, J, J.shape)[t + 1:]
    if not killed.size:
        return 0, 0
    rc, rs = killed.sum(axis=2), killed.sum(axis=1)
    top2 = np.sort(rc, axis=1)[:, -2:].sum(axis=1)
    return int(max(rc.max(), rs.max())), int(top2.max())
