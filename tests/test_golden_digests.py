"""Golden outcome digests of seeded guided runs.

Each case runs the guided process on a seeded random rectangle and hashes
its outcome kind, exit time, mate grid and first Gamma violation.  A change
that claims to leave behaviour alone must keep every digest.  A change that
alters the random stream on purpose regenerates the table with

    PYTHONPATH=src python tests/test_golden_digests.py

and logs a same-seed A/B of success fraction and exit times in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from orthomate import ProcessConfig, run_process
from orthomate.baselines import random_latin_rectangle

# (arithmetic, n, epsilon, seed) -> digest of the run's outcome
GOLDEN = {
    ('float64', 8, 0.5, 0): '6d9350a105f6194c',
    ('float64', 8, 0.5, 1): '1e887be1926115bd',
    ('float64', 8, 0.5, 2): '3d68ec3ee59bacb1',
    ('float64', 8, 0.5, 3): 'edff4c4036526ff1',
    ('float64', 8, 0.5, 4): '389a5b102fe1615a',
    ('float64', 8, 0.75, 0): '76e99e214ee14026',
    ('float64', 8, 0.75, 1): 'b0326f34008450fc',
    ('float64', 8, 0.75, 2): '21438a3fe88a2e1a',
    ('float64', 8, 0.75, 3): '7bcc4febd7111326',
    ('float64', 8, 0.75, 4): '8baf8eca9d1de11f',
    ('float64', 16, 0.5, 0): '7ebcfcd80dbcef9c',
    ('float64', 16, 0.5, 1): '97cf5614abc9a372',
    ('float64', 16, 0.5, 2): 'c5945955957636cb',
    ('float64', 16, 0.5, 3): '5af7e2006e69ab0e',
    ('float64', 16, 0.5, 4): '2fe42b14cf5e3a1a',
    ('float64', 16, 0.75, 0): 'f1cb50d3c7712609',
    ('float64', 16, 0.75, 1): '8e2ec361c89d23a6',
    ('float64', 16, 0.75, 2): 'be1440d9d5a63376',
    ('float64', 16, 0.75, 3): '0f6980f43a3c58e6',
    ('float64', 16, 0.75, 4): '0ebd0fc98830ad0f',
    ('float64', 32, 0.5, 0): 'abf41edcb1942fce',
    ('float64', 32, 0.5, 1): 'fc8aa57eacbb102d',
    ('float64', 32, 0.5, 2): 'ec51f2a350485aec',
    ('float64', 32, 0.5, 3): 'bb7c57efe3cc22be',
    ('float64', 32, 0.5, 4): '7a6cdc07a489fb34',
    ('float64', 32, 0.75, 0): '8f8492dae79b1f40',
    ('float64', 32, 0.75, 1): '664b083c8e6542d7',
    ('float64', 32, 0.75, 2): 'd76be513284fe318',
    ('float64', 32, 0.75, 3): '67371eb3e6d1d7d1',
    ('float64', 32, 0.75, 4): '503f896fbd3544e9',
    ('float64', 64, 0.5, 0): '6fe203fc0df9e5b1',
    ('float64', 64, 0.5, 1): 'e6f3af9c7deb9f3a',
    ('float64', 64, 0.5, 2): '85050279ef6916d2',
    ('float64', 64, 0.5, 3): '858d6d888fdef030',
    ('float64', 64, 0.5, 4): '98a7d0fac68817ff',
    ('float64', 64, 0.75, 0): 'f2a3f2947905c7e3',
    ('float64', 64, 0.75, 1): 'a44eb9c6fb3535f3',
    ('float64', 64, 0.75, 2): 'a55b235e06406d56',
    ('float64', 64, 0.75, 3): 'a5b6e585cb83bc4e',
    ('float64', 64, 0.75, 4): '7f77c9b77fcc4c90',
    ('exact', 6, 0.5, 0): '4f17b99553e83aa2',
    ('exact', 6, 0.5, 1): '21407a37c4b6d4c8',
    ('exact', 6, 0.75, 0): 'da0b21048bcd9f55',
    ('exact', 6, 0.75, 1): '486bc20bcd979dd2',
    ('exact', 8, 0.5, 0): '6d9350a105f6194c',
    ('exact', 8, 0.5, 1): '1e887be1926115bd',
    ('exact', 8, 0.75, 0): '76e99e214ee14026',
    ('exact', 8, 0.75, 1): 'b0326f34008450fc',
    ('exact', 10, 0.5, 0): 'f77276d7a8fff39d',
    ('exact', 10, 0.5, 1): 'd81badd3560094a6',
    ('exact', 10, 0.75, 0): '0ed8f3e8f11359fe',
    ('exact', 10, 0.75, 1): '881eaffffc26b59c',
}


def outcome_digest(arithmetic: str, n: int, epsilon: float, seed: int) -> str:
    m = round((1.0 - epsilon) * n)
    J = random_latin_rectangle(n, m, np.random.default_rng(seed))
    cfg = ProcessConfig(arithmetic=arithmetic, record_trajectory=False)
    out = run_process(J, epsilon=epsilon, seed=seed, config=cfg)
    grid = None
    if out.rectangle is not None:
        grid = np.ascontiguousarray(out.rectangle.grid, np.int64).tolist()
    first = None
    if out.gamma_report is not None and out.gamma_report.violations:
        v = out.gamma_report.violations[0]
        first = (v.ineq, v.location)
    key = (out.kind, out.time, grid, first)
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_golden_digest(case):
    assert outcome_digest(*case) == GOLDEN[case]


@pytest.mark.parametrize("epsilon, seed", sorted(
    (eps, seed) for arithmetic, n, eps, seed in GOLDEN
    if arithmetic == "exact" and n == 8))
def test_float_and_exact_agree(epsilon, seed):
    # at n = 8 the float path must reach the exact oracle's outcome
    float_digest = GOLDEN["float64", 8, epsilon, seed]
    assert float_digest == GOLDEN["exact", 8, epsilon, seed]


def _cases():
    return ([("float64", n, eps, seed) for n in (8, 16, 32, 64)
             for eps in (0.5, 0.75) for seed in range(5)]
            + [("exact", n, eps, seed) for n in (6, 8, 10)
               for eps in (0.5, 0.75) for seed in range(2)])


if __name__ == "__main__":
    for case in _cases():
        print(f"    {case!r}: {outcome_digest(*case)!r},")
