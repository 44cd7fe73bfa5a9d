"""Golden final states of seeded guided runs.

The outcome digests in test_golden_digests.py see only the kind, exit time,
mate grid and first violation.  These cases also hash the whole final state
p byte for byte, the eta sequence and, when recording is on, every
trajectory record, so a change to the Gamma check, the transition or the
sampler that moves a single float shows here.  Regenerate with

    PYTHONPATH=src python tests/test_final_state_golden.py

only in a change that alters the arithmetic on purpose.

The digests hold on every BLAS kernel, with or without FMA, and with any
number of threads (CI checks Haswell, Prescott and one thread).  A
recorded case also hashes c_max, the largest pair sum of the row placed
next, which diagnostics.largest_pair_sum takes as an fsum of the pair's
float products, a value no kernel's summation order changes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from orthomate import ProcessConfig, run_process
from orthomate.baselines import random_latin_rectangle

# (arithmetic, n, epsilon, seed, record_trajectory) -> (kind, time, digest)
GOLDEN = {
    ('float64', 32, 0.5, 0, False): ('gamma_exit', 9, 'c4386b37e6623bd7'),
    ('float64', 32, 0.75, 1, True): ('success', None, '0caea8da07e3747f'),
    ('float64', 64, 0.5, 2, True): ('gamma_exit', 17, 'c9d0beb98a9c63b0'),
    ('float64', 64, 0.75, 3, False): ('success', None, 'd1882821182d730c'),
    ('float64', 96, 0.5, 4, False): ('gamma_exit', 26, '3e23819accea4283'),
    ('float64', 96, 0.75, 5, True): ('gamma_exit', 23, '1660c5e9f7057a65'),
    ('float64', 96, 0.5, 6, False): ('gamma_exit', 25, 'b9f465c34096a8f6'),
    ('exact', 8, 0.75, 0, False): ('success', None, '9dca526015286081'),
    ('exact', 8, 0.5, 1, True): ('gamma_exit', 3, '2dd79da89716a1e7'),
}


def final_state_digest(arithmetic: str, n: int, epsilon: float, seed: int,
                       record: bool) -> tuple:
    m = round((1.0 - epsilon) * n)
    J = random_latin_rectangle(n, m, np.random.default_rng(seed))
    cfg = ProcessConfig(arithmetic=arithmetic, record_trajectory=record)
    out = run_process(J, epsilon=epsilon, seed=seed, config=cfg)
    p = out.final_state.p
    # object arrays of Fractions hold pointers, so hash their values instead
    state = repr(p.tolist()).encode() if p.dtype == object else p.tobytes()
    records = None if out.trajectory is None else out.trajectory.records
    h = hashlib.sha256()
    h.update(hashlib.sha256(state).digest())
    h.update(repr((out.eta_used, out.final_state.t, records)).encode())
    return out.kind, out.time, h.hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(GOLDEN),
                         ids=lambda c: "-".join(map(str, c)))
def test_final_state_golden(case):
    assert final_state_digest(*case) == GOLDEN[case]


def _cases():
    return [
        ("float64", 32, 0.5, 0, False),
        ("float64", 32, 0.75, 1, True),
        ("float64", 64, 0.5, 2, True),
        ("float64", 64, 0.75, 3, False),
        ("float64", 96, 0.5, 4, False),
        ("float64", 96, 0.75, 5, True),
        ("float64", 96, 0.5, 6, False),
        ("exact", 8, 0.75, 0, False),
        ("exact", 8, 0.5, 1, True),
    ]


if __name__ == "__main__":
    for case in _cases():
        print(f"    {case!r}: {final_state_digest(*case)!r},")
