"""Command-line front end: gen, mate, verify, trials, diag.

Exit codes are a stable scripting contract: 0 success, 1 usage or I/O
problems, 2 algorithmic failure (no mate found, verification failed),
3 a ``trials`` worker process died.  Every success path re-verifies its
output before writing; an unverified rectangle is never written, and a
failed run leaves no output file.  Trial ensembles derive per-trial seeds
as seed + index, so results are reproducible under any parallel schedule.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import json
import math
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, asdict, replace

import numpy as np

from .core import (
    LatinRectangle,
    OrthomateError,
    ParseError,
    NotLatin,
    ShapeMismatch,
    parse_rectangle,
    verify_latin,
    verify_orthogonal,
)
from .baselines import NoPerfectMatching, backtrack_mate, hall_greedy, \
    random_latin_rectangle
from .diagnostics import summarize
from . import __version__
from .process import ProcessConfig, check_arithmetic, check_epsilon, \
    run_process

TRIALS_SCHEMA = "orthomate-trials-v2"

#: exit code of ``trials`` when a pool worker died (killed, crashed)
EXIT_WORKER_DIED = 3

#: set-threads entry points of the OpenBLAS builds numpy and scipy ship
#: (64-bit-integer scipy-openblas, 32-bit scipy-openblas, plain OpenBLAS)
OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                        "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads")

TRIAL_COLUMNS = (
    "trial", "seed", "n", "m", "epsilon", "algorithm", "outcome",
    "exit_time", "detail", "eta_max_used", "eta_mean_used",
    "b_rel_dev_max", "c_rel_dev_max", "p_max", "kills_line_max",
    "wall_time_s",
)


@dataclass
class TrialRecord:
    trial: int
    seed: int
    n: int
    m: int
    epsilon: float
    algorithm: str
    # success | gamma_exit | infeasible_row | baseline_failure
    # | verification_failed
    outcome: str
    exit_time: object
    detail: str
    eta_max_used: float
    eta_mean_used: float
    b_rel_dev_max: float
    c_rel_dev_max: float
    p_max: float
    kills_line_max: int
    wall_time_s: float


def _read_rectangle(path: str) -> LatinRectangle:
    with open(path) as fh:
        return parse_rectangle(fh.read())


def _epsilon_arg(text: str) -> float:
    """argparse type of --epsilon: a finite number >= 0."""
    try:
        return check_epsilon(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@contextlib.contextmanager
def _output_file(path):
    """path opened for writing before the run, so that a bad path costs no
    compute, and removed again if the run fails, so no partial or empty
    file is left behind."""
    fh = open(path, "w", newline="")
    try:
        with fh:
            yield fh
    except BaseException:
        if os.path.isfile(path):  # never a device such as /dev/null
            os.unlink(path)
        raise


def _open_trajectory_csv(path, cfg: ProcessConfig):
    """The trajectory CSV file as an _output_file; a null context when
    there is nothing to write."""
    if path and cfg.record_trajectory:
        return _output_file(path)
    return contextlib.nullcontext()


def _derived_m(args) -> int:
    """--m, or round((1 - epsilon) n); ValueError outside [1, n]."""
    m = args.m if args.m is not None else round((1.0 - args.epsilon) * args.n)
    if not 1 <= m <= args.n:
        raise ValueError(f"derived m={m} outside [1, n]")
    return m


def _config_from_args(args) -> ProcessConfig:
    """The --config file with flag overrides; ValueError on a bad value."""
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = ProcessConfig.from_json(json.load(fh))
    else:
        cfg = ProcessConfig()
    overrides = {}
    if getattr(args, "eta_initial", None) is not None:
        overrides["eta_initial"] = args.eta_initial
    if getattr(args, "eta_max", None) is not None:
        overrides["eta_max"] = args.eta_max
    if getattr(args, "exact", False):
        overrides["arithmetic"] = "exact"
    return replace(cfg, **overrides)  # re-runs the validation


def cmd_gen(args) -> int:
    if not 1 <= args.m <= args.n:
        print(f"error: need 1 <= m <= n, got m={args.m}, n={args.n}",
              file=sys.stderr)
        return 1
    rect = random_latin_rectangle(args.n, args.m, np.random.default_rng(args.seed))
    if not verify_latin(rect).ok:
        print("error: generated rectangle failed verification", file=sys.stderr)
        return 2
    try:
        with open(args.out, "w") as fh:
            fh.write(rect.to_text())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_mate(args) -> int:
    try:
        J = _read_rectangle(args.input)
    except (OSError, ParseError, NotLatin) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cfg = _config_from_args(args)
    mate = None
    failure = {}
    if args.algorithm == "guided":
        check_arithmetic(J.shape.n, cfg)
        with _open_trajectory_csv(args.diag, cfg) as diag_fh:
            outcome = run_process(J, epsilon=args.epsilon, seed=args.seed,
                                  config=cfg)
            if diag_fh is not None:
                outcome.trajectory.to_csv(diag_fh)
        if outcome.success:
            mate = outcome.rectangle
        else:
            failure = {
                "outcome": outcome.kind,
                "exit_time": outcome.time,
                "detail": outcome.detail,
                "violations": [
                    {"inequality": v.ineq, "location": list(v.location),
                     "lhs": v.lhs, "margin": v.margin}
                    for v in (outcome.gamma_report.violations
                              if outcome.gamma_report else ())
                ],
            }
    elif args.algorithm == "hall":
        try:
            mate = hall_greedy(J, rng=np.random.default_rng(args.seed))
        except NoPerfectMatching as exc:
            failure = {"outcome": "baseline_failure", "detail": str(exc)}
    elif args.algorithm == "backtrack":
        try:
            mate = backtrack_mate(J, node_limit=args.node_limit)
        except OrthomateError as exc:
            failure = {"outcome": "baseline_failure", "detail": str(exc)}
        if mate is None and not failure:
            failure = {"outcome": "exhausted",
                       "detail": "search space exhausted: no orthogonal mate"}
    else:
        print(f"error: unknown algorithm {args.algorithm}", file=sys.stderr)
        return 1

    if mate is None:
        print(json.dumps(failure, indent=2))
        return 2
    if not (verify_latin(mate).ok and verify_orthogonal(mate, J).ok):
        print("error: constructed mate failed re-verification", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(mate.to_text())
    else:
        sys.stdout.write(mate.to_text())
    return 0


def cmd_verify(args) -> int:
    try:
        J = _read_rectangle(args.j_path)
        L = _read_rectangle(args.l_path)
    except (OSError, ParseError, NotLatin) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems = []
    for name, rect in (("J", J), ("L", L)):
        rep = verify_latin(rect)
        problems += [f"{name}: {v}" for v in rep.violations]
    if not problems:
        try:
            rep = verify_orthogonal(L, J)
            problems += list(rep.violations)
        except ShapeMismatch as exc:
            problems.append(f"ShapeMismatch: {exc}")
    if problems:
        for p in problems:
            print(p)
        return 2
    print("ok")
    return 0


def _is_mate(L: LatinRectangle, J: LatinRectangle) -> bool:
    return verify_latin(L).ok and verify_orthogonal(L, J).ok


def run_single_trial(packed) -> TrialRecord:
    """One trial; module-level so process pools can pickle it."""
    (trial, seed, n, m, epsilon, algorithm, cfg_json) = packed
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    J = random_latin_rectangle(n, m, rng)
    cfg = ProcessConfig.from_json(cfg_json)
    outcome_kind, exit_time, detail = "success", "", ""
    eta_max_used = eta_mean_used = math.nan
    b_dev = c_dev = p_max = math.nan
    kills_max = 0
    if algorithm == "guided":
        res = run_process(J, epsilon=epsilon, seed=seed, config=cfg)
        outcome_kind = res.kind
        exit_time = res.time if res.time is not None else ""
        detail = res.detail
        if res.trajectory is not None and res.trajectory.records:
            summ = summarize(res.trajectory, exit_time=res.time)
            eta_max_used = summ.eta_max_used
            eta_mean_used = summ.eta_mean_used
            b_dev = summ.b_rel_dev_max
            c_dev = summ.c_rel_dev_max
            p_max = summ.p_max
            kills_max = summ.kills_line_max
        if res.success and not _is_mate(res.rectangle, J):
            outcome_kind = "verification_failed"
    elif algorithm == "hall":
        try:
            mate = hall_greedy(J, rng=np.random.default_rng(seed))
            if not _is_mate(mate, J):
                outcome_kind = "verification_failed"
        except NoPerfectMatching as exc:
            outcome_kind, detail = "baseline_failure", str(exc)
    else:
        raise ValueError(f"unsupported trial algorithm {algorithm}")
    wall = time.perf_counter() - t0
    return TrialRecord(
        trial=trial, seed=seed, n=n, m=m, epsilon=epsilon,
        algorithm=algorithm, outcome=outcome_kind, exit_time=exit_time,
        detail=detail, eta_max_used=eta_max_used, eta_mean_used=eta_mean_used,
        b_rel_dev_max=b_dev, c_rel_dev_max=c_dev, p_max=p_max,
        kills_line_max=kills_max, wall_time_s=wall,
    )


def _one_blas_thread() -> None:
    """Pool initializer: give this ``trials`` worker one BLAS thread.

    A forked worker inherits the parent's OpenBLAS, already sized to one
    thread per core, so --jobs workers would share the cores among
    jobs x cores BLAS threads.  The variables cover a BLAS loaded later in
    the worker; every OpenBLAS already mapped (numpy's and scipy's) is
    re-sized through its own entry point.  A library that cannot be found
    or loaded keeps the inherited setting: pinning is never worth failing
    the trials (an initializer that raises breaks the pool).
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh
                     if "openblas" in line}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in OPENBLAS_SET_THREADS:
            set_threads = getattr(lib, name, None)
            if set_threads is not None:
                set_threads(1)
                break


def _run_trials(jobs, workers: int) -> list:
    """The TrialRecords of jobs, in trial order.  More than one worker
    means a fork pool (no re-import, no helper process) whose workers run
    one BLAS thread each; the with block joins every worker."""
    if workers == 1:
        return [run_single_trial(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_one_blas_thread) as pool:
        return list(pool.map(run_single_trial, jobs))


def cmd_trials(args) -> int:
    if args.count < 1:
        print("error: --count must be >= 1", file=sys.stderr)
        return 1
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 1
    n = args.n
    m = _derived_m(args)
    cfg = _config_from_args(args)
    if args.algorithm == "guided":
        check_arithmetic(n, cfg)
    jobs = [
        (i, args.seed + i, n, m, args.epsilon, args.algorithm, cfg.to_json())
        for i in range(args.count)
    ]
    provenance = (f"orthomate={__version__} seed={args.seed}+trial config="
                  + json.dumps(cfg.to_json(), separators=(",", ":")))
    try:
        with _output_file(args.out) as fh:
            records = _run_trials(jobs, min(args.jobs, len(jobs)))
            fh.write(f"# {TRIALS_SCHEMA} {provenance}\n")
            writer = csv.writer(fh)
            writer.writerow(TRIAL_COLUMNS)
            for rec in records:
                d = asdict(rec)
                writer.writerow([d[c] for c in TRIAL_COLUMNS])
    except BrokenProcessPool as exc:
        print(f"error: a trials worker died: {exc}", file=sys.stderr)
        return EXIT_WORKER_DIED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    successes = sum(1 for r in records if r.outcome == "success")
    print(f"success fraction: {successes / len(records):.4f} "
          f"({successes}/{len(records)})")
    unverified = [r.trial for r in records if r.outcome == "verification_failed"]
    if unverified:
        print(f"error: mates of trials {unverified} failed re-verification",
              file=sys.stderr)
        return 2
    return 0


def cmd_diag(args) -> int:
    m = _derived_m(args)
    cfg = _config_from_args(args)
    check_arithmetic(args.n, cfg)
    J = random_latin_rectangle(args.n, m, np.random.default_rng(args.seed))
    with _open_trajectory_csv(args.out, cfg) as fh:
        outcome = run_process(J, epsilon=args.epsilon, seed=args.seed,
                              config=cfg)
        if fh is not None:
            outcome.trajectory.to_csv(fh)
    if outcome.trajectory is not None and outcome.trajectory.records:
        summ = summarize(outcome.trajectory, exit_time=outcome.time)
        print(summ.to_json())
    else:
        print(json.dumps({"outcome": outcome.kind, "exit_time": outcome.time,
                          "detail": outcome.detail}, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthomate",
        description="Orthogonal mates for Latin rectangles: generation, "
                    "construction, verification, trial ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a random Latin rectangle")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)

    p_mate = sub.add_parser("mate", help="construct an orthogonal mate")
    p_mate.add_argument("--in", dest="input", required=True,
                        help="path of the reference rectangle J")
    p_mate.add_argument("--algorithm", default="guided",
                        choices=("guided", "hall", "backtrack"))
    p_mate.add_argument("--epsilon", type=_epsilon_arg, default=None)
    p_mate.add_argument("--seed", type=int, default=0)
    p_mate.add_argument("--eta-initial", type=float, default=None)
    p_mate.add_argument("--eta-max", type=float, default=None)
    p_mate.add_argument("--exact", action="store_true",
                        help="exact rational state arithmetic (n <= 12)")
    p_mate.add_argument("--node-limit", type=int, default=2_000_000)
    p_mate.add_argument("--config", default=None,
                        help="ProcessConfig JSON file; flags override")
    p_mate.add_argument("--out", default=None)
    p_mate.add_argument("--diag", default=None,
                        help="write the trajectory CSV here")

    p_ver = sub.add_parser("verify", help="verify a rectangle pair")
    p_ver.add_argument("--j", dest="j_path", required=True)
    p_ver.add_argument("--l", dest="l_path", required=True)

    p_tr = sub.add_parser("trials", help="run a seeded trial ensemble")
    p_tr.add_argument("--n", type=int, required=True)
    p_tr.add_argument("--m", type=int, default=None)
    p_tr.add_argument("--epsilon", type=_epsilon_arg, default=0.5)
    p_tr.add_argument("--count", type=int, required=True)
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument("--algorithm", default="guided",
                      choices=("guided", "hall"))
    p_tr.add_argument("--eta-initial", type=float, default=None)
    p_tr.add_argument("--eta-max", type=float, default=None)
    p_tr.add_argument("--exact", action="store_true")
    p_tr.add_argument("--jobs", type=int, default=1)
    p_tr.add_argument("--config", default=None)
    p_tr.add_argument("--out", required=True)

    p_di = sub.add_parser("diag", help="one guided run with full diagnostics")
    p_di.add_argument("--n", type=int, required=True)
    p_di.add_argument("--m", type=int, default=None)
    p_di.add_argument("--epsilon", type=_epsilon_arg, default=0.5)
    p_di.add_argument("--seed", type=int, default=0)
    p_di.add_argument("--eta-initial", type=float, default=None)
    p_di.add_argument("--eta-max", type=float, default=None)
    p_di.add_argument("--exact", action="store_true")
    p_di.add_argument("--config", default=None)
    p_di.add_argument("--out", default=None,
                      help="write the trajectory CSV here")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    handlers = {
        "gen": cmd_gen,
        "mate": cmd_mate,
        "verify": cmd_verify,
        "trials": cmd_trials,
        "diag": cmd_diag,
    }
    try:
        return handlers[args.command](args)
    except OrthomateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
