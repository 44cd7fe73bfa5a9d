"""Command-line front end: gen, mate, verify, trials, diag.

Exit codes are a stable scripting contract: 0 success, 1 usage or I/O
problems, 2 algorithmic failure (no mate found, verification failed),
3 a ``trials`` worker process died.  Every success path re-verifies its
output before writing; an unverified rectangle is never written, and a
failed run leaves no output file.  Trial ensembles derive per-trial seeds
as seed + index, so results are reproducible under any parallel schedule.
A guided run's ProcessConfig comes from the command alone: --exact sets its
arithmetic, and it records exactly when the command's output holds recorded
data (``mate`` with --diag, ``diag``, and guided ``trials``).

Every command runs an algorithm through one function, run_algorithm, and
fails in one place: commands raise, and only main turns an exception into
an error line and an exit code (``verify`` alone reports a ShapeMismatch
as a failed verification).  A flag that the chosen --algorithm does not
read (ALGORITHM_FLAGS) is a usage error raised before any file is read or
opened and before anything runs: in ``trials``, --epsilon with --m and
--algorithm hall, where epsilon derives no m.  A --seed below 0 and an
empty path are usage errors at parse time.
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
from dataclasses import astuple, dataclass, fields

import numpy as np

from .core import (
    LatinRectangle,
    OrthomateError,
    ParseError,
    NotLatin,
    ShapeMismatch,
    parse_rectangle,
    verify_orthogonal,
)
from .baselines import NODE_LIMIT, backtrack_mate, hall_greedy, \
    random_latin_rectangle
from .diagnostics import summarize
from . import __version__
from .process import GammaReport, ProcessConfig, check_arithmetic, \
    check_epsilon, run_process

TRIALS_SCHEMA = "orthomate-trials-v4"

#: exit code of ``trials`` when a pool worker died (killed, crashed)
EXIT_WORKER_DIED = 3

#: set-threads entry points of the OpenBLAS builds numpy and scipy ship
#: (64-bit-integer scipy-openblas, 32-bit scipy-openblas, plain OpenBLAS)
OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                        "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads")

#: the flags of ``mate`` and ``trials`` that one algorithm alone reads:
#: flag -> (that algorithm, what the others lack, as the error says it)
ALGORITHM_FLAGS = {
    "--exact": ("guided", "has no exact arithmetic"),
    "--epsilon": ("guided", "takes no epsilon"),
    "--diag": ("guided", "records no trajectory"),
    "--node-limit": ("backtrack", "has no node budget"),
}

#: the epsilon of ``trials`` and ``diag`` without --epsilon
RUN_EPSILON = 0.5

#: the TrialRecord fields copied from a run's TrajectorySummary, with the
#: values of a run that recorded no step
SUMMARY_DEFAULTS = dict(eta_max_used=math.nan, eta_mean_used=math.nan,
                        b_rel_dev_max=math.nan, c_rel_dev_max=math.nan,
                        p_max=math.nan)


@dataclass
class TrialRecord:
    trial: int
    seed: int
    n: int
    m: int
    epsilon: float
    algorithm: str
    # success | gamma_exit | infeasible_row | baseline_failure | exhausted
    # | verification_failed
    outcome: str
    exit_time: object
    detail: str
    eta_max_used: float
    eta_mean_used: float
    b_rel_dev_max: float
    c_rel_dev_max: float
    p_max: float
    # a gamma_exit's first violation (A, B or C, location, margin), else ""
    violation_family: str
    violation_location: str
    violation_margin: object
    wall_time_s: float


TRIAL_COLUMNS = tuple(f.name for f in fields(TrialRecord))


def _read_rectangle(path: str) -> LatinRectangle:
    """The rectangle in the file at path; a malformed or non-Latin grid is a
    usage error (ValueError with the parser's message)."""
    try:
        with open(path) as fh:
            return parse_rectangle(fh.read())
    except (ParseError, NotLatin) as exc:
        raise ValueError(str(exc)) from None


def _epsilon_arg(text: str) -> float:
    """argparse type of --epsilon: a finite number >= 0."""
    try:
        return check_epsilon(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _path_arg(text: str) -> str:
    """argparse type of every path flag: any path but the empty one."""
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return text


@contextlib.contextmanager
def _output_file(path):
    """path opened for writing before the run, so that a bad path costs no
    compute, and removed again if the run fails or writes nothing, so no
    partial or empty file is left behind; None for no path."""
    if path is None:
        yield None
        return
    fh = open(path, "w", newline="")
    try:
        with fh:
            yield fh
    except BaseException:
        if os.path.isfile(path):  # never a device such as /dev/null
            os.unlink(path)
        raise
    if os.path.isfile(path) and os.path.getsize(path) == 0:
        os.unlink(path)


def _provenance(seed, cfg: ProcessConfig) -> str:
    """What the first line of a CSV output carries after its schema name:
    the package version, the seed and the compact config JSON."""
    return (f"orthomate={__version__} seed={seed} config="
            + json.dumps(cfg.to_json(), separators=(",", ":")))


def _run_shape(args) -> tuple:
    """(m, epsilon) of a ``trials`` or ``diag`` run: epsilon is --epsilon
    or RUN_EPSILON, m is --m or round((1 - epsilon) n); ValueError when m
    is outside [1, n]."""
    epsilon = RUN_EPSILON if args.epsilon is None else args.epsilon
    m = args.m if args.m is not None else round((1.0 - epsilon) * args.n)
    if not 1 <= m <= args.n:
        raise ValueError(f"derived m={m} outside [1, n]")
    return m, epsilon


def _int_at_least(low: int):
    """argparse type of an integer >= low."""
    def parse(text: str) -> int:
        with contextlib.suppress(ValueError):
            if (value := int(text)) >= low:
                return value
        raise argparse.ArgumentTypeError(
            f"expected an integer >= {low}, got {text!r}")
    return parse


#: argparse types of --node-limit, --count and --jobs, and of --seed
_positive_int = _int_at_least(1)
_seed_int = _int_at_least(0)


def _reject_unread_flags(algorithm: str, given) -> None:
    """ValueError naming the first flag of ALGORITHM_FLAGS that the command
    line set (given: flag -> whether it was set) and algorithm does not
    read."""
    for flag, is_set in given.items():
        reader, lack = ALGORITHM_FLAGS[flag]
        if is_set and algorithm != reader:
            raise ValueError(f"{flag}: --algorithm {algorithm} {lack}")


def cmd_gen(args) -> int:
    rect = random_latin_rectangle(args.n, args.m, np.random.default_rng(args.seed))
    with open(args.out, "w") as fh:
        fh.write(rect.to_text())
    return 0


def _check_distinct_files(*flag_paths) -> None:
    """ValueError when two (flag, path) pairs name the same regular file,
    existing or to be created; a device such as /dev/null may repeat."""
    seen = {}
    for flag, path in flag_paths:
        if path is None:
            continue
        if os.path.isfile(path):
            st = os.stat(path)
            key = (st.st_dev, st.st_ino)
        elif os.path.exists(path):
            continue  # a device or a directory
        else:
            key = os.path.realpath(path)
        if key in seen:
            raise ValueError(f"{seen[key]} and {flag} name the same file "
                             f"{path}")
        seen[key] = flag


def run_algorithm(J: LatinRectangle, algorithm: str, seed, epsilon,
                  cfg: ProcessConfig, node_limit, trajectory_path):
    """(mate, outcome kind, detail, the guided run's ProcessOutcome or None)
    of algorithm on J; the mate is None unless the kind is "success".  A
    guided run's trajectory CSV goes to trajectory_path if one is given,
    opened before the run.

    Raises:
        ValueError: algorithm is none of guided, hall and backtrack.
    """
    if algorithm == "guided":
        with _output_file(trajectory_path) as fh:
            outcome = run_process(J, epsilon=epsilon, seed=seed, config=cfg)
            if fh is not None:
                outcome.trajectory.to_csv(fh, _provenance(seed, cfg))
        return outcome.rectangle, outcome.kind, outcome.detail, outcome
    try:
        if algorithm == "hall":
            mate = hall_greedy(J, rng=np.random.default_rng(seed))
        elif algorithm == "backtrack":
            mate = backtrack_mate(J, node_limit=node_limit)
        else:
            raise ValueError(f"unsupported algorithm {algorithm}")
    except OrthomateError as exc:
        return None, "baseline_failure", str(exc), None
    if mate is None:
        return (None, "exhausted", "search space exhausted: no orthogonal mate",
                None)
    return mate, "success", "", None


def cmd_mate(args) -> int:
    _reject_unread_flags(args.algorithm, {
        "--exact": args.arithmetic == "exact",
        "--epsilon": args.epsilon is not None,
        "--diag": bool(args.diag),
        "--node-limit": args.node_limit is not None})
    _check_distinct_files(("--in", args.input), ("--out", args.out),
                          ("--diag", args.diag))
    J = _read_rectangle(args.input)
    cfg = ProcessConfig(args.arithmetic, record_trajectory=bool(args.diag))
    check_arithmetic(J.shape.n, cfg)
    with _output_file(args.out) as out_fh:
        mate, kind, detail, outcome = run_algorithm(
            J, args.algorithm, args.seed, args.epsilon, cfg,
            args.node_limit or NODE_LIMIT, args.diag)
        if mate is None:
            failure = {"outcome": kind, "detail": detail}
            if outcome is not None:  # a guided run: when it stopped, and why
                rep = outcome.gamma_report or GammaReport(True)
                failure = {"outcome": kind, "exit_time": outcome.time,
                           "detail": detail, "violations": [
                               {"inequality": v.ineq,
                                "location": list(v.location), "lhs": v.lhs,
                                "margin": v.margin, "count": c}
                               for v, c in zip(rep.violations, rep.counts)]}
            print(json.dumps(failure, indent=2))
            return 2
        if not verify_orthogonal(mate, J).ok:
            print("error: constructed mate failed re-verification",
                  file=sys.stderr)
            return 2
        (out_fh or sys.stdout).write(mate.to_text())
    return 0


def cmd_verify(args) -> int:
    J = _read_rectangle(args.j_path)
    L = _read_rectangle(args.l_path)
    try:
        problems = list(verify_orthogonal(L, J).violations)
    except ShapeMismatch as exc:
        problems = [f"ShapeMismatch: {exc}"]
    if problems:
        print(*problems, sep="\n")
        return 2
    print("ok")
    return 0


def run_single_trial(packed) -> TrialRecord:
    """One trial of packed = (trial, seed, n, m, epsilon, algorithm,
    ProcessConfig); module-level so process pools can pickle it."""
    (trial, seed, n, m, epsilon, algorithm, cfg) = packed
    t0 = time.perf_counter()
    J = random_latin_rectangle(n, m, np.random.default_rng(seed))
    mate, kind, detail, res = run_algorithm(J, algorithm, seed, epsilon, cfg,
                                            NODE_LIMIT, None)
    summary, first, exit_time = SUMMARY_DEFAULTS, None, ""
    if res is not None:
        exit_time = res.time if res.time is not None else ""
        if res.trajectory is not None and res.trajectory.records:
            summ = summarize(res.trajectory, exit_time=res.time)
            summary = {k: getattr(summ, k) for k in SUMMARY_DEFAULTS}
        if res.gamma_report is not None:
            first = res.gamma_report.violations[0]
    if mate is not None and not verify_orthogonal(mate, J).ok:
        kind = "verification_failed"
    wall = time.perf_counter() - t0
    return TrialRecord(
        trial=trial, seed=seed, n=n, m=m, epsilon=epsilon,
        algorithm=algorithm, outcome=kind, exit_time=exit_time,
        detail=detail, **summary,
        violation_family=first.ineq[0] if first else "",
        violation_location=" ".join(map(str, first.location)) if first else "",
        violation_margin=first.margin if first else "", wall_time_s=wall,
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
    _reject_unread_flags(args.algorithm, {
        "--exact": args.arithmetic == "exact",
        # with --m given, epsilon derives no m
        "--epsilon": args.epsilon is not None and args.m is not None})
    m, epsilon = _run_shape(args)
    cfg = ProcessConfig(args.arithmetic)
    check_arithmetic(args.n, cfg)
    # scipy's one-time import, outside the timed trials; workers inherit it
    import scipy.sparse.csgraph  # noqa: F401
    jobs = [
        (i, args.seed + i, args.n, m, epsilon, args.algorithm, cfg)
        for i in range(args.count)
    ]
    provenance = _provenance(f"{args.seed}+trial", cfg)
    with _output_file(args.out) as fh:
        records = _run_trials(jobs, min(args.jobs, len(jobs)))
        fh.write(f"# {TRIALS_SCHEMA} {provenance}\n")
        writer = csv.writer(fh)
        writer.writerow(TRIAL_COLUMNS)
        writer.writerows(astuple(rec) for rec in records)
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
    m, epsilon = _run_shape(args)
    cfg = ProcessConfig(args.arithmetic)
    check_arithmetic(args.n, cfg)
    J = random_latin_rectangle(args.n, m, np.random.default_rng(args.seed))
    *_, outcome = run_algorithm(J, "guided", args.seed, epsilon, cfg,
                                None, args.out)
    if outcome.trajectory.records:
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

    # the ProcessConfig arithmetic of each command with a guided run
    p_cfg = argparse.ArgumentParser(add_help=False)
    p_cfg.add_argument("--exact", dest="arithmetic", action="store_const",
                       const="exact", default="float64",
                       help="exact rational state arithmetic (n <= 12)")

    p_gen = sub.add_parser("gen", help="write a random Latin rectangle")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--seed", type=_seed_int, default=0)
    p_gen.add_argument("--out", type=_path_arg, required=True)

    p_mate = sub.add_parser("mate", parents=[p_cfg],
                            help="construct an orthogonal mate")
    p_mate.add_argument("--in", dest="input", type=_path_arg, required=True,
                        help="path of the reference rectangle J")
    p_mate.add_argument("--algorithm", default="guided",
                        choices=("guided", "hall", "backtrack"))
    p_mate.add_argument("--epsilon", type=_epsilon_arg, default=None)
    p_mate.add_argument("--seed", type=_seed_int, default=0)
    p_mate.add_argument("--node-limit", type=_positive_int, default=None)
    p_mate.add_argument("--out", type=_path_arg, default=None)
    p_mate.add_argument("--diag", type=_path_arg, default=None,
                        help="write the trajectory CSV here")

    p_ver = sub.add_parser("verify", help="verify a rectangle pair")
    p_ver.add_argument("--j", dest="j_path", type=_path_arg, required=True)
    p_ver.add_argument("--l", dest="l_path", type=_path_arg, required=True)

    # the J of each run of trials and diag: its order, rows (or epsilon)
    # and seed
    p_run = argparse.ArgumentParser(add_help=False)
    p_run.add_argument("--n", type=int, required=True)
    p_run.add_argument("--m", type=int, default=None)
    p_run.add_argument("--epsilon", type=_epsilon_arg, default=None,
                       help=f"default {RUN_EPSILON}")
    p_run.add_argument("--seed", type=_seed_int, default=0)

    p_tr = sub.add_parser("trials", parents=[p_cfg, p_run],
                          help="run a seeded trial ensemble")
    p_tr.add_argument("--count", type=_positive_int, required=True)
    p_tr.add_argument("--algorithm", default="guided",
                      choices=("guided", "hall"))
    p_tr.add_argument("--jobs", type=_positive_int, default=1)
    p_tr.add_argument("--out", type=_path_arg, required=True)

    p_di = sub.add_parser("diag", parents=[p_cfg, p_run],
                          help="one guided run with full diagnostics")
    p_di.add_argument("--out", type=_path_arg, default=None,
                      help="write the trajectory CSV here")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    handlers = dict(gen=cmd_gen, mate=cmd_mate, verify=cmd_verify,
                    trials=cmd_trials, diag=cmd_diag)
    try:
        return handlers[args.command](args)
    except BrokenProcessPool as exc:
        print(f"error: a trials worker died: {exc}", file=sys.stderr)
        return EXIT_WORKER_DIED
    except (OrthomateError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OrthomateError) else 1
    except MemoryError as exc:  # numpy's message names the array's size
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
