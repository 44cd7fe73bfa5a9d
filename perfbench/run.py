"""Seeded benchmark of the guided orthogonal-mate constructor.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ensemble-n64 --seed 0 --seconds 10 --trace 0

The program under test is imported from ``src/`` of the same checkout.
The benchmark builds every input J from ``--seed`` during set-up; the
program receives only J, epsilon, the run seed and its config.  It sets no
thread variable for the program: the BLAS threading users get is what gets
measured, and the values found are reported.

``--trace 0`` measures the end-to-end metrics over whole batches of inputs
until ``--seconds`` have passed.
``--trace 1`` runs each input of one batch twice, untraced and with every
layer wrapped (see ``tracing.py``), in alternating order; it checks that
both passes give the same outcome digest and reports the per-layer metrics.

Standard output ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it give
every metric by name and unit, the outcome digest and the machine facts.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: set-up (J generation plus warm-up run) is repeated this often before the
#: measured pass and this often after it; the median of all repeats then
#: spans the whole run, as the run metrics do, rather than its first seconds
SETUP_BEFORE = 2
SETUP_AFTER = 2

#: percentiles tried for run_s.tail, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10

#: seed stream of the warm-up input, apart from the batch inputs 0, 1, ...
WARM_UP_STREAM = 1_000_000


@dataclass(frozen=True)
class Guided:
    """Serial guided runs: batch inputs, cycling epsilons."""

    n: int
    epsilons: tuple
    batch: int
    record: bool


@dataclass(frozen=True)
class Trials:
    """One in-process ``orthomate trials`` command per repetition."""

    n: int
    epsilon: float
    count: int
    jobs: int


# Many short runs make per-call overhead in flow, maxflow, sampler and
# recorder the cost; the large state at n = 192 puts about half the time in
# check_gamma and advance_state; trials-jobs2 is the only path through the
# process pool, where unpinned BLAS threads oversubscribe the cores.  Batch
# sizes make one batch take 20-50 s on a 2-core VM, long enough to average
# over the speed swings of a shared machine.
WORKLOADS = {
    "ensemble-n64": Guided(n=64, epsilons=(0.5, 0.75), batch=40,
                           record=True),
    "state-n192": Guided(n=192, epsilons=(0.5,), batch=2, record=False),
    "trials-jobs2": Trials(n=128, epsilon=0.75, count=4, jobs=2),
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

OUTCOME_KINDS = ("success", "gamma_exit", "infeasible_row")


def load_program() -> float:
    """Import orthomate from this checkout's src/; returns the import time."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    try:
        import numpy  # noqa: F401
        import orthomate
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import orthomate from {src}: "
                         f"{exc}")
    if not Path(orthomate.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: orthomate imported from "
                         f"{orthomate.__file__}, not from {src}")
    return time.perf_counter() - t0


def rows_of(m: int, kind: str, exit_time) -> int:
    """Rows placed before the run stopped."""
    return m if kind == "success" else int(exit_time)


def digest(keys) -> str:
    return hashlib.sha256(repr(list(keys)).encode()).hexdigest()


# --------------------------------------------------------------- set-up

def make_inputs(spec, seed: int) -> list:
    """(J, epsilon, run seed) per input; trials build the same J themselves."""
    import numpy as np
    from orthomate.baselines import random_latin_rectangle

    if isinstance(spec, Trials):
        m = round((1.0 - spec.epsilon) * spec.n)
        base = trial_base_seed(seed)
        return [(random_latin_rectangle(spec.n, m,
                                        np.random.default_rng(base + i)),
                 spec.epsilon, base + i) for i in range(spec.count)]
    inputs = []
    for i in range(spec.batch):
        eps = spec.epsilons[i % len(spec.epsilons)]
        m = round((1.0 - eps) * spec.n)
        rng = np.random.default_rng([seed, i])
        inputs.append((random_latin_rectangle(spec.n, m, rng), eps,
                       int(rng.integers(2 ** 31))))
    return inputs


def trial_base_seed(seed: int) -> int:
    return 10_000 * seed


def warm_up(seed: int) -> None:
    """One small guided run: pays scipy's lazy imports and first calls."""
    import numpy as np
    from orthomate.baselines import random_latin_rectangle
    from orthomate.process import run_process

    rng = np.random.default_rng([seed, WARM_UP_STREAM])
    run_process(random_latin_rectangle(32, 16, rng), epsilon=0.5, seed=seed)


def set_up(spec, seed: int, repeats: int):
    """Inputs, and (J generation, whole set-up) seconds of each repeat."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        inputs = make_inputs(spec, seed)
        t1 = time.perf_counter()
        warm_up(seed)
        times.append((t1 - t0, time.perf_counter() - t0))
    return inputs, times


# --------------------------------------------------------- guided runs

@dataclass
class Run:
    index: int
    wall: float
    key: tuple
    rows: int
    kind: str


def outcome_key(out) -> tuple:
    """(kind, exit time, mate grid hash, first Gamma violation)."""
    import numpy as np

    grid = None
    if out.rectangle is not None:
        grid = hashlib.sha256(np.ascontiguousarray(
            out.rectangle.grid, dtype=np.int64).tobytes()).hexdigest()
    first = None
    if out.gamma_report is not None and out.gamma_report.violations:
        v = out.gamma_report.violations[0]
        first = (v.ineq, v.location)
    return (out.kind, out.time, grid, first)


def one_run(index: int, inp, config, mates: dict) -> Run:
    """Time one guided run; keep its mate for verification after timing."""
    from orthomate.process import run_process

    J, eps, run_seed = inp
    t0 = time.perf_counter()
    try:
        out = run_process(J, epsilon=eps, seed=run_seed, config=config)
    except Exception as exc:  # an exception is a failed operation, not fatal
        wall = time.perf_counter() - t0
        return Run(index, wall, ("error", type(exc).__name__, str(exc)),
                   0, "error")
    wall = time.perf_counter() - t0
    if out.rectangle is not None:
        mates.setdefault(index, out.rectangle)
    return Run(index, wall, outcome_key(out),
               rows_of(J.shape.m, out.kind, out.time), out.kind)


def guided_pass(spec: Guided, inputs, seconds: float, mates: dict):
    """Whole batches over the inputs until seconds have passed (at least one)."""
    from orthomate.process import ProcessConfig

    config = ProcessConfig(record_trajectory=spec.record)
    runs = []
    t0 = time.perf_counter()
    while not runs or time.perf_counter() - t0 < seconds:
        runs += [one_run(i, inp, config, mates)
                 for i, inp in enumerate(inputs)]
    return runs, time.perf_counter() - t0


def paired_pass(spec: Guided, inputs, mates: dict):
    """Each input untraced and traced, the order alternating per input.

    Returns (untraced runs, traced runs, tracer).  Alternating the order
    keeps warm-up and drift out of the traced/untraced comparison.
    """
    from orthomate.process import ProcessConfig
    from tracing import LayerTracer

    config = ProcessConfig(record_trajectory=spec.record)
    tracer = LayerTracer()
    plain, traced = [], []
    for i, inp in enumerate(inputs):
        for wrapped in ((False, True) if i % 2 == 0 else (True, False)):
            if wrapped:
                with tracer:
                    traced.append(one_run(i, inp, config, mates))
            else:
                plain.append(one_run(i, inp, config, mates))
    return plain, traced, tracer


def check_guided(runs, inputs, mates) -> tuple:
    """(failed runs, problems): re-verification and repeat consistency."""
    from orthomate.core import verify_latin, verify_orthogonal

    bad = {i for i, L in mates.items()
           if not (L.shape == inputs[i][0].shape and verify_latin(L).ok
                   and verify_orthogonal(L, inputs[i][0]).ok)}
    problems = [f"input {i}: mate failed re-verification" for i in sorted(bad)]
    first = {}
    for r in runs:
        if first.setdefault(r.index, r.key) != r.key:
            problems.append(f"input {r.index}: repeat gave another outcome")
    failed = sum(1 for r in runs if r.kind == "error" or r.index in bad)
    return failed, problems


def batch_keys(runs, batch: int) -> list:
    return [r.key for r in runs[:batch]]


# -------------------------------------------------------------- trials

@dataclass
class Command:
    wall: float
    rc: int
    rows: list  # one dict per CSV row


def trials_command(spec: Trials, seed: int) -> Command:
    """Run ``orthomate trials`` in-process and read back its CSV."""
    from orthomate import cli

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trials-{os.getpid()}.csv"
    argv = ["trials", "--n", str(spec.n), "--epsilon", str(spec.epsilon),
            "--jobs", str(spec.jobs), "--count", str(spec.count),
            "--seed", str(trial_base_seed(seed)), "--out", str(path)]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except Exception as exc:  # counted as failed trials, not fatal
        print(f"perfbench: trials raised {exc!r}", file=sys.stderr)
        rc = -1
    wall = time.perf_counter() - t0
    rows = []
    if rc == 0:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(line for line in fh
                                       if not line.startswith("#")))
    path.unlink(missing_ok=True)
    return Command(wall, rc, rows)


def trial_keys(cmd: Command) -> list:
    return [(r["trial"], r["seed"], r["outcome"], r["exit_time"], r["detail"])
            for r in cmd.rows]


def check_trials(spec: Trials, seed: int, cmds) -> tuple:
    """(failed trials, problems) over every command run."""
    base = trial_base_seed(seed)
    m = round((1.0 - spec.epsilon) * spec.n)
    failed, problems = 0, []
    for cmd in cmds:
        if cmd.rc != 0:
            failed += spec.count
            problems.append(f"trials exited with {cmd.rc}")
            continue
        expected = [(str(i), str(base + i)) for i in range(spec.count)]
        if [(r["trial"], r["seed"]) for r in cmd.rows] != expected:
            failed += spec.count
            problems.append("trials CSV rows do not match the trials asked")
            continue
        for r in cmd.rows:
            ok = r["outcome"] in OUTCOME_KINDS and (
                r["exit_time"] == "" if r["outcome"] == "success"
                else 0 <= int(r["exit_time"]) < m)
            if not ok:
                failed += 1
                problems.append(f"trial {r['trial']}: bad outcome row {r}")
    keys = [trial_keys(c) for c in cmds if c.rc == 0]
    if any(k != keys[0] for k in keys):
        problems.append("repeated trials command gave other outcomes")
    return failed, problems


def trials_pass(spec: Trials, seed: int, seconds: float):
    cmds = []
    t0 = time.perf_counter()
    while not cmds or time.perf_counter() - t0 < seconds:
        cmds.append(trials_command(spec, seed))
    return cmds, time.perf_counter() - t0


# ------------------------------------------------------------- metrics

#: every end-to-end metric the benchmark reports, with its unit
END_TO_END = {
    "setup_s": "s", "run_s.p50": "s", "run_s.tail": "s", "runs_per_s": "1/s",
    "rows_per_s": "rows/s", "success_frac": "ratio",
    "rows_placed_mean": "rows", "failed_frac": "ratio", "peak_rss_mb": "MB",
}

#: every per-layer metric, with its unit; see README.md for what each moves
PER_LAYER = {
    "gamma.calls": "count", "gamma.s": "s", "gamma.share": "ratio",
    "advance.calls": "count", "advance.s": "s", "advance.share": "ratio",
    "normalize.s": "s",
    "flow.calls": "count", "flow.s": "s", "flow.self_s": "s",
    "flow.share": "ratio", "flow.eta_steps": "count",
    "flow.eta_escalations": "count", "flow.solves_per_row": "count/row",
    "maxflow.scipy.calls": "count", "maxflow.scipy.s": "s",
    "maxflow.scipy.infeasible": "count", "maxflow.scipy.ambiguous": "count",
    "maxflow.dinic.calls": "count", "maxflow.dinic.s": "s",
    "sample.calls": "count", "sample.s": "s", "sample.self_s": "s",
    "sample.share": "ratio",
    "bipartite.match.calls": "count", "bipartite.match.s": "s",
    "bipartite.match.miss": "count", "bipartite.match.per_row": "count/row",
    "bipartite.match.useful_frac": "ratio",
    "record.calls": "count", "record.s": "s", "record.share": "ratio",
    "trials.trial_s.p50": "s", "trials.busy_s": "s", "trials.pool_eff": "ratio",
    "setup.gen_s": "s",
    "trace.wall_s": "s", "trace.overhead": "ratio",
    "trace.unattributed_s": "s",
}


def peak_rss_mb() -> float:
    """Own peak RSS plus the largest finished child's (the pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def tail(walls) -> tuple:
    """(percentile, value) of the highest percentile with >= 10 beyond it."""
    for p in TAIL_PERCENTILES:
        if len(walls) * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            cuts = statistics.quantiles(walls, n=1000, method="inclusive")
            return p, cuts[round(p * 10) - 1]
    return None, None


def end_to_end(walls, rows, successes, wall_total, attempted,
               failed) -> tuple:
    """(metrics, notes): the end-to-end metrics but setup_s, and tail notes.

    walls, rows and successes have one entry per completed run, over whole
    batches, so success and rows placed are fixed by the seed.
    """
    p, tail_value = tail(walls)
    metrics = {
        "run_s.p50": statistics.median(walls),
        "run_s.tail": tail_value,
        "runs_per_s": len(walls) / wall_total,
        "rows_per_s": sum(rows) / wall_total,
        "success_frac": statistics.mean(successes),
        "rows_placed_mean": statistics.mean(rows),
        "failed_frac": failed / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, {"run_s.tail": {"percentile": p, "samples": len(walls)}}


def guided_layers(spans, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of the traced guided pass."""
    from tracing import TOP_LEVEL

    s = spans
    scipy_res = s["scipy"].results
    solves = s["scipy"].calls + s["dinic"].calls - scipy_res.get("ambiguous", 0)
    matches = s["match"].calls
    misses = s["match"].results.get("miss", 0)
    out = {
        "normalize.s": s["normalize"].seconds,
        "flow.self_s": (s["flow"].seconds - s["scipy"].seconds
                        - s["dinic"].seconds),
        "flow.eta_steps": s["eta_step"].calls,
        "flow.eta_escalations": s["eta_step"].results.get("infeasible", 0),
        "flow.solves_per_row": solves / max(s["flow"].calls, 1),
        "maxflow.scipy.calls": s["scipy"].calls,
        "maxflow.scipy.s": s["scipy"].seconds,
        "maxflow.scipy.infeasible": scipy_res.get("infeasible", 0),
        "maxflow.scipy.ambiguous": scipy_res.get("ambiguous", 0),
        "maxflow.dinic.calls": s["dinic"].calls,
        "maxflow.dinic.s": s["dinic"].seconds,
        "sample.self_s": s["sample"].seconds - s["match"].seconds,
        "bipartite.match.calls": matches,
        "bipartite.match.s": s["match"].seconds,
        "bipartite.match.miss": misses,
        "bipartite.match.per_row": matches / max(s["sample"].calls, 1),
        "bipartite.match.useful_frac": (matches - misses) / max(matches, 1),
        "trace.wall_s": traced_wall,
        "trace.overhead": traced_wall / untraced_wall - 1.0,
        "trace.unattributed_s": (
            traced_wall - sum(s[k].seconds for k in TOP_LEVEL)),
    }
    for key in ("gamma", "advance", "flow", "sample", "record"):
        out[f"{key}.calls"] = s[key].calls
        out[f"{key}.s"] = s[key].seconds
        out[f"{key}.share"] = s[key].seconds / traced_wall
    return out


def trials_layers(spec: Trials, cmd: "Command") -> dict:
    """Per-layer metrics of one trials command, from its CSV.

    No wrapper is installed (the guided layers run in pool workers), so
    trace.overhead reads 0.
    """
    walls = [float(r["wall_time_s"]) for r in cmd.rows]
    busy = sum(walls)
    return {
        "trials.trial_s.p50": statistics.median(walls),
        "trials.busy_s": busy,
        "trials.pool_eff": busy / (spec.jobs * cmd.wall),
        "trace.wall_s": cmd.wall,
        "trace.overhead": 0.0,
        "trace.unattributed_s": cmd.wall - busy / spec.jobs,
    }


# ------------------------------------------------------------ workloads

@dataclass
class Result:
    metrics: dict
    notes: dict
    attempted: int
    failed: int
    problems: list
    digest: str


def bench_guided(spec: Guided, inputs, seconds: float, trace: bool) -> Result:
    from tracing import originals_restored

    mates = {}
    if not trace:
        runs, wall = guided_pass(spec, inputs, seconds, mates)
        failed, problems = check_guided(runs, inputs, mates)
        metrics, notes = end_to_end(
            [r.wall for r in runs], [r.rows for r in runs],
            [r.kind == "success" for r in runs], wall, len(runs), failed)
        return Result(metrics, notes, len(runs), failed, problems,
                      digest(batch_keys(runs, len(inputs))))

    plain, traced, tracer = paired_pass(spec, inputs, mates)
    wiring = tracer.coverage(recording=spec.record)
    if not originals_restored():
        wiring.append("wrapped functions were not restored")
    if wiring:
        raise SystemExit("perfbench: layer tracing is miswired:\n  "
                         + "\n  ".join(wiring))
    failed, problems = check_guided(plain + traced, inputs, mates)
    plain_digest = digest(batch_keys(plain, len(inputs)))
    if digest(batch_keys(traced, len(inputs))) != plain_digest:
        problems.append("traced digest differs from the untraced one")
    layers = guided_layers(tracer.spans, sum(r.wall for r in traced),
                           sum(r.wall for r in plain))
    return Result(layers, {}, len(plain) + len(traced), failed, problems,
                  plain_digest)


def bench_trials(spec: Trials, seed: int, seconds: float,
                 trace: bool) -> Result:
    m = round((1.0 - spec.epsilon) * spec.n)
    cmds, wall = trials_pass(spec, seed, 0.0 if trace else seconds)
    failed, problems = check_trials(spec, seed, cmds)
    done = [c for c in cmds if c.rc == 0]
    if not done:
        raise SystemExit("perfbench: every trials command failed:\n  "
                         + "\n  ".join(problems))
    attempted = spec.count * len(cmds)
    trial_digest = digest(trial_keys(done[0]))
    if trace:
        return Result(trials_layers(spec, done[0]), {}, attempted, failed,
                      problems, trial_digest)
    rows = [r for c in done for r in c.rows]
    walls = [float(r["wall_time_s"]) for r in rows]
    placed = [rows_of(m, r["outcome"], r["exit_time"]) for r in rows]
    metrics, notes = end_to_end(
        walls, placed, [r["outcome"] == "success" for r in rows], wall,
        attempted, failed)
    return Result(metrics, notes, attempted, failed, problems, trial_digest)


# ---------------------------------------------------------- provenance

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy
    import orthomate

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "orthomate": orthomate.__version__,
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


# ----------------------------------------------------------------- main

def contract_metrics(trace: bool) -> list:
    """Names BENCHMARK.json lists for this mode, in its order."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = load_program()
    names = contract_metrics(bool(args.trace))
    spec = WORKLOADS[args.workload]
    inputs, setups = set_up(spec, args.seed, SETUP_BEFORE)
    trace = bool(args.trace)
    try:
        if isinstance(spec, Trials):
            res = bench_trials(spec, args.seed, args.seconds, trace)
        else:
            res = bench_guided(spec, inputs, args.seconds, trace)
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
    setups += set_up(spec, args.seed, SETUP_AFTER)[1]
    if trace:
        res.metrics["setup.gen_s"] = statistics.median(g for g, _ in setups)
    else:
        res.metrics["setup_s"] = import_s + statistics.median(
            t for _, t in setups)
    for problem in res.problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    units = PER_LAYER if trace else END_TO_END
    # layers a workload does not run (the guided layers on trials-jobs2,
    # whose calls happen in pool workers) read 0
    values = {k: res.metrics.get(k, 0) for k in units}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"digest {res.digest}")
    for name, unit in units.items():
        shown = "n/a" if values[name] is None else f"{values[name]:.6g}"
        extra = f"  {res.notes[name]}" if name in res.notes else ""
        print(f"  {name:<30} {shown:>12} {unit}{extra}")
    print("report " + json.dumps({
        "workload": args.workload, "digest": res.digest,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
        "notes": res.notes, "machine": machine_facts(args.seed),
    }))
    print(json.dumps({
        "correct": not res.problems,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
