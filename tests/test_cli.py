"""Command-line contract: exit codes, file formats, determinism."""

import csv
import ctypes
import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys

import pytest

from orthomate import parse_rectangle, verify_latin, verify_orthogonal
from orthomate import ProcessConfig, cli
from orthomate.cli import main, run_single_trial
from orthomate.process import gamma_bounds


#: run in a fresh interpreter: `orthomate trials` with each trial's detail
#: replaced by whether scipy's csgraph was imported when the trial began
SCIPY_AT_TRIAL_START = """
import sys
from dataclasses import replace
from orthomate import cli
assert "scipy" not in sys.modules, "importing the CLI imported scipy"
run_trial = cli.run_single_trial

def trial(job):
    loaded = "scipy.sparse.csgraph" in sys.modules
    return replace(run_trial(job), detail=f"scipy={loaded}")

cli.run_single_trial = trial
sys.exit(cli.main(sys.argv[1:]))
"""


def read(path):
    with open(path) as fh:
        return fh.read()


#: get-threads entry points of the OpenBLAS builds numpy and scipy ship
OPENBLAS_GET_THREADS = ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads")

needs_proc = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="reads /proc")


def openblas_thread_counts():
    """Threads reported by each OpenBLAS mapped into this process, read
    through each library's own get entry point."""
    with open("/proc/self/maps") as fh:
        paths = {line.split(maxsplit=5)[5].strip() for line in fh
                 if "openblas" in line}
    counts = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in OPENBLAS_GET_THREADS:
            get_threads = getattr(lib, name, None)
            if get_threads is not None:
                counts.append(get_threads())
                break
    return counts


def trial_reporting_blas_threads(job):
    """Pool stand-in for run_single_trial: the real trial, its detail field
    replaced by the worker's OpenBLAS thread counts."""
    rec = run_single_trial(job)
    rec.detail = " ".join(map(str, openblas_thread_counts()))
    return rec


def worker_dies(job):
    """Pool stand-in for run_single_trial: the worker exits at once."""
    os._exit(1)


def child_pids(pid):
    """Pids of the live or unreaped processes whose parent is pid."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # exited while listing
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            kids.append(int(entry))
    return kids


def strip_wall_time(csv_text):
    lines = csv_text.strip().splitlines()
    out = []
    for line in lines:
        if line.startswith("#") or line.startswith("trial"):
            out.append(line)
        else:
            out.append(line.rsplit(",", 1)[0])
    return "\n".join(out)


class TestGen:
    def test_writes_valid_rectangle(self, tmp_path):
        out = tmp_path / "J.txt"
        assert main(["gen", "--n", "8", "--m", "4", "--seed", "1",
                     "--out", str(out)]) == 0
        rect = parse_rectangle(read(out))
        assert rect.shape.n == 8 and rect.shape.m == 4
        assert verify_latin(rect).ok

    def test_m_exceeds_n_is_usage_error(self, tmp_path):
        assert main(["gen", "--n", "8", "--m", "9",
                     "--out", str(tmp_path / "x.txt")]) == 1

    def test_m_zero_is_usage_error(self, tmp_path):
        assert main(["gen", "--n", "8", "--m", "0",
                     "--out", str(tmp_path / "x.txt")]) == 1

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for p in (a, b):
            assert main(["gen", "--n", "9", "--m", "5", "--seed", "7",
                         "--out", str(p)]) == 0
        assert read(a) == read(b)


class TestMate:
    def test_guided_single_row(self, tmp_path):
        jp, lp = tmp_path / "J.txt", tmp_path / "L.txt"
        main(["gen", "--n", "6", "--m", "1", "--seed", "0", "--out", str(jp)])
        assert main(["mate", "--in", str(jp), "--out", str(lp)]) == 0
        J = parse_rectangle(read(jp))
        L = parse_rectangle(read(lp))
        assert verify_orthogonal(L, J).ok

    def test_backtrack_order2_exhausted(self, tmp_path, capsys):
        jp = tmp_path / "J.txt"
        jp.write_text("0 1\n1 0\n")
        code = main(["mate", "--in", str(jp), "--algorithm", "backtrack"])
        assert code == 2
        blob = json.loads(capsys.readouterr().out)
        assert blob["outcome"] == "exhausted"

    def test_backtrack_too_deep_is_a_baseline_failure(self, tmp_path,
                                                      capsys):
        # 3 x 330 needs 993 nested frames, beyond the default recursion limit
        jp, lp = tmp_path / "J.txt", tmp_path / "L.txt"
        main(["gen", "--n", "330", "--m", "3", "--seed", "1",
              "--out", str(jp)])
        code = main(["mate", "--in", str(jp), "--algorithm", "backtrack",
                     "--out", str(lp)])
        out, err = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in err
        blob = json.loads(out)
        assert blob["outcome"] == "baseline_failure"
        assert "search depth" in blob["detail"]
        assert not lp.exists()

    @pytest.mark.parametrize("limit", ["-3", "0"])
    def test_non_positive_node_limit_is_usage_error(self, tmp_path, capsys,
                                                    limit):
        jp = tmp_path / "J.txt"
        jp.write_text("0 1 2\n1 2 0\n")
        code = main(["mate", "--in", str(jp), "--algorithm", "backtrack",
                     "--node-limit", limit])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and "--node-limit" in err

    def test_hall_quarter_regime(self, tmp_path):
        jp, lp = tmp_path / "J.txt", tmp_path / "L.txt"
        main(["gen", "--n", "16", "--m", "4", "--seed", "3", "--out", str(jp)])
        assert main(["mate", "--in", str(jp), "--algorithm", "hall",
                     "--out", str(lp)]) == 0
        assert verify_orthogonal(parse_rectangle(read(lp)),
                                 parse_rectangle(read(jp))).ok

    def test_missing_input_io_error(self, tmp_path):
        assert main(["mate", "--in", str(tmp_path / "nope.txt")]) == 1

    def test_trajectory_csv(self, tmp_path):
        jp, dg = tmp_path / "J.txt", tmp_path / "traj.csv"
        main(["gen", "--n", "8", "--m", "4", "--seed", "2", "--out", str(jp)])
        main(["mate", "--in", str(jp), "--seed", "4", "--out",
              str(tmp_path / "L.txt"), "--diag", str(dg)])
        text = read(dg)
        assert text.startswith("# orthomate-trajectory-v6 ")

    def test_guided_failure_report(self, tmp_path, capsys):
        jp = tmp_path / "J.txt"
        jp.write_text("0 1\n1 0\n")
        code = main(["mate", "--in", str(jp), "--algorithm", "guided"])
        assert code == 2
        blob = json.loads(capsys.readouterr().out)
        assert blob["outcome"] == "gamma_exit"
        assert blob["violations"]

    def test_guided_failure_reports_each_family_once(self, tmp_path, capsys):
        # this J stops the guided mate on C at t = 19 with 5 violated pairs:
        # one entry, the first pair as (k, l) with k < l, and its count
        jp = tmp_path / "J.txt"
        assert main(["gen", "--n", "64", "--m", "32", "--seed", "3",
                     "--out", str(jp)]) == 0
        capsys.readouterr()
        assert main(["mate", "--in", str(jp)]) == 2
        blob = json.loads(capsys.readouterr().out)
        assert (blob["outcome"], blob["exit_time"]) == ("gamma_exit", 19)
        [entry] = blob["violations"]
        assert entry["inequality"] == "C_ikl" and entry["count"] == 5
        assert entry["location"] == [21, 19, 46]
        assert entry["margin"] == entry["lhs"] - gamma_bounds(64, 0.5)[3]

    def test_records_only_with_diag(self, tmp_path, capsys, monkeypatch):
        # a recorder is built only when --diag asks for the trajectory,
        # and recording changes no byte of the printed mate
        from orthomate import diagnostics

        built = []

        class CountingRecorder(diagnostics.TrajectoryRecorder):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "TrajectoryRecorder",
                            CountingRecorder)
        jp = tmp_path / "J.txt"
        main(["gen", "--n", "16", "--m", "4", "--seed", "3", "--out", str(jp)])
        capsys.readouterr()
        assert main(["mate", "--in", str(jp), "--seed", "1"]) == 0
        assert built == []
        plain = capsys.readouterr().out
        assert main(["mate", "--in", str(jp), "--seed", "1",
                     "--diag", str(tmp_path / "t.csv")]) == 0
        assert built == [1]
        assert capsys.readouterr().out == plain
        assert verify_orthogonal(parse_rectangle(plain),
                                 parse_rectangle(read(jp))).ok

    @pytest.mark.parametrize("argv", [
        ["mate", "--in", "{J}"],
        ["trials", "--n", "8", "--count", "1", "--out", "{out}"],
        ["diag", "--n", "8", "--out", "{out}"],
    ])
    def test_config_flag_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                        argv):
        runs = []
        for name in ("run_process", "_run_trials"):
            monkeypatch.setattr(cli, name,
                                lambda *a, _n=name, **kw: runs.append(_n))
        jp, cfgp, out = (tmp_path / name
                         for name in ("J.txt", "cfg.json", "o.csv"))
        jp.write_text("0 1\n1 0\n")
        cfgp.write_text(json.dumps({"arithmetic": "float64"}))
        argv = [a.format(J=jp, out=out) for a in argv]
        assert main(argv + ["--config", str(cfgp)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --config" in captured.err
        assert "Traceback" not in captured.err
        assert runs == []
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--eta-max", "--eta-initial"])
    def test_removed_eta_flag_is_usage_error(self, tmp_path, capsys, flag):
        jp = tmp_path / "J.txt"
        main(["gen", "--n", "8", "--m", "2", "--seed", "1", "--out", str(jp)])
        assert main(["mate", "--in", str(jp), flag, "8"]) == 1
        assert f"unrecognized arguments: {flag} 8" in capsys.readouterr().err

    def test_exact_mode(self, tmp_path):
        jp, lp = tmp_path / "J.txt", tmp_path / "L.txt"
        main(["gen", "--n", "8", "--m", "2", "--seed", "3", "--out", str(jp)])
        assert main(["mate", "--in", str(jp), "--exact", "--seed", "1",
                     "--out", str(lp)]) == 0
        assert verify_orthogonal(parse_rectangle(read(lp)),
                                 parse_rectangle(read(jp))).ok


class TestVerify:
    def test_valid_pair(self, tmp_path):
        jp, lp = tmp_path / "J.txt", tmp_path / "L.txt"
        main(["gen", "--n", "12", "--m", "3", "--seed", "5", "--out", str(jp)])
        main(["mate", "--in", str(jp), "--algorithm", "hall", "--seed", "1",
              "--out", str(lp)])
        assert main(["verify", "--j", str(jp), "--l", str(lp)]) == 0

    def test_self_pair_fails(self, tmp_path, capsys):
        jp = tmp_path / "J.txt"
        jp.write_text("0 1 2\n1 2 0\n2 0 1\n")
        assert main(["verify", "--j", str(jp), "--l", str(jp)]) == 2
        assert "occurs" in capsys.readouterr().out

    def test_shape_mismatch(self, tmp_path, capsys):
        jp, lp = tmp_path / "J.txt", tmp_path / "L.txt"
        jp.write_text("0 1 2\n1 2 0\n")
        lp.write_text("0 1\n1 0\n")
        assert main(["verify", "--j", str(jp), "--l", str(lp)]) == 2
        assert "ShapeMismatch" in capsys.readouterr().out

    def test_unparsable_is_io_error(self, tmp_path):
        jp = tmp_path / "J.txt"
        jp.write_text("0 x\n")
        assert main(["verify", "--j", str(jp), "--l", str(jp)]) == 1

    def test_symbol_beyond_int64_is_usage_error(self, tmp_path, capsys):
        jp = tmp_path / "J.txt"
        jp.write_text("99999999999999999999 0\n0 1\n")
        for argv in (["verify", "--j", str(jp), "--l", str(jp)],
                     ["mate", "--in", str(jp)]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: symbol out of range at cell (0, 0)\n"

    def test_non_latin_l_is_usage_error(self, tmp_path, capsys):
        jp, lp = tmp_path / "J.txt", tmp_path / "L.txt"
        jp.write_text("0 1 2\n1 2 0\n")
        lp.write_text("0 1 2\n1 1 0\n")
        assert main(["verify", "--j", str(jp), "--l", str(lp)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: row 1: symbol 1 occurs 2 times, expected 1\n"


class TestTrials:
    def test_csv_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["trials", "--n", "12", "--epsilon", "0.75", "--count", "6",
                "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert strip_wall_time(read(a)) == strip_wall_time(read(b))
        assert "success fraction" in capsys.readouterr().out

    def test_parallel_matches_serial(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["trials", "--n", "10", "--epsilon", "0.7", "--count", "4",
                "--seed", "1"]
        assert main(args + ["--jobs", "1", "--out", str(a)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(b)]) == 0
        assert strip_wall_time(read(a)) == strip_wall_time(read(b))

    def test_hall_parallel_matches_serial(self, tmp_path):
        # each pool worker matches its hall rows with scipy's matcher
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["trials", "--n", "16", "--epsilon", "0.75", "--count", "4",
                "--algorithm", "hall", "--seed", "1"]
        assert main(args + ["--jobs", "1", "--out", str(a)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(b)]) == 0
        assert strip_wall_time(read(a)) == strip_wall_time(read(b))
        assert read(b).count(",hall,success,") == 4

    def test_count_zero_usage_error(self, tmp_path):
        assert main(["trials", "--n", "8", "--count", "0",
                     "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_usage_error(self, tmp_path, capsys, jobs):
        out = tmp_path / "x.csv"
        assert main(["trials", "--n", "8", "--count", "2", "--jobs", jobs,
                     "--out", str(out)]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["guided", "hall"])
    def test_failed_reverification_is_algorithmic_error(
            self, tmp_path, capsys, monkeypatch, algorithm):
        class Rejected:
            ok = False

        monkeypatch.setattr(cli, "verify_orthogonal", lambda L, J: Rejected())
        out = tmp_path / "t.csv"
        assert main(["trials", "--n", "16", "--epsilon", "0.75", "--count",
                     "2", "--algorithm", algorithm, "--out", str(out)]) == 2
        assert "failed re-verification" in capsys.readouterr().err
        rows = read(out).splitlines()[2:]
        assert rows and all(",verification_failed," in r for r in rows)

    def test_unwritable_out_fails_before_any_trial(
            self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_single_trial",
                            lambda job: calls.append(job))
        out = tmp_path / "missing_dir" / "t.csv"
        assert main(["trials", "--n", "8", "--epsilon", "0.75", "--count",
                     "3", "--out", str(out)]) == 1
        assert calls == []
        assert "missing_dir" in capsys.readouterr().err

    def test_schema_header(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["trials", "--n", "8", "--epsilon", "0.75", "--count", "2",
              "--seed", "0", "--out", str(out)])
        lines = read(out).splitlines()
        assert lines[0].startswith("# orthomate-trials-v4 ")
        assert lines[1].startswith("trial,seed,n,m,epsilon,algorithm,outcome")
        assert lines[1].endswith(",p_max,violation_family,"
                                 "violation_location,violation_margin,"
                                 "wall_time_s")

    @pytest.mark.parametrize("n, epsilon, kind", [
        (24, "0.5", "gamma_exit"), (16, "0.75", "success")])
    def test_first_violation_columns(self, tmp_path, n, epsilon, kind):
        # a gamma_exit names the first violation of its report; the
        # columns stay empty for every other outcome
        import csv

        import numpy as np
        from orthomate import run_process
        from orthomate.baselines import random_latin_rectangle

        out = tmp_path / "t.csv"
        assert main(["trials", "--n", str(n), "--epsilon", epsilon,
                     "--count", "4", "--seed", "0", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh.read().splitlines()[1:]))
        assert any(row["outcome"] == kind for row in rows)
        m = round((1.0 - float(epsilon)) * n)
        for row in rows:
            seed = int(row["seed"])
            J = random_latin_rectangle(n, m, np.random.default_rng(seed))
            res = run_process(J, epsilon=float(epsilon), seed=seed)
            assert row["outcome"] == res.kind
            got = (row["violation_family"], row["violation_location"],
                   row["violation_margin"])
            if res.kind != "gamma_exit":
                assert got == ("", "", "")
                continue
            first = res.gamma_report.violations[0]
            assert got == (first.ineq[0],
                           " ".join(map(str, first.location)),
                           repr(first.margin))
            assert got[0] in ("A", "B", "C")

    def test_hall_algorithm(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["trials", "--n", "16", "--epsilon", "0.75", "--count",
                     "5", "--algorithm", "hall", "--out", str(out)]) == 0
        assert "1.0000" in capsys.readouterr().out

    def test_guided_quarter_regime_fraction(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["trials", "--n", "16", "--epsilon", "0.75", "--count",
                     "20", "--seed", "0", "--out", str(out)]) == 0
        assert "1.0000" in capsys.readouterr().out

    def test_provenance_header(self, tmp_path):
        from orthomate import ProcessConfig, __version__

        out = tmp_path / "t.csv"
        assert main(["trials", "--n", "8", "--epsilon", "0.75", "--count",
                     "2", "--seed", "5", "--exact", "--out",
                     str(out)]) == 0
        schema, version, seed, config = read(out).splitlines()[0][2:].split(
            " ", 3)
        assert schema == "orthomate-trials-v4"
        assert version == f"orthomate={__version__}"
        assert seed == "seed=5+trial"
        assert config.startswith("config=")
        assert json.loads(config[7:]) == \
            ProcessConfig(arithmetic="exact").to_json()

    @needs_proc
    def test_pool_workers_run_one_blas_thread(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_single_trial",
                            trial_reporting_blas_threads)
        out = tmp_path / "t.csv"
        assert main(["trials", "--n", "8", "--epsilon", "0.75", "--count",
                     "4", "--jobs", "2", "--out", str(out)]) == 0
        details = [row.split(",")[8] for row in read(out).splitlines()[2:]]
        assert len(details) == 4
        for detail in details:
            assert detail.split() and set(detail.split()) == {"1"}

    @needs_proc
    def test_pool_leaves_no_process(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["trials", "--n", "8", "--epsilon", "0.75", "--count",
                     "4", "--jobs", "2", "--out", str(out)]) == 0
        assert child_pids(os.getpid()) == []
        assert multiprocessing.active_children() == []

    def test_no_more_workers_than_trials(self, tmp_path, monkeypatch):
        sizes = []
        pool = cli.ProcessPoolExecutor

        def recording_pool(max_workers, **kwargs):
            sizes.append(max_workers)
            return pool(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", recording_pool)
        out = tmp_path / "t.csv"
        assert main(["trials", "--n", "8", "--epsilon", "0.75", "--count",
                     "2", "--jobs", "4", "--out", str(out)]) == 0
        assert sizes == [2]

    def test_dead_worker_is_an_error_line(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setattr(cli, "run_single_trial", worker_dies)
        out = tmp_path / "t.csv"
        assert main(["trials", "--n", "8", "--epsilon", "0.75", "--count",
                     "2", "--jobs", "2", "--out", str(out)]) == \
            cli.EXIT_WORKER_DIED
        err = capsys.readouterr().err
        assert err.startswith("error: a trials worker died")
        assert err.count("\n") == 1
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_scipy_imported_before_the_first_trial(self, tmp_path, jobs):
        # a trial's wall time must not include scipy's one-time import:
        # trials imports it before the first trial starts (and before the
        # pool forks), while importing the CLI still does not
        out = tmp_path / "t.csv"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        subprocess.run(
            [sys.executable, "-c", SCIPY_AT_TRIAL_START, "trials", "--n",
             "8", "--epsilon", "0.75", "--count", "2", "--jobs", jobs,
             "--out", str(out)], env=env, check=True, capture_output=True)
        rows = read(out).splitlines()[2:]
        assert len(rows) == 2
        assert all(",scipy=True," in row for row in rows)


class TestDiag:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert main(["diag", "--n", "12", "--epsilon", "0.5", "--seed", "2",
                     "--out", str(out)]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["n"] == 12
        assert read(out).startswith("# orthomate-trajectory-v6 ")

    @pytest.mark.parametrize("command", ["mate", "diag"])
    def test_provenance_header(self, tmp_path, command):
        from orthomate import ProcessConfig, __version__

        traj = tmp_path / "traj.csv"
        if command == "mate":
            jp = tmp_path / "J.txt"
            main(["gen", "--n", "8", "--m", "4", "--seed", "2", "--out",
                  str(jp)])
            argv = ["mate", "--in", str(jp), "--out", str(tmp_path / "L.txt"),
                    "--diag", str(traj)]
        else:
            argv = ["diag", "--n", "8", "--epsilon", "0.5", "--out", str(traj)]
        main(argv + ["--seed", "7", "--exact"])
        schema, version, seed, config = read(traj).splitlines()[0][2:].split(
            " ", 3)
        assert schema == "orthomate-trajectory-v6"
        assert version == f"orthomate={__version__}"
        assert seed == "seed=7"
        assert config.startswith("config=")
        assert json.loads(config[7:]) == \
            ProcessConfig(arithmetic="exact").to_json()


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_no_command(self):
        assert main([]) == 1


class TestOutOfMemory:
    # a --n too large to allocate; the allocation is simulated, never made
    @pytest.mark.parametrize("message", [
        "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)",
        ""])
    @pytest.mark.parametrize("argv", [
        ["diag", "--n", "100000", "--m", "1"],
        ["gen", "--n", "100000", "--m", "1", "--out", "{out}"],
        ["trials", "--n", "100000", "--m", "1", "--count", "1",
         "--out", "{out}"]])
    def test_is_one_error_line(self, tmp_path, capsys, monkeypatch, argv,
                               message):
        def out_of_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "random_latin_rectangle", out_of_memory)
        out = tmp_path / "out"
        assert main([a.format(out=out) for a in argv]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: out of memory")
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()


class TestEpsilonFlag:
    @pytest.mark.parametrize("eps", ["nan", "inf", "-0.5"])
    def test_bad_epsilon_is_usage_error(self, tmp_path, capsys, eps):
        jp, out = tmp_path / "J.txt", tmp_path / "t.csv"
        main(["gen", "--n", "8", "--m", "4", "--seed", "1", "--out", str(jp)])
        capsys.readouterr()
        for argv in (["mate", "--in", str(jp)],
                     ["trials", "--n", "16", "--m", "8", "--count", "1",
                      "--out", str(out)],
                     ["diag", "--n", "16", "--m", "8"]):
            assert main(argv + [f"--epsilon={eps}"]) == 1
            assert "epsilon must be a finite number >= 0" in \
                capsys.readouterr().err
        assert not out.exists()

    def test_epsilon_below_float_range_turns_a_off(self, capsys):
        assert main(["diag", "--n", "8", "--epsilon", "1e-200"]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_epsilon_beyond_float_range_is_a_gamma_exit(self, tmp_path,
                                                        capsys):
        jp = tmp_path / "J.txt"
        main(["gen", "--n", "8", "--m", "4", "--out", str(jp)])
        capsys.readouterr()
        assert main(["mate", "--in", str(jp), "--epsilon", "1e200"]) == 2
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert report["outcome"] == "gamma_exit"
        assert report["exit_time"] == 0
        assert "Traceback" not in err

    def test_epsilon_zero_accepted(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["trials", "--n", "8", "--m", "2", "--epsilon", "0",
                     "--count", "1", "--out", str(out)]) == 0


class TestOutputOpenedBeforeRun:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_process",
                            lambda *a, **kw: calls.append(a))
        return calls

    def test_mate_unwritable_diag(self, tmp_path, capsys, calls):
        jp = tmp_path / "J.txt"
        main(["gen", "--n", "8", "--m", "4", "--seed", "2", "--out", str(jp)])
        diag = tmp_path / "missing_dir" / "traj.csv"
        assert main(["mate", "--in", str(jp), "--diag", str(diag)]) == 1
        assert calls == []
        assert "missing_dir" in capsys.readouterr().err

    def test_mate_unwritable_out(self, tmp_path, capsys, calls):
        jp = tmp_path / "J.txt"
        main(["gen", "--n", "8", "--m", "4", "--seed", "2", "--out", str(jp)])
        out = tmp_path / "missing_dir" / "L.txt"
        assert main(["mate", "--in", str(jp), "--out", str(out)]) == 1
        assert calls == []
        assert "missing_dir" in capsys.readouterr().err

    def test_diag_unwritable_out(self, tmp_path, capsys, calls):
        out = tmp_path / "missing_dir" / "traj.csv"
        assert main(["diag", "--n", "12", "--epsilon", "0.5",
                     "--out", str(out)]) == 1
        assert calls == []
        assert "missing_dir" in capsys.readouterr().err


class TestNoOutputOnUsageError:
    @pytest.mark.parametrize("argv", [
        ["mate", "--in", "{J16}", "--exact", "--diag", "{out}"],
        ["trials", "--n", "16", "--count", "2", "--exact", "--out", "{out}"],
        ["trials", "--n", "16", "--count", "2", "--exact", "--jobs", "2",
         "--out", "{out}"],
        ["trials", "--n", "8", "--m", "9", "--count", "2", "--out", "{out}"],
        ["diag", "--n", "16", "--exact", "--out", "{out}"],
    ])
    def test_no_file_left(self, tmp_path, capsys, argv):
        jp, out = tmp_path / "J16.txt", tmp_path / "x.csv"
        main(["gen", "--n", "16", "--m", "8", "--seed", "1", "--out",
              str(jp)])
        argv = [a.format(J16=jp, out=out) for a in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "exact arithmetic supported for n <= 12" in err \
            or "derived m=9 outside [1, n]" in err
        assert not out.exists()


class TestNoMateNoOutFile:
    @pytest.mark.parametrize("algorithm", ["guided", "backtrack"])
    def test_failed_mate_leaves_no_file(self, tmp_path, capsys, algorithm):
        jp, lp = tmp_path / "J.txt", tmp_path / "L.txt"
        jp.write_text("0 1\n1 0\n")
        assert main(["mate", "--in", str(jp), "--algorithm", algorithm,
                     "--out", str(lp)]) == 2
        assert json.loads(capsys.readouterr().out)["outcome"]
        assert not lp.exists()

    def test_failed_reverification_leaves_no_file(self, tmp_path, capsys,
                                                  monkeypatch):
        class Rejected:
            ok = False

        monkeypatch.setattr(cli, "verify_orthogonal", lambda L, J: Rejected())
        jp, lp = tmp_path / "J.txt", tmp_path / "L.txt"
        main(["gen", "--n", "8", "--m", "2", "--seed", "1", "--out", str(jp)])
        assert main(["mate", "--in", str(jp), "--out", str(lp)]) == 2
        assert "failed re-verification" in capsys.readouterr().err
        assert not lp.exists()

    def test_failed_guided_run_keeps_its_trajectory(self, tmp_path):
        jp, lp, dg = (tmp_path / name for name in ("J.txt", "L.txt", "t.csv"))
        jp.write_text("0 1\n1 0\n")
        assert main(["mate", "--in", str(jp), "--out", str(lp),
                     "--diag", str(dg)]) == 2
        assert not lp.exists()
        assert read(dg).startswith("# orthomate-trajectory-v6 ")


class TestTrajectoryPathNeedsRecording:
    @pytest.fixture
    def runs(self, monkeypatch):
        runs = []
        for name in ("run_process", "hall_greedy", "backtrack_mate"):
            monkeypatch.setattr(cli, name,
                                lambda *a, _n=name, **kw: runs.append(_n))
        return runs

    @pytest.mark.parametrize("argv, message", [
        (["mate", "--in", "{J}", "--algorithm", "hall", "--diag", "{out}"],
         "--algorithm hall records no trajectory"),
        (["mate", "--in", "{J}", "--algorithm", "backtrack",
          "--diag", "{out}"],
         "--algorithm backtrack records no trajectory"),
    ])
    def test_usage_error_before_any_run(self, tmp_path, capsys, runs, argv,
                                        message):
        jp, out = tmp_path / "J.txt", tmp_path / "t.csv"
        main(["gen", "--n", "8", "--m", "4", "--seed", "2", "--out", str(jp)])
        argv = [a.format(J=jp, out=out) for a in argv]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert runs == []
        assert not out.exists()


class TestRecordingFollowsCommand:
    @pytest.fixture
    def configs(self, monkeypatch):
        # the ProcessConfig of every guided run, which still runs
        configs, run = [], cli.run_process

        def recording_run(J, **kw):
            configs.append(kw["config"])
            return run(J, **kw)

        monkeypatch.setattr(cli, "run_process", recording_run)
        return configs

    @pytest.mark.parametrize("argv, arithmetic, record", [
        (["mate", "--in", "{J}"], "float64", False),
        (["mate", "--in", "{J}", "--exact"], "exact", False),
        (["mate", "--in", "{J}", "--diag", "{out}"], "float64", True),
        (["mate", "--in", "{J}", "--exact", "--diag", "{out}"], "exact",
         True),
        (["diag", "--n", "8"], "float64", True),
        (["diag", "--n", "8", "--exact"], "exact", True),
        (["trials", "--n", "8", "--count", "2", "--out", "{out}"], "float64",
         True),
        (["trials", "--n", "8", "--count", "2", "--exact", "--out", "{out}"],
         "exact", True),
    ])
    def test_config_of_each_run(self, tmp_path, capsys, configs, argv,
                                arithmetic, record):
        jp, out = tmp_path / "J.txt", tmp_path / "o.csv"
        main(["gen", "--n", "8", "--m", "2", "--seed", "3", "--out", str(jp)])
        argv = [a.format(J=jp, out=out) for a in argv]
        assert main(argv + ["--epsilon", "0.75"]) == 0
        assert configs
        assert all(cfg == ProcessConfig(arithmetic, record)
                   for cfg in configs)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_trials_fill_the_recorded_columns(self, tmp_path, jobs):
        out = tmp_path / "t.csv"
        assert main(["trials", "--n", "12", "--epsilon", "0.5", "--count",
                     "2", "--seed", "1", "--jobs", jobs, "--out",
                     str(out)]) == 0
        rows = list(csv.DictReader(read(out).splitlines()[1:]))
        assert len(rows) == 2
        for row in rows:
            for column in ("b_rel_dev_max", "c_rel_dev_max", "p_max"):
                assert math.isfinite(float(row[column]))

    @pytest.mark.parametrize("command", ["mate", "diag", "trials"])
    def test_float_provenance_is_fixed(self, tmp_path, command):
        out = tmp_path / "o.csv"
        if command == "mate":
            jp = tmp_path / "J.txt"
            main(["gen", "--n", "8", "--m", "2", "--seed", "3", "--out",
                  str(jp)])
            argv = ["mate", "--in", str(jp), "--diag", str(out)]
        elif command == "diag":
            argv = ["diag", "--n", "8", "--epsilon", "0.75", "--out", str(out)]
        else:
            argv = ["trials", "--n", "8", "--epsilon", "0.75", "--count",
                    "1", "--out", str(out)]
        assert main(argv) == 0
        assert read(out).splitlines()[0].endswith(
            ' config={"arithmetic":"float64","record_trajectory":true}')

    @pytest.mark.parametrize("arithmetic", ["float64", "exact"])
    def test_library_trial_may_record_nothing(self, arithmetic):
        def trial(record):
            cfg = ProcessConfig(arithmetic, record_trajectory=record)
            return dataclasses.asdict(run_single_trial(
                (0, 3, 8, 2, 0.75, "guided", cfg)))

        recorded, unrecorded = trial(True), trial(False)
        for column in cli.SUMMARY_DEFAULTS:
            assert math.isfinite(recorded.pop(column))
            assert math.isnan(unrecorded.pop(column))
        del recorded["wall_time_s"], unrecorded["wall_time_s"]
        assert recorded["outcome"] == "success"
        assert recorded == unrecorded


class TestSameFile:
    @pytest.mark.parametrize("argv", [
        ["--out", "{J}", "--algorithm", "backtrack"],
        ["--diag", "{J}"],
        ["--out", "{link}", "--algorithm", "hall"],
        ["--out", "{out}", "--diag", "{out}"],
        ["--out", "{out}", "--diag", "{sub}/../{out_name}"],
    ])
    def test_input_kept_and_no_output(self, tmp_path, capsys, argv):
        jp, out = tmp_path / "J.txt", tmp_path / "o.txt"
        jp.write_text("0 1\n1 0\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.txt").symlink_to(jp)
        argv = [a.format(J=jp, link=tmp_path / "link.txt", out=out,
                         sub=tmp_path / "sub", out_name=out.name)
                for a in argv]
        assert main(["mate", "--in", str(jp)] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "name the same file" in lines[0]
        assert jp.read_text() == "0 1\n1 0\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "J.txt", "link.txt", "sub"]

    @pytest.mark.skipif(not os.path.exists(os.devnull),
                        reason="needs a null device")
    def test_null_device_may_repeat(self, tmp_path):
        jp = tmp_path / "J.txt"
        main(["gen", "--n", "8", "--m", "2", "--seed", "1", "--out", str(jp)])
        assert main(["mate", "--in", str(jp), "--out", os.devnull,
                     "--diag", os.devnull]) == 0


class TestErrorLines:
    # every error path ends with its exit code and one stderr line; {tmp}
    # is the test's directory, whose missing/ subdirectory does not exist
    @pytest.mark.parametrize("argv, code, line", [
        (["gen", "--n", "8", "--m", "9", "--out", "{tmp}/x.txt"], 1,
         "error: need 1 <= m <= n, got m=9, n=8"),
        (["gen", "--n", "4", "--m", "2", "--out", "{tmp}/missing/x.txt"], 1,
         "error: [Errno 2] No such file or directory: '{tmp}/missing/x.txt'"),
        (["mate", "--in", "{tmp}/nope.txt"], 1,
         "error: [Errno 2] No such file or directory: '{tmp}/nope.txt'"),
        (["mate", "--in", "{tmp}/ragged.txt"], 1,
         "error: row 1 has 1 entries, expected 2"),
        (["mate", "--in", "{tmp}/not_latin.txt"], 1,
         "error: row 1: symbol 1 occurs 2 times, expected 1"),
        (["verify", "--j", "{tmp}/J.txt", "--l", "{tmp}/ragged.txt"], 1,
         "error: row 1 has 1 entries, expected 2"),
        (["trials", "--n", "8", "--count", "1", "--out",
          "{tmp}/missing/t.csv"], 1,
         "error: [Errno 2] No such file or directory: '{tmp}/missing/t.csv'"),
        (["diag", "--n", "8", "--out", "{tmp}/missing/t.csv"], 1,
         "error: [Errno 2] No such file or directory: '{tmp}/missing/t.csv'"),
    ])
    def test_exit_code_and_one_line(self, tmp_path, capsys, argv, code,
                                    line):
        (tmp_path / "J.txt").write_text("0 1 2\n1 2 0\n")
        (tmp_path / "ragged.txt").write_text("0 1\n1\n")
        (tmp_path / "not_latin.txt").write_text("0 1 2\n1 1 0\n")
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main([a.format(tmp=tmp_path) for a in argv]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err == line.format(tmp=tmp_path) + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before


class TestFlagsTheAlgorithmReads:
    @pytest.fixture
    def runs(self, monkeypatch):
        runs = []
        for name in ("run_process", "hall_greedy", "backtrack_mate"):
            monkeypatch.setattr(cli, name,
                                lambda *a, _n=name, **kw: runs.append(_n))
        return runs

    @pytest.mark.parametrize("algorithm, flags, flag", [
        ("hall", ["--exact"], "--exact"),
        ("backtrack", ["--exact"], "--exact"),
        ("hall", ["--epsilon", "0.5"], "--epsilon"),
        ("backtrack", ["--epsilon", "0.5"], "--epsilon"),
        ("hall", ["--diag", "{tmp}/t.csv"], "--diag"),
        ("backtrack", ["--diag", "{tmp}/t.csv"], "--diag"),
        ("guided", ["--node-limit", "5"], "--node-limit"),
        ("hall", ["--node-limit", "5"], "--node-limit"),
    ])
    def test_mate_rejects_before_reading_input(self, tmp_path, capsys, runs,
                                               algorithm, flags, flag):
        # --in names no file: the flag is refused before it is read
        argv = ["mate", "--in", "{tmp}/nope.txt", "--out", "{tmp}/L.txt",
                "--algorithm", algorithm] + flags
        assert main([a.format(tmp=tmp_path) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {flag}: ")
        assert f"--algorithm {algorithm}" in lines[0]
        assert runs == []
        assert list(tmp_path.iterdir()) == []

    def test_trials_rejects_exact_with_hall(self, tmp_path, capsys, runs,
                                            monkeypatch):
        trials = []
        monkeypatch.setattr(cli, "run_single_trial", trials.append)
        out = tmp_path / "t.csv"
        assert main(["trials", "--n", "40", "--epsilon", "0.75", "--count",
                     "1", "--algorithm", "hall", "--exact",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --exact: ")
        assert "--algorithm hall" in lines[0]
        assert runs == [] and trials == []
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_trials_rejects_epsilon_with_hall_and_m(self, tmp_path, capsys,
                                                    runs, monkeypatch, jobs):
        # with --m given, epsilon derives no m, and hall takes none: the
        # flag is refused before the CSV is opened
        trials = []
        monkeypatch.setattr(cli, "run_single_trial", trials.append)
        out = tmp_path / "t.csv"
        assert main(["trials", "--n", "16", "--m", "4", "--count", "1",
                     "--algorithm", "hall", "--epsilon", "0.3", "--jobs",
                     jobs, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --epsilon: ")
        assert "--algorithm hall" in lines[0]
        assert runs == [] and trials == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["--algorithm", "hall"], ["--algorithm", "hall", "--m", "4"],
        ["--algorithm", "guided", "--m", "4"], ["--algorithm", "guided"]])
    def test_trials_epsilon_default(self, tmp_path, argv):
        # without --epsilon a run's epsilon is 0.5, as with --epsilon 0.5
        # wherever epsilon is read (hall with --m reads none): the CSVs
        # match but for the wall times
        base = ["trials", "--n", "16", "--count", "2", "--seed", "3"] + argv
        default, given = tmp_path / "d.csv", tmp_path / "g.csv"
        assert main(base + ["--out", str(default)]) == 0
        rows = list(csv.DictReader(read(default).splitlines()[1:]))
        assert [row["epsilon"] for row in rows] == ["0.5", "0.5"]
        assert [row["m"] for row in rows] == (["4"] if "--m" in argv
                                              else ["8"]) * 2
        if "--m" not in argv or "guided" in argv:
            assert main(base + ["--epsilon", "0.5", "--out", str(given)]) == 0
            assert strip_wall_time(read(default)) == strip_wall_time(
                read(given))

    @pytest.mark.parametrize("argv", [
        ["mate", "--in", "{tmp}/J.txt", "--algorithm", "backtrack",
         "--node-limit", "5000"],
        ["mate", "--in", "{tmp}/J.txt", "--algorithm", "guided", "--exact",
         "--epsilon", "0.5", "--diag", "{tmp}/t.csv"],
    ])
    def test_flags_the_algorithm_reads_are_accepted(self, tmp_path, argv):
        (tmp_path / "J.txt").write_text("0 1 2\n1 2 0\n")
        assert main([a.format(tmp=tmp_path) for a in argv]) in (0, 2)

    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "4", "--m", "2", "--out", "{tmp}/o"],
        ["mate", "--in", "{tmp}/J.txt", "--out", "{tmp}/o"],
        ["mate", "--in", "{tmp}/J.txt", "--algorithm", "hall",
         "--out", "{tmp}/o"],
        ["trials", "--n", "8", "--count", "1", "--out", "{tmp}/o"],
        ["diag", "--n", "8", "--out", "{tmp}/o"],
    ])
    @pytest.mark.parametrize("seed", ["-1", "-3"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, runs,
                                          monkeypatch, argv, seed):
        made = []
        monkeypatch.setattr(cli, "random_latin_rectangle",
                            lambda *a: made.append(a))
        (tmp_path / "J.txt").write_text("0 1 2\n1 2 0\n")
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv + ["--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and "--seed" in errors[0]
        assert runs == [] and made == []
        assert not (tmp_path / "o").exists()

    def test_hall_trials_header(self, tmp_path):
        from orthomate import __version__

        out = tmp_path / "t.csv"
        assert main(["trials", "--n", "16", "--epsilon", "0.75", "--count",
                     "1", "--algorithm", "hall", "--seed", "2",
                     "--out", str(out)]) == 0
        assert read(out).splitlines()[:2] == [
            f"# orthomate-trials-v4 orthomate={__version__} seed=2+trial "
            'config={"arithmetic":"float64","record_trajectory":true}',
            "trial,seed,n,m,epsilon,algorithm,outcome,exit_time,detail,"
            "eta_max_used,eta_mean_used,b_rel_dev_max,c_rel_dev_max,p_max,"
            "violation_family,violation_location,violation_margin,"
            "wall_time_s"]


class TestEmptyPath:
    """An empty path is a usage error of every command at parse time, with
    one error line that names the flag, before anything is read, run or
    written."""

    @pytest.fixture
    def runs(self, monkeypatch):
        runs = []
        for name in ("run_process", "hall_greedy", "backtrack_mate",
                     "random_latin_rectangle", "_read_rectangle"):
            monkeypatch.setattr(cli, name,
                                lambda *a, _n=name, **kw: runs.append(_n))
        return runs

    @pytest.mark.parametrize("argv, flag", [
        (["gen", "--n", "4", "--m", "2", "--out="], "--out"),
        (["mate", "--in="], "--in"),
        (["mate", "--in", "{tmp}/J.txt", "--out="], "--out"),
        (["mate", "--in", "{tmp}/J.txt", "--algorithm", "hall", "--out="],
         "--out"),
        (["mate", "--in", "{tmp}/J.txt", "--diag="], "--diag"),
        (["mate", "--in", "{tmp}/J.txt", "--algorithm", "hall", "--diag="],
         "--diag"),
        (["verify", "--j=", "--l", "{tmp}/J.txt"], "--j"),
        (["verify", "--j", "{tmp}/J.txt", "--l", ""], "--l"),
        (["trials", "--n", "8", "--count", "1", "--out="], "--out"),
        (["diag", "--n", "8", "--out", ""], "--out"),
    ])
    def test_usage_error(self, tmp_path, capsys, runs, argv, flag):
        (tmp_path / "J.txt").write_text("0 1 2\n1 2 0\n")
        assert main([a.format(tmp=tmp_path) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}: " in errors[0]
        assert runs == []
        assert [p.name for p in tmp_path.iterdir()] == ["J.txt"]
