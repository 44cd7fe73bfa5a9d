"""Command-line contract: exit codes, file formats, determinism."""

import ctypes
import json
import multiprocessing
import os
import sys

import pytest

from orthomate import parse_rectangle, verify_latin, verify_orthogonal
from orthomate import cli
from orthomate.cli import main, run_single_trial


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
        assert text.startswith("# orthomate-trajectory-v1")

    def test_guided_failure_report(self, tmp_path, capsys):
        jp = tmp_path / "J.txt"
        jp.write_text("0 1\n1 0\n")
        code = main(["mate", "--in", str(jp), "--algorithm", "guided"])
        assert code == 2
        blob = json.loads(capsys.readouterr().out)
        assert blob["outcome"] == "gamma_exit"
        assert blob["violations"]

    def test_config_file(self, tmp_path):
        jp, lp = tmp_path / "J.txt", tmp_path / "L.txt"
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"eta_max": 8.0, "eta_policy": "doubling"}))
        main(["gen", "--n", "12", "--m", "3", "--seed", "1", "--out", str(jp)])
        assert main(["mate", "--in", str(jp), "--config", str(cfgp),
                     "--out", str(lp)]) == 0

    @pytest.mark.parametrize("blob, message", [
        ({"eta_maxx": 8.0}, "eta_maxx"),
        ({"sampler": "eager"}, "sampler"),
        ({"zero_tol": 1e-12}, "zero_tol"),
        ({"arithmetic": "exakt"}, "arithmetic"),
        ({"flow_backend": "networkx"}, "flow_backend"),
        ({"eta_policy": "tripling"}, "eta_policy"),
        ({"eta_max": 0}, "eta_max"),
        ({"eta_initial": -0.5}, "eta_initial"),
        ({"tracked_lines": -1}, "tracked_lines"),
        ([1, 2], "JSON object"),
        ({"gamma_b_slack": -1}, "gamma_b_slack"),
        ({"gamma_a_coeff": 0}, "gamma_a_coeff"),
        ({"gamma_c_slack": -0.5}, "gamma_c_slack"),
    ])
    def test_bad_config_is_usage_error(self, tmp_path, capsys, blob, message):
        jp, cfgp = tmp_path / "J.txt", tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(blob))
        main(["gen", "--n", "8", "--m", "2", "--seed", "1", "--out", str(jp)])
        assert main(["mate", "--in", str(jp), "--config", str(cfgp)]) == 1
        assert message in capsys.readouterr().err

    def test_bad_flag_override_is_usage_error(self, tmp_path, capsys):
        jp = tmp_path / "J.txt"
        main(["gen", "--n", "8", "--m", "2", "--seed", "1", "--out", str(jp)])
        assert main(["mate", "--in", str(jp), "--eta-max", "-1"]) == 1
        assert "eta_max" in capsys.readouterr().err

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
        assert lines[0].startswith("# orthomate-trials-v2 ")
        assert lines[1].startswith("trial,seed,n,m,epsilon,algorithm,outcome")

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
                     "2", "--seed", "5", "--eta-max", "8", "--out",
                     str(out)]) == 0
        schema, version, seed, config = read(out).splitlines()[0][2:].split(
            " ", 3)
        assert schema == "orthomate-trials-v2"
        assert version == f"orthomate={__version__}"
        assert seed == "seed=5+trial"
        assert config.startswith("config=")
        assert ProcessConfig.from_json(json.loads(config[7:])) == \
            ProcessConfig(eta_max=8.0)

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


class TestDiag:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert main(["diag", "--n", "12", "--epsilon", "0.5", "--seed", "2",
                     "--out", str(out)]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["n"] == 12
        assert read(out).startswith("# orthomate-trajectory-v1")


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_no_command(self):
        assert main([]) == 1


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
