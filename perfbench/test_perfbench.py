"""Smoke-sized runs of every workload and checks of the benchmark's wiring.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import dataclasses
import json

import pytest

import run as bench
import tracing

bench.load_program()

SMOKE = {
    "ensemble-n64": dataclasses.replace(bench.WORKLOADS["ensemble-n64"],
                                        n=24, batch=4),
    "state-n192": dataclasses.replace(bench.WORKLOADS["state-n192"], n=32),
    "trials-jobs2": dataclasses.replace(bench.WORKLOADS["trials-jobs2"],
                                        n=24, count=2),
}


def smoke(name, trace, seed=3):
    spec = SMOKE[name]
    inputs, _ = bench.set_up(spec, seed, 1)
    if isinstance(spec, bench.Trials):
        return bench.bench_trials(spec, seed, 0.1, trace)
    return bench.bench_guided(spec, inputs, 0.1, trace)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_workload_smoke(name):
    plain = smoke(name, False)
    assert plain.problems == [] and plain.failed == 0 and plain.attempted >= 1
    assert set(plain.metrics) == set(bench.END_TO_END) - {"setup_s"}
    assert plain.metrics["run_s.p50"] > 0
    assert plain.metrics["rows_placed_mean"] > 0
    traced = smoke(name, True)
    assert traced.problems == [] and traced.failed == 0
    assert traced.digest == plain.digest
    assert set(traced.metrics) <= set(bench.PER_LAYER)
    assert tracing.originals_restored()


def test_trace_pairs_each_input_once():
    """Traced mode runs every input once plain and once traced; trials once."""
    spec = SMOKE["ensemble-n64"]
    traced = smoke("ensemble-n64", True)
    assert traced.attempted == 2 * spec.batch
    assert traced.metrics["trace.wall_s"] > 0
    trials = smoke("trials-jobs2", True)
    assert trials.attempted == SMOKE["trials-jobs2"].count
    assert trials.metrics["trace.overhead"] == 0.0


def test_inputs_follow_the_seed():
    spec = SMOKE["ensemble-n64"]
    a, b, c = (bench.make_inputs(spec, s) for s in (5, 5, 6))
    assert [(J.grid.tolist(), e, r) for J, e, r in a] == \
        [(J.grid.tolist(), e, r) for J, e, r in b]
    assert [J.grid.tolist() for J, _, _ in a] != \
        [J.grid.tolist() for J, _, _ in c]


def test_recording_off_leaves_recorder_untouched():
    layers = smoke("state-n192", True).metrics
    assert layers["record.calls"] == 0 and layers["gamma.calls"] > 0


def test_miswired_tracer_is_reported(monkeypatch):
    """A wrapper in a namespace nobody reads from sees no calls."""
    monkeypatch.setitem(tracing.TARGETS, "gamma",
                        ("orthomate.matching", "normalize_row", None))
    spec = SMOKE["state-n192"]
    inputs = bench.make_inputs(spec, 0)
    with pytest.raises(SystemExit, match="gamma: no calls recorded"):
        bench.bench_guided(spec, inputs, 0.1, True)
    assert tracing.originals_restored()


def test_bad_mate_counts_as_failed(monkeypatch):
    """A mate failing re-verification is a failed run, not an abort."""
    from orthomate import process

    real = process.run_process

    def broken(J, **kw):
        out = real(J, **kw)
        if out.rectangle is not None:
            out.rectangle = J  # Latin, but repeats each (a, a) pair
        return out

    monkeypatch.setattr(process, "run_process", broken)
    spec = dataclasses.replace(SMOKE["ensemble-n64"], epsilons=(0.75,))
    inputs = bench.make_inputs(spec, 1)
    runs, _ = bench.guided_pass(spec, inputs, 0.0, mates := {})
    assert mates, "smoke batch produced no mate to corrupt"
    failed, problems = bench.check_guided(runs, inputs, mates)
    assert failed == len(mates) and problems


def test_contract_metrics_are_reported():
    with open(bench.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    for m in spec["end_to_end"]:
        assert bench.END_TO_END[m["name"]] == m["unit"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.PER_LAYER
