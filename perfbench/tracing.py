"""Outside-in layer timing: wrap the public calls the guided process makes.

Each wrapper is installed in the namespace the caller looks the name up in.
``process.py`` binds its imports by name, so ``run_process`` finds
``check_gamma`` in ``orthomate.process``; the flow code reaches the solvers
through the ``orthomate.maxflow`` module object; the lazy sampler finds
``perfect_matching_scipy`` in ``orthomate.matching``.  A wrapper installed
anywhere else would count nothing, which is why ``LayerTracer.coverage``
demands calls from every layer a workload runs.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

# key -> (module, attribute path, classifier of the return value or None)
TARGETS = {
    "gamma": ("orthomate.process", "check_gamma", None),
    "advance": ("orthomate.process", "advance_state", None),
    "normalize": ("orthomate.process", "normalize_row", None),
    "flow": ("orthomate.process", "build_fractional_matching", None),
    "eta_step": ("orthomate.matching", "solve_fixed_eta",
                 lambda q: "infeasible" if q is None else "feasible"),
    "scipy": ("orthomate.maxflow", "scipy_transport", lambda res: res[0]),
    "dinic": ("orthomate.maxflow", "solve_transport", None),
    "sample": ("orthomate.process", "sample_matching_lazy", None),
    "match": ("orthomate.matching", "perfect_matching_scipy",
              lambda m: "miss" if m is None else "found"),
    "record": ("orthomate.diagnostics", "TrajectoryRecorder.record_step",
               None),
}

#: top-level layers called directly by the run_process loop
TOP_LEVEL = ("gamma", "normalize", "flow", "sample", "advance", "record")


@dataclass
class Span:
    calls: int = 0
    seconds: float = 0.0
    results: dict = field(default_factory=dict)


def _owner(module: str, path: str):
    obj = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        obj = getattr(obj, name)
    return obj, attr


class LayerTracer:
    """Context manager that times every call in TARGETS while active.

    The original functions are restored on exit, also when the traced
    code raises.
    """

    def __init__(self):
        self.spans = {key: Span() for key in TARGETS}
        self._saved = []

    def __enter__(self) -> "LayerTracer":
        for key, (module, path, classify) in TARGETS.items():
            owner, attr = _owner(module, path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, self.spans[key],
                                            classify))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @staticmethod
    def _wrap(fn, span: Span, classify):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.seconds += time.perf_counter() - t0
                span.calls += 1
            if classify is not None:
                label = classify(result)
                span.results[label] = span.results.get(label, 0) + 1
            return result

        timed.__perfbench_original__ = fn
        return timed

    def coverage(self, recording: bool) -> list:
        """Problems with the wiring; empty when every wrapper saw its calls.

        Every layer the guided loop always runs must show calls; the
        recorder only when recording is on, and not at all when it is off.
        The pure Dinic solver runs exactly once per ambiguous scipy verdict.
        """
        s = self.spans
        problems = []
        must_run = ["gamma", "advance", "normalize", "flow", "eta_step",
                    "scipy", "sample", "match"]
        if recording:
            must_run.append("record")
        elif s["record"].calls:
            problems.append(f"record: {s['record'].calls} calls with "
                            "recording off")
        problems += [f"{key}: no calls recorded" for key in must_run
                     if s[key].calls == 0]
        ambiguous = s["scipy"].results.get("ambiguous", 0)
        if s["dinic"].calls != ambiguous:
            problems.append(f"dinic: {s['dinic'].calls} calls for "
                            f"{ambiguous} ambiguous scipy verdicts")
        return problems


def originals_restored() -> bool:
    """True when no TARGETS attribute still holds a perfbench wrapper."""
    return not any(
        hasattr(getattr(*_owner(module, path)), "__perfbench_original__")
        for module, path, _ in TARGETS.values())
