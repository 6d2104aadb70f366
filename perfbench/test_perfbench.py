"""Self-tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py

The planted-slowdown test makes one layer's public function 1.3x
slower during a traffic capture and requires the ledger to name that
layer as the biggest change in self time, and ``run_s`` to move by more
than the bound ``BENCHMARK.json`` fixes for it.
"""

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from ledger import Ledger, layer_metrics  # noqa: E402
from workloads import TrafficCapture  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _slowed(fn, factor):
    """*fn*, made *factor* times slower by spinning after it returns."""
    def slow(*args, **kwargs):
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        until = perf_counter() + (factor - 1.0) * (perf_counter() - t0)
        while perf_counter() < until:
            pass
        return result
    return slow


def test_metric_lists_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.PER_LAYER
    assert sorted(w["name"] for w in SPEC["workloads"]) == \
        sorted(__import__("workloads").WORKLOADS)


def test_planted_slowdown_is_named_and_moves_run_s(tmp_path):
    from repro.sched.simulator import SimulatorSession

    workload = TrafficCapture(seed=7, root=ROOT, work=tmp_path)
    workload.n_jobs = 4000      # keeps the test short
    workload.setup()
    runner = run.Runner(workload)
    runner.once()               # warm-up
    original = SimulatorSession.run_to_completion
    ledger = Ledger()

    def one(planted, traced):
        if planted:
            SimulatorSession.run_to_completion = _slowed(original, 1.3)
        try:
            wall, cost, _, delta = runner.once(ledger if traced else None)
        finally:
            SimulatorSession.run_to_completion = original
        if traced:
            return wall, layer_metrics(ledger.take(), delta, wall)
        return cost, None

    # (planted, traced); each untraced pair runs back to back
    runs = {(p, t): [] for t in (False, True) for p in (False, True)}
    for i in range(9):
        order = list(runs) if i % 2 == 0 else list(reversed(list(runs)))
        for key in order:
            runs[key].append(one(*key))
    workload.close()
    assert runner.failed == 0, runner.problems

    # adjacent runs share the host's state, so compare them pairwise
    ratios = [planted / base for (planted, _), (base, _)
              in zip(runs[True, False], runs[False, False])]
    moved_by = statistics.median(ratios) - 1.0
    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "run_s")
    assert moved_by > bound, (ratios, bound)

    def self_times(key):
        ledgers = [values for _, values in runs[key]]
        return {k: statistics.median(v[k] for v in ledgers)
                for k in ledgers[0] if run.PER_LAYER.get(k) == "s"
                and not k.startswith("trace.")}

    base, planted = self_times((False, True)), self_times((True, True))
    moved = max(base, key=lambda k: planted[k] - base[k])
    assert moved == "sched.session.s", (moved, base, planted)
