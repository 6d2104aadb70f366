"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_regen --seed 1 \
        --seconds 30 --trace 0

The workload runs in a closed loop of timed batch runs for about
``--seconds`` seconds; the first run is a warm-up whose checks count
but whose time is not sampled.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced runs, reports the per-layer ledger (see
``ledger.py``) and the tracing overhead, and writes the full ledger to
``.perfbench/ledger-<workload>-<seed>.json``.

Exit codes: 0 with a result; 1 when a check failed (the result is
still printed, with ``correct`` false); 2 when the workload cannot run
at all (no result is printed).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: end-to-end metrics, reported by ``--trace 0`` (see BENCHMARK.json)
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

ARTIFACTS = (
    "bench_ablation_amg", "bench_ablation_fusion", "bench_ablation_kavg",
    "bench_cardioid_dsl", "bench_fig2_lda", "bench_fig3_lbann",
    "bench_fig6_paradyn", "bench_fig8_breakdown", "bench_fig9_vbl",
    "bench_md_gromacs", "bench_minikin_speedup",
    "bench_resilience_overhead", "bench_sched_policies",
    "bench_sw4_hayward", "bench_table2_graph", "bench_table3_streams",
    "bench_table4_fem_speedup", "bench_table5_cleverleaf",
    "bench_vbl_transfer",
)
#: artifacts whose builders price kernel traces on the roofline model
MODELED = ("bench_fig8_breakdown", "bench_sw4_hayward",
           "bench_table4_fem_speedup", "bench_table5_cleverleaf",
           "bench_vbl_transfer")

#: per-layer metrics, reported by ``--trace 1``: name -> unit
PER_LAYER: Dict[str, str] = {}
for _stem in ARTIFACTS:
    PER_LAYER[f"artifact.{_stem}.s"] = "s"
PER_LAYER["artifact.self_s"] = "s"
for _stem in MODELED:
    PER_LAYER[f"artifact.{_stem}.modeled_s"] = "s"
    PER_LAYER[f"artifact.{_stem}.flops"] = "flop"
    PER_LAYER[f"artifact.{_stem}.bytes"] = "B"
PER_LAYER.update({
    "ode.bdf.s": "s", "ode.bdf.steps": "count", "ode.bdf.rhs_calls": "count",
    "solvers.krylov.s": "s", "solvers.krylov.iterations": "count",
    "solvers.boomeramg.setup_s": "s", "solvers.boomeramg.vcycle_s": "s",
    "solvers.boomeramg.setups": "count", "solvers.boomeramg.vcycles": "count",
    "fem.operators.mult_s": "s", "fem.operators.mults": "count",
    "lda.vem.e_step_s": "s",
    "spark.engine.s": "s", "dtrain.s": "s", "resilience.driver.s": "s",
    "core.roofline.s": "s", "core.roofline.traces_priced": "count",
    "core.roofline.memo_hit_ratio": "ratio", "core.jit.hit_ratio": "ratio",
    "sched.cluster.run_s": "s",
    "traffic.population.s": "s", "traffic.population.jobs": "count",
    "traffic.arrivals.s": "s", "traffic.arrivals.draws": "count",
    "sched.session.s": "s", "sched.session.events": "count",
    "sched.session.ns_per_event": "ns",
    "guard.admission.s": "s", "guard.admission.calls": "count",
    "guard.admission.shed": "count",
    "tenant.registry.s": "s", "tenant.registry.calls": "count",
    "tenant.registry.admit_ratio": "ratio", "tenant.recorder.dump_s": "s",
    "traffic.capture.s": "s", "traffic.capture.frames": "count",
    "traffic.trace.load_s": "s", "traffic.trace.bytes": "B",
    "traffic.driver.fingerprint_s": "s",
    "durable.wal.s": "s", "durable.wal.appends": "count",
    "durable.wal.bytes": "B", "durable.wal.fsyncs": "count",
    "par.backend.s": "s", "par.backend.tasks": "count",
    "par.backend.parent_wait_s": "s", "par.backend.bytes_pickled": "B",
    "traffic.ab.s": "s",
    "obs.sched.events_processed": "count", "obs.sched.jobs_shed": "count",
    "obs.guard.shed": "count", "obs.roofline.memo.hits": "count",
    "obs.roofline.memo.misses": "count", "obs.jit.cache.hit": "count",
    "obs.jit.cache.miss": "count", "obs.traffic.capture_jobs": "count",
    "trace.run_s": "s", "trace.untraced_run_s": "s",
    "trace.overhead": "ratio", "trace.unattributed_s": "s",
})

#: set-up is timed this many times per run (fresh processes but one)
SETUP_SAMPLES = 5


def _obs_metrics(delta: Dict[str, float]) -> Dict[str, float]:
    out = {f"obs.{name}": delta.get(name, 0) for name in (
        "sched.events_processed", "sched.jobs_shed", "roofline.memo.hits",
        "roofline.memo.misses", "jit.cache.hit", "jit.cache.miss",
        "traffic.capture_jobs")}
    out["obs.guard.shed"] = sum(v for k, v in delta.items()
                                if k.startswith("guard.shed"))
    return out


class HostProbe:
    """Host speed sampled during a run, to take the host's drift out.

    On a shared host, the same run's wall time swings by 20-30% over
    tens of seconds as other tenants load the machine, and no statistic
    over 30 s of samples removes that.  While a run is timed, SIGALRM
    runs a fixed pure-Python kernel every :attr:`INTERVAL` seconds and
    records how long it took.  :meth:`scale` subtracts those kernels
    from a duration and rescales the rest to a host on which the kernel
    takes :attr:`REFERENCE_S`.  A change to the program moves the
    result; a change in the host's speed during the run mostly does
    not.
    """

    INTERVAL = 0.02
    REFERENCE_S = 250e-6

    def __init__(self):
        self.samples: List[float] = []

    def _kernel(self, signum, frame) -> None:
        t0 = perf_counter()
        total = 0
        for i in range(3000):
            total += i * i % 7
        table = {}
        for i in range(500):
            table[i] = total
        self.samples.append(perf_counter() - t0)

    def __enter__(self) -> "HostProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._kernel)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def net(self, seconds: float) -> float:
        """*seconds* without the time the probe kernels took."""
        return seconds - sum(self.samples)

    def scale(self, seconds: float) -> float:
        """*seconds*, net of the probe, at the reference host speed."""
        if not self.samples:
            return self.net(seconds)
        return self.net(seconds) * self.REFERENCE_S / statistics.median(
            self.samples)


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


class Runner:
    """Closed loop of timed runs with checks and counter deltas."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.first_counts = None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{name}: {detail}" if detail else name)

    def once(self, ledger=None):
        """One timed run.

        Returns ``(wall, cost, outcome, counter delta)``.  An untraced
        run is sampled by a :class:`HostProbe`: *wall* is net of the
        probe, and *cost* is the run's CPU time (this process and the
        workers it reaped) at the reference host speed.  A traced run is
        not probed: its *wall* is raw and *cost* is None.
        """
        from ledger import counter_delta, counter_snapshot

        gc.collect()
        probe = HostProbe()
        before = counter_snapshot()
        try:
            if ledger is not None:
                ledger.arm()
            with contextlib.nullcontext() if ledger else probe:
                cpu0, t0 = cpu_seconds(), perf_counter()
                outcome = self.workload.run(ledger)
                wall, cpu = perf_counter() - t0, cpu_seconds() - cpu0
        finally:
            if ledger is not None:
                ledger.disarm()
        delta = counter_delta(before, counter_snapshot())
        for name, ok, detail in outcome.checks:
            self.check(name, ok, detail)
        if self.first_counts is None:
            self.first_counts = delta
        else:
            diff = sorted(k for k in set(delta) | set(self.first_counts)
                          if delta.get(k) != self.first_counts.get(k))
            self.check("obs counter deltas repeat the first run's",
                        not diff, f"differ on {diff}")
        if ledger is not None:
            return wall, None, outcome, delta
        return probe.net(wall), probe.scale(cpu), outcome, delta


def _time_setup(workload_cls, seed: int, work: Path):
    """Set-up in this process, after timing it in fresh processes."""
    samples = []
    for i in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-only", "--workload", workload_cls.name,
             "--seed", str(seed), "--work", str(work / f"setup{i}")],
            stdout=subprocess.PIPE, timeout=170, check=True, text=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    t0 = perf_counter()
    workload = workload_cls(seed, ROOT, work)
    workload.setup()
    samples.append(perf_counter() - t0)
    return workload, samples


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run the loop; return the result object (without set-up)."""
    from ledger import Ledger, layer_metrics

    runner = Runner(workload)
    plain: List[float] = []
    costs: List[float] = []
    traced: List[float] = []
    layers: List[Dict[str, float]] = []
    ledger = Ledger() if trace else None
    start = perf_counter()
    # warm-up: lazy imports and first-touch costs; checked, not sampled
    first = runner.once()[2]
    while True:
        wall, cost, _, _ = runner.once()
        plain.append(wall)
        costs.append(cost)
        if trace:
            dt, _, _, delta = runner.once(ledger)
            traced.append(dt)
            taken = ledger.take()
            values = layer_metrics(taken, delta, dt)
            values.update(_obs_metrics(delta))
            covered = sum(taken["self_s"].values())
            rest = values["trace.unattributed_s"]
            runner.check(
                "layer self time plus remainder covers the traced run",
                abs(covered + rest - dt) <= 1e-6 * dt and rest >= 0
                and min(taken["self_s"].values(), default=0.0) >= -1e-9,
                f"{covered} + {rest} != {dt}")
            values["trace.run_s"] = dt
            layers.append(values)
        elapsed = perf_counter() - start
        per_loop = statistics.median(plain) + (
            statistics.median(traced) if trace else 0.0)
        if elapsed + 0.5 * per_loop > seconds:
            break
    return {"runner": runner, "plain": plain, "costs": costs,
            "traced": traced, "layers": layers, "first": first}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    t_start = perf_counter()
    # the host has two cores: numeric libraries get at most two threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "2")
    if not (ROOT / "src" / "repro").is_dir() or not (
            ROOT / "benchmarks").is_dir():
        print(f"perfbench: {ROOT} holds no src/repro and benchmarks/ to "
              "measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]

    if args.setup_only:
        work = Path(args.work)
        work.mkdir(parents=True, exist_ok=True)
        workload = cls(args.seed, ROOT, work)
        workload.setup()
        elapsed = perf_counter() - t_start
        workload.close()
        print(elapsed)
        return 0

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    # anything the library writes to a temp dir stays in the checkout
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = str(work / "tmp")
    workload = None
    try:
        workload, setup_samples = _time_setup(cls, args.seed, work)
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)
    return report(args, setup_samples, result, out_dir)


def report(args, setup_samples, result, out_dir: Path) -> int:
    runner = result["runner"]
    plain, first = result["plain"], result["first"]
    run_s = statistics.median(result["costs"])
    wall_s = statistics.median(plain)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines = [f"perfbench {args.workload} seed={args.seed}: {len(plain)} "
             f"untraced + {len(result['traced'])} traced runs"]

    def show(name, value, unit, note=""):
        lines.append(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")

    show("run_s", run_s, "s", f"median CPU time of {len(plain)} untraced "
         "runs at the reference host speed")
    show("wall_s", wall_s, "s", "median wall time of the same runs")
    show("setup_s", statistics.median(setup_samples), "s",
         f"median of {len(setup_samples)} set-ups")
    show("peak_rss_mb", rss_mb, "MB")
    fail_rate = runner.failed / runner.attempted
    show("fail_rate", fail_rate, "ratio",
         f"{runner.failed} of {runner.attempted} checks failed")
    if first.jobs:
        show("jobs_per_s", first.jobs * len(plain) / sum(plain), "1/s",
             f"wall time of {len(plain)} untraced runs")
        show("sim_p99_wait_s", first.sim["sim_p99_wait_s"], "s",
             "simulated clock")
        show("sim_shed_rate", first.sim["sim_shed_rate"], "ratio",
             "simulated clock")
    for problem in runner.problems[:20]:
        lines.append(f"  FAILED {problem}")

    if args.trace:
        layers = result["layers"]
        med = {k: statistics.median(v.get(k, 0.0) for v in layers)
               for k in set().union(*layers)}
        med["trace.untraced_run_s"] = wall_s
        med["trace.overhead"] = med["trace.run_s"] / wall_s - 1.0
        metrics = {k: {"value": med.get(k, 0.0), "unit": u}
                   for k, u in PER_LAYER.items()}
        lines.append("  per-layer ledger (median of traced runs; self time):")
        for k, u in PER_LAYER.items():
            if med.get(k, 0.0):
                show(k, med[k], u)
        out_dir.mkdir(exist_ok=True)
        ledger_path = out_dir / f"ledger-{args.workload}-{args.seed}.json"
        ledger_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "untraced_run_s": plain, "traced_run_s": result["traced"],
            "layers": layers, "roofline": roofline_ledger(med),
        }, indent=1, sort_keys=True))
        lines.append(f"  ledger written to {ledger_path}")
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples),
                        "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print("\n".join(lines))
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if runner.failed == 0 else 1


def roofline_ledger(med: Dict[str, float]) -> Dict[str, dict]:
    """Measured wall next to the roofline-modeled figures per artifact.

    One record per script, shaped like a kerncraft roofline report:
    ``FLOPs``, ``bytes``, ``arithmetic intensity`` and ``modeled s``
    are computed from the kernel traces the script priced and repeat
    exactly; ``measured s`` is this host's wall time for the script.
    """
    out = {}
    for stem in ARTIFACTS:
        rec = {"measured s": med.get(f"artifact.{stem}.s", 0.0)}
        flops = med.get(f"artifact.{stem}.flops", 0.0)
        nbytes = med.get(f"artifact.{stem}.bytes", 0.0)
        if flops or nbytes:
            rec.update({
                "modeled s": med.get(f"artifact.{stem}.modeled_s", 0.0),
                "FLOPs": flops,
                "bytes": nbytes,
                "arithmetic intensity": flops / nbytes if nbytes else 0.0,
            })
        out[stem] = rec
    return out


if __name__ == "__main__":
    sys.exit(main())
