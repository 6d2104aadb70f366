"""The benchmark's workloads.

Each workload is a batch job run in a closed loop: the runner calls
:meth:`run` again only after the previous call returned.  ``setup``
does the imports and the input synthesis; ``run`` is one timed batch
run and returns an :class:`Outcome` with its correctness checks.
``repro`` is imported inside ``setup`` so that a fresh process can time
its own set-up from before the first import.

Every workload takes its seed from the command line; the program under
test only ever sees the inputs generated from it.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import itertools
import multiprocessing
import random
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ledger import Ledger

Check = Tuple[str, bool, str]


@dataclasses.dataclass
class Outcome:
    """What one timed run produced."""

    checks: List[Check]
    #: offered jobs resolved by the simulator in this run (0: none)
    jobs: int = 0
    #: simulated-clock figures of the run's primary traffic report
    sim: Dict[str, float] = dataclasses.field(default_factory=dict)


def stop_workers() -> None:
    """Shut down ``repro.par``'s cached pools and wait for the workers."""
    from repro.par import shutdown_pools

    shutdown_pools()
    for child in multiprocessing.active_children():
        child.join(timeout=30)


# ---------------------------------------------------------------------------
# paper_regen
# ---------------------------------------------------------------------------


class _BenchmarkStandIn:
    """Stands in for pytest-benchmark's ``benchmark`` fixture.

    Runs the function once and returns its result, so a script's
    ``test_*_shape`` assertions apply to one fresh build.  Results of
    argument-free builders are kept in *memo*, so regenerating the
    script's tables afterwards reuses them instead of building twice.
    """

    stats = None

    def __init__(self, memo: Dict[int, Tuple[Any, Any]]):
        self.memo = memo
        self.extra_info: Dict[str, Any] = {}

    def __call__(self, fn, *args, **kwargs):
        return self._run(fn, args, kwargs)

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1,
                 **_ignored):
        return self._run(fn, tuple(args), dict(kwargs or {}))

    def _run(self, fn, args, kwargs):
        result = fn(*args, **kwargs)
        if not args and not kwargs:
            self.memo[id(fn)] = (fn, result)
        return result


def _main_block(path: Path):
    """Compiled body of the script's ``if __name__ == "__main__":``."""
    tree = ast.parse(path.read_text(), str(path))
    for node in tree.body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and isinstance(node.test.left, ast.Name)
                and node.test.left.id == "__name__"):
            body = ast.Module(body=node.body, type_ignores=[])
            return compile(body, str(path), "exec")
    raise ValueError(f"{path}: no __main__ block")


class PaperRegen:
    """Regenerate every ``benchmarks/bench_*.py`` table and figure.

    Per script: run each ``test_*_shape`` function through the fixture
    stand-in (one check each), then run the script's ``__main__`` body
    with builders already built by a shape test answered from the
    memo; the printed tables must not be empty (one check each).  The
    seed fixes the order the scripts run in.
    """

    name = "paper_regen"

    def __init__(self, seed: int, root: Path, work: Path):
        self.seed, self.root, self.work = seed, root, work

    def setup(self) -> None:
        scripts = sorted((self.root / "benchmarks").glob("bench_*.py"))
        if not scripts:
            raise FileNotFoundError("no benchmarks/bench_*.py scripts")
        self.artifacts = []
        for path in scripts:
            module = importlib.import_module(path.stem)
            shapes = []
            for name, fn in sorted(vars(module).items()):
                if not (name.startswith("test_") and name.endswith("_shape")
                        and inspect.isfunction(fn)):
                    continue
                fixtures = [p for p in inspect.signature(fn).parameters
                            if p != "benchmark"]
                shapes.append((name, fn, fixtures))
            self.artifacts.append((path.stem, module, shapes,
                                   _main_block(path)))
        random.Random(self.seed).shuffle(self.artifacts)

    def _regen(self, module, shapes, main) -> Tuple[List[Check], str]:
        memo: Dict[int, Tuple[Any, Any]] = {}
        checks: List[Check] = []
        for name, fn, fixtures in shapes:
            # pytest fixtures are rebuilt every run, so caches they own
            # (the cardioid JIT) start cold each time, as in one pytest run
            kwargs = {p: getattr(module, p).__wrapped__() for p in fixtures}
            try:
                fn(benchmark=_BenchmarkStandIn(memo), **kwargs)
                checks.append((f"{module.__name__}.{name}", True, ""))
            except AssertionError as exc:
                checks.append((f"{module.__name__}.{name}", False,
                               f"assertion failed: {exc}"))
        space = dict(vars(module))
        for key, value in space.items():
            built = memo.get(id(value))
            if built is not None and built[0] is value:
                space[key] = lambda _r=built[1]: _r
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(main, space)
        return checks, out.getvalue()

    def run(self, ledger: Optional[Ledger] = None) -> Outcome:
        checks: List[Check] = []
        for stem, module, shapes, main in self.artifacts:
            if ledger is None:
                shape_checks, text = self._regen(module, shapes, main)
            else:
                ledger.artifact = stem
                shape_checks, text = ledger.call(
                    f"artifact.{stem}", self._regen, module, shapes, main)
            checks += shape_checks
            checks.append((f"{stem}.tables", bool(text.strip()),
                           "" if text.strip() else "no table printed"))
        if ledger is not None:
            ledger.artifact = None
        return Outcome(checks)

    def close(self) -> None:
        stop_workers()


# ---------------------------------------------------------------------------
# traffic_capture
# ---------------------------------------------------------------------------


class TrafficCapture:
    """Streamed open-loop Poisson capture, then one load-and-replay.

    Offered load 0.8 on 8 GPUs with single-tenant admission, a breaker
    and chaos; the arrivals are open-loop on the simulated clock.  The
    capture streams jobs and decisions into a buffered WAL; the trace
    is then loaded and replayed, and both the seal and the replay must
    match the run's fingerprint.
    """

    name = "traffic_capture"
    n_gpus = 8
    mean_service = 10.0
    #: offered jobs per run; the horizon is cut just after the last one,
    #: so every seed offers the same number of jobs
    n_jobs = 9600

    def __init__(self, seed: int, root: Path, work: Path):
        self.seed, self.root, self.work = seed, root, work

    def setup(self) -> None:
        from repro.traffic import (AdmissionSpec, ChaosSpec, OpenLoopDriver,
                                   PoissonArrivals)

        self.process = PoissonArrivals(
            rate=0.8 * self.n_gpus / self.mean_service)
        arrivals = list(itertools.islice(self.process.stream(self.seed),
                                         self.n_jobs + 1))
        horizon = 0.5 * (arrivals[-2] + arrivals[-1])
        self.driver = OpenLoopDriver(
            n_gpus=self.n_gpus, policy="fcfs", horizon=horizon,
            admission=AdmissionSpec(
                max_queue=3 * self.n_gpus, protect_priority=2,
                breaker_failure_threshold=3, breaker_recovery_time=40.0,
            ),
            chaos=ChaosSpec(mtbf=300.0, seed=self.seed + 1),
        )

    def run(self, ledger: Optional[Ledger] = None) -> Outcome:
        from repro.traffic import (UserPopulation, capture_experiment,
                                   replay_experiment)

        path = self.work / "capture.trace"
        path.unlink(missing_ok=True)
        # the population is stateful: a fresh one per run
        population = UserPopulation(n_users=50_000, seed=self.seed,
                                    mean_service=self.mean_service,
                                    best_effort_fraction=0.3)
        trace, report = capture_experiment(
            path, self.process, population, self.driver, n_jobs=None,
            arrival_seed=self.seed, decisions=True, sync=False,
        )
        replayed, loaded = replay_experiment(path)
        sealed = trace.complete and trace.fingerprint == report.fingerprint()
        matched = replayed.fingerprint() == loaded.fingerprint
        checks = [
            ("capture sealed with the run fingerprint", sealed, ""),
            ("replay matches the sealed trailer", matched, ""),
        ]
        return Outcome(checks, jobs=2 * len(trace.jobs), sim={
            "sim_p99_wait_s": report.p99_wait,
            "sim_shed_rate": report.shed_rate,
        })

    def close(self) -> None:
        stop_workers()


# ---------------------------------------------------------------------------
# tenant_ab
# ---------------------------------------------------------------------------


class TenantAB:
    """Multi-tenant pile-up incident, dumped and A/B-replayed.

    Three compliant tenants and one noisy tenant at 4x their share,
    with chaos.  A run records the incident (forced reason, one fsync
    per frame) and replays its trace against four variants on a
    two-worker process backend.  Pools are started and stopped inside
    each run, as a one-shot drill would.
    """

    name = "tenant_ab"
    n_gpus = 8
    jobs_per_tenant = 600

    def __init__(self, seed: int, root: Path, work: Path):
        self.seed, self.root, self.work = seed, root, work

    def setup(self) -> None:
        from repro.tenant import multitenant_pileup
        from repro.traffic import ABVariant

        self.bundle = multitenant_pileup(
            n_gpus=self.n_gpus, n_compliant=3, noisy_factor=4.0,
            n_jobs_per_tenant=self.jobs_per_tenant, seed=self.seed,
        )
        arbiter_off = dataclasses.replace(self.bundle.tenancy,
                                          arbiter_enabled=False)
        self.variants = [
            ABVariant("sjf", {"policy": "sjf"}),
            ABVariant("sjf_quota", {"policy": "sjf_quota"}),
            ABVariant("half_gpus", {"n_gpus": self.n_gpus // 2}),
            ABVariant("arbiter_off", {"tenancy": arbiter_off.describe()}),
        ]

    def run(self, ledger: Optional[Ledger] = None) -> Outcome:
        from repro.tenant import record_incident
        from repro.traffic import ChaosSpec, OpenLoopDriver, ab_replay

        path = self.work / "incident.trace"
        path.unlink(missing_ok=True)
        driver = OpenLoopDriver(
            n_gpus=self.n_gpus, policy="fcfs", tenancy=self.bundle.tenancy,
            chaos=ChaosSpec(mtbf=250.0, seed=self.seed + 1),
        )
        try:
            trace, report = record_incident(path, self.bundle.jobs, driver,
                                            reason="perfbench")
            ab = ab_replay(path, self.variants, backend="process:2")
        finally:
            stop_workers()
        checks = [
            ("incident dumped", trace is not None, ""),
            ("A/B baseline matches the sealed fingerprint",
             ab.fingerprint_matched is True, ""),
            ("A/B baseline replays self-consistently", ab.self_consistent,
             ""),
            ("no A/B divergence", not ab.diverged, ""),
        ]
        # the recorded run, the two baseline replays and four variants
        replays = 1 + 2 + len(self.variants)
        return Outcome(checks, jobs=replays * len(self.bundle.jobs), sim={
            "sim_p99_wait_s": report.p99_wait,
            "sim_shed_rate": report.shed_rate,
        })

    def close(self) -> None:
        stop_workers()


WORKLOADS = {w.name: w for w in (PaperRegen, TrafficCapture, TenantAB)}
