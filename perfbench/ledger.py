"""Per-layer ledger: timed spans around calls into ``repro``'s layers.

The ledger is built from the benchmark's side only.  :class:`Ledger`
replaces selected public functions and methods of ``repro.*`` modules
with wrappers that open a span on entry and close it on return, then
restores the originals.  Nothing under ``src/`` is edited.

A span's *self time* is its duration minus the time covered by spans
opened while it was open (its children), so summing self time over
every layer plus the time outside any span (the unattributed
remainder) gives back the wall time of the traced run exactly.  Spans
are kept as per-layer sums in memory; nothing is written while a run
is in flight.

Layer names follow the ``repro.*`` module that owns the function
(``sched.session``, ``durable.wal``, ...).  A time metric is named by
its key in :data:`PROBES` (``<layer>.s`` or ``<layer>.<phase>_s``).
The wrappers are not thread-safe, so they are only armed while the
workload runs on the calling thread; process-pool workers forked during
a traced run inherit the wrappers but report nothing back.
"""

from __future__ import annotations

import concurrent.futures
import importlib
import os
import pickle
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: obs counters whose per-run deltas every workload records
#: (``guard.shed.*`` is summed into one figure for the metric list).
COUNTER_PREFIXES = (
    "sched.events_processed",
    "sched.jobs_shed",
    "guard.shed",
    "roofline.memo.",
    "jit.cache.",
    "traffic.capture_jobs",
    "solvers.amg.setups",
    "solvers.amg.vcycles",
    "roofline.traces_priced",
)


def counter_snapshot() -> Dict[str, float]:
    """Current values of every counter under :data:`COUNTER_PREFIXES`."""
    from repro.obs import metrics

    counters = metrics.snapshot()["counters"]
    return {k: v for k, v in counters.items()
            if k.startswith(COUNTER_PREFIXES)}


def counter_delta(before: Dict[str, float],
                  after: Dict[str, float]) -> Dict[str, float]:
    """Nonzero per-name differences ``after - before``."""
    out = {}
    for name, value in after.items():
        d = value - before.get(name, 0)
        if d:
            out[name] = d
    return out


# -- count hooks: (ledger, args, kwargs, result, before) -> None ---------

def _bdf_before(args, kwargs):
    stats = args[0].stats
    return stats.n_steps, stats.n_rhs


def _bdf_after(ledger, args, kwargs, result, before):
    stats = args[0].stats
    ledger.counts["ode.bdf.steps"] += stats.n_steps - before[0]
    ledger.counts["ode.bdf.rhs_calls"] += stats.n_rhs - before[1]


def _gmres_after(ledger, args, kwargs, result, before):
    ledger.counts["solvers.krylov.iterations"] += result[1].iterations


def _pcg_step_after(ledger, args, kwargs, result, before):
    ledger.counts["solvers.krylov.iterations"] += 1


def _priced_after(ledger, args, kwargs, result, before):
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    if ledger.artifact is not None:
        key = f"artifact.{ledger.artifact}"
        ledger.counts[f"{key}.modeled_s"] += result.total
        ledger.counts[f"{key}.flops"] += trace.total_flops
        ledger.counts[f"{key}.bytes"] += trace.total_bytes


def _session_after(ledger, args, kwargs, result, before):
    ledger.counts["sched.session.events"] += args[0].events


def _admission_after(ledger, args, kwargs, result, before):
    if not result:
        ledger.counts["guard.admission.shed"] += 1


def _registry_after(ledger, args, kwargs, result, before):
    if result:
        ledger.counts["tenant.registry.admits"] += 1


def _frame_after(ledger, args, kwargs, result, before):
    ledger.counts["traffic.capture.frames"] += 1


def _load_after(ledger, args, kwargs, result, before):
    path = args[1] if len(args) > 1 else kwargs["path"]
    ledger.counts["traffic.trace.bytes"] += os.path.getsize(path)


def _wal_after(ledger, args, kwargs, result, before):
    ledger.counts["durable.wal.appends"] += 1
    payload = args[1] if len(args) > 1 else kwargs["payload"]
    ledger.counts["durable.wal.bytes"] += len(payload)


def _jobs_for_after(ledger, args, kwargs, result, before):
    ledger.counts["traffic.population.jobs"] += len(result)


def _sample_after(ledger, args, kwargs, result, before):
    ledger.counts["traffic.arrivals.draws"] += len(result)


def _pickled_bytes(ledger, items):
    ledger.counts["par.backend.bytes_pickled"] += len(pickle.dumps(items))


def _fanout_after(ledger, args, kwargs, result, before):
    from repro.par.backend import get_backend

    items = args[1] if len(args) > 1 else kwargs["items"]
    ledger.counts["par.backend.tasks"] += len(items)
    if get_backend(kwargs.get("backend"),
                   kwargs.get("workers")).kind.endswith("process"):
        # computed, not measured: its own span keeps it out of the layers
        ledger.call(LEDGER_KEY, _pickled_bytes, ledger, items)


#: (time metric, module, attribute path, after-hook, before-hook,
#:  item count for generator functions).  The first component names
#: the layer; the ledger key is the time metric itself.
PROBES: Tuple[Tuple[str, str, str, Optional[Callable],
                    Optional[Callable], Optional[str]], ...] = (
    ("ode.bdf.s", "repro.ode.bdf", "BdfIntegrator.integrate",
     _bdf_after, _bdf_before, None),
    ("solvers.krylov.s", "repro.solvers.krylov", "pcg", None, None, None),
    ("solvers.krylov.s", "repro.solvers.krylov", "gmres",
     _gmres_after, None, None),
    ("solvers.krylov.s", "repro.solvers.krylov", "PcgSolver.solve",
     None, None, None),
    ("solvers.krylov.s", "repro.solvers.krylov", "PcgSolver.step",
     _pcg_step_after, None, None),
    ("solvers.boomeramg.setup_s", "repro.solvers.boomeramg",
     "BoomerAMG.setup", None, None, None),
    ("solvers.boomeramg.vcycle_s", "repro.solvers.boomeramg",
     "BoomerAMG.vcycle", None, None, None),
    ("fem.operators.mult_s", "repro.fem.operators",
     "DiffusionOperator.mult", None, None, None),
    ("fem.operators.mult_s", "repro.fem.operators",
     "MassOperator.mult", None, None, None),
    ("lda.vem.e_step_s", "repro.lda.vem", "e_step", None, None, None),
    ("spark.engine.s", "repro.spark.engine", "SparkEngine.map_partitions",
     None, None, None),
    ("spark.engine.s", "repro.spark.engine", "SparkEngine.shuffle",
     None, None, None),
    ("spark.engine.s", "repro.spark.engine", "SparkEngine.aggregate",
     None, None, None),
    ("dtrain.s", "repro.dtrain.distributed", "sgd_train",
     None, None, None),
    ("dtrain.s", "repro.dtrain.distributed", "kavg_train",
     None, None, None),
    ("dtrain.s", "repro.dtrain.distributed", "AsgdServer.train",
     None, None, None),
    ("dtrain.s", "repro.dtrain.streams", "train_stream_classifiers",
     None, None, None),
    ("dtrain.s", "repro.dtrain.streams", "combine_and_score",
     None, None, None),
    ("resilience.driver.s", "repro.resilience.driver",
     "ResilientDriver.run", None, None, None),
    ("core.roofline.s", "repro.core.roofline", "RooflineModel.run_on_gpu",
     _priced_after, None, None),
    ("core.roofline.s", "repro.core.roofline", "RooflineModel.run_on_cpu",
     _priced_after, None, None),
    ("sched.cluster.run_s", "repro.sched.simulator", "ClusterSimulator.run",
     None, None, None),
    ("traffic.population.s", "repro.traffic.population",
     "UserPopulation.stream_jobs", None, None, "traffic.population.jobs"),
    ("traffic.population.s", "repro.traffic.population",
     "UserPopulation.jobs_for", _jobs_for_after, None, None),
    ("traffic.arrivals.s", "repro.traffic.arrivals",
     "ArrivalProcess.stream", None, None, "traffic.arrivals.draws"),
    ("traffic.arrivals.s", "repro.traffic.arrivals",
     "ArrivalProcess.sample", _sample_after, None, None),
    ("sched.session.s", "repro.sched.simulator",
     "SimulatorSession.run_to_completion", _session_after, None, None),
    ("guard.admission.s", "repro.guard.deadline",
     "AdmissionController.admit", _admission_after, None, None),
    ("tenant.registry.s", "repro.tenant.registry", "TenantRegistry.admit",
     _registry_after, None, None),
    ("tenant.recorder.dump_s", "repro.tenant.recorder",
     "FlightRecorder.dump_incident", None, None, None),
    ("traffic.capture.s", "repro.traffic.capture", "CaptureTap.on_job",
     _frame_after, None, None),
    ("traffic.capture.s", "repro.traffic.capture", "CaptureTap.on_decision",
     _frame_after, None, None),
    ("traffic.capture.s", "repro.traffic.capture", "CaptureTap.seal",
     None, None, None),
    ("traffic.capture.s", "repro.traffic.capture", "CaptureTap.close",
     None, None, None),
    ("traffic.trace.load_s", "repro.traffic.trace", "TrafficTrace.load",
     _load_after, None, None),
    ("traffic.driver.fingerprint_s", "repro.traffic.driver",
     "TrafficReport.fingerprint", None, None, None),
    ("durable.wal.s", "repro.durable.wal", "WriteAheadLog.append",
     _wal_after, None, None),
    ("durable.wal.s", "repro.durable.wal", "WriteAheadLog.flush",
     None, None, None),
    ("durable.wal.s", "repro.durable.wal", "WriteAheadLog.close",
     None, None, None),
    ("par.backend.s", "repro.par.backend", "map_fanout",
     _fanout_after, None, None),
    ("traffic.ab.s", "repro.traffic.ab", "ab_replay", None, None, None),
)

#: the span a parent spends blocked on a fan-out's futures
WAIT_KEY = "par.backend.parent_wait_s"
#: the ledger's own bookkeeping inside a traced run
LEDGER_KEY = "trace.ledger_s"


class Ledger:
    """Self time, call counts and work counts per layer.

    :meth:`arm` installs the wrappers and :meth:`disarm` removes them;
    :meth:`take` returns the totals gathered since the last call and
    clears them.  While a paper script runs, :attr:`artifact` names it,
    so the roofline pricing it does is booked to it.
    """

    def __init__(self) -> None:
        self.artifact: Optional[str] = None
        self._undo: List[Tuple[Any, str, Any]] = []
        self._stack: List[list] = []   # [key, child seconds] per open span
        self._clear()

    def _clear(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.wall_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.top_s = 0.0

    # -- spans -----------------------------------------------------------

    def _close(self, frame: list, dt: float) -> None:
        stack = self._stack
        stack.pop()
        key = frame[0]
        self.self_s[key] += dt - frame[1]
        self.wall_s[key] += dt
        self.calls[key] += 1
        if stack:
            stack[-1][1] += dt
        else:
            self.top_s += dt

    def call(self, key: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named *key*."""
        frame = [key, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame, perf_counter() - t0)

    def _wrap(self, key, fn, after, before):
        ledger = self

        def traced(*args, **kwargs):
            state = None if before is None else before(args, kwargs)
            frame = [key, 0.0]
            ledger._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ledger._close(frame, perf_counter() - t0)
            if after is not None:
                after(ledger, args, kwargs, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_iter(self, key, fn, item_key):
        ledger = self

        def each(it):
            while True:
                frame = [key, 0.0]
                ledger._stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    ledger._close(frame, perf_counter() - t0)
                ledger.counts[item_key] += 1
                yield item

        def traced(*args, **kwargs):
            return each(iter(fn(*args, **kwargs)))

        traced.__wrapped__ = fn
        return traced

    def _wrap_wait(self, fn):
        ledger = self

        def result(future, *args, **kwargs):
            stack = ledger._stack
            if not stack or stack[-1][0] != "par.backend.s":
                return fn(future, *args, **kwargs)
            return ledger.call(WAIT_KEY, fn, future, *args, **kwargs)

        return result

    def _wrap_fsync(self, fn):
        ledger = self

        def fsync(fd):
            ledger.counts["durable.wal.fsyncs"] += 1
            return fn(fd)

        return fsync

    # -- arming ----------------------------------------------------------

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch(self, module_name, path, make) -> None:
        module = importlib.import_module(module_name)
        *owner_path, name = path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part)
        raw = owner.__dict__[name]
        if isinstance(raw, (classmethod, staticmethod)):
            self._set(owner, name, type(raw)(make(raw.__func__)))
            return
        wrapped = make(raw)
        self._set(owner, name, wrapped)
        if owner is module:
            # rebind names imported with ``from module import fn``
            for other in list(sys.modules.values()):
                space = getattr(other, "__dict__", None)
                if other is module or not isinstance(space, dict):
                    continue
                for alias, value in list(space.items()):
                    if value is raw:
                        self._set(other, alias, wrapped)

    def arm(self) -> None:
        """Install every wrapper; call :meth:`disarm` even if this raises."""
        if self._undo:
            raise RuntimeError("ledger already armed")
        for key, module, path, after, before, item_key in PROBES:
            if item_key is not None:
                self._patch(module, path, lambda fn, k=key, i=item_key:
                            self._wrap_iter(k, fn, i))
            else:
                self._patch(module, path, lambda fn, k=key, a=after,
                            b=before: self._wrap(k, fn, a, b))
        self._set(concurrent.futures.Future, "result",
                  self._wrap_wait(concurrent.futures.Future.result))
        self._set(os, "fsync", self._wrap_fsync(os.fsync))

    def disarm(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    def take(self) -> Dict[str, Any]:
        """Return and clear the totals gathered since the last take."""
        out = {
            "self_s": dict(self.self_s),
            "wall_s": dict(self.wall_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "top_s": self.top_s,
        }
        self._clear()
        return out


def layer_metrics(taken: Dict[str, Any], obs: Dict[str, float],
                  run_s: float) -> Dict[str, float]:
    """Per-layer metric values of one traced run.

    *taken* is :meth:`Ledger.take`'s result, *obs* the run's counter
    deltas and *run_s* its traced wall time.  The returned dict also
    carries ``trace.unattributed_s``: the part of *run_s* outside
    every span.  Spans named ``artifact.<stem>`` (one per paper script)
    are reported as ``artifact.<stem>.s``, their whole duration.
    """
    self_s, calls, counts = taken["self_s"], taken["calls"], taken["counts"]
    out: Dict[str, float] = {}
    for key in {p[0] for p in PROBES} | {WAIT_KEY}:
        out[key] = self_s.get(key, 0.0)
    # a script's span is reported whole; its self time is the glue
    # around the layers, summed over scripts
    out["artifact.self_s"] = 0.0
    for key, seconds in taken["wall_s"].items():
        if key.startswith("artifact."):
            out[f"{key}.s"] = seconds
            out["artifact.self_s"] += self_s[key]
    for key, value in counts.items():
        out[key] = value

    def ratio(num, den):
        return num / den if den else 0.0

    out["fem.operators.mults"] = calls.get("fem.operators.mult_s", 0)
    out["solvers.boomeramg.setups"] = obs.get("solvers.amg.setups", 0)
    out["solvers.boomeramg.vcycles"] = obs.get("solvers.amg.vcycles", 0)
    out["core.roofline.traces_priced"] = obs.get("roofline.traces_priced", 0)
    hits = obs.get("roofline.memo.hits", 0)
    out["core.roofline.memo_hit_ratio"] = ratio(
        hits, hits + obs.get("roofline.memo.misses", 0))
    jit_hits = obs.get("jit.cache.hit", 0)
    out["core.jit.hit_ratio"] = ratio(
        jit_hits, jit_hits + obs.get("jit.cache.miss", 0))
    out["sched.session.ns_per_event"] = 1e9 * ratio(
        out["sched.session.s"], counts.get("sched.session.events", 0))
    out["guard.admission.calls"] = calls.get("guard.admission.s", 0)
    registry_calls = calls.get("tenant.registry.s", 0)
    out["tenant.registry.calls"] = registry_calls
    out["tenant.registry.admit_ratio"] = ratio(
        counts.get("tenant.registry.admits", 0), registry_calls)
    out.pop("tenant.registry.admits", None)
    out["trace.unattributed_s"] = run_s - taken["top_s"]
    return out
