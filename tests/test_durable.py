"""Tests for the durable crash-restart core (``repro.durable``).

The load-bearing contract: a campaign journaling into a
:class:`DurableStore` can be SIGKILLed at any instant and a restarted
process resumes **bit-exactly** — same final state, same RNG draws,
same observability counters as an uninterrupted run.  Plus the WAL's
framing guarantees (CRC, torn-tail truncation, atomic rotation), the
idempotent snapshot+journal recovery protocol, the supervised worker
pool (liveness, replacement, poison quarantine, journal
resubmission), and the crash surfacing hardening in ``map_fanout``.
"""

import os
import pickle
import time

import numpy as np
import pytest

from repro.durable import (
    DurableStore,
    ResumableCampaign,
    WriteAheadLog,
    run_chaos,
    state_mismatches,
)
from repro.durable.wal import MAGIC
from repro.obs import metrics as metrics_mod
from repro.par import (
    PoisonTaskError,
    Supervisor,
    WorkerCrashError,
    WorkerTaskError,
    map_fanout,
)
from repro.resilience.checkpoint import CheckpointStore, atomic_write_bytes


# -- top-level fns for supervised workers (pickling/forking) ---------------


def _sq(x):
    return x * x


def _die_on_five(x):
    if x == 5:
        os._exit(21)
    return x


def _die_late(x):
    if x == 12:
        time.sleep(0.5)
        os._exit(21)
    return x


def _poison_three(x):
    if x == 3:
        os._exit(17)
    return x


def _hang_on_one(x):
    if x == 1:
        time.sleep(60)
    return x


def _raise_on_two(x):
    if x == 2:
        raise ValueError("boom")
    return x


_FLAKY_DIR = None


def _flaky_seven(x):
    # crashes the worker the first time index 7 runs, succeeds after
    marker = os.path.join(_FLAKY_DIR, f"m{x}")
    if x == 7 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(13)
    return x + 1


def _slow_sq(x):
    time.sleep(0.02)
    return x * x


# -------------------------------------------------------------------------
# WriteAheadLog
# -------------------------------------------------------------------------


class TestWriteAheadLog:
    def test_round_trip_and_reopen(self, tmp_path):
        path = tmp_path / "j.wal"
        payloads = [b"alpha", b"", b"x" * 10_000, pickle.dumps({"k": 1})]
        with WriteAheadLog(path) as wal:
            for p in payloads:
                wal.append(p)
            assert wal.records() == payloads
        with WriteAheadLog(path) as wal:
            assert wal.records_on_open == len(payloads)
            assert wal.truncated_bytes == 0
            assert wal.records() == payloads

    def test_empty_wal_recovers_to_nothing(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadLog(path) as wal:
            assert wal.records() == []
        with WriteAheadLog(path) as wal:
            assert wal.records_on_open == 0
            assert wal.records() == []

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadLog(path) as wal:
            wal.append(b"committed-1")
            wal.append(b"committed-2")
        intact = path.stat().st_size
        # simulate a crash mid-append: half a frame at the tail
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00\x10\x00garbage")
        torn = path.stat().st_size - intact
        with WriteAheadLog(path) as wal:
            assert wal.truncated_bytes == torn
            assert path.stat().st_size == intact
            assert wal.records() == [b"committed-1", b"committed-2"]

    def test_corrupt_crc_drops_tail(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadLog(path) as wal:
            wal.append(b"good")
            wal.append(b"to-corrupt")
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip a payload byte of the last record
        path.write_bytes(bytes(raw))
        with WriteAheadLog(path) as wal:
            assert wal.records() == [b"good"]

    def test_headerless_file_is_reheadered(self, tmp_path):
        path = tmp_path / "j.wal"
        path.write_bytes(b"not-a-wal")
        with WriteAheadLog(path) as wal:
            assert wal.records() == []
            wal.append(b"fresh")
            assert wal.records() == [b"fresh"]
        assert path.read_bytes().startswith(MAGIC)

    def test_rotation_empties_atomically(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadLog(path) as wal:
            wal.append(b"old-1")
            wal.append(b"old-2")
            wal.rotate()
            assert wal.records() == []
            wal.append(b"new-1")
            assert wal.records() == [b"new-1"]
        assert not list(tmp_path.glob("*.rotate"))

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "j.wal")
        wal.close()
        with pytest.raises(RuntimeError):
            wal.append(b"x")


# -------------------------------------------------------------------------
# DurableStore
# -------------------------------------------------------------------------


class TestDurableStore:
    def test_fresh_store_recovers_none(self, tmp_path):
        with DurableStore(tmp_path) as store:
            assert store.recover() is None

    def test_snapshot_then_journal_recovery(self, tmp_path):
        with DurableStore(tmp_path) as store:
            store.save_snapshot(3, {"v": 3})
            store.journal(4, {"v": 4})
            store.journal(5, {"v": 5})
        with DurableStore(tmp_path) as store:
            step, payload = store.recover()
            assert step == 5
            assert payload == {"v": 5}
            assert store.records_replayed == 2

    def test_duplicate_journal_entries_replay_idempotently(self, tmp_path):
        with DurableStore(tmp_path) as store:
            store.save_snapshot(0, {"v": 0})
            store.journal(1, {"v": 1})
            store.journal(1, {"v": 1})  # a resubmitted step journaled twice
            store.journal(2, {"v": 2})
        with DurableStore(tmp_path) as store:
            step, payload = store.recover()
            assert (step, payload) == (2, {"v": 2})
            assert store.records_skipped == 1

    def test_stale_records_after_snapshot_are_noops(self, tmp_path):
        # crash between snapshot write and journal rotation leaves old
        # records behind; emulate by journaling, then snapshotting into
        # a store whose rotation we bypass via a second handle
        with DurableStore(tmp_path) as store:
            store.journal(1, {"v": 1})
            store.journal(2, {"v": 2})
            store.save_snapshot(2, {"v": 2})
            # re-append pre-snapshot records, as if rotation never ran
            store.wal.append(pickle.dumps({"step": 1, "payload": {"v": 1}}))
        with DurableStore(tmp_path) as store:
            step, payload = store.recover()
            assert (step, payload) == (2, {"v": 2})
            assert store.records_skipped == 1

    def test_journal_without_snapshot(self, tmp_path):
        with DurableStore(tmp_path) as store:
            store.journal(1, {"v": 1})
        with DurableStore(tmp_path) as store:
            assert store.recover() == (1, {"v": 1})

    def test_torn_final_record_recovers_previous(self, tmp_path):
        with DurableStore(tmp_path) as store:
            store.journal(1, {"v": 1})
            store.journal(2, {"v": 2})
        # SIGKILL mid-append of step 3
        with open(tmp_path / "journal.wal", "ab") as fh:
            fh.write(b"\x00\x00\xff\xff torn")
        with DurableStore(tmp_path) as store:
            assert store.recover() == (2, {"v": 2})

    def test_stray_tmp_from_killed_snapshot_is_ignored(self, tmp_path):
        with DurableStore(tmp_path) as store:
            store.save_snapshot(1, {"v": 1})
        # a kill mid-atomic-write leaves snapshot.ckpt.tmp behind
        (tmp_path / "snapshot.ckpt.tmp").write_bytes(b"half-written junk")
        with DurableStore(tmp_path) as store:
            assert store.recover() == (1, {"v": 1})
        assert not (tmp_path / "snapshot.ckpt.tmp").exists()


class TestCheckpointStorePersistence:
    def test_save_to_load_from_round_trip(self, tmp_path):
        store = CheckpointStore()
        state = {"x": np.arange(5.0), "nested": {"k": [1, 2]}}
        store.save(7, state)
        store.save_to(tmp_path / "c.ckpt")
        fresh = CheckpointStore()
        step, loaded = fresh.load_from(tmp_path / "c.ckpt")
        assert step == 7
        assert not state_mismatches(loaded, state)

    def test_atomic_write_replaces_not_appends(self, tmp_path):
        p = tmp_path / "f"
        atomic_write_bytes(p, b"first version, long")
        atomic_write_bytes(p, b"second", sync=False)
        assert p.read_bytes() == b"second"
        assert not (tmp_path / "f.tmp").exists()

    def test_save_nbytes_hint_feeds_accounting(self):
        store = CheckpointStore()
        store.save(0, {"x": np.zeros(4)}, nbytes=999)
        assert store.bytes_written == 999


# -------------------------------------------------------------------------
# ResumableCampaign: kill/resume bit-exactness
# -------------------------------------------------------------------------


def _campaign(seed=0, backend="serial"):
    from repro.workflow.mummi import MummiCampaign

    return MummiCampaign(seed=seed, n_gpus=8, jobs_per_cycle=8,
                         backend=backend)


def _reset_tracked():
    for prefix in ("workflow.", "sched.", "guard."):
        metrics_mod.REGISTRY.reset(prefix)


class TestResumableCampaign:
    N = 8

    def _reference(self):
        _reset_tracked()
        ref = _campaign()
        while ref.progress < self.N:
            ref.step()
        counters = {
            k: v for k, v in metrics_mod.snapshot()["counters"].items()
            if k.startswith(("workflow.", "sched.", "guard."))
        }
        return ref.checkpoint_state(), counters

    def test_interrupted_resume_is_bit_exact(self, tmp_path):
        ref_state, ref_counters = self._reference()

        # first incarnation "dies" (we just stop driving it) mid-run
        _reset_tracked()
        with DurableStore(tmp_path) as store:
            ResumableCampaign(_campaign(), store, cadence=3).run(5)

        # second incarnation: fresh process state, recover, finish
        _reset_tracked()
        with DurableStore(tmp_path) as store:
            driver = ResumableCampaign(_campaign(), store, cadence=3)
            assert driver.recover() == 5
            driver.run(self.N)

        got_counters = {
            k: v for k, v in metrics_mod.snapshot()["counters"].items()
            if k.startswith(("workflow.", "sched.", "guard."))
        }
        with DurableStore(tmp_path) as store:
            step, payload = store.recover()
        assert step == self.N
        assert state_mismatches(payload["state"], ref_state) == []
        assert got_counters == ref_counters

    def test_resume_under_different_backend(self, tmp_path, monkeypatch):
        """Journal under serial, resume under REPRO_PAR=thread:2.

        The fan-out determinism contract (bit-identical results across
        backends) composes with durable resume — the backend is an
        execution detail, not campaign state, so the resumed process
        may come up with a different ``REPRO_PAR`` than the one that
        crashed.
        """
        ref_state, _ = self._reference()
        _reset_tracked()
        monkeypatch.setenv("REPRO_PAR", "serial")
        with DurableStore(tmp_path) as store:
            ResumableCampaign(
                _campaign(backend=None), store, cadence=3,
            ).run(4)
        _reset_tracked()
        monkeypatch.setenv("REPRO_PAR", "thread:2")
        with DurableStore(tmp_path) as store:
            driver = ResumableCampaign(
                _campaign(backend=None), store, cadence=3,
            )
            assert driver.recover() == 4
            driver.run(self.N)
        with DurableStore(tmp_path) as store:
            step, payload = store.recover()
        assert step == self.N
        assert state_mismatches(payload["state"], ref_state) == []

    def test_counters_rewind_on_recover(self, tmp_path):
        _reset_tracked()
        with DurableStore(tmp_path) as store:
            ResumableCampaign(_campaign(), store, cadence=3).run(4)
        committed = metrics_mod.counter("workflow.cycles").value
        # uncommitted post-crash garbage that recovery must erase
        metrics_mod.counter("workflow.cycles").add(100)
        metrics_mod.counter("workflow.bogus_after_crash").add(7)
        with DurableStore(tmp_path) as store:
            ResumableCampaign(_campaign(), store, cadence=3).recover()
        assert metrics_mod.counter("workflow.cycles").value == committed
        assert metrics_mod.counter("workflow.bogus_after_crash").value == 0

    def test_run_requires_termination(self, tmp_path):
        class Stepper:
            progress = 0

            def step(self):
                self.progress += 1

            def checkpoint_state(self):
                return {"p": self.progress}

            def restore_state(self, st):
                self.progress = st["p"]

        with DurableStore(tmp_path) as store:
            driver = ResumableCampaign(Stepper(), store)
            with pytest.raises(ValueError):
                driver.run()
            assert driver.run(3) == 3


# -------------------------------------------------------------------------
# SimulatorSession: the scheduler event loop, stepped and checkpointed
# -------------------------------------------------------------------------


class TestSimulatorSession:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("fault", [False, True])
    def test_session_equals_batch(self, engine, fault):
        """Each engine's session matches a run on the reference engine."""
        from repro.resilience import FaultInjector, ImmediateRetry
        from repro.sched import ClusterSimulator, SjfWithQuota, batch_workload

        sim = ClusterSimulator(8)
        jobs = batch_workload(n_jobs=200, seed=3)

        def kw(engine):
            return dict(
                fault_injector=(
                    FaultInjector(mtbf=80.0, seed=5) if fault else None
                ),
                retry_policy=ImmediateRetry() if fault else None,
                engine=engine,
            )

        ref = sim.run(jobs, SjfWithQuota(8), **kw("reference"))
        assert (ref.failures > 0) == fault
        ses = sim.session(jobs, SjfWithQuota(8), **kw(engine))
        assert ses.run_to_completion() == ref

    def test_checkpoint_resume_is_bit_exact(self):
        from repro.resilience import FaultInjector, ImmediateRetry
        from repro.sched import ClusterSimulator, Sjf, batch_workload

        sim = ClusterSimulator(8)
        jobs = batch_workload(n_jobs=300, seed=9)

        def build(seed):
            return sim.session(
                jobs, Sjf(), fault_injector=FaultInjector(mtbf=60.0, seed=seed),
                retry_policy=ImmediateRetry(),
            )

        ref = build(2).run_to_completion()
        s1 = build(2)
        for _ in range(137):
            s1.step()
        blob = pickle.dumps(s1.checkpoint_state())
        # a *differently seeded* fresh session: restore must overwrite
        # every bit of loop state, including the injector's RNG
        s2 = build(999)
        s2.restore_state(pickle.loads(blob))
        assert s2.run_to_completion() == ref

    def test_session_under_durable_store(self, tmp_path):
        from repro.sched import ClusterSimulator, Fcfs, batch_workload

        sim = ClusterSimulator(4)
        jobs = batch_workload(n_jobs=80, seed=1)
        ref = sim.run(jobs, Fcfs())
        metrics_mod.REGISTRY.reset("sched.")
        with DurableStore(tmp_path) as store:
            ses = sim.session(jobs, Fcfs())
            ResumableCampaign(ses, store, cadence=50,
                              journal_every=10).run()
            assert ses.done
            assert ses.result() == ref


# -------------------------------------------------------------------------
# chaos harness: SIGKILL anywhere, restart, bit-exact convergence
# -------------------------------------------------------------------------


class TestChaos:
    def test_sigkill_resume_bit_exact(self, tmp_path):
        report = run_chaos(n_cycles=6, kills=3, seed=0, kill_seed=7,
                           pace=0.02, cadence=2, store_root=tmp_path)
        assert report.kills == 3
        assert report.restarts >= 4
        assert report.recovered_step == 6
        assert report.bit_exact, str(report)

    def test_state_mismatches_reports_paths(self):
        a = {"x": np.arange(3), "y": {"z": 1}, "l": [1, 2]}
        b = {"x": np.arange(3), "y": {"z": 2}, "l": [1, 3]}
        paths = state_mismatches(a, b)
        assert "state.y.z" in paths
        assert "state.l[1]" in paths
        assert state_mismatches(a, a) == []
        # dtype differences are mismatches even when values compare equal
        assert state_mismatches(np.arange(3.0), np.arange(3)) == ["state"]


# -------------------------------------------------------------------------
# Supervisor: liveness, replacement, quarantine, resubmission
# -------------------------------------------------------------------------


class TestSupervisor:
    def test_plain_map_matches_serial(self):
        with Supervisor(_sq, workers=4) as sup:
            assert sup.map(range(20)) == [x * x for x in range(20)]
        assert sup.crashes == 0

    def test_crashed_worker_is_replaced_and_fanout_completes(
            self, tmp_path):
        global _FLAKY_DIR
        _FLAKY_DIR = str(tmp_path)
        with Supervisor(_flaky_seven, workers=3,
                        backoff_base=0.01) as sup:
            out = sup.map(range(12))
        assert out == [x + 1 for x in range(12)]
        assert sup.crashes >= 1
        assert sup.replacements >= 1

    def test_poison_task_raises_after_k_crashes(self):
        with Supervisor(_poison_three, workers=2, max_task_crashes=2,
                        backoff_base=0.01) as sup:
            with pytest.raises(PoisonTaskError) as ei:
                sup.map(range(6))
        assert ei.value.task_index == 3
        assert ei.value.crashes == 2

    def test_quarantine_mode_completes_around_poison(self):
        with Supervisor(_poison_three, workers=2, max_task_crashes=2,
                        backoff_base=0.01, on_poison="quarantine") as sup:
            out = sup.map(range(6))
        assert [out[i] for i in (0, 1, 2, 4, 5)] == [0, 1, 2, 4, 5]
        assert isinstance(out[3], PoisonTaskError)
        assert sup.poisoned == [3]

    def test_hung_worker_is_killed_and_task_quarantined(self):
        with Supervisor(_hang_on_one, workers=2, heartbeat_timeout=0.3,
                        max_task_crashes=1, backoff_base=0.01) as sup:
            with pytest.raises(PoisonTaskError):
                sup.map(range(3))

    def test_task_exception_surfaces_as_worker_task_error(self):
        with Supervisor(_raise_on_two, workers=2) as sup:
            with pytest.raises(WorkerTaskError) as ei:
                sup.map(range(4))
        assert ei.value.task_index == 2
        assert ei.value.error_type == "ValueError"

    def test_journal_resubmits_only_unfinished(self, tmp_path):
        journal = tmp_path / "fanout.wal"
        # first run completes half the work, then the "process dies"
        with Supervisor(_slow_sq, workers=2, journal=journal) as sup:
            sup.map(range(8))
        # a rerun of the same fan-out replays everything from the
        # journal: zero new executions, identical results
        with Supervisor(_slow_sq, workers=2, journal=journal) as sup:
            out = sup.map(range(8))
            assert out == [x * x for x in range(8)]
            assert sup.journal_skips == 8

    def test_journal_partial_resume(self, tmp_path):
        # hand-build a journal holding 5 of 8 completions, as a killed
        # supervisor would leave behind
        journal = tmp_path / "fanout.wal"
        with WriteAheadLog(journal) as wal:
            for i in (0, 1, 2, 5, 7):
                wal.append(pickle.dumps({"index": i, "value": i * i}))
        with Supervisor(_sq, workers=2, journal=journal) as sup:
            out = sup.map(range(8))
        assert out == [x * x for x in range(8)]
        assert sup.journal_skips == 5

    def test_empty_items(self):
        with Supervisor(_sq, workers=2) as sup:
            assert sup.map([]) == []


# -------------------------------------------------------------------------
# map_fanout crash surfacing: pending indices
# -------------------------------------------------------------------------


class TestPendingIndices:
    def test_crash_reports_pending_indices(self):
        with pytest.raises(WorkerCrashError) as ei:
            map_fanout(_die_on_five, range(16), backend="process:2",
                       chunk_size=4)
        err = ei.value
        assert err.backend == "process"
        assert 5 in err.pending_indices
        assert all(0 <= i < 16 for i in err.pending_indices)

    def test_completed_chunks_are_not_pending(self):
        with pytest.raises(WorkerCrashError) as ei:
            map_fanout(_die_late, range(16), backend="process:2",
                       chunk_size=4)
        # chunk [0..3] finished long before the index-12 chunk died
        assert 12 in ei.value.pending_indices
        assert 0 not in ei.value.pending_indices
