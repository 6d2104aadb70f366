"""A large simulated user population behind the arrival stream.

The paper's cluster serves many users at once; what matters for the
guard layer is that jobs are *heterogeneous* — different users bring
different service demands, priorities, and deadline discipline.  A
:class:`UserPopulation` models millions of users without materializing
any of them:

- **Lazy per-user RNG streams.**  User *u*'s stream is
  ``SeedSequence(seed, spawn_key=(NS, u))`` — a pure function of the
  population seed and the user id, constructed on first touch.  No
  O(n_users) state, no overlap between users (SeedSequence spawn-key
  partitioning), and bit-reproducibility regardless of how many users
  the run actually touches.  The seed words are derived in blocks
  (:func:`repro.util.rng.spawn_key_states`): the same streams, bit for
  bit, several times cheaper to construct than one SeedSequence each.
- **Skewed popularity.**  Job submitters follow a power-law: arrival
  *k*'s user is ``floor(n_users * u^skew)`` for a uniform draw *u*
  from the assignment stream, concentrating traffic on the heavy
  users the way production queues see it.  The assignment stream is
  read 256 draws at a time into a pending buffer of uids — the same
  doubles, in the same order, as one draw per arrival; the buffer is
  population state (:meth:`UserPopulation.reset` clears it, and a
  checkpoint of the population would have to carry it).
- **Per-user profiles.**  Each user gets a stable service-scale,
  priority class, deadline slack, and best-effort flag, drawn once
  from a dedicated profile stream; services then come from the user's
  own job stream — a lognormal body calibrated by
  :func:`repro.sched.workloads.lognormal_mu` plus the 6x long tail,
  the draws :func:`~repro.sched.workloads.draw_services` makes — so
  the population's realized mean service stays ``mean_service``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.sched.simulator import Job
from repro.sched.workloads import lognormal_mu
from repro.util.rng import generator_from_state, spawn_key_states

#: spawn-key namespaces: assignment stream / per-user jobs / profiles
_NS_ASSIGN, _NS_JOBS, _NS_PROFILE = 0, 1, 2
#: assignment draws per refill of the pending uid buffer
_BLOCK = 256


class UserProfile:
    """Stable per-user traits (a pure function of seed and user id)."""

    __slots__ = ("user_id", "mean_scale", "priority", "slack",
                 "best_effort")

    def __init__(self, user_id: int, mean_scale: float, priority: int,
                 slack: float, best_effort: bool):
        self.user_id = user_id
        self.mean_scale = mean_scale
        self.priority = priority
        self.slack = slack
        self.best_effort = best_effort


class UserPopulation:
    """Millions of lazily-materialized simulated users.

    ``jobs_for(arrivals)`` assigns each arrival to a user and draws
    that job's service/priority/deadline from the user's own streams.
    The mapping is deterministic: the same population (seed + params)
    fed the same arrival count sequence produces bit-identical jobs,
    which is what lets a recorded trace double as a cross-check on the
    generator.
    """

    def __init__(
        self,
        n_users: int = 1_000_000,
        seed: int = 0,
        mean_service: float = 10.0,
        sigma: float = 0.8,
        long_fraction: float = 0.1,
        skew: float = 2.0,
        n_priorities: int = 3,
        deadline_slack: Sequence[float] = (2.0, 6.0),
        best_effort_fraction: float = 0.25,
        tenant: Optional[str] = None,
    ):
        if n_users < 1:
            raise ValueError("need at least one user")
        if mean_service <= 0 or sigma <= 0:
            raise ValueError("bad service parameters")
        if skew < 1.0:
            raise ValueError("skew >= 1 (1 = uniform popularity)")
        if n_priorities < 1:
            raise ValueError("need at least one priority class")
        if len(deadline_slack) != 2 or deadline_slack[0] <= 0 \
                or deadline_slack[1] < deadline_slack[0]:
            raise ValueError("deadline_slack is (lo, hi), 0 < lo <= hi")
        if not (0.0 <= best_effort_fraction <= 1.0):
            raise ValueError("best_effort_fraction in [0, 1]")
        if not (0.0 <= long_fraction <= 1.0):
            raise ValueError("long_fraction in [0, 1]")
        self.n_users = n_users
        self.seed = seed
        self.mean_service = mean_service
        self.sigma = sigma
        self.long_fraction = long_fraction
        self.skew = skew
        self.n_priorities = n_priorities
        self.deadline_slack = (float(deadline_slack[0]),
                               float(deadline_slack[1]))
        self.best_effort_fraction = best_effort_fraction
        #: tenant tag stamped on every synthesized job (None = anonymous)
        self.tenant = tenant
        self.reset()

    def reset(self) -> None:
        """Rewind every stream to the just-constructed state."""
        self._assign_rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(_NS_ASSIGN,))
        )
        #: uids drawn from the assignment stream, not yet handed out
        #: (reversed: the next one is last)
        self._pending: List[int] = []
        #: seed words of the pending block's first-touch users, per
        #: namespace
        self._fresh: Dict[int, Dict[int, np.ndarray]] = {
            _NS_JOBS: {}, _NS_PROFILE: {},
        }
        #: per-user job state: (job stream, lognormal mu, profile)
        self._job_streams: Dict[
            int, Tuple[np.random.Generator, float, UserProfile]
        ] = {}
        self._profiles: Dict[int, UserProfile] = {}

    # -- lazy per-user state -------------------------------------------

    def _user_stream(self, ns: int, user_id: int) -> np.random.Generator:
        words = self._fresh[ns].pop(user_id, None)
        if words is None:
            words = spawn_key_states(self.seed, ns, [user_id])[0]
        return generator_from_state(words)

    def profile(self, user_id: int) -> UserProfile:
        """The stable profile of *user_id* (cached after first touch)."""
        if not (0 <= user_id < self.n_users):
            raise ValueError("user_id out of range")
        prof = self._profiles.get(user_id)
        if prof is None:
            rng = self._user_stream(_NS_PROFILE, user_id)
            lo, hi = self.deadline_slack
            # lognormal service scale with unit mean, so the
            # population-wide realized mean stays `mean_service`
            mean_scale = float(np.exp(rng.normal(-0.08, 0.4)))
            prof = UserProfile(
                user_id=user_id,
                mean_scale=mean_scale,
                priority=int(rng.integers(self.n_priorities)),
                slack=float(rng.uniform(lo, hi)),
                best_effort=bool(rng.random() < self.best_effort_fraction),
            )
            self._profiles[user_id] = prof
        return prof

    def pick_user(self) -> int:
        """Draw the next submitter from the power-law popularity."""
        if not self._pending:
            self._refill()
        return self._pending.pop()

    def _refill(self) -> None:
        """Read the next block of assignment draws into the pending
        buffer and derive the seed words of its first-touch users."""
        n, skew = self.n_users, self.skew
        # per element in Python: numpy's ** need not round like pow()
        uids = [min(int(n * u ** skew), n - 1)
                for u in self._assign_rng.random(_BLOCK).tolist()]
        distinct = list(dict.fromkeys(uids))
        for ns, known in ((_NS_PROFILE, self._profiles),
                          (_NS_JOBS, self._job_streams)):
            fresh = [u for u in distinct if u not in known]
            self._fresh[ns] = dict(
                zip(fresh, spawn_key_states(self.seed, ns, fresh))
            )
        uids.reverse()
        self._pending = uids

    # -- job synthesis --------------------------------------------------

    def _next_job(self, job_id: int, arrival: float) -> Job:
        """The job of the next arrival: its user from the assignment
        stream, its service from that user's job stream (the scalar
        twin of one ``draw_services(rng, 1, ...)`` call)."""
        uid = self.pick_user()
        state = self._job_streams.get(uid)
        if state is None:
            prof = self.profile(uid)
            mu = lognormal_mu(self.mean_service * prof.mean_scale,
                              self.sigma, self.long_fraction)
            state = (self._user_stream(_NS_JOBS, uid), mu, prof)
            self._job_streams[uid] = state
        rng, mu, prof = state
        service = rng.lognormal(mu, self.sigma)
        is_long = rng.random() < self.long_fraction
        if is_long:
            service *= 6.0
        return Job(
            job_id=job_id,
            arrival=arrival,
            service=service,
            is_long=is_long,
            priority=prof.priority,
            deadline=(
                None if prof.best_effort
                else arrival + prof.slack * service
            ),
            tenant=self.tenant,
        )

    def jobs_for(self, arrivals: Sequence[float],
                 job_id_base: int = 0) -> List[Job]:
        """One :class:`Job` per arrival, drawn from per-user streams."""
        times = np.asarray(arrivals, dtype=float).tolist()
        return [self._next_job(job_id_base + k, t)
                for k, t in enumerate(times)]

    def stream_jobs(self, times, job_id_base: int = 0) -> Iterator[Job]:
        """Lazy twin of :meth:`jobs_for`: one :class:`Job` per arrival
        pulled from the (possibly unbounded) *times* iterable.

        Makes the identical per-arrival draws in the identical order,
        so the first ``n`` jobs are bit-exact with
        ``jobs_for(sample(n))`` on a freshly :meth:`reset` population
        (the streamed-vs-materialized equivalence the capture tests
        gate).  Never materializes the job list: a horizon-bounded
        :class:`~repro.sched.simulator.SimulatorSession` consumes it
        one lookahead job at a time.
        """
        for k, t in enumerate(times):
            yield self._next_job(job_id_base + k, float(t))

    @property
    def touched_users(self) -> int:
        """Users whose job stream has been materialized so far."""
        return len(self._job_streams)

    def describe(self) -> dict:
        """JSON-able parameter record for trace headers."""
        return {
            "n_users": self.n_users,
            "seed": self.seed,
            "mean_service": self.mean_service,
            "sigma": self.sigma,
            "long_fraction": self.long_fraction,
            "skew": self.skew,
            "n_priorities": self.n_priorities,
            "deadline_slack": list(self.deadline_slack),
            "best_effort_fraction": self.best_effort_fraction,
            "tenant": self.tenant,
        }

    @classmethod
    def from_description(cls, desc: dict) -> "UserPopulation":
        return cls(
            n_users=desc["n_users"], seed=desc["seed"],
            mean_service=desc["mean_service"], sigma=desc["sigma"],
            long_fraction=desc["long_fraction"], skew=desc["skew"],
            n_priorities=desc["n_priorities"],
            deadline_slack=tuple(desc["deadline_slack"]),
            best_effort_fraction=desc["best_effort_fraction"],
            # .get: traces recorded before the tenant layer carry no tag
            tenant=desc.get("tenant"),
        )
