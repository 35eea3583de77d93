"""Fleet scheduler: admission, supervision, dispatch, failover.

The supervisor half of the fleet (see :mod:`repro.service.fleet`).
A :class:`FleetScheduler` owns a pool of drones and a priority queue
of :class:`SessionJob`\\ s — each one full two-party flow (deliver,
approve, upload, run, decrypt) for some tenant — and advances in
discrete supervision **ticks**.  Everything is virtual-time and
seeded: two schedulers built from the same inputs make byte-identical
decisions, which is what lets the fleet bench gate on deterministic
latency percentiles.

Each tick does three passes:

1. **Health.**  Every in-service drone is heartbeat-probed through the
   cheap ``ecall_ping``.  A *destroyed* instance is replaced at once —
   a fresh EINIT on the same platform, so any parked chain stays
   resumable.  An unresponsive-but-alive drone accumulates
   ``consecutive_failures``; at the threshold it is quarantined with
   exponential re-admission backoff (``base * 2**round``, exponent
   clamped), and a failed re-admission probe doubles the backoff — a
   flapping enclave gets exponentially less supervision traffic.
2. **Un-parking.**  Preempted/orphaned jobs pinned to a platform whose
   drone came back are first in line; a pin older than
   ``max_pin_ticks`` is broken by *discarding the chain* and requeueing
   the job for a from-scratch rerun on any healthy drone (counted in
   ``chains_discarded`` — the cross-platform failover cost).
3. **Dispatch.**  Ready drones pull jobs in (priority, FIFO) order.  A
   checkpointed job may only land on a drone whose platform does not
   already own another job's live chain (monotonic counters are
   strictly consecutive per platform — two interleaved chains would
   poison each other).  Long jobs run under a step-quantum that raises
   :class:`~repro.errors.SessionPreempted` at a safe point; the sealed
   chain is harvested from the workflow and the job parks, pinned to
   the platform that sealed it.

Admission is bounded on both axes — global queue depth and per-tenant
in-flight quota — and sheds with a typed
:class:`~repro.errors.AdmissionRejected` instead of queueing
unboundedly.  Every *admitted* job ends in exactly one terminal state
(``done`` or ``aborted:<kind>``); the report's ``lost`` count is the
invariant the chaos campaign asserts to be zero.

Rollback handling stays where PR 5 put it: a chain the enclave rejects
is discarded and the attempt falls back to a full rerun inside
:class:`~repro.service.resilient.TwoPartyWorkflow`; the scheduler only
ever *observes* ``rollbacks_rejected`` — it never re-presents a
rejected chain.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import (
    AdmissionRejected, AttestationOutage, ProtocolError, ReproError,
    RetryBudgetExceeded, SessionPreempted,
)
from ..policy.policies import PolicySet
from .fleet import Drone, QUARANTINED, READY
from .protocol import after_steps
from .resilient import RetryPolicy, SessionStats, TwoPartyWorkflow
from .roles import CodeProvider, DataOwner

#: Job terminal states (everything else is in flight).
DONE = "done"


@dataclass
class SessionJob:
    """One tenant session: a two-party flow the fleet must complete.

    ``checkpoint_every`` makes the run checkpointed (and therefore
    preemptible/migratable); ``quantum_steps`` additionally preempts it
    after that many instructions per dispatch, yielding the drone.
    """

    job_id: str
    tenant: str
    source: str
    data: bytes
    priority: int = 5
    checkpoint_every: Optional[int] = None
    quantum_steps: Optional[int] = None
    max_steps: int = 2_000_000

    # -- supervisor-owned state ----------------------------------------
    state: str = "queued"
    submitted_tick: int = 0
    finished_tick: Optional[int] = None
    parked_tick: Optional[int] = None
    dispatches: int = 0
    requeues: int = 0
    preemptions: int = 0
    #: Sealed chain harvested from the last dispatch (platform-bound).
    checkpoints: List[bytes] = field(default_factory=list)
    #: Drone whose platform the chain is sealed for, while parked.
    pinned_drone: Optional[str] = None
    #: EINIT instance that started the current chain — compared against
    #: the instance that finishes the job to detect a migration.
    chain_origin: Optional[str] = None
    #: Every EINIT instance this job ran on, in dispatch order.
    einits: List[str] = field(default_factory=list)
    migrated: bool = False
    result: Optional[Tuple[object, List[bytes]]] = None
    stats: SessionStats = field(default_factory=SessionStats)

    def __post_init__(self):
        if self.quantum_steps is not None \
                and self.checkpoint_every is None:
            raise ValueError(
                "quantum_steps requires checkpoint_every: preemption "
                "without a checkpoint chain would lose the work")
        self._provider: Optional[CodeProvider] = None

    @property
    def terminal(self) -> bool:
        return self.state == DONE or self.state.startswith("aborted:")

    @property
    def outcome(self):
        return self.result[0] if self.result else None

    @property
    def plaintexts(self) -> List[bytes]:
        return self.result[1] if self.result else []

    def parties(self, policies: PolicySet) -> Tuple[CodeProvider,
                                                    DataOwner]:
        """Party objects for one dispatch.  Sessions are per-dispatch
        and the owner is fresh each time; the provider is kept, so its
        memoized build compiles the job's program once however often
        the job is dispatched (approval is by measurement)."""
        provider = self._provider
        if provider is None or provider.policies != policies:
            provider = self._provider = CodeProvider(
                self.source, policies, name=f"provider:{self.tenant}")
        owner = DataOwner(data=self.data, name=f"owner:{self.tenant}")
        owner.approved_hashes.append(
            hashlib.sha256(provider.build()).digest())
        return provider, owner


class FleetScheduler:
    """Supervisor loop over a drone pool (see module docstring)."""

    def __init__(self, drones: List[Drone], *,
                 max_queue: int = 32,
                 tenant_quota: int = 4,
                 heartbeat_threshold: int = 3,
                 quarantine_base_ticks: int = 2,
                 quarantine_cap_ticks: int = 32,
                 max_pin_ticks: int = 6,
                 max_requeues: int = 5,
                 retry: Optional[RetryPolicy] = None,
                 seed: int = 2021):
        if not drones:
            raise ValueError("a fleet needs at least one drone")
        self.drones: Dict[str, Drone] = {d.drone_id: d for d in drones}
        self.policies = drones[0].policies
        self.max_queue = max_queue
        self.tenant_quota = tenant_quota
        self.heartbeat_threshold = heartbeat_threshold
        self.quarantine_base_ticks = quarantine_base_ticks
        self.quarantine_cap_ticks = quarantine_cap_ticks
        self.max_pin_ticks = max_pin_ticks
        self.max_requeues = max_requeues
        self.retry = retry or RetryPolicy(max_attempts=3)
        self.seed = seed
        self.tick_now = 0
        self._seq = 0
        self._queue: List[Tuple[int, int, SessionJob]] = []
        self.jobs: Dict[str, SessionJob] = {}
        self.parked: List[SessionJob] = []
        self.shed: List[Dict[str, str]] = []
        self.events: List[Dict[str, object]] = []
        self.counters = {
            "admitted": 0, "completed": 0, "aborted": 0, "shed": 0,
            "dispatches": 0, "preemptions": 0, "requeues": 0,
            "migrations": 0, "quarantines": 0, "readmissions": 0,
            "replacements": 0, "chains_discarded": 0,
        }

    # -- admission ------------------------------------------------------

    def _inflight(self, tenant: str) -> int:
        return sum(1 for job in self.jobs.values()
                   if job.tenant == tenant and not job.terminal)

    def submit(self, job: SessionJob) -> SessionJob:
        """Admit ``job`` or shed it with a typed rejection.

        Shedding is an *answer*, not a loss: the rejection is recorded
        (and counted) before it is raised, so the report can prove that
        every submission was either admitted or explicitly refused.
        """
        reason = None
        if len(self._queue) >= self.max_queue:
            reason = "queue_full"
        elif self._inflight(job.tenant) >= self.tenant_quota:
            reason = "tenant_quota"
        if reason is not None:
            self.counters["shed"] += 1
            self.shed.append({"job_id": job.job_id,
                              "tenant": job.tenant, "reason": reason})
            self._event("shed", job=job.job_id, tenant=job.tenant,
                        reason=reason)
            raise AdmissionRejected(
                f"job {job.job_id} shed ({reason}): tenant "
                f"{job.tenant!r}", reason=reason, tenant=job.tenant)
        job.submitted_tick = self.tick_now
        job.state = "queued"
        self.jobs[job.job_id] = job
        self._push(job)
        self.counters["admitted"] += 1
        self._event("admitted", job=job.job_id, tenant=job.tenant,
                    priority=job.priority)
        return job

    def _push(self, job: SessionJob) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (job.priority, self._seq, job))

    def _event(self, kind: str, **detail) -> None:
        self.events.append({"tick": self.tick_now, "kind": kind,
                            **detail})

    # -- supervision ----------------------------------------------------

    def quarantine_backoff(self, round_index: int) -> int:
        """Re-admission backoff (ticks) before probe ``round_index``.

        Exponent-clamped the same way :meth:`RetryPolicy.delay` is:
        the doubling stops once it saturates the cap, so a drone that
        flaps for the whole campaign cannot push its probe past
        ``quarantine_cap_ticks`` (or overflow the exponent).
        """
        base, cap = self.quarantine_base_ticks, self.quarantine_cap_ticks
        exponent = min(max(round_index, 0), cap.bit_length())
        return min(cap, base * 2 ** exponent)

    def _quarantine(self, drone: Drone) -> None:
        drone.state = QUARANTINED
        backoff = self.quarantine_backoff(drone.quarantine_round)
        drone.quarantine_round += 1
        drone.quarantined_until = self.tick_now + backoff
        self.counters["quarantines"] += 1
        self._event("quarantined", drone=drone.drone_id,
                    backoff_ticks=backoff,
                    round=drone.quarantine_round)

    def _replace(self, drone: Drone, why: str) -> None:
        einit = drone.replace()
        self.counters["replacements"] += 1
        self._event("replaced", drone=drone.drone_id, einit=einit,
                    why=why)

    def _health_pass(self) -> None:
        for drone in self.drones.values():
            if drone.state == QUARANTINED:
                if self.tick_now < drone.quarantined_until:
                    continue
                # Re-admission probe.  A destroyed instance is replaced
                # and re-admitted (the *platform* was never the
                # problem); an alive-but-unresponsive one re-quarantines
                # with doubled backoff.
                if drone.bootstrap.enclave.destroyed:
                    self._replace(drone, "destroyed-in-quarantine")
                if drone.heartbeat():
                    drone.state = READY
                    drone.consecutive_failures = 0
                    self.counters["readmissions"] += 1
                    self._event("readmitted", drone=drone.drone_id)
                else:
                    self._quarantine(drone)
                continue
            if drone.heartbeat():
                drone.consecutive_failures = 0
                continue
            if drone.bootstrap.enclave.destroyed:
                # Hard death is unambiguous: replace now so parked
                # chains (same platform) resume next dispatch pass.
                self._replace(drone, "destroyed")
                continue
            drone.consecutive_failures += 1
            self._event("heartbeat_failed", drone=drone.drone_id,
                        consecutive=drone.consecutive_failures)
            if drone.consecutive_failures >= self.heartbeat_threshold:
                self._quarantine(drone)

    # -- dispatch -------------------------------------------------------

    def _chain_owner(self, drone: Drone) -> Optional[SessionJob]:
        for job in self.parked:
            if job.pinned_drone == drone.drone_id and job.checkpoints:
                return job
        return None

    def _ready_drones(self) -> List[Drone]:
        return [d for d in self.drones.values() if d.state == READY]

    def _unpark_pass(self) -> None:
        for job in list(self.parked):
            drone = self.drones.get(job.pinned_drone or "")
            if drone is not None and drone.state == READY \
                    and not drone.bootstrap.enclave.destroyed:
                continue   # resumable as soon as a dispatch slot opens
            if self.tick_now - (job.parked_tick or 0) \
                    >= self.max_pin_ticks:
                # Cross-platform failover: the chain is sealed to a
                # platform we cannot serve from — discard it (never
                # re-present it elsewhere: that *is* the rollback
                # attack) and rerun from scratch on any healthy drone.
                self.parked.remove(job)
                job.checkpoints = []
                job.chain_origin = None
                job.pinned_drone = None
                job.state = "queued"
                self.counters["chains_discarded"] += 1
                self._event("chain_discarded", job=job.job_id)
                self._requeue(job)

    def _requeue(self, job: SessionJob) -> None:
        job.requeues += 1
        self.counters["requeues"] += 1
        if job.requeues > self.max_requeues:
            self._finish(job, "aborted:Undispatchable")
            return
        job.state = "queued"
        self._push(job)

    def _finish(self, job: SessionJob, state: str) -> None:
        job.state = state
        job.finished_tick = self.tick_now
        if state == DONE:
            self.counters["completed"] += 1
        else:
            self.counters["aborted"] += 1
        self._event("finished", job=job.job_id, state=state,
                    einits=list(job.einits), migrated=job.migrated)

    def _dispatch_pass(self) -> None:
        for drone in self._ready_drones():
            job = None
            # Chain-bound jobs first: the platform just came back and
            # holds the only counters that can accept their chains.
            owner = self._chain_owner(drone)
            if owner is not None:
                job = owner
                self.parked.remove(job)
            else:
                while self._queue:
                    _, _, head = heapq.heappop(self._queue)
                    if head.terminal or head.state != "queued":
                        continue
                    job = head
                    break
                if job is not None and job.checkpoint_every is not None \
                        and self._chain_owner(drone) is not None:
                    # Chain-owner rule: this platform's counters are
                    # reserved for the parked chain — hand the job back.
                    self._push(job)
                    continue
            if job is None:
                continue
            self._dispatch(job, drone)

    def _dispatch(self, job: SessionJob, drone: Drone) -> None:
        job.state = "running"
        job.dispatches += 1
        job.einits.append(drone.einit_id)
        self.counters["dispatches"] += 1
        resuming = bool(job.checkpoints)
        if resuming and job.chain_origin != drone.einit_id:
            # The chain will be fed to a different EINIT instance than
            # the one that sealed it — if the resume succeeds, that is
            # a checkpoint migration.
            migration_candidate = True
        else:
            migration_candidate = False
        provider, owner = job.parties(self.policies)
        retry = RetryPolicy(
            max_attempts=self.retry.max_attempts,
            base_delay_s=self.retry.base_delay_s,
            max_delay_s=self.retry.max_delay_s,
            backoff=self.retry.backoff, jitter=self.retry.jitter,
            seed=self.seed * 1_000_003 + job.dispatches * 101
            + len(job.job_id))
        workflow = TwoPartyWorkflow(drone.host, provider, owner,
                                    retry=retry, sleep=None)
        run_kwargs: Dict[str, object] = {"max_steps": job.max_steps}
        if job.checkpoint_every is not None:
            run_kwargs["checkpoint_every"] = job.checkpoint_every
        if job.quantum_steps is not None:
            quantum = job.quantum_steps

            def preempt(cpu):
                raise SessionPreempted(
                    f"quantum of {quantum} steps expired on "
                    f"{drone.einit_id}")

            run_kwargs["interrupt"] = after_steps(quantum, preempt)
        self._event("dispatched", job=job.job_id,
                    drone=drone.drone_id, einit=drone.einit_id,
                    resuming=resuming)
        try:
            result = workflow.execute(
                initial_checkpoints=job.checkpoints or None,
                **run_kwargs)
        except SessionPreempted:
            job.stats.merge(workflow.stats)
            self._park(job, drone, workflow.checkpoints)
            self.counters["preemptions"] += 1
            job.preemptions += 1
            drone.sessions_served += 1
            self._event("preempted", job=job.job_id,
                        drone=drone.drone_id,
                        chain=len(job.checkpoints))
            return
        except RetryBudgetExceeded as exc:
            job.stats.merge(workflow.stats)
            cause = exc.__cause__
            if isinstance(cause, (AttestationOutage, ProtocolError)):
                # Fleet-scoped weather, not this drone's fault.
                self._event("requeued", job=job.job_id,
                            why=type(cause).__name__)
                self._requeue(job)
                return
            # Drone-attributable (teardown / ECall failures): blame it
            # and move the job.  A harvested chain stays pinned to the
            # platform; otherwise the job reruns anywhere.
            drone.consecutive_failures = self.heartbeat_threshold
            if workflow.checkpoints:
                self._park(job, drone, workflow.checkpoints)
                self._event("orphaned", job=job.job_id,
                            drone=drone.drone_id,
                            chain=len(job.checkpoints))
            else:
                self._event("requeued", job=job.job_id,
                            why=type(cause).__name__
                            if cause else "RetryBudgetExceeded")
                self._requeue(job)
            return
        except ReproError as exc:
            # Trust-class verdicts (policy, verification, attestation,
            # rollback surfaced fatal): terminal, never retried.
            job.stats.merge(workflow.stats)
            self._finish(job, f"aborted:{type(exc).__name__}")
            return
        job.stats.merge(workflow.stats)
        drone.sessions_served += 1
        outcome = result[0]
        if migration_candidate \
                and getattr(outcome, "resumed_at_step", None) is not None:
            job.migrated = True
            self.counters["migrations"] += 1
            self._event("migrated", job=job.job_id,
                        origin=job.chain_origin,
                        resumed_on=drone.einit_id,
                        at_step=outcome.resumed_at_step)
        job.result = result
        job.checkpoints = []
        job.pinned_drone = None
        self._finish(job, DONE)

    def _park(self, job: SessionJob, drone: Drone,
              chain: List[bytes]) -> None:
        if chain:
            if job.chain_origin is None or not job.checkpoints:
                job.chain_origin = drone.einit_id
            job.checkpoints = list(chain)
            job.pinned_drone = drone.drone_id
        job.state = "parked"
        job.parked_tick = self.tick_now
        self.parked.append(job)

    # -- the loop -------------------------------------------------------

    @property
    def pending(self) -> List[SessionJob]:
        return [job for job in self.jobs.values() if not job.terminal]

    def tick(self) -> None:
        self.tick_now += 1
        self._health_pass()
        self._unpark_pass()
        self._dispatch_pass()

    def run(self, max_ticks: int = 200) -> bool:
        """Tick until every admitted job is terminal (True) or the
        budget runs out with work still pending (False)."""
        for _ in range(max_ticks):
            if not self.pending:
                return True
            self.tick()
        return not self.pending

    # -- reporting ------------------------------------------------------

    def tenant_stats(self) -> Dict[str, SessionStats]:
        per_tenant: Dict[str, SessionStats] = {}
        for job in self.jobs.values():
            per_tenant.setdefault(job.tenant,
                                  SessionStats()).merge(job.stats)
        return per_tenant

    def report(self) -> dict:
        """Deterministic JSON-ready fleet report."""
        lost = [job.job_id for job in self.jobs.values()
                if not job.terminal]
        latencies = sorted(
            job.finished_tick - job.submitted_tick
            for job in self.jobs.values() if job.state == DONE)
        fleet_stats = SessionStats()
        tenants = {}
        for tenant, stats in sorted(self.tenant_stats().items()):
            fleet_stats.merge(stats)
            tenants[tenant] = stats.as_dict()
        return {
            "schema": "deflection-fleet/1",
            "ticks": self.tick_now,
            "drones": {
                d.drone_id: {
                    "einit": d.einit_id, "state": d.state,
                    "sessions_served": d.sessions_served,
                    "replacements": d.replacements,
                    "quarantine_rounds": d.quarantine_round,
                } for d in self.drones.values()},
            "counters": dict(self.counters),
            "lost": lost,
            "latency_ticks": _percentiles(latencies),
            "tenants": tenants,
            "stats": fleet_stats.as_dict(),
            "shed": list(self.shed),
            "migrated_jobs": [
                {"job_id": job.job_id, "einits": list(job.einits),
                 "resumed_at_step": getattr(job.outcome,
                                            "resumed_at_step", None)}
                for job in self.jobs.values() if job.migrated],
        }


def _percentiles(ordered: List[int]) -> Dict[str, float]:
    if not ordered:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}

    def pct(p: float) -> float:
        index = min(len(ordered) - 1,
                    max(0, int(round(p * (len(ordered) - 1)))))
        return float(ordered[index])

    return {"p50": pct(0.50), "p90": pct(0.90), "p99": pct(0.99),
            "max": float(ordered[-1])}
