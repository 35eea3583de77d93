"""Deterministic fault injection at every CCaaS boundary.

DEFLECTION's threat model (§III-A) makes the host adversarial — yet the
happy-path service layer implicitly trusts it to relay bytes faithfully
and keep the enclave alive.  This module supplies the missing adversary:

* one seeded fault *budget* behind every plan: each decision is drawn
  from one ``random.Random`` in call order and charged against the
  budget, so (a) a campaign driven by the same seed injects
  byte-identical faults, and (b) any retry loop with more attempts than
  the budget provably converges;
* three plans on that budget, one per scope — :class:`FaultPlan` (one
  host's boundaries), :class:`FleetFaultPlan` (a fleet between
  supervision ticks) and :class:`PipelineFaultPlan` (stage handoffs,
  stalls and quarantines, plus a derived :class:`FaultPlan` per hop);
* :class:`FaultyHost` — a :class:`~repro.service.protocol.CCaaSHost`
  lookalike that mangles relayed ciphertext (corrupt / truncate /
  duplicate / reorder records), fails ECalls transiently, tears the
  enclave down mid-protocol (forcing re-EINIT and a fresh attested
  session), injects attestation-service outages into the handshake, and
  schedules dense AEX storms under ``ecall_run``;
* :func:`run_chaos` — the one chaos engine behind ``repro chaos``: N
  seeded trials of one scope (``host``, ``mid-run``, ``fleet`` or
  ``pipeline``), a byte-identical replay of trial 0, and one shared set
  of invariant checks that yields the report's ``violations``.

The plan mangles *wire images*, not plaintext: every fault a real host
could inject lands on ciphertext records, and detection is exactly what
the channel MAC / sequence numbers / measurement re-check provide.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from ..core.bootstrap import BootstrapEnclave, ProvisionCache
from ..errors import (
    AdmissionRejected, AttestationOutage, EnclaveError, EnclaveTeardown,
    ReproError,
)
from ..policy.policies import PolicySet
from ..sgx.attestation import AttestationService
from ..vm.interrupts import AexSchedule
from .fleet import build_fleet
from .pipeline import (
    PipelineOrchestrator, PipelineRun, TOPOLOGIES, serial_oracle,
    topology_stages,
)
from .protocol import CCaaSHost, after_steps
from .resilient import RetryPolicy, SessionStats, TwoPartyWorkflow
from .roles import CodeProvider, DataOwner
from .scheduler import FleetScheduler, SessionJob

#: Wire fault kinds a malicious relay can apply to a record stream.
WIRE_FAULTS = ("corrupt", "truncate", "duplicate", "reorder")


# -- record-stream mutations (each detected by the channel layer) --------

def corrupt_wire(wire: bytes, rng: random.Random) -> bytes:
    """Flip one bit anywhere in the stream -> bad MAC."""
    pos = rng.randrange(len(wire))
    mutated = bytearray(wire)
    mutated[pos] ^= 1 << rng.randrange(8)
    return bytes(mutated)


def truncate_wire(wire: bytes, rng: random.Random,
                  record_len: int) -> bytes:
    """Cut the stream mid-record -> truncated record stream."""
    if len(wire) < 2:
        return b""
    cut = rng.randrange(1, len(wire))
    if cut % record_len == 0:
        cut -= 1
    return wire[:max(1, cut)]


def duplicate_record(wire: bytes, rng: random.Random,
                     record_len: int) -> bytes:
    """Replay one record in place -> sequence-bound MAC fails."""
    records = [wire[off:off + record_len]
               for off in range(0, len(wire), record_len)]
    index = rng.randrange(len(records))
    records.insert(index + 1, records[index])
    return b"".join(records)


def reorder_records(wire: bytes, rng: random.Random,
                    record_len: int) -> bytes:
    """Swap two records -> sequence-bound MAC fails.  Falls back to
    duplication for single-record streams."""
    count = len(wire) // record_len
    if count < 2:
        return duplicate_record(wire, rng, record_len)
    i = rng.randrange(count)
    j = rng.randrange(count - 1)
    if j >= i:
        j += 1
    records = [wire[off:off + record_len]
               for off in range(0, len(wire), record_len)]
    records[i], records[j] = records[j], records[i]
    return b"".join(records)


class _FaultBudget:
    """The seeded RNG, fault budget and injection log every plan
    shares.  Once ``faults_remaining`` hits zero no draw succeeds (and
    none consumes randomness), so the plan behaves honestly forever."""

    def __init__(self, seed: int, rng_seed, max_faults: int):
        self.seed = seed
        self.max_faults = max_faults
        self.faults_remaining = max_faults
        #: Ordered log of every injected fault (replay evidence).
        self.injected: List[str] = []
        self._rng = random.Random(rng_seed)

    def _charge(self, label: str) -> None:
        self.faults_remaining -= 1
        self.injected.append(label)

    def _chance(self, p: float) -> bool:
        return self.faults_remaining > 0 and self._rng.random() < p


class FaultPlan(_FaultBudget):
    """Seeded, budgeted schedule of host faults.

    Probabilities are per-opportunity (per relayed message, per ECall,
    per handshake).  ``max_faults`` caps the total injections per plan:
    once the budget is spent the host behaves honestly, so a resilient
    session with ``max_faults + 2`` retry attempts always converges.
    """

    def __init__(self, seed: int, *,
                 p_wire: float = 0.25,
                 p_transient: float = 0.12,
                 p_teardown: float = 0.10,
                 p_outage: float = 0.15,
                 p_storm: float = 0.25,
                 mid_run: bool = False,
                 p_midrun: float = 0.45,
                 p_chain_corrupt: float = 0.20,
                 p_rollback: float = 0.20,
                 p_smc: float = 0.25,
                 max_faults: int = 8):
        super().__init__(seed, seed, max_faults)
        self.p_wire = p_wire
        self.p_transient = p_transient
        self.p_teardown = p_teardown
        self.p_outage = p_outage
        self.p_storm = p_storm
        #: Mid-run fault family (teardown after k instructions,
        #: checkpoint-chain corruption, rollback replay).  Gated behind
        #: a flag — not merely zero probabilities — so plans built
        #: without it draw the exact same random sequence as before the
        #: feature existed (campaign replays stay byte-identical).
        self.mid_run = mid_run
        self.p_midrun = p_midrun
        self.p_chain_corrupt = p_chain_corrupt
        self.p_rollback = p_rollback
        self.p_smc = p_smc

    # -- draw sites -----------------------------------------------------

    def draw_ecall_fault(self, site: str) -> Optional[str]:
        """One ECall boundary: ``"teardown"``, ``"transient"`` or None."""
        if self._chance(self.p_teardown):
            self._charge(f"teardown@{site}")
            return "teardown"
        if self._chance(self.p_transient):
            self._charge(f"transient@{site}")
            return "transient"
        return None

    def draw_outage(self) -> bool:
        """One attestation-service round trip."""
        if self._chance(self.p_outage):
            self._charge("attestation_outage")
            return True
        return False

    def draw_storm(self) -> Optional[AexSchedule]:
        """One ``ecall_run``: maybe a dense, seeded AEX storm.

        The interval range straddles the P6 threshold on purpose: dense
        storms get trapped as violations (the defense engaging is a
        campaign outcome, not a failure), sparse ones ride through.
        """
        if self._chance(self.p_storm):
            mean = self._rng.randint(4, 90)
            storm_seed = self._rng.randrange(1 << 30)
            self._charge(f"aex_storm(mean={mean})")
            return AexSchedule(mean, jitter=0.3, seed=storm_seed)
        return None

    def draw_midrun_teardown(self) -> Optional[int]:
        """One checkpointed run: maybe tear the enclave down after
        ``k`` more instructions (realized at the next safe point)."""
        if not self.mid_run:
            return None
        if self._chance(self.p_midrun):
            k = self._rng.randint(30, 250)
            self._charge(f"midrun_teardown(k={k})")
            return k
        return None

    def draw_midrun_smc(self) -> Optional[int]:
        """One checkpointed run: maybe force a full code-cache flush
        after ``k`` more instructions (the self-modifying-code chaos
        knob).  The flush drops every translated block mid-execution,
        yet is architecturally invisible — the run must retire the
        exact same steps and cycles.  Drawn after the teardown draw so
        teardown-only replays from earlier plans keep their injection
        points."""
        if not self.mid_run:
            return None
        if self._chance(self.p_smc):
            k = self._rng.randint(30, 250)
            self._charge(f"midrun_smc(k={k})")
            return k
        return None

    def draw_chain_attack(self) -> Optional[str]:
        """One ``ecall_resume``: maybe doctor the relayed chain —
        ``"corrupt"`` (bit-flip a sealed blob) or ``"rollback"``
        (withhold the newest checkpoint, replaying chain ``n-1``).
        Both must be rejected fail-closed by the enclave."""
        if not self.mid_run:
            return None
        if self._chance(self.p_chain_corrupt):
            self._charge("checkpoint_corrupt")
            return "corrupt"
        if self._chance(self.p_rollback):
            self._charge("rollback_replay")
            return "rollback"
        return None

    def mangle_wire(self, wire: bytes,
                    record_len: int) -> Tuple[bytes, Optional[str]]:
        """One relayed message: maybe mutate the record stream."""
        if not wire or not self._chance(self.p_wire):
            return wire, None
        kind = self._rng.choice(WIRE_FAULTS)
        if kind == "corrupt":
            mutated = corrupt_wire(wire, self._rng)
        elif kind == "truncate":
            mutated = truncate_wire(wire, self._rng, record_len)
        elif kind == "duplicate":
            mutated = duplicate_record(wire, self._rng, record_len)
        else:
            mutated = reorder_records(wire, self._rng, record_len)
        self._charge(f"wire_{kind}")
        return mutated, kind

    def mangle_blob(self, blob: bytes) -> Tuple[bytes, Optional[str]]:
        """One plaintext-relayed blob (the bench path has no session
        channel): corrupt or truncate — detected by the measurement
        re-check or the object parser, never silently accepted."""
        if not blob or not self._chance(self.p_wire):
            return blob, None
        if self._rng.random() < 0.5:
            mutated, kind = corrupt_wire(blob, self._rng), "corrupt"
        else:
            cut = self._rng.randrange(1, len(blob))
            mutated, kind = blob[:cut], "truncate"
        self._charge(f"blob_{kind}")
        return mutated, kind

    def gate(self, bootstrap: BootstrapEnclave, site: str) -> None:
        """One ECall boundary: maybe destroy ``bootstrap``'s enclave
        (:class:`EnclaveTeardown`) or fail transiently
        (:class:`EnclaveError`) before the call reaches it."""
        fault = self.draw_ecall_fault(site)
        if fault == "teardown":
            bootstrap.enclave.destroy()
            raise EnclaveTeardown(
                f"injected enclave teardown before {site}")
        if fault == "transient":
            raise EnclaveError(
                f"injected transient host failure before {site}")


class _FlakyAttestationService:
    """``verify_quote`` proxy that injects outages: first any scheduled
    ones (``outages`` calls fail outright, with no draw), then — with a
    ``plan`` — one plan draw per call."""

    def __init__(self, service: AttestationService,
                 plan: Optional[FaultPlan] = None):
        self._service = service
        self._plan = plan
        #: Upcoming calls that fail before any plan draw.
        self.outages = 0

    @property
    def verifying_key(self):
        return self._service.verifying_key

    def provision_platform(self, platform_id, key) -> None:
        self._service.provision_platform(platform_id, key)

    def verify_quote(self, quote_bytes: bytes):
        if self.outages > 0:
            self.outages -= 1
            raise AttestationOutage(
                "attestation service unavailable (scheduled outage)")
        if self._plan is not None and self._plan.draw_outage():
            raise AttestationOutage(
                "injected attestation service outage")
        return self._service.verify_quote(quote_bytes)


class FaultyHost:
    """Adversarial/unreliable :class:`CCaaSHost` wrapper.

    Exposes the exact host surface the parties use — ``bootstrap``,
    ``attestation_service``, the three ECall relays, ``ensure_alive`` —
    and consults the :class:`FaultPlan` at every boundary.  Teardown
    faults genuinely destroy the enclave (subsequent ECalls raise
    :class:`EnclaveTeardown` until someone recovers it); wire faults
    mutate the relayed ciphertext so detection happens where it would in
    production: the enclave-side channel MAC.
    """

    def __init__(self, host: CCaaSHost, plan: FaultPlan,
                 record_size: int = 256):
        self.host = host
        self.plan = plan
        #: On-the-wire record framing: ciphertext body + 32-byte MAC.
        self.record_len = record_size + 32
        self._attestation = _FlakyAttestationService(
            host.attestation_service, plan)

    @property
    def bootstrap(self) -> BootstrapEnclave:
        return self.host.bootstrap

    @property
    def attestation_service(self) -> _FlakyAttestationService:
        return self._attestation

    def ensure_alive(self) -> bool:
        return self.host.ensure_alive()

    def ecall_ping(self):
        """Liveness probes pass through un-mangled: a heartbeat is not
        a relayed message, and drawing plan randomness here would shift
        the injection points of pre-existing campaign replays."""
        return self.host.ecall_ping()

    def ecall_receive_binary(self, blob: bytes, encrypted: bool = True):
        if encrypted:
            blob, _ = self.plan.mangle_wire(blob, self.record_len)
        self.plan.gate(self.bootstrap, "ecall_receive_binary")
        return self.host.ecall_receive_binary(blob, encrypted=encrypted)

    def ecall_receive_userdata(self, data: bytes,
                               encrypted: bool = True):
        if encrypted:
            data, _ = self.plan.mangle_wire(data, self.record_len)
        self.plan.gate(self.bootstrap, "ecall_receive_userdata")
        return self.host.ecall_receive_userdata(data, encrypted=encrypted)

    def _arm_midrun(self, kwargs: dict) -> dict:
        """Maybe arm a mid-run teardown (the wrapped host's
        :meth:`~repro.service.protocol.CCaaSHost.arm_kill`) and an SMC
        flush, each ``k`` instructions into this checkpointed run."""
        if kwargs.get("checkpoint_every") is None:
            return kwargs
        k = self.plan.draw_midrun_teardown()
        k_smc = self.plan.draw_midrun_smc()
        if k is not None:
            self.host.arm_kill(k)
        if k_smc is None:
            return kwargs
        bootstrap = self.host.bootstrap

        def flush(cpu):
            # SMC chaos: flush the whole text segment's translated
            # code; the run must still retire bit-identically.
            loaded = bootstrap.loaded
            cpu.space.invalidate_code_range(loaded.code_base,
                                            loaded.code_len)

        return dict(kwargs, interrupt=after_steps(
            k_smc, flush, kwargs.get("interrupt")))

    def ecall_run(self, **kwargs):
        self.plan.gate(self.bootstrap, "ecall_run")
        if "aex_schedule" not in kwargs:
            storm = self.plan.draw_storm()
            if storm is not None:
                kwargs["aex_schedule"] = storm
        return self.host.ecall_run(**self._arm_midrun(kwargs))

    def ecall_resume(self, blobs, **kwargs):
        """Relay a checkpoint chain — possibly doctored: a corrupt blob
        or a rollback replay (chain with the newest checkpoint
        withheld).  Detection is enclave-side, exactly where it must
        be: the chain MACs and the platform monotonic counter."""
        self.plan.gate(self.bootstrap, "ecall_resume")
        blobs = list(blobs)
        attack = self.plan.draw_chain_attack()
        if attack == "corrupt" and blobs:
            victim = self.plan._rng.randrange(len(blobs))
            blobs[victim] = corrupt_wire(blobs[victim], self.plan._rng)
        elif attack == "rollback":
            blobs = blobs[:-1]
        return self.host.ecall_resume(blobs, **self._arm_midrun(kwargs))


class FleetFaultPlan(_FaultBudget):
    """Seeded, budgeted chaos against a whole fleet.

    Where :class:`FaultPlan` attacks one host's boundaries,
    this plan attacks the *fleet* between supervision ticks: kill a
    drone (idle teardown, or an armed mid-run kill realized at the
    victim's next checkpointed safe point), storm a subset of drones
    (their next ``n`` heartbeats fail, driving the quarantine path),
    or outage the shared attestation service under load (every
    re-attesting session fleet-wide sees it).  Drawn in tick order;
    once the budget is spent the fleet heals and the scheduler drains
    the queue.
    """

    def __init__(self, seed: int, *,
                 p_kill: float = 0.20,
                 p_storm: float = 0.25,
                 p_outage: float = 0.15,
                 max_faults: int = 10):
        super().__init__(seed, f"fleet:{seed}", max_faults)
        self.p_kill = p_kill
        self.p_storm = p_storm
        self.p_outage = p_outage

    def apply_tick(self, scheduler) -> None:
        """Draw this tick's events against ``scheduler``'s fleet."""
        drones = sorted(scheduler.drones.values(),
                        key=lambda d: d.drone_id)
        if self._chance(self.p_kill):
            victim = self._rng.choice(drones)
            if self._rng.random() < 0.5:
                if not victim.bootstrap.enclave.destroyed:
                    victim.bootstrap.enclave.destroy()
                self._charge(f"kill_idle@{victim.drone_id}")
            else:
                k = self._rng.randint(100, 800)
                victim.host.arm_kill(k)
                self._charge(f"kill_midrun@{victim.drone_id}(k={k})")
        if self._chance(self.p_storm):
            count = self._rng.randint(1, max(1, len(drones) // 2))
            fails = self._rng.randint(2, 5)
            subset = self._rng.sample(drones, count)
            for drone in subset:
                drone.host.fail_pings(fails)
            names = ",".join(d.drone_id for d in subset)
            self._charge(f"storm({names},n={fails})")
        if self._chance(self.p_outage):
            calls = self._rng.randint(1, 3)
            # The drones share one attestation service: wrap it once,
            # for every drone, so the outage is fleet-wide.
            service = drones[0].host.attestation_service
            if not isinstance(service, _FlakyAttestationService):
                service = _FlakyAttestationService(service)
                for drone in drones:
                    drone.host.attestation_service = service
            service.outages = calls
            self._charge(f"attestation_outage(calls={calls})")


#: Handoff attacks a malicious relay can mount between two stages.
#: ``lose`` drops the sealed handoff entirely (forcing a stale-chain
#: discard-and-rerun of the producer); the rest present doctored bytes
#: or doctored provenance links that chain verification must reject.
HANDOFF_FAULTS = ("corrupt", "lose", "reorder", "truncate",
                  "splice", "replay")


class PipelineFaultPlan(_FaultBudget):
    """Seeded, budgeted chaos schedule for a multi-enclave pipeline.

    Two layers, each on its own budget:

    * *per-hop host faults* — each stage's :class:`FaultyHost` runs
      under its own derived :class:`FaultPlan` (wire mangling,
      transient ECall failures, teardowns including **mid-run** ones,
      attestation outages).  Storms and checkpoint-chain attacks are
      excluded on purpose: a storm is trapped as a violation (a
      correct outcome, but not a *lost-work recovery* scenario) and a
      doctored chain forces a from-scratch fallback — both would break
      the campaign's "every mid-hop teardown is recovered by resume at
      that hop" invariant that this plan exists to exercise.
    * *pipeline-level events* — drawn from this plan's own RNG:
      handoff attacks between stages (:data:`HANDOFF_FAULTS`), stalled
      stages (a tiny watchdog budget, so the hop blows its deadline
      and must requeue from its sealed chain), and platform
      quarantines (the stage is re-provisioned on a healthy drone and
      the provenance chain spliced with a ``migrated`` link; at most
      one per hop so recovery options are never exhausted by the plan
      itself).
    """

    def __init__(self, seed: int, *,
                 p_handoff: float = 0.45,
                 p_stall: float = 0.25,
                 p_quarantine: float = 0.15,
                 max_faults: int = 6,
                 hop_max_faults: int = 4):
        super().__init__(seed, f"pipeline:{seed}", max_faults)
        self.p_handoff = p_handoff
        self.p_stall = p_stall
        self.p_quarantine = p_quarantine
        self.hop_max_faults = hop_max_faults
        self._hop_plans = {}
        self._quarantined_hops = set()

    def hop_plan(self, hop: int) -> FaultPlan:
        """The derived per-hop host fault plan (cached per hop)."""
        plan = self._hop_plans.get(hop)
        if plan is None:
            plan = FaultPlan(self.seed * 1_000_003 + hop * 31 + 7,
                             mid_run=True,
                             p_storm=0.0,
                             p_chain_corrupt=0.0,
                             p_rollback=0.0,
                             max_faults=self.hop_max_faults)
            self._hop_plans[hop] = plan
        return plan

    def draw_handoff(self, hop: int) -> Optional[str]:
        """One stage handoff: maybe attack it (see
        :data:`HANDOFF_FAULTS`)."""
        if self._chance(self.p_handoff):
            kind = self._rng.choice(HANDOFF_FAULTS)
            self._charge(f"handoff_{kind}@hop{hop}")
            return kind
        return None

    def draw_stall(self, hop: int) -> Optional[int]:
        """One hop execution: maybe a tiny watchdog budget, so the hop
        stalls mid-run and must requeue from its sealed chain."""
        if self._chance(self.p_stall):
            budget = self._rng.randint(40, 120)
            self._charge(f"stall(budget={budget})@hop{hop}")
            return budget
        return None

    def draw_quarantine(self, hop: int) -> bool:
        """One hop execution: maybe quarantine the stage's platform
        (at most once per hop for the whole plan)."""
        if hop in self._quarantined_hops:
            return False
        if self._chance(self.p_quarantine):
            self._quarantined_hops.add(hop)
            self._charge(f"quarantine@hop{hop}")
            return True
        return False

    def all_injected(self) -> List[str]:
        """Pipeline-level events plus every hop plan's host faults."""
        out = list(self.injected)
        for hop in sorted(self._hop_plans):
            out.extend(f"hop{hop}:{label}"
                       for label in self._hop_plans[hop].injected)
        return out


# -- the service programs the trials run -----------------------------------

#: The campaign's service program: recv -> checksum -> send + report.
CAMPAIGN_SRC = """
char buf[64];
int main() {
    int n = __recv(buf, 64);
    int sum = 0;
    int i;
    for (i = 0; i < n; i++) sum += buf[i];
    buf[0] = sum % 256;
    __send(buf, 1);
    __report(sum);
    return sum;
}
"""

#: Long-running variant for fleet campaigns: same checksum, iterated
#: ``FLEET_LONG_ROUNDS`` times, so the run spans many checkpoint safe
#: points and can be preempted/killed mid-flight and resumed.  Expected
#: report value: ``FLEET_LONG_ROUNDS * sum(data)``.
FLEET_LONG_ROUNDS = 40
FLEET_LONG_SRC = f"""
char buf[64];
int main() {{
    int n = __recv(buf, 64);
    int sum = 0;
    int round;
    int i;
    for (round = 0; round < {FLEET_LONG_ROUNDS}; round++) {{
        for (i = 0; i < n; i++) sum += buf[i];
    }}
    buf[0] = sum % 256;
    __send(buf, 1);
    __report(sum);
    return sum;
}}
"""


# -- trial bodies shared by the chaos engine and the benches ---------------

def fleet_job(job_id: str, tenant: str, data: bytes,
              long: bool) -> Tuple[SessionJob, int]:
    """One fleet session and its analytic report value: a short
    checksum job, or (``long``) the iterated checksum, checkpointed
    every 200 instructions and preempted every 4000."""
    job = SessionJob(
        job_id, tenant, FLEET_LONG_SRC if long else CAMPAIGN_SRC, data,
        priority=1 if long else 5,
        checkpoint_every=200 if long else None,
        quantum_steps=4000 if long else None)
    return job, (FLEET_LONG_ROUNDS if long else 1) * sum(data)


def drive_fleet(scheduler: FleetScheduler,
                arrivals: List[Tuple[int, SessionJob, int]], *,
                max_ticks: int,
                before_tick: Optional[Callable[[FleetScheduler], None]]
                = None) -> List[str]:
    """Submit each ``(tick, job, want)`` once its tick is due (a shed
    job is typed and recorded by the scheduler), run ``before_tick``
    and a supervision tick until every admitted job is terminal or
    ``max_ticks`` ran out, and return the ids of completed jobs whose
    report or plaintext differs from ``want``."""
    cursor = 0
    while cursor < len(arrivals) or scheduler.pending:
        if scheduler.tick_now >= max_ticks:
            break
        while cursor < len(arrivals) and \
                arrivals[cursor][0] <= scheduler.tick_now:
            try:
                scheduler.submit(arrivals[cursor][1])
            except AdmissionRejected:
                pass
            cursor += 1
        if before_tick is not None:
            before_tick(scheduler)
        scheduler.tick()
    corrupt = []
    for _, job, want in arrivals:
        if job.state != "done" or not job.outcome.ok:
            continue
        if job.outcome.reports != [want] or \
                job.plaintexts != [bytes([want % 256])]:
            corrupt.append(job.job_id)
    return corrupt


def pipeline_data(trial: int, length: int = 72) -> bytes:
    """Deterministic per-trial input with uppercase bytes interleaved
    throughout, so the genomics filter stage never emits an empty
    chunk."""
    rng = random.Random(f"pipeline-data:{trial}")
    out = bytearray()
    while len(out) < length:
        out.append(rng.randrange(65, 91))
        out.append(rng.randrange(0, 256))
    return bytes(out[:length])


def pipeline_trial(topology: str, mode: str, data: bytes, *,
                   plan: Optional[PipelineFaultPlan], pipeline_id: str,
                   seed: int, cache: ProvisionCache, chunk_size: int,
                   rekey_every: Optional[int] = None
                   ) -> Tuple[dict, PipelineRun]:
    """Run ``data`` through ``topology`` (``batch`` or ``stream``
    mode) and compare it with the unfaulted serial oracle; returns
    ``(row, run)``.

    The row holds only deterministic fields (no wall-clock, no cache
    state), so re-running the same trial serializes byte-identically.
    """
    stages = topology_stages(topology)
    orch = PipelineOrchestrator(
        stages, pipeline_id=pipeline_id, topology=topology, seed=seed,
        fault_plan=plan, provision_cache=cache, checkpoint_every=25,
        rekey_every=rekey_every, sleep=None)
    if mode == "stream":
        run = orch.run_streaming(data, chunk_size=chunk_size, window=2)
        oracle, _ = serial_oracle(stages, data, chunk_size=chunk_size,
                                  provision_cache=cache)
    else:
        run = orch.run(data)
        oracle, _ = serial_oracle(stages, data, provision_cache=cache)
    identical = bool(run.ok and run.output == oracle)
    faults = plan.all_injected() if plan is not None else []
    row = {
        "topology": topology,
        "mode": mode,
        "status": run.status,
        "identical": identical,
        "chain_verified": bool(run.chain_verified),
        "chunks": run.chunks,
        "output_sha256": hashlib.sha256(run.output).hexdigest(),
        "counters": dict(
            sorted(run.counters.items()),
            lost=int(not run.ok),
            corrupt=int(run.ok and not identical),
            upstream_excess=run.upstream_reruns,
            midrun_teardowns=sum(1 for label in faults
                                 if "midrun_teardown" in label)),
        "stats": run.stats.as_dict(),
        "faults": faults,
    }
    return row, run


# -- the chaos engine (``repro chaos``) -------------------------------------

#: Error kinds that must never show up among *retried* errors — a
#: campaign that retried one of these has broken the fail-closed rule.
NEVER_RETRY = ("PolicyViolation", "VerificationError",
               "AttestationError", "RetryBudgetExceeded",
               "RollbackError", "DeadlineExceeded",
               "ProvenanceError")

#: Row counters that must be zero in every trial of every scope: runs
#: lost (never completed, or a retry budget exhausted), corrupt results
#: (completed but not the expected / oracle output), doctored handoffs
#: accepted, and upstream hops re-executed by downstream recovery.
ZERO_COUNTERS = ("lost", "corrupt", "attacks_accepted",
                 "upstream_excess")


def _host_trial(seed: int, trial: int, cache: ProvisionCache, *,
                mid_run: bool) -> Tuple[dict, SessionStats]:
    """One faulted two-party flow on its own bootstrap and host.

    With ``mid_run`` the run is checkpointed and the plan additionally
    tears the enclave down *mid-execution*, flushes its translated
    code, corrupts relayed checkpoint chains and replays stale ones.
    Status: ``ok``; ``violation`` (a policy trapped, e.g. P6 detecting
    an injected AEX storm — the defense engaged, never retried);
    ``corrupt`` (completed with a wrong result); or
    ``aborted:<Error>`` (a fatal class or an exhausted retry budget).
    """
    data = bytes(range(16))
    expected_sum = sum(data)
    policies = PolicySet.full()
    plan = FaultPlan(seed * 1_000_003 + trial, mid_run=mid_run)
    boot = BootstrapEnclave(policies=policies, aex_threshold=25,
                            provision_cache=cache)
    host = FaultyHost(CCaaSHost(boot, AttestationService()), plan)
    provider = CodeProvider(CAMPAIGN_SRC, policies)
    owner = DataOwner(data=data)
    owner.approved_hashes.append(hashlib.sha256(provider.build()).digest())
    workflow = TwoPartyWorkflow(
        host, provider, owner,
        retry=RetryPolicy(max_attempts=plan.max_faults + 2,
                          seed=seed + trial))
    try:
        outcome, plaintext = workflow.execute(
            **({"checkpoint_every": 25} if mid_run else {}))
        if outcome.ok:
            good = (plaintext == [bytes([expected_sum % 256])]
                    and outcome.reports == [expected_sum])
            status = "ok" if good else "corrupt"
        else:
            status = outcome.status
    except ReproError as exc:   # fatal classes + exhausted budgets
        status = f"aborted:{type(exc).__name__}"
    stats = workflow.combined_stats()
    row = {
        "status": status,
        "audit_chain_ok": boot.audit.verify_chain(),
        "counters": {
            "lost": int(status == "aborted:RetryBudgetExceeded"),
            "corrupt": int(status == "corrupt"),
            "audit_recoveries": boot.audit.count("recovered"),
            "smc_flushes": sum(1 for label in plan.injected
                               if label.startswith("midrun_smc")),
        },
        "stats": stats.as_dict(),
        "faults": list(plan.injected),
    }
    return row, stats


def _fleet_trial(seed: int, trial: int,
                 cache: ProvisionCache) -> Tuple[dict, SessionStats]:
    """One fleet campaign seeded ``seed + trial``: twelve sessions
    across three tenants on four drones (every fourth a long
    checkpointed job, so kill/preempt/migrate actually runs), a
    :class:`FleetFaultPlan` firing before every supervision tick.  The
    fleet verifies through its own shared provision cache."""
    seed += trial
    scheduler = FleetScheduler(build_fleet(4), seed=seed)
    plan = FleetFaultPlan(seed)
    arrivals = []
    for index in range(12):
        data = bytes((seed + index + offset) % 251
                     for offset in range(8 + index % 5))
        job, want = fleet_job(f"job-{index}", f"tenant-{index % 3}",
                              data, long=index % 4 == 3)
        arrivals.append((0, job, want))
    corrupt = drive_fleet(scheduler, arrivals, max_ticks=300,
                          before_tick=plan.apply_tick)
    row = scheduler.report()
    row["counters"].update(lost=len(row["lost"]), corrupt=len(corrupt))
    row.update(status="corrupt" if corrupt else
               "lost" if row["lost"] else "ok",
               corrupt=corrupt, faults=list(plan.injected))
    stats = SessionStats()
    for tenant_stats in scheduler.tenant_stats().values():
        stats.merge(tenant_stats)
    return row, stats


def _pipeline_chaos_trial(seed: int, trial: int, cache: ProvisionCache
                          ) -> Tuple[dict, SessionStats]:
    """One faulted pipeline; trials alternate topology, then
    batch/stream mode."""
    mode = "stream" if (trial // len(TOPOLOGIES)) % 2 else "batch"
    row, run = pipeline_trial(
        TOPOLOGIES[trial % len(TOPOLOGIES)], mode, pipeline_data(trial),
        plan=PipelineFaultPlan(seed * 1_000_003 + trial),
        pipeline_id=f"chaos-{seed}-t{trial}", seed=seed + trial,
        cache=cache, chunk_size=24)
    return row, run.stats


#: scope -> (trial function, default trial count).
SCOPES: Dict[str, Tuple[Callable, int]] = {
    "host": (functools.partial(_host_trial, mid_run=False), 20),
    "mid-run": (functools.partial(_host_trial, mid_run=True), 20),
    "fleet": (_fleet_trial, 1),
    "pipeline": (_pipeline_chaos_trial, 6),
}


def run_chaos(scope: str, seed: int = 2021,
              trials: Optional[int] = None) -> dict:
    """Run ``trials`` seeded trials of ``scope`` (see :data:`SCOPES`);
    return a deterministic JSON-ready report.

    Every trial returns one deterministic row.  The engine merges the
    rows' :class:`~repro.service.resilient.SessionStats`, sums their
    ``counters`` into ``totals``, re-runs trial 0 on a fresh provision
    cache and demands a byte-identical row, and applies the shared
    invariants: no :data:`ZERO_COUNTERS` counter is non-zero in any
    trial, no :data:`NEVER_RETRY` kind was retried, and the replay
    matched.  Each broken invariant is one entry of ``violations``.
    Only typed (:class:`~repro.errors.ReproError`) failures become a
    trial status; anything else propagates and fails the campaign.
    The host and pipeline trials share one provision cache, so every
    re-delivery after a program's first verified provisioning is a
    cache replay (``provision_cache`` in the report).
    """
    trial_fn, default_trials = SCOPES[scope]
    trials = default_trials if trials is None else trials
    if trials < 1:
        raise ValueError("a chaos campaign needs at least one trial")
    cache = ProvisionCache()
    stats = SessionStats()
    rows = []
    for trial in range(trials):
        row, trial_stats = trial_fn(seed, trial, cache)
        rows.append({"trial": trial, **row})
        stats.merge(trial_stats)
    replay, _ = trial_fn(seed, 0, ProvisionCache())
    replay_identical = json.dumps({"trial": 0, **replay}, sort_keys=True) \
        == json.dumps(rows[0], sort_keys=True)

    totals = Counter(faults_injected=sum(len(row["faults"])
                                         for row in rows))
    for row in rows:
        totals.update(row["counters"])
    violations = []
    for key in ZERO_COUNTERS:
        hit = [row["trial"] for row in rows if row["counters"].get(key)]
        if hit:
            violations.append(f"{key}: {totals[key]} in trials {hit}")
    retried = sorted(kind for kind in stats.retried_kinds
                     if kind in NEVER_RETRY)
    if retried:
        violations.append(f"fatal classes retried: {', '.join(retried)}")
    if not replay_identical:
        violations.append("replay: re-running trial 0 from the same "
                          "seed produced a different row")
    return {
        "schema": "deflection-chaos/2",
        "scope": scope,
        "seed": seed,
        "trials": trials,
        "statuses": dict(sorted(Counter(row["status"]
                                        for row in rows).items())),
        "totals": dict(sorted(totals.items())),
        "stats": stats.as_dict(),
        "provision_cache": cache.stats(),
        "replay_identical": replay_identical,
        "violations": violations,
        "trials_detail": rows,
    }
