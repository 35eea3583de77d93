"""Fault-tolerant multi-enclave provenance pipelines.

All fifteen workloads are single-enclave request/response; this module
chains *verified enclaves* — a genomics filter feeding a credit scorer
feeding an aggregator — with the trust question a real deployment
must answer at every hop: why should stage ``k`` accept these bytes?

The answer is the cross-enclave provenance chain
(:mod:`repro.core.provenance`): every completed hop appends an
HMAC-chained link binding the producing enclave's MRENCLAVE, its
verifier fingerprint (including the static-proof tier), its audit-chain
head, and the hop's input/output digests.  The consumer verifies the
*full upstream chain* before accepting input and fails closed on any
break, splice, reorder, stale epoch or digest discontinuity.

Robustness is layered on the existing resilience stack rather than
reinvented:

* per-hop transient retry — each stage runs its own
  :class:`~repro.service.resilient.TwoPartyWorkflow` under a
  :class:`~repro.service.resilient.RetryPolicy`;
* mid-hop teardown recovery — runs are checkpointed, so a teardown at
  hop ``k`` resumes *at hop k* from the sealed chain; downstream hops
  never re-run upstream work (the per-hop audit logs prove it:
  exactly one ``run_completed`` per upstream hop);
* stale-chain discard-and-rerun — a lost/rolled-back handoff bumps the
  producing hop's *epoch* and truncates the chain before rerunning, so
  the old output can never be re-presented (the discarded link still
  MAC-verifies at its old position; the epoch is what kills it);
* per-hop watchdog deadlines with typed triage — a blown deadline is a
  *requeue* (resume under a larger budget); repeated stalls escalate
  to :class:`~repro.errors.PipelineStalled`; violations are *blame*
  (:class:`~repro.errors.HopFailed`, fail closed at that hop);
* graceful degradation — a stage whose platform is quarantined (retry
  budget exhausted, or the chaos plan forcing it) is re-provisioned on
  a healthy drone and the chain spliced with an explicit ``migrated``
  link; the provision cache makes the re-verification a replay.

Streaming sessions run chunked records through the same long-lived
attested sessions: per-chunk P0 entropy budgets (every ``ecall_run``
resets the output budget), a bounded in-flight window (backpressure,
not unbounded buffering), chunk-level resume, and optional
:class:`~repro.crypto.channel.SecureChannel` rekeying every N records
— so throughput (records/s) becomes a first-class metric next to
latency.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from ..core.bootstrap import BootstrapEnclave, P0Config, ProvisionCache
from ..core.checkpoint import Watchdog
from ..core.provenance import (
    ProvenanceChain, ProvenanceLink, chain_key, remac_links,
    verify_links,
)
from ..errors import (
    DeadlineExceeded, HopFailed, PipelineStalled, ProvenanceError,
    RetryBudgetExceeded,
)
from ..policy.policies import PolicySet
from ..sgx.attestation import AttestationService
from ..sgx.quote import PlatformKey
from .protocol import CCaaSHost
from .resilient import RetryPolicy, SessionStats, TwoPartyWorkflow
from .roles import CodeProvider, DataOwner


@dataclass
class PipelineStage:
    """One verified enclave stage: a named MiniC service program."""

    name: str
    source: str
    policies: Optional[PolicySet] = None

    def policy_set(self) -> PolicySet:
        return self.policies if self.policies is not None \
            else PolicySet.full()


# -- the pipeline topologies ---------------------------------------------

#: Genomics filter: keep the uppercase-letter bytes (the FASTA-like
#: alphabet), drop everything else.  Output length varies per input.
FILTER_SRC = """
char buf[128];
char out[128];
int main() {
    int n = __recv(buf, 128);
    int m = 0;
    int i;
    for (i = 0; i < n; i++) {
        if (buf[i] >= 65) {
            if (buf[i] <= 90) { out[m] = buf[i]; m = m + 1; }
        }
    }
    __send(out, m);
    __report(m);
    return m;
}
"""

#: Credit scorer: rolling polynomial score per record byte (mod a
#: prime, so every output byte is a deterministic function of the
#: whole prefix).
SCORER_SRC = """
char buf[128];
int main() {
    int n = __recv(buf, 128);
    int acc = 0;
    int i;
    for (i = 0; i < n; i++) {
        int v = buf[i];
        if (v < 0) v = v + 256;
        acc = (acc * 31 + v) % 251;
        buf[i] = acc;
    }
    __send(buf, n);
    __report(acc);
    return acc;
}
"""

#: Aggregator: 4-byte digest (sum lo/hi, max, count) of the scores.
AGGREGATOR_SRC = """
char buf[128];
char out[4];
int main() {
    int n = __recv(buf, 128);
    int sum = 0;
    int mx = 0;
    int i;
    for (i = 0; i < n; i++) {
        int v = buf[i];
        if (v < 0) v = v + 256;
        sum = sum + v;
        if (v > mx) mx = v;
    }
    out[0] = sum % 256;
    out[1] = (sum / 256) % 256;
    out[2] = mx;
    out[3] = n % 256;
    __send(out, 4);
    __report(sum);
    return sum;
}
"""


def _map_stage_src(mul: int, add: int) -> str:
    """Length-preserving byte map ``v -> (v*mul + add) % 256`` —
    building block of the 4-stage streaming topology."""
    return f"""
char buf[128];
int main() {{
    int n = __recv(buf, 128);
    int acc = 0;
    int i;
    for (i = 0; i < n; i++) {{
        int v = buf[i];
        if (v < 0) v = v + 256;
        v = (v * {mul} + {add}) % 256;
        buf[i] = v;
        acc = acc + v;
    }}
    __send(buf, n);
    __report(acc % 65536);
    return acc;
}}
"""


def topology_stages(name: str) -> List[PipelineStage]:
    """The named pipeline topologies the bench and chaos layers sweep."""
    if name == "filter-score-agg":
        return [PipelineStage("genomics-filter", FILTER_SRC),
                PipelineStage("credit-scorer", SCORER_SRC),
                PipelineStage("aggregator", AGGREGATOR_SRC)]
    if name == "stream-map4":
        params = [(3, 7), (5, 11), (7, 13), (9, 17)]
        return [PipelineStage(f"map{i}-x{m}p{a}", _map_stage_src(m, a))
                for i, (m, a) in enumerate(params)]
    raise KeyError(f"unknown pipeline topology {name!r}")


TOPOLOGIES = ("filter-score-agg", "stream-map4")


class _StageRuntime:
    """One stage's live enclave + two-party workflow on one platform."""

    def __init__(self, stage: PipelineStage, hop: int, *,
                 seed: int, retry: RetryPolicy,
                 cache: ProvisionCache, record_size: int,
                 chunk_budget: Optional[int],
                 aex_threshold: int,
                 platform_seed: bytes,
                 fault_plan=None,
                 sleep: Optional[Callable[[float], None]] = None):
        policies = stage.policy_set()
        p0 = P0Config(record_size=record_size)
        if chunk_budget is not None:
            p0 = P0Config(max_output_bytes=chunk_budget,
                          record_size=record_size)
        # Each runtime gets its own platform: seal keys (and therefore
        # checkpoints) are platform-bound, which is exactly what makes
        # migration semantics honest — a harvested chain cannot follow
        # the job to a new drone.
        self.boot = BootstrapEnclave(policies=policies, p0=p0,
                                     platform=PlatformKey(platform_seed),
                                     aex_threshold=aex_threshold,
                                     provision_cache=cache)
        host = CCaaSHost(self.boot, AttestationService())
        if fault_plan is not None:
            from .faults import FaultyHost
            host = FaultyHost(host, fault_plan.hop_plan(hop),
                              record_size=record_size)
        self.host = host
        self.provider = CodeProvider(
            stage.source, policies, name=f"provider-{stage.name}")
        self.owner = DataOwner(
            data=b"", name=f"owner-{stage.name}",
            approved_hashes=[hashlib.sha256(
                self.provider.build()).digest()])
        self.workflow = TwoPartyWorkflow(host, self.provider,
                                         self.owner, retry=retry,
                                         sleep=sleep)
        #: Successful ``execute`` completions on *this* enclave — the
        #: expected ``run_completed`` audit count (see
        #: :meth:`PipelineOrchestrator._finalize`).
        self.expected_runs = 0

    @property
    def platform_id(self) -> str:
        return self.boot.enclave.platform.platform_id.hex()

    def verifier_digest(self) -> str:
        return hashlib.sha256(
            repr(self.boot.verifier.fingerprint()).encode()).hexdigest()


@dataclass
class HopRecord:
    """Per-hop ledger of one pipeline run."""

    hop: int
    stage: str
    stats: SessionStats = field(default_factory=SessionStats)
    runs: int = 0                  # completed executions (all chunks)
    audit_runs: int = 0            # run_completed events on the enclave
    expected_runs: int = 0         # what audit_runs must equal
    stalls: int = 0
    migrations: int = 0
    discard_reruns: int = 0
    wall_s: float = 0.0
    #: Stats of workflows retired by a migration (merged at finalize).
    archived: SessionStats = field(default_factory=SessionStats)

    def as_dict(self) -> dict:
        return {
            "hop": self.hop, "stage": self.stage,
            "runs": self.runs, "audit_runs": self.audit_runs,
            "expected_runs": self.expected_runs,
            "stalls": self.stalls, "migrations": self.migrations,
            "discard_reruns": self.discard_reruns,
            "stats": self.stats.as_dict(),
        }


@dataclass
class PipelineRun:
    """Result of one pipeline execution (batch or streaming)."""

    pipeline_id: str
    topology: str
    mode: str                      # "batch" | "stream"
    status: str = "ok"             # ok | blame@s | abort@s | stalled@s
    detail: str = ""
    output: bytes = b""
    reports: List[int] = field(default_factory=list)
    hops: List[HopRecord] = field(default_factory=list)
    #: Every provenance link, in chunk-major order.
    links: List[ProvenanceLink] = field(default_factory=list)
    #: chunk index -> that chunk's full link chain (-1 for batch).
    chains: Dict[int, List[ProvenanceLink]] = field(default_factory=dict)
    chunks: int = 0
    chunk_latencies: List[float] = field(default_factory=list)
    max_in_flight: int = 0
    wall_s: float = 0.0
    chain_verified: bool = False
    chain_detail: str = ""
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def stats(self) -> SessionStats:
        """One merged ledger over every hop (the satellite contract:
        :meth:`SessionStats.merge` is the single aggregation path, so
        merge order cannot matter)."""
        merged = SessionStats()
        for record in self.hops:
            merged.merge(record.stats)
        return merged

    @property
    def upstream_reruns(self) -> int:
        """``run_completed`` events beyond what resumes + legitimate
        discard-reruns explain — must be zero: downstream recovery
        never re-runs upstream work."""
        return sum(max(0, r.audit_runs - r.expected_runs)
                   for r in self.hops)

    def records_per_s(self) -> float:
        return self.chunks / self.wall_s if self.wall_s else 0.0


def _flip_bit(data: bytes, rng) -> bytes:
    if not data:
        return data
    pos = rng.randrange(len(data))
    out = bytearray(data)
    out[pos] ^= 1 << rng.randrange(8)
    return bytes(out)


def _doctor_links(links: List[ProvenanceLink], attack: str,
                  chain: ProvenanceChain, rng) -> List[ProvenanceLink]:
    """The host's chain attacks.  Every one must be rejected by
    :func:`verify_links`; returning the input unchanged means the
    attack had no material to work with (caller treats it as a no-op).
    """
    if attack == "truncate" and links:
        return links[:-1]
    if attack == "reorder" and len(links) >= 2:
        doctored = list(links)
        i = rng.randrange(len(doctored) - 1)
        doctored[i], doctored[i + 1] = doctored[i + 1], doctored[i]
        return doctored
    if attack == "splice" and links:
        foreign = hashlib.sha256(b"foreign-pipeline-key").digest()
        return remac_links(foreign, chain.pipeline_id, links)
    if attack == "replay":
        if chain.discarded and links and \
                chain.discarded[-1].hop == links[-1].hop:
            # The stale link occupies the same chain position as its
            # replacement, so its MAC still verifies — only the epoch
            # check can (and must) reject it.
            return links[:-1] + [chain.discarded[-1]]
        if links:
            return links + [links[0]]
    return links


class PipelineOrchestrator:
    """Run N verified enclave stages as a provenance-chained pipeline."""

    def __init__(self, stages: List[PipelineStage], *,
                 pipeline_id: str = "pipeline",
                 topology: str = "custom",
                 seed: int = 2021,
                 secret: Optional[bytes] = None,
                 retry: Optional[RetryPolicy] = None,
                 checkpoint_every: int = 25,
                 watchdog_steps: Optional[int] = None,
                 record_size: int = 256,
                 chunk_budget: Optional[int] = None,
                 aex_threshold: int = 25,
                 fault_plan=None,
                 provision_cache: Optional[ProvisionCache] = None,
                 sleep: Optional[Callable[[float], None]] = None,
                 max_stalls: int = 3,
                 max_migrations: int = 2,
                 rekey_every: Optional[int] = None):
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        self.stages = list(stages)
        self.pipeline_id = pipeline_id
        self.topology = topology
        self.seed = seed
        self.secret = secret if secret is not None else hashlib.sha256(
            f"deflection-pipeline-secret:{seed}".encode()).digest()
        self.checkpoint_every = checkpoint_every
        self.watchdog_steps = watchdog_steps
        self.record_size = record_size
        self.chunk_budget = chunk_budget
        self.aex_threshold = aex_threshold
        self.fault_plan = fault_plan
        self.cache = provision_cache if provision_cache is not None \
            else ProvisionCache()
        self._sleep = sleep
        self.max_stalls = max_stalls
        self.max_migrations = max_migrations
        self.rekey_every = rekey_every
        if retry is None:
            attempts = 6
            if fault_plan is not None:
                attempts = fault_plan.hop_max_faults + 2
            retry = RetryPolicy(max_attempts=attempts, seed=seed)
        self.retry = retry
        self.runtimes = [
            _StageRuntime(stage, hop, seed=seed, retry=retry,
                          cache=self.cache, record_size=record_size,
                          chunk_budget=chunk_budget,
                          aex_threshold=aex_threshold,
                          platform_seed=self._platform_seed(hop, 0),
                          fault_plan=fault_plan, sleep=sleep)
            for hop, stage in enumerate(self.stages)]
        self.hops = [HopRecord(hop, stage.name)
                     for hop, stage in enumerate(self.stages)]
        #: (chunk, hop) -> rerun epoch; bumped by discard-and-rerun.
        self.epochs: Dict[Tuple[int, int], int] = {}
        #: (chunk, hop) -> the verified input bytes of that hop — what
        #: a discard-and-rerun re-feeds the producer.
        self._inputs: Dict[Tuple[int, int], bytes] = {}
        self._last_outcome = None
        self.counters: Dict[str, int] = {
            "links": 0, "handoffs_rejected": 0,
            "chain_attacks_rejected": 0, "attacks_accepted": 0,
            "discard_reruns": 0, "migrations": 0, "stalls": 0,
            "rekeys": 0,
        }

    def _platform_seed(self, hop: int, generation: int) -> bytes:
        return (f"pipeline-platform:{self.pipeline_id}:{self.seed}:"
                f"hop{hop}:gen{generation}").encode()

    # -- chain helpers ----------------------------------------------------

    def _chain_id(self, chunk: int) -> str:
        if chunk < 0:
            return self.pipeline_id
        return f"{self.pipeline_id}/chunk{chunk}"

    def _new_chain(self, chunk: int) -> ProvenanceChain:
        cid = self._chain_id(chunk)
        return ProvenanceChain(key=chain_key(self.secret, cid),
                               pipeline_id=cid)

    def _epochs_for(self, chunk: int) -> Dict[int, int]:
        return {h: self.epochs.get((chunk, h), 0)
                for h in range(len(self.stages))}

    # -- recovery paths ---------------------------------------------------

    def _migrate(self, hop: int, reason: str,
                 chain: ProvenanceChain, chunk: int,
                 data: bytes) -> None:
        """Quarantine the stage's platform and re-provision the hop on
        a healthy drone.  Same MRENCLAVE, same provision cache — the
        re-verification is a replay — but the seal key is
        platform-bound, so any harvested checkpoints die with the old
        drone (the hop reruns from scratch; upstream hops are
        untouched).  The chain gains an explicit ``migrated`` link."""
        record = self.hops[hop]
        old = self.runtimes[hop]
        record.archived.merge(old.workflow.combined_stats())
        stage = self.stages[hop]
        fresh = _StageRuntime(
            stage, hop, seed=self.seed, retry=self.retry,
            cache=self.cache, record_size=self.record_size,
            chunk_budget=self.chunk_budget,
            aex_threshold=self.aex_threshold,
            platform_seed=self._platform_seed(
                hop, record.migrations + 1),
            fault_plan=None, sleep=self._sleep)
        self.runtimes[hop] = fresh
        record.migrations += 1
        self.counters["migrations"] += 1
        chain.append(
            hop=hop, stage=stage.name, kind="migrated",
            mrenclave=fresh.boot.mrenclave.hex(),
            verifier=fresh.verifier_digest(),
            audit_head=fresh.boot.audit.head.hex(),
            input_digest=hashlib.sha256(data).hexdigest(),
            output_digest="", chunk=chunk,
            epoch=self.epochs.get((chunk, hop), 0),
            detail=f"{old.platform_id[:12]} -> "
                   f"{fresh.platform_id[:12]}: {reason}")

    # -- the per-hop engine -----------------------------------------------

    def _execute_hop(self, hop: int, data: bytes, chunk: int,
                     chain: ProvenanceChain) -> bytes:
        stage = self.stages[hop]
        record = self.hops[hop]
        stall_budget = None
        if self.fault_plan is not None:
            stall_budget = self.fault_plan.draw_stall(hop)
            if self.fault_plan.draw_quarantine(hop):
                self._migrate(hop, "chaos quarantine", chain, chunk,
                              data)
        budget = stall_budget or self.watchdog_steps
        checkpoints: Optional[List[bytes]] = None
        stalls_here = 0
        began = perf_counter()
        while True:
            rt = self.runtimes[hop]
            rt.owner.data = data
            kwargs = {"checkpoint_every": self.checkpoint_every}
            if budget is not None:
                kwargs["watchdog"] = Watchdog(max_steps=budget)
            try:
                outcome, plaintexts = rt.workflow.execute(
                    initial_checkpoints=checkpoints, **kwargs)
            except DeadlineExceeded as exc:
                record.stalls += 1
                self.counters["stalls"] += 1
                stalls_here += 1
                checkpoints = list(exc.checkpoint) \
                    or list(rt.workflow.checkpoints)
                if stalls_here > self.max_stalls:
                    raise PipelineStalled(
                        f"stage {stage.name} (hop {hop}) stalled "
                        f"{stalls_here} times: {exc}", hop=hop,
                        stage=stage.name, checkpoints=checkpoints) \
                        from exc
                # Requeue: resume from the sealed chain under a larger
                # budget (an injected stall just drops the deadline).
                budget = None if stall_budget is not None \
                    else budget * 4
                continue
            except RetryBudgetExceeded as exc:
                if record.migrations >= self.max_migrations:
                    raise HopFailed(
                        f"stage {stage.name} (hop {hop}) failed on "
                        f"{record.migrations + 1} platforms: {exc}",
                        hop=hop, stage=stage.name, triage="abort") \
                        from exc
                self._migrate(hop, f"retry budget exhausted: {exc}",
                              chain, chunk, data)
                # Seal keys are platform-bound: the harvested chain
                # cannot follow the job to the new drone.
                checkpoints = None
                continue
            break
        rt.expected_runs += 1
        record.runs += 1
        record.wall_s += perf_counter() - began
        self._last_outcome = outcome
        if outcome.status != "ok":
            raise HopFailed(
                f"stage {stage.name} (hop {hop}) ended "
                f"{outcome.status}: {outcome.detail}", hop=hop,
                stage=stage.name, triage="blame")
        output = b"".join(plaintexts)
        record.stats.chunks += 1
        chain.append(
            hop=hop, stage=stage.name, kind="hop",
            mrenclave=rt.boot.mrenclave.hex(),
            verifier=rt.verifier_digest(),
            audit_head=rt.boot.audit.head.hex(),
            input_digest=hashlib.sha256(data).hexdigest(),
            output_digest=hashlib.sha256(output).hexdigest(),
            chunk=chunk, epoch=self.epochs.get((chunk, hop), 0))
        self.counters["links"] += 1
        return output

    # -- handoff acceptance -----------------------------------------------

    def _accept_handoff(self, hop: int, payload: bytes,
                        chain: ProvenanceChain, chunk: int) -> bytes:
        """Consumer-side gate before hop ``hop`` runs: verify the full
        upstream chain against the presented bytes.  The fault plan may
        lose the handoff (stale-chain discard-and-rerun of the
        producer), corrupt the presented bytes, or doctor the presented
        links — every attack must be rejected, after which the honest
        copy is re-presented and must verify."""
        plan = self.fault_plan
        attack = plan.draw_handoff(hop) if plan is not None else None
        if attack == "lose":
            producer = hop - 1
            chain.truncate_from(producer)
            key = (chunk, producer)
            self.epochs[key] = self.epochs.get(key, 0) + 1
            self.counters["discard_reruns"] += 1
            self.hops[producer].discard_reruns += 1
            payload = self._execute_hop(
                producer, self._inputs[(chunk, producer)], chunk,
                chain)
            attack = None
        presented, links = payload, list(chain.links)
        if attack == "corrupt":
            presented = _flip_bit(payload, plan._rng)
            if presented == payload:
                attack = None
        elif attack is not None:
            links = _doctor_links(links, attack, chain, plan._rng)
            if links == list(chain.links):
                attack = None
        epochs = self._epochs_for(chunk)
        digest = hashlib.sha256(presented).hexdigest()
        try:
            verify_links(chain.key, chain.pipeline_id, links,
                         expect_hops=hop, expect_chunk=chunk,
                         expect_epochs=epochs, final_digest=digest)
        except ProvenanceError:
            if attack is None:
                raise          # genuine corruption — fail closed
            if attack == "corrupt":
                self.counters["handoffs_rejected"] += 1
            else:
                self.counters["chain_attacks_rejected"] += 1
            # The honest re-presentation must verify, or the pipeline
            # is genuinely broken.
            verify_links(chain.key, chain.pipeline_id,
                         list(chain.links), expect_hops=hop,
                         expect_chunk=chunk, expect_epochs=epochs,
                         final_digest=hashlib.sha256(
                             payload).hexdigest())
            return payload
        if attack is not None:
            # A doctored presentation passed verification — the
            # fail-closed property is broken.  Must never happen.
            self.counters["attacks_accepted"] += 1
        return payload

    # -- one work item through every hop ----------------------------------

    def _run_item(self, data: bytes, chunk: int,
                  chain: ProvenanceChain) -> bytes:
        payload = data
        for hop in range(len(self.stages)):
            if hop > 0:
                payload = self._accept_handoff(hop, payload, chain,
                                               chunk)
            self._inputs[(chunk, hop)] = payload
            payload = self._execute_hop(hop, payload, chunk, chain)
        return payload

    def _arm_rekey(self) -> None:
        if not self.rekey_every:
            return
        for rt in self.runtimes:
            channels = [rt.provider._channel, rt.owner._channel]
            channels.extend(rt.boot.channels.values())
            for channel in channels:
                if channel is not None and channel.rekey_after is None:
                    channel.rekey_after = self.rekey_every

    # -- public entry points ----------------------------------------------

    def run(self, data: bytes) -> PipelineRun:
        """Batch mode: one work item through every hop."""
        run = PipelineRun(self.pipeline_id, self.topology, "batch")
        began = perf_counter()
        chain = self._new_chain(-1)
        try:
            output = self._run_item(data, -1, chain)
            run.output = output
            run.reports = list(self._last_outcome.reports)
            run.chunks = 1
            run.chunk_latencies = [perf_counter() - began]
        except (HopFailed, PipelineStalled) as exc:
            self._note_failure(run, exc)
        run.wall_s = perf_counter() - began
        self._finalize(run, {-1: chain},
                       {-1: (data, run.output)} if run.ok else {},
                       began)
        return run

    def run_streaming(self, data: bytes, *, chunk_size: int = 32,
                      window: int = 2) -> PipelineRun:
        """Streaming mode: chunked records through long-lived attested
        sessions, a bounded in-flight window, per-chunk provenance
        chains and per-chunk P0 budgets."""
        run = PipelineRun(self.pipeline_id, self.topology, "stream")
        began = perf_counter()
        pieces = [data[i:i + chunk_size]
                  for i in range(0, len(data), chunk_size)] or [b""]
        n = len(self.stages)
        queues = [deque() for _ in range(n)]
        chains: Dict[int, ProvenanceChain] = {}
        results: Dict[int, bytes] = {}
        latencies: Dict[int, float] = {}
        next_feed = 0
        in_flight = 0
        try:
            while len(results) < len(pieces):
                while next_feed < len(pieces) and in_flight < window:
                    chains[next_feed] = self._new_chain(next_feed)
                    queues[0].append((next_feed, pieces[next_feed]))
                    in_flight += 1
                    run.max_in_flight = max(run.max_in_flight,
                                            in_flight)
                    next_feed += 1
                # Deepest stage first: drain downstream work before
                # admitting more — the window is backpressure, not a
                # buffer.
                for hop in reversed(range(n)):
                    if not queues[hop]:
                        continue
                    index, payload = queues[hop].popleft()
                    t0 = perf_counter()
                    if hop > 0:
                        payload = self._accept_handoff(
                            hop, payload, chains[index], index)
                    self._inputs[(index, hop)] = payload
                    payload = self._execute_hop(hop, payload, index,
                                                chains[index])
                    latencies[index] = latencies.get(index, 0.0) \
                        + (perf_counter() - t0)
                    if hop + 1 < n:
                        queues[hop + 1].append((index, payload))
                    else:
                        results[index] = payload
                        run.reports.extend(
                            self._last_outcome.reports)
                        in_flight -= 1
                    break
                self._arm_rekey()
        except (HopFailed, PipelineStalled) as exc:
            self._note_failure(run, exc)
        if run.ok:
            run.output = b"".join(results[i]
                                  for i in range(len(pieces)))
            run.chunks = len(pieces)
            run.chunk_latencies = [latencies[i]
                                   for i in sorted(latencies)]
        run.wall_s = perf_counter() - began
        inputs_outputs = {i: (pieces[i], results[i])
                          for i in results} if run.ok else {}
        self._finalize(run, chains, inputs_outputs, began)
        return run

    # -- bookkeeping ------------------------------------------------------

    def _note_failure(self, run: PipelineRun, exc) -> None:
        if isinstance(exc, PipelineStalled):
            run.status = f"stalled@{exc.stage}"
        else:
            run.status = f"{exc.triage}@{exc.stage}"
        run.detail = str(exc)

    def _finalize(self, run: PipelineRun,
                  chains: Dict[int, ProvenanceChain],
                  inputs_outputs: Dict[int, Tuple[bytes, bytes]],
                  began: float) -> None:
        for chunk in sorted(chains):
            links = list(chains[chunk].links)
            run.chains[chunk] = links
            run.links.extend(links)
        for hop, (rt, record) in enumerate(zip(self.runtimes,
                                               self.hops)):
            record.stats = SessionStats(
                chunks=record.stats.chunks).merge(record.archived) \
                .merge(rt.workflow.combined_stats())
            record.audit_runs = rt.boot.audit.count("run_completed")
            record.expected_runs = rt.expected_runs
        run.hops = list(self.hops)
        self.counters["rekeys"] = sum(
            channel.rekeys
            for rt in self.runtimes
            for channel in [rt.provider._channel, rt.owner._channel,
                            *rt.boot.channels.values()]
            if channel is not None)
        run.counters = dict(self.counters)
        if run.ok and inputs_outputs:
            try:
                for chunk, (item_in, item_out) in \
                        sorted(inputs_outputs.items()):
                    chain = chains[chunk]
                    verify_links(
                        chain.key, chain.pipeline_id,
                        list(chain.links),
                        expect_hops=len(self.stages),
                        expect_chunk=chunk,
                        expect_epochs=self._epochs_for(chunk),
                        input_digest=hashlib.sha256(
                            item_in).hexdigest(),
                        final_digest=hashlib.sha256(
                            item_out).hexdigest())
                run.chain_verified = True
            except ProvenanceError as exc:
                run.chain_verified = False
                run.chain_detail = str(exc)


def serial_oracle(stages: List[PipelineStage], data: bytes, *,
                  chunk_size: Optional[int] = None,
                  chunk_budget: Optional[int] = None,
                  record_size: int = 256,
                  aex_threshold: int = 25,
                  provision_cache: Optional[ProvisionCache] = None
                  ) -> Tuple[bytes, List[int]]:
    """The unfaulted serial oracle: the same verified stages run
    plainly (no sessions, no faults, no checkpoints), chunk by chunk.
    A chain-verified pipeline output must be byte-identical to this."""
    cache = provision_cache if provision_cache is not None \
        else ProvisionCache()
    boots = []
    for stage in stages:
        policies = stage.policy_set()
        p0 = P0Config(record_size=record_size)
        if chunk_budget is not None:
            p0 = P0Config(max_output_bytes=chunk_budget,
                          record_size=record_size)
        boot = BootstrapEnclave(policies=policies, p0=p0,
                                aex_threshold=aex_threshold,
                                provision_cache=cache)
        boot.receive_binary(CodeProvider(stage.source, policies).build())
        boots.append(boot)
    pieces = [data] if chunk_size is None else \
        [data[i:i + chunk_size]
         for i in range(0, len(data), chunk_size)] or [b""]
    outputs: List[bytes] = []
    reports: List[int] = []
    for piece in pieces:
        payload = piece
        for boot in boots:
            boot.receive_userdata(payload)
            outcome = boot.run()
            if outcome.status != "ok":
                raise HopFailed(
                    f"oracle stage ended {outcome.status}: "
                    f"{outcome.detail}", triage="blame")
            payload = b"".join(outcome.sent_plaintext)
        outputs.append(payload)
        reports.extend(outcome.reports)
    return b"".join(outputs), reports
