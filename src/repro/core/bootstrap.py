"""The bootstrap enclave (§III-A, §V-B).

Public, measured, attested code that receives the target binary and the
user data, runs the load -> disassemble -> verify -> rewrite pipeline,
and executes the target under the P0 OCall wrappers:

* ``__send`` (SVC 1): output is encrypted on the session channel and
  padded to fixed-size records; total output is capped by the entropy
  budget;
* ``__recv`` (SVC 2): reads from the decrypted user-data buffer;
* ``__report`` (SVC 3): a 64-bit result value, also charged against the
  output budget.

The bootstrap's measured image is the actual source of the consumer —
the files :mod:`repro.tcb` counts — "its code is public and initial
state is measured by hardware".
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

from ..compiler.objfile import ObjectFile
from ..crypto.channel import SecureChannel
from ..errors import (
    EnclaveError, PolicyViolation, ProtocolError, RollbackError,
)
from ..policy.magic import MARKER_VALUE, VIOL_P0
from ..policy.policies import PolicySet
from ..sgx.enclave import Enclave
from ..sgx.layout import EnclaveConfig
from ..sgx.memory import PAGE_SHIFT
from ..sgx.quote import PlatformKey, Quote
from ..tcb import consumer_files
from ..vm.costmodel import CostModel
from ..vm.cpu import CPU
from ..vm.interrupts import AexSchedule
from .audit import AuditLog
from .cache import PROVISION_CACHE, ProvisionCache  # noqa: F401 (re-export)
from .checkpoint import (
    COUNTER_LABEL, CheckpointChain, Watchdog, derive_seal_key, run_loop,
    verify_chain,
)
from .loader import DynamicLoader, LoadedBinary
from .outcome import RunOutcome, _ThreadIO
from .rdd import recursive_descent
from .rewriter import ImmRewriter, build_value_map
from .verifier import DEFAULT_ALLOWED_SVCS, PolicyVerifier, VerifiedBinary

SVC_SEND = 1
SVC_RECV = 2
SVC_REPORT = 3

_RDI, _RSI = 7, 6


def consumer_image() -> bytes:
    """The public bootstrap implementation image that gets measured.

    Concatenates the consumer's source files — exactly the files
    :mod:`repro.tcb` counts, in table order, each behind its package
    path — so two bootstraps running identical consumer code have
    identical MRENCLAVE.
    """
    return b"\x00".join(
        f"{path.parent.name}/{path.name}".encode() + b"\x00" +
        path.read_bytes()
        for path in consumer_files())


@dataclass
class P0Config:
    """Interface-control knobs (the EDL manifest + wrappers)."""

    max_output_bytes: int = 1 << 20   # entropy budget for send+report
    record_size: int = 256            # fixed ciphertext record payload
    allowed_svcs: tuple = tuple(sorted(DEFAULT_ALLOWED_SVCS))
    #: §VII extension — "on-demand aligning/blurring processing time":
    #: when nonzero, the bootstrap busy-pads every run so the host
    #: observes a cycle count rounded up to a multiple of this quantum,
    #: closing the processing-time covert channel.  0 disables padding.
    pad_cycles_quantum: int = 0


class BootstrapEnclave:
    """Code consumer + P0 wrappers, hosted in a simulated enclave."""

    def __init__(self, policies: Optional[PolicySet] = None,
                 config: Optional[EnclaveConfig] = None,
                 platform: Optional[PlatformKey] = None,
                 p0: Optional[P0Config] = None,
                 aex_threshold: int = 10,
                 custom=(),
                 provision_cache: Optional[ProvisionCache] = None):
        self.policies = policies if policies is not None \
            else PolicySet.full()
        self.p0 = p0 or P0Config()
        self.aex_threshold = aex_threshold
        self.provision_cache = provision_cache
        self.provision_cache_hits = 0
        self.enclave = Enclave(config, platform)
        self._attach_enclave()
        self.custom = tuple(custom)
        self.verifier = PolicyVerifier(self.policies,
                                       self.p0.allowed_svcs,
                                       custom=self.custom)
        self.loaded: Optional[LoadedBinary] = None
        self.verified: Optional[VerifiedBinary] = None
        #: ``(cost_model argument, thread-0 CPU)`` kept across
        #: ``run(reuse_cpu=True)`` calls so a warm re-run inherits the
        #: translated-block cache; dropped whenever provisioning starts.
        self._cpu0: Optional[tuple] = None
        #: Stage timings (seconds) of the most recent provisioning.
        self.provision_stages: Dict[str, float] = {}
        #: Tamper-evident event chain (attestation evidence).
        self.audit = AuditLog()
        self.audit.record("enclave_initialized",
                          mrenclave=self.enclave.mrenclave.hex(),
                          policies=self.policies.describe())
        #: Session channels by role: 'owner' (data owner) and 'provider'
        #: (code provider) — the two parties of §III-A.
        self.channels = {}
        #: Enclave-side handshake public keys already used — the
        #: freshness registry ``establish_session`` checks so a stale
        #: entropy source (or a replayed handshake) is rejected.  Kept
        #: across :meth:`recover` on purpose: key reuse across restarts
        #: is exactly the replay the check exists for.
        self.handshake_keys = set()
        self._input: bytes = b""
        self._input_cursor = 0
        #: sha256 of the currently provisioned blob — the session secret
        #: of the checkpoint sealing key (None until a binary verifies).
        self._provision_digest: Optional[bytes] = None

    def _attach_enclave(self) -> None:
        """Measure + EINIT ``self.enclave`` and wire the ECall table and
        the loader to it (shared by ``__init__`` and :meth:`recover`)."""
        self.enclave.load_bootstrap_image(consumer_image())
        self.enclave.einit()
        self.loader = DynamicLoader(self.enclave)
        for target in (self.receive_binary, self.receive_userdata,
                       self.run, self.resume, self.ping):
            self.enclave.register_ecall(
                "ecall_" + target.__name__, target)

    def recover(self, reason: str = "teardown") -> bytes:
        """Rebuild the enclave after a platform teardown.

        A fresh enclave is built and EINIT'd with the same config on the
        *same* platform, so MRENCLAVE is unchanged and the platform's
        attestation provisioning stays valid.  All volatile state dies
        with the old instance — session channels, the provisioned
        binary, staged user data — which is why callers must re-attest
        and re-deliver.  The audit chain survives and gains a
        ``recovered`` link: a remote party auditing the history sees
        exactly when restarts happened and that no event was lost.
        Returns the (unchanged) MRENCLAVE.
        """
        self.enclave = Enclave(self.enclave.config, self.enclave.platform)
        self._attach_enclave()
        self.loaded = self.verified = self._provision_digest = None
        self._cpu0 = None
        self.provision_stages = {}
        self.channels = {}
        self._input = b""
        self._input_cursor = 0
        self.audit.record("recovered", reason=reason,
                          mrenclave=self.enclave.mrenclave.hex())
        return self.enclave.mrenclave

    # -- attestation ----------------------------------------------------------

    @property
    def mrenclave(self) -> bytes:
        return self.enclave.mrenclave

    def quote(self, report_data: bytes = b"") -> Quote:
        return self.enclave.get_quote(report_data)

    def quote_with_audit(self) -> Quote:
        """Quote whose report data pins the audit-chain head, so a
        remote party can check the claimed history is the real one."""
        return self.enclave.get_quote(self.audit.head)

    def ping(self) -> Dict[str, object]:
        """Cheap liveness ECall for fleet supervision.

        Answers only if the enclave is alive (a torn-down instance
        raises :class:`~repro.errors.EnclaveTeardown` at the ECall
        gate) and reports just enough for a supervisor's health
        verdict: the measured identity, whether a binary is currently
        provisioned, and the audit head so a flapping-but-lying drone
        cannot replay an old healthy answer.  Deliberately *not*
        audited itself — heartbeats fire every supervision tick and
        must not grow the evidence chain."""
        return {"mrenclave": self.enclave.mrenclave.hex(), "provisioned":
                self.verified is not None, "audit_head": self.audit.head.hex()}

    def attach_channel(self, channel: SecureChannel,
                       role: str = "owner") -> None:
        """Bind an established RA-TLS session channel for ``role``
        ('owner' or 'provider')."""
        if role not in ("owner", "provider"):
            raise ProtocolError(f"unknown role {role!r}")
        self.channels[role] = channel
        self.audit.record("channel_attached", role=role)

    @property
    def channel(self) -> Optional[SecureChannel]:
        """The data-owner channel (P0 output goes to the data owner)."""
        return self.channels.get("owner")

    # -- delivery ECalls ---------------------------------------------------------

    def receive_binary(self, blob: bytes,
                       encrypted: bool = False) -> bytes:
        """``ecall_receive_binary``: parse, load, verify, rewrite.

        Returns the measurement (hash) of the received service binary,
        which the bootstrap forwards to the data owner (§III-A).
        Raises :class:`VerificationError` when the binary is rejected.

        Provisioning is a transaction: the previous binary (and any CPU
        reused across runs) is forgotten on entry, and the new one is
        committed only after the rewrite or the cache install succeeds,
        so after any failure every run ECall fails closed until a
        binary is accepted.  Staged user data is kept.
        """
        self.loaded = self.verified = self._provision_digest = None
        self._cpu0 = None
        if encrypted:
            provider = self.channels.get("provider")
            if provider is None:
                raise ProtocolError("no provider channel established")
            blob = provider.open(blob)
        digest = hashlib.sha256(blob).digest()
        blob_hash = digest.hex()
        key = self._provision_key(digest)
        if self.provision_cache is not None:
            t0 = perf_counter()
            image = self.provision_cache.lookup(key)
            if image is not None:
                self.loaded = self.loader.install_image(image)
                self.verified = image.verified
                self.provision_cache_hits += 1
                self.provision_stages = {"install": perf_counter() - t0}
                self._provision_digest = digest
                self.audit.record(
                    "binary_provisioned_cached", hash=blob_hash,
                    mrenclave=self.enclave.mrenclave.hex(),
                    instructions=image.verified.instruction_count)
                return digest
        try:
            t0 = perf_counter()
            obj = ObjectFile.parse(blob)
            t1 = perf_counter()
            loaded = self.loader.load(obj)
            text = self.enclave.space.read_raw(loaded.code_base,
                                               loaded.code_len)
            entry_off = loaded.entry_addr - loaded.code_base
            target_offs = sorted(set(
                addr - loaded.code_base
                for addr in loaded.branch_target_addrs))
            t2 = perf_counter()
            code = recursive_descent(text, entry_off, target_offs)
            t3 = perf_counter()
            values = build_value_map(self.enclave.layout, loaded,
                                     self.aex_threshold,
                                     policies=self.policies)
            verified = self.verifier.verify_code(
                code, entry_off, target_offs,
                proofs=obj.proofs, values=values)
            t4 = perf_counter()
        except Exception as exc:
            self.audit.record("binary_rejected", hash=blob_hash,
                              reason=str(exc))
            raise
        rewriter = ImmRewriter(values)
        rewriter.apply(self.enclave.space, loaded.code_base,
                       verified.magic_slots)
        t5 = perf_counter()
        self.provision_stages = {
            "parse": t1 - t0, "load": t2 - t1, "rdd": t3 - t2,
            "verify": t4 - t3, "rewrite": t5 - t4,
        }
        self.loaded = loaded
        self.verified = verified
        self._provision_digest = digest
        self.audit.record(
            "binary_verified", hash=blob_hash,
            annotations=sum(verified.annotation_counts.values()),
            instructions=verified.instruction_count)
        if self.provision_cache is not None:
            self.provision_cache.store(
                key, self.loader.capture_image(loaded, verified, digest))
        return digest

    def _provision_key(self, digest: bytes) -> tuple:
        """Cache key: blob digest + every pipeline input that shapes
        the provisioned image (verifier verdict inputs, enclave layout,
        rewriter values).  MRENCLAVE is part of the key so a cached
        image can only ever be replayed into an enclave running the
        exact same measured consumer code — a re-built (recovered)
        enclave keeps its MRENCLAVE and keeps hitting, while any
        different bootstrap build misses and re-verifies."""
        return (digest,
                self.enclave.mrenclave,
                self.verifier.fingerprint(),
                dataclasses.astuple(self.enclave.config),
                self.aex_threshold)

    def receive_userdata(self, data: bytes,
                         encrypted: bool = False) -> int:
        """``ecall_receive_userdata``: stage decrypted input for
        ``__recv``."""
        if encrypted:
            owner = self.channels.get("owner")
            if owner is None:
                raise ProtocolError("no owner channel established")
            data = owner.open(data)
        self._input = bytes(data)
        self._input_cursor = 0
        self.audit.record("userdata_received", nbytes=len(self._input),
                          encrypted=encrypted)
        return len(self._input)

    # -- execution -----------------------------------------------------------------

    def _open_run(self, inputs=(None,),
                  track_dirty: bool = False) -> List[_ThreadIO]:
        """Shared prologue of every execution ECall.

        Fails unless a binary is provisioned, resets the runtime cells
        and the P0 output budget, and returns one :class:`_ThreadIO`
        with a fresh :class:`RunOutcome` per entry of ``inputs``
        (``None`` stands for the staged user data).  Dirty-page tracking
        is set to ``track_dirty`` first — before the CPU exists, since
        the translator bakes the decision into its blocks — and
        drained, so the first checkpoint's delta starts at the
        post-provision image and carries the runtime cells, and a run
        without safe points pays no tracking.
        """
        if self.loaded is None or self.verified is None:
            raise EnclaveError("no verified binary provisioned")
        layout = self.enclave.layout
        space = self.enclave.space
        space.track_dirty(track_dirty)
        space.drain_dirty()
        space.write_raw(layout.ssp_cell,
                        layout.ss_base.to_bytes(8, "little"))
        space.write_raw(layout.ssa_marker_addr,
                        MARKER_VALUE.to_bytes(8, "little"))
        space.write_raw(layout.aex_count_cell, b"\x00" * 8)
        self._budget = self.p0.max_output_bytes
        return [_ThreadIO(self._input if data is None else bytes(data), 0,
                          RunOutcome(
                              status="ok",
                              provision_cache_hits=self.provision_cache_hits,
                              provision_stages=dict(self.provision_stages)))
                for data in inputs]

    def _make_cpu(self, tid: int, io: "_ThreadIO", aex_schedule,
                  cost_model, reuse: bool = False) -> CPU:
        layout = self.enclave.layout
        kw = dict(aex_schedule=aex_schedule,
                  svc_handler=lambda c, num: self._svc(c, num, io),
                  initial_rsp=layout.initial_rsp_of(tid))
        if reuse and tid == 0 and self._cpu0 is not None \
                and self._cpu0[0] is cost_model:
            # Warm re-run: rewind the architectural state but keep the
            # translated-block cache (steady-state benchmarking).  Only
            # taken when the caller passes the *same* cost-model
            # argument (``None`` included) — cycle constants are baked
            # into compiled blocks.
            cpu = self._cpu0[1]
            cpu.reset_for_run(**kw)
        else:
            cpu = CPU(self.enclave.space, self.loaded.entry_addr,
                      cost_model=cost_model,
                      ssa_addr=layout.ssa_addr_of(tid),
                      hot_range=(layout.crit_lo, layout.crit_hi), **kw)
            if reuse and tid == 0:
                self._cpu0 = (cost_model, cpu)
        if self.policies.mt_safe:
            # §VII: the shadow-stack pointer lives in R13, per thread
            cpu.regs[13] = layout.shadow_slice_base(tid)
        return cpu

    def run(self, aex_schedule: Optional[AexSchedule] = None,
            cost_model: Optional[CostModel] = None,
            max_steps: int = 200_000_000,
            checkpoint_every: Optional[int] = None,
            watchdog: Optional[Watchdog] = None,
            checkpoint_sink=None,
            interrupt=None, reuse_cpu: bool = False,
            jit_eager: bool = False) -> RunOutcome:
        """``ecall_run``: execute the verified target binary.

        With ``checkpoint_every=N``, execution pauses at every Nth
        instruction boundary (a safe point) and seals an incremental
        checkpoint — delivered to ``checkpoint_sink(blob)`` when given
        — so a platform teardown loses at most N instructions of work
        (see :meth:`resume`).  ``watchdog`` budgets are enforced
        cooperatively at the same safe points, raising
        :class:`DeadlineExceeded` with the final chain attached.
        ``interrupt(cpu)``, when given, is polled at each safe point
        and may raise (the fault-injection harness models mid-run
        teardown with it).  With none of these the CPU runs once,
        unsliced; either way the run goes through the one loop,
        :func:`repro.core.checkpoint.run_loop`.

        ``reuse_cpu=True`` keeps the thread-0 CPU (and its translated
        block cache) across calls: a second ``run`` after restoring the
        enclave RAM image (``repro.bench.harness.snapshot_run_state``)
        then measures warm steady-state execution.  Only honored when
        no safe points are asked for (a reused CPU's blocks were
        compiled without dirty tracking) and only when the same
        ``cost_model`` argument (or ``None`` again) is passed.

        ``jit_eager=True`` makes the translating executor compile
        every block on first dispatch instead of after its cold-run
        threshold.  Semantically invisible; pairs with ``reuse_cpu``
        so one untimed priming run drives the block cache to its
        fixed point before a measured run.
        """
        safe_points = (checkpoint_every is not None
                       or watchdog is not None or interrupt is not None)
        [io] = self._open_run(track_dirty=safe_points)
        cpu = self._make_cpu(0, io, aex_schedule, cost_model,
                             reuse=reuse_cpu and not safe_points)
        cpu.jit_eager = jit_eager
        chain = CheckpointChain(key=self._seal_key(),
                                prev_mac=b"\x00" * 32, blobs=[]) \
            if safe_points else None
        return run_loop(self, cpu, io, chain, max_steps, checkpoint_every,
                        watchdog, checkpoint_sink, interrupt)

    def resume(self, blobs,
               aex_schedule: Optional[AexSchedule] = None,
               cost_model: Optional[CostModel] = None,
               max_steps: int = 200_000_000,
               checkpoint_every: Optional[int] = None,
               watchdog: Optional[Watchdog] = None,
               checkpoint_sink=None,
               interrupt=None) -> RunOutcome:
        """``ecall_resume``: continue a run from a sealed checkpoint chain.

        The caller must have re-provisioned the *same* binary and
        re-staged the *same* user data first (both are checked: the
        sealing key embeds the provision digest, the chain embeds the
        input digest).  The chain is authenticated against the platform
        monotonic counter before a single byte of it is trusted; any
        corruption, cross-enclave blob, gap, or stale head fails closed
        with :class:`RollbackError` — resuming from host-chosen state
        would be a rollback attack, so there is deliberately no
        best-effort path.  On success the memory deltas are replayed
        onto the freshly provisioned image, the CPU adopts the
        safe-point snapshot (including the seeded AEX schedule state),
        and execution continues bit-identically to the uninterrupted
        run — taking further checkpoints on the same chain when
        ``checkpoint_every`` is set.
        """
        [io] = self._open_run(track_dirty=True)
        blobs = list(blobs)
        key = self._seal_key()
        head = self.enclave.platform.counter_read(COUNTER_LABEL)
        payloads = verify_chain(key, blobs, head)
        last = payloads[-1]
        if hashlib.sha256(self._input).digest() != last.input_digest:
            self.audit.record("resume_rejected", reason="input-mismatch")
            raise RollbackError(
                "checkpoint rejected: staged user data does not match "
                "the checkpointed input")
        space = self.enclave.space
        base = space.enclave_base
        for payload in payloads:
            for index, data in payload.enclave_pages:
                space.write_page(base + (index << PAGE_SHIFT), data)
            for addr, data in payload.outside_pages:
                space.write_page(addr, data)
        space.drain_dirty()
        outcome = io.outcome
        outcome.reports = list(last.reports)
        outcome.sent_plaintext = [bytes(d) for d in last.sent_plaintext]
        outcome.sent_wire = [self._wire_for(d)
                             for d in outcome.sent_plaintext]
        outcome.resumed_at_step = last.cpu.steps
        io.cursor = last.io_cursor
        self._budget = last.budget
        cpu = self._make_cpu(0, io, aex_schedule, cost_model)
        cpu.restore(last.cpu)
        self.audit.record("resumed", steps=last.cpu.steps,
                          counter=head, chain=len(blobs))
        chain = CheckpointChain(key=key, prev_mac=blobs[-1][-32:],
                                blobs=blobs)
        return run_loop(self, cpu, io, chain, max_steps, checkpoint_every,
                        watchdog, checkpoint_sink, interrupt)

    def _seal_key(self) -> bytes:
        if self._provision_digest is None:
            raise EnclaveError(
                "no provisioned binary to derive a sealing key from")
        return derive_seal_key(self.enclave.platform.seal_fuse(),
                               self.enclave.mrenclave,
                               self._provision_digest)

    def _finish_run(self, outcome: RunOutcome) -> RunOutcome:
        """Shared run epilogue: time blurring + the audit record."""
        outcome.observable_cycles = self._pad_time(
            outcome.result.cycles if outcome.result else 0.0)
        self.audit.record(
            "run_completed", status=outcome.status,
            violation=outcome.violation_name,
            steps=outcome.result.steps,
            observable_cycles=int(outcome.observable_cycles),
            outputs=len(outcome.sent_wire) + len(outcome.reports),
            checkpoints=outcome.checkpoints_taken)
        return outcome

    def run_traced(self, max_instructions: int = 200,
                   cost_model: Optional[CostModel] = None):
        """Single-step the target; see :func:`repro.core.tracing.run_traced`."""
        from .tracing import run_traced
        return run_traced(self, max_instructions, cost_model)

    def run_threads(self, inputs, quantum: int = 500,
                    cost_model: Optional[CostModel] = None,
                    max_steps: int = 50_000_000) -> List[RunOutcome]:
        """Run over N TCS slots; see :func:`repro.core.threads.run_threads`."""
        from .threads import run_threads
        return run_threads(self, inputs, quantum, cost_model, max_steps)

    def _pad_time(self, cycles: float) -> float:
        """§VII time blurring: the host only ever observes quantum-
        aligned completion times."""
        quantum = self.p0.pad_cycles_quantum
        if quantum <= 0:
            return cycles
        blocks = int(cycles // quantum) + (1 if cycles % quantum else 0)
        return float(max(1, blocks) * quantum)

    # -- P0 OCall wrappers --------------------------------------------------------

    def _charge_budget(self, nbytes: int) -> None:
        self._budget -= nbytes
        if self._budget < 0:
            raise PolicyViolation(
                VIOL_P0, 0, "P0: output entropy budget exhausted")

    def _wire_for(self, data: bytes) -> bytes:
        """Wire form of one P0 output record.  Without a session the
        record is padded but cleartext — deterministic, which is what
        lets a resumed run regenerate pre-checkpoint wire records
        byte-identically."""
        if self.channel is not None:
            return self.channel.seal(data)
        pad = self.p0.record_size
        padded = max(pad, (len(data) + pad - 1) // pad * pad)
        return data + b"\x00" * (padded - len(data))

    def _svc(self, cpu: CPU, num: int, io: "_ThreadIO") -> None:
        outcome = io.outcome
        if num == SVC_SEND:
            ptr, length = cpu.regs[_RDI], cpu.regs[_RSI]
            if length > self.enclave.layout.size:
                raise PolicyViolation(VIOL_P0, cpu.rip,
                                      "P0: absurd send length")
            self._charge_budget(length)
            data = self.enclave.space.read_raw(ptr, length)
            outcome.sent_plaintext.append(data)
            outcome.sent_wire.append(self._wire_for(data))
            cpu.regs[0] = length
        elif num == SVC_RECV:
            ptr, length = cpu.regs[_RDI], cpu.regs[_RSI]
            chunk = io.input[io.cursor:io.cursor + length]
            self.enclave.space.write_raw(ptr, chunk)
            io.cursor += len(chunk)
            cpu.regs[0] = len(chunk)
        elif num == SVC_REPORT:
            self._charge_budget(8)
            outcome.reports.append(cpu.regs[_RDI])
            cpu.regs[0] = 0
        else:
            raise PolicyViolation(VIOL_P0, cpu.rip,
                                  f"P0: OCall {num} not in manifest")
