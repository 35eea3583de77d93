"""Sealed, rollback-protected mid-run checkpoints.

A long-running enclave computation must survive platform teardown
without trusting the host: the host stores the checkpoints, so they
must be unforgeable, bound to the enclave identity, and *fresh* — a
host that replays checkpoint ``n-1`` after ``n`` was taken would roll
the computation back (re-executing an interval with, e.g., a different
AEX pattern, or double-spending the output budget).  This module
implements the classic SGX answer:

* the **sealing key** is derived (HKDF-SHA256) from the platform
  sealing fuse, MRENCLAVE, and a per-provisioning session secret — so
  only the same enclave code, on the same platform, running the same
  provisioned binary can unseal;
* every checkpoint carries a **monotonic counter** value drawn from the
  platform counter at seal time and a **MAC chain** (each blob
  authenticates its predecessor's MAC), so the verifier can prove the
  chain is gap-free and that its head matches the platform counter —
  any stale, reordered, truncated or cross-enclave blob fails closed
  with :class:`~repro.errors.RollbackError`;
* the payload itself is an **incremental delta**: the CPU safe-point
  state plus only the pages dirtied since the previous checkpoint
  (see ``AddressSpace.track_dirty``), so checkpoint cost scales with
  the write working set, not the enclave size.

The blob layout (all little-endian)::

    "CKPT" | version u8 | counter u64 | kind u8 | prev_mac 32B
           | payload_len u64 | payload | mac 32B

with ``mac = HMAC-SHA256(seal_key, everything before the mac)``.

The module also holds the one execution loop every ``ecall_run`` and
``ecall_resume`` goes through (:func:`run_loop`): safe points, and the
checkpoints sealed at them, are a property of that loop, not a second
way to run.  :func:`executing` is the one place a policy trap or a
fault becomes a run's outcome.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Tuple

from ..crypto.hkdf import hkdf
from ..errors import (
    CpuFault, DeadlineExceeded, MemoryFault, PolicyViolation,
    RollbackError,
)
from ..sgx.memory import PAGE_SHIFT, PAGE_SIZE
from ..vm.cpu import CPU, CpuState, ExecResult

MAGIC = b"CKPT"
VERSION = 1
KIND_DELTA = 1

_MAC_LEN = 32
_HDR = struct.Struct("<4sBQB32sQ")         # magic ver counter kind prev len
_ZERO_MAC = b"\x00" * _MAC_LEN

#: Monotonic-counter namespace used for checkpoint freshness.
COUNTER_LABEL = b"checkpoint-chain"

#: Safe-point poll granularity when only a watchdog or an interrupt
#: (no ``checkpoint_every``) asks for cooperative pauses.
WATCHDOG_SLICE = 10_000


def derive_seal_key(seal_fuse: bytes, mrenclave: bytes,
                    session_secret: bytes) -> bytes:
    """HKDF seal key: platform fuse x enclave identity x session.

    ``session_secret`` is the provision digest of the target binary —
    checkpoints taken while running one binary can never be resumed
    into another, even inside the same (re-built) bootstrap.
    """
    return hkdf(seal_fuse, mrenclave,
                b"deflection-checkpoint-seal\x00" + session_secret, 32)


# -- payload (de)serialization ------------------------------------------


class _Writer:
    def __init__(self):
        self._parts = []

    def u8(self, v):
        self._parts.append(struct.pack("<B", v))

    def u32(self, v):
        self._parts.append(struct.pack("<I", v))

    def u64(self, v):
        self._parts.append(struct.pack("<Q", v))

    def i64(self, v):
        self._parts.append(struct.pack("<q", v))

    def f64(self, v):
        self._parts.append(struct.pack("<d", v))

    def raw(self, b):
        self._parts.append(bytes(b))

    def blob(self, b):
        self.u32(len(b))
        self.raw(b)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class _Reader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, fmt):
        st = struct.Struct(fmt)
        if self._pos + st.size > len(self._data):
            raise RollbackError("checkpoint payload truncated")
        (v,) = st.unpack_from(self._data, self._pos)
        self._pos += st.size
        return v

    def u8(self):
        return self._take("<B")

    def u32(self):
        return self._take("<I")

    def u64(self):
        return self._take("<Q")

    def i64(self):
        return self._take("<q")

    def f64(self):
        return self._take("<d")

    def raw(self, n) -> bytes:
        if self._pos + n > len(self._data):
            raise RollbackError("checkpoint payload truncated")
        b = self._data[self._pos:self._pos + n]
        self._pos += n
        return bytes(b)

    def blob(self) -> bytes:
        return self.raw(self.u32())

    def done(self) -> bool:
        return self._pos == len(self._data)


@dataclass(frozen=True)
class CheckpointPayload:
    """Everything a recovered enclave needs to continue the run."""

    cpu: CpuState
    io_cursor: int
    budget: int
    input_digest: bytes
    reports: tuple
    sent_plaintext: tuple
    #: Pages dirtied since the previous checkpoint: enclave pages as
    #: (page_index, 4096B), untrusted pages as (page_addr, 4096B).
    enclave_pages: tuple
    outside_pages: tuple

    def pack(self) -> bytes:
        cpu = self.cpu
        w = _Writer()
        w.u64(cpu.steps)
        w.u64(cpu.rip)
        w.f64(cpu.cycles)
        w.u64(cpu.aex_events)
        w.u64(cpu.epc_faults)
        w.u8((cpu.f_eq << 0) | (cpu.f_lt_s << 1) |
             (cpu.f_lt_u << 2) | (cpu.halted << 3))
        for reg in cpu.regs:
            w.u64(reg)
        if cpu.epc_resident is None:
            w.u8(0)
        else:
            w.u8(1)
            w.u32(len(cpu.epc_resident))
            for page in cpu.epc_resident:
                w.u64(page)
            w.u32(len(cpu.epc_ever))
            for page in sorted(cpu.epc_ever):
                w.u64(page)
        w.i64(cpu.aex_countdown)
        if cpu.aex_rng_state is None:
            w.u8(0)
        else:
            version, words, gauss = cpu.aex_rng_state
            w.u8(1)
            w.u32(version)
            w.u32(len(words))
            for word in words:
                w.u32(word)
            if gauss is None:
                w.u8(0)
            else:
                w.u8(1)
                w.f64(gauss)
        w.u64(self.io_cursor)
        w.i64(self.budget)
        w.raw(self.input_digest)
        w.u32(len(self.reports))
        for value in self.reports:
            w.u64(value)
        w.u32(len(self.sent_plaintext))
        for data in self.sent_plaintext:
            w.blob(data)
        w.u32(len(self.enclave_pages))
        for index, data in self.enclave_pages:
            w.u32(index)
            w.raw(data)
        w.u32(len(self.outside_pages))
        for addr, data in self.outside_pages:
            w.u64(addr)
            w.raw(data)
        return w.getvalue()

    @classmethod
    def unpack(cls, data: bytes) -> "CheckpointPayload":
        r = _Reader(data)
        steps = r.u64()
        rip = r.u64()
        cycles = r.f64()
        aex_events = r.u64()
        epc_faults = r.u64()
        flags = r.u8()
        regs = tuple(r.u64() for _ in range(16))
        epc_resident = epc_ever = None
        if r.u8():
            epc_resident = tuple(r.u64() for _ in range(r.u32()))
            epc_ever = frozenset(r.u64() for _ in range(r.u32()))
        aex_countdown = r.i64()
        aex_rng_state = None
        if r.u8():
            version = r.u32()
            words = tuple(r.u32() for _ in range(r.u32()))
            gauss = r.f64() if r.u8() else None
            aex_rng_state = (version, words, gauss)
        cpu = CpuState(
            regs=regs, rip=rip,
            f_eq=bool(flags & 1), f_lt_s=bool(flags & 2),
            f_lt_u=bool(flags & 4),
            steps=steps, cycles=cycles, aex_events=aex_events,
            epc_faults=epc_faults, halted=bool(flags & 8),
            epc_resident=epc_resident, epc_ever=epc_ever,
            aex_countdown=aex_countdown, aex_rng_state=aex_rng_state)
        io_cursor = r.u64()
        budget = r.i64()
        input_digest = r.raw(32)
        reports = tuple(r.u64() for _ in range(r.u32()))
        sent_plaintext = tuple(r.blob() for _ in range(r.u32()))
        enclave_pages = tuple(
            (r.u32(), r.raw(PAGE_SIZE)) for _ in range(r.u32()))
        outside_pages = tuple(
            (r.u64(), r.raw(PAGE_SIZE)) for _ in range(r.u32()))
        if not r.done():
            raise RollbackError("checkpoint payload has trailing bytes")
        return cls(cpu=cpu, io_cursor=io_cursor, budget=budget,
                   input_digest=input_digest, reports=reports,
                   sent_plaintext=sent_plaintext,
                   enclave_pages=enclave_pages,
                   outside_pages=outside_pages)


# -- sealing ------------------------------------------------------------


def seal_checkpoint(key: bytes, counter: int, prev_mac: bytes,
                    payload: CheckpointPayload) -> bytes:
    """Serialize + MAC one checkpoint blob."""
    body = payload.pack()
    head = _HDR.pack(MAGIC, VERSION, counter, KIND_DELTA,
                     prev_mac or _ZERO_MAC, len(body))
    mac = hmac.new(key, head + body, hashlib.sha256).digest()
    return head + body + mac


def unseal_checkpoint(key: bytes, blob: bytes
                      ) -> Tuple[int, bytes, bytes, CheckpointPayload]:
    """Authenticate one blob; returns (counter, prev_mac, mac, payload).

    Raises :class:`RollbackError` on any malformation or MAC mismatch —
    indistinguishably, so the host learns nothing from the failure mode.
    """
    if len(blob) < _HDR.size + _MAC_LEN:
        raise RollbackError("checkpoint rejected: truncated blob")
    try:
        magic, version, counter, kind, prev_mac, length = \
            _HDR.unpack_from(blob, 0)
    except struct.error:
        raise RollbackError("checkpoint rejected: malformed header")
    if magic != MAGIC or version != VERSION or kind != KIND_DELTA:
        raise RollbackError("checkpoint rejected: bad header")
    if len(blob) != _HDR.size + length + _MAC_LEN:
        raise RollbackError("checkpoint rejected: length mismatch")
    mac = blob[-_MAC_LEN:]
    expected = hmac.new(key, blob[:-_MAC_LEN], hashlib.sha256).digest()
    if not hmac.compare_digest(mac, expected):
        raise RollbackError(
            "checkpoint rejected: MAC verification failed "
            "(corrupted, or sealed by a different enclave/platform)")
    payload = CheckpointPayload.unpack(blob[_HDR.size:-_MAC_LEN])
    return counter, prev_mac, mac, payload


def verify_chain(key: bytes, blobs: List[bytes],
                 head_counter: int) -> List[CheckpointPayload]:
    """Authenticate a full checkpoint chain against the platform counter.

    Checks, failing closed with :class:`RollbackError`:

    * every blob's MAC under ``key``;
    * counters strictly consecutive (no gap, no reorder);
    * each blob's ``prev_mac`` equals its predecessor's MAC (the first
      blob must carry the all-zero MAC: a chain cannot be grafted onto
      an older one);
    * the last counter equals ``head_counter`` — the platform monotonic
      counter — so presenting yesterday's chain (rollback replay of
      checkpoint ``n-1``) is rejected even though every MAC verifies.
    """
    if not blobs:
        raise RollbackError("checkpoint rejected: empty chain")
    payloads = []
    last_counter = None
    last_mac = _ZERO_MAC
    for blob in blobs:
        counter, prev_mac, mac, payload = unseal_checkpoint(key, blob)
        if last_counter is not None and counter != last_counter + 1:
            raise RollbackError(
                f"checkpoint rejected: counter gap "
                f"({last_counter} -> {counter})")
        if prev_mac != last_mac:
            raise RollbackError(
                "checkpoint rejected: broken MAC chain")
        payloads.append(payload)
        last_counter = counter
        last_mac = mac
    if last_counter != head_counter:
        raise RollbackError(
            f"checkpoint rejected: stale chain (head counter "
            f"{last_counter}, platform counter {head_counter}) — "
            f"rollback replay")
    return payloads


# -- watchdog -----------------------------------------------------------


class Watchdog:
    """Cooperative budget enforcement, polled at safe points only.

    The VM cannot be interrupted asynchronously (and real enclaves
    cannot be trusted to be — the host controls the clock), so budgets
    are checked between execution slices.  Any of the three limits may
    be ``None`` (unlimited).  ``max_wall_seconds`` is measured from the
    first poll, so provisioning time is not charged against the run.
    """

    def __init__(self, max_cycles: Optional[float] = None,
                 max_steps: Optional[int] = None,
                 max_wall_seconds: Optional[float] = None):
        self.max_cycles = max_cycles
        self.max_steps = max_steps
        self.max_wall_seconds = max_wall_seconds
        self._t0 = None

    def exceeded(self, cpu: CPU) -> Optional[str]:
        """Return a human-readable reason, or None while within budget."""
        if self._t0 is None:
            self._t0 = perf_counter()
        if self.max_steps is not None and cpu.steps >= self.max_steps:
            return (f"watchdog: step budget exhausted "
                    f"({cpu.steps} >= {self.max_steps})")
        if self.max_cycles is not None and cpu.cycles >= self.max_cycles:
            return (f"watchdog: cycle budget exhausted "
                    f"({cpu.cycles:.0f} >= {self.max_cycles:.0f})")
        if self.max_wall_seconds is not None and \
                perf_counter() - self._t0 >= self.max_wall_seconds:
            return (f"watchdog: wall deadline exceeded "
                    f"({self.max_wall_seconds}s)")
        return None


@dataclass
class CheckpointChain:
    """In-flight sealing state of one checkpoint chain."""

    key: bytes
    prev_mac: bytes
    blobs: List[bytes]


def take_checkpoint(boot, cpu: CPU, io, outcome,
                    chain: CheckpointChain, checkpoint_sink) -> None:
    """Seal one incremental checkpoint at the current safe point."""
    space = boot.enclave.space
    dirty, outside = space.drain_dirty()
    base = space.enclave_base
    payload = CheckpointPayload(
        cpu=cpu.snapshot(),
        io_cursor=io.cursor,
        budget=boot._budget,
        input_digest=hashlib.sha256(io.input).digest(),
        reports=tuple(outcome.reports),
        sent_plaintext=tuple(outcome.sent_plaintext),
        enclave_pages=tuple(
            (index, space.read_page(base + (index << PAGE_SHIFT)))
            for index in sorted(dirty)),
        outside_pages=tuple(
            (addr, space.read_page(addr))
            for addr in sorted(outside)))
    counter = boot.enclave.platform.counter_bump(COUNTER_LABEL)
    blob = seal_checkpoint(chain.key, counter, chain.prev_mac, payload)
    chain.prev_mac = blob[-32:]
    chain.blobs.append(blob)
    outcome.checkpoints_taken += 1
    if checkpoint_sink is not None:
        checkpoint_sink(blob)


@contextmanager
def executing(outcome, cpu: CPU):
    """Record the block's execution of ``cpu`` in ``outcome``.

    A policy trap or a CPU/memory fault raised inside ends the run with
    that status and detail; either way the outcome's result is the
    CPU's state when the block ends.  Anything else (teardown,
    watchdog deadline) propagates.
    """
    try:
        yield
    except PolicyViolation as exc:
        outcome.status = "violation"
        outcome.violation_code = exc.code
        outcome.detail = str(exc)
    except (MemoryFault, CpuFault) as exc:
        outcome.status = "fault"
        outcome.detail = str(exc)
    outcome.result = ExecResult(cpu.steps, cpu.cycles, cpu.rip,
                                cpu.aex_events, cpu.regs[0])


def run_loop(boot, cpu: CPU, io, chain: Optional[CheckpointChain],
             max_steps: int,
             checkpoint_every: Optional[int],
             watchdog: Optional[Watchdog],
             checkpoint_sink, interrupt):
    """The one execution loop of ``ecall_run`` and ``ecall_resume``.

    When no checkpoint, watchdog or interrupt asks for safe points the
    CPU runs once, unsliced.  Otherwise it runs in slices of
    ``checkpoint_every`` instructions (:data:`WATCHDOG_SLICE` without
    one); at each safe point the interrupt and the watchdog are polled
    and, with ``checkpoint_every``, a checkpoint is sealed onto
    ``chain``.
    """
    outcome = io.outcome
    if checkpoint_every is None and watchdog is None and interrupt is None:
        slice_n = None
    else:
        slice_n = checkpoint_every or WATCHDOG_SLICE
    with executing(outcome, cpu):
        while True:
            if interrupt is not None:
                interrupt(cpu)
            if watchdog is not None:
                reason = watchdog.exceeded(cpu)
                if reason is not None:
                    if checkpoint_every is not None:
                        take_checkpoint(boot, cpu, io, outcome, chain,
                                        checkpoint_sink)
                    boot.audit.record("watchdog_expired",
                                      reason=reason, steps=cpu.steps)
                    raise DeadlineExceeded(reason, chain.blobs)
            cpu.run(max_steps=max_steps, slice_steps=slice_n)
            if cpu.halted:
                boot.enclave.hw_aex_count += cpu.aex_events
                break
            if checkpoint_every is not None:
                take_checkpoint(boot, cpu, io, outcome, chain,
                                checkpoint_sink)
    outcome.jit_stats = cpu.jit_stats()
    return boot._finish_run(outcome)
