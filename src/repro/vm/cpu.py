"""The DX86 interpreter.

Fetch goes through the enclave page table (execute permission), data
accesses go through load/store permission checks, and an optional AEX
schedule interrupts execution — dumping the register file into the SSA
exactly like the hardware the HyperRace instrumentation (P6) relies on.

Two execution engines share one architectural contract:

* the **single-step engine** (``executor="step"``) decodes and retires
  one instruction per loop iteration, paying a dict lookup and an AEX
  countdown tick for every retired instruction.  Decoded instructions
  are cached per address; any store into the watched code range bumps
  ``AddressSpace.code_version`` and flushes the cache, so self-modifying
  code (what P4 forbids) behaves architecturally.
* the **superblock-translating engine** (``executor="translate"``, the
  default) fuses each straight-line region into one specialized Python
  closure (see :mod:`repro.vm.translate`) and moves the per-instruction
  overheads to per-block: the AEX countdown is debited once per block,
  flags are kept lazy, and code-range stores invalidate only the
  overlapping blocks through a write hook.  Any event that would land
  *inside* a block (AEX, ``slice_steps`` boundary, step limit, an
  untranslatable leader) is replayed through the single-step engine so
  SSA dumps, faults and pauses expose the exact architectural
  mid-block state.

Both engines produce bit-identical :class:`ExecResult`\\ s — the
single-step path stays as the differential oracle for the translator.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..errors import CpuFault, PolicyViolation
from ..isa.encoding import decode_instruction
from ..isa.instructions import Op
from ..sgx.memory import AddressSpace
from .costmodel import CostModel
from .interrupts import AexSchedule, AexTimer
from .translate import CHAIN_DEPTH, COLD_RUNS, MAX_TRACE_INSTRS, \
    BlockCache, materialize_flags, pack_flags

_U64 = (1 << 64) - 1
_SIGN = 1 << 63

RDI_ARG, RSI_ARG, RDX_ARG, RCX_ARG = 7, 6, 2, 1  # SVC argument registers


def to_signed(value: int) -> int:
    return value - (1 << 64) if value & _SIGN else value


@dataclass
class ExecResult:
    """Outcome of a completed (halted) execution."""

    steps: int
    cycles: float
    rip: int
    aex_events: int
    return_value: int


@dataclass(frozen=True)
class CpuState:
    """Complete architectural + accounting state at a safe point.

    Captured by :meth:`CPU.snapshot` only *between* ``run`` calls —
    superblock boundaries on the translating executor, instruction
    boundaries on the step engine — where the locals of the dispatch
    loops have been written back and flags are materialized.  Restoring
    it into a freshly built CPU over identical memory resumes execution
    bit-identically, including the seeded AEX schedule (the Mersenne
    Twister state rides along so post-resume interrupt arrivals match
    the uninterrupted run).
    """

    regs: tuple                 # 16 x u64
    rip: int
    f_eq: bool
    f_lt_s: bool
    f_lt_u: bool
    steps: int
    cycles: float
    aex_events: int
    epc_faults: int
    halted: bool
    #: EPC residency in LRU order (oldest first) and the ever-loaded
    #: set; both ``None`` when the cost model has no EPC cap.
    epc_resident: tuple = None
    epc_ever: frozenset = None
    #: Instructions left until the next AEX fires.
    aex_countdown: int = 0
    #: ``random.Random.getstate()`` of the schedule's RNG (None when
    #: AEX injection is disabled).
    aex_rng_state: tuple = None


class CPU:
    """One hardware thread executing inside the enclave."""

    def __init__(self, space: AddressSpace, entry: int,
                 cost_model: CostModel = None,
                 aex_schedule: AexSchedule = None,
                 svc_handler=None,
                 initial_rsp: int = 0,
                 ssa_addr: int = 0,
                 hot_range=(0, 0),
                 executor: str = None,
                 branch_targets=None,
                 flag_kill=None):
        self.space = space
        self.entry = entry
        self.regs = [0] * 16
        self.rip = entry
        self.regs[4] = initial_rsp  # RSP
        self.f_eq = False
        self.f_lt_s = False
        self.f_lt_u = False
        self.cost_model = cost_model or CostModel()
        self.aex_schedule = aex_schedule or AexSchedule.disabled()
        self.svc_handler = svc_handler
        self.ssa_addr = ssa_addr
        #: [lo, hi) of the loader's hot cells (shadow stack, marker,
        #: branch map): memory ops there cost ``hot_mem_cost``.
        self.hot_range = hot_range
        #: Verifier-trusted indirect-branch targets (absolute; the P5
        #: branch-target list) — gates inline-cache fills for JMP_R and
        #: CALL_R sites.  None when no loader metadata is available.
        self.branch_targets = branch_targets
        #: Leaders whose flags are dead on entry per the verified RDD
        #: liveness pass (absolute addresses); extra veto on the
        #: translator's block-local kill-clean analysis.
        self.flag_kill = flag_kill
        self.executor = executor or self.cost_model.executor
        if self.executor not in ("translate", "step"):
            raise ValueError(f"unknown executor {self.executor!r}")
        #: Compile every translatable block on first dispatch instead
        #: of after the cold-run threshold.  Off by default: cold
        #: first-run latency suffers (single-shot traces pay full
        #: codegen for one execution).  Steady-state warm-up flips it
        #: on for the untimed priming run so the block cache reaches a
        #: fixed point in one pass — under AEX schedules the lazy
        #: threshold otherwise keeps crossing on stubs born at
        #: interrupt-resume rips for dozens of runs.
        self.jit_eager = False
        self.steps = 0
        self.cycles = 0.0
        self.aex_events = 0
        #: EPC paging-model state (see CostModel.epc_pages)
        self.epc_faults = 0
        self._epc_resident = None
        self._epc_ever = None
        if self.cost_model.epc_pages:
            from collections import OrderedDict
            self._epc_resident = OrderedDict()
            self._epc_ever = set()
        self._halted = False
        self._icache = {}
        self._icache_version = space.code_version
        self._aex_timer = AexTimer(self.aex_schedule)
        #: Superblock cache (translating executor); built lazily.
        self._blocks = None
        #: (block, instr index, chain-predecessor retires, cycles, fk,
        #: fa, fb) recorded by a translated block's exception hook so
        #: the dispatch loop can reconstruct the architectural fault
        #: state (first-wins across chained frames).
        self._cf = None

    # -- helpers -----------------------------------------------------------

    def _mem_addr(self, mem) -> int:
        addr = mem.disp
        if mem.base is not None:
            addr += self.regs[mem.base]
        if mem.index is not None:
            addr += self.regs[mem.index] * mem.scale
        return addr & _U64

    def _epc_touch(self, address: int) -> float:
        """EPC paging model: touch a page, return the cycle cost.

        Shared by both executors and the stack helpers so every path
        accounts residency identically."""
        page = address >> 12
        resident = self._epc_resident
        if page in resident:
            resident.move_to_end(page)
            return 0.0
        if len(resident) >= self.cost_model.epc_pages:
            resident.popitem(last=False)   # evict LRU (EWB)
        resident[page] = None
        if page in self._epc_ever:
            self.epc_faults += 1
            return self.cost_model.epc_paging_cost  # reload (ELDU)
        self._epc_ever.add(page)           # first touch: EADD'd at
        return 0.0                         # load, free here

    def _stack_push(self, value: int) -> float:
        """Shared stack-store path (inline PUSH/CALL and the public
        :meth:`push` both go through here).  Returns the EPC cycle
        delta so hot loops can keep ``cycles`` in a local."""
        regs = self.regs
        rsp = (regs[4] - 8) & _U64
        regs[4] = rsp
        delta = self._epc_touch(rsp) if self._epc_resident is not None \
            else 0.0
        self.space.store_u64(rsp, value)
        return delta

    def _stack_pop(self):
        """Shared stack-load path; returns ``(epc delta, value)``."""
        regs = self.regs
        rsp = regs[4]
        delta = self._epc_touch(rsp) if self._epc_resident is not None \
            else 0.0
        value = self.space.load_u64(rsp)
        regs[4] = (rsp + 8) & _U64
        return delta, value

    def push(self, value: int) -> None:
        self.cycles += self._stack_push(value)

    def pop(self) -> int:
        delta, value = self._stack_pop()
        self.cycles += delta
        return value

    def _set_closure_fault(self, block, index, ns, cycles,
                           fk, fa, fb) -> None:
        """Exception hook called by translated blocks before re-raising.

        First-wins: with chained blocks the exception unwinds through
        every frame of the chain and each one calls this hook — only
        the innermost (the faulting block) carries the architectural
        fault state.  Returns True to that innermost frame, telling it
        to flush its localized registers back to the shared ``regs``
        list (outer frames must NOT flush: their locals are stale
        copies from before they invoked the successor)."""
        if self._cf is None:
            self._cf = (block, index, ns, cycles, fk, fa, fb)
            return True
        return False

    def _do_aex(self) -> None:
        """Asynchronous exit: dump thread context into the SSA.

        Uses the privileged write path — hardware is not subject to page
        permissions — and clobbers whatever software (the P6 marker!)
        stored there.
        """
        if self.ssa_addr:
            frame = struct.pack("<16Q", *self.regs) + \
                struct.pack("<QQ", self.rip,
                            (self.f_eq << 0) | (self.f_lt_s << 1) |
                            (self.f_lt_u << 2))
            self.space.write_raw(self.ssa_addr, frame)
        self.aex_events += 1
        self.cycles += self.cost_model.aex_cost
        self._aex_timer.rearm()

    # -- decode ------------------------------------------------------------

    def _decode(self, rip: int):
        if not self.space.in_enclave(rip):
            raise CpuFault(f"fetch outside ELRANGE at {rip:#x}")
        view = self.space.enclave_view()
        try:
            instr, length = decode_instruction(
                view, rip - self.space.enclave_base)
        except Exception as exc:
            raise CpuFault(f"undecodable at {rip:#x}: {exc}") from exc
        self.space.check_exec(rip, length)
        entry = (instr.op, instr.operands, length,
                 self.cost_model.cost_of(instr.op))
        self._icache[rip] = entry
        return entry

    @property
    def halted(self) -> bool:
        return self._halted

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> CpuState:
        """Capture the full architectural + accounting state.

        Only valid at a safe point: between :meth:`run` calls (the
        ``finally`` blocks of both engines write the loop locals back
        and materialize lazy flags), never from inside an SVC handler
        or translated block.
        """
        schedule = self.aex_schedule
        return CpuState(
            regs=tuple(self.regs),
            rip=self.rip,
            f_eq=self.f_eq,
            f_lt_s=self.f_lt_s,
            f_lt_u=self.f_lt_u,
            steps=self.steps,
            cycles=self.cycles,
            aex_events=self.aex_events,
            epc_faults=self.epc_faults,
            halted=self._halted,
            epc_resident=(tuple(self._epc_resident)
                          if self._epc_resident is not None else None),
            epc_ever=(frozenset(self._epc_ever)
                      if self._epc_ever is not None else None),
            aex_countdown=self._aex_timer.countdown,
            aex_rng_state=(schedule._rng.getstate()
                           if schedule.enabled else None),
        )

    def restore(self, state: CpuState) -> None:
        """Adopt a snapshot taken by an identically configured CPU.

        The memory image must already hold the bytes it held at
        snapshot time (the bootstrap re-provisions and replays page
        deltas first); this call only rewrites CPU-side state.  The
        AEX RNG state is installed *after* the timer was built, because
        ``AexTimer.__init__`` itself draws from the schedule.
        """
        self.regs[:] = state.regs
        self.rip = state.rip
        self.f_eq = state.f_eq
        self.f_lt_s = state.f_lt_s
        self.f_lt_u = state.f_lt_u
        self.steps = state.steps
        self.cycles = state.cycles
        self.aex_events = state.aex_events
        self.epc_faults = state.epc_faults
        self._halted = state.halted
        if state.epc_resident is not None:
            from collections import OrderedDict
            self._epc_resident = OrderedDict(
                (page, None) for page in state.epc_resident)
            self._epc_ever = set(state.epc_ever)
        if state.aex_rng_state is not None:
            self.aex_schedule._rng.setstate(state.aex_rng_state)
        self._aex_timer.countdown = state.aex_countdown
        # Decoded-instruction and block caches are rebuilt lazily; drop
        # anything a previous life of this CPU object may have cached.
        self._icache.clear()
        self._icache_version = self.space.code_version
        self._blocks = None
        self._cf = None

    def reset_for_run(self, aex_schedule: AexSchedule = None,
                      svc_handler=None, initial_rsp: int = 0) -> None:
        """Rewind architectural state to power-on, keeping the JIT.

        The opposite trade-off from :meth:`restore`: checkpoints adopt
        *mid-run* state and rebuild caches, this rewinds to the *entry*
        state and deliberately keeps the translated-block cache and
        decoded-instruction cache warm.  It exists for steady-state
        benchmarking — a warm-up run populates and chains the block
        cache, the bootstrap restores the memory image, and the timed
        run then measures pure execution with zero compile or cold-run
        cost.  The AEX jitter stream is rewound too, so the timed run
        sees the exact interrupt arrivals of a cold run and stays
        bit-comparable with the single-step oracle.
        """
        self.regs[:] = [0] * 16
        self.regs[4] = initial_rsp
        self.rip = self.entry
        self.f_eq = self.f_lt_s = self.f_lt_u = False
        self.steps = 0
        self.cycles = 0.0
        self.aex_events = 0
        self.epc_faults = 0
        if self._epc_resident is not None:
            self._epc_resident.clear()
            self._epc_ever.clear()
        self._halted = False
        self._cf = None
        self.aex_schedule = aex_schedule or AexSchedule.disabled()
        self.aex_schedule.reset()
        self._aex_timer = AexTimer(self.aex_schedule)
        if svc_handler is not None:
            self.svc_handler = svc_handler
        cache = self._blocks
        if cache is not None:
            # Dynamic counters describe the measured run; the compiled
            # blocks, chain edges and inline caches stay — that warm
            # structure is what the reset exists to preserve.
            cache.cstat[0] = cache.cstat[1] = 0
            cache.disp_calls = 0

    # -- execution -----------------------------------------------------------

    def run(self, max_steps: int = 200_000_000,
            slice_steps: int = None) -> ExecResult:
        """Run until HLT.  Raises on faults and policy traps.

        ``slice_steps`` bounds *this call*: execution pauses (without
        error) after that many instructions so a scheduler can
        interleave threads; check :attr:`halted` to see whether the
        thread finished or merely yielded.
        """
        if self.executor == "translate":
            return self._run_translated(max_steps, slice_steps)
        return self._run_step(max_steps, slice_steps)

    # -- translating engine --------------------------------------------------

    def _run_translated(self, max_steps: int,
                        slice_steps: int = None) -> ExecResult:
        """Superblock dispatch loop.

        Looks up (translating on miss) the block at ``rip`` and runs its
        fused closure whenever the whole block fits before the next
        event — AEX countdown, ``slice_steps`` boundary, step limit.
        A cold stub, or a compiled block an event would land inside,
        is replayed for its length (one instruction for an
        untranslatable leader) through the oracle engine instead,
        which keeps the exact architectural semantics (SSA dumps land
        on mid-block state, faults carry the faulting ``rip``, slices
        pause on exact boundaries).
        """
        cache = self._blocks
        if cache is None:
            cache = self._blocks = BlockCache(self)
        regs = self.regs
        steps = self.steps
        cycles = self.cycles
        rip = self.rip
        fk = 0
        fa = pack_flags(self.f_eq, self.f_lt_s, self.f_lt_u)
        fb = 0
        timer = self._aex_timer
        aex_enabled = timer.enabled
        slice_limit = None if slice_steps is None else steps + slice_steps
        budget = max_steps if slice_limit is None \
            else min(max_steps, slice_limit)
        self._halted = False
        self._cf = None
        cache.abort = False
        cache.ic_miss = None
        blocks = cache.blocks
        blocks_get = blocks.get
        move_to_end = blocks.move_to_end
        translate = cache.translate
        chain_depth = CHAIN_DEPTH if cache.chain_on else 0
        cold_runs = 0 if self.jit_eager else COLD_RUNS
        # A trace longer than the slice could never fit its headroom.
        trace_cap = MAX_TRACE_INSTRS if slice_steps is None \
            else min(MAX_TRACE_INSTRS, slice_steps)
        disp = 0
        try:
            while True:
                if steps >= max_steps:
                    raise CpuFault(f"step limit {max_steps} exceeded "
                                   f"at rip={rip:#x}")
                if slice_limit is not None and steps >= slice_limit:
                    break
                chunk = 1
                block = blocks_get(rip)
                if block is None:
                    block = translate(rip)
                else:
                    move_to_end(rip)   # LRU refresh
                if block is not None:
                    fn = block.fn
                    if fn is None and block.warm >= cold_runs:
                        fn = cache.compile_block(block, trace_cap)
                    # Read after compile_block: promotion to a trace
                    # changes the block's length.
                    n = block.n
                    if fn is not None:
                        # Headroom: instructions this invocation (the
                        # block plus any chained successors) may retire
                        # before the next event boundary.
                        hd = budget - steps
                        if aex_enabled:
                            c = timer.countdown - 1
                            if c < hd:
                                hd = c
                        if n <= hd:
                            cache.current = block
                            disp += 1
                            try:
                                (rip, fk, fa, fb, cycles,
                                 kind, aux, nexec) = fn(
                                    regs, fk, fa, fb, cycles,
                                    hd, 0, chain_depth)
                            except BaseException:
                                state = self._cf
                                if state is not None:
                                    (fblk, index, fns, cycles,
                                     fk, fa, fb) = state
                                    self._cf = None
                                    steps += fns + index + 1
                                    rip = fblk.rips[index]
                                    if aex_enabled:
                                        timer.debit(fns + index + 1)
                                raise
                            steps += nexec
                            if aex_enabled:
                                timer.debit(nexec)
                            if cache.ic_miss is not None:
                                cache.fill_ic()
                            if kind == 0:      # plain control transfer
                                continue
                            if kind == 2:      # HLT
                                self._halted = True
                                break
                            # kind == 1: SVC escape (rip holds the
                            # return address; the chain may have ended
                            # in any block, so the SVC's own address
                            # comes from cache.svc_rip)
                            if self.svc_handler is None:
                                rip = cache.svc_rip
                                raise CpuFault(f"SVC {aux:#x} with no "
                                               f"handler at {rip:#x}")
                            self.rip = rip
                            self.steps = steps
                            self.cycles = cycles
                            self.f_eq, self.f_lt_s, self.f_lt_u = \
                                materialize_flags(fk, fa, fb)
                            self.svc_handler(self, aux)
                            rip = self.rip
                            cycles = self.cycles
                            fk = 0
                            fa = pack_flags(self.f_eq, self.f_lt_s,
                                            self.f_lt_u)
                            fb = 0
                            continue
                        # Event horizon inside the block (AEX, slice or
                        # step-limit boundary): replay it like a stub.
                    else:
                        block.warm += 1
                    # Replay the whole block through the oracle,
                    # clamped to the slice boundary; the oracle fires
                    # AEXes and faults architecturally at any point
                    # inside it.
                    chunk = n
                    if slice_limit is not None \
                            and steps + chunk > slice_limit:
                        chunk = slice_limit - steps
                # Untranslatable leader, cold stub, or an event landing
                # inside the block: replay ``chunk`` instructions
                # through the single-step oracle.
                self.rip = rip
                self.steps = steps
                self.cycles = cycles
                self.f_eq, self.f_lt_s, self.f_lt_u = \
                    materialize_flags(fk, fa, fb)
                cache.current = None
                try:
                    self._run_step(max_steps, chunk)
                finally:
                    # On a fault the oracle's own finally wrote the
                    # architectural fault state back to self; re-sync
                    # the locals so the outer finally preserves it.
                    rip = self.rip
                    steps = self.steps
                    cycles = self.cycles
                    fk = 0
                    fa = pack_flags(self.f_eq, self.f_lt_s, self.f_lt_u)
                    fb = 0
                if self._halted:
                    break
        finally:
            cache.disp_calls += disp
            self.rip = rip
            self.steps = steps
            self.cycles = cycles
            self.f_eq, self.f_lt_s, self.f_lt_u = \
                materialize_flags(fk, fa, fb)
        return ExecResult(steps, cycles, rip, self.aex_events,
                          regs[0])

    def jit_stats(self):
        """Counter snapshot of the translating executor's block cache
        (None when it never ran): compile/dispatch/chain/IC/invalidation
        counters plus the mean instructions retired per dispatch-loop
        closure entry — the direct measure of how much interpreter-exit
        tax chaining removed."""
        cache = self._blocks
        if cache is None:
            return None
        stats = cache.stats()
        disp = stats["dispatch_calls"]
        stats["steps"] = self.steps
        stats["mean_instrs_per_dispatch"] = \
            round(self.steps / disp, 2) if disp else 0.0
        return stats

    # -- single-step engine (the differential oracle) ------------------------

    def _run_step(self, max_steps: int,
                  slice_steps: int = None) -> ExecResult:
        """Legacy one-instruction-at-a-time interpreter.

        The loop keeps the hottest state (registers, decoded-instruction
        cache, accumulators) in locals and writes it back around every
        escape point (SVC, AEX, fault), trading repetition for
        interpreter throughput.
        """
        regs = self.regs
        space = self.space
        load_u64 = space.load_u64
        store_u64 = space.store_u64
        load_u8 = space.load_u8
        store_u8 = space.store_u8
        timer = self._aex_timer
        aex_enabled = timer.enabled
        hot_lo, hot_hi = self.hot_range
        hot_cost = self.cost_model.hot_mem_cost
        epc_resident = self._epc_resident
        epc_touch = self._epc_touch
        stack_push = self._stack_push
        stack_pop = self._stack_pop
        icache = self._icache
        steps = self.steps
        cycles = self.cycles
        rip = self.rip
        f_eq = self.f_eq
        f_lt_s = self.f_lt_s
        f_lt_u = self.f_lt_u
        self._halted = False
        slice_limit = None if slice_steps is None else steps + slice_steps

        try:
            while True:
                if steps >= max_steps:
                    raise CpuFault(f"step limit {max_steps} exceeded "
                                   f"at rip={rip:#x}")
                if slice_limit is not None and steps >= slice_limit:
                    break
                if aex_enabled:
                    if timer.tick():
                        self.rip = rip
                        self.cycles = cycles
                        self.f_eq, self.f_lt_s, self.f_lt_u = \
                            f_eq, f_lt_s, f_lt_u
                        self._do_aex()
                        cycles = self.cycles
                if space.code_version != self._icache_version:
                    icache.clear()
                    self._icache_version = space.code_version
                entry = icache.get(rip)
                if entry is None:
                    entry = self._decode(rip)
                op, ops, length, cost = entry
                steps += 1
                cycles += cost
                next_rip = rip + length

                if op == Op.MOV_RM:
                    mem = ops[1]
                    addr = mem.disp
                    if mem.base is not None:
                        addr += regs[mem.base]
                    if mem.index is not None:
                        addr += regs[mem.index] * mem.scale
                    addr &= _U64
                    if hot_lo <= addr < hot_hi:
                        cycles += hot_cost - cost
                    elif epc_resident is not None:
                        cycles += epc_touch(addr)
                    regs[ops[0]] = load_u64(addr)
                elif op == Op.MOV_MR:
                    mem = ops[0]
                    addr = mem.disp
                    if mem.base is not None:
                        addr += regs[mem.base]
                    if mem.index is not None:
                        addr += regs[mem.index] * mem.scale
                    addr &= _U64
                    if hot_lo <= addr < hot_hi:
                        cycles += hot_cost - cost
                    elif epc_resident is not None:
                        cycles += epc_touch(addr)
                    store_u64(addr, regs[ops[1]])
                elif op == Op.MOV_RR:
                    regs[ops[0]] = regs[ops[1]]
                elif op == Op.MOV_RI:
                    regs[ops[0]] = ops[1]
                elif op == Op.MOV_MI:
                    mem = ops[0]
                    addr = mem.disp
                    if mem.base is not None:
                        addr += regs[mem.base]
                    if mem.index is not None:
                        addr += regs[mem.index] * mem.scale
                    addr &= _U64
                    if hot_lo <= addr < hot_hi:
                        cycles += hot_cost - cost
                    elif epc_resident is not None:
                        cycles += epc_touch(addr)
                    store_u64(addr, ops[1] & _U64)
                elif op == Op.LEA:
                    mem = ops[1]
                    addr = mem.disp
                    if mem.base is not None:
                        addr += regs[mem.base]
                    if mem.index is not None:
                        addr += regs[mem.index] * mem.scale
                    regs[ops[0]] = addr & _U64
                elif op == Op.LDB:
                    mem = ops[1]
                    addr = mem.disp
                    if mem.base is not None:
                        addr += regs[mem.base]
                    if mem.index is not None:
                        addr += regs[mem.index] * mem.scale
                    addr &= _U64
                    if hot_lo <= addr < hot_hi:
                        cycles += hot_cost - cost
                    elif epc_resident is not None:
                        cycles += epc_touch(addr)
                    regs[ops[0]] = load_u8(addr)
                elif op == Op.STB:
                    mem = ops[0]
                    addr = mem.disp
                    if mem.base is not None:
                        addr += regs[mem.base]
                    if mem.index is not None:
                        addr += regs[mem.index] * mem.scale
                    addr &= _U64
                    if hot_lo <= addr < hot_hi:
                        cycles += hot_cost - cost
                    elif epc_resident is not None:
                        cycles += epc_touch(addr)
                    store_u8(addr, regs[ops[1]])
                elif op == Op.ADD_RR:
                    regs[ops[0]] = (regs[ops[0]] + regs[ops[1]]) & _U64
                elif op == Op.ADD_RI:
                    regs[ops[0]] = (regs[ops[0]] + ops[1]) & _U64
                elif op == Op.SUB_RR:
                    regs[ops[0]] = (regs[ops[0]] - regs[ops[1]]) & _U64
                elif op == Op.SUB_RI:
                    regs[ops[0]] = (regs[ops[0]] - ops[1]) & _U64
                elif op == Op.IMUL_RR:
                    a = regs[ops[0]]
                    b = regs[ops[1]]
                    if a & _SIGN:
                        a -= 1 << 64
                    if b & _SIGN:
                        b -= 1 << 64
                    regs[ops[0]] = (a * b) & _U64
                elif op == Op.IMUL_RI:
                    a = regs[ops[0]]
                    if a & _SIGN:
                        a -= 1 << 64
                    regs[ops[0]] = (a * ops[1]) & _U64
                elif op == Op.AND_RR:
                    regs[ops[0]] &= regs[ops[1]]
                elif op == Op.AND_RI:
                    regs[ops[0]] &= ops[1] & _U64
                elif op == Op.OR_RR:
                    regs[ops[0]] |= regs[ops[1]]
                elif op == Op.OR_RI:
                    regs[ops[0]] |= ops[1] & _U64
                elif op == Op.XOR_RR:
                    regs[ops[0]] ^= regs[ops[1]]
                elif op == Op.XOR_RI:
                    regs[ops[0]] ^= ops[1] & _U64
                elif op == Op.SHL_RR:
                    regs[ops[0]] = (regs[ops[0]]
                                    << (regs[ops[1]] & 63)) & _U64
                elif op == Op.SHL_RI:
                    regs[ops[0]] = (regs[ops[0]] << (ops[1] & 63)) & _U64
                elif op == Op.SHR_RR:
                    regs[ops[0]] >>= (regs[ops[1]] & 63)
                elif op == Op.SHR_RI:
                    regs[ops[0]] >>= (ops[1] & 63)
                elif op == Op.SAR_RR:
                    a = regs[ops[0]]
                    if a & _SIGN:
                        a -= 1 << 64
                    regs[ops[0]] = (a >> (regs[ops[1]] & 63)) & _U64
                elif op == Op.SAR_RI:
                    a = regs[ops[0]]
                    if a & _SIGN:
                        a -= 1 << 64
                    regs[ops[0]] = (a >> (ops[1] & 63)) & _U64
                elif op == Op.DIV_RR or op == Op.DIV_RI or \
                        op == Op.MOD_RR or op == Op.MOD_RI:
                    a = regs[ops[0]]
                    if a & _SIGN:
                        a -= 1 << 64
                    if op == Op.DIV_RR or op == Op.MOD_RR:
                        b = regs[ops[1]]
                        if b & _SIGN:
                            b -= 1 << 64
                    else:
                        b = ops[1]
                    if b == 0:
                        raise CpuFault(f"division by zero at {rip:#x}")
                    q = abs(a) // abs(b)
                    if (a < 0) != (b < 0):
                        q = -q
                    if op == Op.DIV_RR or op == Op.DIV_RI:
                        regs[ops[0]] = q & _U64
                    else:
                        regs[ops[0]] = (a - q * b) & _U64
                elif op == Op.NEG:
                    regs[ops[0]] = (-regs[ops[0]]) & _U64
                elif op == Op.NOT:
                    regs[ops[0]] = (~regs[ops[0]]) & _U64
                elif op == Op.CMP_RR:
                    a = regs[ops[0]]
                    b = regs[ops[1]]
                    f_eq = a == b
                    f_lt_u = a < b
                    if a & _SIGN:
                        a -= 1 << 64
                    if b & _SIGN:
                        b -= 1 << 64
                    f_lt_s = a < b
                elif op == Op.CMP_RI:
                    a = regs[ops[0]]
                    b = ops[1]
                    bu = b & _U64
                    f_eq = a == bu
                    f_lt_u = a < bu
                    if a & _SIGN:
                        a -= 1 << 64
                    f_lt_s = a < b
                elif op == Op.TEST_RR:
                    masked = regs[ops[0]] & regs[ops[1]]
                    f_eq = masked == 0
                    f_lt_s = bool(masked & _SIGN)
                    f_lt_u = False
                elif op == Op.JMP:
                    next_rip += ops[0]
                elif op == Op.JMP_R:
                    next_rip = regs[ops[0]]
                elif op == Op.JE:
                    if f_eq:
                        next_rip += ops[0]
                elif op == Op.JNE:
                    if not f_eq:
                        next_rip += ops[0]
                elif op == Op.JL:
                    if f_lt_s:
                        next_rip += ops[0]
                elif op == Op.JLE:
                    if f_lt_s or f_eq:
                        next_rip += ops[0]
                elif op == Op.JG:
                    if not (f_lt_s or f_eq):
                        next_rip += ops[0]
                elif op == Op.JGE:
                    if not f_lt_s:
                        next_rip += ops[0]
                elif op == Op.JB:
                    if f_lt_u:
                        next_rip += ops[0]
                elif op == Op.JBE:
                    if f_lt_u or f_eq:
                        next_rip += ops[0]
                elif op == Op.JA:
                    if not (f_lt_u or f_eq):
                        next_rip += ops[0]
                elif op == Op.JAE:
                    if not f_lt_u:
                        next_rip += ops[0]
                elif op == Op.CALL:
                    cycles += stack_push(next_rip)
                    next_rip += ops[0]
                elif op == Op.CALL_R:
                    cycles += stack_push(next_rip)
                    next_rip = regs[ops[0]]
                elif op == Op.RET:
                    delta, next_rip = stack_pop()
                    cycles += delta
                elif op == Op.PUSH_R:
                    cycles += stack_push(regs[ops[0]])
                elif op == Op.PUSH_I:
                    cycles += stack_push(ops[0] & _U64)
                elif op == Op.POP_R:
                    delta, regs[ops[0]] = stack_pop()
                    cycles += delta
                elif op == Op.SVC:
                    if self.svc_handler is None:
                        raise CpuFault(f"SVC {ops[0]:#x} with no handler "
                                       f"at {rip:#x}")
                    # expose architectural state to the handler
                    self.rip = next_rip
                    self.steps = steps
                    self.cycles = cycles
                    self.f_eq, self.f_lt_s, self.f_lt_u = f_eq, f_lt_s, f_lt_u
                    self.svc_handler(self, ops[0])
                    next_rip = self.rip
                    cycles = self.cycles
                    f_eq, f_lt_s, f_lt_u = self.f_eq, self.f_lt_s, self.f_lt_u
                elif op == Op.NOP:
                    pass
                elif op == Op.HLT:
                    rip = next_rip
                    self._halted = True
                    break
                elif op == Op.TRAP:
                    raise PolicyViolation(ops[0], rip)
                else:  # pragma: no cover - decode guarantees known opcodes
                    raise CpuFault(f"unimplemented opcode {op:#x}")

                rip = next_rip & _U64
        finally:
            self.rip = rip
            self.steps = steps
            self.cycles = cycles
            self.f_eq, self.f_lt_s, self.f_lt_u = f_eq, f_lt_s, f_lt_u

        return ExecResult(steps, cycles, rip, self.aex_events,
                          regs[0])
