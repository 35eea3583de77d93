"""Superblock translator for the DX86 VM.

The single-step engine pays a dict lookup, an AEX countdown tick, a
code-version compare and a Python if/elif walk for *every* retired
instruction.  This module removes those per-instruction costs by fusing
each straight-line region (a *superblock*: leader up to and including
the first control transfer, ``SVC``, ``HLT`` or ``TRAP``) into one
specialized Python closure:

* operands, effective-address shapes, costs and branch targets are baked
  into the generated source, so the closure is pure register-file
  arithmetic plus the load/store calls;
* flags are *lazy* — ``CMP``/``TEST`` record their operands and a kind
  tag instead of computing ``f_eq``/``f_lt_s``/``f_lt_u``; conditional
  branches test predicates on the recorded operands directly, and the
  three architectural booleans are materialized only at escape points
  (SVC, AEX, run exit) via :func:`materialize_flags`;
* cycle accounting applies the per-instruction costs *in legacy
  retirement order* — float addition is not associative, so batching
  per-block sums would diverge from the single-step engine's bit-exact
  account;
* self-modifying code is handled by an invalidation hook registered on
  the :class:`~repro.sgx.memory.AddressSpace`: a store into the watched
  code range drops every overlapping block from the cache and, when the
  running block is among them, sets :attr:`BlockCache.abort` — generated
  code checks the flag after each store and returns early with the exact
  count of retired instructions, so execution resumes through a freshly
  translated block.

Every leader is first decoded as one basic block (a *stub*) that the
dispatch loop replays through the single-step oracle until it has been
visited :data:`COLD_RUNS` times; only then is it compiled.  Compiled
code keeps hot paths inside one closure:

* **lazy traces** — a stub turning hot is promoted to a *trace* before
  codegen: decoding restarts at the leader and follows direct JMPs,
  conditional fall-throughs and direct calls (with a compile-time
  return-address stack), up to :data:`MAX_TRACE_INSTRS` or the run's
  ``slice_steps``, whichever is smaller, and stopping at any leader
  that is already compiled (the exit returns there through the
  dispatch loop).  The block keeps its leader and cache slot and
  re-indexes the pages it now spans, so cold code never pays trace
  decode and no trace is longer than a slice can run;
* **native loops** — a block whose terminator jumps to its *own*
  leader compiles into a ``while 1:`` loop that re-checks the
  instruction headroom ``hd`` (the dispatch loop computes it from the
  step budget and the AEX countdown) before every iteration, so AEX
  timers, ``slice_steps`` safe points and checkpoint/watchdog
  boundaries fire at exactly the same instruction boundaries as the
  single-step engine;
* **register hoisting** — self-loop blocks keep every register they
  mention in Python locals for the duration of the loop.

Every other exit, to a fixed or an indirect target, returns the target
to the dispatch loop.  The generated closure receives the hot state and
returns the totals::

    (next_rip, fk, fa, fb, cycles, kind, aux, nexec) = \
        block.fn(regs, fk, fa, fb, cycles, hd)

``hd`` is the instruction headroom for the invocation (only native
loops consult it: the dispatch loop already checked that one pass
fits).  ``kind`` is 0 for a plain control transfer, 1 for an SVC
escape (``aux`` is the service number), 2 for HLT.  ``nexec`` is how
many instructions retired.  Faults raise through the closure; its
``except`` hook reports the faulting instruction index and the
in-flight accumulators to the CPU (``CPU._set_closure_fault``) and
writes localized registers back before re-raising.
"""

from __future__ import annotations

import struct
import sys
import weakref
from collections import OrderedDict

from ..errors import EncodingError, MemoryFault
from ..isa.encoding import decode_block
from ..isa.instructions import BLOCK_TERMINATORS, Op

_U64 = (1 << 64) - 1
_SIGN = 1 << 63
_STRUCT_Q = struct.Struct("<Q")

#: Generated code reads/writes aligned u64s through a native-order
#: memoryview cast over the enclave backing store; that is only the
#: architectural little-endian DX86 order on a little-endian host, so
#: big-endian hosts keep the explicit ``struct`` path.
_LITTLE = sys.byteorder == "little"

#: A stub (one basic block) stops after this many instructions even
#: without a terminator (bounds both codegen time and the AEX
#: fast-path window: the translating executor only runs a block when
#: the countdown exceeds its length).
MAX_BLOCK_INSTRS = 64

#: Traces may grow past the stub cap: tail duplication fuses through
#: mid-trace branches, so the loop backedge that lets ``_compile``
#: close a native ``while`` often sits well beyond 64 instructions
#: under annotation-heavy settings.  Still bounded so a pathological
#: straight-line region cannot make codegen quadratic; a run bounded
#: by ``slice_steps`` caps its traces at the slice.
MAX_TRACE_INSTRS = 256

#: Stub visits replayed through the single-step oracle before a block
#: is considered hot and fused (``Block.warm`` counts them).  Trace
#: decode plus codegen costs ~100x one oracle replay, so
#: straight-through init code and rarely-taken paths are never
#: compiled.
COLD_RUNS = 12

#: Process-wide template code cache: generated sources embed
#: their block-specific values (addresses, immediates, bounds, costs)
#: as default-argument *parameters* instead of literals, so every
#: structurally identical block — and annotated binaries repeat the
#: same guard/annotation shapes hundreds of times — maps to the same
#: source text and shares one compiled code object.  Keyed by source;
#: values are code objects (immutable, safe to share across enclaves:
#: all per-block state is bound per-``exec`` through the defaults).
_CODE_CACHE = {}
_CODE_CACHE_CAP = 8192


# -- lazy flag state --------------------------------------------------------
#
# (fk, fa, fb) encodes the flag register symbolically:
#   fk == 0: concrete     — fa packs f_eq | f_lt_s << 1 | f_lt_u << 2
#   fk == 1: pending CMP  — fa, fb are the unsigned operand values
#   fk == 2: pending TEST — fa is the masked value (a & b)

def pack_flags(f_eq, f_lt_s, f_lt_u) -> int:
    """Pack the three architectural booleans into a concrete fa word."""
    return (1 if f_eq else 0) | (2 if f_lt_s else 0) | (4 if f_lt_u else 0)


def materialize_flags(fk, fa, fb):
    """Collapse a lazy flag state to ``(f_eq, f_lt_s, f_lt_u)``."""
    if fk == 0:
        return bool(fa & 1), bool(fa & 2), bool(fa & 4)
    if fk == 1:
        # Signed compare via sign-bit flip: a <s b  iff  a^S <u b^S.
        return fa == fb, (fa ^ _SIGN) < (fb ^ _SIGN), fa < fb
    return fa == 0, bool(fa & _SIGN), False


#: Jcc predicate source on a pending CMP (fk == 1).
#: ``{sg}`` is the sign-bit expression (a literal, or the template
#: parameter holding it).
_CMP_PRED = {
    Op.JE: "fa == fb",
    Op.JNE: "fa != fb",
    Op.JB: "fa < fb",
    Op.JAE: "fa >= fb",
    Op.JBE: "fa <= fb",
    Op.JA: "fa > fb",
    Op.JL: "fa ^ {sg} < fb ^ {sg}",
    Op.JGE: "fa ^ {sg} >= fb ^ {sg}",
    Op.JLE: "fa ^ {sg} <= fb ^ {sg}",
    Op.JG: "fa ^ {sg} > fb ^ {sg}",
}

#: Jcc predicate source on a pending TEST (fk == 2).
_TEST_PRED = {
    Op.JE: "fa == 0",
    Op.JNE: "fa != 0",
    Op.JL: "fa & {sg}",
    Op.JGE: "not fa & {sg}",
    Op.JLE: "fa == 0 or fa & {sg}",
    Op.JG: "fa != 0 and not fa & {sg}",
    Op.JB: "False",
    Op.JAE: "True",
    Op.JBE: "fa == 0",
    Op.JA: "fa != 0",
}

#: Jcc predicate source on *concrete* packed flags (fk == 0): bit 1 is
#: f_eq, bit 2 f_lt_s, bit 4 f_lt_u.
_CONC_PRED = {
    Op.JE: "fa & 1",
    Op.JNE: "not fa & 1",
    Op.JL: "fa & 2",
    Op.JGE: "not fa & 2",
    Op.JLE: "fa & 3",
    Op.JG: "not fa & 3",
    Op.JB: "fa & 4",
    Op.JAE: "not fa & 4",
    Op.JBE: "fa & 5",
    Op.JA: "not fa & 5",
}

#: ``{d}`` is the destination *lvalue* (``regs[3]`` or a localized
#: ``r3``), ``{s}`` a source expression.
_ALU_RR = {
    Op.ADD_RR: "{d} = ({d} + {s}) & {m}",
    Op.SUB_RR: "{d} = ({d} - {s}) & {m}",
    Op.AND_RR: "{d} &= {s}",
    Op.OR_RR: "{d} |= {s}",
    Op.XOR_RR: "{d} ^= {s}",
    Op.SHL_RR: "{d} = ({d} << ({s} & 63)) & {m}",
    Op.SHR_RR: "{d} >>= {s} & 63",
    Op.SAR_RR: "{d} = ((({d} ^ {sg}) - {sg})"
               " >> ({s} & 63)) & {m}",
    Op.IMUL_RR: "{d} = ((({d} ^ {sg}) - {sg})"
                " * (({s} ^ {sg}) - {sg})) & {m}",
}

_SUPPORTED = frozenset(
    op for op in vars(Op).values() if isinstance(op, int))

#: Write effects for the trace-local constant folder: ops that write
#: their first operand with a value the folder does not model (it
#: models MOV_RI/MOV_RR/LEA exactly), ops that touch RSP implicitly,
#: and ops that write no register at all.  Anything outside all three
#: groups conservatively clears every tracked fact.
_CONST_KILL0 = frozenset({
    Op.MOV_RM, Op.LDB, Op.NEG, Op.NOT,
    Op.ADD_RI, Op.SUB_RI, Op.IMUL_RI, Op.AND_RI, Op.OR_RI,
    Op.XOR_RI, Op.SHL_RI, Op.SHR_RI, Op.SAR_RI,
    Op.DIV_RR, Op.DIV_RI, Op.MOD_RR, Op.MOD_RI,
}) | frozenset(_ALU_RR)
_CONST_STACK = frozenset({
    Op.PUSH_R, Op.PUSH_I, Op.POP_R, Op.CALL, Op.CALL_R, Op.RET,
})
_CONST_NEUTRAL = frozenset({
    Op.MOV_MR, Op.STB, Op.MOV_MI, Op.CMP_RR, Op.CMP_RI, Op.TEST_RR,
    Op.JMP, Op.JMP_R, Op.SVC, Op.NOP, Op.HLT, Op.TRAP,
}) | frozenset(_CMP_PRED)

def _reg_counts(items):
    """Mention count per register across a decoded block (reads and
    writes both count — each mention localization saves is one
    ``regs[..]`` subscript).  Implicit RSP traffic (PUSH/POP/CALL/RET)
    counts double: every such op reads and rewrites RSP."""
    counts = {}

    def add(reg, k=1):
        counts[reg] = counts.get(reg, 0) + k

    def mem(m):
        if m.base is not None:
            add(m.base)
        if m.index is not None:
            add(m.index)

    for _, instr, _ in items:
        op = instr.op
        ops = instr.operands
        if op in (Op.MOV_RM, Op.LDB):
            mem(ops[1])
            add(ops[0])
        elif op in (Op.MOV_MR, Op.STB):
            mem(ops[0])
            add(ops[1])
        elif op == Op.MOV_MI:
            mem(ops[0])
        elif op in (Op.MOV_RR, Op.LEA):
            if op == Op.LEA:
                mem(ops[1])
            else:
                add(ops[1])
            add(ops[0])
        elif op == Op.MOV_RI:
            add(ops[0])
        elif op in _ALU_RR or op in (Op.DIV_RR, Op.MOD_RR,
                                     Op.CMP_RR, Op.TEST_RR):
            add(ops[0], 2)
            add(ops[1])
        elif op in (Op.ADD_RI, Op.SUB_RI, Op.IMUL_RI, Op.AND_RI,
                    Op.OR_RI, Op.XOR_RI, Op.SHL_RI, Op.SHR_RI,
                    Op.SAR_RI, Op.DIV_RI, Op.MOD_RI, Op.NEG, Op.NOT):
            add(ops[0], 2)
        elif op == Op.CMP_RI:
            add(ops[0])
        elif op == Op.JMP_R:
            add(ops[0])
        elif op == Op.CALL_R:
            add(ops[0])
            add(4, 2)
        elif op in (Op.CALL, Op.RET, Op.PUSH_I, Op.POP_R):
            add(4, 2)
            if op == Op.POP_R:
                add(ops[0])
        elif op == Op.PUSH_R:
            add(ops[0])
            add(4, 2)
    return counts


class Block:
    """One leader's code: decoded as a basic-block stub, compiled only
    when hot.

    The first :data:`COLD_RUNS` visits execute the block as a *stub*
    (``fn is None``): the dispatch loop replays it through the
    single-step oracle and bumps :attr:`warm`.  The next visit pays the
    codegen (``BlockCache.compile_block``), which first promotes the
    stub to a trace — same leader, same cache slot, new
    items and page index.  This keeps trace decode and Python
    ``compile()`` cost off straight-through init code — only leaders
    re-reached enough times (loops, called functions) are fused."""

    __slots__ = ("start", "lo", "end", "n", "rips", "items", "warm",
                 "fn", "pages")

    def __init__(self, start):
        self.start = start
        #: Bounding address range of every byte the block decodes from
        #: (set with the items by ``BlockCache._install``).  For a
        #: basic block ``lo == start``; a trace that followed a
        #: backward JMP can span bytes *below* its leader.
        self.lo = self.end = start
        self.n = 0
        self.rips = []
        self.items = None
        self.warm = 0
        self.fn = None
        #: Page indices this block's bytes span (SMC invalidation index).
        self.pages = ()


class BlockCache:
    """Per-CPU cache of translated superblocks, keyed by leader address.

    Registers a weakref-based write hook on the CPU's address space so
    stores into the watched code range invalidate exactly the
    overlapping blocks (aborting the running block if it is among them);
    once the cache is garbage-collected the hook reports itself dead and
    is pruned.

    The cache is bounded: :attr:`capacity` (``CostModel.jit_block_cap``)
    blocks, evicted in LRU order — the dispatch loop refreshes a leader
    on every lookup, so pathological SMC workloads recycle slots instead
    of growing without bound.  :attr:`by_page` indexes blocks by the
    4 KiB pages they span, making invalidation O(pages touched)."""

    def __init__(self, cpu):
        self.cpu = cpu
        self.capacity = max(1, getattr(cpu.cost_model, "jit_block_cap",
                                       4096))
        self.blocks = OrderedDict()
        #: page index -> [Block] (blocks whose bytes touch that page).
        self.by_page = {}
        #: Block the dispatch loop last entered (the hook uses it to
        #: detect self-modification of the running block).
        self.current = None
        #: Set by the hook when a store invalidated the running block;
        #: generated code polls it after each slow-path store and bails
        #: out with the exact retire count.
        self.abort = False
        self.compiles = 0
        #: Promotions whose trace extended past the basic-block stub.
        self.traces = 0
        #: Blocks whose generated source hit the process-wide template
        #: code cache (no ``builtins.compile`` paid).
        self.template_hits = 0
        self.disp_calls = 0
        self.invalidations = 0
        self.evictions = 0
        self.hoisted = 0
        ref = weakref.ref(self)

        def _hook(addr, size):
            cache = ref()
            if cache is None:
                return False
            cache.invalidate(addr, size)
            return True

        cpu.space.add_code_write_hook(_hook)

    # -- bookkeeping -------------------------------------------------------

    def stats(self) -> dict:
        """JSON-ready counter snapshot (rides into ``BENCH_vm.json``
        through here)."""
        return {
            "blocks": len(self.blocks),
            "compiled": self.compiles,
            "traces": self.traces,
            "template_hits": self.template_hits,
            "dispatch_calls": self.disp_calls,
            "invalidated_blocks": self.invalidations,
            "evicted_blocks": self.evictions,
            "hoisted_regs": self.hoisted,
        }

    def _drop(self, block) -> None:
        """Unindex a dead block (callers already removed it from
        :attr:`blocks`)."""
        by_page = self.by_page
        for pg in block.pages:
            bucket = by_page.get(pg)
            if bucket is not None:
                try:
                    bucket.remove(block)
                except ValueError:
                    pass
                if not bucket:
                    del by_page[pg]

    def invalidate(self, addr, size) -> None:
        """Drop every block overlapping ``[addr, addr+size)``.

        O(pages touched) via :attr:`by_page`.  Sets :attr:`abort` when
        the store overlaps the running block's bounding range (a
        superset of its bytes, so an early return may be spurious but
        is always architecturally safe)."""
        hi = addr + size
        cur = self.current
        if cur is not None and cur.lo < hi and addr < cur.end:
            self.abort = True
        by_page = self.by_page
        if not by_page:
            return
        dead = []
        seen = set()
        for pg in range(addr >> 12, ((hi - 1) >> 12) + 1):
            bucket = by_page.get(pg)
            if not bucket:
                continue
            for b in bucket:
                if b.lo < hi and addr < b.end and id(b) not in seen:
                    seen.add(id(b))
                    dead.append(b)
        if not dead:
            return
        self.invalidations += len(dead)
        blocks = self.blocks
        for b in dead:
            if blocks.get(b.start) is b:
                del blocks[b.start]
            self._drop(b)

    def translate(self, rip):
        """Decode the basic block whose leader is ``rip`` into a stub;
        None if the leader itself is undecodable or non-executable (the
        dispatch loop then single-steps so the fault surfaces with
        legacy semantics).

        The stub holds at most :data:`MAX_BLOCK_INSTRS` instructions,
        stopping at the first terminator.  Most leaders never turn hot,
        so the trace is only formed when :meth:`compile_block` promotes
        the stub."""
        if not self.cpu.space.in_enclave(rip):
            return None
        items = self._decode(rip, MAX_BLOCK_INSTRS, False)
        if not items:
            return None
        block = Block(rip)
        self._install(block, items)
        blocks = self.blocks
        blocks[rip] = block
        while len(blocks) > self.capacity:
            _, old = blocks.popitem(last=False)
            self._drop(old)
            self.evictions += 1
        return block

    def _decode(self, rip, cap, trace):
        """Decode at most ``cap`` ``(addr, instr, length)`` items from
        ``rip``; a basic block unless ``trace`` is set.

        Traces use tail duplication: decoding follows direct
        unconditional JMPs (the JMP stays in the item list — it retires
        and is charged, but transfers no control) and the fall-through
        edge of conditional branches (the taken edge becomes a side
        exit), so a MiniC ``while`` loop — body with internal ifs,
        falling into a ``JMP`` back to a conditional header — becomes
        one block whose backedge targets its own leader and compiles to
        a native loop instead of one dispatch per iteration.
        Extension stops at the instruction cap, at any rip already in
        the trace (the branch then stays a terminator; a backedge to
        the leader itself is the loop case ``_compile`` recognizes),
        at a leader that is already compiled (the exit returns there
        through dispatch), and at undecodable or non-executable
        targets."""
        space = self.cpu.space
        base = space.enclave_base
        view = space.enclave_view()
        items = []
        seen = set()
        addr = rip
        # Compile-time return-address stack: extension walks through a
        # direct CALL into the callee and, at the matching RET, resumes
        # at the predicted return address — the whole call becomes one
        # trace with no transition at either end.  The prediction is
        # verified at run time (the RET item compiles to a guard on the
        # popped value), so a retargeted stack bails out correctly.
        ras = []
        while True:
            try:
                decoded = decode_block(view, addr - base,
                                       cap - len(items))
            except EncodingError:
                break
            clean = True
            for instr, length in decoded:
                if instr.op not in _SUPPORTED:
                    clean = False
                    break
                try:
                    space.check_exec(addr, length)
                except MemoryFault:
                    clean = False
                    break
                items.append((addr, instr, length))
                seen.add(addr)
                addr += length
            if not clean or not items or not trace or len(items) >= cap:
                break
            la, li, ll = items[-1]
            top = li.op
            if top == Op.JMP:
                nxt = (la + ll + li.operands[0]) & _U64
            elif top in _CMP_PRED:
                # Follow the fall-through; a taken edge that would
                # re-enter the trace is a loop backedge and must stay
                # a terminator so _compile can close the loop.
                if (la + ll + li.operands[0]) & _U64 in seen:
                    break
                nxt = (la + ll) & _U64
            elif top == Op.CALL:
                ras.append((la + ll) & _U64)
                nxt = (la + ll + li.operands[0]) & _U64
            elif top == Op.RET and ras:
                nxt = ras.pop()
            else:
                break
            if nxt in seen or not space.in_enclave(nxt):
                break
            # Exit into code that is already compiled rather than
            # duplicate it: under lazy promotion a loop's body leader
            # usually turns hot before its entry does.
            known = self.blocks.get(nxt)
            if known is not None and known.fn is not None:
                break
            addr = nxt
        return items

    def _install(self, block, items) -> None:
        """Give ``block`` the decoded ``items`` and (re-)index the
        pages they span, so a store into any of them drops it."""
        by_page = self.by_page
        for pg in block.pages:
            by_page[pg].remove(block)
            if not by_page[pg]:
                del by_page[pg]
        block.items = items
        block.rips = [a for a, _, _ in items]
        block.n = len(items)
        block.lo = min(block.rips)
        block.end = max(a + ln for a, _, ln in items)
        pages = {a >> 12 for a in block.rips}
        pages.update((a + ln - 1) >> 12 for a, _, ln in items)
        block.pages = tuple(sorted(pages))
        for pg in block.pages:
            by_page.setdefault(pg, []).append(block)

    # -- code generation ---------------------------------------------------

    def compile_block(self, block, cap=MAX_TRACE_INSTRS):
        """Generate and install the fused closure for a warm stub.

        The stub is first promoted to a trace of at most ``cap``
        instructions (the dispatch loop passes the slice length when
        one bounds the run: a longer trace could never fit its
        headroom).  A trace that extends past the stub replaces its
        items and page index; the leader and the cache slot stay."""
        if cap > block.n:
            items = self._decode(block.start, cap, True)
            if len(items) > block.n:
                self._install(block, items)
                self.traces += 1
        block.fn = self._compile(block.start, block.items)
        block.items = None
        self.compiles += 1
        return block.fn

    def _compile(self, start, items):
        cpu = self.cpu
        cm = cpu.cost_model
        hot_lo, hot_hi = cpu.hot_range
        hot_on = hot_lo < hot_hi
        epc_on = cpu._epc_resident is not None
        n = len(items)
        M = _U64
        S = _SIGN
        body = []
        #: Current structural indentation (grows inside guard regions).
        cur_ind = [""]

        def emit(line) -> None:
            body.append(cur_ind[0] + line)

        known = 0  # 0: entry flags (kind unknown), 1: CMP, 2: TEST

        # -- literal pool (template code cache) ----------------------------
        # Generated sources embed no block-specific values: every address,
        # immediate, bound, cost and message is hoisted into a ``K<i>``
        # default-argument parameter, named in first-use order.  Blocks
        # with the same *shape* (op sequence, register indices, scales)
        # then produce byte-identical source and share one compiled code
        # object via the process-wide ``_CODE_CACHE`` — annotated
        # binaries repeat guard shapes hundreds of times, and
        # ``builtins.compile`` dominates warmup cost.  Anything that
        # changes emission *structure* (loop shape, watch/EPC/hot
        # gating, localization) changes the source text itself, so
        # sharing is always sound.
        pool_names = {}
        pool_vals = {}

        def lit(v) -> str:
            key = (type(v).__name__, v)
            name = pool_names.get(key)
            if name is None:
                name = f"K{len(pool_names)}"
                pool_names[key] = name
                pool_vals[name] = v
            return name

        MM = lit(M)   # pinned first: the mask is in every block
        SG = lit(S)

        # -- pre-passes ----------------------------------------------------
        last_addr, last_instr, last_len = items[-1]
        term_op = last_instr.op
        # Two native-loop shapes.  Taken backedge: the terminator's
        # jump target is this leader (do-while, or a JMP self-loop).
        # Fall-through backedge: trace extension pulled a conditional
        # loop *header* to the end of the body trace, so the Jcc's
        # taken edge leaves the loop and its fall-through is the
        # leader (the dominant MiniC ``while``/``for`` shape).
        is_loop = loop_fall = False
        if (term_op in _CMP_PRED or term_op == Op.JMP) \
                and (last_addr + last_len + last_instr.operands[0]) \
                & M == start:
            is_loop = True
        elif term_op in _CMP_PRED and (last_addr + last_len) & M == start:
            is_loop = loop_fall = True

        # Internal forward guards.  A mid-trace Jcc whose taken target
        # is a *later* item of this same trace is an if-then diamond
        # (the shape every P1-P6 annotation compiles to: a hot guard
        # skipping its own slow path).  Instead of a side exit — which
        # would put a dispatch round trip on the hot path — the taken edge
        # skips the inner region natively: ``if pred: sk += c`` /
        # ``else: <inner items>``.  ``sk`` counts skipped instructions
        # at runtime so every retire account (``ns + k``), the fault
        # hook and the loop backedge report the path-exact count.
        # Guards must nest properly; a crossing branch is demoted to a
        # plain side exit.
        guards = {}
        rindex = {a: i for i, (a, _, _) in enumerate(items)}
        gstack = []
        for gk, (ga, gi, gl) in enumerate(items[:-1]):
            while gstack and gstack[-1] <= gk:
                gstack.pop()
            if gi.op in _CMP_PRED:
                gj = rindex.get((ga + gl + gi.operands[0]) & M)
                if gj is not None and gj > gk + 1 and \
                        (not gstack or gj <= gstack[-1]):
                    guards[gk] = gj
                    gstack.append(gj)
        sk_s = " - sk" if guards else ""

        # -- register localization -----------------------------------------
        # Registers mentioned twice or more live in Python locals for
        # the whole closure (loads/stores to the regs list collapse to
        # local variable traffic); every exit point and the exception
        # hook write them back before the dispatch loop reads regs.
        floor = 1 if is_loop else 2
        localized = sorted(r for r, c in _reg_counts(items).items()
                           if c >= floor)
        lset = frozenset(localized)
        if is_loop:
            self.hoisted += len(localized)

        def L(reg) -> str:
            """Lvalue/rvalue expression for a register."""
            return f"r{reg}" if reg in lset else f"regs[{reg}]"

        flush_regs = [f"regs[{r}] = r{r}" for r in localized]

        # -- deferred cycle accounting -------------------------------------
        # Float addition is non-associative, so the account must apply
        # the per-instruction costs in retirement order — but between
        # two *observable* points the intermediate sums are invisible,
        # so the generator accumulates cost expressions in ``pending``
        # and emits one left-associated ``cycles = cycles + a + b + ...``
        # statement per flush point (block exits and fault-capable
        # sites), which performs the identical float-op sequence.
        # Memory fast paths cannot fault, so even the hot/EPC
        # adjustment defers: it rides along as a conditional expression
        # on the (still-live) per-site address variable, and the
        # not-hot arm adds ``0.0`` — a bit-exact identity.  For faults
        # raised from slow paths, the ``except`` hook replays the
        # pending sum recorded for the faulting site (``snaps``), so
        # the reported account matches the step engine exactly.
        pending = []
        snaps = []

        def cyc(cost) -> None:
            pending.append(lit(cost))

        def snap(site) -> None:
            """Record the pending sum live at a fault site; the except
            handler replays it keyed on ``i_``."""
            if pending:
                snaps.append((site, " + ".join(pending)))

        def flush_cyc() -> None:
            if pending:
                emit("cycles = cycles + " + " + ".join(pending))
                del pending[:]

        def exit_seq(tail) -> list:
            """Writeback sequence ending in ``tail`` (a return)."""
            out = []
            if pending:
                out.append("cycles = cycles + " + " + ".join(pending))
                del pending[:]
            out += flush_regs
            out.append(tail)
            return out

        def peek_exit(tail) -> list:
            """Like :func:`exit_seq` but for a *conditional* early exit
            (SMC abort): the main path falls through and flushes later,
            so the compile-time pending state is left intact."""
            out = []
            if pending:
                out.append("cycles = cycles + " + " + ".join(pending))
            out += flush_regs
            out.append(tail)
            return out

        def mem_adjust(cost, av) -> None:
            """Deferred hot/EPC cost adjustment for the memory
            op whose effective address lives in ``av``."""
            if hot_on:
                d = lit(cm.hot_mem_cost - cost)
                if epc_on:
                    pending.append(
                        f"({d} if {lit(hot_lo)} <= {av} < {lit(hot_hi)}"
                        f" else epc_touch({av}))")
                else:
                    pending.append(
                        f"({d} if {lit(hot_lo)} <= {av} < {lit(hot_hi)}"
                        f" else 0.0)")
            elif epc_on:
                pending.append(f"epc_touch({av})")

        def mem_adjust_const(cost, addr) -> None:
            """:func:`mem_adjust` for a compile-time-constant address:
            the hot-range test folds to the literal it would have
            produced.  The cold-unpaged case appends nothing — adding
            its 0.0 is exact for the non-negative cycle account, so
            dropping the term is bit-invisible."""
            if hot_on and hot_lo <= addr < hot_hi:
                pending.append(lit(cm.hot_mem_cost - cost))
            elif epc_on:
                pending.append(f"epc_touch({lit(addr)})")

        # Instructions retired so far: ``ns`` counts the finished
        # iterations of a native loop (no other block needs it).
        ns_p = "ns + " if is_loop else ""

        def ret(rip_expr, kind=0, aux="0", nexec=n) -> str:
            return (f"return {rip_expr}, fk, fa, fb, cycles, "
                    f"{kind}, {aux}, {ns_p}{nexec}{sk_s}")

        def emit_seq(lines, indent="") -> None:
            for ln in lines:
                emit(indent + ln)

        def emit_exit(target, nexec=n, indent="") -> None:
            """Exit to a fixed address through the dispatch loop."""
            flush_cyc()
            emit_seq(flush_regs, indent)
            emit(indent + ret(lit(target), nexec=nexec))

        def addr_of(mem) -> str:
            parts = []
            if mem.base is not None:
                parts.append(L(mem.base))
            if mem.index is not None:
                parts.append(L(mem.index) if mem.scale == 1
                             else f"{L(mem.index)} * {mem.scale}")
            if not parts:
                return lit(mem.disp & M)
            if mem.disp:
                parts.append(lit(mem.disp))
            if len(parts) == 1:
                return f"{parts[0]} & {MM}"
            return "(" + " + ".join(parts) + f") & {MM}"

        #: Trace-local constant registers (reg -> masked value): seeded
        #: by MOV_RI, propagated by MOV_RR/LEA, killed by any other
        #: write.  Lets fixed-address traffic — MiniC globals and the
        #: annotations' SSA-marker slots are the bulk of it — fold the
        #: effective address, the bounds/alignment triage and the
        #: hot-range cost test at compile time.  Facts never cross a
        #: native-loop backedge (emission is one linear pass starting
        #: from an empty map) and guard joins keep only facts the taken
        #: path agrees on.  Values flow through the pooled-literal
        #: table, so template sharing survives the folding.
        const = {}

        def addr_val(mem):
            """Compile-time effective address of ``mem``, or None."""
            total = mem.disp
            if mem.base is not None:
                v = const.get(mem.base)
                if v is None:
                    return None
                total += v
            if mem.index is not None:
                v = const.get(mem.index)
                if v is None:
                    return None
                total += v * mem.scale
            return total & M

        # Specialized memory access: an in-enclave bounds + page-perm
        # fast path straight against the backing bytearray, with the
        # fully checked AddressSpace call as the fallback for faults,
        # untrusted memory, ELRANGE straddles and watched-code stores
        # (the fallback preserves exact legacy fault/versioning
        # semantics; the fast path is only taken when no check could
        # fire).  Base, size, perms and the code-watch range are baked
        # at translation time — an invalidation-triggering store never
        # takes the fast path, so re-translation picks up new code.
        # The fast path also carries no fault bookkeeping: ``i_`` and
        # the SMC abort poll live in the slow branch, which is the only
        # place they can matter.
        space = cpu.space
        ebase = space.enclave_base
        esize = space.enclave_size
        wlo, whi = space._code_watch
        EB = lit(ebase)
        E8 = lit(esize - 8)
        E1 = lit(esize)
        # Dirty-page tracking (checkpoint support) is baked at compile
        # time: fast-path stores bypass AddressSpace.store, so when
        # tracking is on they record the touched page themselves — one
        # set.add on the offset the store already computed.  The
        # fallback path (store_u64/store_u8) marks inside AddressSpace.
        dirty_on = space.dirty_tracking

        # On a little-endian host the fast path leans on the
        # AddressSpace's in-place-maintained per-page masks
        # (``_rpage``/``_wpage``) and its native-order u64 lane: one
        # byte index replaces the two page-perm lookups (aligned
        # accesses cannot straddle a 4 KiB page) and ``mq[o >> 3]``
        # replaces the struct call.  ``_wpage`` is already 0 on
        # watched-code pages, so fast-path stores skip the SMC compare
        # too.  Sound to bake because permissions are
        # sealed at EINIT and the masks are mutated in place.
        fastmem = _LITTLE

        def emit_load64(dst, var, site=None):
            emit(f"o = {var} - {EB}")
            if fastmem and site is not None:
                emit(f"if not o & 7 and 0 <= o <= {E8}"
                     f" and rpg[o >> 12]:")
                emit(f"    {dst} = mq[o >> 3]")
            else:
                emit(f"if 0 <= o <= {E8} and perms[o >> 12] & 1"
                     f" and perms[(o + 7) >> 12] & 1:")
                emit(f"    {dst} = upk_q(smem, o)[0]")
            emit("else:")
            if site is not None:
                emit(f"    i_ = {site}")
                snap(site)
            emit(f"    {dst} = load_u64({var})")

        def emit_store64(value, var, site=None, abort_exit=None):
            # ``value`` must already be masked to 64 bits.
            emit(f"o = {var} - {EB}")
            if fastmem and site is not None:
                emit(f"if not o & 7 and 0 <= o <= {E8}"
                     f" and wpg[o >> 12]:")
                emit(f"    mq[o >> 3] = {value}")
                if dirty_on:
                    emit("    dirty_add(o >> 12)")
            else:
                cond = (f"0 <= o <= {E8} and perms[o >> 12] & 2"
                        f" and perms[(o + 7) >> 12] & 2")
                if whi > wlo:
                    cond += (f" and ({var} >= {lit(whi)}"
                             f" or {var} + 8 <= {lit(wlo)})")
                emit(f"if {cond}:")
                emit(f"    pck_q(smem, o, {value})")
                if dirty_on:
                    emit("    dirty_add(o >> 12)")
                    emit("    dirty_add((o + 7) >> 12)")
            emit("else:")
            if site is not None:
                emit(f"    i_ = {site}")
                snap(site)
            emit(f"    store_u64({var}, {value})")
            if abort_exit is not None:
                # Only a watched-range store can invalidate code, and
                # those always take the slow path — the poll lives
                # here so the fast path pays nothing.
                emit("    if cache.abort:")
                emit("        cache.abort = False")
                emit_seq(abort_exit, "        ")

        def emit_load8(dst, var, site):
            emit(f"o = {var} - {EB}")
            if fastmem:
                emit(f"if 0 <= o < {E1} and rpg[o >> 12]:")
            else:
                emit(f"if 0 <= o < {E1} and perms[o >> 12] & 1:")
            emit(f"    {dst} = smem[o]")
            emit("else:")
            emit(f"    i_ = {site}")
            snap(site)
            emit(f"    {dst} = load_u8({var})")

        def emit_store8(value, var, site, abort_exit):
            # ``value`` must already be masked to 8 bits.
            emit(f"o = {var} - {EB}")
            if fastmem:
                # ``_wpage`` is page-granular, so a byte store to an
                # unwatched corner of a watched page falls through to
                # the slow path — slower, never wrong.
                emit(f"if 0 <= o < {E1} and wpg[o >> 12]:")
            else:
                cond = f"0 <= o < {E1} and perms[o >> 12] & 2"
                if whi > wlo:
                    cond += f" and not {lit(wlo)} <= {var} < {lit(whi)}"
                emit(f"if {cond}:")
            emit(f"    smem[o] = {value}")
            if dirty_on:
                emit("    dirty_add(o >> 12)")
            emit("else:")
            emit(f"    i_ = {site}")
            snap(site)
            emit(f"    store_u8({var}, {value})")
            if abort_exit is not None:
                emit("    if cache.abort:")
                emit("        cache.abort = False")
                emit_seq(abort_exit, "        ")

        # Constant-address variants: the bounds/alignment triage of the
        # dynamic fast path is decided at compile time, leaving one
        # page-mask probe (which must stay: EPC residency and SMC
        # watching mutate the masks at run time).  Misaligned,
        # straddling or out-of-enclave constants go straight to the
        # checked slow path — the same arm the dynamic code would take
        # on every execution.

        def emit_load64_const(dst, addr, site):
            o = addr - ebase
            if 0 <= o <= esize - 8 and not o & 7:
                emit(f"if rpg[{lit(o >> 12)}]:")
                emit(f"    {dst} = mq[{lit(o >> 3)}]")
                emit("else:")
                emit(f"    i_ = {site}")
                snap(site)
                emit(f"    {dst} = load_u64({lit(addr)})")
            else:
                emit(f"i_ = {site}")
                snap(site)
                emit(f"{dst} = load_u64({lit(addr)})")

        def emit_load8_const(dst, addr, site):
            o = addr - ebase
            if 0 <= o < esize:
                emit(f"if rpg[{lit(o >> 12)}]:")
                emit(f"    {dst} = smem[{lit(o)}]")
                emit("else:")
                emit(f"    i_ = {site}")
                snap(site)
                emit(f"    {dst} = load_u8({lit(addr)})")
            else:
                emit(f"i_ = {site}")
                snap(site)
                emit(f"{dst} = load_u8({lit(addr)})")

        def emit_store64_const(value, addr, site, abort_exit=None):
            # ``value`` must already be masked to 64 bits.
            o = addr - ebase
            ind = ""
            if 0 <= o <= esize - 8 and not o & 7:
                emit(f"if wpg[{lit(o >> 12)}]:")
                emit(f"    mq[{lit(o >> 3)}] = {value}")
                if dirty_on:
                    emit(f"    dirty_add({lit(o >> 12)})")
                emit("else:")
                ind = "    "
            emit(f"{ind}i_ = {site}")
            snap(site)
            emit(f"{ind}store_u64({lit(addr)}, {value})")
            if abort_exit is not None:
                emit(f"{ind}if cache.abort:")
                emit(f"{ind}    cache.abort = False")
                emit_seq(abort_exit, ind + "    ")

        def emit_store8_const(value, addr, site, abort_exit=None):
            # ``value`` must already be masked to 8 bits.
            o = addr - ebase
            ind = ""
            if 0 <= o < esize:
                emit(f"if wpg[{lit(o >> 12)}]:")
                emit(f"    smem[{lit(o)}] = {value}")
                if dirty_on:
                    emit(f"    dirty_add({lit(o >> 12)})")
                emit("else:")
                ind = "    "
            emit(f"{ind}i_ = {site}")
            snap(site)
            emit(f"{ind}store_u8({lit(addr)}, {value})")
            if abort_exit is not None:
                emit(f"{ind}if cache.abort:")
                emit(f"{ind}    cache.abort = False")
                emit_seq(abort_exit, ind + "    ")

        #: Open guard regions: (join index, flag knowledge at branch).
        open_regions = []

        for k, (rip, instr, length) in enumerate(items):
            # Close every guard region joining at this item: flush the
            # inner path's pending cycles at the inner indent, then
            # merge compile-time flag knowledge (the taken path arrives
            # with the branch-time kind, the inner path with whatever
            # its setters left — only agreement survives the join).
            while open_regions and open_regions[-1][0] == k:
                _, known_at_branch, const_at_branch = open_regions.pop()
                flush_cyc()
                cur_ind[0] = cur_ind[0][:-4]
                if known != known_at_branch:
                    known = 0
                # Constant facts survive the join only when both the
                # taken (branch-time snapshot) and fall-through paths
                # agree on the value.
                for r in [r for r, v in const.items()
                          if const_at_branch.get(r) != v]:
                    del const[r]
            op = instr.op
            ops = instr.operands
            cost = cm.cost_of(op)
            next_rip = (rip + length) & M
            last = k == n - 1

            def store_abort():
                # Slow-branch abort exit lines.
                if last:
                    return []
                return peek_exit(ret(lit(next_rip), nexec=k + 1))

            # Stack traffic.  EPC-order fidelity: the legacy sequence
            # captures the paging cost before the access but credits
            # it after, so with the EPC model on these flush eagerly
            # instead of snapshotting.
            def emit_push(value):
                if epc_on:
                    flush_cyc()
                    emit(f"i_ = {k}")
                emit(f"r = ({L(4)} - 8) & {MM}")
                emit(f"{L(4)} = r")
                if not epc_on:
                    emit_store64(value, var="r", site=k,
                                 abort_exit=store_abort())
                    return
                emit("d = epc_touch(r)")
                emit_store64(value, var="r")
                emit("cycles += d")
                # Poll the SMC flag after the store.  On a terminator
                # the normal return follows immediately, so just clear.
                emit("if cache.abort:")
                emit("    cache.abort = False")
                if not last:
                    emit_seq(exit_seq(ret(lit(next_rip),
                                          nexec=k + 1)), "    ")

            def emit_pop():
                # Pops into ``v``.
                if epc_on:
                    flush_cyc()
                    emit(f"i_ = {k}")
                emit(f"r = {L(4)}")
                if not epc_on:
                    emit_load64("v", var="r", site=k)
                    emit(f"{L(4)} = (r + 8) & {MM}")
                    return
                emit("d = epc_touch(r)")
                emit_load64("v", var="r")
                emit(f"{L(4)} = (r + 8) & {MM}")
                emit("cycles += d")

            if op == Op.MOV_RM or op == Op.LDB:
                cyc(cost)
                cv = addr_val(ops[1]) if fastmem else None
                if cv is not None:
                    mem_adjust_const(cost, cv)
                    if op == Op.MOV_RM:
                        emit_load64_const(L(ops[0]), cv, k)
                    else:
                        emit_load8_const(L(ops[0]), cv, k)
                else:
                    av = f"a{k}"
                    emit(f"{av} = {addr_of(ops[1])}")
                    mem_adjust(cost, av)
                    if op == Op.MOV_RM:
                        emit_load64(L(ops[0]), var=av, site=k)
                    else:
                        emit_load8(L(ops[0]), av, k)
            elif op == Op.MOV_MR or op == Op.STB:
                cyc(cost)
                value = (f"{L(ops[1])} & {MM}" if op == Op.MOV_MR
                         else f"{L(ops[1])} & 255")
                cv = addr_val(ops[0]) if fastmem else None
                if cv is not None:
                    mem_adjust_const(cost, cv)
                    if op == Op.MOV_MR:
                        emit_store64_const(value, cv, k,
                                           abort_exit=store_abort())
                    else:
                        emit_store8_const(value, cv, k,
                                          abort_exit=store_abort())
                else:
                    av = f"a{k}"
                    emit(f"{av} = {addr_of(ops[0])}")
                    mem_adjust(cost, av)
                    if op == Op.MOV_MR:
                        emit_store64(value, var=av, site=k,
                                     abort_exit=store_abort())
                    else:
                        emit_store8(value, av, k, store_abort())
            elif op == Op.MOV_MI:
                cyc(cost)
                cv = addr_val(ops[0]) if fastmem else None
                if cv is not None:
                    mem_adjust_const(cost, cv)
                    emit_store64_const(lit(ops[1] & M), cv, k,
                                       abort_exit=store_abort())
                else:
                    av = f"a{k}"
                    emit(f"{av} = {addr_of(ops[0])}")
                    mem_adjust(cost, av)
                    emit_store64(lit(ops[1] & M), var=av, site=k,
                                 abort_exit=store_abort())
            elif op == Op.MOV_RR:
                cyc(cost)
                emit(f"{L(ops[0])} = {L(ops[1])}")
            elif op == Op.MOV_RI:
                cyc(cost)
                emit(f"{L(ops[0])} = {lit(ops[1])}")
            elif op == Op.LEA:
                cyc(cost)
                cv = addr_val(ops[1])
                if cv is not None:
                    emit(f"{L(ops[0])} = {lit(cv)}")
                else:
                    emit(f"{L(ops[0])} = {addr_of(ops[1])}")
            elif op in _ALU_RR:
                cyc(cost)
                emit(_ALU_RR[op].format(d=L(ops[0]), s=L(ops[1]),
                                        m=MM, sg=SG))
            elif op == Op.ADD_RI:
                cyc(cost)
                emit(f"{L(ops[0])} = ({L(ops[0])}"
                     f" + {lit(ops[1])}) & {MM}")
            elif op == Op.SUB_RI:
                cyc(cost)
                emit(f"{L(ops[0])} = ({L(ops[0])}"
                     f" - {lit(ops[1])}) & {MM}")
            elif op == Op.IMUL_RI:
                cyc(cost)
                emit(f"{L(ops[0])} = ((({L(ops[0])} ^ {SG}) - {SG})"
                     f" * {lit(ops[1])}) & {MM}")
            elif op == Op.AND_RI:
                cyc(cost)
                emit(f"{L(ops[0])} &= {lit(ops[1] & M)}")
            elif op == Op.OR_RI:
                cyc(cost)
                emit(f"{L(ops[0])} |= {lit(ops[1] & M)}")
            elif op == Op.XOR_RI:
                cyc(cost)
                emit(f"{L(ops[0])} ^= {lit(ops[1] & M)}")
            elif op == Op.SHL_RI:
                cyc(cost)
                emit(f"{L(ops[0])} = ({L(ops[0])}"
                     f" << {lit(ops[1] & 63)}) & {MM}")
            elif op == Op.SHR_RI:
                cyc(cost)
                emit(f"{L(ops[0])} >>= {lit(ops[1] & 63)}")
            elif op == Op.SAR_RI:
                cyc(cost)
                emit(f"{L(ops[0])} = ((({L(ops[0])} ^ {SG}) - {SG})"
                     f" >> {lit(ops[1] & 63)}) & {MM}")
            elif op == Op.NEG:
                cyc(cost)
                emit(f"{L(ops[0])} = -{L(ops[0])} & {MM}")
            elif op == Op.NOT:
                cyc(cost)
                emit(f"{L(ops[0])} = ~{L(ops[0])} & {MM}")
            elif op in (Op.DIV_RR, Op.DIV_RI, Op.MOD_RR, Op.MOD_RI):
                cyc(cost)
                emit(f"t = ({L(ops[0])} ^ {SG}) - {SG}")
                if op in (Op.DIV_RR, Op.MOD_RR):
                    emit(f"u = ({L(ops[1])} ^ {SG}) - {SG}")
                else:
                    emit(f"u = {lit(ops[1])}")
                if op in (Op.DIV_RR, Op.MOD_RR) or ops[1] == 0:
                    emit("if u == 0:")
                    msg = lit(f"division by zero at {rip:#x}")
                    emit(f"    i_ = {k}")
                    snap(k)
                    emit(f"    raise CpuFault({msg})")
                # Truncating signed division without two abs() calls:
                # like-signed operands floor-divide directly;
                # unlike-signed negate the divisor, so the floor of the
                # positive ratio is the truncation of the negative one.
                emit("if (t < 0) == (u < 0):")
                emit("    q = t // u")
                emit("else:")
                emit("    q = -(t // -u)")
                if op in (Op.DIV_RR, Op.DIV_RI):
                    emit(f"{L(ops[0])} = q & {MM}")
                else:
                    emit(f"{L(ops[0])} = (t - q * u) & {MM}")
            elif op == Op.CMP_RR:
                cyc(cost)
                emit(f"fa = {L(ops[0])}")
                emit(f"fb = {L(ops[1])}")
                emit("fk = 1")
                known = 1
            elif op == Op.CMP_RI:
                # fb holds imm & U64: both the unsigned compare and the
                # sign-flip signed compare recover the legacy result
                # because |imm| < 2**63.
                cyc(cost)
                emit(f"fa = {L(ops[0])}")
                emit(f"fb = {lit(ops[1] & M)}")
                emit("fk = 1")
                known = 1
            elif op == Op.TEST_RR:
                cyc(cost)
                emit(f"fa = {L(ops[0])} & {L(ops[1])}")
                emit("fk = 2")
                known = 2
            elif op == Op.JMP:
                cyc(cost)
                target = (rip + length + ops[0]) & M
                if not last and items[k + 1][0] == target:
                    # Mid-trace JMP: the next item *is* the target
                    # (trace formation fused through it) — the jump
                    # retires and is charged but transfers no control.
                    pass
                elif is_loop and last and target == start:
                    flush_cyc()
                    emit(f"if ns + {2 * n} <= hd:")
                    emit(f"    ns += {n}{sk_s}")
                    if guards:
                        emit("    sk = 0")
                    emit("    continue")
                    emit_seq(exit_seq(ret(lit(start))))
                else:
                    emit_exit(target)
            elif op == Op.JMP_R:
                cyc(cost)
                emit_seq(exit_seq(ret(f"{L(ops[0])} & {MM}")))
            elif op in _CMP_PRED:  # the ten Jcc opcodes
                cyc(cost)
                if known == 1:
                    pred = _CMP_PRED[op].format(sg=SG)
                elif known == 2:
                    pred = _TEST_PRED[op].format(sg=SG)
                else:
                    # Entry flags, kind unknown: inline three-way
                    # dispatch on the kind tag.
                    pred = (f"({_CMP_PRED[op].format(sg=SG)})"
                            f" if fk == 1 else "
                            f"(({_TEST_PRED[op].format(sg=SG)})"
                            f" if fk == 2 else "
                            f"({_CONC_PRED[op]}))")
                target = (rip + length + ops[0]) & M
                if not last and items[k + 1][0] == next_rip:
                    if k in guards:
                        # Internal forward guard: the taken edge skips
                        # the inner region natively.  Both paths have
                        # paid the Jcc cost, so flush before diverging;
                        # the inner arm re-accumulates from empty.
                        j = guards[k]
                        flush_cyc()
                        emit(f"if {pred}:")
                        emit(f"    sk += {j - k - 1}")
                        emit("else:")
                        open_regions.append((j, known, dict(const)))
                        cur_ind[0] += "    "
                    elif target == next_rip:
                        # Degenerate jump-to-next: retires and is
                        # charged, transfers nothing either way.
                        pass
                    else:
                        # Tail duplication past the fall-through: the
                        # taken edge is a side exit.  The main path
                        # falls through, so pending cycles are peeked.
                        emit(f"if {pred}:")
                        emit_seq(peek_exit(ret(lit(target), nexec=k + 1)),
                                 "    ")
                    continue
                flush_cyc()
                emit(f"if {pred}:")
                if is_loop and last and not loop_fall \
                        and target == start:
                    emit(f"    if ns + {2 * n} <= hd:")
                    emit(f"        ns += {n}{sk_s}")
                    if guards:
                        emit("        sk = 0")
                    emit("        continue")
                    emit_seq(exit_seq(ret(lit(start))), "    ")
                    emit_exit(next_rip)
                elif loop_fall and last:
                    # Taken edge leaves the loop; fall-through is the
                    # backedge to our own leader.
                    emit_exit(target, indent="    ")
                    emit(f"if ns + {2 * n} <= hd:")
                    emit(f"    ns += {n}{sk_s}")
                    if guards:
                        emit("    sk = 0")
                    emit("    continue")
                    emit_seq(exit_seq(ret(lit(start))))
                else:
                    emit_exit(target, indent="    ")
                    emit_exit(next_rip)
            elif op == Op.CALL or op == Op.CALL_R:
                cyc(cost)
                # Trace formation walked through this direct CALL into
                # the callee: the next item *is* the target, so the
                # push retires here and control simply falls through —
                # no transition.
                fused = (op == Op.CALL and not last
                         and items[k + 1][0]
                         == (rip + length + ops[0]) & M)
                emit_push(lit(next_rip))
                if fused:
                    pass
                elif op == Op.CALL:
                    emit_exit((rip + length + ops[0]) & M)
                else:
                    emit_seq(exit_seq(ret(f"{L(ops[0])} & {MM}")))
            elif op == Op.RET:
                cyc(cost)
                # Mid-trace RET: trace formation predicted the return
                # address with its compile-time return-address stack
                # and kept tracing at the prediction (the next item).
                # Verify the popped value against it and fall through
                # on a hit; a mismatch (retargeted stack) bails to the
                # actual target with ``k + 1`` items retired.
                fused = not last
                emit_pop()
                if fused:
                    emit(f"if v != {lit(items[k + 1][0])}:")
                    emit_seq(peek_exit(ret("v", nexec=k + 1)), "    ")
                else:
                    emit_seq(exit_seq(ret("v")))
            elif op == Op.PUSH_R or op == Op.PUSH_I:
                value = (f"{L(ops[0])} & {MM}" if op == Op.PUSH_R
                         else lit(ops[0] & M))
                cyc(cost)
                emit_push(value)
            elif op == Op.POP_R:
                cyc(cost)
                emit_pop()
                emit(f"{L(ops[0])} = v")
            elif op == Op.SVC:
                cyc(cost)
                emit_seq(exit_seq(ret(lit(next_rip), kind=1,
                                      aux=lit(ops[0]))))
            elif op == Op.NOP:
                cyc(cost)
            elif op == Op.HLT:
                cyc(cost)
                emit_seq(exit_seq(ret(lit(next_rip), kind=2)))
            elif op == Op.TRAP:
                cyc(cost)
                emit(f"i_ = {k}")
                snap(k)
                emit(f"raise PolicyViolation({lit(ops[0])},"
                     f" {lit(rip)})")
            else:  # pragma: no cover - _SUPPORTED pre-filter is total
                raise AssertionError(f"untranslatable opcode {op:#x}")

            # Constant-map bookkeeping.  Runs after each instruction's
            # emission so the *next* instruction sees its effect.  The
            # mid-trace Jcc arms above ``continue`` early — they write
            # no register, so skipping this block is sound for them.
            if op == Op.MOV_RI:
                const[ops[0]] = ops[1] & M
            elif op == Op.MOV_RR:
                v = const.get(ops[1])
                if v is None:
                    const.pop(ops[0], None)
                else:
                    const[ops[0]] = v
            elif op == Op.LEA:
                v = addr_val(ops[1])
                if v is None:
                    const.pop(ops[0], None)
                else:
                    const[ops[0]] = v
            elif op in _CONST_KILL0:
                const.pop(ops[0], None)
            elif op in _CONST_STACK:
                const.pop(4, None)
                if op == Op.POP_R:
                    const.pop(ops[0], None)
            elif op not in _CONST_NEUTRAL:
                const.clear()

        if items[-1][1].op not in BLOCK_TERMINATORS:
            # Truncated block (decode failure, exec-perm edge or length
            # cap): fall through to the next leader.
            emit_exit((items[-1][0] + items[-1][2]) & M)

        baked = ["load_u64", "store_u64", "load_u8", "store_u8",
                 "smem", "perms", "upk_q", "pck_q", "epc_touch",
                 "rpg", "wpg", "mq",
                 "cache", "fault", "dirty_add"]
        baked += list(pool_vals)
        sig_lines = []
        for i in range(0, len(baked), 4):
            chunk = ", ".join(f"{x}={x}" for x in baked[i:i + 4])
            sig_lines.append("         " + chunk + ",")
        sig_lines[-1] = sig_lines[-1][:-1] + "):"
        lines = ["def _blk(regs, fk, fa, fb, cycles, hd,"]
        lines += sig_lines
        lines.append("    i_ = 0")
        if guards:
            lines.append("    sk = 0")
        if is_loop:
            lines.append("    ns = 0")
        for reg in localized:
            lines.append(f"    r{reg} = regs[{reg}]")
        lines.append("    try:")
        base = "        "
        if is_loop:
            lines.append(base + "while 1:")
            base = "            "
        lines += [base + ln for ln in body]
        lines.append("    except BaseException:")
        # Replay the faulting site's pending cycle sum (exact for
        # architectural faults, which only originate at snapshotted
        # sites; an async exception elsewhere may attribute a few
        # instructions' cost approximately, as the step engine would
        # attribute a whole instruction).
        kw = "if"
        for site, expr in snaps:
            lines.append(f"        {kw} i_ == {site}:")
            lines.append(f"            cycles = cycles + {expr}")
            kw = "elif"
        lines.append(f"        fault(i_, {'ns' if is_loop else '0'}{sk_s},"
                     " cycles, fk, fa, fb)")
        for reg in localized:
            lines.append(f"        regs[{reg}] = r{reg}")
        lines.append("        raise")
        src = "\n".join(lines) + "\n"
        from ..errors import CpuFault, PolicyViolation
        namespace = {
            "load_u64": space.load_u64,
            "store_u64": space.store_u64,
            "load_u8": space.load_u8,
            "store_u8": space.store_u8,
            "smem": space._mem,
            "perms": space._perms,
            "upk_q": _STRUCT_Q.unpack_from,
            "pck_q": _STRUCT_Q.pack_into,
            "rpg": space._rpage,
            "wpg": space._wpage,
            "mq": space._mem_q,
            "epc_touch": cpu._epc_touch,
            "cache": self,
            "dirty_add": space._dirty.add,
            "fault": cpu._set_closure_fault,
            "CpuFault": CpuFault,
            "PolicyViolation": PolicyViolation,
        }
        namespace.update(pool_vals)
        code = _CODE_CACHE.get(src)
        if code is None:
            code = compile(src, "<tblock>", "exec")
            if len(_CODE_CACHE) < _CODE_CACHE_CAP:
                _CODE_CACHE[src] = code
        else:
            self.template_hits += 1
        exec(code, namespace)
        return namespace["_blk"]
