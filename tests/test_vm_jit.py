"""JIT: traces, block exits through the dispatch loop, page-indexed
invalidation and the LRU-bounded block cache.

Everything here is differential at heart: whatever the translator
does — promote stubs to traces, exit to fixed and indirect targets,
drop blocks on self-modifying code, evict under a tiny cache bound —
the retired (steps, cycles, rip, result) account must match the
single-step oracle bit for bit, whether blocks compile lazily at the
warm-up threshold or eagerly on first dispatch.
"""

import pytest

from repro.errors import CpuFault
from repro.isa import (
    Instruction, Label, LabelDef, Mem, assemble,
    RAX, RBX, RCX, RDX,
)
from repro.isa.encoding import decode_block
from repro.isa.instructions import BLOCK_TERMINATORS, Op
from repro.sgx import Enclave
from repro.vm import CPU, AexSchedule, CostModel
from repro.vm.interrupts import AexTimer
from repro.vm.translate import MAX_BLOCK_INSTRS

_U64 = (1 << 64) - 1

R8 = 8


def _machine():
    enclave = Enclave()
    enclave.load_bootstrap_image(b"img")
    enclave.einit()
    return enclave


def _load(items, enclave=None):
    enclave = enclave or _machine()
    layout = enclave.layout
    asm = assemble(list(items) + [Instruction(Op.HLT)])
    code = layout.regions["code"].start
    enclave.space.write_raw(code, asm.code)
    enclave.space.watch_code_range(code, len(asm.code))
    return enclave, asm


def _cpu(enclave, executor="translate", cost_model=None, **kwargs):
    layout = enclave.layout
    cm = cost_model or CostModel(executor=executor)
    return CPU(enclave.space, layout.regions["code"].start,
               initial_rsp=layout.initial_rsp,
               ssa_addr=layout.ssa_addr,
               cost_model=cm,
               executor="step" if executor == "step" else "translate",
               **kwargs)


def _run(items, executor, regs=None, aex=None, eager=False, **kwargs):
    enclave, asm = _load(items)
    cpu = _cpu(enclave, executor, **kwargs)
    cpu.jit_eager = eager
    for reg, value in (regs or {}).items():
        cpu.regs[reg] = value & _U64
    if aex is not None:
        cpu.aex_schedule = aex
        cpu._aex_timer = AexTimer(cpu.aex_schedule)
    result = cpu.run()
    return result, cpu


def _nested_loops(outer=30, inner=20):
    """Two nested counted loops plus a diamond — enough control flow
    for traces, side exits and native loops to form."""
    return [
        Instruction(Op.MOV_RI, RAX, 0),
        Instruction(Op.MOV_RI, RCX, outer),
        LabelDef("outer"),
        Instruction(Op.MOV_RI, RDX, inner),
        LabelDef("inner"),
        Instruction(Op.ADD_RI, RAX, 1),
        Instruction(Op.MOV_RI, RBX, 1),
        Instruction(Op.TEST_RR, RAX, RBX),
        Instruction(Op.JE, Label("even")),
        Instruction(Op.ADD_RI, RAX, 2),
        Instruction(Op.JMP, Label("join")),
        LabelDef("even"),
        Instruction(Op.ADD_RI, RAX, 4),
        LabelDef("join"),
        Instruction(Op.SUB_RI, RDX, 1),
        Instruction(Op.CMP_RI, RDX, 0),
        Instruction(Op.JG, Label("inner")),
        Instruction(Op.SUB_RI, RCX, 1),
        Instruction(Op.CMP_RI, RCX, 0),
        Instruction(Op.JG, Label("outer")),
    ]


def _call_loop(n=60, leaf_addr=0):
    """A loop that CALLs a tiny leaf both directly and through a
    register — exercises indirect exits (RET and CALL_R).
    ``leaf_addr`` is patched in via a two-pass assembly (MOV_RI is
    fixed-width, so label offsets are already final)."""
    return [
        Instruction(Op.MOV_RI, RAX, 0),
        Instruction(Op.MOV_RI, RCX, n),
        Instruction(Op.MOV_RI, RBX, leaf_addr),
        LabelDef("loop"),
        Instruction(Op.CALL, Label("leaf")),
        Instruction(Op.CALL_R, RBX),
        Instruction(Op.SUB_RI, RCX, 1),
        Instruction(Op.CMP_RI, RCX, 0),
        Instruction(Op.JG, Label("loop")),
        Instruction(Op.JMP, Label("done")),
        LabelDef("leaf"),
        Instruction(Op.ADD_RI, RAX, 5),
        Instruction(Op.RET),
        LabelDef("done"),
    ]


def _call_items(n=60):
    """Two-pass assembly of the call loop: resolve the leaf's absolute
    address against the (deterministic) enclave layout, then rebuild
    with it patched into the MOV_RI."""
    probe = assemble(_call_loop(n) + [Instruction(Op.HLT)])
    code = _machine().layout.regions["code"].start
    leaf = code + probe.labels["leaf"]
    return _call_loop(n, leaf_addr=leaf), leaf


def _accounts(result):
    return result.steps, result.cycles, result.rip, result.return_value


# -- three-engine equality ----------------------------------------------------

#: (executor, eager): the step oracle, the translator compiling at the
#: warm-up threshold, and the translator compiling on first dispatch.
_ENGINES = (("step", False), ("translate", False), ("translate", True))


@pytest.mark.parametrize("program", ["nested", "calls"])
def test_three_engines_agree(program):
    items = _nested_loops() if program == "nested" \
        else _call_items()[0]
    accounts = set()
    for executor, eager in _ENGINES:
        result, _ = _run(items, executor, eager=eager)
        accounts.add(_accounts(result))
    assert len(accounts) == 1


def test_three_engines_agree_under_aex_storm():
    items = _nested_loops(outer=40, inner=25)
    accounts = set()
    for executor, eager in _ENGINES:
        result, _ = _run(items, executor, eager=eager,
                         aex=AexSchedule(37, jitter=0.4, seed=99))
        accounts.add(_accounts(result))
    assert len(accounts) == 1


# -- flags crossing a block edge ----------------------------------------------

def _flag_edge_jmp(n=60):
    """The loop block ends ``CMP; JMP`` into ``check``, a leader that
    starts with a Jcc.  The entry reaches ``check`` first through a
    taken branch, so ``check`` compiles as its own leader and the loop
    trace stops at it: the flags cross a block edge."""
    return [
        Instruction(Op.MOV_RI, RAX, 0),
        Instruction(Op.MOV_RI, RCX, n),
        Instruction(Op.CMP_RI, RCX, 0),
        Instruction(Op.JG, Label("check")),
        Instruction(Op.HLT),
        LabelDef("loop"),
        Instruction(Op.ADD_RI, RAX, 3),
        Instruction(Op.SUB_RI, RCX, 1),
        Instruction(Op.CMP_RI, RCX, 0),
        Instruction(Op.JMP, Label("check")),
        LabelDef("check"),
        Instruction(Op.JG, Label("loop")),
    ]


def _flag_edge_ret(n=60):
    """As :func:`_flag_edge_jmp`, but the callee sets the flags and
    its ``RET`` returns into ``check``."""
    return [
        Instruction(Op.MOV_RI, RAX, 0),
        Instruction(Op.MOV_RI, RCX, n),
        Instruction(Op.CMP_RI, RCX, 0),
        Instruction(Op.JG, Label("check")),
        Instruction(Op.HLT),
        LabelDef("loop"),
        Instruction(Op.CALL, Label("body")),
        LabelDef("check"),
        Instruction(Op.JG, Label("loop")),
        Instruction(Op.JMP, Label("done")),
        LabelDef("body"),
        Instruction(Op.ADD_RI, RAX, 3),
        Instruction(Op.SUB_RI, RCX, 1),
        Instruction(Op.TEST_RR, RCX, RCX),
        Instruction(Op.RET),
        LabelDef("done"),
    ]


def _flag_state(result, cpu):
    return _accounts(result) + (cpu.aex_events, cpu.f_eq, cpu.f_lt_s,
                                cpu.f_lt_u)


@pytest.mark.parametrize("shape", ["jmp", "ret"])
@pytest.mark.parametrize("mode", ["eager", "lazy", "aex"])
def test_flags_cross_a_chain_edge(shape, mode):
    items = _flag_edge_jmp() if shape == "jmp" else _flag_edge_ret()

    def aex():
        return AexSchedule(29, jitter=0.4, seed=5) if mode == "aex" \
            else None

    oracle = _flag_state(*_run(items, "step", aex=aex()))
    result, cpu = _run(items, "translate", aex=aex(),
                       eager=mode == "eager")
    assert _flag_state(result, cpu) == oracle
    if mode == "aex":
        assert cpu.aex_events > 0
    # The flag setter's trace stops at the edge into ``check``, which
    # compiled as its own leader.
    code = _machine().layout.regions["code"].start
    labels = assemble(items + [Instruction(Op.HLT)]).labels
    blocks = cpu._blocks.blocks
    loop, check = blocks[code + labels["loop"]], \
        blocks[code + labels["check"]]
    assert loop.fn is not None and check.fn is not None
    assert check.start not in loop.rips


# -- indirect exits ----------------------------------------------------------

def test_untrusted_call_r_target_never_fills_guarded_ic(monkeypatch):
    """No indirect target is ever cached: every indirect exit (CALL_R,
    and a RET no trace predicted) returns its target to the dispatch
    loop — at least two dispatches per iteration — and the account
    still matches the oracle."""
    monkeypatch.setattr("repro.vm.cpu.COLD_RUNS", 0)
    items, _ = _call_items(n=80)
    enclave, _ = _load(items)
    cpu = _cpu(enclave, "translate")
    result = cpu.run()
    assert cpu.jit_stats()["dispatch_calls"] >= 2 * 80
    step, _ = _run(items, "step")
    assert _accounts(result) == _accounts(step)


def test_unhandled_svc_in_a_compiled_block_faults_at_the_svc():
    """An SVC always ends its block, so a compiled block's SVC escape
    reports the block's last rip — the same fault state as the
    oracle."""
    items = [Instruction(Op.MOV_RI, RAX, 1), Instruction(Op.SVC, 1)]
    states = []
    for executor, eager in (("step", False), ("translate", True)):
        enclave, _ = _load(items)
        cpu = _cpu(enclave, executor)
        cpu.jit_eager = eager
        with pytest.raises(CpuFault, match="no handler"):
            cpu.run()
        if executor == "translate":
            assert cpu._blocks.compiles == 1
        states.append(_state(cpu))
    assert states[0] == states[1]


# -- invalidation: page index, forced flush -----------------------------------

def test_invalidate_code_range_severs_chains(monkeypatch):
    monkeypatch.setattr("repro.vm.cpu.COLD_RUNS", 0)
    items = _nested_loops(outer=40, inner=20)
    enclave, asm = _load(items)
    code = enclave.layout.regions["code"].start
    cpu = _cpu(enclave, "translate")
    cpu.run()
    cache = cpu._blocks
    n_blocks = len(cache.blocks)
    assert n_blocks > 0
    enclave.space.invalidate_code_range(code, len(asm.code))
    assert len(cache.blocks) == 0
    assert cache.stats()["invalidated_blocks"] >= n_blocks
    assert cache.by_page == {}


def test_flush_mid_run_is_architecturally_invisible(monkeypatch):
    """A forced full flush between slices must not move the account."""
    monkeypatch.setattr("repro.vm.cpu.COLD_RUNS", 0)
    items = _nested_loops(outer=50, inner=25)

    enclave, asm = _load(items)
    code = enclave.layout.regions["code"].start
    cpu = _cpu(enclave, "translate")
    while not cpu.halted:
        cpu.run(slice_steps=400)
        enclave.space.invalidate_code_range(code, len(asm.code))
    flushed = (cpu.steps, cpu.cycles, cpu.rip)

    result, _ = _run(items, "step")
    assert flushed == (result.steps, result.cycles, result.rip)


def test_partial_invalidation_only_drops_overlapping_blocks(monkeypatch):
    monkeypatch.setattr("repro.vm.cpu.COLD_RUNS", 0)
    items, leaf = _call_items(n=50)
    enclave, asm = _load(items)
    cpu = _cpu(enclave, "translate")
    cpu.run()
    cache = cpu._blocks
    survivors_before = {a for a, b in cache.blocks.items()
                       if b.end <= leaf or b.lo > leaf}
    enclave.space.invalidate_code_range(leaf, 1)
    assert set(cache.blocks) == survivors_before


# -- LRU bound ----------------------------------------------------------------

def test_lru_bound_holds_under_pathological_smc(monkeypatch):
    """Repeated full flushes + retranslation cycle thousands of blocks
    through a 4-entry cache; the bound must hold throughout and the
    account must still match the oracle."""
    monkeypatch.setattr("repro.vm.cpu.COLD_RUNS", 0)
    items = _nested_loops(outer=30, inner=15)
    cm = CostModel(executor="translate")
    object.__setattr__(cm, "jit_block_cap", 4) \
        if hasattr(type(cm), "__dataclass_fields__") else None
    enclave, asm = _load(items)
    code = enclave.layout.regions["code"].start
    cpu = _cpu(enclave, "translate", cost_model=cm)
    while not cpu.halted:
        cpu.run(slice_steps=100)
        assert len(cpu._blocks.blocks) <= max(4, cpu._blocks.capacity)
        enclave.space.invalidate_code_range(code, len(asm.code))
    cache_stats = cpu._blocks.stats()
    assert cache_stats["invalidated_blocks"] > 0
    step, _ = _run(items, "step")
    assert (cpu.steps, cpu.cycles, cpu.rip) == \
        (step.steps, step.cycles, step.rip)


def test_lru_eviction_bounds_live_blocks():
    cm = CostModel(executor="translate", jit_block_cap=3)
    enclave, _ = _load(_nested_loops(outer=25, inner=10))
    cpu = _cpu(enclave, "translate", cost_model=cm)
    cpu.run()
    cache = cpu._blocks
    assert cache.capacity == 3
    assert len(cache.blocks) <= 3
    assert cache.stats()["evicted_blocks"] > 0
    step, _ = _run(_nested_loops(outer=25, inner=10), "step")
    assert (cpu.steps, cpu.cycles) == (step.steps, step.cycles)


# -- eager warm-up ------------------------------------------------------------

def test_jit_eager_compiles_on_first_dispatch():
    items = _nested_loops(outer=4, inner=2)
    enclave, _ = _load(items)
    cpu = _cpu(enclave, "translate")
    cpu.jit_eager = True
    result = cpu.run()
    cache = cpu._blocks
    # every surviving block was compiled despite the tiny trip counts
    assert all(b.fn is not None for b in cache.blocks.values())
    step, _ = _run(items, "step")
    assert _accounts(result) == _accounts(step)


# -- lazy traces: promotion at the warm-up threshold --------------------------

def _state(cpu):
    return cpu.steps, cpu.cycles, cpu.rip, cpu.aex_events


def _cut(items, executor, max_steps, aex=None):
    """Architectural state after a run cut at ``max_steps``."""
    enclave, _ = _load(items)
    cpu = _cpu(enclave, executor)
    if aex is not None:
        cpu.aex_schedule = aex
        cpu._aex_timer = AexTimer(aex)
    try:
        cpu.run(max_steps=max_steps)
    except CpuFault:
        pass
    return _state(cpu), cpu


def _sliced(items, executor, slice_steps, phase=0):
    """Architectural state after every slice of a sliced run; a first
    slice of ``phase`` steps shifts where the boundaries fall."""
    enclave, _ = _load(items)
    cpu = _cpu(enclave, executor)
    states = []
    if phase:
        cpu.run(slice_steps=phase)
        states.append(_state(cpu))
    while not cpu.halted:
        cpu.run(slice_steps=slice_steps)
        states.append(_state(cpu))
    return states, cpu


def _basic_block_len(enclave, rip):
    space = enclave.space
    return len(decode_block(space.enclave_view(), rip - space.enclave_base,
                            MAX_BLOCK_INSTRS))


@pytest.mark.parametrize("program", ["nested", "calls"])
def test_promotion_keeps_the_headroom_exact(program):
    """Default thresholds: leaders start as short basic-block stubs and
    are promoted to long traces at the threshold.  The dispatch loop
    must budget the *promoted* length, or a trace runs past a step
    limit, an AEX arrival or a slice boundary."""
    items = _nested_loops() if program == "nested" \
        else _call_items()[0]
    lo, hi = 40, 300
    # the cut range spans promotion: nothing compiled at the low end,
    # traces formed by the high end
    _, cpu = _cut(items, "translate", lo)
    assert cpu._blocks.compiles == 0
    _, cpu = _cut(items, "translate", hi)
    assert cpu._blocks.traces > 0
    for max_steps in range(lo, hi + 1):
        assert _cut(items, "translate", max_steps)[0] == \
            _cut(items, "step", max_steps)[0], max_steps

    # A promotion lands on a short headroom only at some phases, so
    # sweep AEX seeds and slice offsets.
    for interval in (5, 13):
        for seed in range(10):
            storm, cpu = _cut(items, "translate", 10 ** 6,
                              aex=AexSchedule(interval, jitter=0.5,
                                              seed=seed))
            assert storm == _cut(items, "step", 10 ** 6,
                                 aex=AexSchedule(interval, jitter=0.5,
                                                 seed=seed))[0]
            assert storm[3] > 0 and cpu._blocks.traces > 0

    for slice_steps in (7, 25):
        for phase in range(slice_steps):
            sliced, cpu = _sliced(items, "translate", slice_steps, phase)
            assert sliced == _sliced(items, "step", slice_steps, phase)[0]
            assert cpu._blocks.traces > 0


def test_cold_run_keeps_basic_block_stubs():
    """Nothing reaches the threshold: no leader pays trace decode, and
    every block ends at its first terminator."""
    enclave, _ = _load(_nested_loops(outer=2, inner=2))
    cpu = _cpu(enclave, "translate")
    cpu.run()
    cache = cpu._blocks
    assert cache.compiles == 0 and cache.traces == 0
    for block in cache.blocks.values():
        ops = [instr.op for _, instr, _ in block.items]
        assert ops[-1] in BLOCK_TERMINATORS
        assert not any(op in BLOCK_TERMINATORS for op in ops[:-1])


@pytest.mark.parametrize("slice_steps", [7, 25])
def test_sliced_traces_fit_the_slice(slice_steps):
    items = _nested_loops(outer=20, inner=15)
    enclave, _ = _load(items)
    cpu = _cpu(enclave, "translate")
    while not cpu.halted:
        cpu.run(slice_steps=slice_steps)
    cache = cpu._blocks
    assert cache.traces > 0
    for block in cache.blocks.values():
        if block.fn is not None:
            assert block.n <= max(slice_steps,
                                  _basic_block_len(enclave, block.start))
    step, _ = _run(items, "step")
    assert (cpu.steps, cpu.cycles, cpu.rip) == \
        (step.steps, step.cycles, step.rip)


def test_trace_chains_into_a_compiled_leader():
    """The leaf is entered twice per iteration, so it turns hot first;
    traces promoted after it exit into it through the dispatch loop
    instead of inlining a copy."""
    items, leaf = _call_items()
    enclave, _ = _load(items)
    cpu = _cpu(enclave, "translate")
    result = cpu.run()
    cache = cpu._blocks
    assert cache.blocks[leaf].fn is not None
    others = [b for b in cache.blocks.values()
              if b.fn is not None and b.start != leaf]
    assert others and all(leaf not in b.rips for b in others)
    step, _ = _run(items, "step")
    assert _accounts(result) == _accounts(step)


def _far_call_loop(n=40):
    """A loop calling a leaf placed past a page of dead NOPs, so the
    loop's trace (caller, inlined callee, return site) spans two
    pages while its stub spans one."""
    return [
        Instruction(Op.MOV_RI, RAX, 0),
        Instruction(Op.MOV_RI, RCX, n),
        LabelDef("loop"),
        Instruction(Op.CALL, Label("far")),
        Instruction(Op.SUB_RI, RCX, 1),
        Instruction(Op.CMP_RI, RCX, 0),
        Instruction(Op.JG, Label("loop")),
        Instruction(Op.JMP, Label("done")),
    ] + [Instruction(Op.NOP)] * 5000 + [
        LabelDef("far"),
        Instruction(Op.ADD_RI, RAX, 5),
        Instruction(Op.RET),
        LabelDef("done"),
    ]


def test_promoted_trace_watches_its_extended_pages(monkeypatch):
    monkeypatch.setattr("repro.vm.cpu.COLD_RUNS", 0)
    items = _far_call_loop()
    states = []
    for executor in ("translate", "step"):
        enclave, asm = _load(items)
        code = enclave.layout.regions["code"].start
        leader = code + asm.labels["loop"]
        far = code + asm.labels["far"]
        cpu = _cpu(enclave, executor)
        cpu.run(slice_steps=30)
        # a dead padding byte on the callee's page, inside the trace's
        # span but on a page the leader's stub never touched
        poke = max(far & ~0xFFF, far - 8)
        if executor == "translate":
            cache = cpu._blocks
            block = cache.blocks[leader]
            assert block.fn is not None and block.end > far
            assert poke >> 12 != leader >> 12
            assert poke >> 12 in block.pages
            assert any(block in bucket
                       for bucket in cache.by_page.values())
        enclave.space.store_u8(poke, 0x00)
        if executor == "translate":
            assert cache.blocks.get(leader) is not block
            assert not any(block in bucket
                           for bucket in cache.by_page.values())
        while not cpu.halted:
            cpu.run(slice_steps=30)
        states.append(_state(cpu) + (cpu.regs[RAX],))
    assert states[0] == states[1]
