"""Parametric annotation templates.

Each template is a list of :class:`PatternInstr` — opcode plus operand
*atoms*.  The compiler's instrumentation passes **emit** a template
(instantiating atoms with concrete operands and labels); the in-enclave
verifier **matches** decoded instructions against the same template.
Because both directions derive from one definition, the producer and
consumer cannot drift apart — the property the paper gets by publishing
the consumer's checking rules.

Atom kinds
----------
* plain ``int``          — exact register index
* plain :class:`Mem`     — exact memory operand
* :class:`Mag`           — magic 64-bit placeholder (``MOV r, imm64``)
* :class:`ImmAtom`       — exact immediate value
* :class:`TrapTo`        — rel32 that must land on the trap pad for a
                           violation code
* :class:`LocalTo`       — rel32 to another index of the same template
* :class:`TargetReg`     — captured register (the indirect-branch target);
                           must be consistent across the template and must
                           not be RSP or an annotation-reserved register
* :class:`AnchorMem`     — captured memory operand that must equal the
                           guarded store's destination
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa.encoding import MOV_RI_IMM_OFFSET
from ..isa.instructions import Mem, Op, SPECS
from ..isa.registers import R13, R14, R15, RSP, RESERVED_REGS
from .magic import (
    MAGIC, MARKER_VALUE,
    VIOL_P1, VIOL_P2, VIOL_P3, VIOL_P4,
    VIOL_P5_TARGET, VIOL_P5_RET, VIOL_P5_SHADOW, VIOL_P6,
)
from .policies import PolicySet


class AnnotationKind:
    """Discriminates what a matched annotation licenses."""

    STORE_GUARD = "store_guard"
    RSP_GUARD = "rsp_guard"
    INDIRECT = "indirect_branch"
    PROLOGUE = "shadow_prologue"
    EPILOGUE = "shadow_epilogue"
    P6_GUARD = "p6_guard"


@dataclass(frozen=True)
class Mag:
    name: str


@dataclass(frozen=True)
class ImmAtom:
    value: int


@dataclass(frozen=True)
class TrapTo:
    code: int


@dataclass(frozen=True)
class LocalTo:
    index: int


@dataclass(frozen=True)
class TargetReg:
    pass


@dataclass(frozen=True)
class AnchorMem:
    pass


@dataclass(frozen=True)
class AnchorReg:
    """Register operand ``index`` of the guarded anchor instruction —
    lets custom policies (repro.policy.custom) reference the anchor's
    own operands inside the guard."""

    index: int


@dataclass(frozen=True)
class PatternInstr:
    op: int
    atoms: tuple


def _p(op: int, *atoms) -> PatternInstr:
    return PatternInstr(op, atoms)


Pattern = List[PatternInstr]


# ---------------------------------------------------------------------------
# Template definitions
# ---------------------------------------------------------------------------

def store_guard_pattern(policies: PolicySet) -> Pattern:
    """Guard before every explicit memory store (P1, P3, P4).

    One range check, exactly Fig. 5's shape.  The paper notes that "the
    instrumentation to enforce P1/P2 can be reused to enforce P3/P4 (via
    different boundaries), thus the performance overhead caused by P3/P4
    is negligible" — we implement precisely that: the annotation always
    compares against the ``p1_lo``/``p1_hi`` placeholders, and the
    in-enclave rewriter *tightens* the bounds when P3/P4 are enabled
    (the enclave layout places the critical region, the shadow stack,
    the branch map and the code pages in one contiguous band below the
    stack/heap data band, so excluding them is a lower-bound bump).
    """
    del policies  # shape is policy-independent; bounds come from the
    #               rewriter (see repro.core.rewriter.build_value_map)
    return [
        _p(Op.LEA, R15, AnchorMem()),
        _p(Op.MOV_RI, R14, Mag("p1_lo")),
        _p(Op.CMP_RR, R15, R14),
        _p(Op.JB, TrapTo(VIOL_P1)),
        _p(Op.MOV_RI, R14, Mag("p1_hi")),
        _p(Op.CMP_RR, R15, R14),
        _p(Op.JAE, TrapTo(VIOL_P1)),
    ]


def rsp_guard_pattern() -> Pattern:
    """Check RSP validity after an explicit stack-pointer write (P2)."""
    return [
        _p(Op.MOV_RI, R14, Mag("stack_lo")),
        _p(Op.CMP_RR, RSP, R14),
        _p(Op.JB, TrapTo(VIOL_P2)),
        _p(Op.MOV_RI, R14, Mag("stack_hi")),
        _p(Op.CMP_RR, RSP, R14),
        _p(Op.JA, TrapTo(VIOL_P2)),
    ]


def indirect_branch_pattern() -> Pattern:
    """Forward-edge CFI check before CALL/JMP through a register (P5).

    The target must fall inside the loaded code and its byte in the
    loader-built valid-target map must be 1 — the runtime equivalent of
    "the target is always on the (indirect-branch) list".
    """
    return [
        _p(Op.MOV_RR, R14, TargetReg()),
        _p(Op.MOV_RI, R15, Mag("code_base")),
        _p(Op.SUB_RR, R14, R15),
        _p(Op.MOV_RI, R15, Mag("code_len")),
        _p(Op.CMP_RR, R14, R15),
        _p(Op.JAE, TrapTo(VIOL_P5_TARGET)),
        _p(Op.MOV_RI, R15, Mag("brmap_base")),
        _p(Op.ADD_RR, R15, R14),
        _p(Op.LDB, R14, Mem(R15)),
        _p(Op.CMP_RI, R14, ImmAtom(1)),
        _p(Op.JNE, TrapTo(VIOL_P5_TARGET)),
    ]


def shadow_prologue_pattern(mt_safe: bool = False) -> Pattern:
    """Push the return address onto the shadow stack at function entry
    (P5 backward edge).

    The default variant keeps the shadow-stack pointer in a loader
    cell.  The ``mt_safe`` variant (§VII) keeps it in the reserved R13
    register — per-thread by construction, immune to cross-thread
    TOCTOU on the metadata.
    """
    if mt_safe:
        return [
            _p(Op.MOV_RI, R14, Mag("ss_top")),
            _p(Op.CMP_RR, R13, R14),
            _p(Op.JAE, TrapTo(VIOL_P5_SHADOW)),
            _p(Op.MOV_RM, R14, Mem(RSP)),
            _p(Op.MOV_MR, Mem(R13), R14),
            _p(Op.ADD_RI, R13, ImmAtom(8)),
        ]
    return [
        _p(Op.MOV_RI, R14, Mag("ss_cell")),
        _p(Op.MOV_RM, R15, Mem(R14)),
        _p(Op.MOV_RI, R13, Mag("ss_top")),
        _p(Op.CMP_RR, R15, R13),
        _p(Op.JAE, TrapTo(VIOL_P5_SHADOW)),
        _p(Op.MOV_RM, R13, Mem(RSP)),
        _p(Op.MOV_MR, Mem(R15), R13),
        _p(Op.ADD_RI, R15, ImmAtom(8)),
        _p(Op.MOV_MR, Mem(R14), R15),
    ]


def shadow_epilogue_pattern(mt_safe: bool = False) -> Pattern:
    """Pop the shadow stack and compare with the live return address
    immediately before RET (P5 backward edge)."""
    if mt_safe:
        return [
            _p(Op.SUB_RI, R13, ImmAtom(8)),
            _p(Op.MOV_RI, R14, Mag("ss_base")),
            _p(Op.CMP_RR, R13, R14),
            _p(Op.JB, TrapTo(VIOL_P5_SHADOW)),
            _p(Op.MOV_RM, R14, Mem(R13)),
            _p(Op.MOV_RM, R15, Mem(RSP)),
            _p(Op.CMP_RR, R14, R15),
            _p(Op.JNE, TrapTo(VIOL_P5_RET)),
        ]
    return [
        _p(Op.MOV_RI, R14, Mag("ss_cell")),
        _p(Op.MOV_RM, R15, Mem(R14)),
        _p(Op.SUB_RI, R15, ImmAtom(8)),
        _p(Op.MOV_RI, R13, Mag("ss_base")),
        _p(Op.CMP_RR, R15, R13),
        _p(Op.JB, TrapTo(VIOL_P5_SHADOW)),
        _p(Op.MOV_MR, Mem(R14), R15),
        _p(Op.MOV_RM, R13, Mem(R15)),
        _p(Op.MOV_RM, R14, Mem(RSP)),
        _p(Op.CMP_RR, R13, R14),
        _p(Op.JNE, TrapTo(VIOL_P5_RET)),
    ]


def p6_guard_pattern() -> Pattern:
    """HyperRace SSA-marker inspection at every basic-block entry (P6).

    Fast path (marker intact — no AEX since the last check): load,
    compare, one taken branch.  Slow path (marker clobbered by an AEX
    register dump): bump the software AEX counter, abort past the
    threshold, and restore the marker.
    """
    return [
        _p(Op.MOV_RI, R14, Mag("ssa_marker")),          # 0
        _p(Op.MOV_RM, R15, Mem(R14)),                   # 1
        _p(Op.CMP_RI, R15, ImmAtom(MARKER_VALUE)),      # 2
        _p(Op.JE, LocalTo(13)),                         # 3  intact: done
        _p(Op.MOV_RI, R14, Mag("aex_cnt")),             # 4
        _p(Op.MOV_RM, R15, Mem(R14)),                   # 5
        _p(Op.ADD_RI, R15, ImmAtom(1)),                 # 6
        _p(Op.MOV_MR, Mem(R14), R15),                   # 7
        _p(Op.MOV_RI, R13, Mag("aex_threshold")),       # 8
        _p(Op.CMP_RR, R15, R13),                        # 9
        _p(Op.JA, TrapTo(VIOL_P6)),                     # 10
        _p(Op.MOV_RI, R14, Mag("ssa_marker")),          # 11 reload
        _p(Op.MOV_MI, Mem(R14), ImmAtom(MARKER_VALUE)),  # 12 refresh
    ]


# ---------------------------------------------------------------------------
# Matching (consumer side)
# ---------------------------------------------------------------------------

@dataclass
class MatchResult:
    """Outcome of matching one template at one stream position."""

    matched: bool
    reason: str = ""
    end_index: int = 0
    target_reg: Optional[int] = None
    anchor_mem: Optional[Mem] = None
    #: (absolute text offset of imm64 field, magic name) for the rewriter.
    magic_slots: List[Tuple[int, str]] = field(default_factory=list)
    #: Text offsets of every instruction consumed by the match.
    interior_offsets: List[int] = field(default_factory=list)
    #: AnchorReg captures: pattern atom index -> observed register; the
    #: caller must compare them against the anchor's actual operands.
    anchor_regs: dict = field(default_factory=dict)


# Atom codes for compiled patterns: the isinstance chain in
# ``match_pattern`` is resolved once at compile time and the matcher
# dispatches on small ints.
_A_EXACT, _A_MAG, _A_IMM, _A_TRAP, _A_LOCAL, _A_TREG, _A_AMEM, \
    _A_AREG = range(8)

_COMPILE_CODES = ((Mag, _A_MAG), (ImmAtom, _A_IMM), (TrapTo, _A_TRAP),
                  (LocalTo, _A_LOCAL), (TargetReg, _A_TREG),
                  (AnchorMem, _A_AMEM), (AnchorReg, _A_AREG))


@dataclass(frozen=True)
class CompiledPattern:
    """A template preprocessed for the verifier's hot loop.

    ``rows[k] = (op, encoded_length, checks)`` with
    ``checks = ((operand_pos, atom_code, payload), ...)`` — the atom
    isinstance dispatch and ``SPECS`` length lookups are paid once at
    verifier construction instead of on every match attempt.
    """

    rows: tuple
    size: int


def compile_pattern(pattern: Pattern) -> CompiledPattern:
    """Precompile ``pattern`` for :func:`match_compiled`."""
    rows = []
    for pinstr in pattern:
        checks = []
        for pos, atom in enumerate(pinstr.atoms):
            for cls, code in _COMPILE_CODES:
                if isinstance(atom, cls):
                    break
            else:
                code = _A_EXACT
            if code == _A_MAG:
                payload = (MAGIC[atom.name], atom.name)
            elif code == _A_IMM:
                payload = atom.value
            elif code == _A_TRAP:
                payload = atom.code
            elif code in (_A_LOCAL, _A_AREG):
                payload = atom.index
            elif code == _A_EXACT:
                payload = atom
            else:
                payload = None
            checks.append((pos, code, payload))
        rows.append((pinstr.op, SPECS[pinstr.op].length, tuple(checks)))
    return CompiledPattern(tuple(rows), len(rows))


def match_compiled(compiled: CompiledPattern, stream, index: int,
                   trap_pads: Dict[int, int]) -> MatchResult:
    """Match a precompiled template against ``stream[index:]``.

    Behaviourally identical to :func:`match_pattern` on the source
    pattern — same accept/reject decisions, same ``MatchResult``
    contents, same rejection reasons.
    """
    result = MatchResult(matched=False)
    captured_reg: Optional[int] = None
    captured_mem: Optional[Mem] = None
    n = len(stream)
    if index + compiled.size > n:
        result.reason = "stream too short for annotation"
        return result
    interior = result.interior_offsets
    magic_slots = result.magic_slots
    for k, (want_op, enc_len, checks) in enumerate(compiled.rows):
        offset, instr = stream[index + k]
        if instr.op != want_op:
            result.reason = (f"annotation[{k}] opcode mismatch at "
                             f"{offset:#x}")
            return result
        operands = instr.operands
        for pos, code, payload in checks:
            operand = operands[pos]
            if code == _A_EXACT:
                if operand != payload:
                    result.reason = (f"annotation[{k}] operand mismatch "
                                     f"at {offset:#x}")
                    return result
            elif code == _A_MAG:
                if operand != payload[0]:
                    result.reason = (f"annotation[{k}] expected magic "
                                     f"{payload[1]} at {offset:#x}")
                    return result
                magic_slots.append(
                    (offset + MOV_RI_IMM_OFFSET, payload[1]))
            elif code == _A_IMM:
                if operand != payload:
                    result.reason = (f"annotation[{k}] bad immediate at "
                                     f"{offset:#x}")
                    return result
            elif code == _A_TRAP:
                if trap_pads.get(offset + enc_len + operand) != payload:
                    result.reason = (f"annotation[{k}] does not trap to "
                                     f"pad {payload} at {offset:#x}")
                    return result
            elif code == _A_LOCAL:
                want_index = index + payload
                if want_index >= n:
                    result.reason = (f"annotation[{k}] local target past "
                                     f"stream end")
                    return result
                if offset + enc_len + operand != stream[want_index][0]:
                    result.reason = (f"annotation[{k}] bad local target "
                                     f"at {offset:#x}")
                    return result
            elif code == _A_TREG:
                if not isinstance(operand, int) or \
                        operand in RESERVED_REGS or operand == RSP:
                    result.reason = (f"annotation[{k}] illegal target "
                                     f"register at {offset:#x}")
                    return result
                if captured_reg is None:
                    captured_reg = operand
                elif captured_reg != operand:
                    result.reason = (f"annotation[{k}] inconsistent "
                                     f"target register at {offset:#x}")
                    return result
            elif code == _A_AMEM:
                if not isinstance(operand, Mem):
                    result.reason = (f"annotation[{k}] expected memory "
                                     f"operand at {offset:#x}")
                    return result
                captured_mem = operand
            else:  # _A_AREG
                if not isinstance(operand, int):
                    result.reason = (f"annotation[{k}] expected register "
                                     f"at {offset:#x}")
                    return result
                if payload in result.anchor_regs and \
                        result.anchor_regs[payload] != operand:
                    result.reason = (f"annotation[{k}] inconsistent "
                                     f"anchor register at {offset:#x}")
                    return result
                result.anchor_regs[payload] = operand
        interior.append(offset)
    result.matched = True
    result.end_index = index + compiled.size
    result.target_reg = captured_reg
    result.anchor_mem = captured_mem
    return result


# The interpretive reference matcher lives in repro.policy.reference,
# outside the measured consumer; the verifier matches every annotation
# through :func:`match_compiled` above.
