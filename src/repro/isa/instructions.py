"""DX86 instruction set: opcodes, operand signatures, instruction objects.

Each opcode has a fixed operand *signature* and therefore a fixed encoded
length.  Signatures (encoded sizes in bytes, after the 1-byte opcode):

====== ================================================= =====
sig    operands                                          bytes
====== ================================================= =====
``''``     none                                          0
``r``      one register                                  1
``rr``     two registers (dst, src)                      2
``ri64``   register + 64-bit immediate                   9
``ri32``   register + signed 32-bit immediate            5
``rm``     register + memory operand                     8
``mr``     memory operand + register                     8
``mi32``   memory operand + signed 32-bit immediate      11
``rel32``  signed 32-bit branch displacement             4
``i8``     8-bit immediate                               1
``i16``    16-bit immediate                              2
``i32``    signed 32-bit immediate                       4
====== ================================================= =====

``rel32`` displacements are relative to the address of the *next*
instruction, exactly as on x86.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .registers import RSP


class Op:
    """Opcode namespace (plain ints for dispatch speed)."""

    NOP = 0x00
    HLT = 0x01
    TRAP = 0x02

    MOV_RR = 0x10
    MOV_RI = 0x11
    MOV_RM = 0x12
    MOV_MR = 0x13
    MOV_MI = 0x14
    LEA = 0x15
    LDB = 0x16
    STB = 0x17

    ADD_RR = 0x20
    SUB_RR = 0x21
    IMUL_RR = 0x22
    AND_RR = 0x23
    OR_RR = 0x24
    XOR_RR = 0x25
    SHL_RR = 0x26
    SHR_RR = 0x27
    SAR_RR = 0x28
    DIV_RR = 0x29
    MOD_RR = 0x2A
    NEG = 0x2B
    NOT = 0x2C

    ADD_RI = 0x30
    SUB_RI = 0x31
    IMUL_RI = 0x32
    AND_RI = 0x33
    OR_RI = 0x34
    XOR_RI = 0x35
    SHL_RI = 0x36
    SHR_RI = 0x37
    SAR_RI = 0x38
    DIV_RI = 0x39
    MOD_RI = 0x3A

    CMP_RR = 0x40
    CMP_RI = 0x41
    TEST_RR = 0x42

    JMP = 0x50
    JMP_R = 0x51
    JE = 0x58
    JNE = 0x59
    JL = 0x5A
    JLE = 0x5B
    JG = 0x5C
    JGE = 0x5D
    JB = 0x5E
    JBE = 0x5F
    JA = 0x60
    JAE = 0x61

    CALL = 0x70
    CALL_R = 0x71
    RET = 0x72
    PUSH_R = 0x73
    PUSH_I = 0x74
    POP_R = 0x75

    SVC = 0x80


@dataclass(frozen=True)
class Mem:
    """A ``[base + index*scale + disp]`` memory operand."""

    base: Optional[int] = None
    index: Optional[int] = None
    scale: int = 1
    disp: int = 0

    def __post_init__(self):
        if self.scale not in (1, 2, 4, 8):
            raise ValueError(f"bad scale {self.scale}")


@dataclass(frozen=True)
class Label:
    """A symbolic branch target, resolved by the assembler."""

    name: str


@dataclass(frozen=True)
class LabelDef:
    """Defines a label at the current position in an assembly stream."""

    name: str


@dataclass(frozen=True)
class SymbolRef:
    """A 64-bit immediate that refers to a symbol (emits a relocation)."""

    name: str
    addend: int = 0


Operand = Union[int, Mem, Label, SymbolRef]

_SIG_SIZES = {
    "": 0, "r": 1, "rr": 2, "ri64": 9, "ri32": 5,
    "rm": 8, "mr": 8, "mi32": 11, "rel32": 4,
    "i8": 1, "i16": 2, "i32": 4,
}


@dataclass(frozen=True)
class InstrSpec:
    """Static description of one opcode."""

    code: int
    name: str
    sig: str

    @property
    def length(self) -> int:
        return 1 + _SIG_SIZES[self.sig]


def _specs() -> dict:
    table = [
        (Op.NOP, "nop", ""), (Op.HLT, "hlt", ""), (Op.TRAP, "trap", "i8"),
        (Op.MOV_RR, "mov", "rr"), (Op.MOV_RI, "mov", "ri64"),
        (Op.MOV_RM, "mov", "rm"), (Op.MOV_MR, "mov", "mr"),
        (Op.MOV_MI, "mov", "mi32"), (Op.LEA, "lea", "rm"),
        (Op.LDB, "ldb", "rm"), (Op.STB, "stb", "mr"),
        (Op.ADD_RR, "add", "rr"), (Op.SUB_RR, "sub", "rr"),
        (Op.IMUL_RR, "imul", "rr"), (Op.AND_RR, "and", "rr"),
        (Op.OR_RR, "or", "rr"), (Op.XOR_RR, "xor", "rr"),
        (Op.SHL_RR, "shl", "rr"), (Op.SHR_RR, "shr", "rr"),
        (Op.SAR_RR, "sar", "rr"), (Op.DIV_RR, "div", "rr"),
        (Op.MOD_RR, "mod", "rr"), (Op.NEG, "neg", "r"),
        (Op.NOT, "not", "r"),
        (Op.ADD_RI, "add", "ri32"), (Op.SUB_RI, "sub", "ri32"),
        (Op.IMUL_RI, "imul", "ri32"), (Op.AND_RI, "and", "ri32"),
        (Op.OR_RI, "or", "ri32"), (Op.XOR_RI, "xor", "ri32"),
        (Op.SHL_RI, "shl", "ri32"), (Op.SHR_RI, "shr", "ri32"),
        (Op.SAR_RI, "sar", "ri32"), (Op.DIV_RI, "div", "ri32"),
        (Op.MOD_RI, "mod", "ri32"),
        (Op.CMP_RR, "cmp", "rr"), (Op.CMP_RI, "cmp", "ri32"),
        (Op.TEST_RR, "test", "rr"),
        (Op.JMP, "jmp", "rel32"), (Op.JMP_R, "jmp", "r"),
        (Op.JE, "je", "rel32"), (Op.JNE, "jne", "rel32"),
        (Op.JL, "jl", "rel32"), (Op.JLE, "jle", "rel32"),
        (Op.JG, "jg", "rel32"), (Op.JGE, "jge", "rel32"),
        (Op.JB, "jb", "rel32"), (Op.JBE, "jbe", "rel32"),
        (Op.JA, "ja", "rel32"), (Op.JAE, "jae", "rel32"),
        (Op.CALL, "call", "rel32"), (Op.CALL_R, "call", "r"),
        (Op.RET, "ret", ""), (Op.PUSH_R, "push", "r"),
        (Op.PUSH_I, "push", "i32"), (Op.POP_R, "pop", "r"),
        (Op.SVC, "svc", "i16"),
    ]
    return {code: InstrSpec(code, name, sig) for code, name, sig in table}


SPECS = _specs()

#: Conditional jump opcodes and their flag predicates (see vm/cpu.py).
COND_JUMPS = frozenset({
    Op.JE, Op.JNE, Op.JL, Op.JLE, Op.JG, Op.JGE,
    Op.JB, Op.JBE, Op.JA, Op.JAE,
})

STORE_OPS = frozenset({Op.MOV_MR, Op.MOV_MI, Op.STB})
LOAD_OPS = frozenset({Op.MOV_RM, Op.LDB})
INDIRECT_BRANCH_OPS = frozenset({Op.JMP_R, Op.CALL_R})

#: Opcodes that end fall-through execution (basic-block terminators that
#: do not continue to the next instruction).
NO_FALLTHROUGH_OPS = frozenset({Op.JMP, Op.JMP_R, Op.RET, Op.HLT, Op.TRAP})

#: Opcodes that end a *superblock* for the translating executor: every
#: control transfer plus the escape points (SVC, HLT, TRAP) where the VM
#: must materialize architectural state for the dispatch loop.
BLOCK_TERMINATORS = NO_FALLTHROUGH_OPS | COND_JUMPS | \
    frozenset({Op.CALL, Op.CALL_R, Op.SVC})

#: ALU opcodes whose first operand is a written destination register.
_REG_DST_OPS = frozenset({
    Op.MOV_RR, Op.MOV_RI, Op.MOV_RM, Op.LEA, Op.LDB,
    Op.ADD_RR, Op.SUB_RR, Op.IMUL_RR, Op.AND_RR, Op.OR_RR, Op.XOR_RR,
    Op.SHL_RR, Op.SHR_RR, Op.SAR_RR, Op.DIV_RR, Op.MOD_RR,
    Op.NEG, Op.NOT,
    Op.ADD_RI, Op.SUB_RI, Op.IMUL_RI, Op.AND_RI, Op.OR_RI, Op.XOR_RI,
    Op.SHL_RI, Op.SHR_RI, Op.SAR_RI, Op.DIV_RI, Op.MOD_RI,
    Op.POP_R,
})


class Instruction:
    """One DX86 instruction: an opcode plus an operand tuple.

    Before assembly, ``rel32`` operands may be :class:`Label` and ``ri64``
    immediates may be :class:`SymbolRef`; after decoding they are plain
    ints.
    """

    __slots__ = ("op", "operands")

    def __init__(self, op: int, *operands: Operand):
        self.op = op
        self.operands = operands

    @property
    def spec(self) -> InstrSpec:
        return SPECS[self.op]

    @property
    def length(self) -> int:
        return SPECS[self.op].length

    def __eq__(self, other):
        return (isinstance(other, Instruction)
                and self.op == other.op and self.operands == other.operands)

    def __hash__(self):
        return hash((self.op, self.operands))

    def __repr__(self):
        from .disassembler import format_instruction
        return f"<{format_instruction(self)}>"


def instr_length(op: int) -> int:
    """Encoded length in bytes of opcode ``op``."""
    return SPECS[op].length


def is_store(instr: Instruction) -> bool:
    """True if ``instr`` explicitly writes memory through a Mem operand."""
    return instr.op in STORE_OPS


def is_load(instr: Instruction) -> bool:
    return instr.op in LOAD_OPS


def is_indirect_branch(instr: Instruction) -> bool:
    return instr.op in INDIRECT_BRANCH_OPS


def is_cond_jump(instr: Instruction) -> bool:
    return instr.op in COND_JUMPS


def writes_rsp_explicitly(instr: Instruction) -> bool:
    """True if ``instr`` writes RSP through its destination register.

    PUSH/POP/CALL/RET adjust RSP *implicitly*; those are covered by the
    loader's guard pages (policy P2's second half), not by annotations.
    POP into RSP counts as explicit.
    """
    if instr.op in _REG_DST_OPS and instr.operands:
        dst = instr.operands[0]
        return isinstance(dst, int) and dst == RSP
    return False
