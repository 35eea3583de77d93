"""Reference (interpretive) template matcher.

The verifier's hot loop uses the compiled matcher in
:mod:`repro.policy.templates`; this interpretive walk over the atom
dataclasses is kept as the readable specification and as the matcher
the legacy oracle pipeline runs.  It lives outside the templates
module so the measured consumer image and the TCB count cover only
the template definitions and the one matcher the production verifier
dispatches through.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..isa.encoding import MOV_RI_IMM_OFFSET
from ..isa.instructions import Mem
from ..isa.registers import RESERVED_REGS, RSP
from .magic import MAGIC
from .templates import (
    AnchorMem, AnchorReg, ImmAtom, LocalTo, Mag, MatchResult, Pattern,
    TargetReg, TrapTo,
)


def match_pattern(pattern: Pattern, stream, index: int,
                  trap_pads: Dict[int, int]) -> MatchResult:
    """Match ``pattern`` against ``stream[index:]``.

    ``stream`` is a list of ``(offset, Instruction)`` in address order
    (as produced by the recursive-descent disassembler);``trap_pads``
    maps text offsets of TRAP pads to their violation codes.
    """
    result = MatchResult(matched=False)
    captured_reg: Optional[int] = None
    captured_mem: Optional[Mem] = None
    if index + len(pattern) > len(stream):
        result.reason = "stream too short for annotation"
        return result
    for k, pinstr in enumerate(pattern):
        offset, instr = stream[index + k]
        if instr.op != pinstr.op:
            result.reason = (f"annotation[{k}] opcode mismatch at "
                             f"{offset:#x}")
            return result
        for pos, atom in enumerate(pinstr.atoms):
            operand = instr.operands[pos]
            if isinstance(atom, Mag):
                if operand != MAGIC[atom.name]:
                    result.reason = (f"annotation[{k}] expected magic "
                                     f"{atom.name} at {offset:#x}")
                    return result
                result.magic_slots.append(
                    (offset + MOV_RI_IMM_OFFSET, atom.name))
            elif isinstance(atom, ImmAtom):
                if operand != atom.value:
                    result.reason = (f"annotation[{k}] bad immediate at "
                                     f"{offset:#x}")
                    return result
            elif isinstance(atom, TrapTo):
                target = offset + instr.length + operand
                if trap_pads.get(target) != atom.code:
                    result.reason = (f"annotation[{k}] does not trap to "
                                     f"pad {atom.code} at {offset:#x}")
                    return result
            elif isinstance(atom, LocalTo):
                want_index = index + atom.index
                if want_index >= len(stream):
                    result.reason = (f"annotation[{k}] local target past "
                                     f"stream end")
                    return result
                target = offset + instr.length + operand
                if target != stream[want_index][0]:
                    result.reason = (f"annotation[{k}] bad local target at "
                                     f"{offset:#x}")
                    return result
            elif isinstance(atom, TargetReg):
                if not isinstance(operand, int) or \
                        operand in RESERVED_REGS or operand == RSP:
                    result.reason = (f"annotation[{k}] illegal target "
                                     f"register at {offset:#x}")
                    return result
                if captured_reg is None:
                    captured_reg = operand
                elif captured_reg != operand:
                    result.reason = (f"annotation[{k}] inconsistent target "
                                     f"register at {offset:#x}")
                    return result
            elif isinstance(atom, AnchorMem):
                if not isinstance(operand, Mem):
                    result.reason = (f"annotation[{k}] expected memory "
                                     f"operand at {offset:#x}")
                    return result
                captured_mem = operand
            elif isinstance(atom, AnchorReg):
                if not isinstance(operand, int):
                    result.reason = (f"annotation[{k}] expected register "
                                     f"at {offset:#x}")
                    return result
                if atom.index in result.anchor_regs and \
                        result.anchor_regs[atom.index] != operand:
                    result.reason = (f"annotation[{k}] inconsistent "
                                     f"anchor register at {offset:#x}")
                    return result
                result.anchor_regs[atom.index] = operand
            else:
                if operand != atom:
                    result.reason = (f"annotation[{k}] operand mismatch at "
                                     f"{offset:#x}")
                    return result
        result.interior_offsets.append(offset)
    result.matched = True
    result.end_index = index + len(pattern)
    result.target_reg = captured_reg
    result.anchor_mem = captured_mem
    return result
