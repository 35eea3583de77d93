"""Slice-stepped execution tracing — a developer aid.

Part of the measured consumer (``ecall_run``'s traced variant runs the
target on the staged user data), kept out of the bootstrap module
because nothing on the provisioning or execution hot path depends on
it: the tracer re-renders instructions from the decode-once stream
(falling back to decoding live memory) and single-steps the CPU through
the same prologue and trap handling as every other run.
"""

from __future__ import annotations

from typing import List, Optional

from ..isa.disassembler import format_instruction
from ..isa.encoding import decode_instruction
from ..vm.costmodel import CostModel
from .checkpoint import executing


def run_traced(boot, max_instructions: int = 200,
               cost_model: Optional[CostModel] = None):
    """Single-step ``boot``'s target, returning ``(outcome, trace)``.

    ``trace`` is a list of disassembly lines (``addr: mnemonic``)
    for the first ``max_instructions`` executed — a developer aid
    (the hot path has no tracing hooks; this uses slice stepping).
    Lines come from the decode-once provisioning stream, so magic
    annotation immediates appear as their pre-rewrite placeholder
    constants; addresses outside the stream fall back to decoding
    live memory.
    """
    [io] = boot._open_run()
    outcome = io.outcome
    cpu = boot._make_cpu(0, io, None, cost_model)
    trace: List[str] = []
    space = boot.enclave.space
    code = boot.verified.code
    code_base = boot.loaded.code_base
    with executing(outcome, cpu):
        while len(trace) < max_instructions and not cpu.halted:
            ins = None
            if code is not None:
                idx = code.index_of.get(cpu.rip - code_base)
                if idx is not None:
                    ins = code.stream[idx][1]
            if ins is None:
                try:
                    ins, _ = decode_instruction(
                        space.enclave_view(),
                        cpu.rip - space.enclave_base)
                except Exception:
                    ins = None
            if ins is not None:
                trace.append(f"{cpu.rip:#x}: "
                             f"{format_instruction(ins)}")
            else:
                trace.append(f"{cpu.rip:#x}: <undecodable>")
            cpu.run(slice_steps=1)
        if not cpu.halted:
            trace.append("... (truncated)")
            outcome.status = "truncated"
    return outcome, trace
