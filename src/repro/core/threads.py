"""Multi-threaded execution of a provisioned binary (§VII).

Part of the measured consumer: besides driving the VM-layer round-robin
scheduler and copying results out, this module holds the P5
multithreading gate — more than one thread under P5 requires the
MT-safe (register-held) shadow stack — which fails closed before any
thread runs.  It sits beside the bootstrap module, not in it, only to
keep that module about the single-thread ECalls.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import EnclaveError
from ..vm.costmodel import CostModel
from ..vm.cpu import ExecResult


def run_threads(boot, inputs, quantum: int = 500,
                cost_model: Optional[CostModel] = None,
                max_steps: int = 50_000_000) -> List["RunOutcome"]:
    """``ecall_run`` over N TCS slots (§VII multi-threading).

    Every thread executes the verified entry with its own stack
    slice, SSA frame and staged input; threads interleave in
    deterministic instruction quanta over the shared address space.
    Requires the layout to have enough TCS slots and — when P5 is
    on — the MT-safe contract (register-held shadow-stack pointer):
    the memory-cell variant would race across threads, the exact
    TOCTOU hazard the paper warns about.
    """
    from ..vm.smt import RoundRobinScheduler

    ios = boot._open_run(inputs)
    layout = boot.enclave.layout
    if len(inputs) > layout.num_threads:
        raise EnclaveError(
            f"{len(inputs)} threads but only {layout.num_threads} "
            f"TCS slots")
    if boot.policies.p5 and not boot.policies.mt_safe and \
            len(inputs) > 1:
        raise EnclaveError(
            "P5's memory-held shadow stack is not thread-safe; "
            "use the MT-safe policy variant (PolicySet.multithreaded)")
    outcomes = [io.outcome for io in ios]
    cpus = [boot._make_cpu(tid, io, None, cost_model)
            for tid, io in enumerate(ios)]
    threads = RoundRobinScheduler(cpus, quantum=quantum).run(
        max_steps_per_thread=max_steps)
    for thread, outcome in zip(threads, outcomes):
        cpu = thread.cpu
        outcome.result = ExecResult(cpu.steps, cpu.cycles, cpu.rip,
                                    cpu.aex_events, cpu.regs[0])
        if thread.status != "halted":
            outcome.status = thread.status
            outcome.detail = thread.detail
            outcome.violation_code = getattr(thread,
                                             "violation_code", 0)
        outcome.observable_cycles = boot._pad_time(
            outcome.result.cycles)
    boot.audit.record(
        "threads_completed", threads=len(outcomes),
        statuses=",".join(o.status for o in outcomes))
    return outcomes
