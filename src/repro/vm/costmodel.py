"""Cycle cost model for DX86 execution.

The paper measures wall-clock time on a Xeon E3-1280; an interpreter
cannot reproduce absolute times, so overheads are computed from a
deterministic cycle account instead.  Costs model a modern out-of-order
core at a coarse grain:

* simple ALU/move/compare ops are fractional — a 4-wide core retires
  several per cycle, which is why Fig. 5's 7-instruction annotation
  costs real x86 only a few percent;
* memory operations carry an L1-dominated average; accesses to the
  loader's *hot cells* (shadow-stack top, SSA marker, AEX counter, the
  branch byte map — a handful of permanently-L1-resident lines hammered
  by every annotation) cost ``hot_mem_cost`` instead;
* multiply/divide and call/return carry their real latencies; enclave
  transitions (OCall) pay the ~8k-cycle SGX round trip.

The constants were calibrated once against the regimes Table II reports
(store-guard overhead in the single digits to ~15%, CFI hurting
indirect-branch-heavy code most, P6 the largest increment), then
frozen; benchmarks only compare ratios computed under the same model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..isa.instructions import Op

#: Opcodes whose cost is reduced to ``hot_mem_cost`` when the effective
#: address falls inside the hot loader-cell range.
MEM_OPS = frozenset({Op.MOV_RM, Op.MOV_MR, Op.MOV_MI, Op.LDB, Op.STB})


def _default_costs() -> Dict[int, float]:
    cheap = 0.25       # issues in parallel on a wide core
    load = 3.0         # L1-dominated average
    store = 3.0
    branch = 0.6
    costs = {
        Op.NOP: cheap, Op.HLT: 1.0, Op.TRAP: 1.0,
        Op.MOV_RR: cheap, Op.MOV_RI: cheap, Op.LEA: cheap,
        Op.MOV_RM: load, Op.LDB: load,
        Op.MOV_MR: store, Op.MOV_MI: store, Op.STB: store,
        Op.NEG: cheap, Op.NOT: cheap,
        Op.CMP_RR: cheap, Op.CMP_RI: cheap, Op.TEST_RR: cheap,
        Op.JMP: branch, Op.JMP_R: 1.2,
        Op.CALL: 12.0, Op.CALL_R: 13.0, Op.RET: 12.0,
        Op.PUSH_R: store, Op.PUSH_I: store, Op.POP_R: load,
        Op.SVC: 8000.0,
    }
    for op in (Op.ADD_RR, Op.SUB_RR, Op.AND_RR, Op.OR_RR, Op.XOR_RR,
               Op.SHL_RR, Op.SHR_RR, Op.SAR_RR,
               Op.ADD_RI, Op.SUB_RI, Op.AND_RI, Op.OR_RI, Op.XOR_RI,
               Op.SHL_RI, Op.SHR_RI, Op.SAR_RI):
        costs[op] = cheap
    costs[Op.IMUL_RR] = 3.0
    costs[Op.IMUL_RI] = 3.0
    for op in (Op.DIV_RR, Op.DIV_RI, Op.MOD_RR, Op.MOD_RI):
        costs[op] = 26.0
    for op in (Op.JE, Op.JNE, Op.JL, Op.JLE, Op.JG, Op.JGE,
               Op.JB, Op.JBE, Op.JA, Op.JAE):
        costs[op] = branch
    return costs


@dataclass
class CostModel:
    """Per-opcode cycle costs plus event costs."""

    costs: Dict[int, float] = field(default_factory=_default_costs)
    #: Full AEX round trip (exit + OS handling + ERESUME).
    aex_cost: float = 12000.0
    #: Memory ops hitting the annotation hot cells cost this instead.
    hot_mem_cost: float = 1.0
    #: EPC model (§II: "virtual memory support is available, [but] it
    #: incurs significant overheads in paging").  When ``epc_pages`` is
    #: nonzero, the CPU tracks the enclave's resident working set with
    #: an LRU of that many 4 KiB pages; touching a non-resident page
    #: pays ``epc_paging_cost`` (EWB+ELDU round trip: encrypt, evict,
    #: reload, MAC-check).  0 disables the model — the default for the
    #: kilobyte-scale benchmark workloads, which fit the EPC trivially.
    epc_pages: int = 0
    epc_paging_cost: float = 40000.0
    #: Which execution engine :class:`~repro.vm.cpu.CPU` uses by
    #: default: ``"translate"`` (superblock-translating executor) or
    #: ``"step"`` (the legacy single-step interpreter, kept as a
    #: differential oracle).  A ``CPU(executor=...)`` argument wins.
    executor: str = "translate"
    #: Block-cache capacity (LRU-evicted beyond this): bounds memory on
    #: pathological self-modifying workloads that mint fresh leaders.
    jit_block_cap: int = 4096

    def cost_of(self, op: int) -> float:
        return self.costs[op]

    @classmethod
    def unit(cls) -> "CostModel":
        """Every instruction costs 1 — pure instruction counting."""
        return cls(costs={op: 1.0 for op in _default_costs()},
                   aex_cost=0.0, hot_mem_cost=1.0)

    @classmethod
    def with_epc_limit(cls, pages: int) -> "CostModel":
        """Default costs plus an EPC residency limit of ``pages``."""
        return cls(epc_pages=pages)
