"""Run-result records handed back across the ECall boundary.

These are pure data carriers: the bootstrap fills them in, the
untrusted host (and the bench harness) reads them.  They encode no
enforcement decision, but every run writes them inside the enclave, so
they are measured and counted with the consumer (the
``Checkpoint/cache/audit`` row of :mod:`repro.tcb`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..policy.magic import VIOLATION_NAMES
from ..vm.cpu import ExecResult


@dataclass
class RunOutcome:
    """Result of executing the provisioned target binary."""

    status: str                        # 'ok' | 'violation' | 'fault'
    result: Optional[ExecResult] = None
    reports: List[int] = field(default_factory=list)
    sent_plaintext: List[bytes] = field(default_factory=list)
    sent_wire: List[bytes] = field(default_factory=list)
    violation_code: int = 0
    detail: str = ""
    #: Cycle count as observed by the untrusted host: the true count
    #: rounded up to the padding quantum when time blurring is on.
    observable_cycles: float = 0.0
    #: Sealed checkpoints taken during this call (0 when checkpointing
    #: is off), and — for a resumed run — the step count the restored
    #: snapshot started from (None for a from-scratch run).
    checkpoints_taken: int = 0
    resumed_at_step: Optional[int] = None
    #: How many provisionings of this enclave were served from the
    #: provision cache (0 when the cache is off or every load verified).
    provision_cache_hits: int = 0
    #: Per-stage wall-clock seconds of the provisioning that produced
    #: the executed binary: ``parse``/``load``/``rdd``/``verify``/
    #: ``rewrite`` for a cold provision, ``install`` for a cache hit.
    provision_stages: Dict[str, float] = field(default_factory=dict)
    #: Translating-executor counters for this run (compile, dispatch,
    #: chain-hop, inline-cache and invalidation counts — see
    #: :meth:`repro.vm.cpu.CPU.jit_stats`); None under the step engine.
    jit_stats: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def violation_name(self) -> str:
        return VIOLATION_NAMES.get(self.violation_code, "")


@dataclass
class _ThreadIO:
    """Per-thread OCall-wrapper state: staged input and the outcome
    record the wrappers write into."""

    input: bytes
    cursor: int
    outcome: RunOutcome
