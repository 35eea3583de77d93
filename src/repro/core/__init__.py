"""The code consumer: everything inside the bootstrap enclave's TCB.

This package is the paper's contribution — deliberately small (the
paper: loader < 600 LoC, verifier < 700 LoC).  :mod:`repro.tcb` holds
the one list of consumer files: it counts them, and
``bootstrap.consumer_image`` measures exactly them (the import closure
of :mod:`bootstrap` inside ``repro.core`` and ``repro.policy``).  The
paper's Loader/Verifier row:

* :mod:`rdd` — the clipped recursive-descent disassembler (the role
  Capstone's stripped core plays in the paper);
* :mod:`loader` — dynamic loading/relocation onto RWX pages, guard
  pages, shadow stack and valid-target byte map setup;
* :mod:`verifier` — the just-enough policy-compliance verifier that
  pattern-checks every security annotation;
* :mod:`rewriter` — the immediate-operand rewriter that patches magic
  placeholders with real enclave addresses;
* :mod:`bootstrap` — the bootstrap enclave tying it all together:
  attestation, delivery ECalls, P0 OCall wrappers, execution.

Also run by the ECalls, and counted in a row the paper does not have:
:mod:`checkpoint` (sealed checkpoints and the one run loop),
:mod:`cache` (the provision cache), :mod:`audit` (the event hash
chain), :mod:`outcome` (run records), :mod:`threads` (multithreaded
runs and their P5 gate) and :mod:`tracing` (single-stepped runs).

Not measured: :mod:`legacy` (the seed pipeline kept as a differential
oracle) and :mod:`provenance` (orchestrator-side handoff chains).
"""

from .rdd import DisassembledCode, recursive_descent
from .loader import DynamicLoader, LoadedBinary
from .verifier import PolicyVerifier, VerifiedBinary
from .rewriter import ImmRewriter, build_value_map
from .bootstrap import BootstrapEnclave, RunOutcome

__all__ = [
    "DisassembledCode", "recursive_descent",
    "DynamicLoader", "LoadedBinary",
    "PolicyVerifier", "VerifiedBinary",
    "ImmRewriter", "build_value_map",
    "BootstrapEnclave", "RunOutcome",
]
