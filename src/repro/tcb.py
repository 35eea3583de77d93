"""TCB accounting: measure this repository's code-consumer size.

The paper's headline TCB claim (§VI-A) is that the in-enclave consumer
is ~2 kLoC (loader < 600 LoC, verifier < 700 LoC) plus a clipped
disassembler, vastly smaller than libOS runtimes.  This module counts
the equivalent components of this repository so Table I can carry
*measured* numbers for the DEFLECTION row.  It also owns the one list of
consumer files (:data:`CONSUMER_ROWS`): the bootstrap enclave's
measured image (``repro.core.bootstrap.consumer_image``) hashes exactly
those files, so what is counted is what is attested.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List

_PKG = Path(__file__).parent


def count_loc(paths: Iterable[Path]) -> int:
    """Count non-blank, non-comment source lines."""
    total = 0
    for path in paths:
        in_docstring = False
        for line in path.read_text().splitlines():
            stripped = line.strip()
            if not stripped:
                continue
            if in_docstring:
                if stripped.endswith('"""') or stripped.endswith("'''"):
                    in_docstring = False
                continue
            if stripped.startswith(('"""', "'''")):
                quote = stripped[:3]
                body = stripped[3:]
                if not (body.endswith(quote) and len(body) >= 3) and \
                        not (len(stripped) > 3 and
                             stripped.endswith(quote)):
                    in_docstring = True
                continue
            if stripped.startswith("#"):
                continue
            total += 1
    return total


@dataclass(frozen=True)
class TcbComponentMeasurement:
    name: str
    files: tuple
    loc: int

    @property
    def kloc(self) -> float:
        return self.loc / 1000.0

    @property
    def label(self) -> str:
        """Row label for tables: rows the paper's Table I has no
        counterpart for say so."""
        if self.name in NOT_IN_PAPER:
            return f"{self.name} (not in paper)"
        return self.name


def _files(*relative: str) -> List[Path]:
    return [_PKG / rel for rel in relative]


#: The in-enclave consumer: every module of ``repro.core`` and
#: ``repro.policy`` that ``core/bootstrap.py`` imports, directly or
#: through each other.  The first row is the paper's Loader/Verifier;
#: the second holds what the ECalls also run but the paper does not
#: count (checkpoint sealing, the provision cache, the audit chain,
#: run records, the multithreading gate, tracing).
CONSUMER_ROWS = {
    "Loader/Verifier": (
        "core/loader.py", "core/rewriter.py", "core/verifier.py",
        "core/rdd.py", "core/bootstrap.py", "core/proofcheck.py",
        "policy/templates.py", "policy/magic.py", "policy/policies.py"),
    "Checkpoint/cache/audit": (
        "core/checkpoint.py", "core/cache.py", "core/audit.py",
        "core/outcome.py", "core/threads.py", "core/tracing.py"),
}

#: Rows of :data:`CONSUMER_ROWS` that the paper's Table I has no
#: counterpart for.
NOT_IN_PAPER = frozenset({"Checkpoint/cache/audit"})


def consumer_files() -> List[Path]:
    """The consumer's source files, in table order."""
    return [_PKG / rel for rows in CONSUMER_ROWS.values() for rel in rows]


def consumer_inventory() -> Dict[str, TcbComponentMeasurement]:
    """Measured DEFLECTION TCB components of this repository,
    mirroring the paper's Table I row structure."""
    groups = {
        **{name: _files(*rows) for name, rows in CONSUMER_ROWS.items()},
        "RA/Encryption": _files(
            "crypto/chacha.py", "crypto/dh.py", "crypto/hkdf.py",
            "crypto/sig.py", "crypto/channel.py",
            "sgx/quote.py", "sgx/attestation.py"),
        "Disassembler base": _files(
            "isa/encoding.py", "isa/instructions.py",
            "isa/disassembler.py", "isa/registers.py"),
        "Shim libc": _files("compiler/prelude.py"),
        "Other dependencies": _files(
            "sgx/memory.py", "sgx/layout.py", "sgx/enclave.py",
            "vm/cpu.py", "vm/costmodel.py", "vm/interrupts.py"),
    }
    out = {}
    for name, files in groups.items():
        out[name] = TcbComponentMeasurement(
            name, tuple(str(f.relative_to(_PKG)) for f in files),
            count_loc(files))
    return out


def verifier_core_loc() -> Dict[str, int]:
    """The paper's fine-grained claim: loader <600 LoC, verifier <700."""
    return {
        "loader": count_loc(_files("core/loader.py", "core/rewriter.py")),
        "verifier": count_loc(_files("core/verifier.py", "core/rdd.py")),
    }
