"""Policy switchboard.

The paper's generator has IR-level switches whose states flow down to the
backend instrumentation passes (§V-A); the verifier uses the *same*
policy set to know which annotations to demand.  ``PolicySet`` is that
shared switchboard.  P0 (interface constraint, output encryption, entropy
control) is enforced by the bootstrap enclave's ECall/OCall wrappers, not
by instrumentation, but is carried here so one object states the full
contract.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PolicySet:
    """Which policies the producer must instrument for and the verifier
    must check."""

    p0: bool = True   # interface control (bootstrap-enforced)
    p1: bool = False  # explicit out-of-enclave stores
    p2: bool = False  # implicit stores via RSP
    p3: bool = False  # security-critical data writes
    p4: bool = False  # runtime code modification (software DEP)
    p5: bool = False  # CFI: indirect branches + shadow stack
    p6: bool = False  # AEX side/covert-channel mitigation
    #: §VII multi-threading variant: CFI metadata (the shadow-stack
    #: pointer) lives in a reserved *register* (R13) instead of memory,
    #: so concurrent threads cannot race on it (TOCTOU-safe); each
    #: thread gets its own shadow-stack slice by construction.
    mt_safe: bool = False

    def __post_init__(self):
        if self.mt_safe and self.p6:
            raise ValueError(
                "P6's SSA marker is a per-thread memory cell; combining "
                "it with mt_safe needs per-thread instrumentation the "
                "paper leaves to future work")

    # -- presets matching the paper's evaluation columns -------------------

    @classmethod
    def none(cls) -> "PolicySet":
        """Baseline: pure loader, no instrumentation (paper's baseline)."""
        return cls(p0=True)

    @classmethod
    def p1_only(cls) -> "PolicySet":
        return cls(p1=True)

    @classmethod
    def p1_p2(cls) -> "PolicySet":
        return cls(p1=True, p2=True)

    @classmethod
    def p1_p5(cls) -> "PolicySet":
        return cls(p1=True, p2=True, p3=True, p4=True, p5=True)

    @classmethod
    def full(cls) -> "PolicySet":
        return cls(p1=True, p2=True, p3=True, p4=True, p5=True, p6=True)

    @classmethod
    def multithreaded(cls) -> "PolicySet":
        """P1-P5 with register-held CFI metadata (§VII)."""
        return cls(p1=True, p2=True, p3=True, p4=True, p5=True,
                   mt_safe=True)

    @classmethod
    def parse(cls, text: str) -> "PolicySet":
        """Parse the paper's column labels: ``P1``, ``P1+P2``, ``P1-P5``,
        ``P1-P6``, ``baseline``."""
        normalized = text.strip().upper().replace(" ", "")
        table = {
            "BASELINE": cls.none(), "NONE": cls.none(),
            "P1": cls.p1_only(), "P1+P2": cls.p1_p2(),
            "P1-P5": cls.p1_p5(), "P1-P6": cls.full(),
            "P1-P5-MT": cls.multithreaded(),
        }
        if normalized not in table:
            raise ValueError(f"unknown policy setting {text!r}")
        return table[normalized]

    # -- helpers -------------------------------------------------------------

    @property
    def any_store_guard(self) -> bool:
        """Whether stores need an annotation at all."""
        return self.p1 or self.p3 or self.p4

    @property
    def label(self) -> str:
        if not any((self.p1, self.p2, self.p3, self.p4, self.p5, self.p6)):
            return "baseline"
        if self.p6:
            return "P1-P6"
        if self.p5:
            return "P1-P5-MT" if self.mt_safe else "P1-P5"
        if self.p2:
            return "P1+P2"
        return "P1"

    def describe(self) -> str:
        enabled = [name.upper() for name in
                   ("p0", "p1", "p2", "p3", "p4", "p5", "p6")
                   if getattr(self, name)]
        if self.mt_safe:
            enabled.append("MT")
        return "+".join(enabled) if enabled else "none"
