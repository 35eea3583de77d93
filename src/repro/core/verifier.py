"""The just-enough policy-compliance verifier (§IV-D, §V-B).

A forward scan over the recursive-descent disassembly that

* recognizes every security annotation by matching it against the shared
  templates (rejecting near-misses: malformed or forged annotations);
* demands an annotation license for every guarded operation — stores
  (P1/P3/P4), explicit RSP writes (P2), indirect branches and returns
  (P5) — and rejects any unlicensed one;
* forbids program code from touching the annotation-reserved registers;
* checks every direct branch lands on an instruction boundary and never
  *into* an annotation body or onto a guarded anchor ("compared with all
  guarded operations to detect any attempt to evade security
  annotations");
* when P6 is on, requires the SSA-marker guard at every basic-block
  leader (jump targets, conditional fall-throughs, function entries,
  program entry);
* when P5 is on, requires the shadow-stack prologue at every function
  entry (direct call targets and listed indirect targets);
* restricts SVC (OCall gateway) numbers to the P0 manifest.

The scan is table-driven: at construction the verifier compiles the
active :class:`~repro.policy.policies.PolicySet` (and any custom-policy
markers) into two dispatch tables keyed off the RDD op-category tags —
one per head category, one per 64-bit marker immediate — so recognizing
an annotation head costs one dict probe instead of re-running the
predicate chain on every instruction.

The verifier only ever *reads*; the slots it records are patched later
by the immediate rewriter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import VerificationError
from ..isa.instructions import Op
from ..policy.magic import MAGIC
from ..policy.policies import PolicySet
from ..policy.templates import (
    AnnotationKind, MatchResult, compile_pattern, match_compiled,
    indirect_branch_pattern, p6_guard_pattern, rsp_guard_pattern,
    shadow_epilogue_pattern, shadow_prologue_pattern, store_guard_pattern,
)
from .proofcheck import (
    PROOF_CFI, PROOF_CONST, PROOF_RSP_STEP, PROOF_STACK, ProofChecker,
)
from .rdd import (
    CAT_HEAD_LEA, CAT_HEAD_MARKER, CAT_HEAD_MOVRR, CAT_HEAD_SUBRI,
    CAT_INDIRECT, CAT_PLAIN, CAT_RET, CAT_RSP_WRITE, CAT_STORE, CAT_SVC,
    CAT_TRAP, DisassembledCode, HEAD_CAT_MIN, recursive_descent,
)

#: SVC numbers admissible under P0 (send / recv / report).
DEFAULT_ALLOWED_SVCS = frozenset({1, 2, 3})


@dataclass
class VerifiedBinary:
    """Verification evidence handed to the rewriter and the bootstrap."""

    magic_slots: List[Tuple[int, str]] = field(default_factory=list)
    annotation_counts: Dict[str, int] = field(default_factory=dict)
    instruction_count: int = 0
    function_entries: Set[int] = field(default_factory=set)
    #: The decode-once stream the evidence was derived from; carried so
    #: downstream consumers (tracing, rewriting) never re-decode text.
    #: Excluded from equality — evidence comparisons are about verdicts.
    code: Optional[DisassembledCode] = field(default=None, compare=False,
                                             repr=False)
    #: Accepted static-proof log: ``(site_off, kind, def_off)`` per
    #: elided guard, re-derived from the delivered bytes (empty for
    #: annotation-full binaries).  Part of the evidence verdict.
    proofs: Tuple = ()


class PolicyVerifier:
    def __init__(self, policies: PolicySet,
                 allowed_svcs: Iterable[int] = DEFAULT_ALLOWED_SVCS,
                 custom=()):
        self.policies = policies
        self.allowed_svcs = frozenset(allowed_svcs)
        #: developer-defined policies (repro.policy.custom, §V-A API)
        self.custom = tuple(custom)
        self._custom_by_marker = {policy.marker: policy
                                  for policy in self.custom}
        self._store_pat = store_guard_pattern(policies)
        self._rsp_pat = rsp_guard_pattern()
        self._indirect_pat = indirect_branch_pattern()
        self._prologue_pat = shadow_prologue_pattern(policies.mt_safe)
        self._epilogue_pat = shadow_epilogue_pattern(policies.mt_safe)
        self._p6_pat = p6_guard_pattern()
        self._instrumenting = any((policies.p1, policies.p2, policies.p3,
                                   policies.p4, policies.p5, policies.p6))
        self._build_dispatch()

    def _build_dispatch(self) -> None:
        """Compile the policy set into the per-category dispatch tables.

        ``_by_cat[category]`` / ``_by_marker[imm64]`` map an annotation
        head to ``(error label, ((kind, compiled, custom policy), ...))``
        — the candidate templates tried in order at that head.  Entries
        exist only for enabled policies, so a disabled policy's head
        falls through to the plain-instruction checks exactly as the
        predicate chain did.  Custom markers are inserted last and win
        marker collisions (the chain checked them first).
        """
        def cand(kind, pattern, cpolicy=None):
            return (kind, compile_pattern(pattern), cpolicy)

        p = self.policies
        by_cat: Dict[int, tuple] = {}
        by_marker: Dict[int, tuple] = {}
        if p.any_store_guard:
            by_cat[CAT_HEAD_LEA] = ("store guard", (
                cand(AnnotationKind.STORE_GUARD, self._store_pat),))
        if p.p5:
            by_cat[CAT_HEAD_MOVRR] = ("indirect-branch guard", (
                cand(AnnotationKind.INDIRECT, self._indirect_pat),))
            epilogue = cand(AnnotationKind.EPILOGUE, self._epilogue_pat)
            prologue = cand(AnnotationKind.PROLOGUE, self._prologue_pat)
            if p.mt_safe:
                by_cat[CAT_HEAD_SUBRI] = ("MT shadow epilogue",
                                          (epilogue,))
                by_marker[MAGIC["ss_top"]] = ("MT shadow prologue",
                                              (prologue,))
            else:
                by_marker[MAGIC["ss_cell"]] = ("shadow-stack annotation",
                                               (epilogue, prologue))
        if p.p6:
            by_marker[MAGIC["ssa_marker"]] = ("P6 guard", (
                cand(AnnotationKind.P6_GUARD, self._p6_pat),))
        if p.p2:
            by_marker[MAGIC["stack_lo"]] = ("RSP guard", (
                cand(AnnotationKind.RSP_GUARD, self._rsp_pat),))
        for policy in self.custom:
            by_marker[policy.marker] = (f"{policy.name} guard", (
                cand(f"custom:{policy.name}", policy.guard_pattern(),
                     policy),))
        self._by_cat = by_cat
        self._by_marker = by_marker
        self._rsp_compiled = compile_pattern(self._rsp_pat)

    def _dispatch_digest(self) -> tuple:
        """Hashable summary of the compiled dispatch tables."""
        return (tuple(sorted((cat, label,
                              tuple(k for k, _, _ in cands))
                             for cat, (label, cands)
                             in self._by_cat.items())),
                tuple(sorted((marker, label,
                              tuple(k for k, _, _ in cands))
                             for marker, (label, cands)
                             in self._by_marker.items())))

    def fingerprint(self) -> tuple:
        """Hashable digest of every input that can change the verdict.

        Two verifiers with equal fingerprints accept/reject identical
        binaries with identical evidence — the precondition for reusing
        a cached provision (see :class:`repro.core.cache.ProvisionCache`).
        Includes a digest of the compiled dispatch tables so any change
        that reshapes dispatch (policy set, custom markers) changes the
        fingerprint even if other components were to collide.
        """
        return (self.policies.describe(),
                tuple(sorted(self.allowed_svcs)),
                tuple(sorted(policy.marker for policy in self.custom)),
                self._dispatch_digest(),
                ("static-proof-tier", 1))

    # -- public API --------------------------------------------------------

    def verify(self, text: bytes, entry: int,
               branch_targets: Iterable[int] = ()) -> VerifiedBinary:
        """Verify ``text``; raises :class:`VerificationError` on any
        policy-compliance failure."""
        branch_targets = sorted(set(branch_targets))
        code = recursive_descent(text, entry, branch_targets)
        return self.verify_code(code, entry, branch_targets)

    def verify_code(self, code: DisassembledCode, entry: int,
                    branch_targets: Iterable[int] = (),
                    proofs: Iterable[Tuple[int, int, int]] = (),
                    values: Optional[Dict[str, int]] = None) \
            -> VerifiedBinary:
        """Verify an already-disassembled stream (decode-once path).

        ``code`` must come from :func:`~repro.core.rdd.recursive_descent`
        over the same text/entry/targets; the returned evidence carries
        it in ``.code`` so later stages can reuse the stream.

        ``proofs`` is the producer's static-proof log (one
        ``(site_off, kind, def_off)`` entry per elided guard) and
        ``values`` the concrete enclave bounds from
        :func:`~repro.core.rewriter.build_value_map`; every claimed
        proof is re-derived from the delivered bytes and any failure
        rejects the binary (fail closed).
        """
        branch_targets = sorted(set(branch_targets))
        return self._verify_stream(code, entry, branch_targets,
                                   tuple(proofs), values)

    # -- main verification -----------------------------------------------------

    def _verify_stream(self, code: DisassembledCode, entry: int,
                       branch_targets: List[int],
                       proofs: Tuple = (),
                       values: Optional[Dict[str, int]] = None) \
            -> VerifiedBinary:
        stream = code.stream
        cats = code.cats
        reserved = code.reserved
        n = len(stream)
        policies = self.policies
        custom = self.custom
        instrumenting = self._instrumenting
        by_cat = self._by_cat
        by_marker = self._by_marker
        if code.lengths:
            trap_pads = code.trap_pads
        else:  # stream assembled without descent metadata
            trap_pads = {off: ins.operands[0] for off, ins in stream
                         if ins.op == Op.TRAP}
        result = VerifiedBinary(instruction_count=n, code=code)
        counts = result.annotation_counts

        checker: Optional[ProofChecker] = None
        proof_map: Dict[int, Tuple[int, int, int]] = {}
        if proofs:
            if values is None:
                raise VerificationError(
                    "proof-carrying binary verified without enclave "
                    "bounds", 0)
            checker = ProofChecker(
                code, {"store_lo": values["p1_lo"],
                       "store_hi": values["p1_hi"],
                       "stack_lo": values["stack_lo"],
                       "stack_hi": values["stack_hi"],
                       "code_base": values["code_base"]},
                branch_targets, entry)
            proof_map = {p[0]: p for p in proofs}
        accepted: List[Tuple[int, int, int]] = []

        def prove(off: int, kinds: tuple, label: str) -> None:
            """Fail closed: an elided guard needs a re-derivable proof."""
            p = proof_map.get(off)
            if p is None or p[1] not in kinds:
                raise VerificationError(label, off)
            checker.check(p[0], p[1], p[2])
            accepted.append(p)

        interior: Set[int] = set()       # annotation offsets (minus starts)
        anchors: Set[int] = set()        # guarded anchor offsets
        p6_guards: Set[int] = set()
        ann_at: Dict[int, Tuple[str, int]] = {}   # start -> (kind, end off)

        def end_offset(match: MatchResult) -> int:
            if match.end_index < n:
                return stream[match.end_index][0]
            last_off, last_ins = stream[-1]
            return last_off + last_ins.length

        i = 0
        while i < n:
            cat = cats[i]
            if cat == CAT_PLAIN:
                # Hot path: nothing policy-relevant beyond register
                # hygiene and custom anchors.
                if instrumenting and reserved[i]:
                    raise VerificationError(
                        "program code touches annotation-reserved "
                        "registers", stream[i][0])
                if custom:
                    ins = stream[i][1]
                    for policy in custom:
                        if policy.anchor(ins):
                            raise VerificationError(
                                f"instruction lacks the {policy.name} "
                                f"guard", stream[i][0])
                i += 1
                continue
            if cat == CAT_TRAP:
                i += 1
                continue
            off, ins = stream[i]
            if cat >= HEAD_CAT_MIN:
                entry_d = by_marker.get(ins.operands[1]) \
                    if cat == CAT_HEAD_MARKER else by_cat.get(cat)
                if entry_d is not None:
                    label, candidates = entry_d
                    for kind, compiled, cpolicy in candidates:
                        m = match_compiled(compiled, stream, i, trap_pads)
                        if m.matched:
                            break
                    if not m.matched:
                        raise VerificationError(
                            f"malformed {label}: {m.reason}", off)
                    counts[kind] = counts.get(kind, 0) + 1
                    result.magic_slots.extend(m.magic_slots)
                    interior.update(m.interior_offsets[1:])
                    ann_at[off] = (kind, end_offset(m))
                    end = m.end_index
                    if kind == AnnotationKind.STORE_GUARD:
                        anchor_off, anchor = self._anchor(stream, end,
                                                          off)
                        if cats[end] != CAT_STORE or \
                                anchor.operands[0] != m.anchor_mem:
                            raise VerificationError(
                                "store guard not followed by the guarded "
                                "store", anchor_off)
                        anchors.add(anchor_off)
                        i = end + 1
                    elif kind == AnnotationKind.INDIRECT:
                        anchor_off, anchor = self._anchor(stream, end,
                                                          off)
                        if cats[end] != CAT_INDIRECT or \
                                anchor.operands[0] != m.target_reg:
                            raise VerificationError(
                                "indirect-branch guard not followed by "
                                "the guarded branch", anchor_off)
                        anchors.add(anchor_off)
                        i = end + 1
                    elif kind == AnnotationKind.EPILOGUE:
                        anchor_off, anchor = self._anchor(stream, end,
                                                          off)
                        if anchor.op != Op.RET:
                            raise VerificationError(
                                "shadow epilogue not followed by RET",
                                anchor_off)
                        anchors.add(anchor_off)
                        i = end + 1
                    elif cpolicy is not None:
                        anchor_off, anchor = self._anchor(stream, end,
                                                          off)
                        if not cpolicy.anchor(anchor):
                            raise VerificationError(
                                f"{cpolicy.name} guard not followed by "
                                f"its guarded instruction", anchor_off)
                        for pos, reg in m.anchor_regs.items():
                            if anchor.operands[pos] != reg:
                                raise VerificationError(
                                    f"{cpolicy.name} guard checks the "
                                    f"wrong operand", anchor_off)
                        anchors.add(anchor_off)
                        i = end + 1
                    else:
                        if kind == AnnotationKind.P6_GUARD:
                            p6_guards.add(off)
                        i = end
                    continue

            # -- plain program instruction ---------------------------------
            if instrumenting and reserved[i]:
                raise VerificationError(
                    "program code touches annotation-reserved registers",
                    off)
            if cat == CAT_STORE and policies.any_store_guard:
                prove(off, (PROOF_STACK, PROOF_CONST),
                      "unguarded memory store")
            if cat == CAT_INDIRECT and policies.p5:
                prove(off, (PROOF_CFI,), "unguarded indirect branch")
            if cat == CAT_RET and policies.p5:
                raise VerificationError(
                    "RET without shadow-stack epilogue", off)
            if cat == CAT_SVC and \
                    ins.operands[0] not in self.allowed_svcs:
                raise VerificationError(
                    f"SVC {ins.operands[0]} not allowed by the P0 "
                    f"manifest", off)
            for policy in custom:
                if policy.anchor(ins):
                    raise VerificationError(
                        f"instruction lacks the {policy.name} guard",
                        off)
            if cat == CAT_RSP_WRITE and policies.p2:
                match = match_compiled(self._rsp_compiled, stream, i + 1,
                                       trap_pads)
                if not match.matched:
                    prove(off, (PROOF_RSP_STEP,),
                          f"stack-pointer write without RSP guard: "
                          f"{match.reason}")
                    i += 1
                    continue
                counts[AnnotationKind.RSP_GUARD] = \
                    counts.get(AnnotationKind.RSP_GUARD, 0) + 1
                result.magic_slots.extend(match.magic_slots)
                interior.update(match.interior_offsets[1:])
                i = match.end_index
                continue
            i += 1

        if len(accepted) != len(proof_map):
            stale = sorted(set(proof_map) - {p[0] for p in accepted})
            raise VerificationError(
                "static proof references no elided site", stale[0])
        result.proofs = tuple(accepted)
        self._check_control_flow(code, entry, branch_targets, interior,
                                 anchors, p6_guards, ann_at, trap_pads,
                                 result)
        return result

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _anchor(stream, index: int, guard_off: int):
        if index >= len(stream):
            raise VerificationError(
                "annotation at end of code without its guarded "
                "instruction", guard_off)
        return stream[index]

    def _check_control_flow(self, code: DisassembledCode, entry: int,
                            branch_targets: List[int],
                            interior: Set[int], anchors: Set[int],
                            p6_guards: Set[int],
                            ann_at: Dict[int, Tuple[str, int]],
                            trap_pads: Dict[int, int],
                            result: VerifiedBinary) -> None:
        policies = self.policies
        stream = code.stream
        targets = code.targets
        lengths = code.lengths
        boundaries = code.index_of
        jump_targets: Set[int] = set()
        call_targets: Set[int] = set()
        fallthroughs: Set[int] = set()
        for i, target in enumerate(targets):
            if target is None:
                continue
            off, ins = stream[i]
            if off in interior:
                continue
            if target not in boundaries:
                raise VerificationError(
                    f"branch into the middle of an instruction "
                    f"({target:#x})", off)
            if target in interior:
                raise VerificationError(
                    f"branch into an annotation body ({target:#x})",
                    off)
            if target in anchors:
                raise VerificationError(
                    f"branch bypasses a security annotation "
                    f"({target:#x})", off)
            op = ins.op
            if op == Op.CALL:
                call_targets.add(target)
            else:
                jump_targets.add(target)
                if op != Op.JMP:  # conditional: falls through too
                    fallthroughs.add(off + lengths[i])

        function_entries = call_targets | set(branch_targets)
        result.function_entries = function_entries

        for target in branch_targets:
            if target not in boundaries:
                raise VerificationError(
                    "indirect-branch list entry is not an instruction "
                    "boundary", target)

        if policies.p6:
            leaders = ({entry} | jump_targets | fallthroughs |
                       function_entries)
            for leader in sorted(leaders):
                if leader in trap_pads:
                    continue
                if leader not in p6_guards:
                    raise VerificationError(
                        "basic-block leader lacks the P6 SSA-marker "
                        "guard", leader)

        if policies.p5:
            for fe in sorted(function_entries):
                pos = fe
                if policies.p6:
                    info = ann_at.get(pos)
                    if info is None or \
                            info[0] != AnnotationKind.P6_GUARD:
                        raise VerificationError(
                            "function entry lacks the P6 guard", fe)
                    pos = info[1]
                info = ann_at.get(pos)
                if info is None or info[0] != AnnotationKind.PROLOGUE:
                    raise VerificationError(
                        "function entry lacks the shadow-stack prologue",
                        fe)
