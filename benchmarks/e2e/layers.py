"""Outside-in layer trace for the end-to-end benchmark.

:meth:`Tracer.install` wraps the public entry point of every layer on
a session's path -- on the class attribute, or on the module global the
caller resolves -- and :meth:`Tracer.uninstall` puts the originals
back.  The program itself is not edited.  A wrapper records a span
(name, start, end, parent span, op id) only while a workload is inside
a timed region, so harness work such as oracle checks never counts.
Spans stay in memory until the run ends; :func:`layer_metrics` reduces
them to per-op self times and counts.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter
from typing import Dict, List

import repro.core.bootstrap as bootstrap_mod
import repro.core.checkpoint as checkpoint_mod
import repro.service.pipeline as pipeline_mod
import repro.service.roles as roles_mod
from repro.compiler.frontend import CodeGenerator
from repro.core.bootstrap import BootstrapEnclave
from repro.core.cache import ProvisionCache
from repro.core.verifier import PolicyVerifier
from repro.crypto.channel import SecureChannel
from repro.crypto.dh import DHKeyPair
from repro.crypto.sig import SigningKey, VerifyingKey
from repro.service.pipeline import PipelineOrchestrator
from repro.service.resilient import TwoPartyWorkflow
from repro.service.scheduler import FleetScheduler, SessionJob
from repro.sgx.attestation import AttestationService
from repro.vm.cpu import CPU
from repro.vm.translate import BlockCache

#: Span name -> (per-op self-time metric, per-op call-count metric).
SPAN_METRICS = {
    "service.protocol.handshake": ("service.protocol.handshake_s",
                                   "service.protocol.handshakes"),
    "crypto.dh.keygen": ("crypto.dh.keygen_s", "crypto.dh.keygens"),
    "crypto.dh.shared": ("crypto.dh.shared_s", "crypto.dh.shares"),
    "crypto.sig.sign": ("crypto.sig.sign_s", "crypto.sig.signs"),
    "crypto.sig.verify": ("crypto.sig.verify_s", "crypto.sig.verifies"),
    "sgx.attestation.verify_quote": ("sgx.attestation.verify_quote_s",
                                     None),
    "crypto.channel.seal": ("crypto.channel.seal_s", None),
    "crypto.channel.open": ("crypto.channel.open_s", None),
    "compiler.compile": ("compiler.compile_s", "compiler.compiles"),
    "core.bootstrap.receive_binary": ("core.bootstrap.receive_binary_s",
                                      None),
    "vm.run": ("vm.run_s", None),
    "vm.translate": ("vm.translate_s", None),
    "core.bootstrap.run": ("core.bootstrap.run_self_s", None),
    "core.checkpoint.seal": ("core.checkpoint.seal_s",
                             "core.checkpoint.seals"),
    "core.checkpoint.verify": ("core.checkpoint.verify_s", None),
    "service.scheduler.tick": ("service.scheduler.tick_self_s", None),
    "service.pipeline.run": ("service.pipeline.self_s", None),
    "core.provenance.verify": ("core.provenance.verify_s", None),
}

#: Counters the wrappers accumulate, reported per op.
COUNT_METRICS = (
    "crypto.channel.bytes", "crypto.channel.records",
    "crypto.channel.rekeys", "compiler.text_bytes",
    "core.provision.parse_s", "core.provision.load_s",
    "core.provision.rdd_s", "core.provision.verify_s",
    "core.provision.rewrite_s", "core.provision.install_s",
    "core.cache.hits", "core.cache.misses",
    "core.verifier.instructions", "core.verifier.proofs",
    "vm.blocks_translated", "vm.instructions",
    "core.bootstrap.output_bytes", "core.checkpoint.bytes",
    "core.checkpoint.resumes", "service.resilient.attempts",
    "service.resilient.retries",
)

#: Workload facts (``RunResult.notes``) reported per op.
NOTE_METRICS = {
    "dispatches": "service.scheduler.dispatches",
    "preemptions": "service.scheduler.preemptions",
    "migrations": "service.scheduler.migrations",
    "shed": "service.scheduler.shed",
    "links": "core.provenance.links",
}

#: Entry points every workload's timed region must reach.
_COMMON = {
    "service.protocol.handshake", "crypto.dh.keygen", "crypto.dh.shared",
    "crypto.sig.sign", "crypto.sig.verify",
    "sgx.attestation.verify_quote", "crypto.channel.seal",
    "crypto.channel.open", "core.bootstrap.receive_binary",
    "core.cache.lookup", "vm.run", "vm.translate", "core.bootstrap.run",
    "service.resilient.execute",
}

#: Wrapped entry points that must fire on each workload.  A refactor
#: that rebinds one of these names would otherwise read as a layer
#: that costs nothing.
EXPECTED_FIRING = {
    "fleet_sessions": _COMMON | {
        "compiler.compile", "core.verifier.verify_code",
        "core.checkpoint.seal", "core.checkpoint.verify",
        "service.scheduler.tick", "service.scheduler.parties"},
    "kernel_sessions": _COMMON | {
        "compiler.compile", "core.verifier.verify_code"},
    "cold_sessions": _COMMON | {
        "compiler.compile", "core.verifier.verify_code"},
    "pipeline_stream": _COMMON | {
        "core.verifier.verify_code", "core.checkpoint.seal",
        "service.pipeline.run", "core.provenance.verify"},
}

_MAC_LEN = 32


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    #: Field names of one entry of :attr:`spans`.
    SPAN_FIELDS = ("name", "start", "end", "parent", "op")

    def __init__(self):
        #: (name, start, end, parent index or -1, op id) per span.
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self._undo: List[tuple] = []
        #: Op id stamped on spans that start now.
        self.op = None
        #: True only inside a workload's timed region.
        self.recording = False
        self.counts: Dict[str, float] = defaultdict(float)
        #: Recorded calls per wrapped entry point.
        self.fired: Counter = Counter()
        #: Fleet job id -> wall time of its first dispatch.
        self.dispatch_wall: Dict[str, float] = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, span=True, before=None, after=None):
        """Wrap ``fn``: count the call, run the hooks and, with ``span``,
        record a span.  ``after(args, kwargs, result, token)`` also runs
        when ``fn`` raises (``result`` is then None); ``token`` is what
        ``before(args)`` returned."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            tracer.fired[name] += 1
            token = before(args) if before is not None else None
            if span:
                index = len(tracer.spans)
                tracer.spans.append(None)
                parent = tracer._stack[-1] if tracer._stack else -1
                tracer._stack.append(index)
                op = tracer.op
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if span:
                    end = perf_counter()
                    tracer._stack.pop()
                    tracer.spans[index] = (name, start, end, parent, op)
                if after is not None:
                    after(args, kwargs, result, token)
        return wrapper

    def _patch(self, owner, attr, name, **options) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        if isinstance(original, staticmethod):
            new = staticmethod(self._wrap(name, original.__func__,
                                          **options))
        else:
            new = self._wrap(name, original, **options)
        setattr(owner, attr, new)

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        counts = self.counts

        def sealed(args, kwargs, wire, _):
            if wire is not None:
                counts["crypto.channel.bytes"] += len(wire)
                counts["crypto.channel.records"] += \
                    len(wire) // (args[0].record_size + _MAC_LEN)

        def compiled(args, kwargs, obj, _):
            if obj is not None:
                counts["compiler.text_bytes"] += len(obj.text)

        def provisioned(args, kwargs, digest, _):
            if digest is not None:
                for stage, seconds in args[0].provision_stages.items():
                    counts[f"core.provision.{stage}_s"] += seconds

        def looked_up(args, kwargs, image, _):
            counts["core.cache.hits" if image is not None
                   else "core.cache.misses"] += 1

        def verified(args, kwargs, evidence, _):
            if evidence is not None:
                counts["core.verifier.instructions"] += \
                    evidence.instruction_count
                counts["core.verifier.proofs"] += \
                    len(kwargs.get("proofs", ()))

        def steps_before(args):
            return args[0].steps

        def retired(args, kwargs, result, steps0):
            counts["vm.instructions"] += args[0].steps - steps0

        def translated(args, kwargs, block, _):
            if block is not None:
                counts["vm.blocks_translated"] += 1

        def ran(args, kwargs, outcome, _):
            if outcome is not None:
                counts["core.bootstrap.output_bytes"] += sum(
                    len(data) for data in outcome.sent_plaintext)

        def resumed(args, kwargs, outcome, _):
            ran(args, kwargs, outcome, _)
            if outcome is not None:
                counts["core.checkpoint.resumes"] += 1

        def checkpointed(args, kwargs, _result, _token):
            chain = args[4]
            if chain.blobs:
                counts["core.checkpoint.bytes"] += len(chain.blobs[-1])

        def stats_before(args):
            stats = args[0].stats
            return stats.attempts, stats.retries

        def executed(args, kwargs, result, before):
            stats = args[0].stats
            counts["service.resilient.attempts"] += \
                stats.attempts - before[0]
            counts["service.resilient.retries"] += \
                stats.retries - before[1]

        def supervising(args):
            self.op = None

        def dispatching(args):
            job = args[0]
            self.op = job.job_id
            self.dispatch_wall.setdefault(job.job_id, perf_counter())

        def ratchet(args, kwargs, result, _):
            counts["crypto.channel.rekeys"] += 1

        patches = [
            (roles_mod, "establish_session", "service.protocol.handshake",
             {}),
            (DHKeyPair, "__init__", "crypto.dh.keygen", {}),
            (DHKeyPair, "shared_secret", "crypto.dh.shared", {}),
            (SigningKey, "sign", "crypto.sig.sign", {}),
            (VerifyingKey, "verify", "crypto.sig.verify", {}),
            (AttestationService, "verify_quote",
             "sgx.attestation.verify_quote", {}),
            (SecureChannel, "seal", "crypto.channel.seal",
             {"after": sealed}),
            (SecureChannel, "open", "crypto.channel.open", {}),
            (SecureChannel, "_ratchet", "crypto.channel.ratchet",
             {"span": False, "after": ratchet}),
            (CodeGenerator, "compile", "compiler.compile",
             {"after": compiled}),
            (BootstrapEnclave, "receive_binary",
             "core.bootstrap.receive_binary", {"after": provisioned}),
            (ProvisionCache, "lookup", "core.cache.lookup",
             {"span": False, "after": looked_up}),
            (PolicyVerifier, "verify_code", "core.verifier.verify_code",
             {"span": False, "after": verified}),
            (CPU, "run", "vm.run",
             {"before": steps_before, "after": retired}),
            (BlockCache, "translate", "vm.translate",
             {"after": translated}),
            (BootstrapEnclave, "run", "core.bootstrap.run",
             {"after": ran}),
            (BootstrapEnclave, "resume", "core.bootstrap.run",
             {"after": resumed}),
            (checkpoint_mod, "take_checkpoint", "core.checkpoint.seal",
             {"after": checkpointed}),
            (bootstrap_mod, "verify_chain", "core.checkpoint.verify", {}),
            (TwoPartyWorkflow, "execute", "service.resilient.execute",
             {"span": False, "before": stats_before, "after": executed}),
            (FleetScheduler, "tick", "service.scheduler.tick",
             {"before": supervising}),
            (SessionJob, "parties", "service.scheduler.parties",
             {"span": False, "before": dispatching}),
            (PipelineOrchestrator, "run_streaming", "service.pipeline.run",
             {}),
            (pipeline_mod, "verify_links", "core.provenance.verify", {}),
        ]
        for owner, attr, name, options in patches:
            self._patch(owner, attr, name, **options)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def missing(self, workload: str) -> List[str]:
        """Entry points that should have fired on ``workload`` but never
        did."""
        return sorted(name for name in EXPECTED_FIRING[workload]
                      if not self.fired[name])


def layer_metrics(tracer: Tracer, result,
                  due_wall: Dict[str, float]) -> Dict[str, float]:
    """Per-op layer numbers of one traced run: self time per span kind,
    call counts, wrapper counters and workload facts.  ``due_wall``
    maps fleet job ids to the wall time they were due."""
    ops = max(1, result.completed)
    self_s: Dict[str, float] = defaultdict(float)
    inclusive_s: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    top_level = 0.0
    for name, start, end, parent, _ in tracer.spans:
        duration = end - start
        self_s[name] += duration
        inclusive_s[name] += duration
        calls[name] += 1
        if parent < 0:
            top_level += duration
        else:
            self_s[tracer.spans[parent][0]] -= duration
    metrics: Dict[str, float] = {}
    for name, (time_metric, count_metric) in SPAN_METRICS.items():
        metrics[time_metric] = self_s[name] / ops
        if count_metric is not None:
            metrics[count_metric] = calls[name] / ops
    for name in COUNT_METRICS:
        metrics[name] = tracer.counts[name] / ops
    for note, name in NOTE_METRICS.items():
        metrics[name] = result.notes.get(note, 0) / ops
    lookups = tracer.counts["core.cache.hits"] + \
        tracer.counts["core.cache.misses"]
    metrics["core.cache.hit_ratio"] = \
        tracer.counts["core.cache.hits"] / lookups if lookups else 0.0
    run_s = inclusive_s["vm.run"]
    metrics["vm.ips"] = tracer.counts["vm.instructions"] / run_s \
        if run_s else 0.0
    metrics["service.pipeline.max_in_flight"] = \
        result.notes.get("max_in_flight", 0)
    waits = [tracer.dispatch_wall[job] - due
             for job, due in due_wall.items()
             if job in tracer.dispatch_wall]
    metrics["service.scheduler.queue_wait_s"] = \
        sum(waits) / len(waits) if waits else 0.0
    wall = result.timed_wall_s
    metrics["trace.unattributed_pct"] = \
        100.0 * (wall - top_level) / wall if wall else 0.0
    return metrics
