"""Resilient CCaaS sessions: retry what is transient, refuse what is not.

The DEFLECTION protocol's failure classes split cleanly in two.  A host
can drop or mangle records, an enclave can be torn down by the platform,
the attestation service can have an outage — all *transient*: the remedy
is to re-attest, re-establish the RA-TLS session and idempotently
re-deliver (the measurement is re-checked; with a
:class:`~repro.core.bootstrap.ProvisionCache` the re-verification is a
cache hit).  A policy violation, a rejected binary or a failed MRENCLAVE
pin is a *trust* failure: retrying one would retry the attack, so those
abort immediately, always.

:func:`classify_error` encodes the split; :class:`RetryPolicy` bounds
and deterministically paces the retries; :class:`ResilientSession`
wraps one remote party; :class:`TwoPartyWorkflow` runs the whole
provider + owner flow end to end under fault injection.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import (
    AttestationError, AttestationOutage, DeadlineExceeded, EnclaveError,
    PolicyViolation, ProtocolError, ProvenanceError, ReproError,
    RetryBudgetExceeded, RollbackError, SessionPreempted,
    VerificationError,
)

#: Error classes a resilient session retries after re-establishing the
#: session.  :class:`AttestationOutage` subclasses ``AttestationError``
#: but is the service being *unreachable*, not the quote being bad.
TRANSIENT = (AttestationOutage, ProtocolError, EnclaveError)

#: Error classes that must never be retried: the failure is a verdict
#: (violation, rejected binary, broken trust chain), not bad luck.
#: :class:`RollbackError` is the checkpoint layer's trust verdict —
#: blindly retrying a resume would re-present host-chosen state; a
#: caller that wants availability must *discard the chain* and restart
#: from scratch (what :class:`TwoPartyWorkflow` does explicitly).
#: :class:`DeadlineExceeded` is a budget verdict: only resuming with a
#: larger budget can make progress, so the retry loop must not spin.
#: :class:`ProvenanceError` is the pipeline layer's trust verdict: a
#: handoff whose chain failed verification must be re-presented with
#: *different* evidence (or the producing hop rerun), never retried
#: blindly with the same rejected chain.
FATAL = (PolicyViolation, VerificationError, AttestationError,
         RollbackError, DeadlineExceeded, ProvenanceError)


def classify_error(exc: BaseException) -> str:
    """``"transient"`` (re-establish + retry) or ``"fatal"`` (abort).

    Checked most-specific first: an :class:`AttestationOutage` is
    transient even though its parent class is fatal.  Unknown errors
    default to fatal — retrying what we cannot classify is how retry
    loops turn bugs into livelock.
    """
    if isinstance(exc, RetryBudgetExceeded):
        return "fatal"
    if isinstance(exc, TRANSIENT):
        return "transient"
    if isinstance(exc, FATAL):
        return "fatal"
    return "fatal"


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``delay(n)`` is a pure function of the policy (including ``seed``),
    so two sessions configured identically back off identically —
    campaigns replay byte-for-byte.
    """

    max_attempts: int = 6
    base_delay_s: float = 0.005
    max_delay_s: float = 0.08
    backoff: float = 2.0
    jitter: float = 0.25
    seed: int = 2021

    def delay(self, retry_index: int) -> float:
        """Backoff before retry number ``retry_index`` (0-based).

        The exponent is clamped at the point where the raw backoff
        saturates ``max_delay_s``: ``backoff ** retry_index`` grows
        fast enough that a misconfigured ``max_attempts`` (or a caller
        probing large indexes directly) would otherwise overflow to
        ``inf`` before the ``min`` clamp ever sees the value.
        """
        base, growth = self.base_delay_s, self.backoff
        if base <= 0.0:
            raw = 0.0
        elif growth <= 1.0:
            raw = min(self.max_delay_s, base * growth ** retry_index)
        else:
            saturation = math.log(max(self.max_delay_s, base) / base,
                                  growth)
            exponent = min(retry_index, math.ceil(saturation))
            raw = min(self.max_delay_s, base * growth ** exponent)
        spread = random.Random(f"{self.seed}:{retry_index}").random()
        return raw * (1.0 + self.jitter * (2.0 * spread - 1.0))


@dataclass
class SessionStats:
    """Counters a resilient flow accumulates (merged into reports)."""

    attempts: int = 0
    retries: int = 0
    reconnects: int = 0
    recoveries: int = 0
    fatal_errors: int = 0
    #: Runs continued from a sealed checkpoint instead of from scratch.
    resumes: int = 0
    #: Checkpoint chains the enclave refused (corrupt / stale / replay);
    #: each one forced a discard-and-restart, never a blind retry.
    rollbacks_rejected: int = 0
    #: Streaming chunks completed (pipeline sessions; 0 elsewhere).
    chunks: int = 0
    slept_s: float = 0.0
    retried_kinds: Dict[str, int] = field(default_factory=dict)
    fatal_kinds: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "SessionStats") -> "SessionStats":
        """Fold ``other``'s counters into this one; returns ``self``.

        The single way counters combine anywhere in the service layer —
        two-party workflows merging their per-session stats, the chaos
        report totalling a campaign, the fleet aggregating per tenant —
        so a new counter added to the dataclass is aggregated
        everywhere by construction instead of by remembering N call
        sites.
        """
        self.attempts += other.attempts
        self.retries += other.retries
        self.reconnects += other.reconnects
        self.recoveries += other.recoveries
        self.fatal_errors += other.fatal_errors
        self.resumes += other.resumes
        self.rollbacks_rejected += other.rollbacks_rejected
        self.chunks += other.chunks
        self.slept_s += other.slept_s
        for kind, count in other.retried_kinds.items():
            self.retried_kinds[kind] = \
                self.retried_kinds.get(kind, 0) + count
        for kind, count in other.fatal_kinds.items():
            self.fatal_kinds[kind] = \
                self.fatal_kinds.get(kind, 0) + count
        return self

    def note(self, exc: BaseException, outcome: str) -> None:
        kinds = self.retried_kinds if outcome == "transient" \
            else self.fatal_kinds
        name = type(exc).__name__
        kinds[name] = kinds.get(name, 0) + 1

    def as_dict(self) -> dict:
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "reconnects": self.reconnects,
            "recoveries": self.recoveries,
            "fatal_errors": self.fatal_errors,
            "resumes": self.resumes,
            "rollbacks_rejected": self.rollbacks_rejected,
            "chunks": self.chunks,
            "retried_kinds": dict(sorted(self.retried_kinds.items())),
            "fatal_kinds": dict(sorted(self.fatal_kinds.items())),
        }


class ResilientSession:
    """One remote party's attested session, with automatic recovery.

    Wraps a :class:`~repro.service.roles.CodeProvider` or
    :class:`~repro.service.roles.DataOwner`.  :meth:`perform` runs an
    operation under the retry policy: a transient failure tears the
    session state down, asks the host to restart a torn-down enclave
    (``ensure_alive`` — same platform and image, so the MRENCLAVE pin
    still holds), re-runs the attested handshake, and tries again.  A
    fatal failure propagates on the first occurrence, always.
    """

    def __init__(self, party, host, expected_mrenclave: bytes,
                 retry: Optional[RetryPolicy] = None,
                 sleep: Optional[Callable[[float], None]] = time.sleep,
                 stats: Optional[SessionStats] = None):
        self.party = party
        self.host = host
        self.expected_mrenclave = expected_mrenclave
        self.retry = retry or RetryPolicy()
        self.stats = stats if stats is not None else SessionStats()
        self._sleep = sleep
        self._connected = False
        self._ever_connected = False

    def invalidate(self) -> None:
        """Forget the session; the next operation re-attests first."""
        self._connected = False

    def ensure_connected(self) -> None:
        if self.host.ensure_alive():
            self.stats.recoveries += 1
        if self._connected:
            return
        self.party.connect(self.host, self.expected_mrenclave)
        if self._ever_connected:
            self.stats.reconnects += 1
        self._connected = True
        self._ever_connected = True

    def backoff(self, retry_index: int) -> None:
        delay = self.retry.delay(retry_index)
        self.stats.slept_s += delay
        if self._sleep is not None:
            self._sleep(delay)

    def perform(self, label: str, op: Callable[[], object]):
        """Run ``op`` to completion under the retry policy."""
        last: Optional[BaseException] = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                self.backoff(attempt - 1)
            try:
                self.ensure_connected()
                self.stats.attempts += 1
                return op()
            except SessionPreempted:
                # A scheduling outcome, not a failure: the scheduler
                # counts preemptions.
                raise
            except ReproError as exc:
                verdict = classify_error(exc)
                self.stats.note(exc, verdict)
                if verdict == "fatal":
                    self.stats.fatal_errors += 1
                    raise
                self.stats.retries += 1
                self.invalidate()
                last = exc
        raise RetryBudgetExceeded(
            f"{label}: {self.retry.max_attempts} attempts exhausted "
            f"(last: {type(last).__name__}: {last})") from last


class TwoPartyWorkflow:
    """The full §III-A flow — deliver, approve, upload, run, decrypt —
    hardened against a faulty host.

    Delivery and upload each run under their party's resilient session.
    The run loop adds one more recovery layer: if ``ecall_run`` fails
    transiently (teardown mid-protocol, injected ECall failure), the
    workflow re-establishes both sessions and *re-provisions* — the
    binary is re-delivered (measurement re-checked by the provider, hash
    re-approved by the owner; the provision cache turns re-verification
    into a replay) and the data re-uploaded — then retries the run.
    Policy violations are run *outcomes*, not exceptions: the defense
    engaged, nothing is retried.
    """

    def __init__(self, host, provider, owner,
                 retry: Optional[RetryPolicy] = None,
                 sleep: Optional[Callable[[float], None]] = time.sleep):
        self.host = host
        self.provider = provider
        self.owner = owner
        self.retry = retry or RetryPolicy()
        #: Run-level counters (re-provision retries, resumes...); the
        #: per-party counters live on each session and the public
        #: :attr:`stats` view merges all three.
        self.run_stats = SessionStats()
        #: Sealed chain of the latest (or in-flight) checkpointed run;
        #: survives a raised :class:`DeadlineExceeded` /
        #: :class:`SessionPreempted` so a scheduler can harvest it and
        #: resume the job elsewhere.
        self.checkpoints: List[bytes] = []
        mrenclave = host.bootstrap.mrenclave
        self.provider_session = ResilientSession(
            provider, host, mrenclave, retry=self.retry, sleep=sleep)
        self.owner_session = ResilientSession(
            owner, host, mrenclave, retry=self.retry, sleep=sleep)

    @property
    def stats(self) -> SessionStats:
        """Merged view over run-level + both per-party counters."""
        return self.combined_stats()

    def combined_stats(self) -> SessionStats:
        return SessionStats().merge(self.run_stats) \
            .merge(self.provider_session.stats) \
            .merge(self.owner_session.stats)

    def provision(self) -> bytes:
        """Deliver + approve + upload; returns the approved measurement.

        Idempotent by construction: the enclave re-measures the blob on
        every delivery, the provider compares that measurement against
        its own hash, and the data owner re-approves it before any data
        moves — a corrupted or substituted re-delivery can never
        silently replace an approved binary.
        """
        measurement = self.provider_session.perform(
            "deliver", lambda: self.provider.deliver(self.host))
        self.owner.approve_code(measurement)
        self.owner_session.perform(
            "upload", lambda: self.owner.upload(self.host))
        return measurement

    def execute(self, initial_checkpoints: Optional[List[bytes]] = None,
                **run_kwargs) -> Tuple[object, List[bytes]]:
        """Run the whole flow; returns ``(outcome, plaintexts)``.

        ``plaintexts`` are the decrypted result records when the run
        completed (``outcome.ok``), else empty.

        With ``checkpoint_every=N`` in ``run_kwargs``, the workflow
        stores every sealed checkpoint the enclave emits (on
        :attr:`checkpoints`, so the chain survives even when the run
        raises) and switches its teardown recovery from
        re-run-from-scratch to resume-from-latest-checkpoint: after
        re-attesting and re-provisioning, the stored chain goes back
        in through ``ecall_resume`` and only the tail of the
        computation re-runs.  ``initial_checkpoints`` seeds that chain
        before the first attempt — a scheduler migrating a preempted
        job onto another EINIT of the same MRENCLAVE passes the chain
        harvested from the previous drone here.  If the enclave
        rejects the chain (:class:`RollbackError` — corrupted, stale,
        or replayed by the host), the chain is *discarded* and that
        attempt falls back to a full re-run: the trust decision stays
        fail-closed inside the enclave, while the workflow keeps its
        availability by paying the from-scratch cost.  Rejected chains
        are counted in ``stats.rollbacks_rejected`` and are never
        blindly re-presented.
        """
        self.provision()
        self.checkpoints = list(initial_checkpoints or [])
        checkpoints = self.checkpoints
        if run_kwargs.get("checkpoint_every") is not None:
            run_kwargs = dict(run_kwargs)
            run_kwargs["checkpoint_sink"] = checkpoints.append
        last: Optional[BaseException] = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                self.owner_session.backoff(attempt - 1)
            try:
                self.run_stats.attempts += 1
                if checkpoints:
                    try:
                        outcome = self.host.ecall_resume(
                            list(checkpoints), **run_kwargs)
                        self.run_stats.resumes += 1
                    except RollbackError as exc:
                        self.run_stats.note(exc, "fatal")
                        self.run_stats.rollbacks_rejected += 1
                        checkpoints.clear()
                        outcome = self.host.ecall_run(**run_kwargs)
                else:
                    outcome = self.host.ecall_run(**run_kwargs)
            except SessionPreempted:
                # A scheduling outcome, not a failure: the scheduler
                # counts preemptions.
                raise
            except ReproError as exc:
                verdict = classify_error(exc)
                self.run_stats.note(exc, verdict)
                if verdict == "fatal":
                    self.run_stats.fatal_errors += 1
                    raise
                self.run_stats.retries += 1
                # Transient run failure: the enclave may have lost its
                # provisioned state entirely.  Re-establish everything.
                self.provider_session.invalidate()
                self.owner_session.invalidate()
                self.provision()
                last = exc
                continue
            plaintexts = self.owner.decrypt_results(outcome) \
                if outcome.ok else []
            return outcome, plaintexts
        raise RetryBudgetExceeded(
            f"run: {self.retry.max_attempts} attempts exhausted "
            f"(last: {type(last).__name__}: {last})") from last
