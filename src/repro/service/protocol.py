"""RA-TLS style session establishment (§III-A, §V-B).

The remote party and the bootstrap enclave run a Diffie-Hellman exchange;
the enclave binds its ephemeral public key into the quote's report data;
the party validates the quote through the attestation service and pins
the bootstrap's MRENCLAVE.  Both sides then derive mirrored channel keys
from the shared secret and the handshake transcript.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from ..core.bootstrap import BootstrapEnclave
from ..crypto.channel import SecureChannel, derive_channel_keys
from ..crypto.dh import DHKeyPair
from ..errors import AttestationError, EnclaveTeardown, ProtocolError
from ..sgx.attestation import (
    AttestationService, check_attestation_report,
)


def after_steps(k: int, fire: Callable[[object], None],
                inner: Optional[Callable[[object], None]] = None):
    """Run-interrupt hook that calls ``fire(cpu)`` once, when ``k``
    instructions have retired since the run started.

    The hook is polled at checkpoint safe points, so ``fire`` lands at
    the first safe point past ``k`` (the simulator cannot interrupt
    the VM asynchronously).  A step counter that moves backwards — the
    same hook reused by a retried run that resumes from an earlier
    checkpoint — restarts the count.  ``inner``, an interrupt the
    caller already installed, is polled first on every call.
    """
    start = None
    fired = False

    def interrupt(cpu):
        nonlocal start, fired
        if inner is not None:
            inner(cpu)
        if fired:
            return
        if start is None or cpu.steps < start:
            start = cpu.steps
        if cpu.steps - start >= k:
            fired = True
            fire(cpu)

    return interrupt


@dataclass
class CCaaSHost:
    """The untrusted platform hosting the bootstrap enclave.

    It relays messages and can observe every byte on the wire — which is
    exactly why everything it relays is encrypted and padded.
    """

    bootstrap: BootstrapEnclave
    attestation_service: AttestationService
    _kill_after_steps: Optional[int] = field(default=None, init=False,
                                             repr=False)

    def __post_init__(self):
        platform = self.bootstrap.enclave.platform
        self.attestation_service.provision_platform(
            platform.platform_id, platform.verifying_key)

    # ECall relays -- the only ways into the enclave (P0).
    def ecall_receive_binary(self, blob: bytes, encrypted: bool = True):
        return self.bootstrap.enclave.ecall(
            "ecall_receive_binary", blob, encrypted=encrypted)

    def ecall_receive_userdata(self, data: bytes,
                               encrypted: bool = True):
        return self.bootstrap.enclave.ecall(
            "ecall_receive_userdata", data, encrypted=encrypted)

    def arm_kill(self, steps: int) -> None:
        """Kill the enclave ``steps`` instructions into the next
        *checkpointed* run (one-shot), realized at a safe point — the
        host tearing the enclave down mid-run, which the workflow
        recovers by resuming from the sealed chain."""
        self._kill_after_steps = steps

    def _arm(self, kwargs: dict) -> dict:
        """Compose an armed kill into the run's interrupt hook, after
        any interrupt the caller installed (so a kill that lands inside
        a scheduler quantum still fires)."""
        k = self._kill_after_steps
        if k is None or kwargs.get("checkpoint_every") is None:
            return kwargs
        self._kill_after_steps = None
        bootstrap = self.bootstrap

        def kill(cpu):
            bootstrap.enclave.destroy()
            raise EnclaveTeardown(
                f"enclave killed mid-run at step {cpu.steps}")

        return dict(kwargs,
                    interrupt=after_steps(k, kill, kwargs.get("interrupt")))

    def ecall_run(self, **kwargs):
        return self.bootstrap.enclave.ecall("ecall_run",
                                            **self._arm(kwargs))

    def ecall_resume(self, blobs, **kwargs):
        """Relay a sealed checkpoint chain back into the enclave.  The
        host merely stores and forwards the blobs; the enclave
        authenticates them against the platform monotonic counter."""
        return self.bootstrap.enclave.ecall("ecall_resume", blobs,
                                            **self._arm(kwargs))

    def ecall_ping(self):
        """Cheap liveness probe used by the fleet supervisor: answers
        only when the enclave instance is alive (a torn-down one raises
        at the ECall gate)."""
        return self.bootstrap.enclave.ecall("ecall_ping")

    def ensure_alive(self) -> bool:
        """The operator's recovery path: restart a torn-down bootstrap
        (same platform, same measured image, so the MRENCLAVE pin still
        holds).  Returns True when a recovery actually happened."""
        if self.bootstrap.enclave.destroyed:
            self.bootstrap.recover()
            return True
        return False


def establish_session(host: CCaaSHost, role: str,
                      expected_mrenclave: bytes,
                      party_seed: Optional[bytes] = None,
                      record_size: int = 256,
                      enclave_entropy: Union[bytes, Callable[[], bytes],
                                             None] = None) -> SecureChannel:
    """Run the full attested key agreement for ``role``.

    Returns the *party-side* channel endpoint; the mirrored enclave-side
    endpoint is attached to the bootstrap under ``role``.  Raises
    :class:`AttestationError` if the quote, the IAS report or the
    MRENCLAVE pin fails.

    The enclave-side handshake key is derived from a per-session entropy
    source — by default a fresh random exponent, never from the party's
    seed (a seed-derived enclave key would let a replayed handshake
    reproduce the channel keys).  ``enclave_entropy`` (bytes, or a
    zero-arg callable returning bytes) injects the source for tests.
    As a freshness check, the bootstrap remembers every handshake key it
    ever offered and rejects a repeat: a stale or broken entropy source
    fails loudly instead of silently rekeying an old session.
    """
    party_kp = DHKeyPair(party_seed)

    # Enclave side: fresh per-session key pair, quoted with the channel
    # binding.
    if callable(enclave_entropy):
        enclave_entropy = enclave_entropy()
    enclave_kp = DHKeyPair(enclave_entropy)
    enclave_pub = enclave_kp.public_bytes()
    if enclave_pub in host.bootstrap.handshake_keys:
        raise ProtocolError(
            "enclave handshake key reuse detected "
            "(stale entropy source or replayed handshake)")
    host.bootstrap.handshake_keys.add(enclave_pub)
    binding = hashlib.sha256(
        enclave_kp.public_bytes() + party_kp.public_bytes()).digest()
    quote = host.bootstrap.quote(binding.ljust(64, b"\x00"))

    # Party side: verify quote through the attestation service.
    report = host.attestation_service.verify_quote(quote.serialize())
    check_attestation_report(
        report, host.attestation_service.verifying_key,
        expected_mrenclave)
    if report.report_data[:32] != binding:
        raise AttestationError("channel binding mismatch in report data")

    transcript = enclave_kp.public_bytes() + party_kp.public_bytes() + \
        role.encode()
    party_secret = party_kp.shared_secret(enclave_kp.public)
    enclave_secret = enclave_kp.shared_secret(party_kp.public)

    party_channel = SecureChannel(
        *derive_channel_keys(party_secret, transcript, "client"),
        record_size=record_size)
    enclave_channel = SecureChannel(
        *derive_channel_keys(enclave_secret, transcript, "server"),
        record_size=record_size)
    host.bootstrap.attach_channel(enclave_channel, role)
    return party_channel
