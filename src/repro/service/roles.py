"""The two remote parties of the DEFLECTION model.

:class:`CodeProvider` owns a proprietary MiniC service program.  It
compiles and instruments the program with the agreed policy set, attests
the bootstrap, and ships the binary over its encrypted channel — the
data owner never sees the code.

:class:`DataOwner` attests the same bootstrap, learns only the *hash* of
the service binary (which it must approve), uploads sensitive data over
its own channel, and decrypts the padded results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..compiler.frontend import CodeGenerator
from ..core.bootstrap import RunOutcome
from ..crypto.channel import SecureChannel
from ..errors import ProtocolError
from ..policy.policies import PolicySet
from .protocol import CCaaSHost, establish_session


@dataclass
class CodeProvider:
    """Service provider with a proprietary program."""

    source: str
    policies: PolicySet
    name: str = "provider"
    entry: str = "main"
    _channel: Optional[SecureChannel] = field(default=None, repr=False)
    binary_hash: bytes = b""
    #: ``((source, policy set, entry), blob)`` of the last build.
    _built: Optional[Tuple[tuple, bytes]] = field(default=None, repr=False)

    def build(self) -> bytes:
        """Compile + instrument; returns the serialized object.

        The blob is memoized per (source, policy set, entry), so
        approving, delivering and re-delivering one program compiles it
        once.  Nothing on the enclave side is skipped: every delivery is
        still re-measured and re-checked there."""
        key = (self.source, self.policies.describe(), self.entry)
        if self._built is None or self._built[0] != key:
            generator = CodeGenerator(self.policies)
            self._built = (key, generator.compile(
                self.source, entry=self.entry).serialize())
        blob = self._built[1]
        self.binary_hash = hashlib.sha256(blob).digest()
        return blob

    def connect(self, host: CCaaSHost, expected_mrenclave: bytes,
                seed: bytes = None) -> None:
        self._channel = establish_session(
            host, "provider", expected_mrenclave,
            party_seed=seed or self.name.encode())

    def deliver(self, host: CCaaSHost) -> bytes:
        """Encrypt and upload the binary; returns the enclave-computed
        measurement of the delivered blob."""
        if self._channel is None:
            raise ProtocolError("provider not connected")
        blob = self.build()
        measurement = host.ecall_receive_binary(
            self._channel.seal(blob), encrypted=True)
        if measurement != self.binary_hash:
            raise ProtocolError("enclave reported a different binary hash")
        return measurement


@dataclass
class DataOwner:
    """Remote user with sensitive data."""

    data: bytes
    name: str = "owner"
    #: Service-code hashes this owner is willing to run on her data.
    approved_hashes: List[bytes] = field(default_factory=list)
    _channel: Optional[SecureChannel] = field(default=None, repr=False)

    def connect(self, host: CCaaSHost, expected_mrenclave: bytes,
                seed: bytes = None) -> None:
        self._channel = establish_session(
            host, "owner", expected_mrenclave,
            party_seed=seed or self.name.encode())

    def approve_code(self, measurement: bytes) -> None:
        """§III-A: the data owner already knows the hash of the service
        code; feeding data requires the enclave-reported hash to match."""
        if measurement not in self.approved_hashes:
            raise ProtocolError(
                "service code measurement not approved by data owner")

    def upload(self, host: CCaaSHost) -> int:
        if self._channel is None:
            raise ProtocolError("owner not connected")
        return host.ecall_receive_userdata(
            self._channel.seal(self.data), encrypted=True)

    def decrypt_results(self, outcome: RunOutcome) -> List[bytes]:
        """Open the padded ciphertext records the enclave sent."""
        if self._channel is None:
            raise ProtocolError("owner not connected")
        return [self._channel.open(wire) for wire in outcome.sent_wire]
