"""Simulated attestation service (the paper's IAS).

Platforms provision their attestation public keys; remote parties submit
quotes; the service checks the platform signature and returns an
*attestation report* signed with the service's own well-known key —
exactly the flow of §V-B ("the remote data owner submits the quote to
IAS and obtains an attestation report").
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..errors import AttestationError
from ..crypto.sig import SigningKey, VerifyingKey
from .quote import Quote


@dataclass(frozen=True)
class AttestationReport:
    """IAS response: quote status plus the echoed report fields."""

    status: str
    mrenclave: bytes
    report_data: bytes
    signature: bytes

    def serialize(self) -> bytes:
        body = json.dumps({
            "status": self.status,
            "mrenclave": self.mrenclave.hex(),
            "report_data": self.report_data.hex(),
        }, sort_keys=True).encode()
        return len(body).to_bytes(4, "little") + body + self.signature

    @classmethod
    def parse(cls, data: bytes) -> "AttestationReport":
        length = int.from_bytes(data[:4], "little")
        body = data[4:4 + length]
        signature = data[4 + length:]
        fields = json.loads(body)
        return cls(fields["status"], bytes.fromhex(fields["mrenclave"]),
                   bytes.fromhex(fields["report_data"]), signature)

    def signed_body(self) -> bytes:
        return json.dumps({
            "status": self.status,
            "mrenclave": self.mrenclave.hex(),
            "report_data": self.report_data.hex(),
        }, sort_keys=True).encode()


class AttestationService:
    """Registry of trusted platforms + report signing."""

    def __init__(self, seed: bytes = b"ias-service"):
        self._key = SigningKey(seed)
        self._platforms = {}

    @property
    def verifying_key(self) -> VerifyingKey:
        """The service's well-known report-signing public key."""
        return self._key.verifying_key

    def provision_platform(self, platform_id: bytes,
                           key: VerifyingKey) -> None:
        self._platforms[bytes(platform_id)] = key

    def verify_quote(self, quote_bytes: bytes) -> AttestationReport:
        """Verify a serialized quote and return a signed report."""
        quote = Quote.parse(quote_bytes)
        platform_key = self._platforms.get(bytes(quote.platform_id))
        if platform_key is None:
            raise AttestationError("unknown platform")
        ok = platform_key.verify(quote.report.serialize(), quote.signature)
        status = "OK" if ok else "SIGNATURE_INVALID"
        report = AttestationReport(
            status=status,
            mrenclave=quote.report.mrenclave,
            report_data=quote.report.report_data,
            signature=b"")
        signature = self._key.sign(report.signed_body())
        return AttestationReport(report.status, report.mrenclave,
                                 report.report_data, signature)


def check_attestation_report(report: AttestationReport,
                             ias_key: VerifyingKey,
                             expected_mrenclave: bytes) -> None:
    """Client-side validation a data owner performs on an IAS report."""
    if not ias_key.verify(report.signed_body(), report.signature):
        raise AttestationError("attestation report signature invalid")
    if report.status != "OK":
        raise AttestationError(f"quote status {report.status}")
    if report.mrenclave != expected_mrenclave:
        raise AttestationError("MRENCLAVE mismatch: untrusted bootstrap")
