"""Authenticated secure channel with P0-style traffic shaping.

The channel models the RA-TLS session between the bootstrap enclave and a
remote party: RFC 8439 ChaCha20 encryption, HMAC-SHA256 authentication
(encrypt-then-MAC), strictly increasing sequence numbers (replay
protection), and **fixed-length record padding** — the paper's covert-
channel countermeasure: an observer of the wire sees only the number of
equal-sized records, never the plaintext length.

Each record is enciphered under its own nonce (its sequence number) from
block counter 0.  All records of one message share a single keystream
kernel call; :meth:`SecureChannel.open` authenticates every record, in
order, before it deciphers any of them.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from typing import List, Tuple

from ..errors import ProtocolError
from .chacha import chacha20_keystream, xor_bytes
from .hkdf import hkdf

_MAC_LEN = 32
_LEN_HDR = 4


def derive_channel_keys(shared_secret: bytes, transcript: bytes,
                        role: str) -> Tuple[bytes, bytes, bytes, bytes]:
    """Derive (send_key, send_mac, recv_key, recv_mac) for ``role``.

    ``role`` is ``"client"`` or ``"server"``; the two sides derive
    mirrored key sets from the DH secret and the handshake transcript.
    """
    if role not in ("client", "server"):
        raise ProtocolError(f"bad role {role!r}")
    okm = hkdf(shared_secret, hashlib.sha256(transcript).digest(),
               b"deflection-channel-v1", 128)
    c2s_key, c2s_mac = okm[0:32], okm[32:64]
    s2c_key, s2c_mac = okm[64:96], okm[96:128]
    if role == "client":
        return c2s_key, c2s_mac, s2c_key, s2c_mac
    return s2c_key, s2c_mac, c2s_key, c2s_mac


class SecureChannel:
    """One endpoint of an established channel.

    ``record_size`` is the fixed plaintext capacity per record; messages
    are split and zero-padded so every ciphertext record has identical
    length (P0 entropy control).
    """

    def __init__(self, send_key: bytes, send_mac: bytes,
                 recv_key: bytes, recv_mac: bytes,
                 record_size: int = 1024,
                 rekey_after: int = None):
        if record_size <= _LEN_HDR:
            raise ProtocolError(
                f"record_size must exceed the {_LEN_HDR}-byte length "
                f"header (got {record_size})")
        self._send_key = send_key
        self._send_mac = send_mac
        self._recv_key = recv_key
        self._recv_mac = recv_mac
        self._send_seq = 0
        self._recv_seq = 0
        self.record_size = record_size
        #: Records per direction before the keys auto-ratchet.  ``None``
        #: disables the ratchet (one static key for the session — fine
        #: for request/response, not for long-lived streaming sessions
        #: where ``_send_seq`` would otherwise grow unbounded over one
        #: key).  Both endpoints see the same record stream, so the
        #: per-direction ratchets fire in lockstep.
        self.rekey_after = rekey_after
        #: Completed key ratchets (both auto and explicit).
        self.rekeys = 0
        #: Set when :meth:`open` failed mid-stream.  The receive sequence
        #: number can no longer be trusted to mirror the peer's, so the
        #: endpoint fails closed: every further seal/open raises until
        #: the session is re-established with fresh keys.
        self.desynced = False

    @classmethod
    def pair(cls, shared_secret: bytes, transcript: bytes = b"",
             record_size: int = 1024) -> Tuple["SecureChannel",
                                               "SecureChannel"]:
        """Build a connected (client, server) endpoint pair — test helper."""
        ck = derive_channel_keys(shared_secret, transcript, "client")
        sk = derive_channel_keys(shared_secret, transcript, "server")
        return cls(*ck, record_size=record_size), \
            cls(*sk, record_size=record_size)

    # -- records ---------------------------------------------------------

    def _nonce(self, seq: int) -> bytes:
        return struct.pack("<Q", seq) + b"\x00" * 4

    def _desync(self, message: str) -> None:
        self.desynced = True
        raise ProtocolError(message)

    def _check_usable(self) -> None:
        if self.desynced:
            raise ProtocolError(
                "channel desynced by an earlier record failure; "
                "re-establish the session")

    # -- key ratcheting --------------------------------------------------

    @staticmethod
    def _ratchet(key: bytes, mac: bytes) -> Tuple[bytes, bytes]:
        """One-way HKDF step: the old (key, mac) pair derives the new
        one and is then discarded — a record forged under the old keys
        can never authenticate again."""
        okm = hkdf(key, mac, b"deflection-channel-rekey-v1", 64)
        return okm[:32], okm[32:64]

    def _maybe_ratchet_send(self) -> None:
        if self.rekey_after is not None and \
                self._send_seq >= self.rekey_after:
            self._send_key, self._send_mac = self._ratchet(
                self._send_key, self._send_mac)
            self._send_seq = 0
            self.rekeys += 1

    def _maybe_ratchet_recv(self) -> None:
        if self.rekey_after is not None and \
                self._recv_seq >= self.rekey_after:
            self._recv_key, self._recv_mac = self._ratchet(
                self._recv_key, self._recv_mac)
            self._recv_seq = 0
            self.rekeys += 1

    def rekey(self) -> None:
        """Explicitly ratchet both directions and reset the sequence
        counters.  Both endpoints must rekey at the same stream
        position (e.g. a protocol-level rekey message, or the
        ``rekey_after`` threshold doing it implicitly); a desynced
        channel refuses — rekeying would only mask the earlier
        failure."""
        self._check_usable()
        self._send_key, self._send_mac = self._ratchet(
            self._send_key, self._send_mac)
        self._recv_key, self._recv_mac = self._ratchet(
            self._recv_key, self._recv_mac)
        self._send_seq = 0
        self._recv_seq = 0
        self.rekeys += 1

    def _cipher(self, keyed: List[Tuple[bytes, int]],
                data: bytes) -> bytes:
        """XOR whole records ``data`` with each record's keystream;
        ``keyed`` holds one (cipher key, sequence number) per record."""
        size = self.record_size
        blocks = -(-size // 64)
        stream = chacha20_keystream(
            [(key, self._nonce(seq), 0, blocks) for key, seq in keyed])
        if size % 64:
            stream = b"".join(stream[off:off + size]
                              for off in range(0, len(stream), 64 * blocks))
        return xor_bytes(data, stream)

    @staticmethod
    def _tag(mac_key: bytes, seq: int, ct: bytes) -> bytes:
        return hmac.digest(mac_key, struct.pack("<Q", seq) + ct, "sha256")

    def seal(self, plaintext: bytes) -> bytes:
        """Encrypt ``plaintext`` into one or more fixed-size records."""
        self._check_usable()
        size = self.record_size
        payload = size - _LEN_HDR
        chunks = [plaintext[i:i + payload]
                  for i in range(0, len(plaintext), payload)] or [b""]
        bodies, keyed, macs = [], [], []
        for chunk in chunks:
            self._maybe_ratchet_send()
            body = struct.pack("<I", len(chunk)) + chunk
            bodies.append(body + b"\x00" * (size - len(body)))
            keyed.append((self._send_key, self._send_seq))
            macs.append(self._send_mac)
            self._send_seq += 1
        cts = self._cipher(keyed, b"".join(bodies))
        records = []
        for i, ((_, seq), mac_key) in enumerate(zip(keyed, macs)):
            ct = cts[i * size:(i + 1) * size]
            records += [ct, self._tag(mac_key, seq, ct)]
        return b"".join(records)

    def open(self, wire: bytes) -> bytes:
        """Decrypt and authenticate records produced by the peer.

        Every record's MAC is checked, in order, before any record is
        deciphered; then every length field is checked.  Any failure —
        an empty or truncated stream, a bad MAC, a bad length field —
        returns no plaintext and marks the endpoint :attr:`desynced`:
        the local receive counter may no longer mirror the peer's send
        counter, and continuing would either reject every honest record
        or, worse, accept a replay window.  A desynced channel refuses
        all further use; the session must be re-established.
        """
        self._check_usable()
        size = self.record_size
        record_len = size + _MAC_LEN
        if not wire:
            self._desync("empty wire: truncated record stream")
        if len(wire) % record_len:
            self._desync("truncated record stream")
        cts, keyed = [], []
        for off in range(0, len(wire), record_len):
            self._maybe_ratchet_recv()
            ct = wire[off:off + size]
            seq = self._recv_seq
            if not hmac.compare_digest(
                    self._tag(self._recv_mac, seq, ct),
                    wire[off + size:off + record_len]):
                self._desync(f"record {seq}: bad MAC")
            self._recv_seq += 1
            cts.append(ct)
            keyed.append((self._recv_key, seq))
        bodies = self._cipher(keyed, b"".join(cts))
        out = []
        for i, (_, seq) in enumerate(keyed):
            (length,) = struct.unpack_from("<I", bodies, i * size)
            if length > size - _LEN_HDR:
                self._desync(f"record {seq}: bad length")
            start = i * size + _LEN_HDR
            out.append(bodies[start:start + length])
        return b"".join(out)

    def wire_length(self, plaintext_len: int) -> int:
        """Bytes on the wire for a message — depends only on record count."""
        payload = self.record_size - _LEN_HDR
        records = max(1, -(-plaintext_len // payload))
        return records * (self.record_size + _MAC_LEN)
