"""Finite-field Diffie-Hellman over the RFC 3526 2048-bit MODP group.

Used for the key agreement of §III-A: data owner and code provider each
run a DH exchange with the bootstrap enclave after verifying its quote.

Every power of the generator (DH and Schnorr key generation, signing,
the ``g^s`` term of verification) goes through :data:`G_POW`, a
fixed-base table; the results equal builtin ``pow`` exactly.
"""

from __future__ import annotations

import hashlib
import secrets
from typing import List, Optional

MODP_2048_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8"
    "FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C"
    "180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFF"
    "FFFFFFFF", 16)
MODP_2048_G = 2

#: Order of the prime-order subgroup (p is a safe prime, q = (p-1)/2).
MODP_2048_Q = (MODP_2048_P - 1) // 2


class FixedBase:
    """``base ** e % modulus`` for a fixed ``base`` (BGMW/Yao).

    The table holds ``base ** (2 ** (window * i))`` for every
    ``window``-bit digit position of a ``bits``-wide exponent, built on
    first use.  An exponent is split into digits; the table entries of
    equal digits are multiplied into one bucket per digit value, and
    the buckets are combined as ``prod(bucket[d] ** d)`` with two
    running products.  That costs about ``bits / window + 2 **
    (window + 1)`` modular multiplications and no squarings, where
    ``pow`` needs ``bits`` squarings.  An exponent wider than the table
    (or negative) falls back to ``pow``.
    """

    def __init__(self, base: int, modulus: int, bits: int, window: int):
        self.base = base
        self.modulus = modulus
        self.bits = bits
        self.window = window
        self._table: Optional[List[int]] = None

    def _build(self) -> List[int]:
        table = []
        value = self.base % self.modulus
        step = 1 << self.window
        for _ in range(-(-self.bits // self.window)):
            table.append(value)
            value = pow(value, step, self.modulus)
        self._table = table
        return table

    def pow(self, exponent: int) -> int:
        if exponent < 0 or exponent.bit_length() > self.bits:
            return pow(self.base, exponent, self.modulus)
        table = self._table or self._build()
        modulus = self.modulus
        window = self.window
        mask = (1 << window) - 1
        buckets: List[Optional[int]] = [None] * (mask + 1)
        for entry in table:
            if not exponent:
                break
            digit = exponent & mask
            if digit:
                held = buckets[digit]
                buckets[digit] = entry if held is None \
                    else held * entry % modulus
            exponent >>= window
        # run = prod(bucket[d'] for d' >= d); acc = prod over d of run
        # = prod(bucket[d] ** d).
        acc = run = None
        for digit in range(mask, 0, -1):
            held = buckets[digit]
            if held is not None:
                run = held if run is None else run * held % modulus
            if run is not None:
                acc = run if acc is None else acc * run % modulus
        return 1 % modulus if acc is None else acc


#: Window 6 over the full 2048-bit width: 342 entries (~100 KB).
G_POW = FixedBase(MODP_2048_G, MODP_2048_P, MODP_2048_P.bit_length(), 6)


class DHKeyPair:
    """Ephemeral DH key pair with a deterministic-from-seed option.

    A seed keeps protocol tests reproducible; production callers omit it
    and get a fresh random exponent.
    """

    def __init__(self, seed: bytes = None):
        if seed is None:
            exponent = secrets.randbits(512)
        else:
            exponent = int.from_bytes(
                hashlib.sha512(b"dh-exponent" + seed).digest(), "big")
        self._x = exponent % MODP_2048_Q or 2
        self.public = G_POW.pow(self._x)

    def shared_secret(self, peer_public: int) -> bytes:
        """Return the hashed shared secret with ``peer_public``.

        Rejects degenerate public values (0, 1, p-1) that would force a
        predictable secret.
        """
        if not 1 < peer_public < MODP_2048_P - 1:
            raise ValueError("degenerate DH public value")
        secret = pow(peer_public, self._x, MODP_2048_P)
        raw = secret.to_bytes((MODP_2048_P.bit_length() + 7) // 8, "big")
        return hashlib.sha256(b"dh-shared" + raw).digest()

    def public_bytes(self) -> bytes:
        return self.public.to_bytes(256, "big")

    @staticmethod
    def public_from_bytes(data: bytes) -> int:
        if len(data) != 256:
            raise ValueError("DH public value must be 256 bytes")
        return int.from_bytes(data, "big")
