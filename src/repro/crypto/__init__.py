"""Cryptographic substrate for attestation and secure channels.

Everything is implemented from scratch on stdlib hash primitives:
the RFC 8439 ChaCha20 stream cipher (a lane-parallel kernel that
computes many blocks per call), finite-field Diffie-Hellman (RFC 3526
group), HKDF-SHA256, Schnorr signatures (powers of the generator through
a fixed-base table), and an encrypt-then-MAC channel with the
fixed-length padding that policy P0 uses for entropy control.  The fast
paths change how values are computed, never the values: signatures,
DH publics and channel bytes match plain ``pow`` and one-block-at-a-time
ChaCha20 exactly.

These stand in for the paper's mbedTLS + RA-TLS + EPID quote stack.
They are *simulation grade*: correct constructions, no side-channel
hardening, not for production use.
"""

from .chacha import ChaCha20, chacha20_xor
from .dh import DHKeyPair, MODP_2048_P, MODP_2048_G
from .hkdf import hkdf_extract, hkdf_expand, hkdf
from .sig import SigningKey, VerifyingKey
from .channel import SecureChannel, derive_channel_keys

__all__ = [
    "ChaCha20", "chacha20_xor",
    "DHKeyPair", "MODP_2048_P", "MODP_2048_G",
    "hkdf_extract", "hkdf_expand", "hkdf",
    "SigningKey", "VerifyingKey",
    "SecureChannel", "derive_channel_keys",
]
