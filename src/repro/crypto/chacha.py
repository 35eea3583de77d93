"""ChaCha20 stream cipher (RFC 8439 block function, from scratch).

One kernel computes many 64-byte blocks at once.  Each of the 16 state
words becomes one Python int holding that word of every block, one
64-bit lane per block (the word in the low 32 bits, the high 32 bits
spare).  The RFC 8439 rounds then run as add/xor/rotate on those ints,
with a lane mask after every add and rotate that clears the carries and
the bits a shift pushes into a neighbouring lane.  Every lane carries
its own key, nonce and counter, so blocks from different keys (a
channel ratchet partway through a message) share one call.
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Tuple

_MASK32 = 0xFFFFFFFF
_CONSTANTS = struct.pack("<4I", 0x61707865, 0x3320646E, 0x79622D32,
                         0x6B206574)
_BLOCK = 64
#: One lane of the mask: the 32-bit word kept, the spare half cleared.
_LANE = b"\xff\xff\xff\xff\x00\x00\x00\x00"

#: (key, nonce, first block counter, block count) of one run of blocks.
Segment = Tuple[bytes, bytes, int, int]


def _double_rounds_source() -> str:
    """Source of the ten double rounds over ``x0``..``x15`` (mask ``m``).

    Each quarter round (a, b, c, d) is RFC 8439 §2.1:
    ``a += b; d ^= a; d <<<= 16; c += d; b ^= c; b <<<= 12;
    a += b; d ^= a; d <<<= 8; c += d; b ^= c; b <<<= 7``.
    """
    quarters = ((0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14),
                (3, 7, 11, 15), (0, 5, 10, 15), (1, 6, 11, 12),
                (2, 7, 8, 13), (3, 4, 9, 14))
    words = ", ".join(f"x{i}" for i in range(16))
    body = []
    for a, b, c, d in quarters:
        for add, into, rot in ((a, d, 16), (c, b, 12), (a, d, 8),
                               (c, b, 7)):
            src = b if add == a else d
            body += [f"x{add} = (x{add} + x{src}) & m",
                     f"t = x{into} ^ x{add}",
                     f"x{into} = (t << {rot} | t >> {32 - rot}) & m"]
    lines = [f"def double_rounds({words}, m):",
             "    for _ in range(10):"]
    lines += [f"        {line}" for line in body]
    lines.append(f"    return {words}")
    return "\n".join(lines)


_namespace: dict = {}
exec(_double_rounds_source(), _namespace)
_double_rounds = _namespace["double_rounds"]


def chacha20_keystream(segments: Iterable[Segment]) -> bytes:
    """Keystream blocks of every segment, concatenated in order.

    A segment ``(key, nonce, counter, blocks)`` yields ``blocks`` blocks
    under one key and nonce, counters ``counter, counter + 1, ...``
    (mod 2**32).  All blocks of all segments run in one kernel call.
    """
    states = []
    for key, nonce, counter, blocks in segments:
        head = _CONSTANTS + key
        states += [head + struct.pack("<I", (counter + i) & _MASK32)
                   + nonce for i in range(blocks)]
    lanes = len(states)
    if not lanes:
        return b""
    mask = int.from_bytes(_LANE * lanes, "little")
    initial = _to_lanes(b"".join(states), mask)
    mixed = _double_rounds(*initial, mask)
    return _from_lanes([(x + s) & mask for x, s in zip(mixed, initial)],
                       lanes)


def _to_lanes(states: bytes, mask: int) -> List[int]:
    """Transpose 64-byte states into 16 lane-packed words.

    Viewed as 8-byte units, unit ``k`` of every block (words 2k and
    2k+1) is gathered with one strided slice; the two words then split
    apart into the low halves of their own lanes."""
    units = memoryview(states).cast("Q")
    words = []
    for k in range(8):
        pair = int.from_bytes(units[k::8].tobytes(), "little")
        words += [pair & mask, (pair >> 32) & mask]
    return words


def _from_lanes(words: List[int], lanes: int) -> bytes:
    """Inverse of :func:`_to_lanes`: 16 lane-packed words -> blocks."""
    out = bytearray(_BLOCK * lanes)
    units = memoryview(out).cast("Q")
    width = 8 * lanes
    for k in range(8):
        pair = words[2 * k] | (words[2 * k + 1] << 32)
        units[k::8] = memoryview(pair.to_bytes(width, "little")).cast("Q")
    return bytes(out)


def xor_bytes(data: bytes, stream: bytes) -> bytes:
    """``data`` XOR the first ``len(data)`` bytes of ``stream``, as one
    big-int operation."""
    n = len(data)
    return (int.from_bytes(data, "little")
            ^ int.from_bytes(stream[:n], "little")).to_bytes(n, "little")


class ChaCha20:
    """ChaCha20 keystream generator/cipher.

    ``key`` is 32 bytes, ``nonce`` is 12 bytes, ``counter`` the initial
    64-byte block counter.  Encryption and decryption are the same
    operation (XOR with the keystream).
    """

    def __init__(self, key: bytes, nonce: bytes, counter: int = 0):
        if len(key) != 32:
            raise ValueError("ChaCha20 key must be 32 bytes")
        if len(nonce) != 12:
            raise ValueError("ChaCha20 nonce must be 12 bytes")
        self._key = bytes(key)
        self._nonce = bytes(nonce)
        self._counter = counter

    def keystream(self, length: int) -> bytes:
        blocks = -(-length // _BLOCK)
        stream = chacha20_keystream(
            [(self._key, self._nonce, self._counter, blocks)])
        self._counter += blocks
        return stream[:length]

    def process(self, data: bytes) -> bytes:
        return xor_bytes(data, self.keystream(len(data)))


def chacha20_xor(key: bytes, nonce: bytes, data: bytes,
                 counter: int = 0) -> bytes:
    """One-shot encrypt/decrypt."""
    return ChaCha20(key, nonce, counter).process(data)
