"""Crypto substrate: RFC vectors, roundtrips, negative paths, and
known answers that pin the exact bytes on the wire."""

import hashlib
import hmac
import random
import struct

import pytest
from hypothesis import given, strategies as st

from repro.crypto import (
    ChaCha20, chacha20_xor, DHKeyPair, SecureChannel, SigningKey,
    VerifyingKey, derive_channel_keys, hkdf, hkdf_expand, hkdf_extract,
)
from repro.crypto.chacha import chacha20_keystream
from repro.crypto.dh import (
    G_POW, FixedBase, MODP_2048_G, MODP_2048_P, MODP_2048_Q,
)
from repro.errors import ProtocolError

# Known answers.  Fast paths may change how a value is computed, never
# the value: these hex strings were produced by plain ``pow`` and the
# one-block-at-a-time RFC 8439 cipher.
_KAT_SIG = (
    "128755de8e7f26a559b965c263f78d450118d84e9d2270cee527bce0f00ab510"
    "087618593b393f11f7b1cc0889df601d86e24bb7529126700be5a8d8f256e33b"
    "7fffffffffffffffe487ed5110b4611a62633145c06e0e68948127044533e63a"
    "0105df531d89cd9128a5043cc71a026ef7ca8cd9e69d218d98158536f92f8a1b"
    "a7f09ab6b6a8e122f242dabb312f3f637a262174d31bf6b585ffae5b7a035bf6"
    "f71c35fdad44cfd2d74f9208be258ff324943328f6722d9ee1003e5c50b1df82"
    "c205b959409331ce3e90db785e26cc6aa7a094e3a7097a5c4d5d390dd2f91877"
    "a29b0b572a6ba7eaed508fa0758a319b90c0acb413be4acb5438dd6149fc2a22"
    "512d15106e72ca084e773d8e92dab8093c11664cb660170ee109127ab12c125a"
    "502a98cc9bfeb961b37fc333c5e90191e932553e297c680706927d7de0b4780b")
_KAT_Y = (
    "806b64242e6a8191775f3c146a3f6ca426c0e3302f96cbb23691791f5a24796f"
    "64def8996a1086e1a19e27dd7ddfb3f89b808352f492472795dae30ed1c8cb85"
    "3e2471d4c079f7a2907a7b7c5b6cfe87fc3fc6dafcfcb018db1e625b23b08acb"
    "afa1775348735559cb058a64d2cf4b9325df64ad36d96cd3472d8aa3072c01ef"
    "483e78dece2d05cc0622a5695c4f0183ae079bf8bb8247d368ffa5be744db0aa"
    "f514309306f44cbce5ec69d13549c2921ae60e37c53993f1351ea14b1612f34b"
    "94028d8e76db2bb2bb3e6e4f60a6a201c7d3e5b812fa8dbafd4c38f521a64823"
    "2d085263049c038f73a30912adc2b766bdcb4e5617a1c1b40d184dbfb3329b66")
_KAT_DH = (
    "1e979072d9326ca25a46e053c8f055fc4351da333fd261433610f8ee38ff306b"
    "dce9cdb7798683503c7ae70b530ca7cd52f74e05f3a041737559005271e29e58"
    "ef762e895cc01df6cb1eb6ac04bc065416b9dcd30dd4bbcaaf2659aef8a4516e"
    "cead4b18757f4150587a455f09fa3ffe31e8ba5fc7e2397e08888d984641d88b"
    "b259b28db2e42d3d76d1192abf059948abede77042b38292be9061ac581c8036"
    "be1bbd96de0e65eeb7e34a6ed935c6ff30b439130b936d60f1eae1ff2b5c73bf"
    "b953b1077e73de5e57a4ab85f93cc412e0a6e352f4daefabb5e5aa768644be76"
    "3f8baa1c63c2dc880bdb5dd0ca42761d1e81b56d8b4a7b9dc561d19590e6cb29")
#: sha256 of a 6-record message sealed with ``record_size=100`` and
#: ``rekey_after=3`` (the keys ratchet after the third record).
_KAT_WIRE_SHA256 = \
    "f3d31c4173e954789de94dd19e9f0792062f37e035afcf8133b6a2b5ea583770"


# -- ChaCha20 ---------------------------------------------------------------

def test_chacha20_rfc8439_vector():
    # RFC 8439 §2.4.2 test vector
    key = bytes(range(32))
    nonce = bytes.fromhex("000000000000004a00000000")
    plaintext = (b"Ladies and Gentlemen of the class of '99: If I could "
                 b"offer you only one tip for the future, sunscreen would "
                 b"be it.")
    expected = bytes.fromhex(
        "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
        "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
        "5af90bbf74a35be6b40b8eedf2785e42874d")
    assert chacha20_xor(key, nonce, plaintext, counter=1) == expected


def test_batched_keystream_matches_rfc8439_vector():
    # RFC 8439 §2.4.2: the keystream is the ciphertext XOR plaintext,
    # here produced by one kernel call across two segments (block 1 on
    # its own, then blocks 2-3), plus unrelated lanes around them.
    key = bytes(range(32))
    nonce = bytes.fromhex("000000000000004a00000000")
    plaintext = (b"Ladies and Gentlemen of the class of '99: If I could "
                 b"offer you only one tip for the future, sunscreen would "
                 b"be it.")
    ciphertext = bytes.fromhex(
        "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
        "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
        "5af90bbf74a35be6b40b8eedf2785e42874d")
    other = (b"\x01" * 32, b"\x02" * 12, 7, 3)
    stream = chacha20_keystream(
        [other, (key, nonce, 1, 1), (key, nonce, 2, 1), other])
    vector = stream[3 * 64:3 * 64 + len(plaintext)]
    assert bytes(a ^ b for a, b in zip(plaintext, ciphertext)) == vector
    assert stream[:3 * 64] == stream[5 * 64:]


def test_keystream_counter_wraps_like_one_block_at_a_time():
    key, nonce = b"k" * 32, b"n" * 12
    batched = chacha20_keystream([(key, nonce, 2 ** 32 - 1, 2)])
    assert batched[:64] == ChaCha20(key, nonce, 2 ** 32 - 1).keystream(64)
    assert batched[64:] == ChaCha20(key, nonce, 0).keystream(64)
    assert chacha20_keystream([]) == b""
    assert chacha20_xor(key, nonce, b"") == b""


def test_chacha20_involution():
    key = b"k" * 32
    nonce = b"n" * 12
    data = b"secret payload" * 10
    assert chacha20_xor(key, nonce, chacha20_xor(key, nonce, data)) == data


def test_chacha20_rejects_bad_key_nonce():
    with pytest.raises(ValueError):
        ChaCha20(b"short", b"n" * 12)
    with pytest.raises(ValueError):
        ChaCha20(b"k" * 32, b"short")


@given(data=st.binary(max_size=300))
def test_chacha20_keystream_xor_property(data):
    key = b"\x07" * 32
    nonce = b"\x01" * 12
    ct = chacha20_xor(key, nonce, data)
    assert len(ct) == len(data)
    assert chacha20_xor(key, nonce, ct) == data


# -- HKDF ---------------------------------------------------------------------

def test_hkdf_rfc5869_case1():
    ikm = b"\x0b" * 22
    salt = bytes.fromhex("000102030405060708090a0b0c")
    info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
    prk = hkdf_extract(salt, ikm)
    assert prk == bytes.fromhex(
        "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
    okm = hkdf_expand(prk, info, 42)
    assert okm == bytes.fromhex(
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865")


def test_hkdf_length_cap():
    with pytest.raises(ValueError):
        hkdf_expand(b"\x00" * 32, b"", 255 * 32 + 1)


def test_hkdf_deterministic_and_info_bound():
    a = hkdf(b"ikm", b"salt", b"info-a", 32)
    b = hkdf(b"ikm", b"salt", b"info-b", 32)
    assert a != b
    assert a == hkdf(b"ikm", b"salt", b"info-a", 32)


# -- DH ------------------------------------------------------------------------

def test_fixed_base_pow_equals_builtin_pow():
    rng = random.Random(2021)
    exponents = [0, 1, 2, 63, 64, MODP_2048_Q - 1, 2 ** 512 - 1,
                 2 ** 2048 - 1, 2 ** 2052 - 1]
    exponents += [rng.getrandbits(rng.randrange(1, 2049))
                  for _ in range(40)]
    for e in exponents:
        assert G_POW.pow(e) == pow(MODP_2048_G, e, MODP_2048_P), e
    # Wider than the table: the builtin fallback, same value.
    wide = 2 ** 2200 + 12345
    assert G_POW.pow(wide) == pow(MODP_2048_G, wide, MODP_2048_P)
    y = int(_KAT_Y, 16)
    y_pow = FixedBase(y, MODP_2048_P, 512, 5)
    for e in [0, 1, 2 ** 512 - 1, 2 ** 512, MODP_2048_Q - 1,
              rng.getrandbits(512), rng.getrandbits(511)]:
        assert y_pow.pow(e) == pow(y, e, MODP_2048_P), e


def test_signature_and_publics_match_known_answers():
    key = SigningKey(b"kat")
    assert key.sign(b"msg").hex() == _KAT_SIG
    assert format(key.verifying_key.y, "x") == _KAT_Y
    assert format(DHKeyPair(b"kat").public, "x") == _KAT_DH
    # A fresh key object (its own, not yet built, y table) verifies it.
    fresh = VerifyingKey(int(_KAT_Y, 16))
    assert fresh.verify(b"msg", bytes.fromhex(_KAT_SIG))
    assert fresh.verify(b"msg", bytes.fromhex(_KAT_SIG))
    assert not fresh.verify(b"msh", bytes.fromhex(_KAT_SIG))


def test_dh_agreement():
    alice = DHKeyPair(b"alice")
    bob = DHKeyPair(b"bob")
    assert alice.shared_secret(bob.public) == \
        bob.shared_secret(alice.public)


def test_dh_distinct_pairs_distinct_secrets():
    alice = DHKeyPair(b"alice")
    bob = DHKeyPair(b"bob")
    eve = DHKeyPair(b"eve")
    assert alice.shared_secret(bob.public) != \
        alice.shared_secret(eve.public)


def test_dh_rejects_degenerate_publics():
    alice = DHKeyPair(b"alice")
    from repro.crypto.dh import MODP_2048_P
    for bad in (0, 1, MODP_2048_P - 1, MODP_2048_P):
        with pytest.raises(ValueError):
            alice.shared_secret(bad)


def test_dh_public_bytes_roundtrip():
    kp = DHKeyPair(b"seed")
    assert DHKeyPair.public_from_bytes(kp.public_bytes()) == kp.public


# -- Schnorr ---------------------------------------------------------------------

def test_schnorr_sign_verify():
    key = SigningKey(b"signer")
    message = b"attestation report body"
    signature = key.sign(message)
    assert key.verifying_key.verify(message, signature)


def test_schnorr_rejects_wrong_message_and_key():
    key = SigningKey(b"signer")
    other = SigningKey(b"other")
    sig = key.sign(b"hello")
    assert not key.verifying_key.verify(b"hullo", sig)
    assert not other.verifying_key.verify(b"hello", sig)


def test_schnorr_rejects_mangled_signature():
    key = SigningKey(b"signer")
    sig = bytearray(key.sign(b"msg"))
    sig[5] ^= 1
    assert not key.verifying_key.verify(b"msg", bytes(sig))
    assert not key.verifying_key.verify(b"msg", b"short")


def test_verifying_key_serialization():
    key = SigningKey(b"k")
    vk = VerifyingKey.from_bytes(key.verifying_key.to_bytes())
    assert vk.verify(b"m", key.sign(b"m"))


# -- SecureChannel -----------------------------------------------------------------

def _pair(record_size=128):
    return SecureChannel.pair(b"\x42" * 32, b"transcript",
                              record_size=record_size)


def test_channel_roundtrip_and_padding():
    client, server = _pair()
    wire = client.seal(b"hello")
    assert len(wire) == client.record_size + 32
    assert server.open(wire) == b"hello"


def test_channel_fixed_length_hides_plaintext_size():
    client, _ = _pair()
    a = client.seal(b"x")
    client2, _ = _pair()
    b = client2.seal(b"y" * 100)
    assert len(a) == len(b)  # P0 entropy control: same wire size


def test_channel_multi_record_messages():
    client, server = _pair(record_size=64)
    msg = bytes(range(256)) * 3
    assert server.open(client.seal(msg)) == msg


def test_channel_rejects_tampering():
    client, server = _pair()
    wire = bytearray(client.seal(b"data"))
    wire[3] ^= 1
    with pytest.raises(ProtocolError, match="MAC"):
        server.open(bytes(wire))


def test_channel_rejects_replay():
    client, server = _pair()
    wire = client.seal(b"data")
    server.open(wire)
    with pytest.raises(ProtocolError, match="MAC"):
        server.open(wire)  # recv seq advanced: replay fails


def test_channel_rejects_truncation():
    client, server = _pair()
    wire = client.seal(b"data")
    with pytest.raises(ProtocolError, match="truncated"):
        server.open(wire[:-1])


@pytest.mark.parametrize("record_size", [-1, 0, 3, 4])
def test_channel_rejects_record_size_at_or_below_header(record_size):
    # record_size <= the 4-byte length header used to slip through and
    # blow up later in seal() with a zero/negative chunk step
    with pytest.raises(ProtocolError, match="record_size"):
        _pair(record_size=record_size)


def test_channel_smallest_legal_record_size_roundtrips():
    client, server = _pair(record_size=5)   # 1 payload byte per record
    msg = b"tiny-but-legal"
    wire = client.seal(msg)
    assert len(wire) == len(msg) * (5 + 32)
    assert server.open(wire) == msg
    # empty messages still emit exactly one padded record
    client2, server2 = _pair(record_size=5)
    assert server2.open(client2.seal(b"")) == b""


def test_channel_wire_length_depends_only_on_record_count():
    client, _ = _pair(record_size=128)
    assert client.wire_length(1) == client.wire_length(100)
    assert client.wire_length(1) < client.wire_length(5000)


def _rekeying_pair(record_size=100, rekey_after=3):
    client, server = _pair(record_size=record_size)
    client.rekey_after = server.rekey_after = rekey_after
    return client, server


def test_multi_record_seal_across_rekey_boundary_matches_known_answer():
    client, server = _rekeying_pair()
    msg = bytes(range(256)) * 2          # 6 records of 96 payload bytes
    wire = client.seal(msg)
    assert hashlib.sha256(wire).hexdigest() == _KAT_WIRE_SHA256
    assert client.rekeys == 1
    assert server.open(wire) == msg
    assert server.rekeys == 1
    # Records keep flowing in lockstep after the in-message ratchet.
    for size in (0, 95, 96, 97, 500):
        part = bytes(range(size % 256)) * (size // 256 + 1)
        assert server.open(client.seal(part[:size])) == part[:size]
    assert client.rekeys == server.rekeys


def _forge(wire, record_size, record, *, mac=None, length=None):
    """Rewrite record ``record`` of ``wire``: either flip its MAC, or
    re-encrypt it with a different length field and a *valid* MAC (the
    keys of the pair built by ``_pair``, before any ratchet)."""
    send_key, send_mac, _, _ = derive_channel_keys(
        b"\x42" * 32, b"transcript", "client")
    record_len = record_size + 32
    off = record * record_len
    ct = wire[off:off + record_size]
    tag = wire[off + record_size:off + record_len]
    if mac is not None:
        tag = bytes([tag[0] ^ 1]) + tag[1:]
    if length is not None:
        nonce = struct.pack("<Q", record) + b"\x00" * 4
        body = bytearray(chacha20_xor(send_key, nonce, ct))
        body[:4] = struct.pack("<I", length)
        ct = chacha20_xor(send_key, nonce, bytes(body))
        tag = hmac.new(send_mac, struct.pack("<Q", record) + ct,
                       hashlib.sha256).digest()
    return wire[:off] + ct + tag + wire[off + record_len:]


@pytest.mark.parametrize("record", [1, 3])
@pytest.mark.parametrize("tamper", ["mac", "length"])
def test_multi_record_open_rejects_tampering_at_later_record(record, tamper):
    client, server = _pair(record_size=64)
    wire = client.seal(bytes(range(200)))          # 4 records
    assert len(wire) == 4 * (64 + 32)
    forged = _forge(wire, 64, record,
                    **({"mac": True} if tamper == "mac"
                       else {"length": 61}))
    with pytest.raises(ProtocolError,
                       match="bad MAC" if tamper == "mac"
                       else "bad length") as err:
        server.open(forged)
    assert f"record {record}" in str(err.value)
    assert server.desynced
    with pytest.raises(ProtocolError, match="desynced"):
        server.open(wire)


def test_open_checks_every_mac_before_deciphering(monkeypatch):
    import repro.crypto.channel as channel_mod
    client, server = _pair(record_size=64)
    wire = _forge(client.seal(bytes(range(200))), 64, 2, mac=True)
    calls = []
    monkeypatch.setattr(channel_mod, "chacha20_keystream",
                        lambda segments: calls.append(1) or b"")
    with pytest.raises(ProtocolError, match="record 2: bad MAC"):
        server.open(wire)
    assert calls == []    # nothing was deciphered


@given(msg=st.binary(max_size=1000))
def test_channel_roundtrip_property(msg):
    client, server = _pair(record_size=96)
    assert server.open(client.seal(msg)) == msg
