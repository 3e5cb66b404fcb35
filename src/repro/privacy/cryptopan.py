"""Prefix-preserving IP address anonymization (Crypto-PAn).

Implements the Xu et al. Crypto-PAn construction: the i-th anonymized
bit is the i-th plaintext bit XOR f(P_{i-1}), where P_{i-1} is the
plaintext prefix of length i-1 and f is a keyed pseudo-random function
with one-bit output.  The defining property — two addresses sharing a
k-bit prefix map to anonymized addresses sharing exactly a k-bit
prefix — is what keeps subnet structure (and therefore most learning
features) intact.  We use HMAC-SHA256 as the PRF instead of the
original AES; the property proof only requires a PRF.

Property-tested in ``tests/privacy/test_cryptopan.py``.
"""

from __future__ import annotations

import hashlib
import hmac
import socket
import struct
from typing import Dict


def _ip_to_int(ip: str) -> int:
    return struct.unpack("!I", socket.inet_aton(ip))[0]


def _int_to_ip(value: int) -> str:
    return socket.inet_ntoa(struct.pack("!I", value & 0xFFFFFFFF))


#: addresses the memo holds before it is cleared and refilled
_CACHE_LIMIT = 1 << 18


class CryptoPan:
    """Deterministic, key-driven, prefix-preserving IPv4 anonymizer.

    >>> pan = CryptoPan(b"a 32-byte key for the anonymizer")
    >>> a = pan.anonymize("10.1.2.3")
    >>> b = pan.anonymize("10.1.2.77")
    >>> a.split(".")[:3] == b.split(".")[:3]
    True
    """

    def __init__(self, key: bytes):
        if len(key) < 16:
            raise ValueError("CryptoPan key must be at least 16 bytes")
        self._key = bytes(key)
        self._cache: Dict[str, str] = {}

    def _prf_bit(self, prefix: int, length: int) -> int:
        """One pseudo-random bit for a ``length``-bit prefix value."""
        message = struct.pack("!IB", prefix, length)
        digest = hmac.new(self._key, message, hashlib.sha256).digest()
        return digest[0] & 1

    def _anonymize_int(self, addr: int) -> int:
        result = 0
        for i in range(32):
            # Plaintext prefix of length i (the top i bits).
            prefix = addr >> (32 - i) if i > 0 else 0
            flip = self._prf_bit(prefix, i)
            bit = (addr >> (31 - i)) & 1
            result = (result << 1) | (bit ^ flip)
        return result

    def anonymize(self, ip: str) -> str:
        """Anonymize one dotted-quad IPv4 address (memoized by text)."""
        cached = self._cache.get(ip)
        if cached is not None:
            return cached
        result = _int_to_ip(self._anonymize_int(_ip_to_int(ip)))
        if len(self._cache) >= _CACHE_LIMIT:
            self._cache.clear()
        self._cache[ip] = result
        return result

    def shared_prefix_len(self, ip_a: str, ip_b: str) -> int:
        """Length of the common prefix of two addresses, in bits."""
        a, b = _ip_to_int(ip_a), _ip_to_int(ip_b)
        xor = a ^ b
        if xor == 0:
            return 32
        return 32 - xor.bit_length()
