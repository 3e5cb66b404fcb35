"""The text memo in ``CryptoPan.anonymize`` never changes an answer."""

from hypothesis import given, settings, strategies as st

from repro.privacy import cryptopan
from repro.privacy.cryptopan import CryptoPan, _int_to_ip, _ip_to_int

KEY = b"0123456789abcdef0123456789abcdef"

addresses = st.lists(
    st.integers(min_value=0, max_value=2**32 - 1).map(_int_to_ip),
    min_size=1, max_size=40)


def _uncached(ip):
    return _int_to_ip(CryptoPan(KEY)._anonymize_int(_ip_to_int(ip)))


@settings(max_examples=60, deadline=None)
@given(addresses)
def test_memo_matches_the_uncached_transform(ips):
    pan = CryptoPan(KEY)
    first = [pan.anonymize(ip) for ip in ips]
    assert first == [_uncached(ip) for ip in ips]
    # second pass is served from the memo
    assert [pan.anonymize(ip) for ip in ips] == first


def test_memo_clears_on_overflow_and_refills(monkeypatch):
    monkeypatch.setattr(cryptopan, "_CACHE_LIMIT", 4)
    pan = CryptoPan(KEY)
    ips = [f"10.0.{i}.{i * 7 % 256}" for i in range(11)]
    first = [pan.anonymize(ip) for ip in ips]
    assert len(pan._cache) <= 4
    again = [pan.anonymize(ip) for ip in reversed(ips)]
    assert again == first[::-1]
    assert first == [_uncached(ip) for ip in ips]
    assert len(pan._cache) <= 4
