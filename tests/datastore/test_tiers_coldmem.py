"""Proof that cold-tier reads go through mmap, not the heap.

A store whose cold tier is larger than a hard ``RLIMIT_DATA`` memory
budget must still answer planned queries: file-backed mmap pages are
not charged against the data segment, so the query path succeeds iff
it streams only the pages its masks touch.  If anything on the read
path materialized the cold payload blob (or a whole column) into the
heap, the capped child process would die with MemoryError.

CI runs this file under ``pytest -p no:cacheprovider`` so the cache
plugin cannot shave or pad the child's memory profile.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.datastore.store import DataStore
from repro.datastore.tiers import TierPolicy
from repro.netsim.packets import PacketRecord

SRC = str(Path(__file__).resolve().parents[2] / "src")

N_RECORDS = 24_576
PAYLOAD_BYTES = 8_192            # cold payload blob: ~192 MiB
HEADROOM_BYTES = 96 << 20        # what the child may allocate on top

POLICY = TierPolicy(warm_fanin=2, warm_max_segments=1, cold_fanin=3)


def _build_big_cold_store(spill_dir: Path) -> None:
    store = DataStore(segment_capacity=8_192, tiers=POLICY,
                      spill_dir=spill_dir)
    for start in range(0, N_RECORDS, 8_192):
        batch = [
            PacketRecord(
                timestamp=i * 0.001, src_ip=f"10.0.{i % 4}.{i % 200}",
                dst_ip="10.1.0.1", src_port=1024 + i % 5000,
                dst_port=40_001 if i % 1_000 == 0 else 80,
                protocol=6, size=PAYLOAD_BYTES + 40,
                payload_len=PAYLOAD_BYTES, flags=2, ttl=64,
                payload=bytes([i & 0xFF]) * PAYLOAD_BYTES,
                flow_id=i % 16, app="bulk", label="", direction="in")
            for i in range(start, start + 8_192)
        ]
        store.ingest_packets(batch)
    store.flush_to_cold()
    store.compactor.run()
    _, warm, cold = store.tier_segments()
    assert not warm and cold
    total = sum(s.bytes_estimate for s in cold)
    assert total > N_RECORDS * PAYLOAD_BYTES     # bigger than the budget


CHILD = textwrap.dedent("""
    import json, resource, sys
    sys.path.insert(0, sys.argv[1])
    from repro.datastore.query import Query
    from repro.datastore.store import DataStore
    from repro.datastore.tiers import TierPolicy

    spill, headroom = sys.argv[2], int(sys.argv[3])
    policy = TierPolicy(warm_fanin=2, warm_max_segments=1, cold_fanin=3)
    # open first: checksum verification may buffer, and the imports
    # above dominate the baseline heap we measure next.
    store = DataStore(segment_capacity=8192, tiers=policy,
                      spill_dir=spill)

    vmdata_kb = 0
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmData:"):
                vmdata_kb = int(line.split()[1])
    cap = vmdata_kb * 1024 + headroom
    resource.setrlimit(resource.RLIMIT_DATA, (cap, cap))

    rare = store.query(Query(collection="packets",
                             where={"dst_port": 40001}))
    window = store.query(Query(collection="packets",
                               time_range=(0.9995, 1.0995)))
    sample = rare[0]                        # earliest hit: i == 0
    ok = bytes(sample.record.payload[:4]) == b"\\x00" * 4
    print(json.dumps({"rare": len(rare), "window": len(window),
                      "payload_ok": ok, "cap": cap,
                      "baseline": vmdata_kb * 1024}))
""")


@pytest.mark.skipif(sys.platform != "linux",
                    reason="RLIMIT_DATA mmap exemption is Linux semantics")
def test_bigger_than_budget_cold_store_answers_via_mmap(tmp_path):
    spill = tmp_path / "cold"
    _build_big_cold_store(spill)

    result = subprocess.run(
        [sys.executable, "-c", CHILD, SRC, str(spill),
         str(HEADROOM_BYTES)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, \
        f"capped reader died:\n{result.stderr[-2000:]}"
    answer = json.loads(result.stdout.strip().splitlines()[-1])
    assert answer["rare"] == N_RECORDS // 1_000 + 1
    assert answer["window"] == 100
    assert answer["payload_ok"] is True
    # the proof is real: loading the cold payload blob into the heap
    # would have pushed the data segment past the cap
    assert answer["cap"] - answer["baseline"] < N_RECORDS * PAYLOAD_BYTES
