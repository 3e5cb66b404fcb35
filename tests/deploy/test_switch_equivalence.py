"""Batched sense step against the per-packet sense step it replaced.

``EmulatedSwitch._on_packets`` updates the sketches once per observer
batch and takes tags from the memoized batch extractor.  The oracle
below is the per-packet body, frozen verbatim; both run the same seeded
day on fresh networks and must end in identical state.
"""

import math

import numpy as np
import pytest

from repro.chaos.faults import FaultKind
from repro.chaos.plans import make_fault_plan
from repro.deploy.switch import EmulatedSwitch, SwitchConfig
from repro.events import DnsAmplificationAttack, Scenario, run_scenario
from repro.learning.features import WindowExample
from repro.netsim import make_campus
from tests.capture.metadata_oracle import OracleExtractor
from tests.deploy.test_switch import _ddos_classifier


class _TrackedCount:
    """Counts the packets that reached a window's per-endpoint state."""

    def _evaluate_window(self, window_start):
        self.tracked_packets = getattr(self, "tracked_packets", 0) + sum(
            example.pkts for example in self._buckets[window_start].values())
        return super()._evaluate_window(window_start)


class _BatchSwitch(_TrackedCount, EmulatedSwitch):
    pass


class _PerPacketSwitch(_TrackedCount, EmulatedSwitch):
    """Oracle: per-packet sketch updates and uncached tag extraction."""

    def __init__(self, network, *args, **kwargs):
        super().__init__(network, *args, **kwargs)
        self._metadata = OracleExtractor(network.topology)

    def _on_packets(self, packets):
        if self.obs is not None:
            self._m_packets.inc(len(packets))
        if self.fault_injector is not None and packets and \
                self.fault_injector.should_fire(
                    FaultKind.SWITCH_REGISTER_CORRUPT):
            # SRAM bit-rot: one count-min register jumps by the fault
            # magnitude; estimates for whatever hashes there inflate.
            delta = int(self.fault_injector.magnitude(
                FaultKind.SWITCH_REGISTER_CORRUPT)) or 1
            row, col = self.fault_injector.corruption_site(
                (self.byte_sketch.depth, self.byte_sketch.width))
            self.byte_sketch._table[row, col] += delta
            self.register_corruptions += 1
        window_s = self.config.window_s
        for packet in packets:
            self.packets_processed += 1
            if packet.direction == "in":
                endpoint = packet.src_ip
            else:
                endpoint = packet.dst_ip
            self.byte_sketch.add(endpoint, packet.size)
            self.seen_filter.add(endpoint)
            window_start = math.floor(packet.timestamp / window_s) * window_s
            bucket = self._buckets.setdefault(window_start, {})
            example = bucket.get(endpoint)
            if example is None:
                if len(bucket) >= self.config.max_tracked_keys:
                    continue        # key table full: untracked this window
                example = WindowExample(window_start=window_start,
                                        endpoint=endpoint)
                bucket[endpoint] = example
            tags = self._metadata.extract(packet)
            self._featurizer._accumulate(example, packet, tags)


def _run_day(switch_cls, config, fault_plan):
    net = make_campus("tiny", seed=50)
    injector = make_fault_plan(fault_plan, seed=7).injector() \
        if fault_plan else None
    switch = switch_cls(net, _ddos_classifier(), config,
                        fault_injector=injector)
    scenario = Scenario("ddos-day", duration_s=40.0)
    scenario.add(DnsAmplificationAttack, 10.0, 20.0, attack_gbps=0.1,
                 resolvers=8)
    run_scenario(net, scenario, seed=4)
    return switch


@pytest.mark.parametrize("max_tracked_keys,fault_plan", [
    (SwitchConfig().max_tracked_keys, None),
    (2, None),
    (SwitchConfig().max_tracked_keys, "flaky-switch"),
], ids=["default", "key-table-full", "flaky-switch"])
def test_batched_sense_matches_per_packet_oracle(max_tracked_keys,
                                                 fault_plan):
    config = SwitchConfig(window_s=5.0, grace_s=2.0,
                          confidence_threshold=0.9,
                          mitigation_duration_s=60.0,
                          max_tracked_keys=max_tracked_keys)
    batch = _run_day(_BatchSwitch, config, fault_plan)
    oracle = _run_day(_PerPacketSwitch, config, fault_plan)

    assert oracle.detections and oracle.mitigation_log    # loop reacted
    assert batch.detections == oracle.detections     # all fields, vectors
    assert np.array_equal(batch.byte_sketch._table, oracle.byte_sketch._table)
    assert batch.byte_sketch.total == oracle.byte_sketch.total
    assert np.array_equal(batch.seen_filter._bits, oracle.seen_filter._bits)
    assert batch.seen_filter.count == oracle.seen_filter.count
    assert batch.packets_processed == oracle.packets_processed
    assert batch.mitigation_log == oracle.mitigation_log
    assert batch.resilience_summary() == oracle.resilience_summary()
    assert batch.tracked_packets == oracle.tracked_packets
    # sketches count every sensed packet, tracked or not
    assert oracle.seen_filter.count == oracle.packets_processed
    if max_tracked_keys == 2:
        assert oracle.tracked_packets < oracle.packets_processed
    if fault_plan:
        assert oracle.register_corruptions > 0
        assert oracle.table_misses > 0
