"""The per-direction synthesizer against the frozen per-packet oracle.

Every packet must agree with :mod:`tests.netsim.synth_oracle` in every
field, in value and in type, and in the same order — over generated
flows that hit the edge cases (empty directions, single packets, byte
counts either side of a segment boundary, the packet cap, zero-length
flows, both border directions, every payload function) and over the
flows of a seeded day.
"""

from hypothesis import given, settings, strategies as st

from repro.events import make_scenario, run_scenario
from repro.netsim import make_campus
from repro.netsim.flows import Flow
from repro.netsim.packets import (
    MAX_SEGMENT,
    FiveTuple,
    PacketRecord,
    synthesize_packets,
)
from repro.netsim.traffic import payloads
from tests.netsim import synth_oracle

PAYLOAD_FNS = [
    None,
    payloads.dns_query_payload,
    payloads.dns_amplification_payload,
    payloads.http_payload,
    payloads.tls_payload,
    payloads.ssh_payload,
    payloads.smtp_payload,
    payloads.ntp_payload,
    payloads.opaque_payload,
]


def _oracle_payload_fn(fn):
    """The oracle synthesizes with the oracle's DNS amplification
    payload function (the one that encodes its query name on every
    call)."""
    if fn is payloads.dns_amplification_payload:
        return synth_oracle.dns_amplification_payload
    return fn


def _rows(records):
    return [tuple((getattr(r, f), type(getattr(r, f)))
                  for f in PacketRecord.__slots__) for r in records]


def assert_same_synthesis(flow, **kwargs):
    got = synthesize_packets(flow, **kwargs)
    oracle_kwargs = dict(kwargs)
    oracle_kwargs["payload_fn"] = _oracle_payload_fn(
        kwargs.get("payload_fn") or flow.payload_fn)
    want = synth_oracle.synthesize_packets(flow, **oracle_kwargs)
    assert _rows(got) == _rows(want)
    return got


# byte counts on, just below and just above multiples of MAX_SEGMENT
_near_segments = st.builds(
    lambda k, d: max(k * MAX_SEGMENT + d, 0),
    st.integers(0, 40), st.integers(-2, 2))


@st.composite
def flows(draw):
    protocol = draw(st.sampled_from([1, 6, 17]))
    size = draw(st.one_of(_near_segments, st.integers(0, 200_000),
                          st.just(1)))
    fwd_fraction = draw(st.one_of(
        st.sampled_from([0.0, 1.0, 0.5]),
        st.floats(0.0, 1.0, allow_nan=False)))
    start = draw(st.floats(0.0, 1e5, allow_nan=False))
    duration = draw(st.one_of(st.just(0.0),
                              st.floats(0.0, 600.0, allow_nan=False)))
    flow = Flow(
        flow_id=draw(st.integers(0, 2**31)),
        key=FiveTuple("10.1.2.3", "192.0.2.77",
                      draw(st.integers(1, 65535)),
                      draw(st.integers(1, 65535)), protocol),
        src_node="a", dst_node="b", size_bytes=size,
        app=draw(st.sampled_from(["web", "dns", "bulk"])),
        label=draw(st.sampled_from(["benign", "ddos-dns-amp"])),
        protocol=protocol, fwd_fraction=fwd_fraction,
        ttl=draw(st.integers(1, 255)),
        payload_fn=draw(st.sampled_from(PAYLOAD_FNS)),
        src_internal=draw(st.booleans()),
    )
    flow.start_time = start
    flow.end_time = start + duration
    flow.transferred_bytes = size
    return flow


@settings(max_examples=300, deadline=None)
@given(flows(), st.one_of(st.none(), st.integers(1, 6)),
       st.sampled_from(PAYLOAD_FNS))
def test_matches_oracle_on_generated_flows(flow, max_packets, payload_fn):
    kwargs = {}
    if max_packets is not None:
        kwargs["max_packets"] = max_packets
    if payload_fn is not None:
        kwargs["payload_fn"] = payload_fn
    assert_same_synthesis(flow, **kwargs)


def test_single_packet_and_empty_directions():
    flow = Flow(flow_id=9, key=FiveTuple("10.0.0.1", "8.8.8.8", 5, 53, 6),
                src_node="a", dst_node="b", size_bytes=40,
                fwd_fraction=1.0, protocol=6)
    flow.start_time = flow.end_time = 3.0
    flow.transferred_bytes = 40
    packets = assert_same_synthesis(flow)
    assert len(packets) == 1 and packets[0].flags == 0x02
    flow.transferred_bytes = 0
    assert assert_same_synthesis(flow) == []


def test_matches_oracle_on_a_seeded_day():
    net = make_campus("tiny", seed=3)
    finished = []
    net.add_flow_observer(finished.append)
    run_scenario(net, make_scenario("ddos", 60.0), seed=3)
    assert finished
    total = sum(len(assert_same_synthesis(flow)) for flow in finished)
    assert total > 1000
    assert any(flow.payload_fn is payloads.dns_amplification_payload
               for flow in finished)
