"""Metric tables the benchmark keeps besides BENCHMARK.json.

BENCHMARK.json holds the gated end-to-end metrics and the per-layer
metrics; :func:`load_spec` reads them.  This module holds what the
JSON does not: the end-to-end metrics that are printed but not gated,
and which span kind is charged to which self-time metric.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec(path: Path = SPEC):
    """``(end_to_end, per_layer)`` from BENCHMARK.json: name ->
    ``(unit, better, bound)`` and name -> ``(unit, better)``."""
    spec = json.loads(path.read_text())
    end_to_end = {m["name"]: (m["unit"], m["better"], m["bound"])
                  for m in spec["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"])
                 for m in spec["per_layer"]}
    return end_to_end, per_layer


#: end-to-end metrics printed in the table and the record line but not
#: gated: too noisy on a shared host, or not measured by every
#: workload.  name -> (unit, better)
REPORTED: Dict[str, Tuple[str, str]] = {
    "collect_s": ("s", "lower"),
    "ingest_pkts_per_s": ("1/s", "higher"),
    "devloop_s": ("s", "lower"),
    "fastloop_pkts_per_s": ("1/s", "higher"),
    "reopen_s": ("s", "lower"),
    "query_p50_ms": ("ms", "lower"),
    "query_p95_ms": ("ms", "lower"),
    "query_tail_pct": ("%", "higher"),
    "query_tail_ms": ("ms", "lower"),
    "query_qps": ("1/s", "higher"),
    "query_samples": ("count", "higher"),
    "fail_frac": ("frac", "lower"),
}

#: span kind -> the self-time metric it is charged to
KIND_METRIC: Dict[str, str] = {
    "netsim.run": "netsim.self_s",
    "fluid.run": "fluid.self_s",
    "capture.ingest": "capture.ingest_s",
    "capture.tap": "capture.ingest_s",
    "capture.sensors": "capture.sensors_s",
    "flows.assemble": "flows.assemble_s",
    "metadata.extract": "metadata.extract_s",
    "privacy.transform": "privacy.transform_s",
    "store.ingest": "store.ingest_s",
    "tiers.offer": "tiers.offer_s",
    "tiers.pump": "tiers.pump_s",
    "tiers.drain": "tiers.drain_s",
    "tiers.flush_cold": "tiers.flush_cold_s",
    "tiers.compact": "tiers.compact_s",
    "tiers.reopen": "tiers.reopen_s",
    "labels.label": "labels.label_s",
    "query.exec": "query.self_s",
    "features.build": "features.s",
    "devloop.develop": "devloop.self_s",
    "switch.sense": "switch.sense_s",
    "switch.infer": "switch.infer_s",
}
UNATTRIBUTED = "unattributed_s"
#: self-time metrics: with unattributed_s they sum to trace.run_s
SELF_TIME = tuple(dict.fromkeys(KIND_METRIC.values())) + (UNATTRIBUTED,)
