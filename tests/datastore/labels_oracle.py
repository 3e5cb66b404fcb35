"""The query-driven labeller, frozen as the oracle for the production one.

:class:`repro.datastore.labels.Labeler` labels a store segment by
segment, with a vectorized window mask where a segment has a column
block.  The class below is the earlier version, verbatim: one
``store.query`` per collection and one ``GroundTruth.label_for`` call
per record.  Tests require the two to write the same per-record labels
and return the same :class:`LabelSummary`.
"""

from __future__ import annotations

from typing import Dict

from repro.datastore.labels import LabelSummary
from repro.datastore.query import Query


class OracleLabeler:
    """Applies event-window labels to a store collection."""

    def __init__(self, store, ground_truth):
        self.store = store
        self.ground_truth = ground_truth

    def _endpoints(self, collection: str, record):
        if collection == "logs":
            return (record.attrs.get("src_ip", ""),
                    record.attrs.get("dst_ip", ""))
        return record.src_ip, record.dst_ip

    def label_collection(self, collection: str) -> LabelSummary:
        """Label every record from the ground-truth event windows."""
        from repro.datastore.schema import SCHEMAS

        schema_time = SCHEMAS[collection].time_of
        summary = LabelSummary(collection=collection)
        agreements = 0
        comparable = 0
        for stored in self.store.query(Query(collection=collection,
                                             order_by_time=False)):
            record = stored.record
            src, dst = self._endpoints(collection, record)
            label = self.ground_truth.label_for(schema_time(record), src, dst)
            stored.label = label
            summary.records_seen += 1
            if label != "benign":
                summary.records_labeled += 1
            summary.by_label[label] = summary.by_label.get(label, 0) + 1
            provenance = getattr(record, "label", None)
            if provenance is not None:
                comparable += 1
                if provenance == label:
                    agreements += 1
        if comparable:
            summary.agreement_with_provenance = agreements / comparable
        return summary

    def label_all(self) -> Dict[str, LabelSummary]:
        return {
            collection: self.label_collection(collection)
            for collection in ("packets", "flows", "logs")
        }
