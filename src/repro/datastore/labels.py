"""Labeling jobs: attach curated ground-truth labels to stored records.

The paper's data problem (§2) is that "labelled data ... is largely
non-existent".  In this platform, labels enter the store through an
explicit curation job that consults the incident registry (ground
truth from :class:`repro.events.base.GroundTruth`, standing in for the
IT organisation's ticketing system) — *not* by trusting whatever the
capture pipeline stamped on records.  The simulator's provenance label
is retained on the raw record, which lets tests measure how accurate
window-based curation actually is.

The job walks the store segment by segment.  A segment with a column
block is labelled with one mask per ground-truth window (time range
and endpoint membership over the address columns); any other segment
(flows, logs, or a packet block that would not convert) asks
:meth:`GroundTruth.label_for` record by record.  Both give every
record the label of the first registered window that covers it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.netsim.packets import DictColumn, ip_to_u32

#: label code of records no window covers
_BENIGN = 0


@dataclass
class LabelSummary:
    """Result of one labeling job."""

    collection: str
    records_seen: int = 0
    records_labeled: int = 0
    by_label: Dict[str, int] = field(default_factory=dict)
    agreement_with_provenance: Optional[float] = None


class _WindowMasks:
    """The ground-truth windows prepared for column masks.

    ``names[code]`` is a label; code 0 is ``"benign"`` and each window
    carries the code of its label, so two windows with one label (or a
    window labelled "benign") share a code just as they share a
    ``by_label`` key.
    """

    def __init__(self, windows):
        self.names: List[str] = ["benign"]
        code_of = {"benign": _BENIGN}
        self.windows: List[Tuple[float, float, int, set, np.ndarray]] = []
        for window in windows:
            involved = set(window.actors) | set(window.victims)
            code = code_of.setdefault(window.label, len(self.names))
            if code == len(self.names):
                self.names.append(window.label)
            self.windows.append((window.start_time, window.end_time, code,
                                 involved, _canonical_u32(involved)))
        self.code_of = code_of

    def codes(self, cols) -> np.ndarray:
        """One label code per row of a column block."""
        ts = cols.timestamp
        n = len(ts)
        codes = np.full(n, -1, dtype=np.int64)
        time_sorted = cols.time_sorted
        for start, end, code, involved, u32 in self.windows:
            if time_sorted:
                lo, hi = cols.time_slice(start, end)
                if lo >= hi:
                    continue
                rows = slice(lo, hi)
                mask = codes[rows] < 0
            else:
                rows = slice(0, n)
                mask = (codes < 0) & (start <= ts) & (ts <= end)
            mask &= (_member(cols.src_ip, rows, involved, u32)
                     | _member(cols.dst_ip, rows, involved, u32))
            codes[rows][mask] = code      # a basic slice: writes codes
        codes[codes < 0] = _BENIGN
        return codes

    def agreements(self, cols, codes: np.ndarray) -> Tuple[int, int]:
        """(rows whose provenance label equals the curated one, rows
        that carry a provenance label)."""
        provenance = cols.label
        as_code = np.array([-1 if value is None
                            else self.code_of.get(value, -2)
                            for value in provenance.values], dtype=np.int64)
        rows = as_code[provenance.codes]
        return int(np.count_nonzero(rows == codes)), \
            int(np.count_nonzero(rows != -1))


def _canonical_u32(involved: set) -> np.ndarray:
    """The involved addresses a uint32 column can hold (canonical
    dotted quads); any other entry can never equal one of its rows."""
    values = []
    for ip in involved:
        if isinstance(ip, str):
            try:
                values.append(ip_to_u32(ip))
            except ValueError:
                pass
    return np.array(values, dtype=np.uint32)


def _member(column, rows: slice, involved: set,
            u32: np.ndarray) -> np.ndarray:
    """Rows of an address column whose value is in ``involved``."""
    if isinstance(column, DictColumn):
        hit = np.fromiter((value in involved for value in column.values),
                          dtype=bool, count=len(column.values))
        return hit[column.codes[rows]]
    return np.isin(column[rows], u32)


class Labeler:
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
        obs = self.store.obs
        if obs is None:
            return self._label(collection)
        with obs.span("labels.label", collection=collection) as span:
            summary = self._label(collection)
            span.set(rows=summary.records_seen)
        return summary

    def _label(self, collection: str) -> LabelSummary:
        summary = LabelSummary(collection=collection)
        masks = None
        agreements = 0
        comparable = 0
        for segment in self.store.segments(collection):
            cols = segment.columns()
            if cols is None:
                seen = self._label_records(collection, segment, summary)
                agreements += seen[0]
                comparable += seen[1]
                continue
            if masks is None:
                masks = _WindowMasks(self.ground_truth.windows)
            codes = masks.codes(cols)
            records = segment.records
            # A cold segment's records are rebuilt from disk on every
            # read, so a label written to one would be dropped.
            if isinstance(records, list):
                labels = np.array(masks.names, dtype=object)[codes]
                for stored, label in zip(records, labels.tolist()):
                    stored.label = label
            counts = np.bincount(codes, minlength=len(masks.names))
            for name, count in zip(masks.names, counts.tolist()):
                if count:
                    summary.by_label[name] = \
                        summary.by_label.get(name, 0) + count
            summary.records_seen += len(codes)
            summary.records_labeled += len(codes) - int(counts[_BENIGN])
            seen = masks.agreements(cols, codes)
            agreements += seen[0]
            comparable += seen[1]
        if comparable:
            summary.agreement_with_provenance = agreements / comparable
        return summary

    def _label_records(self, collection: str, segment,
                       summary: LabelSummary) -> Tuple[int, int]:
        """Label one segment record by record; returns (agreements,
        comparable) like :meth:`_WindowMasks.agreements`."""
        schema_time = segment.schema.time_of
        label_for = self.ground_truth.label_for
        agreements = 0
        comparable = 0
        for stored in segment.records:
            record = stored.record
            src, dst = self._endpoints(collection, record)
            label = label_for(schema_time(record), src, dst)
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
        return agreements, comparable

    def label_all(self) -> Dict[str, LabelSummary]:
        return {
            collection: self.label_collection(collection)
            for collection in ("packets", "flows", "logs")
        }
