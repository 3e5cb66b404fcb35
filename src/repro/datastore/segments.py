"""Append-only segments with per-segment indexes and columnar mirrors.

A segment's ``records`` list is the source of truth; everything else —
hash/tag indexes, the struct-of-arrays column block, zone maps — is an
acceleration structure built lazily on first use.  Batch ingest
therefore costs little more than extending a list, and queries that
never touch an index never pay for one.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datastore.index import HashIndex, InvertedIndex, TimeIndex
from repro.datastore.schema import CollectionSchema
from repro.netsim.packets import PacketColumns


@dataclass
class StoredRecord:
    """A record plus store-side annotations (tags, curated label)."""

    __slots__ = ("rid", "record", "tags", "label")

    rid: int
    record: object
    tags: Dict[str, str]
    label: Optional[str]


#: ``(lowest rid, highest rid, rids ascend with position)``
RidSpan = Tuple[int, int, bool]


def rid_span(rids: np.ndarray) -> Optional[RidSpan]:
    """The :data:`RidSpan` of a non-empty rid array (None when empty)."""
    if not len(rids):
        return None
    return (int(rids.min()), int(rids.max()),
            bool(np.all(rids[1:] > rids[:-1])))


class Segment:
    """A bounded run of stored records plus its local indexes.

    Records are wrapped :class:`~repro.datastore.store.StoredRecord`
    instances.  A segment seals when full; sealed segments are the unit
    of retention eviction.  For columnar collections (packets),
    :meth:`columns` exposes the records as a cached
    :class:`~repro.netsim.packets.PacketColumns` block that the
    vectorized query path filters with numpy masks and prunes with
    per-segment zone maps.
    """

    def __init__(self, schema: CollectionSchema, segment_id: int,
                 capacity: int = 50_000):
        if capacity <= 0:
            raise ValueError("segment capacity must be positive")
        self.schema = schema
        self.segment_id = segment_id
        self.capacity = capacity
        self.records: List = []
        self.sealed = False
        self.bytes_estimate = 0
        self.time_index = TimeIndex()
        self._field_indexes: Optional[Dict[str, HashIndex]] = None
        self._field_indexed_upto = 0
        self._tag_index: Optional[InvertedIndex] = None
        self._tag_indexed_upto = 0
        self._columns: Optional[PacketColumns] = None
        self._columns_len = -1
        self._stats = None
        self._stats_rows = -1
        self._rid_span: Optional[RidSpan] = None
        self._rid_span_rows = 0

    @property
    def full(self) -> bool:
        return len(self.records) >= self.capacity

    # -- append ------------------------------------------------------------

    def append(self, stored) -> int:
        """Add a stored record; returns its position in the segment."""
        if self.sealed:
            raise RuntimeError(f"segment {self.segment_id} is sealed")
        position = len(self.records)
        self.records.append(stored)
        record = stored.record
        self.bytes_estimate += self.schema.size_fn(record)
        self.time_index.add(self.schema.time_of(record), position)
        return position

    def append_batch(self, batch: List) -> None:
        """Add stored records in bulk (caller must respect capacity)."""
        if self.sealed:
            raise RuntimeError(f"segment {self.segment_id} is sealed")
        if not batch:
            return
        start = len(self.records)
        self.records.extend(batch)
        records = [s.record for s in batch]
        if self.schema.batch_size_fn is not None:
            self.bytes_estimate += self.schema.batch_size_fn(records)
        else:
            size_fn = self.schema.size_fn
            self.bytes_estimate += sum(map(size_fn, records))
        times = list(map(attrgetter(self.schema.time_field), records))
        self.time_index.add_batch(times, range(start, start + len(batch)))

    def seal(self, build_stats: bool = False) -> None:
        self.sealed = True
        self.time_index.seal()
        if build_stats:
            self.build_stats()

    # -- lazy acceleration structures --------------------------------------

    @property
    def field_indexes(self) -> Dict[str, HashIndex]:
        """Per-field hash indexes, built/extended on first use."""
        if self._field_indexes is None:
            self._field_indexes = {
                f: HashIndex() for f in self.schema.indexed_fields
            }
            self._field_indexed_upto = 0
        n = len(self.records)
        if self._field_indexed_upto < n:
            field_of = self.schema.field_of
            start = self._field_indexed_upto
            fresh = [s.record for s in self.records[start:n]]
            for fld, index in self._field_indexes.items():
                index.add_batch((field_of(r, fld) for r in fresh), start)
            self._field_indexed_upto = n
        return self._field_indexes

    @property
    def tag_index(self) -> InvertedIndex:
        """Inverted tag index, built/extended on first use."""
        if self._tag_index is None:
            self._tag_index = InvertedIndex()
            self._tag_indexed_upto = 0
        n = len(self.records)
        if self._tag_indexed_upto < n:
            for position in range(self._tag_indexed_upto, n):
                tags = self.records[position].tags
                if tags:
                    self._tag_index.add(tags, position)
            self._tag_indexed_upto = n
        return self._tag_index

    def invalidate_indexes(self) -> None:
        """Drop lazily built structures (after out-of-band tag edits)."""
        self._field_indexes = None
        self._field_indexed_upto = 0
        self._tag_index = None
        self._tag_indexed_upto = 0
        self._columns = None
        self._columns_len = -1
        self._stats = None
        self._stats_rows = -1

    # -- planner statistics --------------------------------------------------

    def build_stats(self):
        """Build (or rebuild) the planner's per-column stats block.

        Called at seal time when the owning store opted in
        (``stats_on_seal``), by :meth:`DataStore.build_stats`, and by
        anything that wants cost-based planning over this segment.
        """
        from repro.datastore.stats import SegmentStats

        self._stats = SegmentStats.build(self)
        self._stats_rows = len(self.records)
        return self._stats

    def stats(self):
        """The stats block, or None when never built / gone stale.

        Staleness is by row count, exactly like the cached column
        block: the planner silently falls back to heuristic costs for
        a growing segment rather than trusting a snapshot of it.
        """
        if self._stats is not None and self._stats_rows == len(self.records):
            return self._stats
        return None

    def adopt_stats(self, stats) -> None:
        """Install a pre-merged stats block instead of rebuilding it.

        The compactor merges the input segments' blocks at sketch
        granularity (:func:`~repro.datastore.stats.merge_column_stats`)
        — one table add per column instead of a full distinct-value
        pass over the merged rows.
        """
        self._stats = stats
        self._stats_rows = len(self.records)

    def adopt_columns(self, columns: PacketColumns) -> bool:
        """Install a pre-built column block instead of rebuilding it.

        The sharded ingest path slices one already-materialized
        :class:`PacketColumns` batch per shard; when the slice covers
        exactly this segment's records, adopting it skips the
        per-record rebuild in :meth:`columns`.  Rejected (returns
        False) unless lengths line up and the schema is columnar.
        """
        if not self.schema.columnar or len(columns) != len(self.records):
            return False
        self._columns = columns
        self._columns_len = len(self.records)
        return True

    def columns(self) -> Optional[PacketColumns]:
        """Cached struct-of-arrays mirror, or None (non-columnar schema,
        or records that resist array conversion — fall back to the
        record-at-a-time path)."""
        if not self.schema.columnar:
            return None
        n = len(self.records)
        if self._columns_len != n:
            try:
                self._columns = PacketColumns.from_records(
                    [s.record for s in self.records]
                )
            except Exception:
                self._columns = None
            self._columns_len = n
        return self._columns

    def rid_span(self) -> Optional[RidSpan]:
        """Where this segment's rids lie (cached by row count, like the
        column block).  The query merge reads it to tell whether runs
        from several segments combine by a stable time sort alone."""
        n = len(self.records)
        if self._rid_span_rows != n:
            self._rid_span = rid_span(np.fromiter(
                (s.rid for s in self.records), dtype=np.int64, count=n))
            self._rid_span_rows = n
        return self._rid_span

    # -- time span ----------------------------------------------------------

    @property
    def min_time(self) -> Optional[float]:
        return self.time_index.min_time

    @property
    def max_time(self) -> Optional[float]:
        return self.time_index.max_time

    def overlaps(self, start: Optional[float], end: Optional[float]) -> bool:
        lo, hi = self.min_time, self.max_time
        if lo is None:
            return False
        if start is not None and hi < start:
            return False
        if end is not None and lo > end:
            return False
        return True

    def __len__(self) -> int:
        return len(self.records)
