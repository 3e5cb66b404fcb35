"""Query engine: zone-map pruning, vectorized filters, aggregation.

A :class:`Query` combines a time range, exact-match field filters, tag
filters, and an arbitrary residual predicate.  Per segment the executor
first consults zone maps (min/max of time and key fields) to prune the
whole segment without touching a single record, then — for columnar
collections — evaluates ``time_range``/``where`` as numpy masks over
the segment's column block, leaving only tag filters and residual
predicates to a record-at-a-time pass over the few surviving rows.
Collections without columns (flows, logs) keep the index-accelerated
record path: pick the most selective index, intersect, filter.

``execute_query_linear`` is the semantics reference — a plain linear
scan with no indexes and no columns.  ``tests/datastore`` verifies both
accelerated paths return *identical records in identical order*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


@dataclass
class Query:
    """Declarative description of what to fetch.

    Attributes
    ----------
    collection:
        "packets", "flows", or "logs".
    time_range:
        Optional (start, end) inclusive bounds; either may be None.
    where:
        Exact-match field filters, e.g. ``{"dst_port": 53}``.
    tags:
        Exact-match tag filters, e.g. ``{"dns_qtype": "ANY"}``; a value
        of ``None`` means "tag key present".
    predicate:
        Residual row filter: ``predicate(stored) -> bool``.
    limit:
        Maximum records returned (applied after time ordering).
    order_by_time:
        Sort results by the collection's time field.
    approx:
        Optional :class:`~repro.datastore.planner.ErrorBudget` (see
        :func:`~repro.datastore.planner.within`): lets sketch-
        answerable aggregates short-circuit to the per-segment stats
        when the composed error bound fits; record-returning queries
        ignore it (they are always exact).
    """

    collection: str
    time_range: Optional[Tuple[Optional[float], Optional[float]]] = None
    where: Dict[str, object] = field(default_factory=dict)
    tags: Dict[str, Optional[str]] = field(default_factory=dict)
    predicate: Optional[Callable] = None
    limit: Optional[int] = None
    order_by_time: bool = True
    approx: Optional[object] = None


@dataclass
class Aggregation:
    """Group-and-reduce over query results.

    ``key_fn(stored) -> hashable`` chooses the group;
    ``value_fn(stored) -> float`` the contribution (default 1: count);
    ``reducer`` is "sum", "count", "max", "min", or "mean".
    """

    key_fn: Callable
    value_fn: Optional[Callable] = None
    reducer: str = "sum"


_TIME_KEY = itemgetter(0)


def _candidate_positions(segment, query: Query) -> Optional[List[int]]:
    """Smallest candidate set any single index yields, or None = all."""
    best: Optional[List[int]] = None

    if query.time_range is not None:
        start, end = query.time_range
        positions = segment.time_index.range(start, end)
        best = positions

    for fld, value in query.where.items():
        index = segment.field_indexes.get(fld)
        if index is None:
            continue
        positions = index.lookup(value)
        if best is None or len(positions) < len(best):
            best = positions

    for key, value in query.tags.items():
        positions = segment.tag_index.lookup(key, value)
        if best is None or len(positions) < len(best):
            best = positions

    return best


def _matches(stored, segment, query: Query) -> bool:
    record = stored.record
    schema = segment.schema
    if query.time_range is not None:
        start, end = query.time_range
        t = schema.time_of(record)
        if start is not None and t < start:
            return False
        if end is not None and t > end:
            return False
    for fld, value in query.where.items():
        if schema.field_of(record, fld) != value:
            return False
    for key, value in query.tags.items():
        actual = stored.tags.get(key)
        if actual is None:
            return False
        if value is not None and actual != value:
            return False
    if query.predicate is not None and not query.predicate(stored):
        return False
    return True


def _columnar_scan(segment, cols, query: Query, where_items=None,
                   gather: bool = False) -> List[Tuple[float, object]]:
    """Vectorized per-segment scan; returns (time, stored) pairs.

    Pairs are time-ordered when the query asks for time ordering,
    position-ordered otherwise — exactly matching the record path.

    ``where_items`` lets the planner substitute a selectivity-ordered
    predicate sequence (same set as ``query.where``; AND-masks
    commute, so the selected rows are identical in any order).  With
    ``gather`` the predicates after the first evaluate only at the
    survivors of the running mask — fancy-indexed gathers instead of
    whole-column comparisons — which is how a selective leading
    predicate makes the rest nearly free.
    """
    items = list(query.where.items()) if where_items is None else where_items
    # Zone maps: rule the whole segment out before touching any column.
    for fld, value in items:
        if not cols.zone_admits(fld, value):
            return []

    lo, hi = 0, len(cols)
    mask: Optional[np.ndarray] = None
    if query.time_range is not None:
        start, end = query.time_range
        if cols.time_sorted:
            lo, hi = cols.time_slice(start, end)
            if lo >= hi:
                return []
        else:
            ts = cols.timestamp
            mask = np.ones(len(ts), dtype=bool)
            if start is not None:
                mask &= ts >= start
            if end is not None:
                mask &= ts <= end

    residual = False
    positions: Optional[np.ndarray] = None
    if gather:
        for fld, value in items:
            if positions is None:
                field_mask = cols.equals_mask(fld, value, lo, hi)
                if field_mask is None:
                    residual = True  # unknown field: check per record
                    continue
                mask = field_mask if mask is None else (mask & field_mask)
                positions = np.flatnonzero(mask) + lo
            elif len(positions):
                hits = cols.equals_at(fld, value, positions)
                if hits is None:
                    residual = True
                    continue
                positions = positions[hits]
    else:
        for fld, value in items:
            field_mask = cols.equals_mask(fld, value, lo, hi)
            if field_mask is None:
                residual = True      # payload/unknown field: per record
                continue
            mask = field_mask if mask is None else (mask & field_mask)

    if positions is None:
        if mask is None:
            positions = np.arange(lo, hi)
        else:
            positions = np.flatnonzero(mask) + lo
    if len(positions) == 0:
        return []

    records = segment.records
    ts = cols.timestamp
    if residual or query.tags or query.predicate is not None:
        kept = [p for p in positions.tolist()
                if _matches(records[p], segment, query)]
        pairs = [(float(ts[p]), records[p]) for p in kept]
        if query.order_by_time:
            pairs.sort(key=_TIME_KEY)
        return pairs

    if query.order_by_time and not cols.time_sorted:
        positions = positions[np.argsort(ts[positions], kind="stable")]
    return list(zip(ts[positions].tolist(),
                    map(records.__getitem__, positions.tolist())))


def columnar_positions(cols, time_range, where, where_items=None,
                       gather: bool = False) -> Optional[np.ndarray]:
    """Purely vectorized row selection over one column block.

    The worker-side half of the parallel scan: zone maps, time slice,
    and equality masks only — no records, no tags, no predicates.
    Returns ascending positions, or ``None`` when some ``where`` field
    cannot be evaluated vectorized (caller must fall back to the serial
    path, which handles residual fields per record).

    ``where_items``/``gather`` carry the planner's per-segment
    predicate order and gather choice into the worker (same semantics
    as :func:`_columnar_scan`, minus the residual path — workers have
    no records to fall back to).
    """
    items = list(where.items()) if where_items is None else where_items
    for fld, value in items:
        if not cols.zone_admits(fld, value):
            return np.zeros(0, dtype=np.int64)

    lo, hi = 0, len(cols)
    mask: Optional[np.ndarray] = None
    if time_range is not None:
        start, end = time_range
        if cols.time_sorted:
            lo, hi = cols.time_slice(start, end)
            if lo >= hi:
                return np.zeros(0, dtype=np.int64)
        else:
            ts = cols.timestamp
            mask = np.ones(len(ts), dtype=bool)
            if start is not None:
                mask &= ts >= start
            if end is not None:
                mask &= ts <= end

    if gather:
        positions: Optional[np.ndarray] = None
        for fld, value in items:
            if positions is None:
                field_mask = cols.equals_mask(fld, value, lo, hi)
                if field_mask is None:
                    return None
                mask = field_mask if mask is None else (mask & field_mask)
                positions = (np.flatnonzero(mask) + lo).astype(np.int64)
            elif len(positions):
                hits = cols.equals_at(fld, value, positions)
                if hits is None:
                    return None
                positions = positions[hits]
        if positions is not None:
            return positions
    else:
        for fld, value in items:
            field_mask = cols.equals_mask(fld, value, lo, hi)
            if field_mask is None:
                return None
            mask = field_mask if mask is None else (mask & field_mask)

    if mask is None:
        return np.arange(lo, hi, dtype=np.int64)
    return (np.flatnonzero(mask) + lo).astype(np.int64)


def _record_scan(segment,
                 query: Query) -> Tuple[List[Tuple[float, object]], bool]:
    """Index-accelerated record path for one segment.

    Returns the (time, stored) pairs plus whether they came out already
    time-ordered (lets the caller skip the final re-sort).
    """
    candidates = _candidate_positions(segment, query)
    if candidates is None:
        rows = segment.records
    else:
        rows = [segment.records[p] for p in sorted(set(candidates))]
    time_of = segment.schema.time_of
    pairs: List[Tuple[float, object]] = []
    ordered = True
    previous: Optional[float] = None
    for stored in rows:
        if _matches(stored, segment, query):
            t = time_of(stored.record)
            if previous is not None and t < previous:
                ordered = False
            previous = t
            pairs.append((t, stored))
    return pairs, ordered


def _scan_segment(segment, query: Query) \
        -> Optional[Tuple[List[Tuple[float, object]], bool, bool]]:
    """(pairs, came-out-ordered, columnar) for one segment; None when
    pruned.  The third element reports which path scanned the segment so
    query instrumentation can label latency by path."""
    if not segment.records:
        return None
    if query.time_range is not None and not segment.overlaps(
        *query.time_range
    ):
        return None
    cols = segment.columns()
    if cols is not None:
        return _columnar_scan(segment, cols, query), query.order_by_time, \
            True
    return _record_scan(segment, query) + (False,)


def _observe_query(obs, started: float, rows: int, columnar: bool) -> None:
    """One query's latency + row count into the store metrics."""
    path = "vectorized" if columnar else "fallback"
    obs.metrics.histogram("repro_store_query_seconds", path=path).observe(
        obs.clock.now() - started)
    obs.metrics.counter("repro_store_query_rows_total", path=path).inc(rows)


def execute_query(store, query: Query, executor=None, obs=None) -> List:
    """Run ``query`` against ``store`` (accelerated, time-ordered).

    Plans first — stats pruning, shard pruning, selectivity-ordered
    predicates, gather decisions — then executes the plan (scanning in
    ``executor``'s worker processes when it has any); see
    :mod:`repro.datastore.planner`.  A store without stats plans into
    exactly the pre-planner scan, so this stays bit-identical to
    :func:`execute_query_linear` either way.
    """
    from repro.datastore.planner import execute_plan, plan_query
    return execute_plan(store, plan_query(store, query), executor=executor,
                        obs=obs)


def execute_query_linear(store, query: Query) -> List:
    """Reference executor: record-at-a-time, no indexes, no columns.

    Defines the query semantics the accelerated paths must reproduce
    exactly (same records, same order); the equivalence suite in
    ``tests/datastore`` holds :func:`execute_query` to it.
    """
    results = []
    for segment in store.segments(query.collection):
        time_of = segment.schema.time_of
        for stored in segment.records:
            if _matches(stored, segment, query):
                results.append((time_of(stored.record), stored))
    if query.order_by_time:
        results.sort(key=_TIME_KEY)
    records = [stored for _, stored in results]
    if query.limit is not None:
        records = records[: query.limit]
    return records


_REDUCERS = {
    "sum": sum,
    "count": len,
    "max": max,
    "min": min,
    "mean": lambda values: sum(values) / len(values) if values else 0.0,
}


def execute_aggregate(store, query: Query, aggregation: Aggregation) -> Dict:
    """Group-and-reduce the query's results per ``aggregation``."""
    if aggregation.reducer not in _REDUCERS:
        known = ", ".join(sorted(_REDUCERS))
        raise ValueError(
            f"unknown reducer {aggregation.reducer!r}; one of {known}"
        )
    groups: Dict[object, List[float]] = {}
    value_fn = aggregation.value_fn or (lambda stored: 1.0)
    for stored in store.query(query):
        key = aggregation.key_fn(stored)
        groups.setdefault(key, []).append(value_fn(stored))
    reducer = _REDUCERS[aggregation.reducer]
    return {key: reducer(values) for key, values in groups.items()}
