"""The seeded research-query mix of the ``store-query`` workload.

One *round* holds 40 queries over nine classes in a fixed order: each
of the five slow classes (tag scan, exact count, heavy hitters,
distinct, featurize) is followed by seven cheap ones.  The cheap
classes repeat so that a few rounds gather enough samples for a p95
with ten samples beyond it, without the slow classes dominating the
run.  Every round of a run is the same, so round times compare.  The
seed picks the nine 5 s slices the ``range`` queries read (nine draws,
so a round's cost hardly depends on how many land in the dense attack
period) and the 30 s window ``featurize`` builds a dataset from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

#: queries of each class in one round
ROUND: Dict[str, int] = {
    "point": 9,
    "range": 9,
    "flows": 9,
    "count_approx": 8,
    "tag": 1,
    "count": 1,
    "heavy": 1,
    "distinct": 1,
    "featurize": 1,
}
CHEAP = ("point", "range", "flows", "count_approx")
SLOW = ("tag", "count", "heavy", "distinct", "featurize")
#: classes that return records (verified row for row)
RECORD_CLASSES = ("point", "range", "tag", "flows")
#: classes answered by the planner's aggregate paths
AGGREGATE_CLASSES = ("count", "count_approx", "heavy", "distinct")

RANGE_S = 5.0
FEATURIZE_S = 30.0
APPROX_REL = 0.05


@dataclass(frozen=True)
class QuerySpec:
    """One query of the mix: its class and, for time-sliced classes,
    the slice start as an offset from the day's first packet."""

    cls: str
    offset_s: float = 0.0


def query_round(seed: int, span_s: float) -> List[QuerySpec]:
    """The round for a day ``span_s`` seconds long; the same arguments
    always give the same round."""
    rng = random.Random(seed)
    slices = iter([round(rng.uniform(0.0, max(span_s - RANGE_S, 0.0)), 3)
                   for _ in range(ROUND["range"])])
    window = round(rng.uniform(0.0, max(span_s - FEATURIZE_S, 0.0)), 3)
    left = {cls: ROUND[cls] for cls in CHEAP}
    cheap: List[QuerySpec] = []
    while any(left.values()):
        for cls in CHEAP:
            if left[cls]:
                left[cls] -= 1
                cheap.append(QuerySpec(cls, next(slices) if cls == "range"
                                       else 0.0))
    per_slow = len(cheap) // len(SLOW)
    specs: List[QuerySpec] = []
    for i, cls in enumerate(SLOW):
        specs.append(QuerySpec(cls, window if cls == "featurize" else 0.0))
        specs.extend(cheap[i * per_slow:(i + 1) * per_slow])
    return specs


def make_query(spec: QuerySpec, day_start: float):
    """The store :class:`~repro.datastore.Query` a spec issues (None
    for ``featurize``, which goes through ``build_dataset``)."""
    from repro.datastore import Query, within

    start = day_start + spec.offset_s
    cls = spec.cls
    if cls == "point":
        return Query("packets", where={"dst_port": 53, "protocol": 17},
                     limit=100)
    if cls == "range":
        return Query("packets", time_range=(start, start + RANGE_S))
    if cls == "tag":
        return Query("packets", tags={"dns_qtype": "ANY"})
    if cls == "count":
        return Query("packets", where={"protocol": 17})
    if cls == "count_approx":
        return Query("packets", where={"protocol": 17},
                     approx=within(APPROX_REL))
    if cls in ("heavy", "distinct"):
        return Query("packets")
    if cls == "flows":
        return Query("flows", where={"protocol": 6})
    if cls == "featurize":
        return None
    raise KeyError(f"unknown query class {cls!r}")


def issue(spec: QuerySpec, platform, day_start: float):
    """Run one query through the store's public methods."""
    store = platform.store
    query = make_query(spec, day_start)
    cls = spec.cls
    if cls in RECORD_CLASSES:
        return store.query(query)
    if cls in ("count", "count_approx"):
        return store.count_matching(query)
    if cls == "heavy":
        return store.heavy_hitters(query, "src_ip")
    if cls == "distinct":
        return store.distinct_count(query, "dst_ip")
    start = day_start + spec.offset_s
    return platform.build_dataset(time_range=(start, start + FEATURIZE_S))


def digest(spec: QuerySpec, answer):
    """A comparable summary of an answer: record ids, the aggregate
    value with its bound, or a dataset's shape."""
    if spec.cls in RECORD_CLASSES:
        return tuple(stored.rid for stored in answer)
    if spec.cls in AGGREGATE_CLASSES:
        value = answer.value
        if isinstance(value, list):
            value = tuple(tuple(pair) for pair in value)
        return (value, answer.bound, answer.source)
    return (len(answer), tuple(sorted(answer.class_counts().items())))


def rows_of(spec: QuerySpec, answer) -> int:
    """Rows a query returned (records, or dataset rows)."""
    if spec.cls in RECORD_CLASSES or spec.cls == "featurize":
        return len(answer)
    return 0


def verify(platform, day_start: float,
           observed: Dict[QuerySpec, set]) -> List[str]:
    """Check every distinct query's answers against the reference.

    Record queries must return exactly the rids of
    ``execute_query_linear``; exact aggregates must equal a linear
    recount; an approximate answer must lie within its reported
    ``bound`` of the exact count; and repeated executions of one query
    must agree.  Returns the problems found.
    """
    from collections import Counter

    from repro.datastore import Query
    from repro.datastore.query import execute_query_linear

    store = platform.store
    problems: List[str] = []
    linear: Dict[object, list] = {}

    def reference(spec):
        query = make_query(spec, day_start)
        key = spec
        if spec.cls in AGGREGATE_CLASSES:
            # an aggregate is checked against its matches as records
            key = (query.collection, tuple(sorted(query.where.items())))
            query = Query(query.collection, where=dict(query.where))
        if key not in linear:
            linear[key] = execute_query_linear(store, query)
        return linear[key]

    for spec, digests in sorted(observed.items(),
                                key=lambda kv: (kv[0].cls, kv[0].offset_s)):
        if len(digests) != 1:
            problems.append(f"{spec}: {len(digests)} different answers "
                            f"to one query")
            continue
        (answer,) = digests
        cls = spec.cls
        if cls in RECORD_CLASSES:
            want = tuple(s.rid for s in reference(spec))
            if answer != want:
                problems.append(f"{spec}: {len(answer)} rids differ from "
                                f"the linear scan's {len(want)}")
        elif cls in ("count", "count_approx"):
            value, bound, source = answer
            exact = len(reference(spec))
            if abs(value - exact) > bound:
                problems.append(f"{spec}: {source} count {value} is "
                                f"{abs(value - exact)} from exact {exact}, "
                                f"bound {bound}")
        elif cls == "distinct":
            value, bound, source = answer
            exact = len({s.record.dst_ip for s in reference(spec)})
            if abs(value - exact) > bound:
                problems.append(f"{spec}: distinct {value} vs exact "
                                f"{exact}, bound {bound}")
        elif cls == "heavy":
            value, bound, source = answer
            tally = Counter(s.record.src_ip for s in reference(spec))
            ranked = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))
            if source == "exact":
                if value != tuple(ranked[:len(value)]):
                    problems.append(f"{spec}: top-k differs from a "
                                    f"linear tally")
            elif any(abs(tally.get(v, 0) - c) > bound for v, c in value):
                problems.append(f"{spec}: a heavy-hitter count is "
                                f"outside its bound {bound}")
        elif cls == "featurize":
            rows, counts = answer
            if rows == 0:
                problems.append(f"{spec}: empty dataset")
    return problems
