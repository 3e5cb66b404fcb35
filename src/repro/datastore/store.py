"""The campus data store.

Three built-in collections — ``packets``, ``flows``, ``logs`` — each a
list of segments.  Ingest attaches on-the-fly metadata (for packets)
and assigns record ids; queries go through
:meth:`DataStore.query` / :meth:`DataStore.aggregate`.

One :class:`DataStore` covers every layout.  ``shards`` partitions the
packet collection by time window x flow hash, ``tiers`` puts it on the
hot → warm → cold ladder of :mod:`repro.datastore.tiers`, and
``spill_dir`` persists the cold tier across processes.  Every layout
answers every query bit-identically to a flat store fed the same
batches.

The store is deliberately *internal-only* (§3): nothing here supports
export; the privacy layer (:mod:`repro.privacy`) arbitrates access and
transforms data on the way in or out.
"""

from __future__ import annotations

import itertools
import shutil
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.capture.flows import FlowRecord
from repro.capture.metadata import MetadataExtractor
from repro.capture.sensors import LogRecord
from repro.chaos.faults import FaultKind
from repro.chaos.resilience import RetryPolicy, TransientError, \
    VirtualClock, retrying
from repro.datastore import schema as schemas
from repro.datastore.query import Aggregation, Query, execute_aggregate, \
    execute_query
from repro.datastore.segments import Segment, StoredRecord
from repro.datastore.tiers import ColdSegment, Compactor, TierPolicy, \
    open_cold_dir, spilled_shards, write_registry
from repro.netsim.packets import PacketColumns, PacketRecord
from repro.parallel.sharding import ShardRouter


class TransientStoreError(TransientError):
    """Ingest failed transiently (injected or real); safe to retry.

    Raised *before* any record is appended, so a retried call never
    double-ingests.
    """


#: default bulk-ingest retry: a few quick attempts on a virtual clock
STORE_RETRY_POLICY = RetryPolicy(max_attempts=4, base_delay_s=0.01,
                                 multiplier=2.0, max_delay_s=0.1,
                                 jitter=0.1, deadline_s=2.0)


class DataStore:
    """Single platform for collecting, storing, indexing and mining.

    Parameters
    ----------
    metadata_extractor:
        Attached to packet ingest; produces the tag dictionary indexed
        by the inverted index.  Pass ``None`` to store raw packets only.
    segment_capacity:
        Records per segment before sealing (with ``tiers``, the
        memtable size).
    stats_on_seal:
        Build the planner's per-column stats block whenever a segment
        seals.  Off by default — stats cost one distinct-value pass
        per column, which pure-ingest workloads should not pay; turn
        it on (or call :meth:`build_stats`) when the workload queries
        what it stores.
    shards:
        Packet partitions, routed by a deterministic
        :class:`~repro.parallel.sharding.ShardRouter` over
        ``window_s`` windows.  Each shard holds its own packet
        segments; flows and logs are low-volume and stay unsharded.
        Record ids come from one store-wide counter in input order,
        whatever the shard count.  ``None`` means 1, or as many shards
        as ``spill_dir`` was written with; an explicit count that
        disagrees with ``spill_dir`` raises :class:`ValueError`.
    tiers:
        A :class:`~repro.datastore.tiers.TierPolicy` puts packets on
        the tier ladder: a full (or aged) memtable seals into a
        ``(time, rid)``-sorted warm run, and :attr:`compactor` merges
        warm runs and spills them to cold.  ``None`` keeps the flat
        append-only segments.
    spill_dir:
        Cold-tier directory (needs ``tiers``).  An existing one is
        resumed on construction: cold segments reopen with verified
        checksums, id counters continue past the registry's
        watermarks, and debris from crashed compactions is cleared.
    executor:
        A :class:`~repro.parallel.ParallelExecutor` enables
        process-parallel query scans and metadata extraction; without
        one — or with ``workers=0`` — every path runs serially, same
        answers.
    """

    def __init__(self, metadata_extractor: Optional[MetadataExtractor] = None,
                 segment_capacity: int = 50_000, fault_injector=None,
                 clock=None, obs=None, stats_on_seal: bool = False,
                 shards: Optional[int] = None,
                 tiers: Optional[TierPolicy] = None, spill_dir=None,
                 window_s: float = 5.0, executor=None):
        if segment_capacity <= 0:
            raise ValueError("segment_capacity must be positive")
        if spill_dir is not None and tiers is None:
            raise ValueError("spill_dir needs tiers")
        self.metadata_extractor = metadata_extractor
        self.segment_capacity = segment_capacity
        self.stats_on_seal = stats_on_seal
        self.fault_injector = fault_injector
        self.clock = clock or VirtualClock()
        self.transient_errors = 0
        self.injected_latency_s = 0.0
        self.tiers = tiers
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        n_shards = self._shard_count(shards)
        self.router = ShardRouter(n_shards, window_s=window_s) \
            if n_shards > 1 else None
        self.executor = executor
        #: packet segments, one list per shard
        self._shards: List[List] = [[] for _ in range(n_shards)]
        self._segments: Dict[str, List[Segment]] = {
            "flows": [], "logs": []}
        #: when each shard's memtable opened (for ``seal_age_s``)
        self._opened_at: List[Optional[float]] = [None] * n_shards
        self._cold_dirs: List[Optional[Path]] = [
            None if self.spill_dir is None
            else self.spill_dir if n_shards == 1
            else self.spill_dir / f"shard-{i}"
            for i in range(n_shards)]
        self._segment_ids = itertools.count(1)
        self._record_ids = itertools.count(1)
        self.ingest_transforms: List[Callable] = []
        self.compactor = Compactor(self)
        self.obs = None
        if obs is not None:
            self.bind_obs(obs)
        if self.spill_dir is not None:
            self._resume_from_disk()

    def _shard_count(self, shards: Optional[int]) -> int:
        on_disk = None if self.spill_dir is None \
            else spilled_shards(self.spill_dir)
        if shards is None:
            return on_disk or 1
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if on_disk is not None and on_disk != shards:
            raise ValueError(f"{self.spill_dir} holds {on_disk} shard(s), "
                             f"not shards={shards}")
        return shards

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def bind_obs(self, obs) -> None:
        """Attach an Observability after construction (e.g. to an
        imported store) and cache the hot-path metric objects."""
        from repro.obs.metrics import COUNT_BUCKETS
        self.obs = obs
        self._m_ingest = {
            name: obs.metrics.counter(
                "repro_store_ingest_records_total", collection=name)
            for name in schemas.SCHEMAS
        }
        self._m_ingest_batch = obs.metrics.histogram(
            "repro_store_ingest_batch_records", buckets=COUNT_BUCKETS)
        if self.router is not None:
            self._m_shard_records = [
                obs.metrics.gauge("repro_store_shard_records", shard=i)
                for i in range(self.n_shards)]
            self._m_shard_segments = [
                obs.metrics.gauge("repro_store_shard_segments", shard=i)
                for i in range(self.n_shards)]
        if self.tiers is not None:
            tiers = ("hot", "warm", "cold")
            self._m_tier_segments = {
                tier: obs.metrics.gauge("repro_tiers_segments", tier=tier)
                for tier in tiers}
            self._m_tier_bytes = {
                tier: obs.metrics.gauge("repro_tiers_bytes", tier=tier)
                for tier in tiers}
            self._m_debt = obs.metrics.gauge("repro_tiers_compaction_debt")
            self._m_seals = obs.metrics.counter("repro_tiers_seals_total")

    def _record_ingest_obs(self, collection: str, n: int) -> None:
        self._m_ingest[collection].inc(n)
        self._m_ingest_batch.observe(n)

    # -- ingest ------------------------------------------------------------

    def _chaos_gate(self, site: str) -> None:
        """Injected store faults fire here, before any mutation."""
        injector = self.fault_injector
        if injector is None:
            return
        if injector.should_fire(FaultKind.STORE_TRANSIENT, site=site):
            self.transient_errors += 1
            raise TransientStoreError(f"injected transient fault in {site}")
        if injector.should_fire(FaultKind.STORE_LATENCY, site=site):
            delay = injector.magnitude(FaultKind.STORE_LATENCY)
            self.injected_latency_s += delay
            self.clock.sleep(delay)

    def resilient_ingestor(self, fn: Callable, policy: Optional[RetryPolicy]
                           = None, bus=None, site: Optional[str] = None) \
            -> Callable:
        """Wrap a bulk-ingest method with transient-error retries.

        The store's ingest paths raise :class:`TransientStoreError`
        before touching any segment, so re-running the call is exactly
        idempotent.  Backoff runs on the store's (virtual) clock.
        """
        return retrying(policy or STORE_RETRY_POLICY, clock=self.clock,
                        bus=bus, site=site or getattr(fn, "__name__",
                                                      "ingest"))(fn)

    def add_ingest_transform(self, transform: Callable) -> None:
        """Install a privacy/cleaning transform applied at ingest.

        ``transform(collection_name, record, tags) -> (record, tags)``
        may rewrite the record (e.g. anonymize addresses) or the tags;
        returning ``(None, None)`` drops the record.
        """
        self.ingest_transforms.append(transform)

    def _open_segment(self, collection: str, shard: int = 0) -> Segment:
        """The segment the next append goes to; a full (or, on the tier
        ladder, aged) open segment seals first."""
        packets = collection == "packets"
        segments = self._shards[shard] if packets \
            else self._segments[collection]
        tail = segments[-1] if segments else None
        if tail is not None and not tail.sealed:
            if not tail.full and not (packets and self._aged(shard)):
                return tail
            if packets and self.tiers is not None:
                self._seal_memtable(shard)
            else:
                tail.seal(build_stats=self.stats_on_seal)
        segment = Segment(schemas.SCHEMAS[collection],
                          next(self._segment_ids),
                          capacity=self.segment_capacity)
        segments.append(segment)
        if packets:
            self._opened_at[shard] = self.clock.now()
        return segment

    def _ingest(self, collection: str, record, tags: Dict[str, str]) -> \
            Optional[StoredRecord]:
        """One flow or log record through the transforms into the
        store."""
        for transform in self.ingest_transforms:
            record, tags = transform(collection, record, tags)
            if record is None:
                return None
        stored = StoredRecord(rid=next(self._record_ids), record=record,
                              tags=tags or {}, label=None)
        self._open_segment(collection).append(stored)
        return stored

    def ingest_packets(
        self, packets: Union[Iterable[PacketRecord], PacketColumns]
    ) -> int:
        """Store captured packets (with extracted metadata).

        Accepts a plain iterable of records or a columnar
        :class:`~repro.netsim.packets.PacketColumns` batch.  The whole
        batch moves through one metadata pass, one rid assignment in
        input order and one bulk append per segment it fills; ingest
        transforms (record-at-a-time by nature) run in between.  A
        columnar batch stays columnar unless transforms are installed:
        each fresh segment adopts its slice of the batch's columns.
        Returns how many packets were kept.
        """
        cols: Optional[PacketColumns] = None
        if isinstance(packets, PacketColumns):
            if self.ingest_transforms:
                packets = list(packets.iter_records())
            else:
                cols = packets
        elif not isinstance(packets, list):
            packets = list(packets)
        if not len(packets):
            return 0
        self._chaos_gate("ingest_packets")

        tags_list = self._extract_tags(packets, cols)
        records = packets if cols is None else cols.iter_records()
        if self.ingest_transforms:
            records, tags_list = self._transform_packets(records, tags_list)
        stored = list(map(StoredRecord, self._record_ids, records,
                          tags_list, itertools.repeat(None)))
        self._append_packets(stored, cols)
        if self.obs is not None:
            self._record_ingest_obs("packets", len(stored))
            if self.router is not None:
                for i, segments in enumerate(self._shards):
                    self._m_shard_records[i].set(
                        sum(len(s) for s in segments))
                    self._m_shard_segments[i].set(len(segments))
        return len(stored)

    def _extract_tags(self, packets, cols: Optional[PacketColumns]) \
            -> List[Dict[str, str]]:
        extractor = self.metadata_extractor
        if extractor is None:
            return [{} for _ in range(len(packets))]
        if cols is None:
            return extractor.extract_batch(packets)
        executor = self.executor
        if (executor is not None and executor.parallel
                and getattr(extractor, "_topology", None) is None):
            from repro.parallel.kernels import scatter_extract
            tags_list = scatter_extract(cols, executor)
            if tags_list is not None:
                return tags_list
        return extractor.extract_columns(cols)

    def _transform_packets(self, packets: List[PacketRecord],
                           tags_list: List[Dict[str, str]]) \
            -> Tuple[List, List[Dict[str, str]]]:
        """Run the ingest transforms; returns the kept (record, tags)
        columns, in input order."""
        transforms = self.ingest_transforms
        kept: List = []
        kept_tags: List[Dict[str, str]] = []
        for record, tags in zip(packets, tags_list):
            for transform in transforms:
                record, tags = transform("packets", record, tags)
                if record is None:
                    break
            else:
                kept.append(record)
                kept_tags.append(tags or {})
        return kept, kept_tags

    def _append_packets(self, stored: List[StoredRecord],
                        cols: Optional[PacketColumns]) -> None:
        """Route a rid-stamped batch to its shards (after transforms:
        anonymization may rewrite the flow key) and append."""
        router = self.router
        if router is None:
            self._fill(0, stored, cols)
            return
        if cols is not None:
            assignments = router.assign_columns(cols)
        else:
            assignments = np.asarray(
                router.assign_records([s.record for s in stored]),
                dtype=np.int64)
        for shard, positions in enumerate(
                router.partition_positions(assignments)):
            if len(positions):
                self._fill(shard, [stored[p] for p in positions.tolist()],
                           cols.take(positions) if cols is not None
                           else None)

    def _fill(self, shard: int, stored: List[StoredRecord],
              cols: Optional[PacketColumns]) -> None:
        """Append to one shard in segment-sized chunks; a fresh segment
        adopts its chunk's columns instead of rebuilding them."""
        total = len(stored)
        offset = 0
        while offset < total:
            segment = self._open_segment("packets", shard)
            fresh = len(segment) == 0
            hi = min(offset + segment.capacity - len(segment), total)
            segment.append_batch(stored[offset:hi])
            if fresh and cols is not None:
                segment.adopt_columns(cols.slice(offset, hi))
            offset = hi

    def ingest_flows(self, flows: Iterable[FlowRecord]) -> int:
        """Store assembled flow records; returns how many were kept."""
        if not isinstance(flows, list):
            flows = list(flows)
        self._chaos_gate("ingest_flows")
        count = 0
        for flow in flows:
            tags = {"service": flow.service}
            if self._ingest("flows", flow, tags) is not None:
                count += 1
        if self.obs is not None:
            self._record_ingest_obs("flows", count)
        return count

    def ingest_log(self, log: LogRecord) -> None:
        """Store one complementary sensor record."""
        self._chaos_gate("ingest_log")
        self._ingest("logs", log, {"kind": log.kind})
        if self.obs is not None:
            self._m_ingest["logs"].inc()

    def ingest_logs(self, logs: Iterable[LogRecord]) -> int:
        """Store a batch of sensor records; returns the count."""
        count = 0
        for log in logs:
            self.ingest_log(log)
            count += 1
        return count

    # -- query -------------------------------------------------------------

    def segments(self, collection: str) -> List:
        """The collection's segments (packets: shard by shard)."""
        if collection == "packets":
            shards = self._shards
            return shards[0] if len(shards) == 1 \
                else list(itertools.chain.from_iterable(shards))
        if collection not in self._segments:
            known = ", ".join(sorted(schemas.SCHEMAS))
            raise KeyError(f"unknown collection {collection!r}; one of {known}")
        return self._segments[collection]

    def evict_segment(self, collection: str, segment) -> None:
        """Remove one segment from the store.

        The single sanctioned mutation point for segment lifecycle
        outside the tiering/compaction machinery (REP308): retention
        calls this.  A cold segment also leaves its shard's registry
        and disk.
        """
        if collection != "packets":
            self.segments(collection).remove(segment)
            return
        for shard, segments in enumerate(self._shards):
            if any(candidate is segment for candidate in segments):
                segments.remove(segment)
                break
        else:
            raise ValueError("segment not held by any shard")
        if isinstance(segment, ColdSegment):
            _, _, cold = self.tier_segments(shard)
            self._write_registry(shard, [c.directory.name for c in cold])
            shutil.rmtree(segment.directory, ignore_errors=True)
        self._update_tier_gauges()

    def query(self, query: Query) -> List[StoredRecord]:
        """Run a query; see :class:`repro.datastore.query.Query`."""
        obs = self.obs
        if obs is None:
            return execute_query(self, query, executor=self.executor)
        with obs.span("store.query", collection=query.collection) as span:
            records = execute_query(self, query, executor=self.executor,
                                    obs=obs)
            span.set(rows=len(records))
        return records

    def aggregate(self, query: Query, aggregation: Aggregation) -> Dict:
        return execute_aggregate(self, query, aggregation)

    def count(self, collection: str) -> int:
        return sum(len(s) for s in self.segments(collection))

    # -- planning ------------------------------------------------------------

    def build_stats(self, collection: Optional[str] = None) -> int:
        """Build planner stats for every segment missing a fresh block
        (all collections when ``collection`` is None).  Returns how
        many were built."""
        names = [collection] if collection is not None else \
            list(schemas.SCHEMAS)
        built = 0
        for name in names:
            for segment in self.segments(name):
                if segment.stats() is None:
                    segment.build_stats()
                    built += 1
        return built

    def plan(self, query: Query):
        """The :class:`~repro.datastore.planner.QueryPlan` this store
        would execute for ``query`` (a snapshot: plan and execute
        before ingesting more)."""
        from repro.datastore.planner import plan_query
        return plan_query(self, query)

    def explain(self, query: Query) -> str:
        """EXPLAIN text for ``query`` without executing it."""
        return self.plan(query).explain()

    def count_matching(self, query: Query):
        """``COUNT(*)`` of the query's matches as an
        :class:`~repro.datastore.planner.AggregateAnswer`;
        sketch-backed when ``query.approx`` allows."""
        from repro.datastore.planner import execute_count
        return execute_count(self, query, obs=self.obs)

    def distinct_count(self, query: Query, fld: str):
        """Distinct values of ``fld`` among the query's matches."""
        from repro.datastore.planner import execute_distinct
        return execute_distinct(self, query, fld, obs=self.obs)

    def heavy_hitters(self, query: Query, fld: str, k: int = 8):
        """Top-``k`` ``(value, count)`` pairs of ``fld``."""
        from repro.datastore.planner import execute_heavy_hitters
        return execute_heavy_hitters(self, query, fld, k=k, obs=self.obs)

    # -- tiers ---------------------------------------------------------------

    def tier_segments(self, shard: Optional[int] = None) \
            -> Tuple[List, List, List]:
        """(hot, warm, cold) views of the packet segments — one
        shard's, or every shard's in shard order."""
        segments = self.segments("packets") if shard is None \
            else self._shards[shard]
        hot: List = []
        warm: List = []
        cold: List = []
        for segment in segments:
            if isinstance(segment, ColdSegment):
                cold.append(segment)
            elif segment.sealed:
                warm.append(segment)
            else:
                hot.append(segment)
        return hot, warm, cold

    def tier_summary(self) -> Optional[Dict[str, Dict]]:
        """Per-tier segment/record/byte counts plus compaction debt;
        None for a store without tiers."""
        if self.tiers is None:
            return None
        hot, warm, cold = self.tier_segments()
        out = {
            tier: {"segments": len(group),
                   "records": sum(len(s) for s in group),
                   "bytes": sum(s.bytes_estimate for s in group)}
            for tier, group in (("hot", hot), ("warm", warm),
                                ("cold", cold))
        }
        out["compaction_debt"] = len(self.compactor.debt())
        return out

    def _aged(self, shard: int) -> bool:
        age = self.tiers.seal_age_s if self.tiers is not None else None
        opened = self._opened_at[shard]
        return (age is not None and opened is not None
                and self.clock.now() - opened >= age)

    def _seal_memtable(self, shard: int) -> Optional[Segment]:
        """Seal one shard's memtable into a ``(time, rid)``-sorted warm
        segment.

        Within a memtable rids increase with append position, so a
        stable argsort on timestamp alone *is* the (time, rid) order.
        The sorted replacement is swapped in with one list assignment.
        """
        segments = self._shards[shard]
        memtable = segments[-1] if segments else None
        if memtable is None or memtable.sealed or not memtable.records:
            return None
        cols = memtable.columns()
        n = len(memtable.records)
        sealed = Segment(memtable.schema, memtable.segment_id,
                         capacity=max(n, 1))
        if cols is not None:
            order = np.argsort(np.asarray(cols.timestamp), kind="stable")
            sealed.append_batch(
                [memtable.records[i] for i in order.tolist()])
            sealed.adopt_columns(cols.take(order))
        else:
            time_of = memtable.schema.time_of
            ordered = sorted(memtable.records,
                             key=lambda s: (time_of(s.record), s.rid))
            sealed.append_batch(ordered)
        sealed.seal(build_stats=self.stats_on_seal)
        segments[-1] = sealed
        self._opened_at[shard] = None
        if self.obs is not None and self.tiers is not None:
            self._m_seals.inc()
        self._update_tier_gauges()
        return sealed

    def seal_hot(self) -> int:
        """Seal every shard's memtable; returns how many sealed."""
        return sum(1 for shard in range(self.n_shards)
                   if self._seal_memtable(shard) is not None)

    def maybe_seal(self) -> int:
        """Seal full or aged memtables without waiting for ingest;
        returns how many sealed."""
        sealed = 0
        for shard, segments in enumerate(self._shards):
            tail = segments[-1] if segments else None
            if tail is not None and not tail.sealed and tail.records \
                    and (tail.full or self._aged(shard)):
                sealed += self._seal_memtable(shard) is not None
        return sealed

    def flush_to_cold(self) -> int:
        """Seal the memtables and spill every warm segment to disk (the
        shutdown path: a reopened store then holds every record).
        Returns how many segments spilled."""
        if self.spill_dir is None:
            raise ValueError("flush_to_cold requires a spill_dir")
        flushed = 0
        for shard in range(self.n_shards):
            self._seal_memtable(shard)
            while True:
                _, warm, _ = self.tier_segments(shard)
                if not warm:
                    break
                self.compactor._spill(shard, warm[0])
                flushed += 1
        self._update_tier_gauges()
        return flushed

    def _write_registry(self, shard: int, dirs: List[str]) -> None:
        """Commit one shard's cold-tier membership."""
        write_registry(self._cold_dirs[shard], dirs, self._segment_ids,
                       self._record_ids)

    def _resume_from_disk(self) -> None:
        watermarks = []
        for shard, directory in enumerate(self._cold_dirs):
            cold, next_ids = open_cold_dir(directory)
            self._shards[shard][:0] = cold
            if next_ids is not None:
                watermarks.append(next_ids)
        if watermarks:
            self._segment_ids = itertools.count(
                max(ids[0] for ids in watermarks))
            self._record_ids = itertools.count(
                max(ids[1] for ids in watermarks))
        self._update_tier_gauges()

    def _update_tier_gauges(self) -> None:
        if self.obs is None or self.tiers is None:
            return
        hot, warm, cold = self.tier_segments()
        for tier, group in (("hot", hot), ("warm", warm), ("cold", cold)):
            self._m_tier_segments[tier].set(len(group))
            self._m_tier_bytes[tier].set(
                sum(s.bytes_estimate for s in group))
        self._m_debt.set(len(self.compactor.debt()))

    # -- stats ---------------------------------------------------------------

    def bytes_estimate(self, collection: Optional[str] = None) -> int:
        names = [collection] if collection is not None else schemas.SCHEMAS
        return sum(s.bytes_estimate
                   for name in names for s in self.segments(name))

    def time_span(self, collection: str) -> Tuple[Optional[float], Optional[float]]:
        segments = self.segments(collection)
        mins = [s.min_time for s in segments if s.min_time is not None]
        maxs = [s.max_time for s in segments if s.max_time is not None]
        return (min(mins) if mins else None, max(maxs) if maxs else None)

    def summary(self) -> Dict[str, Dict]:
        """Per-collection counts, bytes, and time span."""
        out = {}
        for name in schemas.SCHEMAS:
            lo, hi = self.time_span(name)
            out[name] = {
                "records": self.count(name),
                "segments": len(self.segments(name)),
                "bytes": self.bytes_estimate(name),
                "min_time": lo,
                "max_time": hi,
            }
        return out

    def shard_summary(self) -> List[Dict[str, int]]:
        """Per-shard packet record/segment counts (balance diagnostics)."""
        return [
            {"records": sum(len(s) for s in segments),
             "segments": len(segments)}
            for segments in self._shards
        ]
