"""Tiered storage: hot memtable → warm sealed segments → cold mmap files.

The paper's platform promises *continuous* campus-scale capture, which
batch ``ingest_packets`` alone cannot honor: a store that only grows
in RAM neither absorbs sustained pressure nor outlives the process.
A :class:`~repro.datastore.store.DataStore` built with
``tiers=TierPolicy(...)`` puts its packet collection on an
LSM-flavored tier ladder; this module holds the ladder's parts:

* **hot** — one unsealed write-optimized :class:`Segment` (the
  memtable, ``segment_capacity`` records) per shard; appends are
  list-extends, nothing else.
* **warm** — sealed, ``(time, rid)``-sorted in-memory segments with
  columnar mirrors and (optionally) planner stats.
* **cold** — compressed on-disk segment directories opened with
  ``numpy`` memory maps (:class:`ColdSegment`), so a store bigger than
  RAM stays queryable without faulting whole segments in.  With
  ``spill_dir`` set, a one-shard store keeps them (and its
  ``registry.json``) at the root; shard ``i`` of a sharded store keeps
  them under ``shard-<i>/``.

All three tiers satisfy the same *SegmentSource* duck type the planner
and executor already consume (``records``, ``columns()``, ``stats()``,
``min_time``/``max_time``/``overlaps``, ``rid_span()``, ``schema``,
``segment_id``), so queries treat a half-compacted store exactly like a
quiesced one.  Bit-identity with a flat store holds because rids are
assigned in global ingest order and the one executor
(:func:`~repro.datastore.planner.execute_plan`) merges runs into
``(time, rid)`` order, the order a flat store's stable time-sort
produces.

Compaction is a *stepped* state machine, not a thread: callers (the
CLI loop, tests, a platform tick) invoke :meth:`Compactor.step`, and
every disk-touching op follows one crash-atomicity protocol —
write into a ``*.tmp-<pid>`` directory, ``os.replace`` into place,
commit by atomically rewriting ``registry.json``; per-file SHA-256
checksums are verified on reopen.  A crash at *any* injectable step
(``chaos`` ``compact.crash``) leaves either the inputs or the output
registered, never neither.

Backpressure: :class:`IngestQueue` bounds the capture→store path by
record count; a refused batch is charged to the capture engine's
:class:`~repro.capture.engine.CaptureStats` via
``account_backpressure`` — never silently dropped.
"""

from __future__ import annotations

import json
import os
import shutil
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.chaos.faults import CompactorCrashError, FaultKind
from repro.datastore import schema as schemas
from repro.datastore.persistence import PersistenceError, _sha256
from repro.datastore.segments import RidSpan, Segment, StoredRecord, \
    rid_span
from repro.datastore.stats import ColumnStats, SegmentStats, \
    merge_column_stats
from repro.netsim.packets import _STRING_FIELDS, NUMERIC_FIELDS, \
    DictColumn, PacketColumns, u32_to_ip

COLD_FORMAT_VERSION = 1
REGISTRY_NAME = "registry.json"
SEGMENT_MANIFEST = "manifest.json"
STATS_NAME = "stats.json"


def _counter_value(counter) -> int:
    """Next value an ``itertools.count`` will yield, without consuming
    it (the counter's pickle form carries it)."""
    return counter.__reduce__()[1][0]


# -- policy ------------------------------------------------------------------


@dataclass(frozen=True)
class TierPolicy:
    """Knobs for the tier ladder.

    The store's ``segment_capacity`` bounds the hot tier (the seal
    size); ``seal_age_s`` additionally seals a non-full memtable once
    it has been open that long on the store's clock.  ``warm_fanin`` warm
    segments merge into one; more than ``warm_max_segments`` warm
    segments spill the oldest to disk (when a spill dir is
    configured); ``cold_fanin`` cold segments merge into one.
    """

    seal_age_s: Optional[float] = None
    warm_fanin: int = 4
    warm_max_segments: int = 8
    cold_fanin: int = 4

    def __post_init__(self):
        if self.seal_age_s is not None and self.seal_age_s <= 0:
            raise ValueError("seal_age_s must be positive (or None)")
        if self.warm_fanin < 2:
            raise ValueError("warm_fanin must be at least 2")
        if self.warm_max_segments < 1:
            raise ValueError("warm_max_segments must be at least 1")
        if self.cold_fanin < 2:
            raise ValueError("cold_fanin must be at least 2")


# -- cold format helpers -----------------------------------------------------


def _narrow(arr: np.ndarray) -> np.ndarray:
    """Smallest unsigned dtype holding the column exactly.

    Numpy's comparison promotion keeps equality semantics identical to
    the float64 original (an int-valued probe compares exactly either
    way), so narrowing only changes bytes on disk, never answers.
    Non-integral or negative data falls back to float64.
    """
    data = np.asarray(arr)
    if data.size == 0:
        return data.astype(np.uint8)
    if data.dtype.kind == "u":
        top = int(data.max())
    elif data.dtype.kind in "if":
        data = data.astype(np.float64)
        if not (np.all(np.isfinite(data)) and np.all(data >= 0)
                and np.all(data == np.floor(data))):
            return data
        top = int(data.max())
    else:
        return data
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if top <= np.iinfo(dtype).max:
            return data.astype(dtype)
    return np.asarray(arr, dtype=np.float64)


def _write_blob(target: Path, stem: str, chunks: List[bytes]) -> None:
    """Variable-length rows as one byte file plus an offsets array."""
    offsets = np.zeros(len(chunks) + 1, dtype=np.uint64)
    with (target / f"{stem}.bin").open("wb") as fh:
        at = 0
        for index, chunk in enumerate(chunks):
            fh.write(chunk)
            at += len(chunk)
            offsets[index + 1] = at
    np.save(target / f"{stem}.off.npy", offsets)


class _BlobColumn:
    """Read side of :func:`_write_blob`: ``[]`` returns row bytes."""

    __slots__ = ("_data", "_offsets")

    def __init__(self, path: Path, offsets: np.ndarray):
        self._offsets = offsets
        self._data = np.memmap(path, dtype=np.uint8, mode="r") \
            if path.stat().st_size else np.zeros(0, dtype=np.uint8)

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[i] for i in range(*key.indices(len(self)))]
        position = int(key)
        if position < 0:
            position += len(self)
        lo = int(self._offsets[position])
        hi = int(self._offsets[position + 1])
        return bytes(self._data[lo:hi])

    def __iter__(self):
        for position in range(len(self)):
            yield self[position]


def _meta_bytes(stored: StoredRecord) -> bytes:
    return json.dumps({"t": stored.tags, "l": stored.label},
                      separators=(",", ":"), sort_keys=True).encode()


def _stats_to_json(stats: SegmentStats) -> Dict:
    """Stats block → JSON.  counts/topk serialize as [key, count]
    pairs (JSON object keys would stringify the int/float keys and the
    reconstructed sketches would probe the wrong slots)."""
    columns = {}
    for fld, c in stats.columns.items():
        entry: Dict[str, object] = {
            "n": c.n, "ndv": c.ndv, "ip_canonical": c.ip_canonical,
            "topk": [[key, count] for key, count in c.topk],
            "hll": {"p": c.hll.p, "registers": c.hll._registers.tolist()},
        }
        if c.counts is not None:
            entry["counts"] = [[key, count]
                               for key, count in c.counts.items()]
        if c.cms is not None:
            entry["cms"] = {"width": c.cms.width, "depth": c.cms.depth,
                            "total": c.cms.total,
                            "table": c.cms._table.tolist()}
        columns[fld] = entry
    return {"n": stats.n, "columns": columns}


def _stats_from_json(payload: Dict) -> SegmentStats:
    """Rebuild a stats block written by :func:`_stats_to_json`.

    Blooms are dropped on purpose (per-segment sizing does not
    serialize compactly); a missing Bloom only means less pruning,
    never a wrong answer.  Hashing is process-independent (blake2b),
    so the restored CMS/HLL probe identically.
    """
    from repro.deploy.sketches import CountMinSketch, HyperLogLog
    columns: Dict[str, ColumnStats] = {}
    for fld, entry in payload["columns"].items():
        hll = HyperLogLog(p=entry["hll"]["p"])
        hll._registers = np.asarray(entry["hll"]["registers"],
                                    dtype=np.int8)
        counts = None
        if "counts" in entry:
            counts = {key: count for key, count in entry["counts"]}
        cms = None
        if "cms" in entry:
            spec = entry["cms"]
            cms = CountMinSketch(width=spec["width"], depth=spec["depth"])
            cms._table = np.asarray(spec["table"], dtype=np.int64)
            cms.total = spec["total"]
        columns[fld] = ColumnStats(
            field_name=fld, n=entry["n"], ndv=entry["ndv"], counts=counts,
            cms=cms, bloom=None, hll=hll,
            topk=[(key, count) for key, count in entry["topk"]],
            ip_canonical=entry["ip_canonical"])
    return SegmentStats(n=payload["n"], columns=columns)


def _write_cold_files(target: Path, segment_id: int, cols: PacketColumns,
                      rids: np.ndarray, metas: List[bytes]) -> Dict:
    """Write one cold segment's data files; returns the manifest body.

    Rows must already be ``(time, rid)``-sorted — the manifest records
    ``time_sorted`` so readers skip the ordering scan.
    """
    n = len(rids)
    encodings: Dict[str, Dict] = {}
    minmax: Dict[str, List[float]] = {}
    for fld in NUMERIC_FIELDS:
        arr = np.asarray(getattr(cols, fld), dtype=np.float64)
        data = arr if fld == "timestamp" else _narrow(arr)
        np.save(target / f"{fld}.npy", data)
        encodings[fld] = {"kind": "numeric", "file": f"{fld}.npy"}
        if n:
            minmax[fld] = [float(arr.min()), float(arr.max())]
    for fld in ("src_ip", "dst_ip"):
        column = getattr(cols, fld)
        if isinstance(column, DictColumn):
            np.save(target / f"{fld}.codes.npy",
                    _narrow(np.asarray(column.codes)))
            encodings[fld] = {"kind": "dict", "file": f"{fld}.codes.npy",
                              "values": list(column.values)}
        else:
            arr = np.asarray(column, dtype=np.uint32)
            np.save(target / f"{fld}.npy", arr)
            encodings[fld] = {"kind": "u32", "file": f"{fld}.npy"}
            if n:
                minmax[fld] = [float(arr.min()), float(arr.max())]
    for fld in _STRING_FIELDS:
        column = getattr(cols, fld)
        np.save(target / f"{fld}.codes.npy",
                _narrow(np.asarray(column.codes)))
        encodings[fld] = {"kind": "dict", "file": f"{fld}.codes.npy",
                          "values": list(column.values)}
    _write_blob(target, "payload", [bytes(p) for p in cols.payload])
    _write_blob(target, "meta", metas)
    np.save(target / "rids.npy", np.asarray(rids, dtype=np.uint64))
    ts = np.asarray(cols.timestamp, dtype=np.float64)
    return {
        "format_version": COLD_FORMAT_VERSION,
        "segment_id": segment_id,
        "n": n,
        "min_time": float(ts[0]) if n else None,
        "max_time": float(ts[-1]) if n else None,
        "max_rid": int(rids.max()) if n else 0,
        "encodings": encodings,
        "minmax": minmax,
    }


def _finish_manifest(target: Path, manifest: Dict) -> None:
    """Checksum every data file and commit the per-segment manifest."""
    files = sorted(p.name for p in target.iterdir())
    manifest["bytes"] = int(sum((target / f).stat().st_size
                               for f in files))
    manifest["checksums"] = {name: _sha256(target / name)
                             for name in files}
    (target / SEGMENT_MANIFEST).write_text(json.dumps(manifest, indent=2))


def _sorted_cold_rows(segment) \
        -> Tuple[PacketColumns, np.ndarray, List[bytes]]:
    """(columns, rids, meta rows) of one warm segment in (time, rid)
    order (a no-op reorder for a properly sealed segment)."""
    cols = segment.columns()
    if cols is None:
        cols = PacketColumns.from_records(
            [s.record for s in segment.records])
    records = segment.records
    rids = np.fromiter((s.rid for s in records), dtype=np.uint64,
                       count=len(records))
    metas = [_meta_bytes(s) for s in records]
    ts = np.asarray(cols.timestamp, dtype=np.float64)
    order = np.lexsort((rids, ts))
    if not np.array_equal(order, np.arange(len(order))):
        cols = cols.take(order)
        rids = rids[order]
        metas = [metas[i] for i in order.tolist()]
    return cols, rids, metas


# -- cold read side ----------------------------------------------------------


class _ColdRecords:
    """A cold segment's ``records`` facade: length, truthiness, and
    on-demand :class:`StoredRecord` materialization — every accessor
    the executors use, without a list of objects in RAM."""

    __slots__ = ("_segment",)

    def __init__(self, segment: "ColdSegment"):
        self._segment = segment

    def __len__(self) -> int:
        return len(self._segment)

    def __bool__(self) -> bool:
        return len(self._segment) > 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[i] for i in range(*key.indices(len(self)))]
        segment = self._segment
        position = int(key)
        if position < 0:
            position += len(segment)
        meta = json.loads(segment.meta_blob[position])
        return StoredRecord(rid=int(segment.rids[position]),
                            record=segment.columns().record(position),
                            tags=meta["t"] or {}, label=meta["l"])

    def __iter__(self):
        for position in range(len(self)):
            yield self[position]


class ColdSegment:
    """A sealed, immutable, on-disk segment opened via ``mmap``.

    Satisfies the same SegmentSource duck type as
    :class:`~repro.datastore.segments.Segment`: the planner prunes it
    from the manifest's time span and the deserialized stats block
    without faulting a single data page, and the vectorized scan path
    streams only the pages its masks touch.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        manifest_path = self.directory / SEGMENT_MANIFEST
        if not manifest_path.exists():
            raise PersistenceError(f"no {SEGMENT_MANIFEST} in {directory}")
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format_version") != COLD_FORMAT_VERSION:
            raise PersistenceError(
                f"unsupported cold format {manifest.get('format_version')}")
        self.manifest = manifest
        self.schema = schemas.SCHEMAS["packets"]
        self.segment_id = int(manifest["segment_id"])
        self.sealed = True
        self.n = int(manifest["n"])
        self.capacity = max(self.n, 1)
        self.bytes_estimate = int(manifest["bytes"])
        self._cols: Optional[PacketColumns] = None
        self._rids = None
        self._meta = None
        self._records: Optional[_ColdRecords] = None
        self._stats: Optional[SegmentStats] = None
        self._stats_loaded = False
        self._rid_span: Optional[RidSpan] = None

    # -- integrity ----------------------------------------------------------

    def verify_checksums(self) -> None:
        """SHA-256 every data file against the manifest (reopen path)."""
        for name, expected in self.manifest["checksums"].items():
            path = self.directory / name
            if not path.exists():
                raise PersistenceError(
                    f"cold segment {self.segment_id} is missing {name}")
            actual = _sha256(path)
            if actual != expected:
                raise PersistenceError(
                    f"checksum mismatch in cold segment {self.segment_id} "
                    f"file {name} (expected {expected[:12]}…, got "
                    f"{actual[:12]}…)")

    # -- SegmentSource surface ----------------------------------------------

    def _load(self, name: str) -> np.ndarray:
        return np.load(self.directory / name, mmap_mode="r")

    @property
    def rids(self) -> np.ndarray:
        if self._rids is None:
            self._rids = self._load("rids.npy")
        return self._rids

    @property
    def meta_blob(self) -> _BlobColumn:
        if self._meta is None:
            self._meta = _BlobColumn(self.directory / "meta.bin",
                                     self._load("meta.off.npy"))
        return self._meta

    def rid_span(self) -> Optional[RidSpan]:
        if self._rid_span is None:
            self._rid_span = rid_span(self.rids)
        return self._rid_span

    @property
    def records(self) -> _ColdRecords:
        if self._records is None:
            self._records = _ColdRecords(self)
        return self._records

    def columns(self) -> PacketColumns:
        if self._cols is None:
            kw: Dict[str, object] = {}
            for fld, encoding in self.manifest["encodings"].items():
                if encoding["kind"] == "dict":
                    kw[fld] = DictColumn(self._load(encoding["file"]),
                                         list(encoding["values"]))
                else:
                    kw[fld] = self._load(encoding["file"])
            kw["payload"] = _BlobColumn(self.directory / "payload.bin",
                                        self._load("payload.off.npy"))
            cols = PacketColumns(**kw)
            cols._time_sorted = True     # rows are written (time, rid)-sorted
            for fld, bounds in self.manifest["minmax"].items():
                cols._minmax[fld] = (bounds[0], bounds[1])
            self._cols = cols
        return self._cols

    def stats(self) -> Optional[SegmentStats]:
        if not self._stats_loaded:
            self._stats_loaded = True
            path = self.directory / STATS_NAME
            if path.exists():
                self._stats = _stats_from_json(json.loads(path.read_text()))
        return self._stats

    def build_stats(self) -> SegmentStats:
        self._stats = SegmentStats.build(self)
        self._stats_loaded = True
        return self._stats

    def adopt_columns(self, columns) -> bool:
        return False                      # immutable: nothing to adopt

    def invalidate_indexes(self) -> None:
        self._records = None              # cold data itself cannot change

    @property
    def full(self) -> bool:
        return True

    @property
    def min_time(self) -> Optional[float]:
        return self.manifest["min_time"]

    @property
    def max_time(self) -> Optional[float]:
        return self.manifest["max_time"]

    def overlaps(self, start: Optional[float], end: Optional[float]) -> bool:
        lo, hi = self.min_time, self.max_time
        if lo is None:
            return False
        if start is not None and hi < start:
            return False
        if end is not None and lo > end:
            return False
        return True

    def append(self, stored) -> int:
        raise RuntimeError(f"cold segment {self.segment_id} is immutable")

    def append_batch(self, batch) -> None:
        raise RuntimeError(f"cold segment {self.segment_id} is immutable")

    def __len__(self) -> int:
        return self.n


# -- cold merge helpers ------------------------------------------------------


def _concat_dict(columns: List[DictColumn]) -> DictColumn:
    """Union the value tables, remap codes, concatenate."""
    code_of: Dict[str, int] = {}
    parts = []
    for column in columns:
        remap = np.asarray([code_of.setdefault(v, len(code_of))
                            for v in column.values], dtype=np.int64)
        parts.append(remap[np.asarray(column.codes, dtype=np.int64)])
    codes = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    return DictColumn(codes, list(code_of))


def _concat_ip(columns: List) -> object:
    """uint32 concat when every part is uint32; dictionary otherwise."""
    if not any(isinstance(c, DictColumn) for c in columns):
        return np.concatenate([np.asarray(c, dtype=np.uint32)
                               for c in columns])
    dicts = []
    for column in columns:
        if isinstance(column, DictColumn):
            dicts.append(column)
        else:
            dicts.append(DictColumn.encode(
                [u32_to_ip(int(v)) for v in column]))
    return _concat_dict(dicts)


def _merge_cold_rows(inputs: List[ColdSegment]) \
        -> Tuple[PacketColumns, np.ndarray, List[bytes]]:
    """All input rows merged into global (time, rid) order."""
    all_cols = [segment.columns() for segment in inputs]
    ts = np.concatenate([np.asarray(c.timestamp, dtype=np.float64)
                         for c in all_cols])
    rids = np.concatenate([np.asarray(segment.rids, dtype=np.uint64)
                           for segment in inputs])
    order = np.lexsort((rids, ts))
    kw: Dict[str, object] = {}
    for fld in NUMERIC_FIELDS:
        kw[fld] = np.concatenate(
            [np.asarray(getattr(c, fld), dtype=np.float64)
             for c in all_cols])[order]
    for fld in ("src_ip", "dst_ip"):
        merged = _concat_ip([getattr(c, fld) for c in all_cols])
        kw[fld] = merged.take(order) if isinstance(merged, DictColumn) \
            else merged[order]
    for fld in _STRING_FIELDS:
        kw[fld] = _concat_dict(
            [getattr(c, fld) for c in all_cols]).take(order)
    payloads: List[bytes] = []
    metas: List[bytes] = []
    for segment, cols in zip(inputs, all_cols):
        payloads.extend(cols.payload)
        metas.extend(segment.meta_blob)
    positions = order.tolist()
    kw["payload"] = [payloads[i] for i in positions]
    return PacketColumns(**kw), rids[order], [metas[i] for i in positions]


def _merged_stats(inputs: List) -> Optional[SegmentStats]:
    """Compaction-granularity stats merge, or None when any input
    lacks a block (caller decides whether to rebuild)."""
    parts = [segment.stats() for segment in inputs]
    if any(part is None for part in parts):
        return None
    fields = set(parts[0].columns)
    for part in parts[1:]:
        fields &= set(part.columns)
    columns = {fld: merge_column_stats([part.columns[fld]
                                        for part in parts])
               for fld in sorted(fields)}
    return SegmentStats(n=sum(part.n for part in parts), columns=columns)


# -- cold directories --------------------------------------------------------


def spilled_shards(spill_dir: Path) -> Optional[int]:
    """How many shards wrote ``spill_dir``: one per ``shard-<i>``
    subdirectory, or 1 for a root ``registry.json``; None when nothing
    has been written there yet."""
    if not spill_dir.is_dir():
        return None
    shard_dirs = [p for p in spill_dir.glob("shard-*") if p.is_dir()]
    if shard_dirs:
        return len(shard_dirs)
    return 1 if (spill_dir / REGISTRY_NAME).exists() else None


def write_registry(directory: Path, dirs: List[str], segment_ids,
                   record_ids) -> None:
    """Atomically commit one cold directory's membership (the commit
    point of every disk-touching compaction op), with the store's id
    counters as the watermarks a reopen resumes from."""
    payload = {
        "format_version": COLD_FORMAT_VERSION,
        "segments": list(dirs),
        "next_segment_id": _counter_value(segment_ids),
        "next_record_id": _counter_value(record_ids),
    }
    tmp = directory / f"{REGISTRY_NAME}.tmp-{os.getpid()}"
    tmp.write_text(json.dumps(payload, indent=2))
    os.replace(tmp, directory / REGISTRY_NAME)


def open_cold_dir(directory: Path) \
        -> Tuple[List[ColdSegment], Optional[Tuple[int, int]]]:
    """Reopen one cold directory.

    Clears debris from crashed compactions, verifies every registered
    segment's checksums, and returns the segments in registry order
    plus the registry's ``(next_segment_id, next_record_id)`` — None
    when no registry has been committed yet.
    """
    directory.mkdir(parents=True, exist_ok=True)
    registry_path = directory / REGISTRY_NAME
    registered: List[str] = []
    payload = None
    if registry_path.exists():
        payload = json.loads(registry_path.read_text())
        if payload.get("format_version") != COLD_FORMAT_VERSION:
            raise PersistenceError(
                "unsupported registry format "
                f"{payload.get('format_version')}")
        registered = list(payload["segments"])
    keep = set(registered)
    for entry in sorted(directory.iterdir()):
        if entry.name == REGISTRY_NAME:
            continue
        if entry.is_dir() and entry.name not in keep:
            shutil.rmtree(entry)          # crashed-compaction debris
        elif entry.is_file():
            entry.unlink()                # torn registry tmp file
    if payload is None:
        return [], None
    cold: List[ColdSegment] = []
    for name in registered:
        segment = ColdSegment(directory / name)
        segment.verify_checksums()
        cold.append(segment)
    return cold, (int(payload["next_segment_id"]),
                  int(payload["next_record_id"]))


# -- ingest queue ------------------------------------------------------------


class IngestQueue:
    """Bounded batch queue between the capture engine and the store.

    ``offer`` rejects a whole batch when accepting it would exceed the
    record capacity (or when an armed ``ingest.queue_stall`` chaos
    fault fires); the caller is responsible for accounting the
    rejection — see :class:`StreamingIngestor`.
    """

    def __init__(self, capacity_records: int = 65_536, fault_injector=None,
                 obs=None):
        if capacity_records <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity_records = capacity_records
        self.fault_injector = fault_injector
        self._batches: Deque[List] = deque()
        self.depth = 0
        self.offered_batches = 0
        self.accepted_records = 0
        self.rejected_records = 0
        self.rejected_batches = 0
        self.obs = obs
        if obs is not None:
            self._g_depth = obs.metrics.gauge("repro_ingest_queue_depth")
            self._m_rejected = obs.metrics.counter(
                "repro_ingest_queue_rejected_records_total")

    def offer(self, packets) -> bool:
        """Enqueue one captured batch; False = refused (backpressure).

        Accepts a record list or a :class:`~repro.netsim.packets.
        PacketColumns` batch; columnar batches stay columnar end to end
        (no per-record copy here, and the store ingests the columns
        directly when the queue drains).
        """
        if not len(packets):
            return True
        self.offered_batches += 1
        injector = self.fault_injector
        stalled = injector is not None and injector.should_fire(
            FaultKind.QUEUE_STALL, batch=len(packets))
        if stalled or self.depth + len(packets) > self.capacity_records:
            self.rejected_records += len(packets)
            self.rejected_batches += 1
            if self.obs is not None:
                self._m_rejected.inc(len(packets))
            return False
        self._batches.append(packets if isinstance(packets, PacketColumns)
                             else list(packets))
        self.depth += len(packets)
        self.accepted_records += len(packets)
        if self.obs is not None:
            self._g_depth.set(self.depth)
        return True

    def take(self) -> Optional[List]:
        """Dequeue the oldest batch, or None when drained."""
        if not self._batches:
            return None
        batch = self._batches.popleft()
        self.depth -= len(batch)
        if self.obs is not None:
            self._g_depth.set(self.depth)
        return batch

    def __len__(self) -> int:
        return self.depth


class StreamingIngestor:
    """capture → bounded queue → store, with accounted backpressure.

    Subscribe an instance to a :class:`~repro.capture.engine.
    CaptureEngine` (done automatically when ``engine`` is given): each
    captured batch is offered to the queue; refused batches are
    charged back to the engine's stats.  :meth:`pump` moves queued
    batches into the store; :meth:`drain` empties the queue and runs
    the compactor until debt-free.
    """

    def __init__(self, store, engine=None, queue: Optional[IngestQueue]
                 = None, queue_records: int = 65_536, obs=None):
        self.store = store
        self.engine = engine
        self.queue = queue if queue is not None else IngestQueue(
            queue_records, fault_injector=store.fault_injector,
            obs=obs if obs is not None else store.obs)
        self.ingested_records = 0
        if engine is not None:
            engine.subscribe(self)

    def __call__(self, packets: List) -> None:
        if not self.queue.offer(packets) and self.engine is not None:
            self.engine.account_backpressure(packets)

    def pump(self, max_batches: Optional[int] = None) -> int:
        """Move up to ``max_batches`` queued batches into the store."""
        moved = 0
        while max_batches is None or moved < max_batches:
            batch = self.queue.take()
            if batch is None:
                break
            self.ingested_records += self.store.ingest_packets(batch)
            moved += 1
        return moved

    def drain(self, compact: bool = True) -> int:
        moved = self.pump()
        if compact:
            # run() is bounded per call; a long day can owe more than
            # one round's worth, and drain promises debt-free.
            while self.store.compactor.run():
                pass
        return moved


# -- compactor ---------------------------------------------------------------


class Compactor:
    """Stepped background compaction for a tiered
    :class:`~repro.datastore.store.DataStore`.

    Threadless and deterministic: :meth:`debt` lists the ops the
    policy currently owes, :meth:`step` executes exactly one, and the
    segment lists only change *between* steps — which is what lets the
    equivalence suite interleave queries with a live compaction and
    still demand bit-identical answers.  Every op works inside one
    shard: its inputs, its output and its cold directory all belong to
    that shard.  A store without tiers owes nothing.
    """

    def __init__(self, store):
        self.store = store
        self.completed: Dict[str, int] = {}

    def _chaos_step(self, step: str) -> None:
        injector = self.store.fault_injector
        if injector is not None and injector.should_fire(
                FaultKind.COMPACT_CRASH, step=step):
            raise CompactorCrashError(
                f"injected compactor crash at {step}")

    def _owed(self) -> List[Tuple[int, str, List]]:
        """``(shard, kind, inputs)`` per owed op; shard by shard, each
        shard's most urgent first: merge warm runs, spill the oldest
        warm segment past the cap, merge small cold segments."""
        store = self.store
        policy = store.tiers
        if policy is None:
            return []
        spills = store.spill_dir is not None
        ops: List[Tuple[int, str, List]] = []
        for shard in range(store.n_shards):
            _, warm, cold = store.tier_segments(shard)
            if len(warm) >= policy.warm_fanin:
                ops.append((shard, "warm-merge", warm[:policy.warm_fanin]))
            if spills and len(warm) > policy.warm_max_segments:
                ops.append((shard, "spill", [warm[0]]))
            if spills and len(cold) >= policy.cold_fanin:
                ops.append((shard, "cold-merge", cold[:policy.cold_fanin]))
        return ops

    def debt(self) -> List[Tuple[str, List]]:
        """Owed ``(kind, inputs)`` ops, the next one to run first."""
        return [(kind, inputs) for _, kind, inputs in self._owed()]

    def step(self) -> Optional[str]:
        """Execute the most urgent owed op; None when debt-free."""
        ops = self._owed()
        if not ops:
            return None
        shard, kind, inputs = ops[0]
        obs = self.store.obs
        if obs is None:
            self._dispatch(shard, kind, inputs)
        else:
            with obs.span("store.tiers.compact", op=kind,
                          inputs=len(inputs)):
                self._dispatch(shard, kind, inputs)
        self.completed[kind] = self.completed.get(kind, 0) + 1
        self.store._update_tier_gauges()
        return kind

    def run(self, max_steps: int = 64) -> List[str]:
        """Step until debt-free (or ``max_steps``); returns op kinds."""
        done: List[str] = []
        while len(done) < max_steps:
            kind = self.step()
            if kind is None:
                break
            done.append(kind)
        return done

    def _dispatch(self, shard: int, kind: str, inputs: List) -> None:
        if kind == "warm-merge":
            self._warm_merge(shard, inputs)
        elif kind == "spill":
            self._spill(shard, inputs[0])
        else:
            self._cold_merge(shard, inputs)

    def _splice(self, shard: int, inputs: List, replacement) -> None:
        """Replace ``inputs`` with ``replacement`` at the first input's
        position — one assignment, so queries between steps never see
        a half-applied compaction."""
        segments = self.store._shards[shard]
        drop = {id(segment) for segment in inputs[1:]}
        first = inputs[0]
        segments[:] = [
            replacement if segment is first else segment
            for segment in segments if id(segment) not in drop
        ]

    # -- ops ----------------------------------------------------------------

    def _warm_merge(self, shard: int, inputs: List[Segment]) -> None:
        """Merge small warm runs into one sorted warm segment (RAM
        only — crash-safe because nothing is published until the final
        list splice)."""
        self._chaos_step("warm-merge:plan")
        store = self.store
        rows: List[Tuple[float, int, StoredRecord]] = []
        for segment in inputs:
            time_of = segment.schema.time_of
            rows.extend((time_of(stored.record), stored.rid, stored)
                        for stored in segment.records)
        rows.sort(key=lambda row: (row[0], row[1]))
        merged = Segment(schemas.SCHEMAS["packets"],
                         next(store._segment_ids),
                         capacity=max(len(rows), 1))
        merged.append_batch([stored for _, _, stored in rows])
        stats = _merged_stats(inputs)
        merged.seal(build_stats=stats is None and store.stats_on_seal)
        if stats is not None:
            merged.adopt_stats(stats)
        self._chaos_step("warm-merge:apply")
        self._splice(shard, inputs, merged)

    def _spill(self, shard: int, segment: Segment) -> None:
        """Age one warm segment into the cold on-disk format.

        Crash-atomic: data lands in a tmp dir, ``os.replace`` promotes
        it, and the registry rewrite is the commit point — a crash at
        any step leaves the warm segment authoritative (plus debris
        the next attempt or reopen clears).
        """
        store = self.store
        self._chaos_step("spill:plan")
        directory = store._cold_dirs[shard]
        name = f"seg-{segment.segment_id:08d}"
        target = directory / name
        tmp = directory / f"{name}.tmp-{os.getpid()}"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        self._chaos_step("spill:write:columns")
        cols, rids, metas = _sorted_cold_rows(segment)
        manifest = _write_cold_files(tmp, segment.segment_id, cols, rids,
                                     metas)
        self._chaos_step("spill:write:stats")
        stats = segment.stats()
        if stats is None:
            stats = segment.build_stats()
        (tmp / STATS_NAME).write_text(json.dumps(_stats_to_json(stats)))
        self._chaos_step("spill:write:manifest")
        _finish_manifest(tmp, manifest)
        self._chaos_step("spill:swap")
        if target.exists():
            shutil.rmtree(target)   # unregistered leftover of a past crash
        os.replace(tmp, target)
        self._chaos_step("spill:registry")
        _, _, cold = store.tier_segments(shard)
        store._write_registry(shard,
                              [c.directory.name for c in cold] + [name])
        self._chaos_step("spill:apply")
        self._splice(shard, [segment], ColdSegment(target))

    def _cold_merge(self, shard: int, inputs: List[ColdSegment]) -> None:
        """Merge small cold segments into one larger one.

        Same commit protocol as :meth:`_spill`; the registry rewrite
        atomically swaps the inputs for the output, so every crash
        window leaves either set fully registered.  Input directories
        are deleted only after the in-memory splice; stragglers are
        orphans the next reopen clears.
        """
        store = self.store
        self._chaos_step("cold-merge:plan")
        directory = store._cold_dirs[shard]
        segment_id = next(store._segment_ids)
        name = f"seg-{segment_id:08d}"
        target = directory / name
        tmp = directory / f"{name}.tmp-{os.getpid()}"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        self._chaos_step("cold-merge:write:columns")
        cols, rids, metas = _merge_cold_rows(inputs)
        manifest = _write_cold_files(tmp, segment_id, cols, rids, metas)
        self._chaos_step("cold-merge:write:stats")
        stats = _merged_stats(inputs)
        if stats is not None:
            (tmp / STATS_NAME).write_text(
                json.dumps(_stats_to_json(stats)))
        self._chaos_step("cold-merge:write:manifest")
        _finish_manifest(tmp, manifest)
        self._chaos_step("cold-merge:swap")
        if target.exists():
            shutil.rmtree(target)
        os.replace(tmp, target)
        self._chaos_step("cold-merge:registry")
        merged_ids = {id(segment) for segment in inputs}
        _, _, cold = store.tier_segments(shard)
        dirs: List[str] = []
        for segment in cold:
            if segment is inputs[0]:
                dirs.append(name)
            elif id(segment) not in merged_ids:
                dirs.append(segment.directory.name)
        store._write_registry(shard, dirs)
        self._chaos_step("cold-merge:apply")
        self._splice(shard, inputs, ColdSegment(target))
        self._chaos_step("cold-merge:cleanup")
        for segment in inputs:
            shutil.rmtree(segment.directory, ignore_errors=True)
