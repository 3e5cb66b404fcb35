"""The campus data store.

§5: "Comprising a single platform for collecting, storing, indexing,
mining, and visualizing network data, a university network's data
store ... becomes the single source of all campus network-related
data."  This subpackage implements that platform:

* :mod:`repro.datastore.store` — the one :class:`DataStore`:
  segmented collections for packets, flow records, and sensor logs.
  ``DataStore(shards=..., tiers=..., spill_dir=...)`` picks the
  layout — packets partitioned by time window x flow hash, on the
  hot/warm/cold tier ladder, with the cold tier persisted — and every
  layout answers queries bit-identically.
* :mod:`repro.datastore.segments` — sealed segments with local indexes.
* :mod:`repro.datastore.index` — time, hash, and inverted tag indexes.
* :mod:`repro.datastore.query` — the query engine (index-accelerated
  filters, aggregation).
* :mod:`repro.datastore.planner` — cost-based query planning over a
  shared QueryPlan IR, with sketch-backed approximate aggregates.
* :mod:`repro.datastore.stats` — per-segment column statistics (the
  cost model's input).
* :mod:`repro.datastore.labels` — ground-truth labeling jobs.
* :mod:`repro.datastore.linking` — cross-source record linking
  (packets <-> flows <-> logs), the "linked and indexed" property.
* :mod:`repro.datastore.retention` — retention policy enforcement.
* :mod:`repro.datastore.tiers` — the tier ladder's parts: the tier
  policy, streaming ingestion through a bounded queue, the cold mmap
  segment format, and the stepped compactor.
"""

from repro.datastore.store import DataStore, StoredRecord
from repro.datastore.query import Query, Aggregation
from repro.datastore.planner import AggregateAnswer, ErrorBudget, \
    QueryPlan, within
from repro.datastore.labels import Labeler, LabelSummary
from repro.datastore.linking import LinkedView, RecordLinker
from repro.datastore.retention import RetentionPolicy, RetentionReport
from repro.datastore.persistence import export_store, import_store, \
    PersistenceError
from repro.datastore.tiers import ColdSegment, Compactor, IngestQueue, \
    StreamingIngestor, TierPolicy

__all__ = [
    "export_store",
    "import_store",
    "PersistenceError",
    "DataStore",
    "StoredRecord",
    "Query",
    "Aggregation",
    "AggregateAnswer",
    "ErrorBudget",
    "QueryPlan",
    "within",
    "Labeler",
    "LabelSummary",
    "LinkedView",
    "RecordLinker",
    "RetentionPolicy",
    "RetentionReport",
    "TierPolicy",
    "ColdSegment",
    "Compactor",
    "IngestQueue",
    "StreamingIngestor",
]
