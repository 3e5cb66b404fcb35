"""Spans and counters recorded from the benchmark's own files.

Before a traced workload builds its objects, :class:`Instrumentation`
replaces public entry points of the program's classes with timing
wrappers, and :meth:`Instrumentation.uninstall` puts the originals
back.  No file of the program changes.

Every wrapped call pushes a frame on :class:`Tracer`'s stack.  A
frame's *self time* is its duration minus the time of the frames it
called, so the self times of all frames under the root add up to the
root's duration exactly.  Batch-level calls also keep a span record
``(kind, start, end, parent)``; per-record calls (privacy transforms,
log ingests, flow observers) only add to the aggregated self time and
call count, so a day of 200k records does not keep 200k spans.

A wrap target that no longer exists (a later refactor deleted or
renamed it) is skipped, and a layer none of whose targets exist is
reported as absent instead of crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: the root frame of a traced phase, and frames for callbacks that
#: belong to no layer: their self time is reported as unattributed.
ROOT = "run"
OTHER = "observer"

#: attribute marking a function as already wrapped (value: span kind)
MARK = "__perfbench_kind__"


class Tracer:
    """A stack of open frames plus per-kind self time, calls and spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.active = False
        # frame: [kind, start, child seconds, span index or -1]
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, float] = {}
        self.spans: List[Tuple[str, float, float, int]] = []

    def enter(self, kind: str, record: bool = True) -> None:
        index = -1
        if record:
            parent = next((frame[3] for frame in reversed(self._stack)
                           if frame[3] >= 0), -1)
            index = len(self.spans)
            self.spans.append((kind, 0.0, 0.0, parent))
        self._stack.append([kind, self.clock(), 0.0, index])

    def exit(self) -> float:
        kind, start, child, index = self._stack.pop()
        end = self.clock()
        duration = end - start
        self.self_s[kind] += duration - child
        self.calls[kind] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index] = (kind, start, end, self.spans[index][3])
        return duration

    def inside(self, kind: str) -> bool:
        """True when the innermost open frame is of ``kind``."""
        return bool(self._stack) and self._stack[-1][0] == kind

    @contextmanager
    def span(self, kind: str, record: bool = True):
        self.enter(kind, record)
        try:
            yield
        finally:
            self.exit()

    @contextmanager
    def root(self):
        """The traced phase: wrappers record only while it is open."""
        self.active = True
        self.enter(ROOT)
        try:
            yield
        finally:
            self.exit()
            self.active = False

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def root_seconds(self) -> float:
        """Total duration of the finished root frames."""
        return sum(end - start for kind, start, end, parent in self.spans
                   if kind == ROOT)


def timed(tracer: Tracer, kind: str, fn: Callable, record: bool = True,
          on_result: Optional[Callable] = None) -> Callable:
    """``fn`` wrapped in a frame of ``kind`` while ``tracer`` is active.

    ``on_result(args, result)`` runs inside the frame, and only for the
    outermost of nested frames of the same kind, so a subclass method
    that calls its wrapped base is counted once.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        outer = not tracer.inside(kind)
        tracer.enter(kind, record)
        try:
            result = fn(*args, **kwargs)
            if on_result is not None and outer:
                on_result(args, result)
        finally:
            tracer.exit()
        return result

    setattr(wrapper, MARK, kind)
    return wrapper


def find_class(module: str, name: str):
    """The class ``module.name``, or None when it no longer exists."""
    try:
        return getattr(importlib.import_module(module), name, None)
    except ImportError:
        return None


class Patcher:
    """Replaces class attributes and restores them in reverse order."""

    def __init__(self):
        self._undo: List[Tuple[type, str, object]] = []

    def replace(self, cls, attr: str, make: Callable) -> bool:
        """Set ``cls.attr = make(original)``; False when ``cls`` does
        not define ``attr`` itself (inherited attributes are wrapped
        where they are defined)."""
        if cls is None or attr not in cls.__dict__:
            return False
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))
        return True

    def restore(self) -> None:
        while self._undo:
            cls, attr, original = self._undo.pop()
            setattr(cls, attr, original)


class Probes:
    """Remembers the instances of a few classes as they are built.

    The CLI and the control-loop harness build their capture engine
    and switch internally; the output checks read those objects'
    public counters.  Installed in traced and untraced runs
    alike (one list append per construction).
    """

    TARGETS = (
        ("repro.capture.engine", "CaptureEngine"),
        ("repro.deploy.switch", "EmulatedSwitch"),
    )

    def __init__(self):
        self.instances: Dict[str, list] = defaultdict(list)
        self._patcher = Patcher()

    def install(self) -> "Probes":
        for module, name in self.TARGETS:
            self._patcher.replace(find_class(module, name), "__init__",
                                  functools.partial(self._remember, name))
        return self

    def _remember(self, name: str, init: Callable) -> Callable:
        instances = self.instances[name]

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)
        return wrapper

    def take(self, name: str) -> list:
        """The instances built since the last take, oldest first."""
        taken = list(self.instances[name])
        self.instances[name].clear()
        return taken

    def uninstall(self) -> None:
        self._patcher.restore()


# -- the wrap table ----------------------------------------------------------

STORE_CLASSES = (
    ("repro.datastore.store", "DataStore"),
    ("repro.datastore.store", "ShardedDataStore"),
    ("repro.datastore.tiers", "TieredDataStore"),
    ("repro.datastore.tiers", "TieredShardedDataStore"),
)
QUERY_METHODS = ("query", "count_matching", "distinct_count",
                 "heavy_hitters", "plan", "aggregate")


def _count_len(tracer: Tracer, name: str):
    return lambda args, result: tracer.count(name, len(result))


def _count_stored(tracer: Tracer):
    def on_result(args, result):
        tracer.count("store.calls")
        tracer.count("store.rows", 1 if result is None else int(result))
    return on_result


def _count_windows(tracer: Tracer):
    return lambda args, result: tracer.count("switch.windows_inferred")


def _record_labels(tracer: Tracer):
    def on_result(args, result):
        tracer.count("labels.records",
                     sum(s.records_seen for s in result.values()))
        packets = result.get("packets")
        if packets is not None and \
                packets.agreement_with_provenance is not None:
            tracer.values["labels.agreement"] = \
                packets.agreement_with_provenance
    return on_result


def _record_devloop(tracer: Tracer):
    def on_result(args, result):
        tool, report = result
        stages = report.stage_seconds
        for stage, key in (("train_teacher", "train.s"),
                           ("distill", "distill.s"),
                           ("compile", "compile.s"),
                           ("verify", "verify.s")):
            tracer.count(key, stages.get(stage, 0.0))
        tracer.values["distill.fidelity"] = \
            report.holdout_fidelity.label_fidelity
        tracer.values["compile.tcam_entries"] = tool.compiled.n_entries
    return on_result


def layer_of(fn: Callable) -> str:
    """The program module a callback belongs to."""
    owner = getattr(fn, "__self__", None)
    if owner is not None and not isinstance(owner, type):
        return type(owner).__module__
    return getattr(fn, "__module__", "") or ""


class Instrumentation:
    """Class-level timing wrappers for one traced phase.

    Call :meth:`install` before the workload builds the objects it
    will time, open ``tracer.root()`` around the timed phase, then
    :meth:`uninstall`.  :attr:`absent` lists layers whose targets are
    all gone.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: List[str] = []
        self._patcher = Patcher()
        self._last_batch = None

    # (layer, [(module, class, attr, kind, record, on_result factory)])
    def _table(self):
        t = self.tracer
        return [
            ("netsim", [
                ("repro.netsim.network", "CampusNetwork", "run_until",
                 "netsim.run", True, None),
                ("repro.netsim.network", "CampusNetwork", "run_for",
                 "netsim.run", True, None),
                ("repro.netsim.network", "CampusNetwork", "finish",
                 "netsim.run", True, None),
            ]),
            ("fluid", [
                ("repro.netsim.fluid", "FluidTrafficEngine", "run",
                 "fluid.run", True, None),
            ]),
            ("capture", [
                ("repro.capture.engine", "CaptureEngine", "ingest",
                 "capture.ingest", True, None),
                ("repro.capture.engine", "CaptureEngine", "ingest_columns",
                 "capture.ingest", True, None),
            ]),
            ("flows", [
                ("repro.capture.flows", "FlowAssembler", "add_packets",
                 "flows.assemble", True, None),
                ("repro.capture.flows", "FlowAssembler", "flush",
                 "flows.assemble", True,
                 lambda: _count_len(t, "flows.records")),
            ]),
            ("metadata", [
                ("repro.capture.metadata", "MetadataExtractor",
                 "extract_batch", "metadata.extract", True,
                 lambda: _count_len(t, "metadata.rows")),
                ("repro.capture.metadata", "MetadataExtractor",
                 "extract_columns", "metadata.extract", True,
                 lambda: _count_len(t, "metadata.rows")),
            ]),
            ("store", [
                (m, c, attr, "store.ingest", attr != "ingest_log",
                 lambda: _count_stored(t))
                for m, c in STORE_CLASSES
                for attr in ("ingest_packets", "ingest_flows", "ingest_log")
            ]),
            ("tiers", [
                ("repro.datastore.tiers", "StreamingIngestor", "__call__",
                 "tiers.offer", True, None),
                ("repro.datastore.tiers", "StreamingIngestor", "pump",
                 "tiers.pump", True, None),
                ("repro.datastore.tiers", "StreamingIngestor", "drain",
                 "tiers.drain", True, None),
                ("repro.datastore.tiers", "TieredDataStore",
                 "flush_to_cold", "tiers.flush_cold", True, None),
                ("repro.datastore.tiers", "Compactor", "step",
                 "tiers.compact", True, None),
                ("repro.datastore.tiers", "TieredDataStore", "__init__",
                 "tiers.reopen", True, None),
            ]),
            ("labels", [
                ("repro.datastore.labels", "Labeler", "label_all",
                 "labels.label", True, lambda: _record_labels(t)),
            ]),
            ("query", [
                (m, c, attr, "query.exec", True, None)
                for m, c in STORE_CLASSES for attr in QUERY_METHODS
            ]),
            ("features", [
                ("repro.learning.features", "SourceWindowFeaturizer",
                 "from_store", "features.build", True,
                 lambda: _count_len(t, "features.rows")),
            ]),
            ("devloop", [
                ("repro.core.devloop", "DevelopmentLoop", "develop",
                 "devloop.develop", True, lambda: _record_devloop(t)),
            ]),
            ("switch", [
                ("repro.deploy.switch", "EmulatedSwitch",
                 "_evaluate_window", "switch.infer", True,
                 lambda: _count_windows(t)),
            ]),
        ]

    def install(self) -> "Instrumentation":
        for layer, targets in self._table():
            wrapped = False
            for module, name, attr, kind, record, factory in targets:
                on_result = factory() if factory is not None else None
                wrapped |= self._patcher.replace(
                    find_class(module, name), attr,
                    lambda fn, k=kind, r=record, o=on_result:
                    timed(self.tracer, k, fn, r, o))
            if not wrapped:
                self.absent.append(layer)
        self._wrap_registrations()
        return self

    def uninstall(self) -> None:
        self._patcher.restore()

    # -- callbacks handed to the program ---------------------------------

    def _wrap_registrations(self) -> None:
        """Wrap each observer, subscriber and ingest transform as it is
        registered, so time inside callbacks is charged to the layer
        that owns them and subtracted from the caller."""
        patch = self._patcher.replace
        network = find_class("repro.netsim.network", "CampusNetwork")
        patch(network, "add_packet_observer",
              lambda add: self._registering(add, self._packet_observer))
        patch(network, "add_flow_observer",
              lambda add: self._registering(add, self._flow_observer))
        patch(find_class("repro.netsim.fluid", "FluidTrafficEngine"),
              "add_packet_observer",
              lambda add: self._registering(add, self._fluid_observer))
        patch(find_class("repro.capture.engine", "CaptureEngine"),
              "subscribe",
              lambda add: self._registering(add, self._subscriber))
        for module, name in STORE_CLASSES:
            patch(find_class(module, name), "add_ingest_transform",
                  lambda add: self._registering(add, self._transform))

    @staticmethod
    def _registering(add: Callable, wrap: Callable) -> Callable:
        @functools.wraps(add)
        def wrapper(obj, callback, *args, **kwargs):
            return add(obj, wrap(callback), *args, **kwargs)
        return wrapper

    def _netsim_batch(self, args, result) -> None:
        packets = args[0]
        if packets is not self._last_batch:     # one batch, many taps
            self._last_batch = packets
            self.tracer.count("netsim.flows")
            self.tracer.count("netsim.pkts", len(packets))

    def _count_sensed(self, args, result) -> None:
        self.tracer.count("switch.pkts_sensed", len(args[0]))

    def _packet_observer(self, observer: Callable) -> Callable:
        module = layer_of(observer)
        if module.startswith("repro.deploy"):
            kind, extra = "switch.sense", self._count_sensed
        elif module.startswith("repro.capture"):
            kind, extra = "capture.tap", None
        else:
            kind, extra = OTHER, None

        def on_result(args, result):
            self._netsim_batch(args, result)
            if extra is not None:
                extra(args, result)
        return timed(self.tracer, kind, observer, True, on_result)

    def _flow_observer(self, observer: Callable) -> Callable:
        kind = "capture.sensors" if layer_of(observer).startswith(
            "repro.capture") else OTHER
        return timed(self.tracer, kind, observer, record=False)

    def _fluid_observer(self, observer: Callable) -> Callable:
        t = self.tracer

        def on_result(args, result):
            t.count("fluid.batches")
            t.count("fluid.pkts", len(args[0]))
        return timed(t, OTHER, observer, True, on_result)

    def _subscriber(self, callback: Callable) -> Callable:
        if getattr(getattr(callback, "__func__", callback), MARK, None):
            return callback                 # its class method is wrapped
        module = layer_of(callback)
        if module.startswith("repro.capture.flows"):
            kind = "flows.assemble"
        elif module.startswith("repro.datastore.tiers"):
            kind = "tiers.offer"
        else:
            kind = OTHER
        return timed(self.tracer, kind, callback)

    def _transform(self, transform: Callable) -> Callable:
        if not layer_of(transform).startswith("repro.privacy"):
            return timed(self.tracer, OTHER, transform, record=False)
        t = self.tracer
        return timed(t, "privacy.transform", transform, record=False,
                     on_result=lambda args, result: t.count("privacy.rows"))
