"""The benchmark's three workloads.

Each workload is driven only through the entry points users call:
``CampusPlatform``, ``DevelopmentLoop``, ``ControlLoopHarness``,
``repro.cli.main`` and the store's query methods.  All run in one
process with the platform's default ``workers=0`` (serial).

A workload has an untimed :meth:`setup`, an untimed per-iteration
:meth:`prepare`, and :meth:`iterate`, which times its own phases
inside ``with self.phase():`` — a no-op in measured runs and the
tracer's root frame in traced ones.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

from perfbench import querymix
from perfbench.stats import Ledger, percentile, tail_percentile

clock = time.perf_counter

PROFILE = "small"
DAY_S = 120.0
#: the campus site (topology, user population, background traffic) is
#: fixed; --seed drives the day's events, training and the query mix.
SITE_SEED = 0
POSITIVE = "ddos-dns-amp"


class WorkloadError(Exception):
    """A hard output check failed; the run exits non-zero."""


def capture_ledger(ledger: Ledger, stats, stored: int,
                   stored_name: str) -> None:
    """Capture conservation: every offered packet is captured or
    dropped for capacity; every captured packet is stored or refused
    by the ingest queue."""
    ledger.set("capture.offered", stats.packets_offered)
    ledger.set("capture.captured", stats.packets_captured)
    ledger.set("capture.dropped.capacity", stats.packets_dropped)
    ledger.set("capture.dropped.backpressure",
               stats.packets_backpressure_dropped)
    ledger.set("capture.dropped.fault", stats.packets_fault_dropped)
    ledger.set(stored_name, stored)
    ledger.require("capture", "capture.offered", "capture.captured",
                   "capture.dropped.capacity")
    ledger.require("delivery", "capture.captured", stored_name,
                   "capture.dropped.backpressure")


#: per-layer count -> the ledger counter it is read from
CAPTURE_COUNTS = {
    "capture.pkts_offered": "capture.offered",
    "capture.pkts_dropped.capacity": "capture.dropped.capacity",
    "capture.pkts_dropped.backpressure": "capture.dropped.backpressure",
    "capture.pkts_dropped.fault": "capture.dropped.fault",
}


def ledger_counts(iterations: List[Dict],
                  names: Dict[str, str]) -> Dict[str, float]:
    """Sums of ledger counters over iterations, under per-layer names."""
    return {metric: sum(it["ledger"].counters[counter]
                        for it in iterations)
            for metric, counter in names.items()}


def med(iterations: List[Dict], key: str) -> float:
    """The median over iterations of one per-iteration time."""
    return statistics.median(it[key] for it in iterations)


def med_rate(iterations: List[Dict], count: str, seconds: str) -> float:
    """The median over iterations of ``count / seconds``."""
    return statistics.median(it[count] / it[seconds] for it in iterations)


class Workload:
    name = ""
    why = ""
    #: program modules set-up imports, so that no timed iteration pays
    #: for a lazy import
    modules: tuple = ()
    #: iterations every run makes, however short --seconds is
    min_iterations = 1

    def __init__(self, seed: int, probes, work_dir: Path):
        self.seed = seed
        self.probes = probes
        #: a directory of the checkout the workload may write to
        self.work_dir = work_dir
        self.phase = contextlib.nullcontext

    def setup(self) -> None:
        """Untimed set-up shared by every iteration (after imports)."""

    def prepare(self):
        """Untimed per-iteration set-up; returns iterate's argument."""
        return None

    def release(self, state) -> None:
        """Let go of a prepared argument that no iteration will use."""

    def iterate(self, state) -> Dict:
        raise NotImplementedError

    def report(self, iterations: List[Dict]) -> Dict[str, float]:
        raise NotImplementedError

    def details(self, iterations: List[Dict]) -> Dict:
        """Extra per-run facts for the record line."""
        return {}

    def verify(self) -> List[str]:
        """Output checks run once, after the measured phases."""
        return []

    def layer_counts(self, traced: List[Dict]) -> Dict[str, float]:
        """Per-layer counts read from public counters after a traced
        phase (the tracer supplies the rest)."""
        return {}

    def close(self) -> None:
        """Release what setup made."""


# -- campus-day --------------------------------------------------------------


class CampusDay(Workload):
    name = "campus-day"
    why = ("the pipeline day: collect, dataset, dev loop and fast loop on "
           "the per-record path")
    modules = ("repro.core", "repro.core.controlloop",
               "repro.events.library")

    def prepare(self):
        from repro.core import CampusPlatform, PlatformConfig
        return CampusPlatform(PlatformConfig(campus_profile=PROFILE,
                                             seed=SITE_SEED))

    def release(self, platform) -> None:
        platform.close()

    def iterate(self, platform) -> Dict:
        from repro.core import DevelopmentLoop
        from repro.core.controlloop import ControlLoopHarness
        from repro.events.library import ddos_day

        with self.phase():
            t0 = clock()
            platform.collect(ddos_day(DAY_S), seed=self.seed)
            t1 = clock()
            dataset = platform.build_dataset()
            counts = dataset.class_counts()
            positives = counts.get(POSITIVE, 0)
            if positives == 0 or positives == len(dataset):
                raise WorkloadError(f"dataset lacks a class: {counts}")
            loop = DevelopmentLoop(teacher_name="forest",
                                   student_max_depth=4)
            tool, dev = loop.develop(dataset.binarize(POSITIVE),
                                     tool_name="amp-detector",
                                     seed=self.seed)
            t2 = clock()
            harness = ControlLoopHarness(
                tool, lambda seed: ddos_day(DAY_S),
                lambda seed: platform.fresh_network(SITE_SEED + 1))
            fast = harness.run(seed=self.seed)
            t3 = clock()
        if dev.verification is None or not dev.verification.ok:
            raise WorkloadError("dev loop failed verification")
        if not dev.resource_fit.fits:
            raise WorkloadError("compiled tool does not fit the switch")
        if fast.detections == 0:
            raise WorkloadError("fast loop made no detections on a ddos day")
        switches = self.probes.take("EmulatedSwitch")
        if len(switches) != 1:
            raise WorkloadError(f"expected one switch, saw {len(switches)}")
        sensed = switches[0].packets_processed

        stats = platform.capture.stats
        stored = platform.store.count("packets")
        ledger = Ledger()
        capture_ledger(ledger, stats, stored, "store.packets")
        ledger.set("store.flows", platform.store.count("flows"))
        ledger.set("dataset.rows", len(dataset))
        ledger.set("switch.pkts_sensed", sensed)
        ledger.set("switch.detections", fast.detections)
        self.probes.take("CaptureEngine")
        platform.close()
        return {
            "run_s": t3 - t0,
            "collect_s": t1 - t0,
            "devloop_s": t2 - t1,
            "fastloop_s": t3 - t2,
            "stored": stored,
            "sensed": sensed,
            "attempted": stats.packets_offered,
            "failed": stats.packets_offered - stored,
            "ledger": ledger,
        }

    def report(self, iterations: List[Dict]) -> Dict[str, float]:
        return {
            "run_s": med(iterations, "run_s"),
            "collect_s": med(iterations, "collect_s"),
            "devloop_s": med(iterations, "devloop_s"),
            "ingest_pkts_per_s": med_rate(iterations, "stored", "collect_s"),
            "fastloop_pkts_per_s": med_rate(iterations, "sensed",
                                            "fastloop_s"),
        }

    def layer_counts(self, traced: List[Dict]) -> Dict[str, float]:
        return ledger_counts(traced, {**CAPTURE_COUNTS,
                                      "switch.detections":
                                      "switch.detections"})


# -- fluid-ingest ------------------------------------------------------------


def run_cli(argv: List[str]):
    """``repro.cli.main(argv)`` with its standard output captured."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class FluidIngest(Workload):
    name = "fluid-ingest"
    why = ("the datastore write side: fluid tap batches through queue, "
           "tiers and cold spill; no discrete engine, flows or switch")
    USERS = 100_000
    DURATION_S = 60.0

    #: the CLI and everything `repro ingest --fluid` imports lazily
    modules = ("repro.cli", "repro.capture.engine", "repro.capture.metadata",
               "repro.datastore.tiers", "repro.events", "repro.netsim.campus",
               "repro.privacy")

    def prepare(self):
        # a cold set-up in another process may have removed work_dir
        self.work_dir.mkdir(parents=True, exist_ok=True)
        return tempfile.mkdtemp(prefix="spill-", dir=self.work_dir)

    def release(self, spill: str) -> None:
        shutil.rmtree(spill, ignore_errors=True)

    def argv(self, spill: str) -> List[str]:
        return ["ingest", "--fluid", "--profile", PROFILE,
                "--users", str(self.USERS),
                "--duration", str(self.DURATION_S),
                "--attack", "dns-amp", "--tap-sample", "0.1",
                "--privacy", "prefix", "--spill", spill, "--flush-cold",
                "--seed", str(self.seed), "--json"]

    def iterate(self, spill: str) -> Dict:
        try:
            with self.phase():
                t0 = clock()
                code, out = run_cli(self.argv(spill))
                t1 = clock()
                reopen_code, reopen_out = run_cli(
                    ["ingest", "--summary-only", "--spill", spill,
                     "--json"])
                t2 = clock()
        finally:
            shutil.rmtree(spill, ignore_errors=True)
        if code != 0 or reopen_code != 0:
            raise WorkloadError(f"repro ingest exited {code}, reopen "
                                f"exited {reopen_code}")
        summary = json.loads(out)
        reopened = json.loads(reopen_out)
        engines = self.probes.take("CaptureEngine")
        if len(engines) != 1:
            raise WorkloadError(f"expected one capture engine, saw "
                                f"{len(engines)}")
        stats = engines[0].stats
        cold = reopened["cold"]["records"]
        ledger = Ledger()
        capture_ledger(ledger, stats, summary["queue_accepted"],
                       "queue.accepted")
        ledger.set("cli.captured", summary["captured"])
        ledger.set("queue.rejected", summary["queue_rejected"])
        ledger.set("cli.backpressure_dropped",
                   summary["backpressure_dropped"])
        ledger.set("cold.records", cold)
        ledger.set("cold.bytes", reopened["cold"]["bytes"])
        ledger.require("cli-capture", "cli.captured", "capture.captured")
        ledger.require("queue", "capture.captured", "queue.accepted",
                       "queue.rejected")
        ledger.require("refusals", "queue.rejected",
                       "capture.dropped.backpressure")
        ledger.require("cold", "cold.records", "queue.accepted")
        return {
            "run_s": t2 - t0,
            "collect_s": t1 - t0,
            "reopen_s": t2 - t1,
            "stored": cold,
            "attempted": stats.packets_offered,
            "failed": stats.packets_offered - cold,
            "ledger": ledger,
        }

    def report(self, iterations: List[Dict]) -> Dict[str, float]:
        return {
            "run_s": med(iterations, "run_s"),
            "collect_s": med(iterations, "collect_s"),
            "reopen_s": med(iterations, "reopen_s"),
            "ingest_pkts_per_s": med_rate(iterations, "stored", "collect_s"),
        }

    def layer_counts(self, traced: List[Dict]) -> Dict[str, float]:
        return ledger_counts(traced, {**CAPTURE_COUNTS,
                                      "tiers.queue_rejected":
                                      "queue.rejected",
                                      "tiers.cold_bytes": "cold.bytes"})

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.work_dir.rmdir()


# -- store-query -------------------------------------------------------------


class StoreQuery(Workload):
    name = "store-query"
    why = ("the datastore read side: a seeded closed-loop query mix over a "
           "collected security day")
    #: 5 rounds x 40 queries = 200 samples: ten lie beyond the p95
    min_iterations = 5

    modules = ("repro.core", "repro.events.library", "repro.datastore")

    def setup(self) -> None:
        self._fill()
        self.day_start, day_end = self.platform.store.time_span("packets")
        self.round = querymix.query_round(self.seed,
                                          day_end - self.day_start)
        self.answers: Dict = defaultdict(set)

    def _fill(self) -> None:
        """Collect the seeded security day and build planner stats."""
        from repro.core import CampusPlatform, PlatformConfig
        from repro.events.library import security_day

        self.platform = CampusPlatform(PlatformConfig(
            campus_profile=PROFILE, seed=SITE_SEED))
        start = clock()
        self.platform.collect(security_day(DAY_S), seed=self.seed)
        self.collect_s = clock() - start
        store = self.platform.store
        store.build_stats()
        self.stored = store.count("packets")
        self.ledger = Ledger()
        capture_ledger(self.ledger, self.platform.capture.stats,
                       self.stored, "store.packets")

    def prepare(self):
        """Every iteration runs the same round."""
        return self.round

    def iterate(self, specs) -> Dict:
        """One round; only the queries themselves are timed (and, in a
        traced run, each is a root frame of its own)."""
        latencies = []
        errors = []
        rows = sketch = aggregates = 0
        for spec in specs:
            if spec.cls in querymix.SLOW:
                # a slow query starts from a clean collector, so the
                # garbage of earlier queries is not charged to it
                gc.collect()
            try:
                with self.phase():
                    start = clock()
                    answer = querymix.issue(spec, self.platform,
                                            self.day_start)
                    latency = clock() - start
            except Exception as exc:          # counted, run continues
                errors.append(f"{spec}: {exc!r}")
                continue
            latencies.append((spec.cls, latency))
            # the client reads the answer and lets it go
            self.answers[spec].add(querymix.digest(spec, answer))
            rows += querymix.rows_of(spec, answer)
            if spec.cls in querymix.AGGREGATE_CLASSES:
                aggregates += 1
                sketch += answer.source != "exact"
            del answer
        return {
            "run_s": sum(latency for _, latency in latencies),
            "latencies": latencies,
            "rows": rows,
            "sketch": sketch,
            "aggregates": aggregates,
            "attempted": len(specs),
            "failed": len(errors),
            "errors": errors,
            "ledger": self.ledger,
        }

    def report(self, iterations: List[Dict]) -> Dict[str, float]:
        latencies = [lat for it in iterations for _, lat in it["latencies"]]
        tail = tail_percentile(len(latencies))
        busy = sum(it["run_s"] for it in iterations)
        out = {
            "run_s": med(iterations, "run_s"),
            "collect_s": self.collect_s,
            "ingest_pkts_per_s": self.stored / self.collect_s,
            "query_p50_ms": percentile(latencies, 50) * 1e3,
            "query_p95_ms": percentile(latencies, 95) * 1e3,
            "query_samples": len(latencies),
            "query_qps": len(latencies) / busy,
        }
        if tail is not None:
            out["query_tail_pct"] = tail
            out["query_tail_ms"] = percentile(latencies, tail) * 1e3
        return out

    def verify(self) -> List[str]:
        """Every answer seen against the reference executor."""
        return querymix.verify(self.platform, self.day_start, self.answers)

    @staticmethod
    def class_p50_ms(iterations: List[Dict]) -> Dict[str, float]:
        """Median latency of each query class, in milliseconds."""
        by_class = defaultdict(list)
        for it in iterations:
            for cls, latency in it["latencies"]:
                by_class[cls].append(latency)
        return {cls: percentile(lats, 50) * 1e3
                for cls, lats in by_class.items()}

    def details(self, iterations: List[Dict]) -> Dict:
        return {"query_class_p50_ms": self.class_p50_ms(iterations)}

    def layer_counts(self, traced: List[Dict]) -> Dict[str, float]:
        out = {f"query.{cls}_ms": ms
               for cls, ms in self.class_p50_ms(traced).items()}
        out["query.rows"] = sum(it["rows"] for it in traced)
        aggregates = sum(it["aggregates"] for it in traced)
        if aggregates:
            out["query.sketch_answer_frac"] = \
                sum(it["sketch"] for it in traced) / aggregates
        pruned = total = 0
        for spec in self.round:
            query = querymix.make_query(spec, self.day_start)
            if query is not None:
                plan = self.platform.store.plan(query)
                pruned += sum(plan.pruned.values())
                total += len(plan.segment_plans)
        if total:
            out["query.segments_pruned_frac"] = pruned / total
        return out

    def close(self) -> None:
        if getattr(self, "platform", None) is not None:
            self.platform.close()


WORKLOADS = {cls.name: cls for cls in (CampusDay, FluidIngest, StoreQuery)}
