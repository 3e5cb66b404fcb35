"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campus-day --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from
``src/``.  The output is a table of every metric with its unit and
direction, one ``record`` JSON line (machine fingerprint, calibration,
ledgers, sample counts, problems found), and, as the last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics every
workload reports; with ``--trace 1`` each measured iteration is
followed by the same iteration under class-level span wrappers, and
the metrics are the per-layer ones.  The exit code is 0 when every output check
passed, 1 when one failed, 2 on a usage error or a missing program.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: iterations of the pure-Python calibration loop
CALIBRATION_LOOPS = 2_000_000
#: setup_s is the median of up to this many cold set-ups (this
#: process's and fresh interpreters', taken between iterations) ...
SETUP_SAMPLES = 5
#: ... until they add up to this many seconds: one short set-up reads
#: the host's speed at a single moment, and on a shared host that speed
#: changes in episodes of seconds
SETUP_SAMPLE_S = 3.0
clock = time.perf_counter


def calibrate(loops: int = CALIBRATION_LOOPS) -> float:
    """Seconds for a fixed pure-Python loop: host speed right now."""
    start = clock()
    total = 0
    for i in range(loops):
        total += i
    return clock() - start


def fingerprint(seed: int) -> dict:
    """Where and on what these numbers were measured."""
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    revision = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "revision": revision,
        "seed": seed,
    }


def set_up(workload):
    """Everything before a workload's first timed call; returns the
    first iteration's argument."""
    for name in workload.modules:
        importlib.import_module(name)
    workload.probes.install()
    workload.setup()
    state = workload.prepare()
    gc.collect()
    return state


def cold_setup(workload) -> float:
    """Seconds a fresh interpreter takes from its start to the
    workload's first timed call (``perfbench/coldsetup.py``)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "coldsetup.py"),
         workload.name, str(workload.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Measured:
    iterations: list
    report: dict
    phase: dict
    traced: list = field(default_factory=list)
    layers: Optional[dict] = None
    tracer: object = None
    absent: list = field(default_factory=list)


def measure(workload, seconds: float, trace: bool, setup_base: float,
            per_layer: dict) -> Measured:
    """Set up and run the measured iterations; when tracing, follow
    each with the same iteration traced, on the same inputs."""
    from perfbench.metrics import KIND_METRIC, UNATTRIBUTED
    from perfbench.tracing import Instrumentation, Tracer

    state = set_up(workload)
    first_call = clock()
    # process start to the first timed call, less the calibration loop
    setups = [first_call - setup_base]
    paused = {"wall": 0.0, "cpu": 0.0}

    def aside(fn):
        """``fn()``, kept out of the measured phase's wall and CPU time."""
        wall, cpu = clock(), time.process_time()
        try:
            return fn()
        finally:
            paused["wall"] += clock() - wall
            paused["cpu"] += time.process_time() - cpu

    def sample_setup():
        """One more cold set-up, if setup_s still wants one."""
        if len(setups) < SETUP_SAMPLES and sum(setups) < SETUP_SAMPLE_S:
            setups.append(aside(lambda: cold_setup(workload)))

    tracer = Tracer()
    traced, absent = [], []

    def traced_iteration():
        """The iteration again, under class-level wrappers installed
        before the workload prepares its argument."""
        instrumentation = Instrumentation(tracer).install()
        workload.phase = tracer.root
        try:
            traced_state = workload.prepare()
            gc.collect()
            traced.append(workload.iterate(traced_state))
        finally:
            instrumentation.uninstall()
            workload.phase = contextlib.nullcontext
        absent[:] = instrumentation.absent

    cpu_start = time.process_time()
    iterations = []
    while True:
        iterations.append(workload.iterate(state))
        if trace:
            # alternating, so that a change in the host's speed does not
            # land on one side of trace.overhead_frac only
            aside(traced_iteration)
        if (len(iterations) >= workload.min_iterations
                and clock() - first_call - paused["wall"] >= seconds):
            break
        sample_setup()
        state = workload.prepare()
        # the last iteration's garbage is not charged to the next one
        gc.collect()
    wall_s = clock() - first_call - paused["wall"]
    cpu_s = time.process_time() - cpu_start - paused["cpu"]
    for _ in range(SETUP_SAMPLES):
        sample_setup()
    phase = {"wall_s": wall_s, "cpu_s": cpu_s,
             "iterations": len(iterations),
             "iterations_s": [{key: value for key, value in it.items()
                               if key.endswith("_s")}
                              for it in iterations],
             "setups_s": setups}
    report = workload.report(iterations)
    report["setup_s"] = statistics.median(setups)
    out = Measured(iterations, report, phase)
    if not trace:
        return out

    layers = dict.fromkeys(per_layer, 0.0)
    for kind, self_s in tracer.self_s.items():
        layers[KIND_METRIC.get(kind, UNATTRIBUTED)] += self_s
    for name, value in {**tracer.counts, **tracer.values}.items():
        if name in layers:
            layers[name] = value
    layers.update(workload.layer_counts(traced))
    layers["trace.run_s"] = tracer.root_seconds()
    layers["trace.overhead_frac"] = (
        statistics.median(it["run_s"] for it in traced)
        / statistics.median(it["run_s"] for it in iterations))
    out.traced, out.layers, out.tracer, out.absent = \
        traced, layers, tracer, absent
    return out


def check(workload, measured: Measured) -> list:
    """Every output check that does not stop the run on its own."""
    from perfbench.metrics import SELF_TIME

    iterations, traced = measured.iterations, measured.traced
    layers = measured.layers
    problems = []
    for it in iterations + traced:
        for violation in it["ledger"].violations():
            if violation not in problems:
                problems.append(violation)
        problems.extend(it.get("errors", ()))
    first = iterations[0]["ledger"].counters
    for index, it in enumerate(iterations + traced):
        if it["ledger"].counters != first:
            which = ("traced" if index >= len(iterations) else "measured")
            problems.append(f"{which} iteration {index} ledger differs "
                            f"from the first: {it['ledger'].counters}")
    problems.extend(workload.verify())
    if layers is not None:
        total = sum(layers[name] for name in SELF_TIME)
        if abs(total - layers["trace.run_s"]) > 1e-6 * max(
                1.0, layers["trace.run_s"]):
            problems.append(f"layer self times sum to {total}, traced "
                            f"run_s is {layers['trace.run_s']}")
    return problems


def print_table(workload, report: dict, layers, end_to_end: dict,
                per_layer: dict) -> None:
    from perfbench.metrics import REPORTED

    print(f"{workload.name}: {workload.why}")
    units = {name: spec[:2] for name, spec in end_to_end.items()}
    units.update(REPORTED)
    for name, value in report.items():
        unit, better = units.get(name, ("?", "?"))
        gate = " (gated)" if name in end_to_end else ""
        print(f"  {name:<24} {value:>16.6g} {unit:<6} "
              f"{better} is better{gate}")
    if layers is not None:
        print("per-layer (traced run):")
        for name, value in layers.items():
            unit, better = per_layer[name]
            print(f"  {name:<34} {value:>16.6g} {unit:<6} "
                  f"{better} is better")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.metrics import load_spec
    from perfbench.tracing import Probes
    from perfbench.workloads import WORKLOADS, WorkloadError

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_spec()
    calibration_s = calibrate()
    setup_base = STARTED + calibration_s
    probes = Probes()
    workload = WORKLOADS[args.workload](args.seed, probes,
                                        ROOT / ".perfbench_tmp")

    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "calibration_s": calibration_s}
    result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    code = 1
    try:
        measured = measure(workload, args.seconds, bool(args.trace),
                           setup_base, per_layer)
        report, layers = measured.report, measured.layers
        report["peak_rss_mb"] = peak_rss_mb()
        problems = check(workload, measured)
        ran = measured.iterations + measured.traced
        attempted = sum(it["attempted"] for it in ran)
        failed = sum(it["failed"] for it in ran)
        report["fail_frac"] = failed / attempted if attempted else 0.0
        record.update(workload.details(measured.iterations))
        record.update(phase=measured.phase, report=report,
                      problems=problems,
                      ledger=measured.iterations[0]["ledger"].counters)
        if measured.tracer is not None:
            record.update(absent_layers=measured.absent,
                          spans=len(measured.tracer.spans),
                          calls=dict(measured.tracer.calls),
                          traced_report=workload.report(measured.traced))
        print_table(workload, report, layers, end_to_end, per_layer)
        if args.trace:
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, (unit, _) in per_layer.items()}
        else:
            metrics = {name: {"value": report[name], "unit": spec[0]}
                       for name, spec in end_to_end.items()}
        result = {"correct": not problems, "attempted": max(attempted, 1),
                  "failed": failed, "metrics": metrics}
        code = 0 if not problems else 1
    except WorkloadError as exc:
        record["problems"] = [f"check failed: {exc}"]
    except Exception:                   # report, then exit non-zero
        record["problems"] = [traceback.format_exc(limit=4)]
        traceback.print_exc()
    finally:
        workload.close()
        probes.uninstall()
    record["fingerprint"] = fingerprint(args.seed)
    for problem in record.get("problems", ()):
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}, default=str))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
