"""Benchmark runner for the Catapult v2 simulator.

Usage, from the root of a checkout (no build step: the simulator runs
from ``src/``)::

    python3 perfbench/run.py --workload fig10_idle --seed 1 --seconds 10 \
        --trace 0

``--workload all`` runs every workload in turn in one process.  A run
repeats the workload's set-up and measured phase, in one thread, until
``--seconds`` have passed, and prints human-readable lines followed by
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are end to end:

* ``ops_per_s``: operations completed per host second of the measured
  phase, median over the batches;
* ``setup_s``: host seconds from the start of a fresh interpreter,
  imports included, to the first measured event; median of several
  fresh interpreters;
* ``peak_rss_mb``: peak resident memory of this process;
* ``op_p50_us`` / ``op_p99_us``: simulated latency of the workload's
  operations, which repeats exactly at a fixed seed.

With ``--trace 1`` untraced and cProfile-traced batches alternate, and
the metrics are per layer: each layer's share of profiled self time and
its call count, the layer counters read from the public stats objects,
and the ratio of traced to untraced host time.

Every batch rebuilds the workload at the same seed, so every batch must
reproduce the first one's digest, counters and (traced) call counts;
a run whose outputs fail a check or differ between batches reports
``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import array
import cProfile
import gc
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from layers import LAYERS, LayerProfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 7
#: Batches per run at the least, whatever ``--seconds`` says.
MIN_BATCHES = 3
MIN_TRACED_BATCHES = 4

#: Layer expected to lead host self time on each workload.
PREDICTED_LEAD = {"fig10_idle": "net", "ltl_incast": "router",
                  "accel_ranking": "sim", "accel_dnn": "sim"}
#: Counters read after each batch; a workload without the layer reads 0.
COUNTERS = (
    ("sim.events", "count"),
    ("net.forwarded", "count"), ("net.drops", "count"),
    ("net.pfc_pauses", "count"), ("net.ecn_marks", "count"),
    ("router.cycles", "cycles"), ("router.flits", "count"),
    ("router.stall_cycles", "cycles"),
    ("ltl.frames_sent", "count"), ("ltl.retransmissions", "count"),
    ("ltl.timeouts", "count"), ("ltl.duplicates_dropped", "count"),
    ("ltl.useful_frac", "ratio"),
    ("ranking.degraded", "count"), ("ranking.shed", "count"),
    ("overload.deadline_drops", "count"),
)

#: Work in one calibration: iterations of the object/heap loop, steps
#: of the random walk and the size of the array it walks (16 MiB, larger
#: than the private caches, so the walk feels contention for the shared
#: cache and memory as the simulator's object graph does).
CAL_ITERATIONS = 5_000
CAL_STEPS = 20_000
CAL_WORDS = 1 << 22
#: Time of one calibration on the reference host (2 vCPUs at 2.0 GHz,
#: Python 3.11.7, uncontended).
CAL_REF_S = 0.0075


class _CalItem:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value

    def bump(self, delta: int) -> int:
        self.value += delta
        return self.value


class Calibrator:
    """A fixed pure-Python loop of object allocation, method calls, dict
    stores and heap operations, then a random walk over a large array:
    the kinds of work the simulator's hot paths do, in code that no
    change to the simulator can speed up or slow down."""

    def __init__(self) -> None:
        self._words = array.array("I", [1]) * CAL_WORDS

    def __call__(self) -> float:
        """Host seconds for one calibration."""
        heap: list = []
        table: dict = {}
        out: list = []
        words, mask, index, total = self._words, CAL_WORDS - 1, 0, 0
        start = time.perf_counter()
        for i in range(CAL_ITERATIONS):
            item = _CalItem(i % 97, i)
            heapq.heappush(heap, (i * 7919 % 1000, i, item))
            table[item.key] = item.bump(1)
            if len(heap) > 64:
                out.append(heapq.heappop(heap)[2].value)
        for _ in range(CAL_STEPS):
            index = (index * 1103515245 + 12345) & mask
            total += words[index]
        return time.perf_counter() - start


class SegmentClock:
    """Times a measured phase in segments, the ``tick`` calls of a
    workload, and runs the calibration between segments (outside the
    timed segments).  Each segment's host time is scaled by the reference
    calibration time over the mean of the two calibrations that bracket
    it, so the sum reads in reference-host seconds: a host that slows
    down for a while, because other tenants load it, slows the
    calibration alike and leaves the sum unchanged."""

    def __init__(self, calibrate: Calibrator) -> None:
        self.raw_s = 0.0
        self.norm_s = 0.0
        self._calibrate = calibrate
        self._cal = calibrate()
        self._start = time.perf_counter()

    def tick(self) -> None:
        segment = time.perf_counter() - self._start
        cal = self._calibrate()
        self.raw_s += segment
        self.norm_s += segment * CAL_REF_S / ((self._cal + cal) / 2)
        self._cal = cal
        self._start = time.perf_counter()


PROBE_CODE = """\
import sys, time
sys.path[:0] = {paths!r}
import workloads
workloads.WORKLOADS[{name!r}]({seed!r})
print(time.monotonic())
"""


def load_workloads():
    """Import the workloads against this checkout's ``src/repro``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"error: no simulator sources at {SRC}/repro; run from "
                 "the root of a checkout of the repository")
    sys.path[:0] = [SRC, HERE]
    import repro
    import workloads
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported repro from {repro.__file__}, "
                 f"not from {SRC}")
    return workloads


@dataclass
class Batch:
    #: Host seconds of the measured phase, and the same in reference-host
    #: seconds (untimed runs only).
    measure_s: float
    norm_s: Optional[float]
    outcome: object
    profile: Optional[object] = None


def probe_setup(name: str, seed: int,
                calibrate: Calibrator) -> Tuple[float, float]:
    """Seconds from spawning a fresh interpreter until it has imported
    the simulator and built the workload, ready for its first event: as
    measured, and in reference-host seconds (scaled by the calibration
    loop run just before and just after)."""
    code = PROBE_CODE.format(paths=[SRC, HERE], name=name, seed=seed)
    cal = calibrate()
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    raw = float(done.stdout.split()[-1]) - start
    return raw, raw * CAL_REF_S / ((cal + calibrate()) / 2)


def run_batches(build, seed: int, seconds: float, traced: bool,
                calibrate: Calibrator) -> List[Batch]:
    """Build and measure repeatedly until ``seconds`` have passed.

    When ``traced``, every second batch runs under cProfile, so traced
    and untraced batches interleave and the first, cold batch is not
    profiled; traced runs time whole phases and do not calibrate.
    """
    least = MIN_TRACED_BATCHES if traced else MIN_BATCHES
    deadline = time.monotonic() + seconds
    batches: List[Batch] = []
    while len(batches) < least or time.monotonic() < deadline:
        profiled = traced and len(batches) % 2 == 1
        gc.collect()
        measure = build(seed)
        if not traced:
            clock = SegmentClock(calibrate)
            outcome = measure(clock.tick)
            batches.append(Batch(clock.raw_s, clock.norm_s, outcome))
            continue
        profile = cProfile.Profile() if profiled else None
        start = time.perf_counter()
        if profile is not None:
            profile.enable()
        outcome = measure(lambda: None)
        if profile is not None:
            profile.disable()
        elapsed = time.perf_counter() - start
        batches.append(Batch(elapsed, None, outcome,
                             LayerProfile(profile) if profiled else None))
    return batches


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.6g}..{q3:.6g}"


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def run_workload(W, name: str, seed: int, seconds: float,
                 trace: bool) -> Dict[str, object]:
    calibrate = Calibrator()
    setups = [] if trace else [probe_setup(name, seed, calibrate)
                               for _ in range(SETUP_PROBES)]
    batches = run_batches(W.WORKLOADS[name], seed, seconds, trace,
                          calibrate)
    first = batches[0].outcome
    print(f"== workload {name}  seed {seed}  batches {len(batches)}  "
          f"measured {sum(b.measure_s for b in batches):.2f} s")
    print(f"digest sha256:{first.digest}")

    checks = dict(first.checks)
    checks["batches_repeat_digest_and_counters"] = all(
        b.outcome.digest == first.digest
        and b.outcome.counters == first.counters for b in batches)
    for b in batches:
        for key, ok in b.outcome.checks.items():
            checks[key] = checks[key] and ok
    profiles = [b.profile for b in batches if b.profile is not None]
    if profiles:
        checks["traced_batches_repeat_calls"] = all(
            p.calls == profiles[0].calls for p in profiles)
    for key, ok in checks.items():
        print(f"check {key}: {'pass' if ok else 'FAIL'}")

    lat = first.latencies_us
    for q in (50, 99):
        print(f"sim {first.op_name}_p{q}_us = "
              f"{W.percentile(lat, q):.6g} us (n={len(lat)})")
    for key, (value, unit) in first.extra.items():
        print(f"sim {key} = {value:.6g} {unit}")
    print(f"ops attempted {first.attempted}  failed {first.failed}  "
          f"failed_frac {first.failed / first.attempted:.6g}")

    if trace:
        metrics = trace_metrics(name, batches, profiles, first)
    else:
        rates = [b.outcome.ops / b.norm_s for b in batches]
        raw = [b.outcome.ops / b.measure_s for b in batches]
        metrics = {
            "ops_per_s": metric(statistics.median(rates), "1/s"),
            "setup_s": metric(statistics.median(s for _r, s in setups),
                              "s"),
            "peak_rss_mb": metric(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "op_p50_us": metric(W.percentile(lat, 50), "us"),
            "op_p99_us": metric(W.percentile(lat, 99), "us"),
        }
        print(f"ops_per_s quartiles {quartiles(rates)}; raw (unnormalized)"
              f" ops_per_s median {statistics.median(raw):.6g}, quartiles "
              f"{quartiles(raw)}; raw setup_s median "
              f"{statistics.median(r for r, _s in setups):.6g}")
    for key, m in metrics.items():
        print(f"metric {key} = {m['value']:.6g} {m['unit']}")
    return {"correct": all(checks.values()),
            "attempted": sum(b.outcome.attempted for b in batches),
            "failed": sum(b.outcome.failed for b in batches),
            "metrics": metrics}


def trace_metrics(name, batches, profiles, first):
    untraced = [b.measure_s for b in batches if b.profile is None]
    traced = [b.measure_s for b in batches if b.profile is not None]
    total = sum(sum(p.self_s.values()) for p in profiles)
    metrics = {}
    print(f"{'layer':<10}{'self_s':>10}{'share':>8}{'calls':>12}")
    for layer in LAYERS:
        self_s = statistics.median(p.self_s[layer] for p in profiles)
        share = 100 * sum(p.self_s[layer] for p in profiles) / total
        calls = profiles[0].calls[layer]
        print(f"{layer:<10}{self_s:>10.4f}{share:>7.1f}%{calls:>12}")
        metrics[f"{layer}.self_pct"] = metric(share, "%")
        metrics[f"{layer}.calls"] = metric(calls, "count")
    lead = max(LAYERS, key=lambda l: metrics[f"{l}.self_pct"]["value"])
    predicted = PREDICTED_LEAD[name]
    print(f"leading layer {lead} (predicted {predicted}): "
          f"{'confirmed' if lead == predicted else 'differs'}")
    edges = sorted(profiles[0].edges.items(), key=lambda kv: -kv[1])
    for (caller, callee), calls in edges[:12]:
        print(f"edge {caller} -> {callee}: {calls} calls")
    for key, unit in COUNTERS:
        metrics[key] = metric(first.counters.get(key, 0), unit)
    overhead = statistics.median(traced) / statistics.median(untraced)
    metrics["profiler.overhead"] = metric(overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    W = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(W.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(W, n, args.seed, args.seconds,
                               bool(args.trace)) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
