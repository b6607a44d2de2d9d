"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stream-cm5 --seed 1 --seconds 30 --trace 0

Run it from the repository root; the runtime is imported from ``src/``.
``--trace 0`` reports the end-to-end metrics of an untraced run and
``--trace 1`` the per-layer metrics of a traced run (``METRICS.md``
defines them all).  ``--workload all`` runs every workload, each in its
own process.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 1 when an output was wrong or an op failed, and 2 when the
runtime cannot be imported.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

try:
    import repro.runtime  # noqa: F401  (fails without the sources)
except ImportError as exc:
    IMPORT_ERROR: Optional[ImportError] = exc
    WORKLOADS: Dict[str, type] = {}
else:
    IMPORT_ERROR = None
    from perfbench import clock, refspeed
    from perfbench.layers import PER_LAYER, per_layer, quantile
    from perfbench.spans import SpanRecorder, instrument
    from perfbench.workloads import PEERS, WORKLOADS, Workload

#: Name and unit of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("throughput_ops_per_s", "1/s"),
    ("goodput_words_per_s", "words/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
]
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 51
#: Load runs this long before the timed window opens.
WARMUP_S = 1.0
#: Counters are read this often inside the timed window.
BLOCK_S = 1.0
#: Reference-kernel timings per block.
SPEED_SAMPLES = 5
OUT_DIR = BENCH_DIR / "out"


class Mark:
    """Progress and clocks at the end of one block of the timed window,
    with the machine's slowdown over that block."""

    __slots__ = ("wall_ns", "cpu_ns", "ops", "words", "samples",
                 "slowdown")

    def __init__(self, wl: "Workload", slowdown: float = 1.0) -> None:
        self.wall_ns = time.perf_counter_ns() - wl.paused_wall_ns
        self.cpu_ns = time.process_time_ns() - wl.paused_cpu_ns
        self.ops = wl.progress.completed
        self.words = wl.progress.words
        self.samples = len(wl.progress.latency)
        self.slowdown = slowdown


async def timed_window(wl: "Workload", seconds: float) -> List[Mark]:
    """Let the load run for ``seconds``: one mark per block, and the
    reference kernel timed :data:`SPEED_SAMPLES` times per block."""
    marks = [Mark(wl)]
    start = time.perf_counter_ns()
    blocks = max(1, round(seconds / BLOCK_S))
    ticks = blocks * SPEED_SAMPLES
    slowdowns: List[float] = []
    for tick in range(1, ticks + 1):
        due = start + int(tick * seconds / ticks * 1e9)
        await asyncio.sleep(max(0.0, (due - time.perf_counter_ns()) / 1e9))
        slowdowns.append(refspeed.slowdown())
        if tick % SPEED_SAMPLES == 0:
            marks.append(Mark(wl, statistics.median(slowdowns)))
            slowdowns.clear()
    return marks


def window_metrics(wl: "Workload", marks: List[Mark]) -> Dict[str, float]:
    """End-to-end metrics of one timed window, set-up and memory aside.

    Every metric is a median over the window's blocks: rates and CPU
    per op of each block, and each block's latency quantile of its raw
    samples.  So a few seconds of interference from other tenants move
    them little.  All are corrected to nominal machine speed block by
    block (:mod:`perfbench.refspeed`), except an open loop's rates,
    which follow its schedule.  The ``measured.`` entries hold the
    corrected values uncorrected."""
    blocks = list(zip(marks, marks[1:]))
    latency = wl.progress.latency

    def block_median(value, blocks=blocks) -> Tuple[float, float]:
        """(measured, corrected) median over the blocks."""
        pairs = [value(a, b) for a, b in blocks]
        return (statistics.median(p[0] for p in pairs),
                statistics.median(p[1] for p in pairs))

    def rate(count):
        def value(a: Mark, b: Mark) -> Tuple[float, float]:
            per_s = count(a, b) / ((b.wall_ns - a.wall_ns) / 1e9)
            return per_s, per_s if wl.open_loop else per_s * b.slowdown
        return block_median(value)

    def cpu(a: Mark, b: Mark) -> Tuple[float, float]:
        us = (b.cpu_ns - a.cpu_ns) / 1e3 / max(b.ops - a.ops, 1)
        return us, us / b.slowdown

    def latency_ms(q: float) -> Tuple[float, float]:
        def value(a: Mark, b: Mark) -> Tuple[float, float]:
            ms = quantile(sorted(latency[a.samples:b.samples]), q) / 1e6
            return ms, ms / b.slowdown
        # A block in which no op completed has no latency to offer.
        return block_median(value, [(a, b) for a, b in blocks
                                    if b.samples > a.samples])

    pairs = {
        "throughput_ops_per_s": rate(lambda a, b: b.ops - a.ops),
        "goodput_words_per_s": rate(lambda a, b: b.words - a.words),
        "latency_p50_ms": latency_ms(0.5),
        "latency_p90_ms": latency_ms(0.9),
        "cpu_us_per_op": block_median(cpu),
    }
    out = {key: corrected for key, (_m, corrected) in pairs.items()}
    out.update({"measured." + key: measured
                for key, (measured, corrected) in pairs.items()
                if measured != corrected})
    out["samples"] = marks[-1].samples - marks[0].samples
    out["slowdown"] = statistics.median(b.slowdown for _a, b in blocks)
    return out


async def build(cls, seed: int, recorder=None) -> Tuple["Workload", float]:
    """A set-up workload and its set-up time, corrected to nominal
    machine speed."""
    wl = cls(seed, recorder)
    start = time.perf_counter()
    await wl.setup()
    elapsed = time.perf_counter() - start
    return wl, elapsed / refspeed.slowdown()


async def run_untraced(cls, seed: int, seconds: float, setup_reps: int,
                       ) -> Tuple[Dict[str, float], list]:
    """Set up ``setup_reps`` times (the last fabric carries the load),
    then measure one window.  Returns the metrics and every set-up's
    progress, for the correctness verdict."""
    setup_times, progress = [], []
    wl = None
    for _ in range(setup_reps):
        if wl is not None:
            await wl.close()
        wl, elapsed = await build(cls, seed)
        setup_times.append(elapsed)
        progress.append(wl.progress)
    # The earlier set-ups' fabrics lie in reference cycles.  Collect
    # them now, so the load starts on the same heap however many
    # set-ups ran and peak memory does not hang on when the cyclic
    # collector happens to run.
    gc.collect()
    wl.start()
    await asyncio.sleep(WARMUP_S)
    marks = await timed_window(wl, seconds)
    await wl.stop()
    await wl.close()
    # Read before the metrics: the memory sorting samples takes is the
    # harness's, not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = window_metrics(wl, marks)
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics, progress


async def run_traced(cls, seed: int, seconds: float, label: str,
                     ) -> Tuple[Dict[str, float], list, Dict[str, float]]:
    """An untraced half-window gives the CPU baseline; a traced
    half-window on a fresh fabric gives the per-layer metrics.  Spans
    and per-op work counts are written to ``out/``."""
    baseline, progress = await run_untraced(cls, seed, seconds / 2, 1)
    rec = SpanRecorder()
    patch = instrument(rec)
    try:
        wl, _ = await build(cls, seed, rec)
        progress.append(wl.progress)
        wl.start()
        await asyncio.sleep(WARMUP_S)
        rec.reset()
        before = wl.counters()
        marks = await timed_window(wl, seconds / 2)
        after = wl.counters()
        await wl.stop()
        await wl.close()
    finally:
        patch.undo()
    delta = {key: value - before.get(key, 0) for key, value in after.items()}

    def window_of(samples: Sequence, key: str) -> Sequence:
        return samples[int(before.get(key, 0)):int(after.get(key, 0))]

    window = window_metrics(wl, marks)
    metrics = per_layer(
        rec, delta, PEERS,
        handshakes_ns=[t.handshake_ns for t in window_of(
            getattr(wl, "transfers", []), "collectives.transfers")
            if t.handshake_ns],
        transfers_ns=[t.transfer_ns for t in window_of(
            getattr(wl, "transfers", []), "collectives.transfers")],
        lag_ns=window_of(getattr(wl, "lag", []), "lag.samples"),
        suspicions=int(after.get("membership.suspicions", 0)),
        untraced_cpu_us_per_op=baseline["cpu_us_per_op"],
        slowdown=window["slowdown"])
    OUT_DIR.mkdir(exist_ok=True)
    rec.dump(str(OUT_DIR / f"spans-{label}.jsonl.gz"))
    ops = max(delta["ops"], 1)
    counts = {key: value / ops for key, value in sorted(delta.items())
              if value and key.startswith(("wire.", "ep.", "tx.", "rx."))}
    (OUT_DIR / f"counts-{label}.json").write_text(
        json.dumps(counts, indent=1) + "\n")
    return metrics, progress, window


def report(values: Dict[str, float], units: Sequence[Tuple[str, str]],
           correct: bool, attempted: int, failed: int) -> None:
    for key, unit in units:
        print(f"  {key:42s} {values[key]:14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units},
    }))


async def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    cls = WORKLOADS[name]
    if trace:
        metrics, progress, window = await run_traced(
            cls, seed, seconds, f"{name}-seed{seed}")
    else:
        metrics, progress = await run_untraced(cls, seed, seconds,
                                               SETUP_REPS)
        window = metrics
    attempted = sum(p.attempted for p in progress)
    failed = sum(p.failed for p in progress)
    reasons = [why for p in progress for why in p.failures]
    correct = failed == 0 and window["samples"] > 0
    print(f"{name} seed={seed} seconds={seconds:g} trace={int(trace)}: "
          f"{attempted} ops attempted, {failed} failed "
          f"(failed_share {failed / max(attempted, 1):.6g})"
          + (f": {'; '.join(reasons[:5])}" if reasons else ""))
    print(f"  latency_p50_ms and latency_p90_ms from "
          f"n={window['samples']} samples; machine slowdown "
          f"{window['slowdown']:.4g}"
          + "".join(f"; {key} {value:.6g}" for key, value in window.items()
                    if key.startswith("measured.")))
    report(metrics, PER_LAYER if trace else END_TO_END, correct, attempted,
           failed)
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, so peak memory stays per
    workload.  The last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            merged["correct"] = False
            status = status or 1
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the runtime benchmark.")
    parser.add_argument("--workload", required=True,
                        help="stream-cm5, paced-cr-swim, allreduce-cr "
                             "or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if IMPORT_ERROR is not None:
        print(f"perfbench: cannot import the runtime from {ROOT / 'src'}: "
              f"{IMPORT_ERROR}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    with asyncio.Runner(loop_factory=clock.new_loop) as runner:
        return runner.run(run_one(args.workload, args.seed, args.seconds,
                                  bool(args.trace)))


if __name__ == "__main__":
    sys.exit(main())
