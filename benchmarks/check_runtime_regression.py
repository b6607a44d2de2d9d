"""CI gate: compare a fresh BENCH_runtime.json against the committed one.

Usage (the predicates come from the ``repro`` sources)::

    PYTHONPATH=src python benchmarks/check_runtime_regression.py \
        BASELINE.json FRESH.json

Three kinds of checks:

* **Row presence** — every row kind the bench writes is there.
* **Absolute bounds** — every row passes the ``*_violations``
  predicate defined next to the code that produces it (the same
  predicates the CLI and ``test_bench_runtime.py`` use), as do the
  cross-row gates: the CM-5-vs-CR collapse at every peer count, 10x
  overload throughput retention, and flat per-peer membership control
  load.  These hold regardless of the baseline.
* **Relative drift** — retransmitted bytes and acks-per-data must not
  blow past the committed baseline by more than a generous slack factor.
  Fault injection is seeded, so the counts are near-deterministic; the
  slack absorbs scheduler-timing noise (a loaded CI runner can let a
  retransmit timer fire just before the ack lands).

Exits non-zero listing every violated check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.analysis.costbreakdown import cost_violations
from repro.runtime.chaos import chaos_violations
from repro.runtime.collectives import (
    collective_op_violations,
    crossover_violations,
    partition_violations,
)
from repro.runtime.loadgen import (
    fabric_collapse_violations,
    load_violations,
    overload_retention_violations,
    overload_violations,
    speedup_violations,
)
from repro.runtime.membership import (
    member_flatness_violations,
    member_violations,
)
from repro.runtime.runner import (
    acks_violations,
    journey_violations,
    protocol_violations,
    selective_repeat_violations,
    traced_overhead_violations,
)

#: Fresh value may exceed baseline by this factor before we call it a
#: regression (timer-vs-ack races under CI load add real jitter).
RELATIVE_SLACK = 3.0

#: The tracing-disabled bench may regress at most this much against the
#: committed baseline's off-path measurement — *plus* the sampling
#: spread both payloads recorded, so a loaded runner widens its own
#: tolerance honestly instead of flaking.  On a quiet machine the gate
#: tightens toward the bare 3%.
TRACE_OFF_SLACK_PCT = 3.0

#: Ignore relative drift below these per-metric baselines: going from
#: 1 ack to 3 (or from one lucky retransmit round to three) is noise,
#: not a regression.  The byte floor is ~one bulk data round — the
#: quantum by which an RTO-vs-ack race moves the counter, so a baseline
#: captured on a lucky run doesn't turn ordinary jitter into a failure.
MIN_ACK_FLOOR = 4
MIN_RETX_BYTES_FLOOR = 2048


def _load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        sys.exit(f"cannot read bench payload {path!r}: {exc}")


def _dig(payload: dict, *keys, default=None):
    node = payload
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            return default
        node = node[key]
    return node


def check(baseline: dict, fresh: dict) -> list:
    problems = []

    # --- reliability and protocol rows ---------------------------------
    bulk = _dig(fresh, "reliability", "bulk_selective_repeat")
    if bulk is None:
        problems.append("fresh payload is missing the bulk selective-repeat row")
    else:
        problems += selective_repeat_violations(bulk)
    ordered = _dig(fresh, "reliability", "ordered_ack_coalescing")
    if ordered is None:
        problems.append("fresh payload is missing the ack-coalescing row")
    else:
        problems += acks_violations("ordered_ack_coalescing",
                                    ordered.get("acks_per_data"))
    for cell, record in sorted(
            (_dig(fresh, "protocols", default={}) or {}).items()):
        problems += protocol_violations(cell, record)

    # --- relative drift vs the committed baseline ---------------------
    drift_metrics = [
        ("bulk retransmitted data bytes",
         ("reliability", "bulk_selective_repeat", "retransmitted_data_bytes"),
         MIN_RETX_BYTES_FLOOR),
        ("ordered ack datagrams",
         ("reliability", "ordered_ack_coalescing", "ack_datagrams"),
         MIN_ACK_FLOOR),
    ]
    for label, keys, floor in drift_metrics:
        base = _dig(baseline, *keys)
        now = _dig(fresh, *keys)
        if base is None or now is None:
            continue  # baseline predates the metric; absolute bounds still apply
        if (_dig(baseline, *keys[:-1], "message_words")
                != _dig(fresh, *keys[:-1], "message_words")):
            continue  # workload changed; raw counts are incomparable
        limit = max(base, floor) * RELATIVE_SLACK
        if now > limit:
            problems.append(
                f"{label} regressed: {now} vs baseline {base} "
                f"(limit {limit:.0f} at {RELATIVE_SLACK}x slack)"
            )

    # --- tracer-off overhead gate (ISSUE 3) ---------------------------
    base_off = _dig(baseline, "trace", "cpu_ns_off_min")
    fresh_off = _dig(fresh, "trace", "cpu_ns_off_min")
    if fresh_off is None:
        problems.append("fresh payload is missing the trace-overhead row")
    elif base_off:  # baseline predates the row: absolute checks only
        drift_pct = (fresh_off - base_off) / base_off * 100.0
        noise_pct = (
            (_dig(baseline, "trace", "off_spread_pct") or 0.0)
            + (_dig(fresh, "trace", "off_spread_pct") or 0.0)
        )
        allowed_pct = TRACE_OFF_SLACK_PCT + noise_pct
        if drift_pct > allowed_pct:
            problems.append(
                f"tracing-disabled bench regressed {drift_pct:.1f}% vs "
                f"baseline (bound: {TRACE_OFF_SLACK_PCT:.0f}% + "
                f"{noise_pct:.1f}% measured sampling noise)"
            )
    problems += traced_overhead_violations(
        "trace", _dig(fresh, "trace", "trace_overhead_pct"))

    # --- journey observability gates (ISSUE 8) ------------------------
    # Same drift shape as the trace gate, per mode, plus the journey
    # reconstruction gates.
    for mode in ("cm5", "cr"):
        row = _dig(fresh, "obs", f"obs/{mode}")
        if row is None:
            problems.append(f"fresh payload is missing the obs/{mode} row")
            continue
        base_off = _dig(baseline, "obs", f"obs/{mode}", "cpu_ns_off_min")
        if base_off:  # baseline predates the row: absolute checks only
            drift_pct = ((row.get("cpu_ns_off_min", 0) - base_off)
                         / base_off * 100.0)
            noise_pct = (
                (_dig(baseline, "obs", f"obs/{mode}", "off_spread_pct")
                 or 0.0)
                + (row.get("off_spread_pct") or 0.0)
            )
            allowed_pct = TRACE_OFF_SLACK_PCT + noise_pct
            if drift_pct > allowed_pct:
                problems.append(
                    f"obs/{mode}: observability-disabled bench regressed "
                    f"{drift_pct:.1f}% vs baseline (bound: "
                    f"{TRACE_OFF_SLACK_PCT:.0f}% + {noise_pct:.1f}% "
                    "measured sampling noise)"
                )
        problems += journey_violations(f"obs/{mode}", row)

    # --- fabric load scaling (ISSUE 4) --------------------------------
    fabric = _dig(fresh, "fabric", default={}) or {}
    if not fabric:
        problems.append("fresh payload is missing the fabric load rows")
    peer_counts = sorted({
        int(cell.split("/p")[1]) for cell in fabric if "/p" in cell
    })
    for peers in peer_counts:
        for mode in ("cm5", "cr"):
            if f"{mode}/p{peers}" not in fabric:
                problems.append(f"fabric row {mode}/p{peers} is missing")
    for _cell, record in sorted(fabric.items()):
        problems += load_violations(record)
    problems += fabric_collapse_violations(fabric.values())

    # --- hot-path cost breakdown + throughput (ISSUE 7) ---------------
    # The cost/{mode} rows must exist and pass their structural
    # orderings, and encode/decode per-op cost must not drift past the
    # committed baseline by more than the relative slack.
    for mode in ("cm5", "cr"):
        record = _dig(fresh, "cost", f"cost/{mode}")
        if record is None:
            problems.append(f"fresh payload is missing the cost/{mode} row")
            continue
        problems += cost_violations(record)
        rows = record.get("rows") or {}
        for term in ("frame_encode", "frame_decode"):
            base_ns = _dig(baseline, "cost", f"cost/{mode}", "rows",
                           term, "ns_per_op")
            now_ns = _dig(rows, term, "ns_per_op")
            if base_ns is None or now_ns is None:
                continue  # baseline predates the row
            if now_ns > base_ns * RELATIVE_SLACK:
                problems.append(
                    f"cost/{mode}: {term} regressed to {now_ns:.0f} ns/op "
                    f"vs baseline {base_ns:.0f} "
                    f"(limit {base_ns * RELATIVE_SLACK:.0f} at "
                    f"{RELATIVE_SLACK}x slack)"
                )

    # Post-overhaul fabric throughput must not silently erode: every
    # fresh fabric cell stays within the relative slack of the
    # committed baseline's throughput, and the committed baseline
    # itself must carry the >= 5x p2 speedup the overhaul landed
    # (recorded by the bench against the pre-overhaul measurement).
    for cell, record in sorted(fabric.items()):
        base_thr = _dig(baseline, "fabric", cell, "throughput_msgs_per_s")
        now_thr = record.get("throughput_msgs_per_s")
        if base_thr is None or now_thr is None:
            continue
        if now_thr < base_thr / RELATIVE_SLACK:
            problems.append(
                f"fabric {cell} throughput regressed: {now_thr:.0f} msgs/s "
                f"vs baseline {base_thr:.0f} "
                f"(floor {base_thr / RELATIVE_SLACK:.0f} at "
                f"{RELATIVE_SLACK}x slack)"
            )
    for record in (_dig(baseline, "fabric", default={}) or {}).values():
        problems += [f"committed baseline's {problem}"
                     for problem in speedup_violations(record)]

    # --- overload survival (ISSUE 6) ----------------------------------
    overload = _dig(fresh, "overload", default={}) or {}
    if not overload:
        problems.append("fresh payload is missing the overload rows")
    for _cell, record in sorted(overload.items()):
        problems += overload_violations(record)
    problems += overload_retention_violations(overload.values())

    # --- chaos scenarios (ISSUE 5) ------------------------------------
    chaos = _dig(fresh, "chaos", default={}) or {}
    if not chaos:
        problems.append("fresh payload is missing the chaos scenario rows")
    for _cell, record in sorted(chaos.items()):
        problems += chaos_violations(record)

    # --- SWIM membership scaling (ISSUE 10) ---------------------------
    member = _dig(fresh, "member", default={}) or {}
    if not member:
        problems.append("fresh payload is missing the membership rows")
    for _cell, record in sorted(member.items()):
        problems += member_violations(record)
    problems += member_flatness_violations(list(member.values()))

    # --- fabric collectives (ISSUE 9) ---------------------------------
    # No relative drift check: the sweep is seeded but timing-sensitive.
    coll = _dig(fresh, "coll", default={}) or {}
    if not coll:
        problems.append("fresh payload is missing the collective rows")
    for op in ("broadcast", "scatter", "gather", "all_reduce"):
        for mode in ("cm5", "cr"):
            row = coll.get(f"coll/{op}/{mode}")
            if row is None:
                problems.append(f"collective row coll/{op}/{mode} is missing")
            else:
                problems += collective_op_violations(row)
    sweep = coll.get("coll/crossover")
    if sweep is None:
        problems.append("fresh payload is missing the collective crossover sweep")
    else:
        problems += crossover_violations(sweep)
    for mode in ("cm5", "cr"):
        row = coll.get(f"coll/partition/{mode}")
        if row is None:
            problems.append(
                f"collective partition row coll/partition/{mode} is missing")
        else:
            problems += partition_violations(row)

    return problems


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    baseline, fresh = _load(argv[1]), _load(argv[2])
    problems = check(baseline, fresh)
    if problems:
        print("runtime bench regression check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("runtime bench regression check passed:")
    print(f"  selective-repeat savings: "
          f"{_dig(fresh, 'reliability', 'bulk_selective_repeat', 'selective_repeat_savings'):.1%}")
    print(f"  ordered acks per data datagram: "
          f"{_dig(fresh, 'reliability', 'ordered_ack_coalescing', 'acks_per_data'):.3f}")
    trace_pct = _dig(fresh, "trace", "trace_overhead_pct")
    if trace_pct is not None:
        print(f"  tracing-on overhead: {trace_pct:.1f}%")
    for cell, record in sorted((_dig(fresh, "obs", default={}) or {}).items()):
        print(
            f"  {cell}: journey coverage="
            f"{record.get('journey_coverage', 0.0):.1%} "
            f"stage-err={record.get('worst_stage_error', 0.0):.2%} "
            f"journey-on={record.get('journey_overhead_pct', 0.0):.1f}%"
        )
    for cell, record in sorted((_dig(fresh, "cost", default={}) or {}).items()):
        rows = record.get("rows") or {}
        terms = []
        for term, label in (("frame_encode", "encode"),
                            ("frame_decode", "decode"),
                            ("send_path_batched", "batched-send")):
            ns = _dig(rows, term, "ns_per_op")
            if ns is not None:
                terms.append(f"{label}={ns:.0f}ns")
        print(f"  {cell}: " + " ".join(terms))
    for cell, record in sorted((_dig(fresh, "fabric", default={}) or {}).items()):
        print(
            f"  fabric {cell}: lost={record.get('lost_messages')} "
            f"ord+ft={record.get('ordering_fault_share', 0.0):.1%} "
            f"acks/data={record.get('acks_per_data', 0.0):.3f}"
        )
    for cell, record in sorted((_dig(fresh, "overload", default={}) or {}).items()):
        retained = record.get("throughput_retained_vs_1x")
        kept = f" retained={retained:.0%}" if retained is not None else ""
        peaks = record.get("peaks") or {}
        print(
            f"  {cell}: shed={record.get('messages_shed', 0)} "
            f"({record.get('shed_share', 0.0):.0%}) "
            f"buf={peaks.get('buffered_bytes', 0)}/"
            f"{peaks.get('window_bytes', 0)}B "
            f"flow={record.get('flow_control_share', 0.0):.1%}{kept}"
        )
    for cell, record in sorted((_dig(fresh, "chaos", default={}) or {}).items()):
        latency = record.get("detection_latency_s")
        detect = f" detect={latency * 1e3:.0f}ms" if latency is not None else ""
        print(
            f"  chaos {cell}: violations="
            f"{_dig(record, 'audit', 'violations')} "
            f"broken={len(record.get('broken_lanes', []))}"
            f"{detect} "
            f"ft={record.get('fault_tolerance_share', 0.0):.1%}"
        )
    for cell, record in sorted((_dig(fresh, "member", default={}) or {}).items()):
        latency = record.get("detection_latency_s")
        detect = f"{latency * 1e3:.0f}ms" if latency is not None else "missed"
        print(
            f"  member {cell}: detect={detect}"
            f"/{record.get('detection_bound_s', 0.0) * 1e3:.0f}ms "
            f"ctrl={record.get('control_frames_per_peer_per_period', 0.0):.1f}"
            f"/{record.get('control_bound_per_period', 0.0):.0f} "
            f"frames/peer/period refutes={record.get('refutations', 0)}"
        )
    coll = _dig(fresh, "coll", default={}) or {}
    sweep = coll.get("coll/crossover")
    if sweep is not None:
        print(
            f"  coll crossover: {sweep.get('crossover_words')} words "
            f"(wire latency {sweep.get('wire_latency_s', 0.0) * 1e3:.2f}ms, "
            f"sizes {sweep.get('sizes')})"
        )
    for cell, record in sorted(coll.items()):
        if cell == "coll/crossover" or "/partition/" in cell:
            continue
        print(
            f"  {cell}: {record.get('payload_words')}w "
            f"modes={record.get('transfer_modes')} "
            f"{record.get('total_ns', 0) / 1e6:.2f}ms audit-clean"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
