"""Per-layer metrics of one traced window.

Inputs are the span totals of :class:`perfbench.spans.SpanRecorder`
and the change of every public counter (``Workload.counters()``) over
the window.  ``METRICS.md`` says which end-to-end metric each one
should move, and on which workload.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.arch.attribution import Feature

from perfbench.spans import SpanRecorder


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of raw, sorted samples (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = -(-round(q * 1_000_000) * len(sorted_values) // 1_000_000)
    return float(sorted_values[min(max(rank, 1), len(sorted_values)) - 1])


#: Name and unit of every per-layer metric, in report order.
PER_LAYER: List[tuple] = [
    ("frames.encode_ns", "ns"),
    ("frames.decode_ns", "ns"),
    ("frames.encodes_per_op", "count"),
    ("frames.decodes_per_op", "count"),
    ("endpoint.send_frame_ns", "ns"),
    ("endpoint.rx_us_per_datagram", "us"),
    ("endpoint.frames_per_datagram", "count"),
    ("transport.send_now_ns", "ns"),
    ("transport.datagrams_per_op", "count"),
    ("transport.bytes_per_op", "bytes"),
    ("reliability.track_ns", "ns"),
    ("reliability.ack_ns", "ns"),
    ("reliability.retransmissions_per_op", "count"),
    ("reliability.useful_send_ratio", "ratio"),
    ("protocols.sender_send_self_us", "us"),
    ("protocols.acks_per_data", "ratio"),
    ("protocols.ooo_arrivals_per_op", "count"),
    ("protocols.duplicates_per_op", "count"),
    ("flowcontrol.window_ns", "ns"),
    ("flowcontrol.credit_frames_per_op", "count"),
    ("flowcontrol.blocked_ms", "ms"),
    ("channels.send_message_us", "us"),
    ("channels.send_us", "us"),
    ("channels.packets_per_op", "count"),
    ("membership.control_frames_per_peer_per_s", "1/s"),
    ("membership.frame_share", "ratio"),
    ("membership.false_suspicions", "count"),
    ("collectives.handshake_us_p50", "us"),
    ("collectives.transfer_ms_p50", "ms"),
    ("collectives.hdr_retries_per_op", "count"),
    ("collectives.deferred_grants", "count"),
    ("spans.base_us_per_op", "us"),
    ("spans.in_order_us_per_op", "us"),
    ("spans.fault_tolerance_us_per_op", "us"),
    ("spans.flow_control_us_per_op", "us"),
    ("spans.user_us_per_op", "us"),
    ("spans.ordering_fault_share", "ratio"),
    ("spans.attributed_share", "ratio"),
    ("bench.harness_us_per_op", "us"),
    ("bench.generator_lag_p99_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.slowdown", "ratio"),
]


def per_layer(rec: SpanRecorder, delta: Mapping[str, float], peers: int,
              handshakes_ns: Sequence[int], transfers_ns: Sequence[int],
              lag_ns: Sequence[int], suspicions: int,
              untraced_cpu_us_per_op: float,
              slowdown: float) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER` from one traced window.

    ``delta`` is the change of each counter over the window; the
    sequences are the window's raw samples.  Times are as measured;
    ``slowdown`` is the machine's over the window (see
    :mod:`perfbench.refspeed`), for reading them.  The untraced CPU
    per op is at nominal speed, like the end-to-end metric."""
    d = delta
    ops = max(d["ops"], 1)
    calls, self_ns, wall_ns = rec.calls, rec.self_ns, rec.wall_ns

    def per_call(names: Sequence[str], table=self_ns) -> float:
        n = sum(calls.get(name, 0) for name in names)
        return sum(table.get(name, 0) for name in names) / n if n else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def get(key: str) -> float:
        return d.get(key, 0)

    data, rtx = get("wire.data_datagrams"), get("wire.retransmissions")
    control = get("wire.membership_datagrams")
    attr = {feature: get(f"attr.{feature.value}") for feature in Feature}
    in_order_ft = attr[Feature.IN_ORDER] + attr[Feature.FAULT_TOLERANCE]
    bench_ns = sum(ns for name, ns in self_ns.items()
                   if name.startswith("bench."))
    # Both sides at nominal speed: the untraced baseline ran earlier.
    cpu_us_per_op = d["cpu_ns"] / 1e3 / ops / slowdown
    values = {
        "frames.encode_ns": per_call(["frames.encode"]),
        "frames.decode_ns": per_call(["frames.decode"]),
        "frames.encodes_per_op": calls.get("frames.encode", 0) / ops,
        "frames.decodes_per_op": calls.get("frames.decode", 0) / ops,
        "endpoint.send_frame_ns": per_call(["endpoint.send_frame",
                                            "endpoint.post_frame"]),
        "endpoint.rx_us_per_datagram":
            per_call(["endpoint.rx"], wall_ns) / 1e3,
        "endpoint.frames_per_datagram":
            ratio(get("wire.frames_sent") + rtx, get("tx.datagrams")),
        "transport.send_now_ns": per_call(["transport.send_now"]),
        "transport.datagrams_per_op": get("tx.datagrams") / ops,
        "transport.bytes_per_op": get("tx.bytes") / ops,
        "reliability.track_ns": per_call(["reliability.track"]),
        "reliability.ack_ns": per_call(["reliability.ack",
                                        "reliability.ack_below"]),
        "reliability.retransmissions_per_op": rtx / ops,
        "reliability.useful_send_ratio": ratio(data, data + rtx),
        "protocols.sender_send_self_us":
            per_call(["protocols.sender_send"]) / 1e3,
        "protocols.acks_per_data": ratio(get("wire.ack_datagrams"), data),
        "protocols.ooo_arrivals_per_op": get("rx.ooo") / ops,
        "protocols.duplicates_per_op": get("rx.duplicates") / ops,
        "flowcontrol.window_ns": per_call(
            ["flowcontrol.consume", "flowcontrol.apply",
             "flowcontrol.on_data", "flowcontrol.on_deliver"]),
        "flowcontrol.credit_frames_per_op":
            get("wire.credit_datagrams") / ops,
        "flowcontrol.blocked_ms": get("wire.flow.blocked_ns") / 1e6,
        "channels.send_message_us":
            per_call(["channels.send_message"], wall_ns) / 1e3,
        "channels.send_us": per_call(["channels.send"], wall_ns) / 1e3,
        "channels.packets_per_op": data / ops,
        "membership.control_frames_per_peer_per_s":
            control / peers / (d["wall_ns"] / 1e9),
        "membership.frame_share": ratio(control, get("wire.frames_sent")),
        "membership.false_suspicions": suspicions,
        "collectives.handshake_us_p50":
            quantile(sorted(handshakes_ns), 0.5) / 1e3,
        "collectives.transfer_ms_p50":
            quantile(sorted(transfers_ns), 0.5) / 1e6,
        "collectives.hdr_retries_per_op":
            get("collectives.hdr_retries") / ops,
        "collectives.deferred_grants": get("collectives.deferred"),
        "spans.base_us_per_op": attr[Feature.BASE] / 1e3 / ops,
        "spans.in_order_us_per_op": attr[Feature.IN_ORDER] / 1e3 / ops,
        "spans.fault_tolerance_us_per_op":
            attr[Feature.FAULT_TOLERANCE] / 1e3 / ops,
        "spans.flow_control_us_per_op":
            attr[Feature.FLOW_CONTROL] / 1e3 / ops,
        "spans.user_us_per_op": attr[Feature.USER] / 1e3 / ops,
        "spans.ordering_fault_share":
            ratio(in_order_ft, sum(attr.values())),
        "spans.attributed_share": ratio(sum(attr.values()), d["cpu_ns"]),
        "bench.harness_us_per_op": bench_ns / 1e3 / ops,
        "bench.generator_lag_p99_ms": quantile(sorted(lag_ns), 0.99) / 1e6,
        "bench.trace_overhead_pct":
            100.0 * ratio(cpu_us_per_op - untraced_cpu_us_per_op,
                          untraced_cpu_us_per_op),
        "bench.slowdown": slowdown,
    }
    return {name: float(values[name]) for name, _unit in PER_LAYER}
