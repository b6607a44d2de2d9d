"""Measurement harness for the live runtime.

The runtime equivalent of :class:`repro.protocols.base.ProtocolRun`: set
up a source/destination endpoint pair on a transport, run one of the
three protocols to completion under a hard deadline, and package the
measured per-feature wall-clock spans into a
:class:`~repro.analysis.timeshare.TimeBreakdown`-ready result.

Synchronous callers (the CLI, benchmarks, tests) use
:func:`measure_live`, which owns the event loop; async callers compose
the ``run_*_live`` coroutines with their own pairs.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.timeshare import TimeBreakdown
from repro.analysis.tracereport import crosscheck_features
from repro.arch.attribution import Feature
from repro.runtime.endpoint import RuntimeEndpoint
from repro.runtime.protocols import (
    BulkReceiver,
    BulkSender,
    OrderedChannelReceiver,
    OrderedChannelSender,
    SinglePacketReceiver,
    SinglePacketSender,
)
from repro.runtime.reliability import BackoffPolicy
from repro.runtime.tracing import Tracer
from repro.runtime.transport import LoopbackHub, UDPTransport, make_hub

#: Backoff used by loopback measurements: quick enough that injected
#: drops are recovered in milliseconds, patient enough that emulated
#: reordering (default 2 ms) never triggers a spurious retransmission.
LOOPBACK_BACKOFF = BackoffPolicy(initial=0.02, factor=1.7, ceiling=0.3, max_retries=12)


@dataclass
class RuntimePair:
    """A source/destination endpoint pair plus its substrate."""

    src: RuntimeEndpoint
    dst: RuntimeEndpoint
    mode: str                      # "cm5" | "cr"
    transport: str                 # "loopback" | "udp"
    hub: Optional[LoopbackHub] = None
    tracer: Optional[Tracer] = None

    async def close(self) -> None:
        await self.src.close()
        await self.dst.close()


def make_loopback_pair(
    mode: str = "cm5",
    drop_rate: float = 0.0,
    dup_rate: float = 0.0,
    reorder_rate: float = 0.25,
    reorder_delay: float = 0.002,
    latency: float = 0.0,
    seed: int = 0x5CA1E,
    tracer: Optional[Tracer] = None,
) -> RuntimePair:
    """An in-process pair.  ``mode='cr'`` ignores every fault knob.

    A ``tracer`` is shared by both endpoints — events carry the endpoint
    name, so one ring holds the whole conversation in arrival order.
    """
    hub = make_hub(
        mode, drop_rate=drop_rate, dup_rate=dup_rate,
        reorder_rate=reorder_rate, reorder_delay=reorder_delay,
        latency=latency, seed=seed,
    )
    src = RuntimeEndpoint(hub.attach("src"), name="src", tracer=tracer)
    dst = RuntimeEndpoint(hub.attach("dst"), name="dst", tracer=tracer)
    return RuntimePair(src=src, dst=dst, mode=mode, transport="loopback",
                       hub=hub, tracer=tracer)


async def make_udp_pair(host: str = "127.0.0.1",
                        tracer: Optional[Tracer] = None) -> RuntimePair:
    """A pair over real UDP sockets on the loopback interface.

    UDP advertises neither ordering nor reliability, so the full CM-5
    protocol machinery runs on top (mode is always ``cm5``).
    """
    src = RuntimeEndpoint(await UDPTransport.bind(host), name="udp-src",
                          tracer=tracer)
    dst = RuntimeEndpoint(await UDPTransport.bind(host), name="udp-dst",
                          tracer=tracer)
    return RuntimePair(src=src, dst=dst, mode="cm5", transport="udp",
                       tracer=tracer)


@dataclass
class RuntimeRunResult:
    """Outcome + measured attribution of one live protocol run."""

    protocol: str
    mode: str
    transport: str
    message_words: int
    packet_words: int
    packets_sent: int
    completed: bool
    wall_ns: int
    src_ns: Dict[Feature, int]
    dst_ns: Dict[Feature, int]
    retransmissions: int = 0
    retransmitted_bytes: int = 0
    duplicates: int = 0
    acks: int = 0
    data_datagrams: int = 0
    ooo_arrivals: int = 0
    drops_injected: int = 0
    delivered_words: List[int] = field(default_factory=list)
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def total_ns(self) -> int:
        return sum(self.src_ns.values()) + sum(self.dst_ns.values())

    @property
    def acks_per_data(self) -> float:
        """Ack datagrams sent per data datagram put on the wire."""
        return self.acks / self.data_datagrams if self.data_datagrams else 0.0

    def breakdown(self) -> TimeBreakdown:
        return TimeBreakdown.build(
            protocol=self.protocol,
            mode=self.mode,
            message_words=self.message_words,
            src_ns=self.src_ns,
            dst_ns=self.dst_ns,
        )

    def __str__(self) -> str:
        return (
            f"{self.protocol}/{self.mode}: {self.message_words}w in "
            f"{self.packets_sent} pkts over {self.transport}, "
            f"wall {self.wall_ns / 1e6:.1f}ms, "
            f"retransmissions={self.retransmissions}, "
            f"duplicates={self.duplicates}"
        )


def _finish(pair: RuntimePair, protocol: str, message_words: int,
            packet_words: int, packets_sent: int, completed: bool,
            wall_ns: int, **extras: Any) -> RuntimeRunResult:
    hub = pair.hub
    return RuntimeRunResult(
        protocol=protocol,
        mode=pair.mode,
        transport=pair.transport,
        message_words=message_words,
        packet_words=packet_words,
        packets_sent=packets_sent,
        completed=completed,
        wall_ns=wall_ns,
        src_ns=pair.src.attribution.snapshot(),
        dst_ns=pair.dst.attribution.snapshot(),
        drops_injected=hub.dropped if hub is not None else 0,
        **extras,
    )


# ---------------------------------------------------------------------------
# the three measured runs
# ---------------------------------------------------------------------------


async def run_single_packet_live(
    pair: RuntimePair,
    message_words: int = 64,
    packet_words: int = 16,
    deadline: float = 30.0,
    backoff: Optional[BackoffPolicy] = None,
) -> RuntimeRunResult:
    """Send the message as independent single-packet datagrams."""
    delivered: List[int] = []
    receiver = SinglePacketReceiver(pair.dst, on_message=delivered.extend)
    sender = SinglePacketSender(
        pair.src, pair.dst.local_address,
        backoff=backoff or LOOPBACK_BACKOFF,
    )
    message = list(range(1, message_words + 1))
    packets = max(1, (message_words + packet_words - 1) // packet_words)

    async def drive() -> None:
        arrival = receiver.expect(packets)
        cursor = 0
        for _ in range(packets):
            take = min(packet_words, message_words - cursor)
            await sender.send(message[cursor:cursor + take], timeout=deadline)
            cursor += take
        await arrival

    start = time.perf_counter_ns()
    completed = False
    try:
        await asyncio.wait_for(drive(), deadline)
        completed = True
    except asyncio.TimeoutError:
        pass
    finally:
        await sender.close()
    wall_ns = time.perf_counter_ns() - start
    return _finish(
        pair, "single-packet", message_words, packet_words, packets,
        completed, wall_ns,
        retransmissions=sender.retransmitter.retransmissions,
        retransmitted_bytes=sender.retransmitter.retransmitted_bytes,
        duplicates=receiver.duplicates,
        acks=receiver.acks_sent,
        data_datagrams=packets + sender.retransmitter.retransmissions,
        delivered_words=delivered,
    )


async def run_bulk_live(
    pair: RuntimePair,
    message_words: int = 1024,
    packet_words: int = 16,
    deadline: float = 30.0,
    backoff: Optional[BackoffPolicy] = None,
) -> RuntimeRunResult:
    """One finite-sequence transfer of a known-size message."""
    receiver = BulkReceiver(pair.dst)
    sender = BulkSender(
        pair.src, pair.dst.local_address, packet_words=packet_words,
        backoff=backoff or LOOPBACK_BACKOFF,
    )
    message = list(range(1, message_words + 1))

    async def drive():
        outcome = await sender.send(message, timeout=deadline)
        landed = await receiver.completion(outcome.transfer_id)
        return outcome, landed

    start = time.perf_counter_ns()
    completed = False
    outcome = None
    landed: List[int] = []
    try:
        outcome, landed = await asyncio.wait_for(drive(), deadline)
        completed = landed == message
    except asyncio.TimeoutError:
        pass
    finally:
        await sender.close()
    wall_ns = time.perf_counter_ns() - start
    return _finish(
        pair, "finite-sequence", message_words, packet_words,
        outcome.packets_sent if outcome else 0, completed, wall_ns,
        retransmissions=sender.retransmitter.retransmissions,
        retransmitted_bytes=sender.retransmitter.retransmitted_bytes,
        duplicates=receiver.duplicates,
        acks=receiver.final_acks_sent + receiver.status_acks_sent,
        data_datagrams=(
            (outcome.packets_sent if outcome else 0)
            + sender.retransmitted_data_packets
        ),
        delivered_words=list(landed),
        detail={
            "data_rounds": outcome.data_rounds if outcome else 0,
            "retransmitted_data_bytes": sender.retransmitted_data_bytes,
            "goback_n_equivalent_bytes": sender.goback_n_equivalent_bytes,
        },
    )


async def run_ordered_live(
    pair: RuntimePair,
    message_words: int = 1024,
    packet_words: int = 16,
    window: int = 32,
    deadline: float = 30.0,
    backoff: Optional[BackoffPolicy] = None,
) -> RuntimeRunResult:
    """Stream the message through the indefinite-sequence ordered channel."""
    delivered: List[int] = []
    receiver = OrderedChannelReceiver(
        pair.dst, window=max(256, 2 * window),
        deliver=lambda _seq, payload: delivered.extend(payload),
    )
    sender = OrderedChannelSender(
        pair.src, pair.dst.local_address, window=window,
        backoff=backoff or LOOPBACK_BACKOFF,
    )
    message = list(range(1, message_words + 1))
    packets = max(1, (message_words + packet_words - 1) // packet_words)

    async def drive() -> None:
        arrival = receiver.expect(packets)
        cursor = 0
        for _ in range(packets):
            take = min(packet_words, message_words - cursor)
            await sender.send(message[cursor:cursor + take])
            cursor += take
        await sender.drain(timeout=deadline)
        await arrival

    start = time.perf_counter_ns()
    try:
        await asyncio.wait_for(drive(), deadline)
    except asyncio.TimeoutError:
        pass
    finally:
        await sender.close()
        receiver.close()
    wall_ns = time.perf_counter_ns() - start
    return _finish(
        pair, "indefinite-sequence", message_words, packet_words, packets,
        delivered == message, wall_ns,
        retransmissions=sender.retransmitter.retransmissions,
        retransmitted_bytes=sender.retransmitter.retransmitted_bytes,
        duplicates=receiver.duplicates,
        acks=receiver.acks_sent,
        data_datagrams=packets + sender.retransmitter.retransmissions,
        ooo_arrivals=receiver.ooo_arrivals,
        delivered_words=delivered,
        detail={
            "immediate_acks": receiver.immediate_acks,
            "delayed_acks": receiver.delayed_acks,
        },
    )


_RUNNERS = {
    "single": run_single_packet_live,
    "finite": run_bulk_live,
    "indefinite": run_ordered_live,
}

PROTOCOL_NAMES = tuple(_RUNNERS)


def measure_live(
    protocol: str,
    mode: str = "cm5",
    transport: str = "loopback",
    message_words: int = 1024,
    packet_words: int = 16,
    deadline: float = 30.0,
    tracer: Optional[Tracer] = None,
    **pair_kwargs: Any,
) -> RuntimeRunResult:
    """Synchronous one-shot measurement (owns the event loop).

    ``pair_kwargs`` go to :func:`make_loopback_pair` (fault knobs, seed)
    and are rejected for UDP, which has none.  A ``tracer`` is threaded
    through both endpoints; its run label is set to ``protocol/mode`` so
    events from sequential runs through one tracer stay distinguishable.
    """
    try:
        runner = _RUNNERS[protocol]
    except KeyError:
        raise ValueError(
            f"unknown protocol {protocol!r} (expected one of {PROTOCOL_NAMES})"
        ) from None
    if tracer is not None:
        tracer.label = f"{protocol}/{mode}"

    async def session() -> RuntimeRunResult:
        if transport == "loopback":
            pair = make_loopback_pair(mode=mode, tracer=tracer, **pair_kwargs)
        elif transport == "udp":
            if mode != "cm5":
                raise ValueError("UDP provides no services; only cm5 mode runs on it")
            if pair_kwargs:
                raise ValueError(f"UDP transport takes no fault knobs: {pair_kwargs}")
            pair = await make_udp_pair(tracer=tracer)
        else:
            raise ValueError(f"unknown transport {transport!r}")
        try:
            result = await runner(
                pair, message_words=message_words, packet_words=packet_words,
                deadline=deadline,
            )
            result.detail.setdefault(
                "counters",
                {"src": pair.src.counters.to_dict(),
                 "dst": pair.dst.counters.to_dict()},
            )
            if pair.hub is not None:
                result.detail.setdefault("wire", pair.hub.wire_counters())
            return result
        finally:
            await pair.close()

    return asyncio.run(session())


# ---------------------------------------------------------------------------
# gates on the rows the runtime bench builds from measure_live results
# ---------------------------------------------------------------------------

#: Ack coalescing: fewer ack datagrams than this per data datagram.
MAX_ACKS_PER_DATA = 0.5
#: Share of go-back-N's resent data bytes selective repeat must save.
MIN_SELECTIVE_REPEAT_SAVINGS = 0.5
#: Sanity ceiling (percent) for tracing-on and journey-on overhead.
TRACED_OVERHEAD_CEILING_PCT = 150.0
#: Share of delivered messages that must rebuild into complete journeys,
#: and the worst stage-sum error allowed against end-to-end latency.
MIN_JOURNEY_COVERAGE = 0.95
MAX_STAGE_ERROR = 0.10
#: Worst gap between a traced run's histogram and bucket feature totals.
TRACE_CROSSCHECK_TOLERANCE = 0.10


def acks_violations(label: str, acks_per_data: Optional[float]) -> List[str]:
    """The ack-coalescing gate (see :data:`MAX_ACKS_PER_DATA`)."""
    if acks_per_data is None or acks_per_data >= MAX_ACKS_PER_DATA:
        return [f"{label}: {acks_per_data} ack datagrams per data datagram "
                f"(bound: < {MAX_ACKS_PER_DATA})"]
    return []


def protocol_violations(cell: str, record: Dict[str, Any]) -> List[str]:
    """A ``protocol/mode`` bench row: a CR cell runs none of the ordering
    or fault machinery, and a CM-5 cell coalesces its acks (except the
    single-packet protocol, which acks every packet by design)."""
    protocol, _, mode = cell.partition("/")
    features = record["breakdown"]["features"]
    share = features["in_order"]["share"] + features["fault_tolerance"]["share"]
    if mode == "cr" and share != 0.0:
        return [f"{cell} spent {share:.1%} of its time on ordering + "
                "fault tolerance the CR network provides"]
    if mode == "cr" or protocol == "single":
        return []
    return acks_violations(cell, record["wire"].get("acks_per_data"))


def selective_repeat_violations(row: Dict[str, Any]) -> List[str]:
    """The bulk transfer's gate (see :data:`MIN_SELECTIVE_REPEAT_SAVINGS`)."""
    savings = row.get("selective_repeat_savings")
    if savings is None or savings < MIN_SELECTIVE_REPEAT_SAVINGS:
        return [f"bulk_selective_repeat: selective repeat saved {savings} of "
                "the go-back-N resend bytes (bound: >= "
                f"{MIN_SELECTIVE_REPEAT_SAVINGS:.0%})"]
    return []


def traced_overhead_violations(label: str,
                               overhead_pct: Optional[float]) -> List[str]:
    """The sanity ceiling on a traced run's measured overhead."""
    ceiling = TRACED_OVERHEAD_CEILING_PCT
    if overhead_pct is not None and overhead_pct >= ceiling:
        return [f"{label}: traced overhead {overhead_pct:.1f}% crossed the "
                f"{ceiling:.0f}% sanity ceiling"]
    return []


def trace_violations(label: str, row: Dict[str, Any]) -> List[str]:
    """A ``runtime trace`` cell: the run completed, at least one packet
    lifecycle (send -> recv -> deliver) rebuilt complete, and the
    tracer's ``trace_feature_ns`` agree with the ``attribution_ns``
    buckets (see :data:`TRACE_CROSSCHECK_TOLERANCE`)."""
    problems = []
    if not row.get("completed"):
        problems.append(f"{label}: run did not complete")
    if row.get("complete_lifecycles", 0) < 1:
        problems.append(f"{label}: no complete packet lifecycle")
    for problem in crosscheck_features(row["trace_feature_ns"],
                                       row["attribution_ns"],
                                       TRACE_CROSSCHECK_TOLERANCE):
        problems.append(f"{label}: attribution cross-check: {problem}")
    return problems


def journey_violations(label: str, row: Dict[str, Any]) -> List[str]:
    """An ``obs/{mode}`` bench row or a ``runtime journey`` cell:
    journeys reconstruct with enough coverage, their stage sums match
    end-to-end latency, journey-on overhead (where measured) stays under
    the sanity ceiling, and a row that records ``completed`` completed."""
    problems = []
    if row.get("completed") is False:
        problems.append(f"{label}: run did not complete")
    coverage = row.get("journey_coverage")
    if coverage is None or coverage < MIN_JOURNEY_COVERAGE:
        problems.append(f"{label}: journey coverage {coverage} fell below "
                        f"the {MIN_JOURNEY_COVERAGE:.0%} bound")
    error = row.get("worst_stage_error")
    if error is None or error > MAX_STAGE_ERROR:
        problems.append(f"{label}: worst journey stage-sum error {error} "
                        f"crossed the {MAX_STAGE_ERROR:.0%} bound")
    return problems + traced_overhead_violations(
        label, row.get("journey_overhead_pct"))

