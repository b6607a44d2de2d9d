"""The three benchmark workloads over ``repro.runtime``'s public API.

Each workload owns its fabric, generates its load from one asyncio
loop, and checks every output itself:

* ``stream-cm5`` -- closed loop, 16 ordered channels over 8 peers on a
  lossy, reordering CM-5 hub; the smallest auditable message.
* ``paced-cr-swim`` -- open loop, seeded Poisson arrivals at a fixed
  total rate over the same channels on a CR hub, SWIM running.
* ``allreduce-cr`` -- closed loop of back-to-back rendezvous
  all-reduces of 4096-word vectors over 8 peers on a CR hub.

A message workload checks exactly-once, in-order, intact delivery per
channel (index and CRC-32 in every message).  The all-reduce workload
compares the returned vector and the words every member actually
received on its collective lanes with sums computed here.

The runtime's receivers keep every packet they ever delivered
(``ChannelReceiveBuffer`` and ``OrderedChannelReceiver.delivered``).
So the two closed loops recycle their connections after a fixed number
of ops: their memory then depends on that number, not on how fast the
runtime went.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import random
import struct
import time
import zlib
from array import array
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.runtime import (
    BackoffPolicy,
    ChannelBroken,
    CollectiveConfig,
    CollectiveError,
    Fabric,
    FlowControlConfig,
    LiveFramedChannel,
    SwimConfig,
    SwimDetector,
)
from repro.runtime.membership import MemberState

from perfbench import clock
from perfbench.spans import OP_ID, SpanRecorder

_now = time.perf_counter_ns
#: Latency is timed on the process clock (:mod:`perfbench.clock`).
_clock = clock.now
_MASK = 0xFFFFFFFF

PEERS = 8
CHANNELS = 16
MESSAGE_WORDS = 8            # lane, index, 5 data words, CRC-32
PACKET_WORDS = 16
SEND_WINDOW = 32
#: Retransmission schedule of the loopback runs (first RTO 20 ms).
BACKOFF = BackoffPolicy(initial=0.02, factor=1.7, ceiling=0.3,
                        max_retries=12)
#: Credit window per channel: four send windows of full packets.
FLOW = FlowControlConfig(window_bytes=4 * SEND_WINDOW * PACKET_WORDS * 4,
                         window_msgs=4 * SEND_WINDOW)
PACED_RATE = 3000.0          # messages/s offered, all channels together
VECTOR_WORDS = 4096
#: ``stream-cm5`` reconnects a channel after this many messages.
LANE_MESSAGES = 4096
#: ``allreduce-cr`` replaces its collective group after this many ops.
GROUP_OPS = 25
#: Seconds an op may stay undelivered after the load stops.
DRAIN_DEADLINE = 30.0

_PACK7 = struct.Struct("<7I").pack


def peer_names() -> List[str]:
    return [f"p{i}" for i in range(PEERS)]


def stride_rings(names: Sequence[str], count: int) -> List[Tuple[str, str]]:
    """``count`` directed pairs: a stride-1 ring, then stride 2, ...
    so every peer sources and sinks the same number of channels."""
    n = len(names)
    return [(names[i % n], names[(i % n + 1 + (i // n) % (n - 1)) % n])
            for i in range(count)]


class Progress:
    """What the harness has submitted, completed and seen fail."""

    def __init__(self) -> None:
        self.attempted = 0
        self.completed = 0
        self.words = 0
        self.failed = 0
        #: The first few failure reasons, for the report.
        self.failures: List[str] = []
        #: Per-op latency in ns, in completion order.
        self.latency = array("q")

    def complete(self, latency_ns: int, words: int) -> None:
        self.completed += 1
        self.words += words
        self.latency.append(latency_ns)

    def fail(self, why: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(why)


class Workload:
    """Common shape: build the fabric, run load, stop, drain, close."""

    name = ""
    #: True when load follows a schedule instead of completions.
    open_loop = False

    def __init__(self, seed: int,
                 recorder: Optional[SpanRecorder] = None) -> None:
        #: Set on the traced run: the harness's own per-op work is
        #: timed too, under ``bench.*`` spans.
        self.recorder = recorder
        rng = random.Random(seed)
        self.fault_seed = rng.getrandbits(32)
        #: Seeded message words; message k of lane l takes five of them.
        self.pool = [rng.getrandbits(32) for _ in range(4096 + 5)]
        self.rng = random.Random(rng.getrandbits(64))
        self.progress = Progress()
        self.fabric: Optional[Fabric] = None
        self.stopping = False
        #: Wall and CPU time of harness housekeeping that the timed
        #: window leaves out.
        self.paused_wall_ns = 0
        self.paused_cpu_ns = 0
        self._tasks: List[asyncio.Task] = []

    async def setup(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        raise NotImplementedError

    def outstanding(self) -> int:
        raise NotImplementedError

    async def stop(self) -> None:
        """Stop offering load, then wait for every op to finish."""
        self.stopping = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + DRAIN_DEADLINE
        while self.outstanding() and loop.time() < deadline:
            await asyncio.sleep(0.005)
        if self.outstanding():
            self.progress.fail("undelivered at deadline", self.outstanding())
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    async def close(self) -> None:
        if self.fabric is not None:
            await self.fabric.close()
            self.fabric = None

    # -- what the traced run reads -------------------------------------------

    def receive_counts(self) -> Tuple[int, int]:
        """Out-of-order arrivals and duplicates, over the receivers of
        every open connection."""
        receivers = {}
        for name in self.fabric.peer_names:
            for conn in self.fabric.connections_of(name):
                receivers[conn.cid] = conn.channel.receiver
        return (sum(r.ooo_arrivals for r in receivers.values()),
                sum(r.duplicates for r in receivers.values()))

    def layer_counts(self) -> Dict[str, float]:
        """Counters only this workload has (cumulative)."""
        return {}

    def counters(self) -> Dict[str, float]:
        """Cumulative counters of every layer, read through the
        runtime's public API (fabric, endpoints, transports, hub)."""
        fabric = self.fabric
        snap: Dict[str, float] = {
            "wall_ns": _now() - self.paused_wall_ns,
            "cpu_ns": time.process_time_ns() - self.paused_cpu_ns,
            "ops": self.progress.completed,
        }
        for key, value in fabric.wire_totals().items():
            snap[f"wire.{key}"] = value
        for per_peer in fabric.endpoint_counters().values():
            for key, value in per_peer.items():
                snap[f"ep.{key}"] = snap.get(f"ep.{key}", 0) + value
        snap["tx.datagrams"] = snap["tx.bytes"] = 0
        for name in fabric.peer_names:
            transport = fabric.peer(name).transport
            snap["tx.datagrams"] += transport.datagrams_sent
            snap["tx.bytes"] += transport.bytes_sent
        snap["rx.ooo"], snap["rx.duplicates"] = self.receive_counts()
        for feature, ns in fabric.attribution_totals().items():
            snap[f"attr.{feature.value}"] = ns
        snap.update(self.layer_counts())
        return snap


# ---------------------------------------------------------------------------
# message workloads
# ---------------------------------------------------------------------------


class Lane:
    """One framed channel plus its delivery ledger.  The ledger spans
    every connection the lane uses, so indices run on across a
    reconnect."""

    __slots__ = ("id", "src", "dst", "conn", "framed", "sent", "received",
                 "stamps", "recycle_at")

    def __init__(self, lane_id: int, src: str, dst: str) -> None:
        self.id = lane_id
        self.src = src
        self.dst = dst
        self.conn = None
        self.framed: Optional[LiveFramedChannel] = None
        self.sent = 0
        self.received = 0
        #: Submit time of each undelivered message, in order.
        self.stamps: Deque[int] = deque()
        # Staggered, so the channels do not all reconnect at once.
        self.recycle_at = LANE_MESSAGES + LANE_MESSAGES * lane_id // CHANNELS


class MessageWorkload(Workload):
    mode = "cm5"
    fault_kwargs: Dict[str, float] = {}

    def __init__(self, seed: int,
                 recorder: Optional[SpanRecorder] = None) -> None:
        super().__init__(seed, recorder)
        self.lanes: List[Lane] = []
        if recorder is not None:
            self.payload = recorder.sync("bench.payload", self.payload)
            self.submit = recorder.coro("bench.submit", self.submit)

    async def setup(self) -> None:
        self.fabric = Fabric(mode=self.mode, backoff=BACKOFF,
                             **self.fault_kwargs)
        names = peer_names()
        for name in names:
            await self.fabric.add_peer(name)
        self.lanes = [Lane(i, src, dst) for i, (src, dst)
                      in enumerate(stride_rings(names, CHANNELS))]
        for lane in self.lanes:
            await self._connect(lane)

    async def _connect(self, lane: Lane) -> None:
        lane.conn = await self.fabric.connect(
            lane.src, lane.dst, window=SEND_WINDOW,
            packet_words=PACKET_WORDS, flow=FLOW)
        lane.framed = LiveFramedChannel(lane.conn.channel)
        lane.framed.on_message(self._receiver(lane))

    def payload(self, lane: Lane) -> List[int]:
        """Message ``lane.sent`` of ``lane``: seeded words plus a CRC."""
        k = lane.sent
        base = (k * 5 + lane.id * 977) & 4095
        words = [lane.id, k & _MASK, *self.pool[base:base + 5]]
        words.append(zlib.crc32(_PACK7(*words)))
        return words

    def _receiver(self, lane: Lane) -> Callable[[List[int]], None]:
        progress = self.progress
        stamps = lane.stamps

        def on_message(words: List[int]) -> None:
            now = _clock()
            k = lane.received
            lane.received = k + 1
            sent_at = stamps.popleft() if stamps else now
            if (len(words) != MESSAGE_WORDS or words[0] != lane.id
                    or words[1] != k & _MASK
                    or words[7] != zlib.crc32(_PACK7(*words[:7]))):
                progress.fail(f"lane {lane.id}: bad message {k}")
                return
            progress.complete(now - sent_at, MESSAGE_WORDS)

        if self.recorder is not None:
            return self.recorder.sync("bench.check", on_message)
        return on_message

    async def submit(self, lane: Lane) -> None:
        """Send the lane's next message, timed from now."""
        words = self.payload(lane)
        lane.sent += 1
        lane.stamps.append(_clock())
        self.progress.attempted += 1
        if self.recorder is not None:
            OP_ID.set(self.progress.attempted)
        await lane.framed.send_message(words)

    def outstanding(self) -> int:
        return sum(lane.sent - lane.received for lane in self.lanes)


class StreamCm5(MessageWorkload):
    """Every channel sends as fast as its window and credit allow."""

    name = "stream-cm5"
    mode = "cm5"

    def __init__(self, seed: int,
                 recorder: Optional[SpanRecorder] = None) -> None:
        super().__init__(seed, recorder)
        self.fault_kwargs = {"drop_rate": 0.01, "reorder_rate": 0.05,
                             "seed": self.fault_seed}

    def start(self) -> None:
        self._tasks = [asyncio.ensure_future(self._pump(lane))
                       for lane in self.lanes]

    async def _pump(self, lane: Lane) -> None:
        try:
            while not self.stopping:
                if lane.sent >= lane.recycle_at:
                    await self._reconnect(lane)
                await self.submit(lane)
        except ChannelBroken as exc:
            self.progress.fail(f"lane {lane.id}: {exc!r}")

    async def _reconnect(self, lane: Lane) -> None:
        """Let the lane's messages all arrive, close its connection
        gracefully and open a fresh one."""
        while lane.received < lane.sent:
            await asyncio.sleep(0.001)
        await lane.conn.close(drain=True)
        await self._connect(lane)
        lane.recycle_at += LANE_MESSAGES


class PacedCrSwim(MessageWorkload):
    """One generator offers seeded Poisson arrivals at a fixed rate."""

    name = "paced-cr-swim"
    mode = "cr"
    open_loop = True

    def __init__(self, seed: int,
                 recorder: Optional[SpanRecorder] = None) -> None:
        super().__init__(seed, recorder)
        self.swim_seed = self.rng.getrandbits(32)
        self.detector: Optional[SwimDetector] = None
        self.suspicions = 0
        #: Generator lateness (submit time minus due time), ns.
        self.lag = array("q")

    async def setup(self) -> None:
        await super().setup()
        self.detector = SwimDetector(self.fabric,
                                     SwimConfig(seed=self.swim_seed))
        self.detector.on_state_change = self._on_state_change
        self.detector.start()

    def _on_state_change(self, observer: str, subject: str,
                         state: MemberState) -> None:
        if state in (MemberState.SUSPECT, MemberState.DEAD):
            self.suspicions += 1

    def start(self) -> None:
        self._tasks = [asyncio.ensure_future(self._generate())]

    async def _generate(self) -> None:
        rng = self.rng
        lanes = self.lanes
        mean_gap_ns = 1e9 / PACED_RATE
        due = _now()
        try:
            while not self.stopping:
                now = _now()
                if due > now:
                    await asyncio.sleep((due - now) / 1e9)
                    continue
                self.lag.append(now - due)
                await self.submit(lanes[rng.randrange(len(lanes))])
                due += int(rng.expovariate(1.0) * mean_gap_ns)
                # Let the loop carry this message before the next one
                # goes, as it would for independent senders: a late
                # wake-up must not turn due arrivals into one burst.
                await asyncio.sleep(0)
        except ChannelBroken as exc:
            self.progress.fail(repr(exc))

    async def close(self) -> None:
        if self.detector is not None:
            await self.detector.stop()
            self.detector = None
        await super().close()

    def layer_counts(self) -> Dict[str, float]:
        return {"membership.suspicions": self.suspicions,
                "lag.samples": len(self.lag)}


# ---------------------------------------------------------------------------
# all-reduce
# ---------------------------------------------------------------------------


class AllreduceCr(Workload):
    """Back-to-back rendezvous all-reduces, every result checked.

    Every :data:`GROUP_OPS` ops the group is closed and a fresh one
    opened; its first op creates the lanes, as the warm-up op of the
    set-up does.  A closed group's lanes sit in reference cycles, and
    cyclic collection rarely runs here (few tracked objects hold many
    words), so the harness collects them at once.  That collection is
    left out of the timed window.
    """

    name = "allreduce-cr"
    #: Application words one op delivers: gather to the root plus
    #: broadcast back, 2 (N - 1) vectors.
    words_per_op = 2 * (PEERS - 1) * VECTOR_WORDS

    def __init__(self, seed: int,
                 recorder: Optional[SpanRecorder] = None) -> None:
        super().__init__(seed, recorder)
        self.config = CollectiveConfig()
        self.names = peer_names()
        self.base = {name: [self.rng.getrandbits(32)
                            for _ in range(VECTOR_WORDS)]
                     for name in self.names}
        total = [0] * VECTOR_WORDS
        for vector in self.base.values():
            total = [(a + b) & _MASK for a, b in zip(total, vector)]
        self.base_sum = total
        self.group = None
        self.ops = 0
        self.group_ops = 0
        #: Every completed op's transfer legs, across groups.
        self.transfers: list = []
        #: Counters of groups already closed.
        self.retired = {"deferred": 0, "ooo": 0, "duplicates": 0}
        #: (src, dst) -> [bulk-lane receive records, records checked].
        self._bulk: Dict[Tuple[str, str], list] = {}
        if recorder is not None:
            self.inputs = recorder.sync("bench.inputs", self.inputs)
            self.check = recorder.sync("bench.check", self.check)

    async def setup(self) -> None:
        self.fabric = Fabric(mode="cr", backoff=BACKOFF)
        for name in self.names:
            await self.fabric.add_peer(name)
        self.group = self.fabric.collective(self.names, self.config)
        # Lanes are created on first use: one checked op sets them up.
        await self._one_op(record=False)

    async def _replace_group(self) -> None:
        # The base count covers only the open lanes, which are retiring.
        ooo, duplicates = Workload.receive_counts(self)
        self.retired["ooo"] += ooo
        self.retired["duplicates"] += duplicates
        self.retired["deferred"] += self._deferred()
        await self.group.close()
        self._bulk.clear()
        self.group = None
        wall, cpu = _now(), time.process_time_ns()
        gc.collect()
        self.paused_wall_ns += _now() - wall
        self.paused_cpu_ns += time.process_time_ns() - cpu
        self.group = self.fabric.collective(self.names, self.config)
        self.group_ops = 0

    def _deferred(self) -> int:
        return sum(stats["deferred"]
                   for stats in self.group.admission_stats().values())

    def inputs(self, op: int) -> Tuple[Dict[str, List[int]], List[int]]:
        """Op ``op``'s vectors (word 0 tagged with the op number) and
        their elementwise sum."""
        values = {}
        for name, vector in self.base.items():
            vector = vector[:]
            vector[0] = (vector[0] + op) & _MASK
            values[name] = vector
        expected = self.base_sum[:]
        expected[0] = (expected[0] + PEERS * op) & _MASK
        return values, expected

    def _received(self, src: str, dst: str) -> List[int]:
        """Words that arrived on the bulk lane ``src`` -> ``dst`` since
        the last look."""
        if not self._bulk:
            for name in self.names:
                for conn in self.fabric.connections_of(name):
                    channel = conn.channel
                    if channel.packet_words == self.config.bulk_packet_words:
                        self._bulk[(conn.src, conn.dst)] = [
                            channel.receive_buffer.records, 0]
        entry = self._bulk[(src, dst)]
        records, seen = entry
        entry[1] = len(records)
        return list(itertools.chain.from_iterable(records[seen:]))

    async def _one_op(self, record: bool = True) -> None:
        op = self.ops
        self.ops += 1
        self.group_ops += 1
        values, expected = self.inputs(op)
        self.progress.attempted += 1
        if self.recorder is not None:
            OP_ID.set(op + 1)
        start = _clock()
        try:
            result = await self.group.all_reduce(values, op="sum")
        except CollectiveError as exc:
            self.progress.fail(f"op {op}: {exc!r}")
            return
        latency = _clock() - start
        bad = self.check(result, values, expected)
        if bad:
            self.progress.fail(f"op {op}: wrong data at {bad}")
        elif record:
            self.progress.complete(latency, self.words_per_op)
            self.transfers.extend(result.transfers)

    def check(self, result, values: Dict[str, List[int]],
              expected: List[int]) -> List[str]:
        """Members whose data differs from the inputs or the sum: the
        root's returned vector, each contribution the root received,
        and the result each other member received."""
        root = self.names[0]
        bad = [] if result.completed and result.result == expected \
            else [root]
        for name in self.names[1:]:
            if self._received(name, root) != values[name]:
                bad.append(f"{name}->{root}")
            if self._received(root, name) != expected:
                bad.append(name)
        return bad

    def start(self) -> None:
        self._tasks = [asyncio.ensure_future(self._loop())]

    async def _loop(self) -> None:
        while not self.stopping:
            if self.group_ops >= GROUP_OPS:
                await self._replace_group()
            await self._one_op()

    def outstanding(self) -> int:
        # The loop finishes the op in flight before it sees `stopping`.
        return 0 if self._tasks[0].done() else 1

    async def close(self) -> None:
        if self.group is not None:
            await self.group.close()
            self.group = None
        await super().close()

    def receive_counts(self) -> Tuple[int, int]:
        ooo, duplicates = super().receive_counts()
        return (ooo + self.retired["ooo"],
                duplicates + self.retired["duplicates"])

    def layer_counts(self) -> Dict[str, float]:
        return {
            "collectives.transfers": len(self.transfers),
            "collectives.hdr_retries": sum(t.hdr_retries
                                           for t in self.transfers),
            "collectives.deferred": self.retired["deferred"]
            + self._deferred(),
        }


WORKLOADS = {cls.name: cls for cls in (StreamCm5, PacedCrSwim, AllreduceCr)}
