"""Tests for RuntimeEndpoint's batched send path and close.

Frames join a per-destination FIFO queue drained by one flush per
event-loop tick, and the flush puts each datagram on the wire through
the transport's synchronous ``send_now`` — the only send path.  These
tests pin the surface guarantees on transport doubles that implement
just that: errors surface to a counter, frames for one destination keep
their post order, close never drops queued frames, and sending never
creates an asyncio task.
"""

import asyncio
import gc

from repro.runtime.endpoint import RuntimeEndpoint
from repro.runtime.frames import data_frame, decode_frame, is_batch, iter_batch
from repro.runtime.tracing import EventType, Tracer
from repro.runtime.transport import LoopbackHub, Transport


class _WireTransport(Transport):
    """A transport double that records what ``send_now`` puts on the wire."""

    def __init__(self):
        super().__init__()
        self.wire = []

    @property
    def local_address(self):
        return "src"

    def send_now(self, dst, data):
        self.wire.append(bytes(data))

    def seqs(self):
        """Frame sequence numbers in wire order, containers unbundled."""
        seqs = []
        for datagram in self.wire:
            if is_batch(datagram):
                seqs.extend(decode_frame(s).seq for s in iter_batch(datagram))
            else:
                seqs.append(decode_frame(datagram).seq)
        return seqs


class _ExplodingTransport(_WireTransport):
    """A transport whose send always raises, for surfacing-path tests."""

    def send_now(self, dst, data):
        raise OSError("wire on fire")


class TestPostFrame:
    def test_queued_frames_survive_gc_and_drain_in_order(self, drive):
        """Regression: posted frames must not be lost to a GC pass (the
        old per-frame tasks were only weakly referenced by asyncio)."""

        async def body():
            transport = _WireTransport()
            ep = RuntimeEndpoint(transport, name="src")
            for seq in range(4):
                ep.post_frame("dst", data_frame(channel=1, seq=seq,
                                                payload=[seq]))
            queued = ep.pending_posts
            gc.collect()
            await asyncio.sleep(0)       # the flush tick
            return queued, ep.pending_posts, len(transport.wire), \
                transport.seqs()

        queued, after, datagrams, seqs = drive(body())
        assert queued == 4
        assert after == 0
        assert datagrams == 1            # the queued run as one container
        assert seqs == [0, 1, 2, 3]

    def test_posted_send_errors_surface_to_the_counter(self, drive):
        """Regression: a raised posted send was a swallowed task
        exception — invisible to callers and to the event loop."""

        async def body():
            unhandled = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda _loop, ctx: unhandled.append(ctx)
            )
            ep = RuntimeEndpoint(_ExplodingTransport(), name="src")
            frame = data_frame(channel=1, seq=0, payload=[1])
            ep.post_frame("dst", frame)
            await asyncio.sleep(0)       # the flush tick
            await asyncio.sleep(0.01)    # let stray exceptions surface
            return ep.send_errors, ep.pending_posts, unhandled

        errors, pending, unhandled = drive(body())
        assert errors == 1
        assert pending == 0
        assert unhandled == []

    def test_traced_flush_counts_send_errors_and_emits_no_flush(self, drive):
        async def body():
            tracer = Tracer()
            ep = RuntimeEndpoint(_ExplodingTransport(), name="src",
                                 tracer=tracer)
            for seq in range(3):
                ep.post_frame("dst", data_frame(channel=1, seq=seq,
                                                payload=[seq]))
            await asyncio.sleep(0)
            flushes = [e for e in tracer.events()
                       if e.etype is EventType.FLUSH]
            return ep.send_errors, ep.pending_posts, flushes

        errors, pending, flushes = drive(body())
        assert errors == 1               # one container, one failed send
        assert pending == 0
        assert flushes == []

    def test_close_waits_for_inflight_posts(self, drive):
        """close() must not turn queued posted frames into packet loss."""

        async def body():
            hub = LoopbackHub.cr()
            a, b = hub.attach("a"), hub.attach("b")
            ep = RuntimeEndpoint(a, name="src")
            rx = RuntimeEndpoint(b, name="dst")
            got = []
            rx.bind(1, lambda frame, src: got.append(frame.seq))
            for seq in range(5):
                ep.post_frame("b", data_frame(channel=1, seq=seq,
                                              payload=[seq]))
            await ep.close()             # no flush tick ran before close
            await asyncio.sleep(0.01)
            return got, ep.pending_posts

        got, pending = drive(body())
        assert got == [0, 1, 2, 3, 4]
        assert pending == 0

    def test_same_destination_frames_stay_in_post_order(self, drive):
        """Frames for one destination reach the wire in the order they
        were posted, across flush ticks, and a burst posted within one
        tick goes out as a single container."""

        async def body():
            transport = _WireTransport()
            ep = RuntimeEndpoint(transport, name="src")
            ep.post_frame("dst", data_frame(channel=1, seq=0, payload=[0]))
            await asyncio.sleep(0)        # flush tick: seq 0 goes alone
            for seq in range(1, 6):
                ep.post_frame("dst", data_frame(channel=1, seq=seq,
                                                payload=[seq]))
            await asyncio.sleep(0)        # flush tick: the burst
            return ([is_batch(d) for d in transport.wire], transport.seqs(),
                    ep.batches_sent, ep.batched_frames)

        shapes, seqs, batches, batched = drive(body())
        assert shapes == [False, True]
        assert seqs == [0, 1, 2, 3, 4, 5]
        assert (batches, batched) == (1, 5)

    def test_posting_and_flushing_create_no_task(self, drive):
        async def body():
            transport = _WireTransport()
            ep = RuntimeEndpoint(transport, name="src")
            before = asyncio.all_tasks()
            for seq in range(8):
                for dst in ("b", "c"):
                    ep.post_frame(dst, data_frame(channel=1, seq=seq,
                                                  payload=[seq]))
                await ep.send_frame("b", data_frame(channel=2, seq=seq,
                                                    payload=[seq]))
            during = asyncio.all_tasks()
            await asyncio.sleep(0)        # the flush tick
            return before, during, asyncio.all_tasks(), len(transport.wire)

        before, during, after, datagrams = drive(body())
        assert during == before
        assert after == before
        assert datagrams == 2             # one container per destination


class TestBatching:
    def test_burst_to_one_peer_coalesces_into_one_datagram(self, drive):
        async def body():
            hub = LoopbackHub.cr()
            a, b = hub.attach("a"), hub.attach("b")
            ep = RuntimeEndpoint(a, name="src")
            rx = RuntimeEndpoint(b, name="dst")
            got = []
            rx.bind(1, lambda frame, src: got.append(frame.seq))
            for seq in range(6):
                ep.post_frame("b", data_frame(channel=1, seq=seq, payload=[seq]))
            await asyncio.sleep(0.01)
            return (a.datagrams_sent, ep.batches_sent, ep.batched_frames,
                    rx.frames_received, got)

        datagrams, batches, batched, received, got = drive(body())
        assert datagrams == 1
        assert batches == 1
        assert batched == 6
        assert received == 6
        assert got == list(range(6))     # in-order unbundle

    def test_lone_frame_skips_the_container(self, drive):
        async def body():
            hub = LoopbackHub.cr()
            a, b = hub.attach("a"), hub.attach("b")
            ep = RuntimeEndpoint(a, name="src")
            rx = RuntimeEndpoint(b, name="dst")
            got = []
            rx.bind(1, lambda frame, src: got.append(frame.seq))
            ep.post_frame("b", data_frame(channel=1, seq=5, payload=[1]))
            await asyncio.sleep(0.01)
            return a.datagrams_sent, ep.batches_sent, got

        datagrams, batches, got = drive(body())
        assert datagrams == 1
        assert batches == 0              # singletons ride bare
        assert got == [5]

    def test_distinct_destinations_get_distinct_datagrams(self, drive):
        async def body():
            hub = LoopbackHub.cr()
            a = hub.attach("a")
            b, c = hub.attach("b"), hub.attach("c")
            ep = RuntimeEndpoint(a, name="src")
            got_b, got_c = [], []
            RuntimeEndpoint(b, name="b").bind(
                1, lambda frame, src: got_b.append(frame.seq))
            RuntimeEndpoint(c, name="c").bind(
                1, lambda frame, src: got_c.append(frame.seq))
            for seq in range(4):
                ep.post_frame("b", data_frame(channel=1, seq=seq, payload=[1]))
                ep.post_frame("c", data_frame(channel=1, seq=seq, payload=[1]))
            await asyncio.sleep(0.01)
            return a.datagrams_sent, got_b, got_c

        datagrams, got_b, got_c = drive(body())
        assert datagrams == 2            # one container per destination
        assert got_b == list(range(4))
        assert got_c == list(range(4))
