"""Tests for the user-facing channels API."""

import pytest

from repro import quick_cr_setup, quick_setup
from repro.api import Endpoint, bulk_put, open_channel


def cmam_endpoints():
    sim, a, b, _net = quick_setup()
    return sim, Endpoint(a), Endpoint(b)


def cr_endpoints():
    sim, a, b, _net = quick_cr_setup()
    return sim, Endpoint(a), Endpoint(b)


class TestEndpoint:
    def test_one_endpoint_per_node(self):
        sim, a, b, _net = quick_setup()
        Endpoint(a)
        with pytest.raises(ValueError):
            Endpoint(a)

    def test_active_message_roundtrip(self):
        sim, ea, eb = cmam_endpoints()
        got = []

        @eb.on("ping")
        def ping(node, *words):
            got.append(words)

        ea.send_am(eb, "ping", (1, 2, 3, 4))
        sim.run()
        assert got == [(1, 2, 3, 4)]


class TestChannel:
    def test_cmam_channel_orders_data(self):
        sim, ea, eb = cmam_endpoints()
        channel = open_channel(ea, eb)
        payload = list(range(7, 107))
        packets = channel.send(payload)
        sim.run()
        channel.close()
        assert channel.mode == "cmam"
        assert packets == 25
        assert channel.receive_buffer.read() == payload

    def test_channel_multiple_sends_concatenate(self):
        sim, ea, eb = cmam_endpoints()
        channel = open_channel(ea, eb)
        channel.send([1, 2, 3])
        channel.send([4, 5])
        sim.run()
        channel.close()
        assert channel.receive_buffer.read() == [1, 2, 3, 4, 5]

    def test_windowed_channel(self):
        sim, ea, eb = cmam_endpoints()
        channel = open_channel(ea, eb, window=4)
        payload = list(range(1, 129))
        channel.send(payload)
        sim.run()
        channel.close()
        assert channel.mode == "windowed"
        assert channel.receive_buffer.read() == payload

    def test_cr_channel_selected_automatically(self):
        sim, ea, eb = cr_endpoints()
        channel = open_channel(ea, eb)
        payload = list(range(1, 65))
        channel.send(payload)
        sim.run()
        assert channel.mode == "cr"
        assert channel.receive_buffer.read() == payload
        assert channel.outstanding == 0  # no source buffering on CR

    def test_record_callback(self):
        sim, ea, eb = cmam_endpoints()
        channel = open_channel(ea, eb)
        seen = []
        channel.receive_buffer.on_record(seen.append)
        channel.send([1, 2, 3, 4, 5, 6, 7, 8])
        sim.run()
        channel.close()
        assert seen == [(1, 2, 3, 4), (5, 6, 7, 8)]

    def test_receive_buffer_holds_each_word_once(self):
        """Regression: the buffer kept every delivered word twice, once
        in its record and once more in a flat word list.  It now keeps
        the records and a word count, so what it retains beyond the
        records list is a constant."""
        import sys
        import tracemalloc

        from repro.api import channel as channel_module

        records = [tuple(range(r, r + 8)) for r in range(1000)]
        buffer = channel_module.ChannelReceiveBuffer()
        tracemalloc.start()
        try:
            for seq, record in enumerate(records):
                buffer._deliver(seq, record)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert buffer.records == records
        assert len(buffer) == 8000
        assert buffer.read() == [w for record in records for w in record]
        mine = snapshot.filter_traces(
            [tracemalloc.Filter(True, channel_module.__file__)])
        retained = sum(stat.size for stat in mine.statistics("filename"))
        # A second word list would add ~8 B per word (~64 kB here).
        assert retained <= sys.getsizeof(buffer.records) + 256, retained

    def test_cross_network_rejected(self):
        sim1, ea, _eb = cmam_endpoints()
        sim2, _ec, ed = cmam_endpoints()
        with pytest.raises(ValueError):
            open_channel(ea, ed)


class TestBulk:
    def test_cmam_bulk_roundtrip(self):
        sim, ea, eb = cmam_endpoints()
        data = list(range(42, 142))
        result = bulk_put(ea, eb, data)
        assert result.completed
        assert result.mode == "cmam"
        assert result.data == data
        assert result.packets == 25

    def test_cr_bulk_roundtrip(self):
        sim, ea, eb = cr_endpoints()
        data = list(range(1, 33))
        result = bulk_put(ea, eb, data)
        assert result.completed
        assert result.mode == "cr"
        assert result.data == data

    def test_sequential_bulk_transfers(self):
        sim, ea, eb = cmam_endpoints()
        first = bulk_put(ea, eb, [1, 2, 3, 4])
        second = bulk_put(ea, eb, [9, 8, 7, 6, 5])
        assert first.completed and second.completed
        assert second.data == [9, 8, 7, 6, 5]

    def test_bidirectional_bulk(self):
        sim, ea, eb = cmam_endpoints()
        there = bulk_put(ea, eb, [1, 2, 3, 4])
        back = bulk_put(eb, ea, [5, 6, 7, 8])
        assert there.completed and back.completed
        assert back.data == [5, 6, 7, 8]

    def test_cross_network_rejected(self):
        sim1, ea, _eb = cmam_endpoints()
        sim2, _ec, ed = cmam_endpoints()
        with pytest.raises(ValueError):
            bulk_put(ea, ed, [1])
