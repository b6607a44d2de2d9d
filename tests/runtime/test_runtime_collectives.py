"""Fabric collectives: eager/rendezvous switching, admission, chaos.

Covers the protocol-switch boundary exactly (at the threshold, one
word either side), every collective op in both substrate modes with a
clean exactly-once audit, rendezvous admission (immediate and
deferred grants), membership safety (typed errors instead of hangs),
the broadcast-through-partition chaos scenario, and the all-reduce
root's columnwise fold against the pairwise reference it replaced.
"""

from __future__ import annotations

import asyncio
import struct
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import collectives
from repro.runtime.collectives import (
    AUDIT_CID,
    CH_COLLECTIVE,
    CollectiveConfig,
    CollectiveError,
    CollectiveGroup,
    CollectiveMembershipError,
    EAGER,
    RENDEZVOUS,
    collective_op_violations,
    run_broadcast_partition,
)
from repro.runtime.fabric import Fabric
from repro.runtime.flowcontrol import RendezvousAdmission
from repro.runtime.frames import FrameError
from repro.runtime.loadgen import AuditLedger
from repro.runtime.tracing import EventType, Tracer


def make_fabric(mode: str = "cr", tracer=None, **faults) -> Fabric:
    return Fabric(mode=mode, tracer=tracer, **faults)


async def fabric_with_peers(names, mode="cr", tracer=None, **faults):
    fabric = make_fabric(mode=mode, tracer=tracer, **faults)
    for name in names:
        await fabric.add_peer(name)
    return fabric


class TestProtocolSwitch:
    """The eager/rendezvous decision, pinned at the boundary."""

    def test_payload_at_threshold_stays_eager(self):
        cfg = CollectiveConfig(eager_threshold_words=256)
        assert cfg.mode_for(256) == EAGER

    def test_payload_one_past_threshold_goes_rendezvous(self):
        cfg = CollectiveConfig(eager_threshold_words=256)
        assert cfg.mode_for(257) == RENDEZVOUS

    def test_payload_one_short_of_threshold_stays_eager(self):
        cfg = CollectiveConfig(eager_threshold_words=256)
        assert cfg.mode_for(255) == EAGER

    def test_forced_protocols_ignore_size(self):
        eager = CollectiveConfig(protocol="eager",
                                 eager_threshold_words=8)
        rdv = CollectiveConfig(protocol="rendezvous",
                               eager_threshold_words=8)
        assert eager.mode_for(10_000) == EAGER
        assert rdv.mode_for(1) == RENDEZVOUS

    def test_transfers_at_the_boundary_use_the_decided_mode(self, drive):
        """A broadcast exactly at the threshold runs eager end to end;
        one word more and the same group runs rendezvous."""
        async def scenario():
            fabric = await fabric_with_peers(["a", "b"])
            cfg = CollectiveConfig(eager_threshold_words=32)
            group = CollectiveGroup(fabric, config=cfg)
            try:
                at = await group.broadcast("a", list(range(32)))
                past = await group.broadcast("a", list(range(33)))
                return at, past
            finally:
                await group.close()
                await fabric.close()

        at, past = drive(scenario())
        assert at.completed and at.modes == (EAGER,)
        assert past.completed and past.modes == (RENDEZVOUS,)
        rdv = past.transfers[0]
        assert rdv.handshake_ns > 0      # a real GRANT round-trip
        assert at.transfers[0].handshake_ns == 0

    def test_nonsense_configs_are_rejected(self):
        with pytest.raises(ValueError):
            CollectiveConfig(protocol="psychic")
        with pytest.raises(ValueError):
            CollectiveConfig(eager_threshold_words=0)


class TestCollectiveOps:
    """All three collectives complete with verified payloads."""

    @pytest.mark.parametrize("mode", ["cr", "cm5"])
    def test_broadcast_delivers_to_every_member(self, drive, mode):
        async def scenario():
            fabric = await fabric_with_peers(["a", "b", "c", "d"],
                                             mode=mode)
            group = fabric.collective()
            try:
                return await group.broadcast("a", list(range(100)))
            finally:
                await group.close()
                await fabric.close()

        result = drive(scenario())
        assert result.completed
        assert set(result.received) == {"a", "b", "c", "d"}
        assert all(words == list(range(100))
                   for words in result.received.values())

    @pytest.mark.parametrize("mode", ["cr", "cm5"])
    def test_scatter_routes_each_chunk_to_its_member(self, drive, mode):
        chunks = {"a": [1], "b": [2, 3], "c": [4, 5, 6]}

        async def scenario():
            fabric = await fabric_with_peers(["a", "b", "c"], mode=mode)
            group = fabric.collective()
            try:
                return await group.scatter("a", chunks)
            finally:
                await group.close()
                await fabric.close()

        result = drive(scenario())
        assert result.completed
        assert result.received == chunks

    @pytest.mark.parametrize("mode", ["cr", "cm5"])
    def test_gather_collects_every_contribution(self, drive, mode):
        values = {"a": [9], "b": [10, 11], "c": [12]}

        async def scenario():
            fabric = await fabric_with_peers(["a", "b", "c"], mode=mode)
            group = fabric.collective()
            try:
                return await group.gather("a", values)
            finally:
                await group.close()
                await fabric.close()

        result = drive(scenario())
        assert result.completed
        assert result.received == values

    @pytest.mark.parametrize("mode", ["cr", "cm5"])
    def test_all_reduce_reduces_and_redistributes(self, drive, mode):
        async def scenario():
            fabric = await fabric_with_peers(["a", "b", "c"], mode=mode)
            group = fabric.collective()
            try:
                return await group.all_reduce(
                    {"a": [1, 2], "b": [3, 4], "c": [5, 6]})
            finally:
                await group.close()
                await fabric.close()

        result = drive(scenario())
        assert result.completed
        assert result.result == [9, 12]
        assert all(v == [9, 12] for v in result.received.values())
        # Every member's copy, and the result, is its own list.
        vectors = [result.result, *result.received.values()]
        assert len({id(v) for v in vectors}) == 4

    @pytest.mark.parametrize("op", ["sum", "max", "min"])
    def test_all_reduce_ops_on_words_near_the_wrap(self, drive, op):
        """Each reduction folds full 32-bit words; ``sum`` wraps at
        2**32 like the word the wire carries."""
        values = {"a": [0xFFFFFFFF, 0xFFFFFFFE, 1, 0, 0x80000000],
                  "b": [1, 0xFFFFFFFF, 0xFFFFFFF0, 0, 0x80000000],
                  "c": [0xFFFFFFFF, 2, 0x7FFFFFFF, 0xFFFFFFFF, 5]}
        fold = {"sum": lambda acc, w: (acc + w) % 2**32,
                "max": lambda acc, w: acc if acc >= w else w,
                "min": lambda acc, w: acc if acc <= w else w}[op]
        expected = []
        for column in zip(*values.values()):
            acc = column[0]
            for word in column[1:]:
                acc = fold(acc, word)
            expected.append(acc)

        async def scenario():
            fabric = await fabric_with_peers(["a", "b", "c"])
            group = fabric.collective()
            try:
                return await group.all_reduce(values, op=op)
            finally:
                await group.close()
                await fabric.close()

        result = drive(scenario())
        assert result.completed
        assert result.result == expected
        assert all(v == expected for v in result.received.values())

    def test_all_reduce_folds_the_words_sent_not_the_callers_buffers(
            self, drive):
        """The caller reuses its buffers while the op is in flight: the
        result is the reduction of the vectors as they were at the
        call, which is also what the wire carried."""
        values = {"a": [1, 2], "b": [3, 4], "c": [5, 6]}

        async def scenario():
            fabric = await fabric_with_peers(["a", "b", "c"])
            group = fabric.collective()
            try:
                task = asyncio.ensure_future(group.all_reduce(values))
                await asyncio.sleep(0)
                values["b"][0] = 100        # a contributor's buffer
                values["a"][1] = 100        # the root's own buffer
                return await task
            finally:
                await group.close()
                await fabric.close()

        result = drive(scenario())
        assert result.completed
        assert result.result == [9, 12]
        assert all(v == [9, 12] for v in result.received.values())

    def test_out_of_range_words_keep_their_contract(self, drive):
        """The root's own words never cross the wire and are reduced mod
        2**32; a contributor's word outside 32 bits raises
        ``FrameError``, and the group stays usable."""
        async def scenario():
            fabric = await fabric_with_peers(["a", "b", "c"])
            group = fabric.collective()
            try:
                root = await group.all_reduce(
                    {"a": [2**32 + 5, -1], "b": [1, 2], "c": [3, 4]})
                errors = []
                for bad in (2**32, -1):
                    with pytest.raises(FrameError):
                        await group.all_reduce(
                            {"a": [1, 2], "b": [bad, 1], "c": [3, 4]})
                    with pytest.raises(FrameError):
                        await group.broadcast("a", [bad])
                    errors.append(bad)
                after = await group.all_reduce(
                    {"a": [1, 2], "b": [1, 2], "c": [3, 4]})
                return root, errors, after
            finally:
                await group.close()
                await fabric.close()

        root, errors, after = drive(scenario())
        assert root.completed and root.result == [9, 5]
        assert errors == [2**32, -1]
        assert after.completed and after.result == [5, 8]

    def test_every_op_returns_plain_lists(self, drive):
        """Words travel as 32-bit arrays; ``.result`` and
        ``.received`` are plain lists at the API edge."""
        async def scenario():
            fabric = await fabric_with_peers(["a", "b", "c"])
            group = fabric.collective()
            try:
                return [
                    await group.broadcast("a", [1, 2]),
                    await group.scatter("a", {"a": [1], "b": [2], "c": [3]}),
                    await group.gather("a", {"a": [1], "b": [2], "c": [3]}),
                    await group.all_reduce(
                        {"a": [1, 2], "b": [3, 4], "c": [5, 6]}),
                ]
            finally:
                await group.close()
                await fabric.close()

        results = drive(scenario())
        assert all(r.completed for r in results)
        for result in results:
            assert set(result.received) == {"a", "b", "c"}
            assert all(type(words) is list
                       for words in result.received.values())
        assert type(results[-1].result) is list

    def test_all_reduce_runs_both_phases_over_rendezvous(self, drive):
        """Above the threshold, both the reduce and the redistribute
        phase ride the bulk protocol — 2·(N−1) rendezvous legs."""
        async def scenario():
            fabric = await fabric_with_peers(["a", "b", "c"])
            cfg = CollectiveConfig(eager_threshold_words=64)
            group = CollectiveGroup(fabric, config=cfg)
            try:
                return await group.all_reduce(
                    {n: [i] * 100 for i, n in enumerate(["a", "b", "c"])})
            finally:
                await group.close()
                await fabric.close()

        result = drive(scenario())
        assert result.completed
        assert len(result.transfers) == 4
        assert set(t.mode for t in result.transfers) == {RENDEZVOUS}
        assert all(t.handshake_ns > 0 for t in result.transfers)

    def test_all_reduce_rejects_mismatched_vectors(self, drive):
        async def scenario():
            fabric = await fabric_with_peers(["a", "b"])
            group = fabric.collective()
            try:
                with pytest.raises(CollectiveError):
                    await group.all_reduce({"a": [1, 2], "b": [3]})
                with pytest.raises(CollectiveError):
                    await group.all_reduce({"a": [1]})
                with pytest.raises(CollectiveError):
                    await group.all_reduce({"a": [1], "b": [2]},
                                           op="median")
            finally:
                await group.close()
                await fabric.close()

        drive(scenario())

    def test_all_reduce_row_catches_a_fold_that_moves_columns(
            self, drive, monkeypatch):
        """The smoke row's vectors differ per column, so its audit
        fails a fold that rotates the reduced columns; with one value
        in every column the rotated result would still compare equal."""
        def all_reduce_row():
            report = drive(collectives.measure_collective_ops(
                mode="cr", peers=4, payload_words=96))
            return next(row for row in report["rows"]
                        if row["op"] == "all_reduce")

        assert collective_op_violations(all_reduce_row()) == []
        fold = collectives._fold

        def rotated(op, own, contributions):
            reduced = fold(op, own, contributions)
            return reduced[1:] + reduced[:1]

        monkeypatch.setattr(collectives, "_fold", rotated)
        assert collective_op_violations(all_reduce_row()) == [
            "coll/all_reduce/cr payload audit is dirty"]

    def test_audited_broadcast_is_exactly_once(self, drive):
        """Deterministic ledger stamps make a broadcast auditable per
        receiving peer: identical words, independent verdicts."""
        async def scenario():
            fabric = await fabric_with_peers(["r", "x", "y"], mode="cm5",
                                             drop_rate=0.05)
            group = fabric.collective()
            ledgers = {p: AuditLedger() for p in ("x", "y")}
            try:
                for rnd in range(4):
                    filler = [rnd * 7 + i for i in range(29)]
                    words = None
                    for peer in ("x", "y"):
                        words = ledgers[peer].stamp(AUDIT_CID, rnd, filler)
                    result = await group.broadcast("r", words)
                    for peer in ("x", "y"):
                        ledgers[peer].record_delivery(
                            AUDIT_CID, result.received[peer])
                return {p: lg.verdict() for p, lg in ledgers.items()}
            finally:
                await group.close()
                await fabric.close()

        reports = drive(scenario())
        for report in reports.values():
            assert report.clean
            assert report.delivered == 4


def pairwise_fold(op, own, contributions):
    """The root's fold as it was: mask the root's words, then fold in
    one contribution at a time, one reducer call per word."""
    reducer = {"sum": lambda acc, x: (acc + x) & 0xFFFFFFFF,
               "max": max, "min": min}[op]
    reduced = [w & 0xFFFFFFFF for w in own]
    for words in contributions:
        reduced = [reducer(acc, w & 0xFFFFFFFF)
                   for acc, w in zip(reduced, words)]
    return reduced


def wire_words(n):
    """``n`` words the codec can deliver: each in [0, 2**32)."""
    return st.binary(min_size=4 * n, max_size=4 * n).map(
        lambda raw: list(struct.unpack(f"<{n}I", raw)))


#: The root's own words never cross the wire, so some may be out of
#: range: negative, or at and beyond 2**32.
out_of_range = st.one_of(st.integers(min_value=-2**40, max_value=-1),
                         st.integers(min_value=2**32, max_value=2**40))


@st.composite
def fold_inputs(draw):
    """An op, the root's vector and 1-7 contributions, all of one
    length or (ragged) each of its own, which the fold truncates."""
    op = draw(st.sampled_from(["sum", "max", "min"]))
    length = draw(st.integers(min_value=1, max_value=64))
    ragged = draw(st.booleans())

    def size():
        return (draw(st.integers(min_value=1, max_value=64)) if ragged
                else length)

    own = draw(wire_words(size()))
    for index in draw(st.lists(st.integers(min_value=0,
                                           max_value=len(own) - 1),
                               max_size=4)):
        own[index] = draw(out_of_range)
    contributors = draw(st.integers(min_value=1, max_value=7))
    return op, own, [draw(wire_words(size())) for _ in range(contributors)]


@st.composite
def sum_inputs(draw):
    """The root's vector and 1-7 contributions, each a list or an
    ``array('I')``, of one length or ragged, with words pinned at 0 and
    2**32-1, where carries happen; the root's may hold out-of-range
    words."""
    length = draw(st.integers(min_value=1, max_value=64))
    ragged = draw(st.booleans())

    def vector(root=False):
        size = (draw(st.integers(min_value=1, max_value=64)) if ragged
                else length)
        words = draw(wire_words(size))
        edge = draw(st.sampled_from([0, 0xFFFFFFFF]))
        for index in draw(st.lists(st.integers(0, size - 1), max_size=8)):
            words[index] = edge
        if root and draw(st.booleans()):
            words[draw(st.integers(0, size - 1))] = draw(out_of_range)
            return words
        return array("I", words) if draw(st.booleans()) else words

    own = vector(root=True)
    contributors = draw(st.integers(min_value=1, max_value=7))
    return own, [vector() for _ in range(contributors)]


class TestFold:
    """The root's fold against the pairwise reference."""

    @settings(max_examples=300, deadline=None)
    @given(inputs=fold_inputs())
    def test_fold_matches_the_pairwise_reference(self, inputs):
        op, own, contributions = inputs
        before = ([*own], [[*words] for words in contributions])
        assert (collectives._fold(op, own, contributions)
                == pairwise_fold(op, own, contributions))
        assert (own, contributions) == before

    @pytest.mark.parametrize("op, expected", [
        ("sum", [0xFFFFFFFF, 0xFFFFFFFF, 3]),
        ("max", [0xFFFFFFFF, 0xFFFFFFFF, 2]),
        ("min", [0, 0, 1])])
    def test_root_words_out_of_range_are_masked(self, op, expected):
        own = [-1, 2**32, 2**33 + 1]
        assert collectives._fold(op, own, [[0, 0xFFFFFFFF, 2]]) == expected

    @settings(max_examples=300, deadline=None)
    @given(inputs=sum_inputs())
    def test_lane_masked_sum_matches_the_pairwise_reference(self, inputs):
        """The sum adds whole vectors with even and odd lanes masked
        apart: a word's carry must never reach its neighbour, whatever
        the container, length (odd included) or raggedness."""
        own, contributions = inputs
        before = (list(own), [list(words) for words in contributions])
        assert (collectives._fold("sum", own, contributions)
                == pairwise_fold("sum", *before))
        assert (list(own), [list(w) for w in contributions]) == before

    @pytest.mark.parametrize("length", [1, 2, 3, 63, 64, 4096])
    def test_sum_of_all_ones_words_carries_nowhere(self, length):
        """Seven contributors of 0xFFFFFFFF in every word: each column
        carries out of its word, and must wrap there, not spill."""
        ones = array("I", [0xFFFFFFFF] * length)
        reduced = collectives._fold("sum", ones, [ones] * 7)
        assert reduced == [(8 * 0xFFFFFFFF) & 0xFFFFFFFF] * length


class TestRendezvousAdmission:
    """The bounded bulk budget behind COLL_GRANT."""

    def test_try_admit_respects_the_budget(self):
        adm = RendezvousAdmission(100)
        assert adm.try_admit(60)
        assert not adm.try_admit(50)
        adm.release(60)
        assert adm.try_admit(50)

    def test_oversized_transfer_admits_alone(self):
        """A transfer bigger than the whole budget must not deadlock —
        it is admitted when nothing else holds a grant."""
        adm = RendezvousAdmission(100)
        assert adm.try_admit(500)
        assert not adm.try_admit(1)
        adm.release(500)
        assert adm.try_admit(1)

    def test_admit_blocks_until_release(self, drive):
        async def scenario():
            adm = RendezvousAdmission(100)
            assert adm.try_admit(80)
            waiter = asyncio.ensure_future(adm.admit(40))
            await asyncio.sleep(0.01)
            assert not waiter.done()
            adm.release(80)
            await asyncio.wait_for(waiter, 1.0)
            assert adm.granted_bytes == 40
            assert adm.deferred >= 1

        drive(scenario())

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            RendezvousAdmission(0)

    def test_concurrent_rendezvous_transfers_defer_grants(self, drive):
        """A budget smaller than the combined fan-out forces at least
        one grant to wait for a release — and everything still
        completes."""
        async def scenario():
            fabric = await fabric_with_peers(["a", "b", "c", "d", "e"])
            cfg = CollectiveConfig(protocol="rendezvous",
                                   max_bulk_bytes=1)
            group = CollectiveGroup(fabric, config=cfg)
            try:
                # scatter: four concurrent rendezvous legs from "a",
                # each toward a different receiver (budgets are
                # per-receiver, so defer by making each leg bigger
                # than its receiver's whole budget is impossible —
                # instead gather four legs INTO one receiver).
                result = await group.gather(
                    "a", {n: [7] * 200 for n in fabric.peer_names})
                return result, group.grants_deferred
            finally:
                await group.close()
                await fabric.close()

        result, deferred = drive(scenario())
        assert result.completed
        assert all(v == [7] * 200 for p, v in result.received.items()
                   if p != "a")
        # 4 concurrent 800-byte legs against a 1-byte budget at "a":
        # one admits (empty-budget rule), the rest must defer.
        assert deferred >= 1


class TestMembershipSafety:
    """Collectives fail loudly, never hang, on membership trouble."""

    def test_group_needs_two_members(self, drive):
        async def scenario():
            fabric = await fabric_with_peers(["solo"])
            try:
                with pytest.raises(CollectiveError):
                    fabric.collective()
            finally:
                await fabric.close()

        drive(scenario())

    def test_unknown_member_rejected_at_creation(self, drive):
        async def scenario():
            fabric = await fabric_with_peers(["a", "b"])
            try:
                with pytest.raises(CollectiveMembershipError):
                    fabric.collective(["a", "b", "ghost"])
            finally:
                await fabric.close()

        drive(scenario())

    def test_departed_member_fails_the_op_with_typed_error(self, drive):
        async def scenario():
            fabric = await fabric_with_peers(["a", "b", "c"])
            group = fabric.collective()
            await group.broadcast("a", [1, 2, 3])
            await fabric.remove_peer("c", drain=False)
            try:
                with pytest.raises(CollectiveMembershipError):
                    await group.broadcast("a", [4, 5, 6])
            finally:
                await group.close()
                await fabric.close()

        drive(scenario())

    def test_crashed_member_fails_the_op_with_typed_error(self, drive):
        async def scenario():
            fabric = await fabric_with_peers(["a", "b", "c"], mode="cm5")
            group = fabric.collective()
            await fabric.crash_peer("b")
            try:
                with pytest.raises(CollectiveMembershipError):
                    await group.gather("a", {"b": [1], "c": [2]})
            finally:
                await group.close()
                await fabric.close()

        drive(scenario())

    def test_non_member_root_rejected(self, drive):
        async def scenario():
            fabric = await fabric_with_peers(["a", "b", "c"])
            group = fabric.collective(["a", "b"])
            try:
                with pytest.raises(CollectiveError):
                    await group.broadcast("c", [1])
            finally:
                await group.close()
                await fabric.close()

        drive(scenario())

    def test_closed_group_rejects_ops_and_frees_the_channel(self, drive):
        async def scenario():
            fabric = await fabric_with_peers(["a", "b"])
            group = fabric.collective()
            await group.broadcast("a", [1])
            await group.close()
            with pytest.raises(CollectiveError):
                await group.broadcast("a", [2])
            # The control channel is free again: a second group binds.
            group2 = fabric.collective()
            result = await group2.broadcast("b", [3])
            await group2.close()
            await fabric.close()
            return result

        assert drive(scenario()).completed

    def test_empty_payload_rejected(self, drive):
        async def scenario():
            fabric = await fabric_with_peers(["a", "b"])
            group = fabric.collective()
            try:
                with pytest.raises(CollectiveError):
                    await group.broadcast("a", [])
            finally:
                await group.close()
                await fabric.close()

        drive(scenario())


class TestCollectiveTracing:
    """COLL_BEGIN/COLL_END bracket each op in the trace."""

    def test_ops_emit_begin_and_end_events(self, drive):
        tracer = Tracer(capacity=4096)

        async def scenario():
            fabric = await fabric_with_peers(["a", "b"], tracer=tracer)
            group = fabric.collective()
            try:
                await group.broadcast("a", list(range(16)))
                await group.broadcast("a", list(range(700)))
            finally:
                await group.close()
                await fabric.close()

        drive(scenario())
        events = tracer.events()
        begins = [e for e in events if e.etype is EventType.COLL_BEGIN]
        ends = [e for e in events if e.etype is EventType.COLL_END]
        assert len(begins) == 2 and len(ends) == 2
        assert all(e.kind == "broadcast" for e in begins + ends)
        assert all(e.channel == CH_COLLECTIVE for e in begins + ends)
        assert all(e.dur_ns > 0 for e in ends)

    def test_control_frames_appear_on_the_collective_channel(self, drive):
        tracer = Tracer(capacity=8192)

        async def scenario():
            fabric = await fabric_with_peers(["a", "b"], tracer=tracer)
            group = fabric.collective(
                config=CollectiveConfig(protocol="rendezvous"))
            try:
                await group.broadcast("a", list(range(64)))
            finally:
                await group.close()
                await fabric.close()

        drive(scenario())
        kinds = {e.kind for e in tracer.events()
                 if e.channel == CH_COLLECTIVE
                 and e.etype in (EventType.SEND, EventType.RECV)}
        assert {"COLL_HDR", "COLL_GRANT", "COLL_DONE"} <= kinds


class TestPartitionChaos:
    """A broadcast survives a partition-heal with a clean audit."""

    @pytest.mark.parametrize("mode", ["cm5", "cr"])
    def test_broadcast_through_partition_heal_audits_clean(
            self, drive, mode):
        out = drive(run_broadcast_partition(
            mode=mode, peers=4, rounds=3, payload_words=64,
            heal_after=0.15), timeout=60.0)
        assert out["all_clean"]
        assert out["healed_in_flight"]
        for audit in out["audits"].values():
            assert audit["delivered"] == 3
            assert audit["violations"] == 0
        assert all(rec["complete"] for rec in out["records"])
