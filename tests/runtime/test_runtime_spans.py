"""Unit tests for wall-clock feature attribution."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.attribution import FEATURE_ORDER, OVERHEAD_FEATURES, Feature
from repro.runtime import spans
from repro.runtime.spans import TimeAttribution


def spin(ns: int) -> None:
    """Busy-wait for roughly ``ns`` nanoseconds."""
    deadline = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < deadline:
        pass


class TestSpans:
    def test_span_charges_its_feature(self):
        attr = TimeAttribution()
        with attr.span(Feature.IN_ORDER):
            spin(200_000)
        assert attr.ns(Feature.IN_ORDER) >= 200_000
        assert attr.ns(Feature.BASE) == 0
        assert attr.span_count(Feature.IN_ORDER) == 1

    def test_nested_span_is_exclusive(self):
        attr = TimeAttribution()
        with attr.span(Feature.BASE):
            spin(200_000)
            with attr.span(Feature.FAULT_TOLERANCE):
                spin(200_000)
            spin(200_000)
        base = attr.ns(Feature.BASE)
        inner = attr.ns(Feature.FAULT_TOLERANCE)
        assert base >= 400_000
        assert inner >= 200_000
        # No double counting: the parent was paused while the child ran.
        assert attr.total_ns == base + inner

    def test_time_outside_spans_is_uncharged(self):
        attr = TimeAttribution()
        with attr.span(Feature.BASE):
            pass
        before = attr.total_ns
        spin(500_000)
        assert attr.total_ns == before

    def test_non_feature_rejected(self):
        attr = TimeAttribution()
        with pytest.raises(TypeError):
            attr.span("base")

    def test_exception_safe(self):
        attr = TimeAttribution()
        with pytest.raises(ValueError):
            with attr.span(Feature.BASE):
                raise ValueError("boom")
        # The stack unwound; a new span still works.
        with attr.span(Feature.IN_ORDER):
            pass
        assert attr.span_count(Feature.IN_ORDER) == 1


class TestAccounting:
    def test_overhead_excludes_base_and_user(self):
        attr = TimeAttribution()
        attr.charge_ns(Feature.BASE, 600)
        attr.charge_ns(Feature.IN_ORDER, 250)
        attr.charge_ns(Feature.FAULT_TOLERANCE, 150)
        attr.charge_ns(Feature.USER, 1000)
        assert attr.total_ns == 1000
        assert attr.overhead_ns == 400
        assert attr.overhead_fraction == pytest.approx(0.4)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            TimeAttribution().charge_ns(Feature.BASE, -1)

    def test_merge_folds_totals_and_counts(self):
        first, second = TimeAttribution(), TimeAttribution()
        first.charge_ns(Feature.BASE, 100)
        with second.span(Feature.BASE):
            pass
        second.charge_ns(Feature.BASE, 50)
        first.merge(second)
        assert first.ns(Feature.BASE) >= 150
        assert first.span_count(Feature.BASE) == 1

    def test_snapshot_is_detached(self):
        attr = TimeAttribution()
        attr.charge_ns(Feature.BASE, 10)
        snap = attr.snapshot()
        attr.charge_ns(Feature.BASE, 10)
        assert snap[Feature.BASE] == 10

    def test_reset(self):
        attr = TimeAttribution()
        attr.charge_ns(Feature.BASE, 10)
        attr.reset()
        assert attr.total_ns == 0

    def test_reset_inside_span_names_the_leaked_feature(self):
        """reset() with live spans must fail loudly, naming what leaked
        (innermost last) — the drain()-style assertion."""
        attr = TimeAttribution()
        with pytest.raises(RuntimeError) as exc:
            with attr.span(Feature.BASE):
                with attr.span(Feature.FAULT_TOLERANCE):
                    attr.reset()
        message = str(exc.value)
        assert "base -> fault_tolerance" in message
        # The failed reset must not have corrupted the stack: once the
        # spans unwind normally, reset succeeds.
        attr.reset()
        assert attr.total_ns == 0

    def test_crashed_coroutine_unwinds_spans(self):
        """A protocol coroutine that raises inside a span must unwind
        via __exit__ — afterwards the stack is empty and reset() works."""
        import asyncio

        attr = TimeAttribution()

        async def crashing_protocol():
            with attr.span(Feature.IN_ORDER):
                with attr.span(Feature.FAULT_TOLERANCE):
                    raise OSError("transport blew up mid-span")

        with pytest.raises(OSError):
            asyncio.run(crashing_protocol())
        assert attr.current is None
        assert attr.span_count(Feature.FAULT_TOLERANCE) == 1
        attr.reset()  # would raise if the crash leaked a span
        assert attr.total_ns == 0

    def test_on_charge_observes_every_exclusive_slice(self):
        attr = TimeAttribution()
        seen = []
        attr.on_charge = lambda feature, ns: seen.append((feature, ns))
        with attr.span(Feature.BASE):
            with attr.span(Feature.IN_ORDER):
                pass
        attr.charge_ns(Feature.USER, 42)
        features = [feature for feature, _ns in seen]
        # Parent pause slice, child exit, parent exit, manual charge.
        assert features == [Feature.BASE, Feature.IN_ORDER, Feature.BASE,
                            Feature.USER]
        observed = {}
        for feature, ns in seen:
            observed[feature] = observed.get(feature, 0) + ns
        for feature, total in observed.items():
            assert total == attr.ns(feature)


# -- reference model ----------------------------------------------------------


class FakeClock:
    """A ``perf_counter_ns`` stand-in that moves only when told to."""

    def __init__(self) -> None:
        self.now = 10**12

    def __call__(self) -> int:
        return self.now


class Boom(Exception):
    """Raised inside generated spans; caught by ``catch`` nodes."""


class ReferenceAttribution:
    """The accounting rule stated directly: elapsed time goes to the
    innermost open span as it elapses, and an ``on_charge`` slice ends
    at every span boundary."""

    def __init__(self) -> None:
        self.ns = {feature: 0 for feature in Feature}
        self.spans = {feature: 0 for feature in Feature}
        self.stack = []
        self.pending = 0        # time the innermost span accrued so far
        self.slices = []

    def tick(self, ns):
        if self.stack:
            self.ns[self.stack[-1]] += ns
            self.pending += ns

    def enter(self, feature):
        if self.stack:
            self.slices.append((self.stack[-1], self.pending))
        self.stack.append(feature)
        self.spans[feature] += 1
        self.pending = 0

    def exit(self):
        self.slices.append((self.stack.pop(), self.pending))
        self.pending = 0

    def charge(self, feature, ns):
        self.ns[feature] += ns
        self.slices.append((feature, ns))


features = st.sampled_from(list(Feature))
ticks = st.integers(min_value=0, max_value=10**6)
leaves = st.one_of(
    st.tuples(st.just("tick"), ticks),
    st.tuples(st.just("charge"), features, ticks),
    st.tuples(st.just("merge"),
              st.lists(st.tuples(features, ticks), max_size=3)),
)
programs = st.recursive(
    st.lists(leaves, max_size=4),
    lambda bodies: st.lists(st.one_of(
        leaves,
        st.tuples(st.just("span"), features, bodies, st.booleans()),
        st.tuples(st.just("catch"), bodies),
    ), max_size=4),
    max_leaves=40,
)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(program=programs, observe=st.booleans())
    def test_generated_programs_match_the_reference(self, program, observe):
        clock = FakeClock()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spans, "_now", clock)
            attr = TimeAttribution()
            ref = ReferenceAttribution()
            seen = []
            if observe:
                attr.on_charge = lambda feature, ns: seen.append((feature, ns))

            def tick(ns):
                clock.now += ns
                ref.tick(ns)

            def run(ops):
                for op in ops:
                    kind = op[0]
                    if kind == "tick":
                        tick(op[1])
                    elif kind == "charge":
                        attr.charge_ns(op[1], op[2])
                        ref.charge(op[1], op[2])
                    elif kind == "merge":
                        other = TimeAttribution()
                        for feature, ns in op[1]:
                            with other.span(feature):
                                tick(ns)
                            ref.ns[feature] += ns
                            ref.spans[feature] += 1
                        attr.merge(other)
                    elif kind == "span":
                        _, feature, body, raises = op
                        ref.enter(feature)
                        try:
                            with attr.span(feature):
                                assert attr.current is feature
                                run(body)
                                if raises:
                                    raise Boom
                        finally:
                            ref.exit()
                    else:
                        try:
                            run(op[1])
                        except Boom:
                            pass
                    assert attr.current is (ref.stack[-1] if ref.stack
                                            else None)

            try:
                run(program)
            except Boom:
                pass

        assert attr.current is None
        assert attr.snapshot() == ref.ns
        for feature in Feature:
            assert attr.ns(feature) == ref.ns[feature]
            assert attr.span_count(feature) == ref.spans[feature]
        assert attr.total_ns == sum(ref.ns[f] for f in FEATURE_ORDER)
        assert attr.overhead_ns == sum(ref.ns[f] for f in OVERHEAD_FEATURES)
        if observe:
            assert seen == ref.slices
        attr.reset()
        assert attr.snapshot() == {feature: 0 for feature in Feature}
        assert all(attr.span_count(f) == 0 for f in Feature)
