"""Wall-clock attribution: the paper's feature buckets, measured in time.

The simulator attributes *instruction counts* to the four messaging
features via :class:`repro.arch.attribution.AttributionStack`.  The live
runtime attributes *elapsed nanoseconds* the same way: protocol code
wraps each stretch of feature work in ``attribution.span(feature)`` and a
``perf_counter_ns`` delta lands in that feature's bucket.

Semantics mirror the instruction-count stack exactly:

* spans nest, and the *innermost* span receives the charge — a parent
  span is paused while a child runs, so no nanosecond is counted twice;
* code that runs outside any span (event-loop idle time, transport
  latency, user handlers not wrapped) is charged to nothing — the
  breakdown is CPU time *spent by the messaging layer*, the quantity the
  paper's instruction counts approximate.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.arch.attribution import Feature, FEATURE_ORDER, OVERHEAD_FEATURES

#: Module-level binding: one global load instead of two attribute
#: lookups on every span boundary.
_now = time.perf_counter_ns


#: Every feature in definition order, and each feature's fixed index
#: into the per-feature lists below: the hot path indexes a list by a
#: small int instead of hashing an enum member.
_FEATURES = tuple(Feature)
_INDEX = {feature: index for index, feature in enumerate(_FEATURES)}


class TimeAttribution:
    """Per-feature nanosecond accumulator with a re-entrant span stack.

    ``on_charge``, when set, observes every exclusive charge as
    ``on_charge(feature, ns)`` — the tracing subsystem installs its
    per-feature histogram recorder there, so histogram-derived totals
    reconcile with the buckets.  ``None`` (the default) costs one
    attribute test per charge.
    """

    def __init__(self) -> None:
        # Buckets and span counts, indexed by ``_INDEX[feature]``.  The
        # lists are only ever updated in place, so every span may keep
        # its own reference to them.
        self._ns: List[int] = [0] * len(_FEATURES)
        self._spans: List[int] = [0] * len(_FEATURES)
        self._stack: List[_Span] = []
        self._mark: int = 0
        self.on_charge: Optional[Callable[[Feature, int], None]] = None
        # One reusable context manager per feature: spans hold no
        # per-entry state (the stack lives here), so handing out the
        # same object — even nested — is safe, and the hot path
        # allocates nothing.
        self._span_cache: Dict[Feature, _Span] = {
            feature: _Span(self, feature) for feature in _FEATURES
        }

    # -- span machinery -------------------------------------------------------

    def span(self, feature: Feature) -> "_Span":
        """Context manager charging its (exclusive) duration to ``feature``."""
        try:
            return self._span_cache[feature]
        except (KeyError, TypeError):
            raise TypeError(f"expected a Feature, got {feature!r}") from None

    @property
    def current(self) -> Optional[Feature]:
        """The feature charges currently land in (``None`` outside spans)."""
        return self._stack[-1]._feature if self._stack else None

    def charge_ns(self, feature: Feature, ns: int) -> None:
        """Manually add ``ns`` to a bucket (merging external measurements)."""
        if ns < 0:
            raise ValueError("cannot charge negative time")
        self._ns[_INDEX[feature]] += ns
        if self.on_charge is not None:
            self.on_charge(feature, ns)

    # -- results ------------------------------------------------------------------

    def ns(self, feature: Feature) -> int:
        return self._ns[_INDEX[feature]]

    def span_count(self, feature: Feature) -> int:
        return self._spans[_INDEX[feature]]

    def snapshot(self) -> Dict[Feature, int]:
        """A copy of the per-feature totals (safe to keep after more runs)."""
        return dict(zip(_FEATURES, self._ns))

    @property
    def total_ns(self) -> int:
        return sum(self.ns(feature) for feature in FEATURE_ORDER)

    @property
    def overhead_ns(self) -> int:
        return sum(self.ns(feature) for feature in OVERHEAD_FEATURES)

    @property
    def overhead_fraction(self) -> float:
        total = self.total_ns
        return self.overhead_ns / total if total else 0.0

    def merge(self, other: "TimeAttribution") -> None:
        """Fold another accumulator's totals into this one."""
        for index, (ns, count) in enumerate(zip(other._ns, other._spans)):
            self._ns[index] += ns
            self._spans[index] += count

    def reset(self) -> None:
        if self._stack:
            # Name the leaked feature(s), innermost last, so the error
            # pinpoints which span failed to unwind (cf. a queue's
            # drain() assertion naming what was left behind).
            leaked = " -> ".join(span._feature.value for span in self._stack)
            raise RuntimeError(
                f"cannot reset while spans are active: leaked [{leaked}] — "
                "a span's __exit__ never ran (or reset raced a live run)"
            )
        self._ns[:] = [0] * len(_FEATURES)
        self._spans[:] = [0] * len(_FEATURES)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{feature.value}={self.ns(feature) / 1e3:.1f}us"
            for feature in FEATURE_ORDER
            if self.ns(feature)
        )
        return f"TimeAttribution({parts or 'empty'})"


class _Span:
    """The context manager returned by :meth:`TimeAttribution.span`.

    Entering pauses the parent span (banks what it accrued so far) and
    starts this one; exiting banks this span's slice and resumes the
    parent's clock.  Both run inline, on the owner's lists, because
    every message crosses several span boundaries.
    """

    __slots__ = ("_attr", "_feature", "_index", "_ns", "_spans", "_stack")

    def __init__(self, attr: TimeAttribution, feature: Feature) -> None:
        self._attr = attr
        self._feature = feature
        self._index = _INDEX[feature]
        self._ns = attr._ns
        self._spans = attr._spans
        self._stack = attr._stack

    def __enter__(self) -> "_Span":
        now = _now()
        attr = self._attr
        stack = self._stack
        if stack:
            # Pause the parent: bank what it has accrued so far.
            parent = stack[-1]
            delta = now - attr._mark
            self._ns[parent._index] += delta
            if attr.on_charge is not None:
                attr.on_charge(parent._feature, delta)
        stack.append(self)
        self._spans[self._index] += 1
        attr._mark = now
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        now = _now()
        attr = self._attr
        popped = self._stack.pop()
        if popped is not self:  # pragma: no cover - defensive
            raise RuntimeError(
                f"span stack corrupted: popped {popped._feature}, "
                f"expected {self._feature}"
            )
        delta = now - attr._mark
        self._ns[self._index] += delta
        if attr.on_charge is not None:
            attr.on_charge(self._feature, delta)
        # Resume the parent's clock (if any).
        attr._mark = now


class _NullSpan:
    """A shared no-op context manager (the disabled fast path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTimeAttribution(TimeAttribution):
    """Attribution compiled down to nothing.

    ``span()`` hands back one shared no-op context manager and manual
    charges are dropped, so a run that only wants raw throughput (or a
    microbenchmark isolating the cost of attribution itself) pays two
    empty C-level calls per span instead of two clock reads plus
    bucket arithmetic.  All query surfaces stay valid and report zero.
    """

    def span(self, feature: Feature) -> "_NullSpan":  # type: ignore[override]
        return _NULL_SPAN

    def charge_ns(self, feature: Feature, ns: int) -> None:
        return None


def null_attribution() -> TimeAttribution:
    """A fresh accumulator (helper for optional-parameter defaults)."""
    return TimeAttribution()
