"""Attribution of instruction counts to messaging-layer features.

The paper decomposes every protocol's cost into four features (Section 3.2):

* **base** -- the unavoidable data-movement cost: NI access plus loads and
  stores that move the payload between memory and the network,
* **buffer management** -- preallocation/deallocation of destination buffers
  (deadlock/overflow safety),
* **in-order delivery** -- sequencing, offsets, and out-of-order reorder
  buffering,
* **fault tolerance** -- source buffering and acknowledgements.

Messaging-layer code declares which feature it is currently working for by
pushing onto an :class:`AttributionStack` (usually via the processor's
``attribute`` context manager); every instruction charged while the context
is active lands in that feature's bucket.
"""

from __future__ import annotations

import enum
from typing import Iterator, List, Tuple


class Feature(enum.Enum):
    """The paper's four cost features, plus an explicit bucket for handler
    work that the paper excludes from messaging-layer cost, plus the
    runtime's credit-based admission control (flow control), which the
    paper folds into buffer management but the live fabric measures as
    its own line item."""

    BASE = "base"
    BUFFER_MGMT = "buffer_mgmt"
    IN_ORDER = "in_order"
    FAULT_TOLERANCE = "fault_tolerance"
    USER = "user"
    FLOW_CONTROL = "flow_control"

    # Members are singletons, so identity is equality: hash by identity
    # at C level instead of Enum's Python-level ``hash(self._name_)``.
    # Feature-keyed dicts sit on the runtime's per-message path.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Canonical row order used when rendering the paper's tables.
FEATURE_ORDER: Tuple[Feature, ...] = (
    Feature.BASE,
    Feature.BUFFER_MGMT,
    Feature.IN_ORDER,
    Feature.FAULT_TOLERANCE,
)

#: Display labels matching the paper's table rows.
FEATURE_LABELS = {
    Feature.BASE: "Base Cost",
    Feature.BUFFER_MGMT: "Buffer Mgmt.",
    Feature.IN_ORDER: "In-order Del.",
    Feature.FAULT_TOLERANCE: "Fault-toler.",
    Feature.USER: "User handler",
    Feature.FLOW_CONTROL: "Flow Control",
}

#: Row order for the *runtime* feature tables: the paper's four rows
#: plus the fabric's flow-control line.  Kept separate from
#: :data:`FEATURE_ORDER` so the simulator's paper-table reproduction
#: stays exactly four rows.
RUNTIME_FEATURE_ORDER: Tuple[Feature, ...] = FEATURE_ORDER + (
    Feature.FLOW_CONTROL,
)

#: The features the paper calls "messaging layer overhead" (everything
#: except base data movement).
OVERHEAD_FEATURES: Tuple[Feature, ...] = (
    Feature.BUFFER_MGMT,
    Feature.IN_ORDER,
    Feature.FAULT_TOLERANCE,
)


class AttributionStack:
    """A stack of active features; the innermost one receives charges.

    The stack starts with :attr:`Feature.BASE` at the bottom so that code
    which never declares an attribution is counted as base cost, matching
    the paper's treatment of plain send/receive paths.
    """

    def __init__(self, default: Feature = Feature.BASE) -> None:
        self._stack: List[Feature] = [default]

    @property
    def current(self) -> Feature:
        """The feature that charges are currently attributed to."""
        return self._stack[-1]

    @property
    def depth(self) -> int:
        return len(self._stack)

    def push(self, feature: Feature) -> None:
        if not isinstance(feature, Feature):
            raise TypeError(f"expected a Feature, got {feature!r}")
        self._stack.append(feature)

    def pop(self) -> Feature:
        if len(self._stack) == 1:
            raise RuntimeError("cannot pop the default attribution")
        return self._stack.pop()

    def __iter__(self) -> Iterator[Feature]:
        return iter(self._stack)


class attribution:
    """Context manager binding a feature onto an :class:`AttributionStack`.

    Re-entrant and exception-safe; usually accessed through
    :meth:`repro.arch.machine.AbstractProcessor.attribute`.
    """

    def __init__(self, stack: AttributionStack, feature: Feature) -> None:
        self._stack = stack
        self._feature = feature

    def __enter__(self) -> "attribution":
        self._stack.push(self._feature)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = self._stack.pop()
        if popped is not self._feature:  # pragma: no cover - defensive
            raise RuntimeError(
                f"attribution stack corrupted: popped {popped}, expected {self._feature}"
            )
