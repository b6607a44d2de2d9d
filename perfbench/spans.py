"""In-memory span recording around the runtime's public entry points.

The traced run replaces selected functions with wrappers that time
each call.  The wrappers sit at the names the callers resolve (a class
attribute, or a module global such as ``repro.runtime.endpoint
.encode_frame``), so no file of the runtime changes.

Every span has a name, a start, an end, a parent and an op id.  Sync
calls nest on one stack.  A coroutine is timed step by step: between
two resumptions it is off the stack, so work that other tasks run
while it waits is never counted as its own or its children's.  Its
self time is the sum of its steps minus the child spans inside them,
and its wall time runs from the first step to completion.

An op id is shared by every span one operation causes.  The harness
sets :data:`OP_ID` before it submits an op; asyncio copies the context
into tasks and ``call_soon`` callbacks, so spans in the flush and the
receive path of that op inherit it.  A root span with no op id in its
context starts its own.
"""

from __future__ import annotations

import contextvars
import gzip
import importlib
import itertools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

OP_ID: contextvars.ContextVar[int] = contextvars.ContextVar("op_id",
                                                            default=0)

_now = time.perf_counter_ns


class SpanRecorder:
    """Per-name call counts, self and wall time, plus the first
    ``keep`` span records for export."""

    def __init__(self, keep: int = 50_000) -> None:
        self.keep = keep
        #: Open frames: ``[span_id, op_id, child_ns]``.
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.wall_ns: Dict[str, int] = defaultdict(int)
        #: ``(name, span_id, parent_id, op_id, start, end, self_ns)``.
        self.records: List[Tuple[str, int, int, int, int, int, int]] = []

    def reset(self) -> None:
        """Forget totals and records (open spans keep running)."""
        self.calls.clear()
        self.self_ns.clear()
        self.wall_ns.clear()
        self.records.clear()

    def _open(self) -> Tuple[int, int, int]:
        span_id = next(self._ids)
        if self._stack:
            parent = self._stack[-1]
            return span_id, parent[0], parent[1]
        return span_id, 0, OP_ID.get() or span_id

    def _close(self, name: str, span_id: int, parent_id: int, op_id: int,
               start: int, end: int, self_ns: int) -> None:
        self.calls[name] += 1
        self.self_ns[name] += self_ns
        self.wall_ns[name] += end - start
        if len(self.records) < self.keep:
            self.records.append(
                (name, span_id, parent_id, op_id, start, end, self_ns))

    def sync(self, name: str, fn: Callable) -> Callable:
        """Wrap a plain function or method."""
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id, parent_id, op_id = self._open()
            frame = [span_id, op_id, 0]
            stack.append(frame)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                if stack:
                    stack[-1][2] += end - start
                self._close(name, span_id, parent_id, op_id, start, end,
                            end - start - frame[2])

        traced.__wrapped__ = fn
        return traced

    def coro(self, name: str, fn: Callable) -> Callable:
        """Wrap a coroutine function."""

        def traced(*args: Any, **kwargs: Any) -> "_Steps":
            return _Steps(self, name, fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> int:
        """Write the kept span records as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="ascii") as out:
            for name, sid, pid, op, start, end, self_ns in self.records:
                out.write(json.dumps({
                    "name": name, "id": sid, "parent": pid, "op": op,
                    "start_ns": start, "end_ns": end, "self_ns": self_ns,
                }) + "\n")
        return len(self.records)


class _Steps:
    """Awaitable that drives one coroutine and times each of its steps."""

    __slots__ = ("rec", "name", "coro")

    def __init__(self, rec: SpanRecorder, name: str, coro: Any) -> None:
        self.rec = rec
        self.name = name
        self.coro = coro

    def __await__(self):
        rec, coro, stack = self.rec, self.coro, self.rec._stack
        span_id, parent_id, op_id = rec._open()
        first = _now()
        active = child = 0
        value: Any = None
        error: Any = None
        try:
            while True:
                frame = [span_id, op_id, 0]
                stack.append(frame)
                start = _now()
                try:
                    if error is None:
                        awaited = coro.send(value)
                    else:
                        awaited = coro.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    step = _now() - start
                    stack.pop()
                    if stack:
                        stack[-1][2] += step
                    active += step
                    child += frame[2]
                try:
                    value, error = (yield awaited), None
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # cancellation included
                    value, error = None, exc
        finally:
            rec._close(self.name, span_id, parent_id, op_id, first, _now(),
                       active - child)


class Patch:
    """Replaces attributes and puts every one back on :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


#: Span name -> (module, owning class or "" for a module global,
#: attribute, is coroutine).  The names are the layer names of the
#: per-layer metrics.
ENTRY_POINTS: Dict[str, Tuple[str, str, str, bool]] = {
    "frames.encode": ("repro.runtime.endpoint", "", "encode_frame", False),
    "frames.decode": ("repro.runtime.endpoint", "", "decode_frame", False),
    "endpoint.send_frame": ("repro.runtime.endpoint", "RuntimeEndpoint",
                            "send_frame", True),
    "endpoint.post_frame": ("repro.runtime.endpoint", "RuntimeEndpoint",
                            "post_frame", False),
    "transport.send_now": ("repro.runtime.transport", "LoopbackTransport",
                           "send_now", False),
    "reliability.track": ("repro.runtime.reliability", "Retransmitter",
                          "track", False),
    "reliability.ack": ("repro.runtime.reliability", "Retransmitter",
                        "ack", False),
    "reliability.ack_below": ("repro.runtime.reliability", "Retransmitter",
                              "ack_below", False),
    "protocols.sender_send": ("repro.runtime.protocols",
                              "OrderedChannelSender", "send", True),
    "flowcontrol.consume": ("repro.runtime.flowcontrol", "SenderWindow",
                            "consume", False),
    "flowcontrol.apply": ("repro.runtime.flowcontrol", "SenderWindow",
                          "apply", False),
    "flowcontrol.on_data": ("repro.runtime.flowcontrol", "ReceiverWindow",
                            "on_data", False),
    "flowcontrol.on_deliver": ("repro.runtime.flowcontrol", "ReceiverWindow",
                               "on_deliver", False),
    "channels.send_message": ("repro.runtime.channels", "LiveFramedChannel",
                              "send_message", True),
    "channels.send": ("repro.runtime.channels", "LiveChannel", "send", True),
    "collectives.all_reduce": ("repro.runtime.collectives",
                               "CollectiveGroup", "all_reduce", True),
}

#: The receive path is wrapped where the endpoint hands its callback to
#: the transport, so endpoints built after :func:`instrument` have their
#: whole per-datagram receive (unbundle, decode, dispatch, delivery)
#: inside one ``endpoint.rx`` span.
RX_SPAN = "endpoint.rx"


def instrument(rec: SpanRecorder) -> Patch:
    """Install a wrapper on every entry point in :data:`ENTRY_POINTS`
    and on ``Transport.set_receiver``; ``undo()`` the result to remove
    them."""
    from repro.runtime.transport import Transport

    patch = Patch()
    for name, (module, owner, attr, is_coro) in ENTRY_POINTS.items():
        target = importlib.import_module(module)
        if owner:
            target = getattr(target, owner)
        fn = target.__dict__[attr]
        patch.set(target, attr,
                  rec.coro(name, fn) if is_coro else rec.sync(name, fn))
    set_receiver = Transport.__dict__["set_receiver"]

    def traced_set_receiver(transport, receiver):
        set_receiver(transport, rec.sync(RX_SPAN, receiver))

    patch.set(Transport, "set_receiver", traced_set_receiver)
    return patch
