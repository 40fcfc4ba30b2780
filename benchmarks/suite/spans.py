"""In-memory span recorder for the traced run.

A span is ``(name, start, end, parent, op_id)``: ``parent`` is the index of
the enclosing span in the same recorder (``-1`` for a root ``op`` span) and
``op_id`` is shared by every span of one operation.  The layer of a span is
its name up to the first dot (``engine.execute`` -> ``engine``); the root
``op`` span's own self time is the suite's bookkeeping between layer calls.

All timing lives here and in the suite's other files, around calls into
``src/repro``'s public functions; spans *inside* ``src/`` are ROADMAP item
1's ``QueryTrace`` and a later change.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Tuple

#: The root span of every traced operation.
OP = "op"


class _Span:
    __slots__ = ("_recorder", "_index")

    def __init__(self, recorder: "SpanRecorder", index: int) -> None:
        self._recorder = recorder
        self._index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc_info: object) -> None:
        recorder = self._recorder
        recorder.spans[self._index][2] = time.perf_counter()
        recorder._stack.pop()


class SpanRecorder:
    """Records nested spans of one client thread; not shared across threads."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Op class of every operation, by the recorder's own op id.
        self.op_classes: List[str] = []
        self._stack: List[int] = []

    def span(self, name: str, op_class: str = "") -> _Span:
        """Open a span; a span opened while none is open starts a new operation."""
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self.op_classes.append(op_class)
        index = len(self.spans)
        self._stack.append(index)
        self.spans.append([name, time.perf_counter(), 0.0, parent, len(self.op_classes) - 1])
        return _Span(self, index)

    def self_times(self) -> Dict[Tuple[str, str], float]:
        """Total self time (span minus its direct children) per (op class, span name)."""
        children: Dict[int, float] = defaultdict(float)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: Dict[Tuple[str, str], float] = defaultdict(float)
        for index, (name, start, end, _parent, op_id) in enumerate(self.spans):
            totals[self.op_classes[op_id], name] += (end - start) - children.get(index, 0.0)
        return dict(totals)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_shares(recorders: List[SpanRecorder]) -> Dict[str, Dict[str, float]]:
    """Self-time share of every layer, over all traced ops and per op class.

    ``{"*" | op class: {layer: share}}``; the shares of one entry sum to 1.
    The share of layer ``op`` is what the child spans do *not* cover: the
    decomposition only explains an operation when it is close to 0.
    """
    seconds: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for recorder in recorders:
        for (op_class, name), value in recorder.self_times().items():
            seconds["*"][layer_of(name)] += value
            seconds[op_class][layer_of(name)] += value
    return {
        op_class: {layer: value / sum(layers.values()) for layer, value in sorted(layers.items())}
        for op_class, layers in sorted(seconds.items())
        if sum(layers.values()) > 0
    }


def write_trace(path: str, header: Dict[str, object], recorders: List[SpanRecorder]) -> None:
    """One file for all recorders of a run; parents and op ids are renumbered to be unique."""
    spans: List[list] = []
    op_classes: List[str] = []
    for recorder in recorders:
        offset = len(spans)  # parents index into the recorder's own list
        first_op = len(op_classes)
        for name, start, end, parent, op_id in recorder.spans:
            spans.append(
                [name, start, end, parent + offset if parent >= 0 else -1, first_op + op_id]
            )
        op_classes += recorder.op_classes
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            dict(
                header,
                fields=["name", "start", "end", "parent", "op_id"],
                spans=spans,
                op_classes=op_classes,
            ),
            handle,
        )
