"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, cell): the layer boundary it marks, its
perf_counter interval, the index of the span that was open when it started,
and the grid cell (or CLI operation) it belongs to. The layer of a span is
its name up to the first dot. Spans stay in memory and are written once, at
the end of the run.

Wrappers replace a function in the module that *calls* it (for example
`trainer.batch_loss_values`, not `losses.batch_loss_values`), because callers
bound the name at import. A name that is missing is recorded as absent and
left alone, so the benchmark keeps running when a later change removes it.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, CELL = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.cell = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.cell])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, cell=None):
        if cell is not None:
            self.cell = cell
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, name: str, on_call=None, on_return=None) -> None:
        """Replace module.attr by a wrapper that records a span `name`.

        on_call(tracer, args, kwargs) runs before the span opens (it may set
        the cell); on_return(counters, result, args) runs after it closes.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if on_return is not None:
                on_return(self.counters, result, args)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write_jsonl(self, fh, pass_index: int) -> None:
        for s in self.spans:
            fh.write(json.dumps({
                "pass": pass_index, "name": s[NAME], "start": s[START], "end": s[END],
                "parent": s[PARENT], "cell": s[CELL],
            }) + "\n")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [
        (s[END] - s[START]) - covered(children.get(i, []), s[START], s[END])
        for i, s in enumerate(spans)
    ]


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: count, total duration and total self time."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"n": 0, "dur": 0.0, "self": 0.0})
    for s, own in zip(spans, self_times(spans)):
        rec = out[s[NAME]]
        rec["n"] += 1
        rec["dur"] += s[END] - s[START]
        rec["self"] += own
    return dict(out)


def layer_shares(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Each layer's self time as a share of all traced time."""
    by_layer: dict[str, float] = defaultdict(float)
    for name, rec in summary.items():
        by_layer[name.split(".", 1)[0]] += rec["self"]
    total = sum(by_layer.values())
    return {k: (v / total if total > 0 else 0.0) for k, v in sorted(by_layer.items())}
