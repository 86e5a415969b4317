"""In-memory span recorder for the traced pass.

A span is ``[name, start, end, parent, round, amount]``: ``parent`` is
the index of the span that was open when this one started (``None`` at
the top), ``round`` the traced round it belongs to (``None`` = set-up),
``amount`` whatever work quantity the wrapper observed (members
spliced, bytes read, ...).  Spans are kept in memory and written out
once, when the run ends.

Layers are traced from outside: :meth:`Tracer.install` swaps a class's
public method for a timing wrapper and :meth:`Tracer.remove` puts the
originals back, so untraced rounds run the shipped code untouched.
Only the thread that created the tracer records; calls from other
threads (coordinator serving threads) pass straight through.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext

NAME, START, END, PARENT, ROUND, AMOUNT = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.round: int | None = None
        self._open: list[int] = []
        self._patches: list[tuple[type, str, object]] = []
        self._thread = threading.get_ident()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.round, None])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def install(self, owner: type, attr: str, name: str, amount=None) -> None:
        """Wrap ``owner.attr`` in a span called ``name``.  ``amount`` is
        called as ``amount(args, kwargs, result)`` after a successful
        call and its return value stored on the span."""
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return original(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if amount is not None:
                tracer.spans[index][AMOUNT] = amount(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every method :meth:`install` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def select(self, name: str, round_id) -> list[int]:
        return [
            i for i, s in enumerate(self.spans)
            if s[NAME] == name and s[ROUND] == round_id
        ]

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span[END] - span[START]

    def busy(self, name: str, round_id) -> float:
        """Total time inside ``name`` in one round; a span nested under
        a span of the same name is already counted by its parent."""
        total = 0.0
        for i in self.select(name, round_id):
            parent = self.spans[i][PARENT]
            if parent is None or self.spans[parent][NAME] != name:
                total += self.duration(i)
        return total

    def calls(self, name: str, round_id) -> int:
        return len(self.select(name, round_id))

    def amounts(self, name: str, round_id) -> list:
        return [
            self.spans[i][AMOUNT] for i in self.select(name, round_id)
            if self.spans[i][AMOUNT] is not None
        ]

    def self_time(self, name: str, round_id) -> float:
        """Σ over ``name`` spans of duration minus the part covered by
        their direct children."""
        children = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[PARENT] is not None:
                children[span[PARENT]] += self.duration(i)
        return sum(
            self.duration(i) - children[i] for i in self.select(name, round_id)
        )

    def dump(self, path: str, **header) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    **header,
                    "fields": ["name", "start", "end", "parent", "round"],
                    "spans": [span[:AMOUNT] for span in self.spans],
                },
                handle,
            )


def span(tracer: Tracer | None, name: str):
    """``tracer.span(name)``, or nothing at all on untraced rounds."""
    return tracer.span(name) if tracer is not None else nullcontext()
