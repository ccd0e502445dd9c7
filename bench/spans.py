"""Spans recorded from outside the program.

The benchmark installs timing wrappers on the program's public
callables as *instance attributes* (so only the objects under test are
affected), keeps the spans in memory, and writes them out at the end.
A span is ``[name, start, end, parent, run, note]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``run`` identifies the
block, job or round the span belongs to, times are ``perf_counter``
seconds.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

NAME, START, END, PARENT, RUN, NOTE = range(6)


class Tracer:
    """Records nested spans; wraps and unwraps instance attributes."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.run = 0
        self._stack: List[int] = []
        self._main = threading.get_ident()
        self._installed: List[tuple] = []

    def _open(self, name: str, note) -> list:
        # Spans opened on another thread (the JIT strip pool) hang under
        # the span the main thread is blocked in and never become parents.
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run, note]
        if threading.get_ident() == self._main:
            self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[END] = perf_counter()
        if threading.get_ident() == self._main:
            self._stack.pop()

    def wrap(self, name: str, function: Callable, note: Optional[Callable] = None):
        """``function`` timed as a span; ``note(args)`` is stored with it."""

        def wrapper(*args, **kwargs):
            record = self._open(name, note(args) if note is not None else None)
            record[START] = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self._close(record)

        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = self._open(name, None)
        record[START] = perf_counter()
        try:
            yield
        finally:
            self._close(record)

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a span measured elsewhere (service-side timestamps)."""
        self.spans.append([name, start, end, parent, self.run, None])
        return len(self.spans) - 1

    def install(self, target, attribute: str, name: str, note=None) -> None:
        own = attribute in vars(target)
        original = getattr(target, attribute)
        setattr(target, attribute, self.wrap(name, original, note))
        self._installed.append((target, attribute, own, original))

    def uninstall(self) -> None:
        while self._installed:
            target, attribute, own, original = self._installed.pop()
            if own:
                setattr(target, attribute, original)
            else:
                delattr(target, attribute)


def self_times(spans: List[list]) -> List[float]:
    """Each span's self time: its duration minus what its children cover.

    Children that overlap each other (strips run by the thread pool)
    cover their union once; their subtrees are scaled by union / sum so
    that the self times of a tree still add up to its root's duration.
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    scale = [1.0] * len(spans)
    result = [0.0] * len(spans)
    for index, span in enumerate(spans):  # a parent always precedes its children
        duration = span[END] - span[START]
        covered = total = 0.0
        reach = span[START]
        for start, end in sorted(
            (max(spans[kid][START], span[START]), min(spans[kid][END], span[END]))
            for kid in children.get(index, ())
        ):
            total += max(0.0, end - start)
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        result[index] = (duration - covered) * scale[index]
        for kid in children.get(index, ()):
            scale[kid] = scale[index] * (covered / total if total > 0.0 else 1.0)
    return result


def self_time_by_name(spans: List[list]) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[NAME]] += own
    return dict(totals)


def write(path: Path, header: Dict[str, object], spans: List[list]) -> None:
    """One JSON object per line: the header, then every span in order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({"header": header, "clock": "perf_counter"}) + "\n")
        for index, span in enumerate(spans):
            record = {
                "id": index,
                "name": span[NAME],
                "start": span[START],
                "end": span[END],
                "parent": span[PARENT],
                "run": span[RUN],
            }
            if span[NOTE] is not None:
                record["note"] = span[NOTE]
            handle.write(json.dumps(record) + "\n")
