"""In-memory spans and counters, recorded around calls into the program.

A `Tracer` wraps functions from outside: `patch` replaces a function in
every module that holds a reference to it, so each caller's own lookup
(for example ``pipeline.read_blob`` or ``insight.lex``) reaches the
wrapper. Wrappers forward arguments and return values unchanged.

A span is (name, start, end, parent). A span's self time is its
duration minus the durations of its direct children; the program runs
in one thread, so children never overlap. Spans that have no parent are
stages.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterator

Hook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.stage_counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    def stage(self) -> str | None:
        """Name of the outermost open span."""
        return self.spans[self._stack[0]][0] if self._stack else None

    def count(self, key: str, n: float = 1) -> None:
        """Add to a counter, overall and for the current stage."""
        self.counts[key] += n
        stage = self.stage()
        if stage is not None:
            self.stage_counts[(stage, key)] += n

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        """A span named ``name`` around each call; ``hook`` sees the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count(f"{name}.calls")
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """For a generator function: a span around each resumption, so the
        time goes to the code that drives the iteration, item by item."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count(f"{name}.calls")
            return self._iterate(name, fn(*args, **kwargs))

        return traced

    def _iterate(self, name: str, gen: Iterator) -> Iterator:
        try:
            while True:
                idx = self.begin(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.end(idx)
                self.count(f"{name}.items")
                yield item
        finally:
            gen.close()

    def write(self, path: Path) -> None:
        """Spans and counters as JSONL, one object a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"span": name, "start": start, "end": end, "parent": parent}) + "\n")
            for key, value in sorted(self.counts.items()):
                fh.write(json.dumps({"count": key, "value": value}) + "\n")


def self_times(spans: list[list]) -> tuple[dict[str, float], list[float]]:
    """(self seconds summed per span name, child-covered seconds per span)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        totals[name] += (end - start) - covered[i]
    return totals, covered


def stage_coverage(spans: list[list]) -> dict[str, tuple[float, float]]:
    """Per stage name: (wall seconds, seconds covered by child spans)."""
    _, covered = self_times(spans)
    out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for i, (name, start, end, parent) in enumerate(spans):
        if parent < 0:
            out[name][0] += end - start
            out[name][1] += covered[i]
    return {name: (wall, cov) for name, (wall, cov) in out.items()}


class Patch:
    """Replace functions by wrappers wherever modules refer to them.

    ``prefixes`` selects the modules searched for references; the
    function's own module attribute is always replaced. `restore` puts
    every original back.
    """

    def __init__(self, prefixes: tuple[str, ...]):
        self.prefixes = prefixes
        self._saved: list[tuple[object, str, object]] = []

    def _modules(self) -> list:
        return [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and any(name == p or name.startswith(p + ".") for p in self.prefixes)
        ]

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        wrapper = make(original)
        holders = {id(owner): owner}
        for mod in self._modules():
            if any(value is original for value in vars(mod).values()):
                holders[id(mod)] = mod
        for holder in holders.values():
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._saved.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def restore(self) -> None:
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved.clear()
