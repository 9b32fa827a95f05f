"""Spans recorded around calls into gamefi_sim's public functions.

A :class:`Tracer` swaps module attributes for timing wrappers and puts the
originals back on :meth:`Tracer.restore`. The wrappers go on the names the
callers look up (``serverfi.draw_fragments``, ``cli.run_experiment``, ...),
because the program binds its helpers by module-level name. Each wrapper
call records one span: name, start, end and the index of the enclosing
span, so a layer's self time is its duration minus its child spans.

Repeats run by a process pool execute in forked workers, which inherit the
wrappers. A worker appends each finished top-level span tree to a spool
file named after its pid; :meth:`Tracer.collect_workers` merges those
trees as extra roots once the pool has shut down.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for a root

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class LayerTotal:
    """Summed span time, self time and call count for one span name."""

    total: float = 0.0
    self_time: float = 0.0
    calls: int = 0


def layer_totals(spans: List[Span]) -> Dict[str, LayerTotal]:
    """Aggregate spans by name; self time is duration minus direct children.

    Spans of one process nest without overlapping, so the direct children
    of a span cover exactly the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    totals: Dict[str, LayerTotal] = {}
    for span, child_time in zip(spans, covered):
        entry = totals.setdefault(span.name, LayerTotal())
        entry.total += span.duration
        entry.self_time += span.duration - child_time
        entry.calls += 1
    return totals


class Tracer:
    """Install timing wrappers, collect their spans, then remove them."""

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._in_worker = False
        self._patched: List[Tuple[Any, str, Any]] = []

    def patch(self, module: Any, attr: str, replacement: Callable) -> None:
        """Set ``module.attr``; :meth:`restore` puts the previous value back."""
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def wrap(self, module: Any, attr: str, name: str) -> None:
        """Record a span called ``name`` around every call of ``module.attr``."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if os.getpid() != self._pid:
                self._enter_worker()
            stack = self._stack
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if self._in_worker and not stack:
                    self._spool()

        self.patch(module, attr, timed)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def take(self) -> List[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def collect_workers(self) -> None:
        """Merge the span trees spooled by pool workers, then delete the files."""
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                offset = len(self.spans)
                for name, start, end, parent in json.loads(line):
                    self.spans.append(
                        Span(name, start, end, parent + offset if parent >= 0 else -1)
                    )
            path.unlink()

    def _enter_worker(self) -> None:
        # first wrapped call in a forked worker: drop the parent's copy
        self._pid = os.getpid()
        self._in_worker = True
        self.spans = []
        self._stack = []

    def _spool(self) -> None:
        tree = [[s.name, s.start, s.end, s.parent] for s in self.spans]
        path = self.spool_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(tree) + "\n")
        self.spans = []
