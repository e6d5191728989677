"""Outside-in span recorder.

Spans are recorded around calls into zonequery's public functions by
replacing module attributes at runtime; nothing in the package is edited.
Each span has a name, start, end, parent span and operation id. Spans stay in
memory and are written once, at the end, together with each span's self time
(its duration minus its children's). Every wrapped function is called from
the main thread, one call at a time, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

# annotate(result, args, kwargs) -> counters stored on the span
Annotate = Callable[[Any, tuple, dict], dict]


class Recorder:
    """Collects spans for one process; ``op`` tags the operation in flight."""

    def __init__(self, op: Any = 0) -> None:
        self.op = op
        self._spans: list[dict] = []
        self._stack: list[int] = []  # indices of the open spans
        self._patches: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Record one span; the yielded dict collects counters for it."""
        stack = self._stack
        attrs: dict = {}
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else None,
            "op": self.op,
            "attrs": attrs,
        }
        self._spans.append(record)
        stack.append(len(self._spans) - 1)
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, module: Any, attr: str, name: str, annotate: Annotate | None = None):
        """Replace ``module.attr`` by a recording wrapper; returns the original."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if annotate is not None:
                    attrs.update(annotate(result, args, kwargs))
                return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))
        return original

    def restore(self) -> None:
        """Put back every attribute this recorder replaced."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def finished(self) -> list[dict]:
        """Closed spans, each with ``self_s`` filled in."""
        spans = [s for s in self._spans if s["end"] is not None]
        for s in spans:
            s["self_s"] = s["end"] - s["start"]
        for s in spans:
            if s["parent"] is not None:
                self._spans[s["parent"]]["self_s"] -= s["end"] - s["start"]
        return spans

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.finished()), encoding="utf-8")


def read_spans(path: str | Path) -> list[dict]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def per_op(spans: list[dict], ops: Any = None) -> dict[Any, dict[str, dict]]:
    """Totals per operation and span name: ``{op: {name: {total_s, self_s,
    calls}}}``. ``ops`` restricts the result to those operation ids."""
    out: dict[Any, dict[str, dict]] = {}
    for s in spans:
        if ops is not None and s["op"] not in ops:
            continue
        entry = out.setdefault(s["op"], {}).setdefault(
            s["name"], {"total_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        entry["total_s"] += s["end"] - s["start"]
        entry["self_s"] += s["self_s"]
        entry["calls"] += 1
    return out
