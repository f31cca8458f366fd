"""In-memory span tracer that wraps the program's public callables.

The traced run installs wrappers at the module (or class) where each
caller looks a callable up — ``repro.core.debloater.rebuild_source``
rather than ``repro.core.ast_transform.rebuild_source`` — records one
span per call, and restores the originals afterwards.  Per-row hot
methods (``ExecutionLog.append_row``, ``TelemetrySink.observe_row``, ...)
are not given a span each: their call count and time are added to the
innermost open span, so self time still accounts for them.

Nothing here touches the program's own ``repro.obs`` recorder, which
stays at its null default: enabling it changes what ``replay_fleet``
does (per-function recorders, counter spooling).
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

_clock = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    ident: str | None
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    #: name -> [calls, seconds, items] for per-row methods timed in aggregate.
    agg: dict[str, list] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; :meth:`dump` writes them out at the end."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str, ident: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if ident is None and parent is not None:
            ident = self.spans[parent].ident
        self.spans.append(Span(name, _clock(), parent, ident))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = _clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span nesting broken: {popped} != {index}")

    @contextmanager
    def span(self, name: str, ident: str | None = None) -> Iterator[Span]:
        index = self.open(name, ident)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    @property
    def current(self) -> Span | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def enclosing(self, name: str) -> Span | None:
        """The innermost open span called *name*."""
        for index in reversed(self._stack):
            if self.spans[index].name == name:
                return self.spans[index]
        return None

    def _agg_slot(self, name: str) -> list:
        target = self.current.agg
        slot = target.get(name)
        if slot is None:
            slot = target[name] = [0, 0.0, 0]
        return slot

    # -- patching --------------------------------------------------------

    def _install(self, owner: Any, attr: str, wrapper: Any) -> None:
        # Owners are modules (plain functions) or classes (plain methods:
        # the wrapper then receives ``self`` first).  An inherited method
        # is shadowed on *owner* and the shadow deleted on uninstall.
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, wrapper)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        ident: Callable[..., str | None] | None = None,
        after: Callable[[Span, tuple, Any], None] | None = None,
    ) -> None:
        """Give every call of ``owner.attr`` its own span named *name*."""
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name, ident(*args, **kwargs) if ident else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer.spans[index], args, result)
            return result

        self._install(owner, attr, traced)

    def aggregate(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        size: Callable[[Any], int] | None = None,
    ) -> None:
        """Time ``owner.attr`` in aggregate under the innermost open span.

        Each call counts as one item, or — with *size* — as the growth of
        ``size(self)`` across the call (e.g. rows a bulk append added).
        """
        fn = getattr(owner, attr)
        tracer = self

        def timed(obj, *args, **kwargs):
            before = size(obj) if size is not None else 0
            started = _clock()
            try:
                return fn(obj, *args, **kwargs)
            finally:
                slot = tracer._agg_slot(name)
                slot[0] += 1
                slot[1] += _clock() - started
                slot[2] += size(obj) - before if size is not None else 1

        self._install(owner, attr, timed)

    def observe(
        self, owner: Any, attr: str, on_result: Callable[[Any], None]
    ) -> None:
        """Pass each result of ``owner.attr`` to *on_result*; no span."""
        fn = getattr(owner, attr)

        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result)
            return result

        self._install(owner, attr, observed)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- derived numbers -------------------------------------------------

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(index)
        return kids

    def self_time(self, index: int, kids: dict[int, list[int]]) -> float:
        """Duration minus what child spans and aggregated calls cover."""
        span = self.spans[index]
        covered = sum(self.spans[k].duration for k in kids.get(index, ()))
        covered += sum(slot[1] for slot in span.agg.values())
        return span.duration - covered

    def agg_totals(self) -> dict[str, list]:
        totals: dict[str, list] = {}
        for span in self.spans:
            for name, (calls, seconds, items) in span.agg.items():
                slot = totals.setdefault(name, [0, 0.0, 0])
                slot[0] += calls
                slot[1] += seconds
                slot[2] += items
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                row = {
                    "i": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "id": span.ident,
                }
                if span.attrs:
                    row["attrs"] = span.attrs
                if span.agg:
                    row["agg"] = span.agg
                handle.write(json.dumps(row) + "\n")


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]
