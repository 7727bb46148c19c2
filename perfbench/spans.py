"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from outside the library: the recorder replaces a public
function at the module attribute its caller looks up (and each model
instance's ``eval``/``deriv``) with a wrapper that records name, start, end
and parent.  Nothing inside ``crossinglab`` knows about it.  Spans stay in
memory and are written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None          # index of the enclosing span, None at top level
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Records spans of wrapped callables and restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, fn, name: str, before=None, after=None):
        """Wrapper around ``fn`` that records one span per call.

        ``before(span, args, kwargs)`` runs just before the call and
        ``after(span, args, kwargs, result)`` just after it returns; both may
        store values in ``span.attrs``.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            if before is not None:
                before(span, args, kwargs)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return wrapper

    def patch(self, module_name: str, attr: str, name: str, before=None, after=None) -> bool:
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``) in place.

        Returns False, changing nothing, when the attribute does not exist, so
        that a later version of the library that drops a function simply
        reports zero for its spans.
        """
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        raw = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
        if raw is None:
            return False
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, name, before, after))
        else:
            new = self.wrap(raw, name, before, after)
        setattr(owner, leaf, new)
        self._undo.append(lambda: setattr(owner, leaf, raw))
        return True

    def patch_instance(self, obj, attr: str, name: str, before=None, after=None) -> None:
        """Wrap a bound method on one instance; the class stays untouched."""
        setattr(obj, attr, self.wrap(getattr(obj, attr), name, before, after))
        self._undo.append(lambda: obj.__dict__.pop(attr, None))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "attrs": s.attrs} for s in self.spans]


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            parent = spans[s.parent]
            children.setdefault(s.parent, []).append(
                (max(s.start, parent.start), min(s.end, parent.end)))
    return [s.duration - covered_length(children.get(i, [])) for i, s in enumerate(spans)]


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` that have no ancestor of the same name."""
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and spans[p].name != name:
            p = spans[p].parent
        if p is None:
            out.append(s)
    return out


def has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
