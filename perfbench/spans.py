"""In-memory span recording around a program's public entry points.

A :class:`SpanRecorder` wraps functions and methods so each call
records a span -- name, start, end, parent -- plus any counts the
boundary reports.  Spans live in memory until the traced pass ends;
nothing inside the program changes except that the wrapped names now
point at the wrappers.

Only calls made while a root span is open are recorded, so work done
after the timed region (rendering the report digest, say) is not
attributed.  A span's *self time* is its duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchstats import union_length


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    counts: Dict[str, float] = field(default_factory=dict)


#: Names a span: a fixed string, or a function of the call's positional
#: arguments that returns the name (``None`` = do not record this call).
Namer = Any
#: ``before(args, kwargs) -> state`` runs before the call; ``after(result,
#: args, kwargs, state) -> counts`` runs after it, inside the span.
Before = Callable[[tuple, dict], Any]
After = Callable[[Any, tuple, dict, Any], Dict[str, float]]


class SpanRecorder:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def wrap(
        self,
        function: Callable,
        name: Namer,
        before: Optional[Before] = None,
        after: Optional[After] = None,
        root: bool = False,
    ) -> Callable:
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not recorder._stack and not root:
                return function(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            if span_name is None:
                return function(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            parent = recorder._stack[-1] if recorder._stack else -1
            span = Span(span_name, recorder.clock(), 0.0, parent)
            recorder._stack.append(len(recorder.spans))
            recorder.spans.append(span)
            try:
                result = function(*args, **kwargs)
                if after is not None:
                    span.counts.update(after(result, args, kwargs, state))
                return result
            finally:
                recorder._stack.pop()
                span.end = recorder.clock()

        return wrapper


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, [])
        ]
        result.append((span.end - span.start) - union_length(clipped))
    return result


def patch_everywhere(original: Any, replacement: Any, prefix: str = "repro") -> int:
    """Rebind every module-level name under ``prefix`` bound to ``original``.

    ``from x import f`` copies the binding into the importing module,
    so wrapping a function means rebinding it wherever it was copied.
    Returns the number of bindings replaced.
    """
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == prefix or module_name.startswith(prefix + ".")
        ):
            continue
        namespace = vars(module)
        for attribute, value in list(namespace.items()):
            if value is original:
                namespace[attribute] = replacement
                replaced += 1
    return replaced
