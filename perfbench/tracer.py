"""Spans recorded from outside the library, by patching module attributes.

A wrapper replaces an attribute that callers resolve at call time (for
example ``pointmeta.trainer.forward``, which ``SegmentationTask`` looks up
as a module global) and records one span per call: name, start, end,
parent span, the meta-step or adapt-eval episode it belongs to, and an
optional ``info`` dict with counts read from the arguments or the result.
Spans stay in memory until the run ends.  ``restore`` puts every patched
attribute back.

Step attribution follows the pretrain loop: a step starts when the previous
``meta_step`` returns (or when ``pretrain`` is entered) and ends when its own
``meta_step`` returns, so episode sampling belongs to the step it feeds.
"""

from __future__ import annotations

import json
import os
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "step", "episode", "info")

    def __init__(self, name, start, parent, step, episode):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.step = step
        self.episode = episode
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, index: int) -> dict:
        return {
            "id": index, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "step": self.step, "episode": self.episode, "info": self.info,
        }


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.step = None  # index of the meta-step in progress inside pretrain
        self.episode = None  # index of the adapt-eval episode in progress

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent, self.step, self.episode))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int, info=None) -> None:
        span = self.spans[index]
        span.end = self.clock()
        span.info = info
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def wrap(self, fn, name: str, pre=None, post=None, enter=None, leave=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``pre(args, kwargs)`` and ``post(args, kwargs, result)`` return dicts
        merged into the span's info; ``enter``/``leave`` update the step and
        episode context around the call.
        """

        def wrapper(*args, **kwargs):
            info = dict(pre(args, kwargs)) if pre else {}
            if enter:
                enter(self)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index, info or None)
                if leave:
                    leave(self)
                raise
            if post:
                info.update(post(args, kwargs, result))
            self.end(index, info or None)
            if leave:
                leave(self)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **hooks))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_dict(i)) + "\n")
        os.replace(tmp, path)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are merged before subtracting, so overlapping children
    are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        result.append(span.duration - covered)
    return result
