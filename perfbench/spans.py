"""Spans around calls into convrec's public functions, recorded from outside.

A Tracer replaces a function in the namespace where its caller looks it up
(say ``convrec.training.adam_step``, or ``batch_forward`` in both
``convrec.batch`` and ``convrec.evaluate``) with a wrapper that records a
span: name, start, end and the index of the span that was open when the call
began. The package itself is not modified, and ``restore`` puts every
original back. Spans stay in memory until ``dump`` writes them out.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict


def resolve(target: str) -> tuple[object, str]:
    """The object and attribute name that ``"module:name.name"`` points to.

    Modules are resolved with importlib, which goes through sys.modules: the
    package attribute ``convrec.evaluate`` is the function of that name and
    hides the submodule.
    """
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


@contextlib.contextmanager
def patched(target: str, wrap):
    """Replace the function ``target`` by ``wrap(original)`` inside the block."""
    owner, attr = resolve(target)
    original = getattr(owner, attr)
    setattr(owner, attr, wrap(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.kept: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, target: str, span: str, keep=None) -> None:
        """Wrap ``"module:function"`` or ``"module:Class.method"``.

        ``keep(args, kwargs, result)``, if given, runs after the span has
        closed, so its cost stays out of the span, and its value is appended
        to ``kept[span]``.
        """
        owner, attr = resolve(target)
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        spans, stack, kept = self.spans, self._stack, self.kept[span]

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([span, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                record = spans[index]
                record[1], record[2] = start, end
            if keep is not None:
                kept.append(keep(args, kwargs, result))
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def total(self, name: str, parent: str | None = None, since: int = 0) -> float:
        """Summed duration of the spans called ``name`` (under ``parent``),
        counting from span number ``since``."""
        spans = self.spans
        return sum(
            s[2] - s[1]
            for s in spans[since:]
            if s[0] == name and (parent is None or (s[3] >= 0 and spans[s[3]][0] == parent))
        )

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` minus the time its child spans cover."""
        covered = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - covered[i] for i, s in enumerate(self.spans) if s[0] == name)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": self.spans}, fh)
