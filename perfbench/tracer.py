"""In-memory span tracer that wraps layer entry points from outside ``src/``.

The program has no tracing of its own, so the benchmark times the calls
into each layer by replacing the function *where the caller looks it up*
(a module global such as ``repro.codex.sampler.apply_mutation``, or a class
attribute such as ``SimulatedCodex.complete``) with a timing wrapper.
:meth:`Tracer.restore` puts every original back, so an untraced pass in the
same process measures unwrapped code.

Spans are kept in memory as tuples and written out once, at the end of the
run.  The evaluation is single-threaded (``serial`` backend), so spans nest
strictly and a span's self time is its duration minus that of its direct
children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable

_MISSING = object()

#: One span: (id, parent id or -1, name, start ns, end ns, phase, seed, cell).
Span = tuple[int, int, str, int, int, str, Any, Any]


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Per phase, extra tallies fed by ``note`` callbacks.
        self.notes: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.phase = "setup"
        self.seed: Any = None
        self.cell: Any = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []
        #: (id(owner), attr) -> (owner, attr, value before the first wrap).
        self._before: dict[tuple[int, str], tuple[Any, str, Any]] = {}

    # -- patching -------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[..., str],
        *,
        note: Callable[["Tracer", tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a function of the call's arguments
        returning one.  ``note(tracer, args, result)`` may add tallies.
        """
        target = getattr(owner, attr)
        tracer = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = target(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append(
                    (span_id, parent, span_name, start, end, tracer.phase, tracer.seed, tracer.cell)
                )
            if note is not None:
                note(tracer, args, result)
            return result

        self._install(owner, attr, wrapper)

    def context(self, owner: Any, attr: str, field: str, value: Callable[..., Any]) -> None:
        """Wrap ``owner.attr`` so spans recorded during the call carry
        ``field`` (``"seed"`` or ``"cell"``) = ``value(*args)``; no span."""
        target = getattr(owner, attr)
        tracer = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            saved = getattr(tracer, field)
            setattr(tracer, field, value(*args, **kwargs))
            try:
                return target(*args, **kwargs)
            finally:
                setattr(tracer, field, saved)

        self._install(owner, attr, wrapper)

    def _install(self, owner: Any, attr: str, wrapper: Any) -> None:
        # A class attribute may be inherited: restore by deleting, not setting.
        if isinstance(owner, type):
            original = owner.__dict__.get(attr, _MISSING)
        else:
            original = getattr(owner, attr)
        self._before.setdefault((id(owner), attr), (owner, attr, getattr(owner, attr)))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def targets(self) -> list[tuple[Any, str]]:
        """Every (owner, attribute) this tracer has wrapped."""
        return [(owner, attr) for owner, attr, _ in self._before.values()]

    def restored(self) -> bool:
        """Whether every wrapped attribute is its original object again."""
        return all(getattr(owner, attr) is before for owner, attr, before in self._before.values())

    def note(self, key: str, amount: float) -> None:
        """Add ``amount`` to the tally ``key`` of the current phase."""
        self.notes[self.phase][key] += amount

    # -- analysis -------------------------------------------------------------
    def aggregate(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_ms`` and ``self_ms`` over ``phase``."""
        child_ns: dict[int, int] = defaultdict(int)
        for span_id, parent, _, start, end, *_ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0}
        )
        for span_id, _, name, start, end, span_phase, *_ in self.spans:
            if span_phase != phase:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["busy_ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - child_ns[span_id]) / 1e6
        return dict(out)

    def write(self, path, header: dict) -> None:
        """Write ``header`` then one JSON array per span (NDJSON)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {**header, "span_fields": ["id", "parent", "name", "start_ns", "end_ns",
                                           "phase", "seed", "cell"]}
            ) + "\n")
            for span in sorted(self.spans):
                handle.write(json.dumps(span) + "\n")
