"""Span tracing installed from outside the package.

The tracer replaces public functions and methods of ``ckqg`` with wrappers
that record one span per call: name, start, end, parent span and run id.
Spans stay in memory until the run ends. Nothing under ``src/`` is edited;
a function imported by name into another module is wrapped at every module
attribute bound to it, so calls through either name are seen.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    run: int             # one id per command the benchmark issues
    error: bool = False  # an exception left the call
    value: object = None  # count observed on the call, if any


@dataclass(frozen=True)
class Target:
    """One traced callable: ``owner`` is a module name or ``module:Class``.

    ``observe`` maps (args, result) to a count stored on the span; ``before``
    runs on the arguments outside the span and its result is stored too.
    """
    span: str
    owner: str
    attr: str
    observe: object = None
    before: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self.installed: list[str] = []   # "module.attr" sites patched
        self.missing: list[str] = []     # targets that could not be wrapped
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the caller; yields the Span."""
        idx = self._open(name)
        try:
            yield self.spans[idx]
        except BaseException:
            self._close(idx, True)
            raise
        self._close(idx, False)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, error: bool) -> None:
        sp = self.spans[idx]
        sp.end = time.perf_counter()
        sp.error = error
        self._stack.pop()

    def wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = target.before(args) if target.before is not None else None
            with self.span(target.span) as sp:
                result = fn(*args, **kwargs)
            sp.value = target.observe(args, result) if target.observe is not None else pre
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, targets: list[Target], required_sites: tuple[str, ...] = ()) -> None:
        """Wrap every target. A function is replaced at each ``ckqg`` module
        attribute bound to it; ``required_sites`` lists ``module.attr``
        bindings that must be among them or are reported missing."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ckqg" or n.startswith("ckqg."))]
        for target in targets:
            mod_name, _, cls_name = target.owner.partition(":")
            owner = sys.modules.get(mod_name)
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, target.attr, None) if owner is not None else None
            if fn is None or not callable(fn):
                self.missing.append(target.span)
                continue
            wrapper = self.wrap(target, fn)
            if cls_name:
                self._patch(owner, target.attr, wrapper, f"{target.owner}.{target.attr}")
                continue
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, attr, wrapper, f"{mod.__name__}.{attr}")
        for site in required_sites:
            if site not in self.installed:
                self.missing.append(site)

    def _patch(self, owner, attr: str, new, site: str) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)
        self.installed.append(site)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and merged where they
    overlap, so a covered instant is subtracted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered, cur_s, cur_e = 0.0, None, None
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, sp.start), min(e, sp.end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((sp.end - sp.start) - covered)
    return out


def tape_size(loss) -> tuple[int, int]:
    """Nodes and array bytes reachable from ``loss`` through ``_parents``."""
    seen = {id(loss)}
    stack = [loss]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += node.data.nbytes
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen), nbytes
