"""Runtime spans around psinv's public functions, recorded from outside.

`Tracer.install()` replaces every public module-level function of the given
psinv modules with a timing wrapper.  `from .x import f` copies a binding
into the importing module, so a wrapper has to replace every binding of the
original object in every loaded psinv module, not only the attribute of the
defining module; `uninstall()` puts all of them back.

Each call records one span (id, parent id, name, job id, start, end, time
covered by child spans) and adds to per-name totals: calls, busy time (sum
of durations) and self time (durations minus the child spans they contain).
Jobs run on one thread, so spans nest strictly and a parent's children never
overlap.  Counter hooks run after a span closes and read the call's
arguments and result, so counts are taken at the same boundaries as times.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# (span id, parent id, name, job id, start ns, end ns, child ns)
Span = Tuple[int, int, str, Optional[str], int, int, int]

Hook = Callable[["Tracer", tuple, dict, object], None]

# spans kept for the nesting check and the span dump; totals count them all
MAX_SPANS = 200_000


class Tracer:
    """Spans and counts of psinv's public functions while installed."""

    def __init__(self, modules: Iterable, hooks: Dict[str, Hook],
                 extra: Iterable[str] = (), skip: Iterable[str] = ()):
        self.modules = list(modules)
        self.hooks = hooks
        self.extra = tuple(extra)
        self.skip = set(skip)
        self.spans: List[Span] = []
        self.calls: Counter = Counter()
        self.busy_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counters: Counter = Counter()
        self.memo: Dict[int, object] = {}
        self.job_ns = 0
        self.covered_ns = 0
        self._job: Optional[str] = None
        self._job_start = 0
        self._next_id = 1
        # frames: [span id, child ns]; the bottom frame catches calls outside jobs
        self._stack: List[list] = [[0, 0]]
        self._patches: List[Tuple[object, str, object]] = []
        self.targets = self._discover()

    @staticmethod
    def short(module) -> str:
        return module.__name__.rsplit(".", 1)[-1]

    def _discover(self) -> Dict[str, object]:
        targets = {}
        for module in self.modules:
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != module.__name__:
                    continue
                qualified = f"{self.short(module)}.{name}"
                if qualified not in self.skip:
                    targets[qualified] = obj
        by_short = {self.short(m): m for m in self.modules}
        for qualified in self.extra:
            owner_name, *path = qualified.split(".")
            owner = by_short[owner_name]
            for part in path[:-1]:
                owner = getattr(owner, part)
            targets[qualified] = getattr(owner, path[-1])
        return targets

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.targets.items()}
        holders = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "psinv" or name.startswith("psinv."))]
        holders += [obj for m in holders for obj in vars(m).values()
                    if inspect.isclass(obj) and obj.__module__.startswith("psinv")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((holder, attr, value))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = self.hooks.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0]
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self._close(span_id, parent, name, start, end, frame[1])
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _close(self, span_id, parent, name, start, end, child_ns) -> None:
        duration = end - start
        self._stack[-1][1] += duration
        self.calls[name] += 1
        self.busy_ns[name] += duration
        self.self_ns[name] += duration - child_ns
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, name, self._job, start, end, child_ns))

    def begin_job(self, job_id: str) -> None:
        span_id = self._next_id
        self._next_id += 1
        self._job = job_id
        self._stack.append([span_id, 0])
        self._job_start = perf_counter_ns()

    def end_job(self) -> None:
        end = perf_counter_ns()
        span_id, child_ns = self._stack.pop()
        self.job_ns += end - self._job_start
        self.covered_ns += child_ns
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, 0, "job", self._job, self._job_start, end, child_ns))
        self._job = None
        self.memo.clear()

    def totals(self) -> dict:
        return {"calls": self.calls, "busy_ns": self.busy_ns, "self_ns": self.self_ns,
                "counters": self.counters, "job_ns": self.job_ns,
                "covered_ns": self.covered_ns}


def check_nesting(spans: List[Span]) -> List[str]:
    """Problems with a span list: self time above duration, a child outside
    its parent's interval or job, or a parent whose recorded child time is not
    the sum of its children's durations."""
    problems = []
    by_id = {s[0]: s for s in spans}
    children = defaultdict(int)
    for span_id, parent, name, job, start, end, child_ns in spans:
        if child_ns < 0 or child_ns > end - start:
            problems.append(f"span {span_id} {name}: self time exceeds duration")
        if parent == 0:
            continue
        outer = by_id.get(parent)
        if outer is None:
            continue  # the parent closed after the span list filled up
        if not (outer[4] <= start and end <= outer[5]):
            problems.append(f"span {span_id} {name} lies outside parent {parent}")
        if outer[3] != job:
            problems.append(f"span {span_id} {name} has another job than its parent")
        children[parent] += end - start
    for parent, total in children.items():
        if total != by_id[parent][6]:
            problems.append(f"span {parent}: child time {by_id[parent][6]} != "
                            f"sum of its children {total}")
    return problems
