"""Spans around the public functions of the six anisofast modules.

A span records its name, layer, start, end, parent span and campaign id.
Spans named in READ_SPANS also record the bytes the process read during the
call (the `rchar` counter of /proc/self/io).  Spans are kept in memory and
written once, by `dump`, at the end of a run.

`install` replaces every module-level binding of a wrapped function, not only
the defining one.  Two modules bind names from another module (`extinction`
imports `cube_integral` and `cube_sup` from `harnack`; `harnack` imports
`intrinsic_cube`, `standard_cube` and `scale_cube` from `geometry`), and a
call through such a binding would otherwise go uncounted.  `uninstall`
restores the originals, so untraced campaigns run the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import time

LAYERS = ("solver", "harnack", "extinction", "lemmas", "geometry", "cli")

# span record fields
NAME, LAYER, START, END, PARENT, CAMPAIGN, READ = range(7)

# spans that also record the bytes read during the call
READ_SPANS = {"solver.load_trajectory"}


def _rchar() -> tuple[int, int]:
    """(bytes this process had read before this call, bytes this call read)."""
    fd = os.open("/proc/self/io", os.O_RDONLY)
    try:
        text = os.read(fd, 4096)
    finally:
        os.close(fd)
    return int(text.split()[1]), len(text)


class Tracer:
    def __init__(self):
        self.modules = [importlib.import_module(f"anisofast.{layer}") for layer in LAYERS]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._campaign = None
        self._saved: list[tuple] = []
        self._wrappers = {}
        for layer, module in zip(LAYERS, self.modules):
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == module.__name__
                ):
                    self._wrappers[fn] = self._wrap(fn, f"{layer}.{attr}", layer)

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        reads = name in READ_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self._campaign, 0]
            stack.append(len(spans))
            spans.append(record)
            if reads:
                before, own = _rchar()
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                if reads:
                    record[READ] = _rchar()[0] - before - own
                stack.pop()

        return traced

    def install(self) -> None:
        if self._saved:
            return
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, self._wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in self._saved:
            setattr(module, attr, original)
        self._saved.clear()

    @contextlib.contextmanager
    def campaign(self, campaign_id):
        """Trace one campaign under a root span named `campaign`."""
        self.install()
        self._campaign = campaign_id
        record = ["campaign", "bench", 0.0, 0.0, -1, campaign_id, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()
            self._campaign = None
            self.uninstall()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "layer", "start", "end", "parent", "campaign", "read_bytes"],
                 "spans": self.spans},
                fh,
            )


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own
