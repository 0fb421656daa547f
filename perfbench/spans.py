"""In-memory spans around diamondeq's public functions.

Each public function is wrapped at every module attribute that callers read
it from, so ``diamondeq.mmw.herm_eig`` (the solver loop's calls) is timed
apart from ``diamondeq.linalg.herm_eig`` (calls made inside linalg, such as
from ``pos_proj``). A span records the invocation it belongs to, its lookup
site, the function's home, its start and end, and its parent span. Nothing is
written while spans are recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

#: Modules whose attributes are wrapped; the package ``__init__`` re-exports
#: are left alone because the CLI never looks functions up there.
MODULES = ("channels", "cli", "estimator", "linalg", "mmw", "oracles", "reduction")


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Records spans while installed; ``request`` tags the invocation."""

    def __init__(self):
        self.spans = []  # [request, site, home, start, end, parent]
        self.request = 0
        self._stack = []
        self._saved = []

    def _wrap(self, site: str, home: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [self.request, site, home, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                span[3] = start
                stack.pop()

        return traced

    def install(self, package) -> None:
        for name in MODULES:
            module = importlib.import_module(f"{package.__name__}.{name}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith(package.__name__ + ".")):
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(
                    f"{name}.{attr}", f"{_short(fn.__module__)}.{fn.__name__}", fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def drain(self) -> list:
        """Return the spans recorded so far and start a new list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def span_totals(spans: list) -> dict:
    """``{name: [calls, seconds, self_seconds]}`` keyed by both lookup site
    and home. A home key (``linalg.herm_eig``) sums every call of the
    function; a site key in another module (``mmw.herm_eig``) sums only the
    calls looked up there. Self time excludes direct child spans."""
    child = [0.0] * len(spans)
    for _, _, _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for k, (_, site, home, start, end, _) in enumerate(spans):
        for key in {site, home}:
            row = out[key]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[k]
    return dict(out)


def write_spans(spans: list, path: str) -> None:
    """One JSON array per line: request, site, home, start, end, parent."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span))
            handle.write("\n")
