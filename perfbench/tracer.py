"""Spans around the public functions of sapcert, recorded from outside the package.

``Tracer.install`` replaces every public function of the sapcert modules,
in every module namespace that holds it, by a wrapper that records one
span (name, start, end, parent) while tracing is enabled.  Spans stay in
flat arrays in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter


def _realize_case(args, result, exc):
    # the ladder is taken when the unscaled system has no admissible root;
    # a failed realize has gone all the way down it
    if exc is not None or result.scaling_c < 1.0:
        return "ladder"
    return "unscaled"


def _fixed_sign_case(args, result, exc):
    p, deleted = args[0], tuple(args[1])
    return "corner" if deleted == (p.n - 1, p.n - 1) else "other"


# span name -> function of (args, result, exception) giving a sub-case
CASES = {
    "realize.realize": _realize_case,
    "minimality.confirm_fixed_sign": _fixed_sign_case,
}

# span name -> (counter name, function of (args, result) giving an amount)
COUNTERS = {
    "polyroots.isolate_positive_roots": ("brackets", lambda args, res: len(res)),
    "polyroots.sturm_chain": ("degree_sum", lambda args, res: args[0].degree),
    "realize.newton_solve": ("iterations", lambda args, res: res.iterations),
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.case: dict[int, str] = {}
        self.amount: dict[int, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (module, attribute, original function)

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        case_of = CASES.get(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                self.end[idx] = perf_counter()
                self.start[idx] = t0
                self._stack.pop()
                if case_of is not None:
                    self.case[idx] = case_of(args, result, exc)
                if counter is not None and exc is None:
                    self.amount[idx] = counter[1](args, result)

        return traced

    def install(self, package: str) -> None:
        """Wrap the public functions defined in each imported module of ``package``.

        Tracing starts enabled; :meth:`uninstall` puts the originals back.
        """
        modules = [
            m for name, m in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        replaced = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    replaced[fn] = self.wrap(f"{short}.{attr}", fn)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, replaced[obj])
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        for mod, attr, original in self._patches:
            setattr(mod, attr, original)
        self._patches.clear()

    def totals(self) -> dict[str, float]:
        """calls, self_s, total_s and counters per span name and per case."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_id[i]]
            keys = [name]
            if i in self.case:
                keys.append(f"{name}.{self.case[i]}")
            # total_s counts only the outermost span of a name
            outer = True
            p = self.parent[i]
            while p >= 0:
                if self.name_id[p] == self.name_id[i]:
                    outer = False
                    break
                p = self.parent[p]
            for key in keys:
                out[f"{key}.calls"] += 1
                out[f"{key}.self_s"] += dur[i] - child[i]
                if outer:
                    out[f"{key}.total_s"] += dur[i]
            if i in self.amount:
                out[f"{name}.{COUNTERS[name][0]}"] += self.amount[i]
        return out

    def dump(self, path) -> None:
        """Write the spans, gzipped, as columns: name table, name ids, parents, starts, ends."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(
                {
                    "names": self.names,
                    "name_id": self.name_id.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "case": {str(k): v for k, v in self.case.items()},
                },
                fh,
            )
