"""Per-module spans around groupalg's public functions, installed from outside.

Tracer.install wraps every public function of every loaded groupalg module,
the public methods of the classes those modules define, and the operator
methods FMatrix.__matmul__ and AlgebraElem.__mul__.  It then rebinds every
module attribute that still refers to an original, so a name bound by
`from .linalg import rank` in another module is traced as well.  Nothing is
installed unless a traced run asks for it.

A span's self time is its duration minus the durations of the spans it
directly encloses; a module's self time is the sum over its spans.  A
function's own total counts only its outermost call, so recursion (as in
make_group on product specs) is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

FIELD_ARITH = ("add", "neg", "sub", "mul", "inv", "div", "pow", "sum", "cummul")
OPERATORS = ("__matmul__", "__mul__")
ALIASES = {"linalg.FMatrix.__matmul__": "linalg.matmul",
           "algebra.AlgebraElem.__mul__": "algebra.mul"}


class Spans:
    """Accumulated span totals; a Tracer writes into one Spans at a time."""

    def __init__(self):
        self.stack = []           # child-time accumulators of the open spans
        self.open = Counter()     # open spans per key, to skip recursive totals
        self.total = defaultdict(float)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.work = Counter()     # counters computed from arguments

    def as_dict(self) -> dict:
        return {"total_s": dict(self.total), "calls": dict(self.calls),
                "self_s": dict(self.self_s), "work": dict(self.work)}


def _size(x) -> int:
    return x.size if isinstance(x, np.ndarray) else 1


def _work(key: str, args, kwargs, spans: Spans) -> None:
    """Work counters for the keys the per-layer metrics name."""
    if key.startswith("field.Field.") and key[12:] in FIELD_ARITH:
        spans.work["field.calls"] += 1
        spans.work["field.elements"] += max((_size(a) for a in args[1:3]), default=1)
    elif key == "linalg.rank":
        spans.work["linalg.rank.cells"] += args[0].rows * args[0].cols
    elif key == "linalg.charpoly_xm":
        s = args[0].rows
        spans.work["linalg.charpoly_xm.nodes"] += s * (s - 1) // 2 + 1
    elif key == "dimension.dim_mulmuley_random":
        trials = kwargs.get("trials", args[2] if len(args) > 2 else 3)  # 3: the default
        spans.work["dimension.mulmuley_random.trials"] += trials


class Tracer:
    def __init__(self):
        self.spans = Spans()

    def _wrap(self, module: str, key: str, fn):
        tracer = self
        key = ALIASES.get(key, key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            _work(key, args, kwargs, spans)
            spans.stack.append(0.0)
            spans.open[key] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = spans.stack.pop()
                spans.open[key] -= 1
                spans.self_s[module] += dt - child
                if spans.stack:
                    spans.stack[-1] += dt
                if not spans.open[key]:
                    spans.total[key] += dt
                spans.calls[key] += 1

        return traced

    def install(self, package: str = "groupalg") -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == package or name.startswith(package + ".")}
        replaced = {}
        for name, mod in modules.items():
            short = name.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    replaced[id(obj)] = (obj, self._wrap(short, f"{short}.{attr}", obj))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (not meth.startswith("_")
                                                       or meth in OPERATORS):
                            setattr(obj, meth,
                                    self._wrap(short, f"{short}.{attr}.{meth}", fn))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
