"""In-memory span tracing of porolab's public functions, installed from outside.

:func:`install` replaces every public function of the porolab modules with a
wrapper that records a span (name, start, end, parent) around the call. The
wrapper goes wherever a porolab module holds the function, so a caller that
imported it by name (``from .tensor import conv2d``) calls the wrapper too.
The backward closure an op hands to ``Tape.record`` is wrapped as a span named
``<op>.bwd``. :meth:`Patches.restore` puts every original back. Nothing in the
package changes on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

MODULES = ("grf", "simulator", "dataio", "tensor", "spectral", "operators", "training")

# Methods whose spans the layer metrics read, as "<module>.<Class>.<method>".
METHODS = ("tensor.Tape.backward", "operators.Fno.forward", "operators.Mgno.forward",
           "operators.Fno.predict_fields", "operators.Mgno.predict_fields")
RECORD = "tensor.Tape.record"
CONV_OPS = ("tensor.conv2d", "tensor.conv2d_transpose")

# span fields
NAME, START, END, PARENT, PHASE, OP, FAILED, NESTED, EXTRA = range(9)


class Tracer:
    """Keeps spans in memory; the workload sets ``phase`` and ``op`` as it runs.

    A span is a list ``[name, start, end, parent, phase, op, failed, nested,
    extra]``: ``parent`` is the index of the enclosing span (-1 at the top),
    ``nested`` marks a span inside another span of the same name (recursion),
    and ``extra`` carries the computed flops of a convolution or 1 for a
    spectral call that promoted a float32 model's data to 64 bits.
    """

    def __init__(self, float32_model: bool = False):
        self.spans: list[list] = []
        self.counts: Counter = Counter()     # (phase, name) -> count
        self.phase = "setup"
        self.op = 0
        self.float32_model = float32_model
        self.installed: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.phase, self.op,
                           False, self._open[name] > 0, 0.0])
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def end(self, idx: int, failed: bool = False) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[FAILED] = failed
        self._stack.pop()
        self._open[span[NAME]] -= 1

    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    def count(self, name: str) -> None:
        self.counts[(self.phase, name)] += 1

    def wrap(self, name: str, fn, after=None, extra_from: int = -1):
        """Wrapper recording a span around ``fn``; ``after(span, args, result)`` may annotate it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(idx, failed=True)
                raise
            if after is not None:
                after(tracer.spans[idx], args, result)
            elif extra_from >= 0:
                tracer.spans[idx][EXTRA] = 2.0 * tracer.spans[extra_from][EXTRA]
            tracer.end(idx)
            return result

        return wrapper

    def write(self, path) -> None:
        """Write spans, counts and absent names as JSON (once, when the run ends)."""
        payload = {
            "fields": ["name", "start", "end", "parent", "phase", "op", "failed", "nested",
                       "extra"],
            "spans": self.spans,
            "counts": [[phase, name, n] for (phase, name), n in sorted(self.counts.items())],
            "absent": self.absent,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _conv_flops(span, args, result) -> None:
    """Nominal multiply-add flops of a forward conv2d or conv2d_transpose call."""
    x, k = args[0], args[1]
    co, ci, kh, kw = k.data.shape
    # conv2d: out [(B),Co,Ho,Wo]; conv2d_transpose: input [(B),Co,Ho,Wo]
    coarse = result.data if span[NAME] == "tensor.conv2d" else x.data
    span[EXTRA] = 2.0 * coarse.size * ci * kh * kw


def _promotion(tracer: Tracer):
    """Marks a spectral call of a float32 model whose result is float64 or complex128."""
    def after(span, args, result) -> None:
        if tracer.float32_model and str(getattr(result, "dtype", "")) in ("float64", "complex128"):
            span[EXTRA] = 1.0
    return after


def _porolab_modules(package: str) -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


def install(tracer: Tracer, package: str = "porolab") -> Patches:
    """Wrap the package's public functions and the listed methods; returns the undo log."""
    patches = Patches()
    mods = {}
    for short in MODULES:
        try:
            mods[short] = importlib.import_module(f"{package}.{short}")
        except ImportError:
            tracer.absent.append(short)
    promote = _promotion(tracer)
    wrappers: dict[int, tuple[object, object]] = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) \
                    or obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            after = _conv_flops if name in CONV_OPS else promote if short == "spectral" else None
            wrappers[id(obj)] = (obj, tracer.wrap(name, obj, after))
            tracer.installed.add(name)
    for mod in _porolab_modules(package):
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                patches.set(mod, attr, hit[1])

    for qual in METHODS:
        owner, attr = _resolve(mods, qual)
        if owner is None:
            tracer.absent.append(qual)
            continue
        patches.set(owner, attr, tracer.wrap(qual, getattr(owner, attr)))
        tracer.installed.add(qual)

    owner, attr = _resolve(mods, RECORD)
    if owner is None:
        tracer.absent.append(RECORD)
    else:
        original = getattr(owner, attr)

        def record(tape, out, inputs, backward_fn):
            op = tracer.current()
            name = tracer.spans[op][NAME] if op >= 0 else "tensor.unattributed"
            tracer.count("tensor.tape.nodes")
            wrapped = tracer.wrap(name + ".bwd", backward_fn,
                                  extra_from=op if name in CONV_OPS else -1)
            return original(tape, out, inputs, wrapped)

        patches.set(owner, attr, functools.wraps(original)(record))
        tracer.installed.add(RECORD)
    return patches


def _resolve(mods: dict, qual: str):
    short, cls_name, attr = qual.split(".")
    cls = getattr(mods.get(short), cls_name, None)
    if cls is None or not callable(getattr(cls, attr, None)):
        return None, None
    return cls, attr


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [span[END] - span[START] - covered(children.get(i, ()), span[START], span[END])
            for i, span in enumerate(spans)]


class Stat:
    """Per (phase, span name) totals: calls, outermost duration, self time, extra."""

    __slots__ = ("calls", "total", "self", "extra", "failed", "failed_total")

    def __init__(self):
        self.calls = 0
        self.total = self.self = self.extra = self.failed_total = 0.0
        self.failed = 0


def aggregate(spans) -> dict[tuple[str, str], Stat]:
    out: dict[tuple[str, str], Stat] = defaultdict(Stat)
    for span, own in zip(spans, self_times(spans)):
        st = out[(span[PHASE], span[NAME])]
        st.calls += 1
        st.self += own
        st.extra += span[EXTRA]
        if not span[NESTED]:
            dur = span[END] - span[START]
            st.total += dur
            if span[FAILED]:
                st.failed += 1
                st.failed_total += dur
    return out
