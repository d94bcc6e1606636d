"""Span tracing of horizonlab from outside the package.

install() wraps, in place, the public functions of the seven layer
modules, the public methods of every class they define (the discount
family objects included) and the arithmetic operators of Interval.
Each wrapped call records a span (id, parent id, name, start, end) and
adds its self time, its duration minus the time covered by its child
spans, to its layer. Nothing in src/ changes; the wrappers are made
after set-up, so set-up is never traced.

The wrappers' own cost would otherwise land in the self times, mostly
in the caller's. install() first times the wrapper on a no-op (see
_calibrate) and every span then takes that cost off the self times, so
a layer's self time estimates the program's own time; the calibrated
cost per span is reported with the summary.

Spans are kept in memory up to a cap and written out at the end; past
the cap only the per-layer totals and counters are kept, and the number
of dropped spans is reported.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("intervals", "discount", "reward", "value", "theorems", "corpus", "cli")

_INTERVAL_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
)

_MAX_SPANS = 200_000


class Tracer:
    def __init__(self) -> None:
        self.stack: List[list] = []  # open spans: [layer, span id, child seconds]
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self.next_id = 1
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()  # by qualified name
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.log2_truncation = 0.0
        # wrapper cost per span, outside the span (charged to the parent)
        # and inside it (charged to the span itself); see _calibrate
        self.cost_out = 0.0
        self.cost_in = 0.0

    # -- recording ------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn: Callable,
              hook: Optional[Callable] = None) -> Callable:
        stack = self.stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        perf = time.perf_counter
        tracer = self
        cost_out, cost_in = self.cost_out, self.cost_in

        def wrapper(*args, **kwargs):
            calls[name] += 1
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [layer, sid, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # count an exception once, where it leaves the layer
                if parent is None or parent[0] != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[2] - cost_in
                if parent is not None:
                    parent[2] += duration + cost_out
                if len(spans) < _MAX_SPANS:
                    spans.append((sid, 0 if parent is None else parent[1], name, start, end))
                else:
                    tracer.dropped += 1
            if hook is not None:
                # the counters' own cost is charged to nobody
                h0 = perf()
                hook(args, kwargs, result)
                if parent is not None:
                    parent[2] += perf() - h0
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _calibrate(n: int = 20_000, repeats: int = 7) -> Tuple[float, float]:
        """Wrapper cost per span outside and inside the span's window.

        A wrapped loop makes n calls to a wrapped no-op, with two
        arguments as an Interval operator takes. The loop's recorded self
        time, less the same loop over the bare no-op, is what n child
        spans add to their parent; the no-op's recorded self time is what
        a span adds to itself. The least of a few repeats is kept, since
        time stolen by other processes only adds.
        """
        def noop(a, b):
            return None

        def loop(fn):
            for _ in range(n):
                fn(1.0, 2.0)

        outs, ins = [], []
        for _ in range(repeats):
            probe = Tracer()
            inner = probe._wrap("inner", "inner", noop)
            outer = probe._wrap("outer", "outer", loop)
            t0 = time.perf_counter()
            loop(noop)
            bare = time.perf_counter() - t0
            outer(inner)
            outs.append((probe.self_s["outer"] - bare) / n)
            ins.append(probe.self_s["inner"] / n)
        return max(min(outs), 0.0), max(min(ins), 0.0)

    def run(self, layer: str, fn: Callable, *args):
        """Call fn inside a span of the given layer (the benchmark's own ops)."""
        return self._wrap(layer, layer, fn)(*args)

    # -- derived counters -----------------------------------------------

    def _hooks(self) -> Dict[str, Callable]:
        c = self.counters

        def tail_batch(args, kwargs, result):
            c["discount.segment_bounds"] += len(args[1] if len(args) > 1 else kwargs["ks"])

        def segments(args, kwargs, result):
            c["discount.segment_bounds"] += len(args[1] if len(args) > 1 else kwargs["bounds"])

        def disc_value(args, kwargs, result):
            c["value.disc_calls"] += 1
            c[f"value.path.{result.path}"] += 1
            c["value.attained"] += 1 if result.attained else 0
            self.log2_truncation += math.log2(max(result.truncation, 1))

        def scan(args, kwargs, result):
            c["value.scan_points"] += len(result.indices)

        def identity(args, kwargs, result):
            c["corpus.identity_checks"] += result.checks

        return {
            "discount.gamma_tail_batch": tail_batch,
            "discount.segment_masses": segments,
            "value.disc_value_detail": disc_value,
            "value.limit_scan": scan,
            "corpus.identity_trials": identity,
        }

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        self.cost_out, self.cost_in = self._calibrate()
        hooks = self._hooks()
        replaced: Dict[int, Tuple[object, Callable]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"horizonlab.{layer}")
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) and not name.startswith("_"):
                    qual = f"{layer}.{name}"
                    replaced[id(obj)] = (obj, self._wrap(layer, qual, obj, hooks.get(qual)))
        # rebind every module-level reference, `from .x import f` copies too
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "horizonlab" or mod_name.startswith("horizonlab.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _wrap_class(self, layer: str, cls: type) -> None:
        operators = _INTERVAL_OPERATORS if cls.__name__ == "Interval" else ()
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in operators:
                continue
            qual = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(layer, qual, val.__func__)))
            elif isinstance(val, classmethod):
                setattr(cls, attr, classmethod(self._wrap(layer, qual, val.__func__)))
            elif inspect.isfunction(val):
                setattr(cls, attr, self._wrap(layer, qual, val))

    # -- reporting ------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self times, call counts and the derived counters."""
        c = self.counters
        disc_calls = c["value.disc_calls"]
        layer_calls: Counter = Counter()
        for name, n in self.calls.items():
            layer_calls[name.partition(".")[0]] += n
        return {
            "self_s": {layer: self.self_s.get(layer, 0.0) for layer in LAYERS},
            "counts": {
                "intervals.calls": layer_calls["intervals"],
                "discount.calls": layer_calls["discount"],
                "discount.tail_calls": (self.calls["discount.gamma_tail"]
                                        + self.calls["discount.gamma_tail_batch"]),
                "discount.segment_bounds": c["discount.segment_bounds"],
                "discount.errors": self.errors["discount"],
                "reward.change_points_calls": self.calls["reward.change_points"],
                "value.disc_calls": disc_calls,
                "value.truncation_log2_mean": (
                    self.log2_truncation / disc_calls if disc_calls else 0.0),
                "value.attained_frac": c["value.attained"] / disc_calls if disc_calls else 1.0,
                "value.path.runs": c["value.path.runs"],
                "value.path.dense": c["value.path.dense"],
                "value.path.constant": c["value.path.constant"],
                "value.path.product_zero": c["value.path.product_zero"],
                "value.scan_points": c["value.scan_points"],
                "value.errors": self.errors["value"],
                "corpus.identity_checks": c["corpus.identity_checks"],
            },
            "span_cost_s": self.cost_out + self.cost_in,
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
