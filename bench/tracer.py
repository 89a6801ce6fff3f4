"""Per-layer tracing from outside the program.

The layers are magiclab's modules.  `install` wraps each module's public
functions (and a few named methods) in the benchmark's own code and binds
the wrapper in every namespace that holds the original, because modules
import each other's names directly (`glue` and `prep` take `statevec`
functions by name) and `suites.SUITES` holds the suite functions in a dict.
Nothing under src/ is edited.

Each wrapped call is one span: name, start, end and the span that was open
when it began.  A span's self time is its duration minus the durations of
the wrapped calls nested directly inside it, so the self times of all spans
add up to at most the traced wall time.  Spans stay in memory until the run
ends.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("symplectic", "statevec", "zxcat", "agsp", "prep", "modular", "glue", "suites", "reports")

# Sub-microsecond helpers: a span would cost more than the call, so their
# time counts in their public callers.
UNWRAPPED = {
    "symplectic.pauli_product", "symplectic.commutes",
    "statevec.max_qubits", "reports.sanitize",
}
METHODS = (
    ("symplectic", "CliffordMap", "adjoint"),
    ("agsp", "AgspPolynomial", "evaluate"),
)


class Tracer:
    """Span recorder with per-name call counts and self time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (id, parent id or None, name, start, end)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.max_qubits_seen = 0
        self._stack = []  # [span id, start, time inside wrapped children]
        self._next_id = 0

    def wrap(self, name: str, fn, count_qubits: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_qubits:
                self._see_qubits(args, kwargs)
            parent = self._stack[-1][0] if self._stack else None
            frame = [self._next_id, self.clock(), 0.0]
            self._next_id += 1
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                duration = end - frame[1]
                if self._stack:
                    self._stack[-1][2] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                self.spans.append((frame[0], parent, name, frame[1], end))

        return traced

    def _see_qubits(self, args, kwargs) -> None:
        """Largest qubit count among the state-like arguments of a call."""
        for value in (*args, *kwargs.values()):
            n = getattr(value, "n", None)
            if n is None and isinstance(getattr(value, "qubits", None), tuple):
                n = len(value.qubits)
            if isinstance(n, int) and n > self.max_qubits_seen:
                self.max_qubits_seen = n

    def layer_metrics(self) -> dict:
        """`<layer>.self_s`, `<layer>.<fn>.{calls,self_s}` and the qubit high-water mark."""
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self.self_s[name]
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + self.self_s[name]
        out["statevec.max_qubits_seen"] = self.max_qubits_seen
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def _targets():
    """(metric name, owner object, attribute) for everything to wrap."""
    for layer in LAYERS:
        module = importlib.import_module(f"magiclab.{layer}")
        for attr, obj in list(vars(module).items()):
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and f"{layer}.{attr}" not in UNWRAPPED
            ):
                yield f"{layer}.{attr}", module, attr
    for layer, cls_name, method in METHODS:
        cls = getattr(importlib.import_module(f"magiclab.{layer}"), cls_name)
        yield f"{layer}.{cls_name}.{method}", cls, method


def install(tracer: Tracer):
    """Wrap every target wherever it is bound; returns a function that undoes it."""
    wrappers = {}
    undo = []
    for name, owner, attr in _targets():
        original = vars(owner)[attr]
        wrapper = tracer.wrap(name, original, count_qubits=name.startswith("statevec."))
        wrappers[id(original)] = (original, wrapper)
        setattr(owner, attr, wrapper)
        undo.append((owner, attr, original))

    def lookup(value):
        hit = wrappers.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    for key, module in list(sys.modules.items()):
        if key != "magiclab" and not key.startswith("magiclab."):
            continue
        for attr, value in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            if lookup(value) is not None:
                setattr(module, attr, lookup(value))
                undo.append((module, attr, value))
            elif isinstance(value, dict):
                for item_key, item in list(value.items()):
                    if lookup(item) is not None:
                        value[item_key] = lookup(item)
                        undo.append((value, item_key, item))

    def restore():
        for owner, key, original in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    return restore
