"""Span tracing of framelab's layers from outside the package.

``install`` replaces every public function of each layer module with a
wrapper that records a span, and does the same for the copies other
framelab modules bound with ``from ... import`` (including private aliases
such as ``theorems._unit_probes``), so calls between layers are caught.
Public methods of the layer's classes, and ``__post_init__`` (where a
constructor validates its input), are wrapped too. Nothing under ``src/``
is edited; the wrappers live only in the traced process.

A span is (name, start, end, parent span, item id). Spans are kept in
compact arrays and written out once, when the run ends. A layer's self
time is its spans' durations minus the time their child spans cover.
"""
from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# A system-wide clock, so spans recorded in CLI child processes line up
# with the spans of the process that started them.
clock = time.monotonic

LAYERS = (
    "hilbert",
    "measure",
    "fusion",
    "resolution",
    "theorems",
    "perturbation",
    "instances",
    "serialize",
    "cli",
)

# Function -> per-layer counter named after it.
CALL_COUNTERS = {
    "hilbert.self_adjoint_eigh": "hilbert.eigh_calls",
    "fusion.frame_sum": "fusion.frame_sum_calls",
    "resolution.gram_sum": "resolution.gram_sum_calls",
}


class Tracer:
    """In-memory span store plus per-layer self time and counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.stack: list[list] = []  # [span index, start, child seconds, layer id]
        self.item = -1
        self.layer_self = [0.0] * len(LAYERS)
        self.layer_calls = [0] * len(LAYERS)
        self.counters: dict[str, float] = {}

    def name_id(self, name: str, layer: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
        return self.name_ids[name]

    def count(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def begin(self, name_id: int) -> list:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_item.append(self.item)
        frame = [idx, 0.0, 0.0, self.name_layer[name_id]]
        self.stack.append(frame)
        frame[1] = clock()
        return frame

    def end(self, frame: list, covered: float = 0.0) -> float:
        """Close the innermost span; ``covered`` is child time recorded elsewhere."""
        stop = clock()
        self.stack.pop()
        idx, start, child, layer = frame
        dur = stop - start
        self.span_start[idx] = start
        self.span_end[idx] = stop
        self.layer_self[layer] += dur - child - covered
        self.layer_calls[layer] += 1
        if self.stack:
            self.stack[-1][2] += dur
        return dur

    def merge(self, other: dict, parent: int) -> float:
        """Add the spans and totals a CLI child process wrote (see ``load``).

        Returns the time the child's outermost spans cover, which the caller
        passes as ``covered`` when it closes the ``parent`` span.
        """
        base = len(self.span_name)
        ids = [self.name_id(n, LAYERS[l]) for n, l in zip(other["names"], other["name_layer"])]
        covered = 0.0
        for name, start, stop, par in zip(
            other["name"], other["start"], other["end"], other["parent"]
        ):
            self.span_name.append(ids[name])
            self.span_start.append(start)
            self.span_end.append(stop)
            self.span_parent.append(parent if par < 0 else base + par)
            self.span_item.append(self.item)
            if par < 0:
                covered += stop - start
        for i, value in enumerate(other["layer_self"]):
            self.layer_self[i] += value
        for i, value in enumerate(other["layer_calls"]):
            self.layer_calls[i] += value
        for key, value in other["counters"].items():
            self.count(key, value)
        return covered

    def dump(self, path: str):
        """Write the spans and totals to an .npz file (read back by ``load``)."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_layer=np.array(self.name_layer, dtype=np.int32),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            item=np.frombuffer(self.span_item, dtype=np.int32),
            layer_self=np.array(self.layer_self),
            layer_calls=np.array(self.layer_calls),
            counter_keys=np.array(list(self.counters), dtype=str),
            counter_values=np.array(list(self.counters.values()), dtype=np.float64),
        )


def load(path: str) -> dict:
    with np.load(path) as data:
        out = {k: data[k].tolist() for k in data.files}
    out["counters"] = dict(zip(out.pop("counter_keys"), out.pop("counter_values")))
    return out


def _first_str(args, kwargs) -> str | None:
    text = args[0] if args else kwargs.get("text")
    return text if isinstance(text, str) else None


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    name_id = tracer.name_id(name, layer)
    counter = CALL_COUNTERS.get(name)
    short = name.rsplit(".", 1)[-1]
    io_kind = None
    if layer == "serialize" and short.startswith("dumps"):
        io_kind = "dumps"
    elif layer == "serialize" and short.startswith("loads"):
        io_kind = "loads"
    scan = name == "perturbation.verify_perturbed_sum"
    serialize_id = LAYERS.index("serialize")

    @functools.wraps(fn)
    def span(*args, **kwargs):
        if counter:
            tracer.count(counter)
        outer_io = io_kind and not (tracer.stack and tracer.stack[-1][3] == serialize_id)
        frame = tracer.begin(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = tracer.end(frame)
        if outer_io:
            # only the outermost dumps/loads call counts, so nested helpers
            # (dumps_instance -> dumps_fusion_family -> dumps_canonical)
            # are not added twice
            tracer.count(f"serialize.{io_kind}_ms", dur * 1e3)
            text = result if io_kind == "dumps" else _first_str(args, kwargs)
            if isinstance(text, str):
                key = "serialize.bytes_out" if io_kind == "dumps" else "serialize.bytes_in"
                tracer.count(key, len(text.encode("utf-8")))
        if scan:
            tracer.count("perturbation.subsets_checked", int(result[0].constants["subsets_checked"]))
        return result

    return span


def _class_methods(cls):
    for attr, value in vars(cls).items():
        if attr.startswith("_") and attr != "__post_init__":
            continue
        if isinstance(value, classmethod):
            yield attr, value.__func__, classmethod
        elif isinstance(value, staticmethod):
            yield attr, value.__func__, staticmethod
        elif inspect.isfunction(value):
            yield attr, value, None


def install(tracer: Tracer):
    """Wrap every layer's public functions and methods, in every framelab namespace.

    Returns a callable that restores the originals.
    """
    replaced: dict[int, object] = {}
    undo = []
    for layer in LAYERS:
        mod = importlib.import_module(f"framelab.{layer}")
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                replaced[id(obj)] = _wrap(tracer, layer, f"{layer}.{attr}", obj)
            elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
                for meth, fn, kind in _class_methods(obj):
                    wrapped = _wrap(tracer, layer, f"{layer}.{obj.__name__}.{meth}", fn)
                    undo.append((obj, meth, vars(obj)[meth]))
                    setattr(obj, meth, kind(wrapped) if kind else wrapped)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "framelab" or mod_name.startswith("framelab.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                undo.append((mod, attr, obj))
                setattr(mod, attr, replaced[id(obj)])

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer calls and self time, plus the named counters."""
    out = {}
    for i, layer in enumerate(LAYERS):
        out[f"{layer}.calls"] = tracer.layer_calls[i]
        out[f"{layer}.self_ms"] = tracer.layer_self[i] * 1e3
    for key in (
        "hilbert.eigh_calls",
        "fusion.frame_sum_calls",
        "resolution.gram_sum_calls",
        "perturbation.subsets_checked",
        "serialize.dumps_ms",
        "serialize.loads_ms",
        "serialize.bytes_out",
        "serialize.bytes_in",
    ):
        out[key] = tracer.counters.get(key, 0)
    return out
