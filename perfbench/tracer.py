"""In-memory spans from timing wrappers bound over protmeas's public functions.

`install` wraps every public function and every public method of a public
class defined in the layer modules, then rebinds each module attribute (and
each value of a module-level dict, such as `cli.RUNNERS`) that still refers
to an original, because the modules import functions from each other by
name.  A span records its name, start, end, the span that caused it (the
innermost open span of the same thread; pool threads start new roots) and a
few counters read off the call's arguments or result.  Nothing is written
until the caller asks for the spans at the end of the run.
"""

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time

LAYERS = ("oscillator", "quadrature", "projectors", "weak", "simulation",
          "twostate", "ergodicity", "tables", "svgplot", "cli")


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return arguments


# span name -> (arguments, result) -> counters; names not listed record none
def _observers():
    return {
        "oscillator.hermite_functions":
            lambda a, r: {"values": a["n_max"] * getattr(a["x"], "size", 1)},
        "quadrature.panel_nodes": lambda a, r: {"panels": a["panels"]},
        "weak.weak_value_series":
            lambda a, r: {"points": len(a["times"]), "dim": a["pre"].basis.dim},
        "simulation.bipartite_protective_sim":
            lambda a, r: {"steps": a["steps"], "steps_used": r.steps_used,
                          "norm": r.final_norm},
        "simulation.zeno_protect_sim":
            lambda a, r: {"protections": a["n_protections"]},
        "ergodicity.classical_time_average":
            lambda a, r: {"samples": a["n_samples"]},
        "ergodicity.uniform_phase_ensemble": lambda a, r: {"samples": a["size"]},
        "tables.write_atomic": lambda a, r: {"bytes": len(a["data"])},
        "svgplot.emit_plot": lambda a, r: {"bytes": len(r)},
        "cli.main": lambda a, r: {"sweep": "--sweep" in (a["argv"] or [])},
    }


class Tracer:
    """Collects finished spans; safe to use from several threads."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, observe=None):
        arguments = _bound(fn) if observe else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            span = {"id": span_id, "name": name, "parent": parent,
                    "thread": threading.get_ident(), "error": True}
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span["error"] = False
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if observe:
                span.update(observe(arguments(args, kwargs), result))
            return result

        return wrapper


def _public_callables(module):
    """(span name, owner, attribute, function) for a layer module."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{attr}", module, attr, obj
        elif inspect.isclass(obj):
            for meth, fn in list(vars(obj).items()):
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield f"{layer}.{attr}.{meth}", obj, meth, fn


def install(tracer, only=None):
    """Wrap the layers' public callables (or just the span names in `only`)."""
    observers = _observers()
    modules = [importlib.import_module(f"protmeas.{layer}") for layer in LAYERS]
    wrapped = {}
    for module in modules:
        for name, owner, attr, fn in _public_callables(module):
            if only is not None and name not in only:
                continue
            wrapper = tracer.wrap(name, fn, observers.get(name))
            setattr(owner, attr, wrapper)
            wrapped[fn] = wrapper
    for modname, module in list(sys.modules.items()):
        if modname != "protmeas" and not modname.startswith("protmeas."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrapped:
                        obj[key] = wrapped[value]
