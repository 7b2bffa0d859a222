"""Function-boundary tracing of the plueckerfan package, installed from outside it.

``install`` replaces every public function and method of the package's modules
by a timing wrapper, under every name the original is bound to: module
globals (so ``cones.straighten_pair`` is caught as well as
``straightening.straighten_pair``), module-level dicts such as
``verify.SUITES``, and class attributes such as ``PluckerLattice.classify_pair``.

Each wrapped call is a span: its start and end are read around the call, and
its parent is the wrapped call below it on the stack.  A span is folded into
its function's totals as it closes, ``[calls, total_s, self_s]``, where self
time is the span's duration minus the time its child spans cover.  The
program is single-threaded, so one stack describes the nesting.
"""

from __future__ import annotations

import functools
import types
from time import perf_counter

LAYERS = ("cli", "verify", "cones", "straightening", "plucker_lattices", "chain_order", "order_core")

# Bodies that are entered only through a dispatcher: their time is the
# dispatcher's own (``cli.main`` runs the ``cmd_*`` handlers, ``verify.run_suite``
# runs the ``suite_*`` bodies), so they get no span of their own.
DISPATCHED_PREFIXES = {"cli": ("cmd_",), "verify": ("suite_",)}


class Tracer:
    def __init__(self, observers=None):
        self.observers = observers or {}
        # time covered by child spans, one entry per open span; the first
        # entry collects the top-level spans
        self.stack = [0.0]
        self.stats = {}          # name -> [calls, total_s, self_s]
        self.extra = {}          # name -> {counter: value} filled by observers

    def wrap(self, name, fn):
        stack = self.stack
        observe = self.observers.get(name)
        self.stats[name] = rec = [0, 0.0, 0.0]
        extra = self.extra.setdefault(name, {}) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = stack.pop()
                stack[-1] += duration
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - children
            if observe:
                for key, value in observe(result).items():
                    extra[key] = extra.get(key, 0) + value
            return result

        return traced

    def layer_self_s(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".", 1)[0]] += self_s
        return out


def _hand_written(fn, mod):
    """False for methods generated at import time, such as a dataclass ``__init__``."""
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == mod.__file__


def _targets(modules):
    """Yield (qualified name, owner, attribute, original, rebind) for every public callable."""
    for layer, mod in modules.items():
        skip = DISPATCHED_PREFIXES.get(layer, ())
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                for cattr, member in list(vars(obj).items()):
                    if cattr.startswith("_") and not (cattr == "__init__" and _hand_written(member, mod)):
                        continue
                    if isinstance(member, (classmethod, staticmethod)):
                        kind = type(member)
                        yield (f"{layer}.{attr}.{cattr}", obj, cattr, member.__func__,
                               lambda w, kind=kind: kind(w))
                    elif isinstance(member, types.FunctionType):
                        yield f"{layer}.{attr}.{cattr}", obj, cattr, member, None
            elif callable(obj) and not attr.startswith("_") and not attr.startswith(skip):
                yield f"{layer}.{attr}", mod, attr, obj, None


def install(tracer, package):
    """Wrap the public callables of ``package``'s layer modules; returns the number wrapped."""
    modules = {layer: getattr(package, layer) for layer in LAYERS}
    replaced = {}
    for name, owner, attr, original, rebind in _targets(modules):
        wrapper = tracer.wrap(name, original)
        setattr(owner, attr, rebind(wrapper) if rebind else wrapper)
        replaced[id(original)] = wrapper
    # rebind every other module-level name (and dict value) that holds an original
    for mod in [package, *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in replaced:
                        obj[key] = replaced[id(value)]
    return len(replaced)
