"""
Per-layer tracing from outside the package.

The tracer wraps, at run time, every public function of each curvetwist
module, a few named methods, and every other binding of those functions
(`from .surface import flip` in curves and mapping, the names re-exported
by the package).  Each wrapper counts calls, adds up self time (its own
duration minus the wrapped calls it made), and for a few functions a size
measure (the weight of the curve passed in, the number of moves of the
encoding).  No file of the package is changed, and uninstall() puts every
original back.  A metric whose function a later change removed reads 0
and is named in `skipped`.
"""

import sys
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "curvetwist"
MODULES = ("surface", "curves", "mapping", "orbits", "classify",
           "construct", "cli")

# methods traced in addition to the module-level functions; __init__ is
# reported under the class name
METHODS = {
    "surface": {"Triangulation": ("canonical_form",)},
    "curves": {"CutResult": ("piece_containing",)},
    "mapping": {"Encoding": ("__init__", "act_on_weights", "compose",
                             "inverse", "power")},
}


def _total_weight(args, result):
    return sum(args[0].weights)


def _own_moves(args, result):
    return len(args[0])


def _moves_passed(args, result):
    return len(args[1])


# key -> (measure name, measure); the measure sees the call's positional
# arguments and its result
MEASURES = {
    "curves.validate": ("weight", _total_weight),
    "curves.cut_along": ("weight", _total_weight),
    "mapping.Encoding": ("moves", _own_moves),
    "mapping.invert_moves": ("moves", _moves_passed),
    "mapping.act_on_weights": ("moves", _own_moves),
}

# (metric, unit) pairs reported by a traced run, in BENCHMARK.json order
LAYER_METRICS = [
    ("surface.flip.calls", "count"), ("surface.flip.self_s", "s"),
    ("surface.canonical_form.calls", "count"),
    ("surface.canonical_form.self_s", "s"),
    ("curves.validate.calls", "count"), ("curves.validate.weight", "count"),
    ("curves.validate.self_s", "s"),
    ("curves.disjoint_union_matches.calls", "count"),
    ("curves.piece_containing.calls", "count"),
    ("curves.piece_containing.self_s", "s"),
    ("curves.cut_along.calls", "count"), ("curves.cut_along.weight", "count"),
    ("curves.cut_along.self_s", "s"),
    ("curves.enumerate_single_curves.calls", "count"),
    ("curves.enumerate_single_curves.self_s", "s"),
    ("mapping.Encoding.calls", "count"), ("mapping.Encoding.moves", "count"),
    ("mapping.Encoding.self_s", "s"),
    ("mapping.invert_moves.calls", "count"),
    ("mapping.invert_moves.moves", "count"),
    ("mapping.invert_moves.self_s", "s"),
    ("mapping.act_on_weights.calls", "count"),
    ("mapping.act_on_weights.moves", "count"),
    ("mapping.act_on_weights.self_s", "s"),
    ("mapping.shorten.calls", "count"), ("mapping.shorten.self_s", "s"),
    ("mapping.twist.calls", "count"), ("mapping.twist.self_s", "s"),
    ("mapping.spanning_probes.calls", "count"),
    ("mapping.spanning_probes.self_s", "s"),
    ("orbits.check_independent.calls", "count"),
    ("classify.classify.calls", "count"),
    ("classify.periodic_check.self_s", "s"),
    ("classify.invariant_multicurve_search.self_s", "s"),
    ("classify.dilatation_estimate.self_s", "s"),
    ("construct.maximalize.calls", "count"),
    ("construct.maximalize.self_s", "s"),
    ("construct.realize_family.calls", "count"),
    ("cli.load_workspace.self_s", "s"), ("cli.main.self_s", "s"),
] + [("%s.self_s" % m, "s") for m in MODULES] + [("trace.overhead_s", "s")]


class Tracer:
    def __init__(self):
        self.stats = {}         # key -> [calls, self seconds, measure]
        self.broken = set()     # keys whose measure raised
        self._stack = []        # time spent in wrapped callees, per frame
        self._patched = []      # (owner, attribute, original)

    def _wrapper(self, key, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0])
        stack = self._stack
        measure = MEASURES.get(key, (None, None))[1]
        broken = self.broken

        def traced(*args, **kwargs):
            stats[0] += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                stats[1] += spent - stack.pop()
                if stack:
                    stack[-1] += spent
            if measure is not None and key not in broken:
                try:
                    stats[2] += measure(args, result)
                except (AttributeError, IndexError, TypeError):
                    broken.add(key)
            return result

        traced.__wrapped__ = fn
        return traced

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def install(self):
        if self._patched:
            return
        wrapped = {}            # id(original) -> (original, wrapper)
        for short in MODULES:
            mod = sys.modules.get("%s.%s" % (PACKAGE, short))
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or isinstance(obj, type) \
                        or not callable(obj) \
                        or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapped[id(obj)] = (obj, self._wrapper(
                    "%s.%s" % (short, name), obj))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    fn = vars(cls).get(meth) if cls is not None else None
                    if fn is None:
                        continue
                    key = "%s.%s" % (short, cls_name if meth == "__init__"
                                     else meth)
                    self._patched.append((cls, meth, fn))
                    setattr(cls, meth, self._wrapper(key, fn))
        for mod in self._modules():
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []

    @contextmanager
    def paused(self):
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def snapshot(self, overhead_s):
        """Every LAYER_METRICS value, plus the names of metrics whose
        function or measure is missing."""
        values, skipped = {}, []
        for metric, unit in LAYER_METRICS:
            head, field = metric.rsplit(".", 1)
            if metric == "trace.overhead_s":
                value = overhead_s
            elif "." not in head:
                value = sum(s[1] for k, s in self.stats.items()
                            if k.split(".", 1)[0] == head)
            elif head not in self.stats or (
                    field not in ("calls", "self_s") and head in self.broken):
                value = 0
                skipped.append(metric)
            else:
                calls, self_s, measure = self.stats[head]
                value = {"calls": calls, "self_s": self_s}.get(field, measure)
            values[metric] = {"value": value, "unit": unit}
        return values, skipped
