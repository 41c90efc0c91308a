"""Outside-in tracer: wraps public stablemaps functions without editing them.

Layer-level calls (series, solver, trees, eulerchi, target, cli) become
spans: name, start, end, parent span and job id, kept in memory.  The
high-frequency qfield operations keep only aggregated call counts and
inclusive time.  A layer's self time is its spans' durations minus what
their traced children cover; for qfield it is the time in outermost qfield
operations.  The self times of all layers add up to the time in the root
`cli.main` spans.

Pitfalls this module handles (each has a check in selftest.py):

- Modules that imported a name by value (`from .solver import solve_phi0`)
  hold their own reference, so every binding of the original function in
  every stablemaps module and class is replaced, not only the defining one.
- `__rmul__ = __mul__` and `__radd__ = __add__` are second class
  attributes bound to the same function; they are found the same way.
- Calls are counted at a call site by wrapping that module's binding once
  more (solver.passes, eulerchi.passes).
- Cache statistics are read with `cache_info()` and `len()`, which change
  nothing.
"""

import sys
import time

LAYERS = ("cli", "target", "eulerchi", "trees", "solver", "series", "qfield")

# (module, attribute or Class.attribute, span name, layer)
SPANS = (
    ("stablemaps.cli", "main", "cli.main", "cli"),
    ("stablemaps.target", "parse_target", "target.parse", "target"),
    ("stablemaps.target", "projective_space", "target.projective_space", "target"),
    ("stablemaps.target", "load_target", "target.load", "target"),
    ("stablemaps.target", "eisenstein_series", "target.eisenstein", "target"),
    ("stablemaps.target", "nclass", "target.nclass", "target"),
    ("stablemaps.target", "count_maps_bruteforce", "target.ffcount", "target"),
    ("stablemaps.target", "verify_recurrence", "target.recurrence", "target"),
    ("stablemaps.eulerchi", "xseries", "eulerchi.xseries", "eulerchi"),
    ("stablemaps.eulerchi", "solve_phi0_chi", "eulerchi.solve", "eulerchi"),
    ("stablemaps.eulerchi", "chi_potential", "eulerchi.chi_potential", "eulerchi"),
    ("stablemaps.eulerchi", "chi_table", "eulerchi.chi_table", "eulerchi"),
    ("stablemaps.trees", "enum_trees", "trees.enum", "trees"),
    ("stablemaps.trees", "tree_sum_potential", "trees.tree_sum", "trees"),
    ("stablemaps.solver", "solve_phi0", "solver.solve_phi0", "solver"),
    ("stablemaps.solver", "potential", "solver.potential", "solver"),
    ("stablemaps.solver", "extract_classes", "solver.extract", "solver"),
    ("stablemaps.series", "series_pow_binomial", "series.pow_binomial", "series"),
    ("stablemaps.series", "series_log1p", "series.log1p", "series"),
    ("stablemaps.series", "series_dt", "series.dt", "series"),
    ("stablemaps.series", "MultiSeries.__mul__", "series.mul", "series"),
    ("stablemaps.series", "MultiSeries.__rmul__", "series.rmul", "series"),
    ("stablemaps.series", "MultiSeries.__add__", "series.add", "series"),
    ("stablemaps.series", "MultiSeries.__sub__", "series.sub", "series"),
    ("stablemaps.series", "MultiSeries.__neg__", "series.neg", "series"),
    ("stablemaps.series", "MultiSeries.scale", "series.scale", "series"),
    ("stablemaps.series", "MultiSeries.truncate", "series.truncate", "series"),
)

# (module, attribute or Class.attribute, aggregate name)
AGGREGATES = (
    ("stablemaps.qfield", "RatFunc.__mul__", "qfield.ratfunc_mul"),
    ("stablemaps.qfield", "RatFunc.__add__", "qfield.ratfunc_add"),
    ("stablemaps.qfield", "upoly_gcd", "qfield.gcd"),
    ("stablemaps.qfield", "RatFunc.__sub__", "qfield.other"),
    ("stablemaps.qfield", "RatFunc.__rsub__", "qfield.other"),
    ("stablemaps.qfield", "RatFunc.__neg__", "qfield.other"),
    ("stablemaps.qfield", "RatFunc.__truediv__", "qfield.other"),
    ("stablemaps.qfield", "RatFunc.__rtruediv__", "qfield.other"),
    ("stablemaps.qfield", "RatFunc.__pow__", "qfield.other"),
    ("stablemaps.qfield", "binom_falling", "qfield.other"),
)

# (module whose binding is counted, attribute, counter name)
CALL_SITES = (
    ("stablemaps.solver", "series_pow_binomial", "solver.passes"),
    ("stablemaps.eulerchi", "series_log1p", "eulerchi.passes"),
)

_COVER = 2  # index of the covered-time slot in an open-span entry


def _original(module_name, path):
    """The function at `Class.attribute` or `attribute` of a module, as
    stored (not through a descriptor)."""
    owner = sys.modules[module_name]
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner.__dict__[attr]


def _bindings(original):
    """Every (owner, attribute) in a loaded stablemaps module or class whose
    value is `original`."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "stablemaps" or name.startswith("stablemaps.")):
            continue
        for owner in [module] + [v for v in vars(module).values()
                                 if isinstance(v, type) and v.__module__ == name]:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    found.append((owner, attr))
    return found


class Tracer:
    """Install with `install()`, run jobs with `job` set, read `metrics()`,
    then `uninstall()`."""

    def __init__(self):
        self.job = -1
        self.spans = []          # (name, start, end, parent, job, self_s)
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.stats = {}          # aggregate name -> [calls, seconds, nontrivial]
        self.counters = {"solver.passes": 0, "eulerchi.passes": 0, "trees.count": 0,
                         "series.terms_max": 0, "solver.orders": 0}
        self.targets = []        # TargetSpace objects handed out during the run
        self._stack = []         # open spans: [index, start, covered]
        self._qdepth = [0]
        self._patched = []       # (owner, attribute, original value)
        self.originals = []      # every function replaced, for the self-test

    # -- wrappers ---------------------------------------------------------------

    def _span(self, fn, name, layer, on_result):
        pc = time.perf_counter
        stack, spans, layer_self = self._stack, self.spans, self.layer_self

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            entry = [len(spans), 0.0, 0.0]
            spans.append(None)
            stack.append(entry)
            entry[1] = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = pc()
                stack.pop()
                dur = end - entry[1]
                own = dur - entry[_COVER]
                spans[entry[0]] = (name, entry[1], end, parent, self.job, own)
                layer_self[layer] += own
                if stack:
                    stack[-1][_COVER] += dur
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _aggregate(self, fn, stat, nontrivial):
        pc = time.perf_counter
        stack, depth, layer_self = self._stack, self._qdepth, self.layer_self

        def wrapper(*args):
            stat[0] += 1
            outer = not depth[0]
            depth[0] += 1
            t0 = pc()
            try:
                result = fn(*args)
            finally:
                dur = pc() - t0
                depth[0] -= 1
                stat[1] += dur
                if outer:
                    layer_self["qfield"] += dur
                    if stack:
                        stack[-1][_COVER] += dur
            if nontrivial and result.degree > 0:
                stat[2] += 1
            return result

        return wrapper

    def _counter(self, fn, name):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- result hooks -------------------------------------------------------------

    def _on_result(self, name):
        counters = self.counters
        if name in ("target.parse", "target.projective_space"):
            return self.targets.append
        if name == "trees.enum":
            return lambda trees: counters.__setitem__("trees.count",
                                                      counters["trees.count"] + len(trees))
        if name == "solver.solve_phi0":
            return lambda phi: counters.__setitem__(
                "solver.orders", counters["solver.orders"] + phi.kmax + sum(phi.dmax) + 1)
        if name.startswith("series."):
            def terms(result):
                n = len(getattr(result, "coeffs", ()))
                if n > counters["series.terms_max"]:
                    counters["series.terms_max"] = n
            return terms
        return None

    # -- install ------------------------------------------------------------------

    def _replace(self, original, wrapper):
        self.originals.append(original)
        for owner, attr in _bindings(original):
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def install(self):
        import stablemaps.cli  # noqa: F401  (loads every module to be patched)

        for module, path, name, layer in SPANS:
            fn = _original(module, path)
            self._replace(fn, self._span(fn, name, layer, self._on_result(name)))
        for module, path, name in AGGREGATES:
            fn = _original(module, path)
            stat = self.stats.setdefault(name, [0, 0.0, 0])
            self._replace(fn, self._aggregate(fn, stat, name == "qfield.gcd"))
        for module, attr, name in CALL_SITES:
            owner = sys.modules[module]
            current = getattr(owner, attr)
            self._patched.append((owner, attr, current))
            setattr(owner, attr, self._counter(current, name))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------------

    def span_seconds(self, name, exclude=None):
        """Total duration of the spans called `name`, minus the duration of
        their direct children called `exclude`."""
        total = sum((s[2] - s[1] for s in self.spans if s[0] == name), 0.0)
        if exclude is not None:
            ids = {i for i, s in enumerate(self.spans) if s[0] == name}
            total -= sum(s[2] - s[1] for s in self.spans
                         if s[0] == exclude and s[3] in ids)
        return total

    def span_calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def check(self):
        """Self times are non-negative and add up to the root spans' time.
        Returns the traced wall time (sum of root spans)."""
        if self._stack:
            raise AssertionError(f"{len(self._stack)} spans still open")
        roots = sum(s[2] - s[1] for s in self.spans if s[3] == -1)
        negative = [s for s in self.spans if s[5] < -1e-9]
        if negative or min(self.layer_self.values()) < -1e-9:
            raise AssertionError(f"negative self time: {negative[:3]} {self.layer_self}")
        total = sum(self.layer_self.values())
        if abs(total - roots) > 1e-6 + 1e-9 * roots:
            raise AssertionError(f"self times add to {total!r}, root spans to {roots!r}")
        return roots

    def metrics(self) -> dict:
        """Per-layer metrics of the traced run, except those read off the
        outputs (see checks.output_metrics)."""
        from stablemaps.qfield import _binom_falling

        wall = self.check()
        stats, counters = self.stats, self.counters
        gcd = stats["qfield.gcd"]
        cache = _binom_falling.cache_info()
        orders = counters["solver.orders"]
        m = {
            "qfield.ratfunc_mul.calls": stats["qfield.ratfunc_mul"][0],
            "qfield.ratfunc_mul.s": stats["qfield.ratfunc_mul"][1],
            "qfield.ratfunc_add.calls": stats["qfield.ratfunc_add"][0],
            "qfield.ratfunc_add.s": stats["qfield.ratfunc_add"][1],
            "qfield.gcd.calls": gcd[0],
            "qfield.gcd.s": gcd[1],
            "qfield.gcd.nontrivial_ratio": gcd[2] / gcd[0] if gcd[0] else 0.0,
            "qfield.binom_cache.hits": cache.hits,
            "qfield.binom_cache.misses": cache.misses,
            "series.mul.calls": self.span_calls("series.mul"),
            "series.mul.s": self.span_seconds("series.mul"),
            "series.pow_binomial.calls": self.span_calls("series.pow_binomial"),
            "series.pow_binomial.s": self.span_seconds("series.pow_binomial"),
            "series.log1p.calls": self.span_calls("series.log1p"),
            "series.log1p.s": self.span_seconds("series.log1p"),
            "series.terms_max": counters["series.terms_max"],
            "solver.solve_phi0.s": self.span_seconds("solver.solve_phi0"),
            "solver.passes": counters["solver.passes"],
            "solver.passes_per_order": counters["solver.passes"] / orders if orders else 0.0,
            "solver.potential.s": self.span_seconds("solver.potential"),
            "solver.extract.s": self.span_seconds("solver.extract"),
            "trees.enum.s": self.span_seconds("trees.enum"),
            "trees.count": counters["trees.count"],
            "trees.tree_sum.s": self.span_seconds("trees.tree_sum", exclude="trees.enum"),
            "eulerchi.solve.s": self.span_seconds("eulerchi.solve"),
            "eulerchi.passes": counters["eulerchi.passes"],
            "eulerchi.chi_potential.s": self.span_seconds("eulerchi.chi_potential"),
            "target.load.s": self.span_seconds("target.load"),
            "target.ffcount.calls": self.span_calls("target.ffcount"),
            "target.ffcount.s": self.span_seconds("target.ffcount"),
            "target.recurrence.s": self.span_seconds("target.recurrence"),
            "target.cache_entries": sum(len(w._cache) for w in
                                        {id(w): w for w in self.targets}.values()),
            "trace.wall_s": wall,
            "trace.spans": len(self.spans),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.layer_self[layer]
        return m
