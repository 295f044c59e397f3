"""Layer tracer for one skewci job, installed from outside the package.

Run as a script it replaces ``python -m skewci.cli``:

    python3 bench/tracer.py --out SPANS.json --job ID --launched T -- ARGS...

It wraps the public functions and methods of each measured skewci module,
wherever a module attribute binds them, runs ``skewci.cli.main(ARGS)``,
restores every original, and writes the spans and counters it kept in
memory to SPANS.json.  ``T`` is the parent's ``time.perf_counter()`` just
before it started this process (the clock is system-wide on Linux), so the
interpreter start-up before this file runs is a span too.

Self time (``busy``) of a call is its duration minus that of the wrapped
calls it made.  Every call is counted and its self time summed, but only
the first ``SPAN_CAP`` calls of each name keep a span: some functions run
millions of times per job.

The module also turns the trace documents of a round into the per-layer
metrics (``layer_metrics``), so the tables that map wrapped names to
metrics live in one place.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

# Modules measured, in dependency order.  dualpowers is left out: only the
# selftest-appendix command uses it, and no workload runs that command.
LAYERS = ("scalars", "colorcore", "linalg", "qgrobner", "koszul", "resolve",
          "operators", "support", "cli")

# Spans kept per wrapped name and job; later calls are only counted.
SPAN_CAP = 50

# Arithmetic special methods wrapped besides the public names.
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "__rtruediv__", "__neg__", "__pow__")

# The operators layer is reported as three groups; everything else is one
# group per module.
OPERATOR_GROUPS = {
    "homology_bigraded": "homology", "braided_hh": "homology",
    "ExtTable": "homology", "HHReport": "homology",
    "ext_over_theta": "theta", "ThetaModule": "theta",
}

# Calls that open a scope: self time spent while one is open is also
# summed under (group, scope), so e.g. the resolve-layer time of building
# finite Koszul resolutions is told apart from the oracle's.
SCOPES = {
    "resolve.finite_koszul_resolution": "koszul_res",
    "resolve.minimal_R_resolution": "oracle",
    "qgrobner.annihilator_ideal": "annihilator",
    "colorcore.validate_ring": "validate",
}


def _group(layer, qualname):
    if layer != "operators":
        return layer
    return "operators." + OPERATOR_GROUPS.get(qualname.split(".")[0], "build")


def _module_key(module):
    # plain attributes only: a wrapped call here would add spans
    spec = module.spec
    return (f"{spec.m}/{spec.qring.aexp}/{spec.rel_exps}/{module.name}/"
            f"{module.gens}")


def _hook_kernel(tracer, args, result):
    tracer.counters["linalg.kernel_cols"] += len(args[0])
    tracer.counters["linalg.kernel_nullity"] += len(result)


def _hook_echelon_add(tracer, args, result):
    if result[0] is not None:
        tracer.counters["linalg.echelon_pivots"] += 1


def _hook_buchberger(tracer, args, result):
    tracer.counters["qgrobner.gb_elements"] += len(result.elements)


def _hook_resolution(tracer, args, result):
    tracer.modules.add(_module_key(args[0]))


HOOKS = {
    "linalg.kernel_basis": _hook_kernel,
    "linalg.Echelon.add": _hook_echelon_add,
    "qgrobner.buchberger": _hook_buchberger,
    "resolve.finite_koszul_resolution": _hook_resolution,
}


# Per-layer metrics, in the order they are printed, with their units.
PER_LAYER_UNITS = {
    "scalars.mul_calls": "count",
    "scalars.inv_calls": "count",
    "scalars.add_calls": "count",
    "scalars.busy_s": "s",
    "linalg.kernel_calls": "count",
    "linalg.kernel_cols": "count",
    "linalg.kernel_nullity_frac": "ratio",
    "linalg.echelon_adds": "count",
    "linalg.echelon_pivot_frac": "ratio",
    "linalg.busy_s": "s",
    "koszul.mul_calls": "count",
    "koszul.busy_s": "s",
    "operators.build_busy_s": "s",
    "operators.homology_busy_s": "s",
    "operators.theta_busy_s": "s",
    "qgrobner.buchberger_calls": "count",
    "qgrobner.gb_elements": "count",
    "qgrobner.busy_s": "s",
    "qgrobner.annihilator_busy_s": "s",
    "resolve.koszul_res_builds": "count",
    "resolve.koszul_res_per_module": "ratio",
    "resolve.koszul_res_busy_s": "s",
    "resolve.oracle_busy_s": "s",
    "support.busy_s": "s",
    "cli.cache_hits": "count",
    "cli.cache_misses": "count",
    "cli.busy_s": "s",
    "colorcore.validate_busy_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.attributed_frac": "ratio",
    "trace.startup_frac": "ratio",
}

_SCALAR = "scalars.CycScalar."

# Metrics that count the calls of wrapped names.
CALL_METRICS = {
    "scalars.mul_calls": (_SCALAR + "__mul__", _SCALAR + "__rmul__"),
    "scalars.inv_calls": (_SCALAR + "inverse",),
    "scalars.add_calls": tuple(_SCALAR + op for op in (
        "__add__", "__radd__", "__sub__", "__rsub__")),
    "linalg.kernel_calls": ("linalg.kernel_basis",),
    "linalg.echelon_adds": ("linalg.Echelon.add",),
    "koszul.mul_calls": ("koszul.DGAlgebra.mul",),
    "qgrobner.buchberger_calls": ("qgrobner.buchberger",),
    "resolve.koszul_res_builds": ("resolve.finite_koszul_resolution",),
}

# Metrics that sum the self time of a group, within one scope of SCOPES or
# (None) in all.
BUSY_METRICS = {
    "scalars.busy_s": ("scalars", None),
    "linalg.busy_s": ("linalg", None),
    "koszul.busy_s": ("koszul", None),
    "operators.build_busy_s": ("operators.build", None),
    "operators.homology_busy_s": ("operators.homology", None),
    "operators.theta_busy_s": ("operators.theta", None),
    "qgrobner.busy_s": ("qgrobner", None),
    "qgrobner.annihilator_busy_s": ("qgrobner", "annihilator"),
    "resolve.koszul_res_busy_s": ("resolve", "koszul_res"),
    "resolve.oracle_busy_s": ("resolve", "oracle"),
    "support.busy_s": ("support", None),
    "cli.busy_s": ("cli", None),
    "colorcore.validate_busy_s": ("colorcore", "validate"),
}


class Tracer:
    """Wraps skewci's public callables; ``restore`` undoes every patch."""

    def __init__(self, job=""):
        self.job = job
        self.clock = time.perf_counter
        self.spans = []        # [name, start, end, parent index, self_s]
        self.calls = {}        # name -> [calls], one cell per wrapped name
        self.busy = defaultdict(float)   # (group, scope or "") -> seconds
        self.counters = Counter()
        self.modules = set()
        self._frames = []      # time in wrapped callees, per open call
        self._open = []        # indices of open recorded spans
        self._scopes = []
        self._patches = []     # (owner, attribute, original)

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every public callable of the LAYERS modules of skewci."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"skewci.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__",
                                                   None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    replaced[obj] = self._wrap(name, _group(layer, attr), obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for mod in [m for n, m in sorted(sys.modules.items())
                    if n == "skewci" or n.startswith("skewci.")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._patch(mod, attr, replaced[obj])
        return self

    def _wrap_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITH:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            group = _group(layer, f"{cls.__name__}.{attr}")
            if isinstance(obj, staticmethod):
                self._patch(cls, attr,
                            staticmethod(self._wrap(name, group,
                                                    obj.__func__)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(name, group, obj))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name, group, fn):
        clock, frames, scopes = self.clock, self._frames, self._scopes
        spans, opened = self.spans, self._open
        busy = self.busy
        count = self.calls.setdefault(name, [0])
        hook = HOOKS.get(name)
        scope = SCOPES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kept = count[0] < SPAN_CAP
            count[0] += 1
            if scope:
                scopes.append(scope)
            frames.append(0.0)
            start = clock()
            if kept:
                span = [name, start, None, opened[-1] if opened else -1, 0.0]
                opened.append(len(spans))
                spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                child = frames.pop()
                if frames:
                    frames[-1] += dur
                busy[(group, scopes[-1] if scopes else "")] += dur - child
                if scope:
                    scopes.pop()
                if kept:
                    opened.pop()
                    span[2], span[4] = end, dur - child
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def record(self, name, start, end):
        """Add a top-level span measured outside any wrapper."""
        self.spans.append([name, start, end, -1, end - start])
        self.busy[(name, "")] += end - start

    # -- output ---------------------------------------------------------

    def to_json(self):
        return {
            "job": self.job,
            "span_fields": ["name", "start", "end", "parent", "self_s"],
            "spans": self.spans,
            "calls": {name: n for name, (n,) in self.calls.items() if n},
            "busy": [[g, s, v] for (g, s), v in sorted(self.busy.items())],
            "counters": dict(self.counters),
            "modules": sorted(self.modules),
        }

    def write(self, path):
        """Write the trace as one JSON line."""
        with open(path, "w") as handle:
            handle.write(json.dumps(self.to_json()) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(passes):
    """Per-layer metrics over the traced passes of one round.

    Busy times are self times summed over the passes, and so are counts.
    ``trace.attributed_frac`` is the share of traced job time spent in the
    LAYERS modules, ``trace.startup_frac`` the share spent starting the
    interpreter and importing skewci.  ``trace.overhead_frac`` needs an
    untraced pass and is left to the caller.
    """
    calls = Counter()
    counters = Counter()
    busy = defaultdict(float)          # (group, scope) -> seconds
    modules = set()
    wall = 0.0
    hits = misses = 0
    for p in passes:
        for job_wall, text in p.traces:
            doc = json.loads(text)
            calls.update(doc["calls"])
            counters.update(doc["counters"])
            modules.update(doc["modules"])
            for group, scope, seconds in doc["busy"]:
                busy[(group, scope)] += seconds
            wall += job_wall
        for report in p.reports:
            stats = report.get("cache", {})
            hits += stats.get("hits", 0)
            misses += stats.get("misses", 0)

    def group_busy(group, scope=None):
        return sum(v for (g, s), v in busy.items()
                   if g == group and (scope is None or s == scope))

    layer_s = sum(v for (g, _), v in busy.items()
                  if g.split(".")[0] in LAYERS)
    startup_s = sum(v for (g, _), v in busy.items()
                    if g.startswith("startup."))
    out = {name: sum(calls[n] for n in names)
           for name, names in CALL_METRICS.items()}
    out.update((name, group_busy(*key)) for name, key in BUSY_METRICS.items())
    out.update({
        "linalg.kernel_cols": counters["linalg.kernel_cols"],
        "linalg.kernel_nullity_frac": _ratio(counters["linalg.kernel_nullity"],
                                             counters["linalg.kernel_cols"]),
        "linalg.echelon_pivot_frac": _ratio(counters["linalg.echelon_pivots"],
                                            out["linalg.echelon_adds"]),
        "qgrobner.gb_elements": counters["qgrobner.gb_elements"],
        "resolve.koszul_res_per_module": _ratio(
            out["resolve.koszul_res_builds"], len(modules)),
        "cli.cache_hits": hits,
        "cli.cache_misses": misses,
        "trace.attributed_frac": _ratio(layer_s, wall),
        "trace.startup_frac": _ratio(startup_s, wall),
    })
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--job", required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    tracer = Tracer(args.job)
    tracer.record("startup.interpreter", args.launched, _T_START)
    cli = importlib.import_module("skewci.cli")
    tracer.install()
    tracer.record("startup.import", _T_START, tracer.clock())
    try:
        code = cli.main(cli_args)
    finally:
        tracer.restore()
        tracer.write(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
