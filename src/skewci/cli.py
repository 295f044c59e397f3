"""Batch front end: parse a job config, run one command, emit reports.

One self-describing JSON config per run; results go to a JSON report plus
an aligned text summary on stdout.  Resolutions and theta modules come
from a ``store.ResolutionCache``, on disk under ``--cache``, keyed by a
content hash of (ring, module); corrupt entries are detected by hash and
recomputed.
"""

from __future__ import annotations

import json
import sys

from .colorcore import RingSpec, validate_ring
from .koszul import verify_diagonal_resolution
from .operators import braided_hh, build_operator_complex, homology_bigraded
from .resolve import ModulePresentation, minimal_R_resolution
from .support import (
    EmptyWindowError,
    RationalityError,
    ThetaAlgebra,
    arc_check,
    complexity,
    degree_bound,
    is_perfect,
    poincare_series,
    support_variety,
)
from .store import ResolutionCache, current, using


class JobError(RuntimeError):
    pass


def load_config(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise JobError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}")
    except OSError as exc:
        raise JobError(f"cannot read config: {exc}")


def _module(spec, config, label, params_key="module"):
    modules = config.get("modules", {})
    if label is None:
        raise JobError(f"missing module reference {params_key!r}")
    if isinstance(label, str) and label in modules:
        try:
            mod = ModulePresentation.from_json(spec, modules[label])
        except (KeyError, TypeError, ValueError) as exc:
            raise JobError(f"invalid module {label!r}: {exc}") from None
        mod.name = label
        return mod
    if label in ("k", "R"):
        return ModulePresentation.from_json(spec, label)
    raise JobError(f"module {label!r} is not defined in the config")


# the types docs/config.schema.json gives the params keys
_PARAM_TYPES = {
    **dict.fromkeys(("cmax", "dmax", "imax", "jmin", "r", "window", "bound",
                     "diagonal_dmax"), int),
    **dict.fromkeys(("module", "other"), str),
}
# the window bounds the schema gives "minimum": 0
_NONNEGATIVE = ("cmax", "imax", "window", "bound", "diagonal_dmax")
# the commands whose dmax cuts the degrees of R, so the schema gives it
# "minimum": 0; elsewhere dmax tops a module's window of internal degrees,
# which moves with its generator degrees, and is signed as jmin is
_RING_DMAX = ("check", "hh")


def run(config, cache_dir=None):
    """Execute one job; returns (exit_code, report dict, text summary)."""
    if not (isinstance(config, dict) and "ring" in config
            and "command" in config):
        raise JobError("config must be an object with 'ring' and 'command'")
    try:
        spec = RingSpec.from_json(config["ring"])
    except KeyError as exc:
        raise JobError(f"ring is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise JobError(f"invalid ring: {exc}") from None
    command = config["command"]
    if not (isinstance(command, str) and command in _COMMANDS):
        raise JobError(f"unknown command {command!r}; expected one of "
                       + ", ".join(sorted(_COMMANDS)))
    handler, keys = _COMMANDS[command]
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise JobError("params must be an object")
    nonnegative = ((*_NONNEGATIVE, "dmax") if command in _RING_DMAX
                   else _NONNEGATIVE)
    for key, value in params.items():
        if key not in keys:
            raise JobError(f"unknown params key {key!r} for {command}; "
                           f"{command} reads " + ", ".join(keys))
        want = _PARAM_TYPES[key]
        # type(), not isinstance(): JSON true is not an integer
        if type(value) is not want:
            raise JobError(f"params.{key} must be of type {want.__name__}, "
                           f"got {value!r}")
        if key in nonnegative and value < 0:
            raise JobError(f"params.{key} must be >= 0, got {value!r}")
    modules = config.get("modules", {})
    if not isinstance(modules, dict):
        raise JobError("modules must be an object")
    for name in ("k", "R"):
        if name in modules:
            raise JobError(f"module name {name!r} is reserved for the "
                           "built-in module")
    cache = ResolutionCache(cache_dir)
    report = {"command": command, "ring": spec.to_json()}
    lines = [f"ring: {spec!r}", f"command: {command}"]

    validation = validate_ring(spec)
    report["validation"] = validation.to_json()
    if not validation.ok:
        lines.append("ring validation FAILED:")
        lines.extend(f"  {msg}" for msg in validation.messages)
        report["ok"] = False
        return 2, report, "\n".join(lines)

    try:
        with using(cache):
            ok, result, extra_lines, windows = handler(spec, config, params)
    except EmptyWindowError as exc:
        raise JobError(str(exc)) from None
    except (RationalityError, AssertionError) as exc:
        code, prefix = _failure(exc)
        report["ok"] = False
        report["error"] = f"{prefix}: " + " ".join(str(exc).splitlines())
        lines.append(report["error"])
        return code, report, "\n".join(lines)
    report["windows"] = windows
    report["ok"] = ok
    report["result"] = result
    report["cache"] = cache.stats()
    lines.extend(extra_lines)
    lines.append(f"cache: {cache.stats()}")
    lines.append("status: OK" if ok else "status: FAILED")
    return (0 if ok else 1), report, "\n".join(lines)


def _failure(exc):
    """Exit code and error prefix of a job that failed with a typed error:
    a window too small to certify (3), a failed certificate (1)."""
    if isinstance(exc, RationalityError):
        return 3, "window too small"
    return 1, "certificate failed"


def _cmd_check(spec, config, params):
    cutoff = params.get("dmax")
    result = validate_ring(spec, cutoff).to_json()
    # the operator algebra certifies chi^(t^2) = 1 by scalar powers
    result["t"] = ThetaAlgebra(spec).t
    dims = result["hilbert_dims"]
    lines = [f"Hilbert function of R (to degree {result['hilbert_cutoff']}): "
             + " ".join(str(v) for v in dims),
             f"t = {result['t']}"]
    ok = True
    dmax = params.get("diagonal_dmax")
    if dmax:
        diag = verify_diagonal_resolution(spec, dmax)
        result["diagonal_resolution"] = diag.to_json()
        lines.append(f"diagonal resolution check to degree {dmax}: "
                     + ("pass" if diag.ok else "FAIL"))
        ok = diag.ok
    windows = {k: params[k] for k in ("dmax", "diagonal_dmax") if k in params}
    return ok, result, lines, windows


def _cmd_resolve(spec, config, params):
    mod = _module(spec, config, params.get("module"))
    cx = current().get_or_build(mod)
    errors = cx.certify()
    result = {
        "module": mod.name,
        "ranks": cx.ranks(),
        "length": cx.length,
        "verified": not errors,
        "errors": [list(map(str, e)) for e in errors],
    }
    lines = [f"finite Koszul resolution of {mod.name}: Q-ranks {cx.ranks()}",
             f"strictness and exactness certified: {not errors}"]
    return not errors, result, lines, {}


def _cmd_betti(spec, config, params):
    mod = _module(spec, config, params.get("module"))
    imax = params.get("imax", 6)
    dmax = params["dmax"] if "dmax" in params else degree_bound(
        current().get_or_build(mod), imax)
    table = minimal_R_resolution(mod, imax, dmax)
    result = {"module": mod.name, "betti": table.to_json(),
              "totals": table.totals()}
    lines = [_format_betti(table, imax)]
    return True, result, lines, {"imax": imax, "dmax": dmax}


def _format_betti(table, imax):
    totals = table.totals()
    degrees = sorted({j for (_i, j) in table.entries})
    rows = ["betti table (rows j, columns i=0..%d):" % imax]
    header = "  j\\i " + " ".join(f"{i:>4}" for i in range(imax + 1))
    rows.append(header)
    for j in degrees:
        row = [f"{table.entries.get((i, j), 0):>4}" for i in range(imax + 1)]
        rows.append(f"  {j:>3} " + " ".join(row))
    rows.append("  tot " + " ".join(f"{v:>4}" for v in totals))
    return "\n".join(rows)


def _cmd_ext(spec, config, params):
    mod = _module(spec, config, params.get("module"))
    other = _module(spec, config, params.get("other", "k"), "other")
    opcx = build_operator_complex(current().get_or_build(mod), other)
    cmax = params.get("cmax", 6)
    dmax = params.get("dmax", 8)
    jmin = params.get("jmin", -dmax)
    if jmin > dmax:
        raise JobError(f"ext window is empty: jmin = {jmin} > dmax = {dmax}")
    table = homology_bigraded(opcx, cmax, dmax, jmin=jmin)
    result = {
        "pair": [mod.name, other.name],
        "table": table.to_json(),
        "ext_dims": table.ext_dims(cmax),
    }
    lines = [f"Ext_R({mod.name}, {other.name}) dims by cohomological degree:",
             "  " + " ".join(str(v) for v in table.ext_dims(cmax)),
             _format_ext_table(table, cmax)]
    return True, result, lines, {"cmax": cmax, "dmax": dmax, "jmin": jmin}


def _format_ext_table(table, cmax):
    degrees = sorted({j for (_i, j), v in table.dims.items() if v})
    if not degrees:
        return "  (no nonzero bidegrees in the window)"
    rows = ["  bigraded table (rows j, columns i):",
            "  j\\i " + " ".join(f"{i:>3}" for i in range(cmax + 1))]
    for j in degrees:
        row = [f"{table.dim(i, j):>3}" for i in range(cmax + 1)]
        rows.append(f" {j:>4} " + " ".join(row))
    return "\n".join(rows)


def _cmd_hh(spec, config, params):
    cmax = params.get("cmax", 6)
    dmax = params.get("dmax", 8)
    rep = braided_hh(spec, cmax, dmax)
    result = rep.to_json()
    lines = [f"derived braided Hochschild cohomology vs R[chi]: "
             + ("match" if rep.ok else "MISMATCH")]
    if not rep.ok:
        lines.append(f"  first mismatches: {rep.mismatches[:3]}")
    return rep.ok, result, lines, {"cmax": cmax, "dmax": dmax}


def _cmd_support(spec, config, params):
    mod = _module(spec, config, params.get("module"))
    other_name = params.get("other", "k")
    report = support_variety(mod, _module(spec, config, other_name, "other"))
    result = report.to_json()
    gens = ", ".join(report.ideal) or "0"
    lines = [
        f"support variety of ({mod.name}, {other_name}):",
        f"  ideal: ({gens})",
        f"  dimension: {report.dimension}",
        f"  t = {report.t}",
        f"  Proj-empty: {report.proj_empty}",
    ]
    return True, result, lines, {}


def _cmd_complexity(spec, config, params):
    mod = _module(spec, config, params.get("module"))
    other = _module(spec, config, params.get("other", "k"), "other")
    window = {k: params[k] for k in ("cmax", "dmax", "jmin") if k in params}
    res = complexity(mod, other, window=window or None)
    result = res.to_json()
    lines = [f"cx_R({mod.name}, {other.name}) = {res.value} "
             f"({res.certificate['method']})"]
    return True, result, lines, _fit_window(res.certificate)


def _cmd_poincare(spec, config, params):
    mod = _module(spec, config, params.get("module"))
    other = _module(spec, config, params.get("other", "k"), "other")
    # one cmax sizes both the fit window and the reported coefficients
    cmax = params.get("cmax", 10)
    window = {"cmax": cmax,
              **{k: params[k] for k in ("dmax", "jmin") if k in params}}
    series = poincare_series(mod, other, window=window)
    result = series.to_json()
    result["coefficients"] = series.coefficients(cmax)
    lines = [f"P^R_({mod.name}) = {series!r}   [{series.method}]",
             "  coefficients: " + " ".join(map(str, result["coefficients"]))]
    return True, result, lines, {"cmax": cmax, **_fit_window(series.window)}


def _fit_window(data):
    """The window a rational fit ran with, read from its certificate or
    series window; empty when the exact theta route answered."""
    return {k: data[k] for k in ("cmax", "dmax", "jmin", "j_complete")
            if k in data}


def _cmd_perfect(spec, config, params):
    mod = _module(spec, config, params.get("module"))
    value = is_perfect(mod)
    result = {"module": mod.name, "perfect": value}
    lines = [f"{mod.name} perfect over R: {value}"]
    return True, result, lines, {}


def _cmd_arc(spec, config, params):
    mod = _module(spec, config, params.get("module"))
    r = params.get("r", 0)
    window = params.get("window", r + 4)
    if window <= r:
        raise JobError(f"arc window {window} must exceed r = {r}")
    report = arc_check(mod, r, window)
    result = report.to_json()
    lines = [f"vanishing criterion for {mod.name} (r={r}, window={window}): "
             f"{report.verdict}",
             f"  detail: {report.detail}"]
    windows = {"r": r, "window": window, "jmin": report.jmin,
               "jmax": report.jmax}
    return report.verdict != "fail", result, lines, windows


def _cmd_selftest_appendix(spec, config, params):
    from .dualpowers import verify_appendix

    bound = params.get("bound", 4)
    rep = verify_appendix(spec, bound)
    result = rep.to_json()
    lines = [f"dual divided-powers selftest to bidegree {bound}: "
             + ("pass" if rep.ok else "FAIL")]
    if not rep.ok:
        lines.append(f"  counterexample: {rep.counterexample}")
    return rep.ok, result, lines, {"bound": bound}


# Each command's handler and the params keys it reads; run refuses any
# other key.  A handler returns (ok, result, text lines, windows): windows
# holds the window bounds it ran with, defaults included, and is the
# report's only source of its "windows" block.
_PAIR_KEYS = ("module", "other", "cmax", "dmax", "jmin")
_COMMANDS = {
    "check": (_cmd_check, ("dmax", "diagonal_dmax")),
    "resolve": (_cmd_resolve, ("module",)),
    "betti": (_cmd_betti, ("module", "imax", "dmax")),
    "ext": (_cmd_ext, _PAIR_KEYS),
    "hh": (_cmd_hh, ("cmax", "dmax")),
    "support": (_cmd_support, ("module", "other")),
    "complexity": (_cmd_complexity, _PAIR_KEYS),
    "poincare": (_cmd_poincare, _PAIR_KEYS),
    "perfect": (_cmd_perfect, ("module",)),
    "arc": (_cmd_arc, ("module", "r", "window")),
    "selftest-appendix": (_cmd_selftest_appendix, ("bound",)),
}


_USAGE = "usage: skewci [-h] --config CONFIG [--cache CACHE] [--out OUT]"
_HELP = _USAGE + """

Exact cohomology operators and support varieties over skew complete
intersections.  Every window bound is a params key of the config.

options:
  -h, --help       show this help message and exit
  --config CONFIG  path to the JSON job configuration
  --cache CACHE    cache directory for resolutions and theta modules
  --out OUT        path for the JSON report"""
_FLAGS = ("--config", "--cache", "--out")


def _parse_args(argv):
    """{flag: value} from ``--flag value`` and ``--flag=value`` arguments.

    Parsed here rather than by ``argparse``, whose import and ``gettext``
    lookups every job would otherwise pay for three flags.  ``--help``
    prints the help and exits 0; a malformed command line prints the usage
    and the error and exits 2.
    """
    args = {}
    rest = list(argv)
    while rest:
        arg = rest.pop(0)
        if arg in ("-h", "--help"):
            print(_HELP)
            raise SystemExit(0)
        flag, eq, value = arg.partition("=")
        if flag not in _FLAGS:
            _usage_error(f"unrecognized argument {arg!r}")
        if not eq:
            if not rest:
                _usage_error(f"argument {flag}: expected one argument")
            value = rest.pop(0)
        args[flag[2:]] = value
    if "config" not in args:
        _usage_error("the following argument is required: --config")
    return args


def _usage_error(message):
    print(f"{_USAGE}\nskewci: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        config = load_config(args["config"])
        code, report, text = run(config, cache_dir=args.get("cache"))
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    out = args.get("out")
    if out:
        with open(out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {out}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
