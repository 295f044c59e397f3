"""Grading-shift invariance.

Presenting M and N on generators of degree s moves Ext_R(M(s), N(s')) by
s - s' in the internal index and changes nothing else, so every answer
that does not name an internal degree is the same for every s: supports,
complexities, Poincare series, Betti totals, perfection and the verdict of
the vanishing criterion.  The windows of ``arc`` and of the pair fit follow
the generator degrees, so they must give those answers too.
"""

from skewci.cli import run
from skewci.colorcore import RingSpec

from test_twin import _rings

N3C2M4 = RingSpec(3, 4, [[0, 1, 0], [-1, 0, 1], [0, -1, 0]],
                  relations=["x1^2", "x2^2"])

# the parts of each result that name no internal degree
_KEPT = {"support": ("ideal", "dimension", "proj_empty"),
         "complexity": ("value",),
         "poincare": ("numerator", "cprime", "coefficients"),
         "betti": ("totals",),
         "perfect": ("perfect",),
         "arc": None}


def _answers(spec, s):
    """The shift-free answers with M = R/(x1x2) and N = R/(x2) presented
    on generators of degree s, and with N alone moved to degree s."""
    n = spec.n
    zero = [0] * n
    modules = {"M": {"gens": [{"degree": s, "color": zero}],
                     "relations": [["x1*x2"]], "name": "M"},
               "N": {"gens": [{"degree": s, "color": zero}],
                     "relations": [["x2"]], "name": "N"},
               "M0": {"quotient": ["x1*x2"], "name": "M"}}
    jobs = [("support", {"module": "M"}),
            ("support", {"module": "M", "other": "N"}),
            ("complexity", {"module": "M"}),
            ("poincare", {"module": "M", "cmax": 4}),
            ("betti", {"module": "M", "imax": 3}),
            ("perfect", {"module": "M"}),
            ("arc", {"module": "M", "r": 1, "window": 3})]
    if spec.c <= 2:
        # the fit of a pair; cx(M, N) is the cprime it reports.  With
        # c = 3 it needs a larger cmax than a quick test can afford.
        jobs += [("poincare", {"module": "M", "other": "N", "cmax": 7}),
                 ("poincare", {"module": "M0", "other": "N", "cmax": 7})]
    out = []
    for command, params in jobs:
        code, report, _ = run({"ring": spec.to_json(), "modules": modules,
                               "command": command, "params": params})
        result = report.get("result", report.get("error"))
        kept = _KEPT[command]
        if kept is not None and code == 0:
            result = {k: result[k] for k in kept}
        out.append((command, params, code, result))
    return out


def test_answers_do_not_depend_on_generator_degrees():
    for spec in _rings() + [N3C2M4]:
        base = _answers(spec, 0)
        assert all(code == 0 for _c, _p, code, _r in base), base
        for s in (-20, 20):
            assert _answers(spec, s) == base, (spec.to_json(), s)


def _n3c2m4_job(command, params, modules):
    return run({"ring": N3C2M4.to_json(), "modules": modules,
                "command": command, "params": params})


def test_arc_window_follows_the_generator_degree():
    # M = R/(x3) has pd 1; in degree -20 the window |j| <= degree_bound(F)
    # was empty, Ext^1(M, R) read as 0 and the verdict a false "fail"
    for degree in (0, -3, -20):
        modules = {"M": {"gens": [{"degree": degree}],
                         "relations": [["x3"]], "name": "M"}}
        code, report, _ = _n3c2m4_job(
            "arc", {"module": "M", "r": 1, "window": 4}, modules)
        assert code == 0, (degree, report)
        assert report["result"] == {"verdict": "pass", "pd": 1, "r": 1,
                                    "sup_ext_R": 1, "window": 4}
        # |j| <= 11 for Ext(M, M), and the same moved by the degree for
        # Ext(M, R)
        assert (report["windows"]["jmin"], report["windows"]["jmax"]) == \
            (degree - 11, 11)


def test_pair_fit_window_follows_the_target_degree():
    # N = R/(x2) has infinite length (x3 is free); on a generator of degree
    # 20 its probe missed it, called N finite and fitted P = 0
    for degree in (0, 20):
        modules = {"M": {"quotient": ["x1"], "name": "M"},
                   "N": {"gens": [{"degree": degree}],
                         "relations": [["x2"]], "name": "N"}}
        code, report, _ = _n3c2m4_job(
            "poincare", {"module": "M", "other": "N"}, modules)
        assert code == 0, report
        assert report["result"]["numerator"] == [1]
        assert report["windows"] == {"cmax": 10, "dmax": 13 - degree,
                                     "jmin": -13 - degree,
                                     "j_complete": False}
        code, report, _ = _n3c2m4_job(
            "complexity", {"module": "M", "other": "N"}, modules)
        assert code == 0 and report["result"]["value"] == 0, report


def test_reported_windows_reproduce_shifted_jobs():
    # windows below degree 0 are signed internal degrees: a report's
    # windows, fed back as params, give the same report
    modules = {"M": {"quotient": ["x1"], "name": "M"},
               "N": {"gens": [{"degree": 20}], "relations": [["x2"]],
                     "name": "N"},
               "L": {"gens": [{"degree": -20}], "relations": [["x3"]],
                     "name": "L"}}
    for command, params in [("poincare", {"module": "M", "other": "N"}),
                            ("complexity", {"module": "M", "other": "N"}),
                            ("betti", {"module": "L"})]:
        code, report, _ = _n3c2m4_job(command, params, modules)
        assert code == 0, report
        assert report["windows"]["dmax"] < 0, report["windows"]
        windows = {k: v for k, v in report["windows"].items()
                   if k != "j_complete"}
        again, rerun, _ = _n3c2m4_job(command, {**params, **windows},
                                      modules)
        assert again == 0, rerun
        assert (rerun["result"], rerun["windows"]) == \
            (report["result"], report["windows"])
