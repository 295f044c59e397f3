"""The commutative twin as a differential oracle.

A ring with monomial relations and Z^n colours is the Z^n-graded cocycle
twist of its commutative twin: the same n, degrees and relations with
m = 1 and qexp = 0.  Twisting is an equivalence of graded module categories
that keeps free modules free, so Ext, Betti tables, Poincare series,
complexity and supports agree between a ring and its twin; only t, the
exponent in theta = chi^t, differs.  The twin runs the same code with
trivial scalars, so this catches scalar, sign and twist errors of the skew
path (not errors both paths share).
"""

import random

from skewci.cli import run

from fixtures import random_ring


def _rings():
    """One random ring with n >= 3 (n <= 4, c <= 3) per conductor."""
    rng = random.Random(26)
    specs = []
    for m in (5, 6, 8, 12):
        spec = random_ring(rng, nmax=4, cmax=3, conductors=(m,))
        while spec.n < 3:
            spec = random_ring(rng, nmax=4, cmax=3, conductors=(m,))
        specs.append(spec)
    return specs


def _modules(spec):
    """R/(x1x2), R/(x1x2, x2x3) and R/(x1) plus R/(x2x3) on a generator
    shifted by the degree and colour of x_n: one-term relations only."""
    n = spec.n
    return {
        "A": {"quotient": ["x1*x2"]},
        "B": {"quotient": ["x1*x2", "x2*x3"]},
        "C": {"gens": [{"degree": 0, "color": [0] * n},
                       {"degree": spec.degrees[-1],
                        "color": [int(v == n - 1) for v in range(n)]}],
              "relations": [["x1", "0"], ["0", "x2*x3"]]},
    }


_JOBS = (("support", {}), ("complexity", {}), ("poincare", {"cmax": 6}),
         ("betti", {"imax": 4}),
         ("ext", {"other": "k", "cmax": 3, "dmax": 3}),
         ("ext", {"other": "SELF", "cmax": 3, "dmax": 3}),
         ("perfect", {}), ("arc", {"r": 0, "window": 4}))


def _drop_t(value):
    """value with every "t" key removed, at any depth."""
    if isinstance(value, dict):
        return {k: _drop_t(v) for k, v in value.items() if k != "t"}
    if isinstance(value, list):
        return [_drop_t(v) for v in value]
    return value


def _radical(ideal):
    """The minimal squarefree monomials of a monomial ideal given as
    strings such as "th1^2*th3"."""
    gens = set()
    for text in ideal:
        assert not set(text) & set("+- "), text
        gens.add(frozenset(f.split("^")[0] for f in text.split("*")))
    return {g for g in gens if not any(o < g for o in gens)}


def test_skew_rings_agree_with_their_commutative_twins():
    for spec in _rings():
        doc = spec.to_json()
        twin = {**doc, "m": 1, "qexp": [[0] * spec.n] * spec.n}
        modules = _modules(spec)
        for name in modules:
            for command, params in _JOBS:
                params = {"module": name, **params}
                if params.get("other") == "SELF":
                    params["other"] = name
                results = []
                for ring in (doc, twin):
                    code, report, _text = run({
                        "ring": ring, "modules": modules,
                        "command": command, "params": params})
                    assert code == 0, (doc, command, params, report)
                    results.append(_drop_t(report["result"]))
                skew, flat = results
                case = (doc, command, params)
                if command == "support":
                    assert skew["dimension"] == flat["dimension"], case
                    assert _radical(skew.pop("ideal")) \
                        == _radical(flat.pop("ideal")), case
                assert skew == flat, case
