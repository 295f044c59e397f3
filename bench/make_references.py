"""Write references.json, the expected answer of every benchmark job.

    PYTHONPATH=src python3 bench/make_references.py

Every ring in workloads.py is R = k_q[x1..xn]/(x1^2, .., xc^2), and every
module is k, M = R/(x1) or N = R/(x2).  Their answers are known in closed
form, because x_i is exact on R/(x_i) (its kernel and image are both
x_i R/(x_i)), so R/(x_i) has the periodic resolution ... -> R -x_i-> R:

* Betti totals: all 1 for R/(x_i); for k the coefficients of
  (1+t)^n / (1-t^2)^c.  Poincare coefficients are the same numbers.
* Support over k[th1..thc]: the ideal (th_j : j != i) of dimension 1 for
  R/(x_i), the zero ideal of dimension c for k; the fiber intersection of
  R/(x1) and R/(x2) is (th1..thc) when c = 3.  Complexity is the dimension.
* R/(x_i) is not perfect; Ext^2(R/(x_i), R/(x_i)) = R/(x_i) is nonzero, so
  the vanishing criterion with r=1 finds its hypothesis false at i=2.
* Ext(R/(x1), R/(x2)): Hom is x1 R/(x2), spanned by x1 x3^b x4^e (b <= 1),
  i.e. 1 + 2(dmax-1) monomials of degree 1..dmax; higher Ext vanish.
* hh: the program compares its braided HH with R[chi] and must say ok.

Before writing anything, every Betti total and complexity is checked
against the degreewise oracle ``minimal_R_resolution``, which never
touches the operator path, so no reference is copied from the output of
the code under test.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "references.json")


def series(n, c, upto):
    """Coefficients of (1+t)^n / (1-t^2)^c up to t^upto."""
    coeffs = [0] * (upto + 1)
    for k in range(n + 1):
        if k <= upto:
            coeffs[k] = _binom(n, k)
    for _ in range(c):
        for i in range(2, upto + 1):
            coeffs[i] += coeffs[i - 2]
    return coeffs


def _binom(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def closed_betti(job, upto):
    """Betti totals of the job's module up to homological degree upto."""
    ring = workloads.RINGS[job["ring"]]
    if job["params"]["module"] in ("M", "N"):
        return [1] * (upto + 1)
    return series(ring["n"], len(ring["relations"]), upto)


def closed_form(job):
    ring = workloads.RINGS[job["ring"]]
    c = len(ring["relations"])
    params = job["params"]
    var = {"M": 1, "N": 2}.get(params.get("module"))
    command = job["command"]

    if command == "hh":
        return {"ok": True}
    if command == "ext":
        return {"ext_dims": [1 + 2 * (params["dmax"] - 1)]
                + [0] * params["cmax"]}
    if command == "support":
        if "other" in params:
            return {"ideal": [f"th{j}" for j in range(1, c + 1)],
                    "dimension": 0}
        if var is None:
            return {"ideal": [], "dimension": c}
        return {"ideal": [f"th{j}" for j in range(1, c + 1) if j != var],
                "dimension": 1}
    if command == "complexity":
        return {"value": 1 if var else c}
    if command == "poincare":
        return {"coefficients": closed_betti(job, params["cmax"])}
    if command == "perfect":
        return {"perfect": False}
    if command == "arc":
        return {"verdict": "hypothesis not satisfied",
                "first_nonvanishing": 2}
    if command == "betti":
        return {"totals": closed_betti(job, 6)}
    raise ValueError(f"no closed form for {command}")


def oracle_totals(job, upto):
    from skewci.colorcore import RingSpec
    from skewci.resolve import ModulePresentation, minimal_R_resolution

    cfg = workloads.config(job)
    spec = RingSpec.from_json(cfg["ring"])
    mod = job["params"]["module"]
    module = ModulePresentation.from_json(
        spec, cfg["modules"][mod] if mod in cfg["modules"] else mod)
    table = minimal_R_resolution(module, upto, 2 * sum(spec.df) + upto)
    return table.totals()


def main():
    refs = {}
    for jobs in workloads.WORKLOADS.values():
        for job in jobs:
            ref = closed_form(job)
            if job["command"] in ("poincare", "betti", "complexity"):
                # the closed-form series also fixes the complexity: its
                # pole order at t=1 is 1 for R/(x_i) and c for k
                want = closed_betti(job, 6)
                totals = oracle_totals(job, 6)
                if totals != want:
                    raise SystemExit(f"{workloads.job_id(job)}: oracle "
                                     f"{totals} != closed form {want}")
            refs[workloads.job_id(job)] = ref
    for ring in {job["ring"] for jobs in workloads.WORKLOADS.values()
                 for job in jobs}:
        refs[f"{ring}:check"] = {}
    lines = [f"  {json.dumps(key)}: {json.dumps(refs[key], sort_keys=True)}"
             for key in sorted(refs)]
    with open(PATH, "w") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(refs)} references to {PATH}")


if __name__ == "__main__":
    main()
