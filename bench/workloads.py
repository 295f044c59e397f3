"""Workload definitions and the seeded job generator.

Rings are named by shape: ``n3c3m5`` has n=3 variables, c=3 relations and
conductor m=5, so its coefficient field Q(zeta_5) has degree phi(5)=4.
Every ring is a skew complete intersection cut out by squares of the first
c variables, which keeps every reference answer derivable in closed form
(see ``make_references.py``).

A seed only permutes job order and applies symmetric relabellings: variable
permutations that map a ring's exponent matrix and relation set to
themselves.  A general relabelling gives an isomorphic ring but changes the
cost of the term-order dependent steps by up to a third, so it is not used.
Every reference answer is unchanged by both.  The ``skewci`` program only
ever sees the generated configs.
"""

from __future__ import annotations

import itertools
import random
import re

RINGS = {
    "n3c3m5": {"n": 3, "m": 5, "qexp": [[0, 1, 2], [-1, 0, 1], [-2, -1, 0]],
               "relations": ["x1^2", "x2^2", "x3^2"]},
    "n4c3m12": {"n": 4, "m": 12,
                "qexp": [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 1],
                         [-3, -5, -1, 0]],
                "relations": ["x1^2", "x2^2", "x3^2"]},
    "n4c2m12": {"n": 4, "m": 12,
                "qexp": [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 1],
                         [-3, -5, -1, 0]],
                "relations": ["x1^2", "x2^2"]},
    "n3c2m4": {"n": 3, "m": 4, "qexp": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]],
               "relations": ["x1^2", "x2^2"]},
    "n3c3m1": {"n": 3, "m": 1, "qexp": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
               "relations": ["x1^2", "x2^2", "x3^2"]},
    "n4c3m2": {"n": 4, "m": 2,
               "qexp": [[0, 1, 1, 0], [1, 0, 1, 1], [1, 1, 0, 1],
                        [0, 1, 1, 0]],
               "relations": ["x1^2", "x2^2", "x3^2"]},
}

# M = R/(x1) and N = R/(x2); "k" and "R" are built into the config format.
MODULES = {"M": {"quotient": ["x1"], "name": "M"},
           "N": {"quotient": ["x2"], "name": "N"}}


def _job(ring, command, **params):
    return {"ring": ring, "command": command, "params": params}


WORKLOADS = {
    # Operator-complex slice assembly and exact homology; no module is
    # reused, so neither the disk cache nor the theta route is touched.
    "ext_slices": [
        _job("n3c3m5", "hh", cmax=3, dmax=3),
        _job("n4c3m12", "ext", module="M", other="N", cmax=4, dmax=4),
        _job("n4c2m12", "hh", cmax=4, dmax=4),
    ],
    # Resolutions, Groebner bases and the theta route; M, N and k recur
    # across jobs of one ring, so the disk cache has something to reuse.
    "theta_batch": [
        _job("n3c2m4", "support", module="k"),
        _job("n3c2m4", "support", module="M"),
        _job("n3c2m4", "poincare", module="k", cmax=6),
        _job("n3c2m4", "complexity", module="N"),
        _job("n3c2m4", "perfect", module="M"),
        _job("n3c2m4", "betti", module="M"),
        _job("n3c2m4", "arc", module="M", r=1, window=4),
        _job("n4c2m12", "support", module="k"),
        _job("n4c2m12", "support", module="N"),
        _job("n4c2m12", "poincare", module="M", cmax=6),
        _job("n4c2m12", "complexity", module="M"),
        _job("n4c2m12", "perfect", module="M"),
        _job("n4c2m12", "arc", module="M", r=1, window=3),
        _job("n3c3m1", "support", module="k"),
        _job("n3c3m1", "support", module="M"),
        _job("n3c3m1", "poincare", module="k", cmax=6),
        _job("n3c3m1", "poincare", module="N", cmax=6),
        _job("n3c3m1", "complexity", module="M"),
        _job("n3c3m1", "perfect", module="M"),
        _job("n3c3m1", "betti", module="k"),
        _job("n3c3m1", "arc", module="M", r=1, window=4),
    ],
    # Noncommutative c=3 rings on the theta route.
    "c3_skew_theta": [
        _job("n3c3m5", "support", module="M"),
        _job("n3c3m5", "support", module="M", other="N"),
        _job("n3c3m5", "poincare", module="M", cmax=6),
        _job("n4c3m2", "support", module="M"),
        _job("n4c3m2", "poincare", module="k", cmax=6),
    ],
}


def job_id(job):
    """Stable name of a job, independent of the seed."""
    params = job["params"]
    parts = [job["ring"], job["command"]]
    for key in ("module", "other"):
        if key in params:
            parts.append(f"{key}={params[key]}")
    return ":".join(parts)


def first_ring(workload):
    return WORKLOADS[workload][0]["ring"]


def _relabel(text, perm):
    return re.sub(r"x(\d+)", lambda mt: f"x{perm[int(mt.group(1)) - 1] + 1}",
                  text)


def relabel_ring(ring, perm):
    """The ring with variable x_{i+1} renamed x_{perm[i]+1}."""
    n = ring["n"]
    qexp = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            qexp[perm[i]][perm[j]] = ring["qexp"][i][j]
    return {"n": n, "m": ring["m"], "qexp": qexp,
            "relations": [_relabel(f, perm) for f in ring["relations"]]}


def automorphisms(ring):
    """Variable permutations that leave the ring's data unchanged."""
    n, m = ring["n"], ring["m"]
    out = []
    for perm in itertools.permutations(range(n)):
        moved = relabel_ring(ring, perm)
        same_q = all((moved["qexp"][i][j] - ring["qexp"][i][j]) % m == 0
                     for i in range(n) for j in range(n))
        if same_q and set(moved["relations"]) == set(ring["relations"]):
            out.append(list(perm))
    return out


def config(job, perm=None):
    """The skewci config of a job, with variables relabelled by perm."""
    ring = RINGS[job["ring"]]
    perm = perm or list(range(ring["n"]))
    modules = {name: {"quotient": [_relabel(g, perm) for g in doc["quotient"]],
                      "name": doc["name"]}
               for name, doc in MODULES.items()}
    return {"ring": relabel_ring(ring, perm), "modules": modules,
            "command": job["command"], "params": dict(job["params"])}


def check_config(ring_name, perm=None):
    """The set-up job: validate a ring and compute t."""
    return config({"ring": ring_name, "command": "check", "params": {}}, perm)


def generate(workload, seed):
    """Jobs of one pass as (job id, config) pairs, in seeded order.

    The same seed always gives the same list.  One symmetric relabelling
    is drawn per ring and shared by every job on that ring.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs = list(WORKLOADS[workload])
    perms = {name: rng.choice(automorphisms(RINGS[name]))
             for name in sorted({job["ring"] for job in jobs})}
    rng.shuffle(jobs)
    return ([(job_id(job), config(job, perms[job["ring"]])) for job in jobs],
            perms)
