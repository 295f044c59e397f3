"""Shared ring and module fixtures for the test suite."""

import json
import random

from skewci.colorcore import RingSpec, validate_ring
from skewci.linalg import Echelon


def example_ring():
    """Q = C_i[x,y], R = Q/(x^2, y^2): q_12 = zeta_4."""
    return RingSpec(2, 4, [[0, 1], [-1, 0]], relations=["x1^2", "x2^2"])


def hypersurface_ring():
    """Commutative sanity case: Q = k[x], R = k[x]/(x^2)."""
    return RingSpec(1, 1, [[0]], relations=["x1^2"])


def skew_hypersurface_ring():
    """n=2, c=1: Q = C_i[x,y], R = Q/(x^2); R/(y) has projective dimension 1."""
    return RingSpec(2, 4, [[0, 1], [-1, 0]], relations=["x1^2"])


def three_var_ring():
    """n=3, c=2 with q of mixed orders 2 and 4."""
    return RingSpec(
        3, 4,
        [[0, 1, 2], [-1, 0, 1], [-2, -1, 0]],
        relations=["x1^2", "x2^2"],
    )


def fixture_rings():
    return [example_ring(), hypersurface_ring(), three_var_ring()]


def random_ring(rng: random.Random, nmax=3, cmax=2, conductors=(1, 2, 3, 4)):
    """A random validated ring spec with monomial regular relations and a
    conductor m drawn from ``conductors``."""
    while True:
        n = rng.randint(1, nmax)
        m = rng.choice(conductors)
        aexp = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a = rng.randrange(m)
                aexp[i][j] = a
                aexp[j][i] = (-a) % m
        c = rng.randint(1, min(cmax, n))
        vars_for_rels = rng.sample(range(n), c)
        rels = []
        for v in sorted(vars_for_rels):
            e = rng.randint(2, 3)
            rels.append(f"x{v+1}^{e}")
        spec = RingSpec(n, m, aexp, relations=rels)
        if validate_ring(spec).ok:
            return spec


def random_exponent(rng, n, total_max):
    exps = [0] * n
    for _ in range(rng.randint(0, total_max)):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def rank(vectors):
    """The rank of a list of sparse vectors {key: scalar}."""
    ech = Echelon()
    for v in vectors:
        if v:
            ech.add(v)
    return ech.rank


def is_rational(c):
    """Does the cyclotomic scalar c lie in Q?"""
    return not any(c.n[1:])


def canonical_json(cx):
    """A KoszulComplex as sorted-key JSON text, for exact comparisons."""
    return json.dumps(cx.to_json(), sort_keys=True)
