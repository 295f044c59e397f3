"""The graded dual of the skew polynomial algebra under convolution.

xi^a denotes the dual basis element (x^a)*; the convolution product against
the shuffle-type coproduct makes the dual a skew divided powers algebra.
A dual element sum c_a xi^a is the term dict {a: c_a}, as a polynomial is
in ``colorcore``; the bidegree of xi^a is (color(x^a)^(-1), -deg(x^a)).
Over our characteristic-zero coefficient fields the divided power of any
even element is forced to be gamma^(k) = gamma^k / k!, which fixes the
combinatorial bracket on dual monomials:

    (xi^a)^(k) = C(x^a, x^a)^(-binom(k,2)) * (1/k!) prod_i (k a_i)!/(a_i!)^k
                 * xi^(k a).

On monomials supported on a single variable this is the bracket
<h over k> = (hk)!/(k!(h!)^k); the naive componentwise product of brackets
fails the divided-power axioms for mixed monomials, so the forced scalar is
used throughout (see the product identity checks in verify_appendix).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .colorcore import RingSpec
from .scalars import CycScalar
from .sparse import add_term

__all__ = [
    "xi_mul",
    "xi_divided_power",
    "convolution_mul",
    "dual_coproduct",
    "double_dual_structure_constant",
    "verify_appendix",
    "AppendixReport",
]


def bracket(h: int, k: int) -> int:
    """<h over k> = (hk)! / (k! (h!)^k)."""
    return factorial(h * k) // (factorial(k) * factorial(h) ** k)


def divided_bracket(alpha, k: int) -> Fraction:
    """Combinatorial part of (xi^alpha)^(k), forced by gamma^k = k! gamma^(k).

    Integral whenever alpha is nonzero; on the unit monomial it degenerates
    to 1/k!, the consistent char-0 value.
    """
    num = 1
    for a in alpha:
        if a:
            num *= factorial(k * a) // factorial(a) ** k
    return Fraction(num, factorial(k))


def xi_mul(spec: RingSpec, beta, gamma):
    """xi^beta xi^gamma = C(x^gamma, x^beta)^(-1) binom(beta+gamma, beta) xi^(beta+gamma).

    Returns (scalar, exponent vector).
    """
    ring = spec.qring
    scal = ring.cpair(gamma, beta).inverse()
    binom = 1
    for b, g in zip(beta, gamma):
        binom *= comb(b + g, b)
    return scal * binom, tuple(b + g for b, g in zip(beta, gamma))


def xi_divided_power(spec: RingSpec, alpha, k: int):
    """k-th divided power of xi^alpha: (scalar, exponent vector)."""
    if k < 0:
        raise ValueError("divided power exponent must be nonnegative")
    ring = spec.qring
    if k == 0:
        return CycScalar.one(spec.m), ring.zero_exp()
    scal = ring.cpair(alpha, alpha) ** (-comb(k, 2))
    scal = scal * divided_bracket(alpha, k)
    return scal, tuple(k * a for a in alpha)


def convolution_mul(spec: RingSpec, phi, psi):
    """Product via the coproduct: (phi psi)(a) = sum c(psi, a1) phi(a1) psi(a2).

    Inputs decompose termwise into bihomogeneous pieces, so no homogeneity
    precondition is needed; on dual monomials this reproduces xi_mul.
    """
    ring = spec.qring
    out = {}
    for beta, cb in phi.items():
        for gamma, cg in psi.items():
            # c(psi-part, x^beta) = chi(-gamma, beta); coproduct contributes
            # C(x^beta, x^gamma)^(-1) binom(beta+gamma, beta)
            scal = ring.chi(gamma, beta).inverse()
            scal = scal * ring.cpair(beta, gamma).inverse()
            for b, g in zip(beta, gamma):
                scal = scal * comb(b + g, b)
            add_term(out, tuple(b + g for b, g in zip(beta, gamma)),
                     cb * cg * scal)
    return out


def _xi_power(spec, beta, k):
    """(xi^beta)^k by iterated xi_mul; returns (scalar, exponents)."""
    scal = CycScalar.one(spec.m)
    exps = spec.qring.zero_exp()
    for _ in range(k):
        s, exps = xi_mul(spec, exps, beta)
        scal = scal * s
    return scal, exps


def dual_coproduct(spec: RingSpec, alpha):
    """Coproduct of xi^alpha in the dual algebra, as {(beta, gamma): scalar}.

    Defined as the multiplicative extension of xi_i -> xi_i (x) 1 + 1 (x) xi_i,
    available in characteristic zero because xi_i generate the dual.
    """
    ring = spec.qring
    n = spec.n
    one = CycScalar.one(spec.m)
    zero_exp = ring.zero_exp()
    # product of (xi_i (x) 1 + 1 (x) xi_i)^{alpha_i}, in the tensor square
    result = {(zero_exp, zero_exp): one}
    for i in range(n):
        ei = tuple(1 if j == i else 0 for j in range(n))
        gen = {(ei, zero_exp): one, (zero_exp, ei): one}
        for _ in range(alpha[i]):
            result = _tensor_mul(spec, result, gen)
    # result = Delta(prod xi_i^{alpha_i}) = Delta(u * alpha! * xi^alpha)
    scal, exps = _monomial_as_product(spec, alpha)
    assert exps == tuple(alpha)
    inv = scal.inverse()
    return {k: v * inv for k, v in result.items()}


def _monomial_as_product(spec, alpha):
    """prod_i xi_i^{alpha_i} = (scalar, alpha) via xi_mul."""
    n = spec.n
    scal = CycScalar.one(spec.m)
    exps = spec.qring.zero_exp()
    for i in range(n):
        ei = tuple(1 if j == i else 0 for j in range(n))
        for _ in range(alpha[i]):
            s, exps = xi_mul(spec, exps, ei)
            scal = scal * s
    return scal, exps


def _tensor_mul(spec, u, v):
    """Multiply in A* (x) A*: (p (x) q)(p' (x) q') = chi(q, p') pp' (x) qq'.

    All factors here have even homological degree, so no signs; the tensor
    twist is chi(gdeg q, gdeg p') = chi(exps_q, exps_p') on dual colors.
    """
    ring = spec.qring
    out = {}
    for (p1, q1), c1 in u.items():
        for (p2, q2), c2 in v.items():
            tw = ring.chi(q1, p2)  # chi(-q1, -p2) = chi(q1, p2)
            s1, pe = xi_mul(spec, p1, p2)
            s2, qe = xi_mul(spec, q1, q2)
            add_term(out, (pe, qe), c1 * c2 * tw * s1 * s2)
    return out


def double_dual_structure_constant(spec: RingSpec, alpha, beta):
    """T with (xi^alpha)* (xi^beta)* = T (xi^(alpha+beta))* in the double dual.

    The canonical map x^a -> (xi^a)* is an algebra isomorphism exactly when
    T(alpha, beta) equals the reordering pairing C(alpha, beta).
    """
    ring = spec.qring
    total = tuple(a + b for a, b in zip(alpha, beta))
    delta = dual_coproduct(spec, total)
    coeff = delta.get((tuple(alpha), tuple(beta)))
    if coeff is None:
        return CycScalar.zero(spec.m)
    # convolution twist c(E_beta, xi^alpha) = chi(beta, -alpha)^{-1} = chi(beta, alpha)^{-1}
    return ring.chi(beta, alpha).inverse() * coeff


class AppendixReport:
    def __init__(self, ok, bound, checks, counterexample=None):
        self.ok = ok
        self.bound = bound
        self.checks = checks  # name -> number of cases verified
        self.counterexample = counterexample

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {
            "ok": self.ok,
            "bound": self.bound,
            "checks": dict(self.checks),
            "counterexample": self.counterexample,
        }


def _exps_up_to(spec, bound):
    from .colorcore import monomials_of_degree

    out = []
    for d in range(bound + 1):
        out.extend(monomials_of_degree(spec.qring, d))
    return out


def verify_appendix(spec: RingSpec, bound: int):
    """Exhaustive checks of the dual divided-powers structure up to bound.

    Checks, for all monomial exponents of internal degree <= bound and all
    k <= bound: the xi-product scalar against convolution_mul, the divided
    power product identity (xy)^(k) = c(y,x)^binom(k,2) x^k y^(k), the
    divided-power composition axiom, dual-basis nondegeneracy, and the
    double-dual structure constants against the reordering pairing.
    """
    ring = spec.qring
    one, zero = CycScalar.one(spec.m), CycScalar.zero(spec.m)
    exps_list = _exps_up_to(spec, bound)
    checks = {"xi_product": 0, "product_identity": 0, "dp_axiom": 0,
              "pairing": 0, "double_dual": 0}

    ximul = lambda beta, gamma: xi_mul(spec, beta, gamma)
    xidp = lambda alpha, k: xi_divided_power(spec, alpha, k)

    for beta in exps_list:
        for gamma in exps_list:
            # (1) Lemma scalar vs the convolution route
            scal, exps = ximul(beta, gamma)
            conv = convolution_mul(spec, {beta: one}, {gamma: one})
            if conv != {exps: scal}:
                return AppendixReport(
                    False, bound, checks,
                    {"check": "xi_product", "beta": beta, "gamma": gamma,
                     "xi_mul": scal.to_string(),
                     "convolution": " + ".join(
                         f"({c.to_string()})*xi^{e}"
                         for e, c in sorted(conv.items())) or "0"})
            checks["xi_product"] += 1
            # (2) (xy)^(k) = c(y,x)^binom(k,2) x^k y^(k)
            for k in range(bound + 1):
                s_prod, e_prod = ximul(beta, gamma)
                s_lhs, e_lhs = xidp(e_prod, k)
                s_lhs = s_lhs * s_prod ** k
                s_x, e_x = _xi_power(spec, beta, k)
                s_y, e_y = xidp(gamma, k)
                s_mix, e_rhs = ximul(e_x, e_y)
                s_rhs = (ring.chi(gamma, beta) ** comb(k, 2)
                         * s_x * s_y * s_mix)
                if e_lhs != e_rhs or s_lhs != s_rhs:
                    return AppendixReport(
                        False, bound, checks,
                        {"check": "product_identity", "beta": beta,
                         "gamma": gamma, "k": k,
                         "lhs": s_lhs.to_string(), "rhs": s_rhs.to_string()})
                checks["product_identity"] += 1

    # (3) divided-power composition: xi^(j) xi^(k) = binom(j+k,j) xi^(j+k)
    for alpha in exps_list:
        if not any(alpha):
            continue
        for j in range(bound + 1):
            for k in range(bound + 1 - j):
                s_j, e_j = xidp(alpha, j)
                s_k, e_k = xidp(alpha, k)
                s_m, e_m = ximul(e_j, e_k)
                lhs = s_j * s_k * s_m
                s_jk, e_jk = xidp(alpha, j + k)
                rhs = s_jk * comb(j + k, j)
                if e_m != e_jk or lhs != rhs:
                    return AppendixReport(
                        False, bound, checks,
                        {"check": "dp_axiom", "alpha": alpha, "j": j, "k": k,
                         "lhs": lhs.to_string(), "rhs": rhs.to_string()})
                checks["dp_axiom"] += 1

    # (4) dual-basis pairing is Kronecker delta (nondegenerate per bidegree)
    for alpha in exps_list:
        phi = {alpha: one}
        for beta in exps_list:
            val = phi.get(beta, zero)
            want = one if alpha == beta else zero
            if val != want:
                return AppendixReport(False, bound, checks,
                                      {"check": "pairing", "alpha": alpha,
                                       "beta": beta})
            checks["pairing"] += 1

    # (5) double dual multiplies like A itself
    for alpha in exps_list:
        for beta in exps_list:
            if ring.deg(alpha) + ring.deg(beta) > bound:
                continue
            t = double_dual_structure_constant(spec, alpha, beta)
            c = ring.cpair(alpha, beta)
            if t != c:
                return AppendixReport(
                    False, bound, checks,
                    {"check": "double_dual", "alpha": alpha, "beta": beta,
                     "T": t.to_string(), "C": c.to_string()})
            checks["double_dual"] += 1

    return AppendixReport(True, bound, checks)
