"""Support varieties, complexity, and Poincare series over the commutative
operator ring.

With all commutation parameters roots of unity there is a minimal t > 0
such that the subalgebra on the t-th powers of the operators (and of the
ring variables) is commutative: t is the least integer whose square is
divisible by the exponent of the bicharacter's image.  Supports are
computed in the fiber over the residue field, i.e. over
k[theta_1..theta_c] with theta_i = chi_i^t; the reported ideal is the
annihilator of the Ext module (same vanishing locus as the Fitting ideal,
and canonical as a reduced Groebner basis) and the reported dimension is
its Krull dimension, which equals the complexity of the pair.
"""

from __future__ import annotations

from math import gcd

from .colorcore import Poly, RingSpec, poly_to_string
from .operators import (
    _theta_ring,
    build_operator_complex,
    homology_bigraded,
)
from .qgrobner import Order, interreduce_ideal, monomial_dimension
from .resolve import ModulePresentation, minimal_R_resolution
from .sparse import add_scaled
from .store import current

__all__ = [
    "ThetaAlgebra",
    "SupportReport",
    "PoincareSeries",
    "ArcReport",
    "compute_t",
    "support_variety",
    "complexity",
    "poincare_series",
    "is_perfect",
    "arc_check",
]


def _lcm(a, b):
    return a * b // gcd(a, b)


def compute_t(spec: RingSpec) -> int:
    """Minimal t > 0 with e | t^2, e the exponent of the bicharacter image.

    The image is generated by the chi values on generator and relation
    colors; all are roots of unity for a validated ring.
    """
    colors = [tuple(1 if k == i else 0 for k in range(spec.n))
              for i in range(spec.n)]
    colors += [cf for cf in spec.cf]
    e = 1
    for sigma in colors:
        for tau in colors:
            value = spec.chi(sigma, tau)
            order = value.unit_order()
            if order is None:
                raise ValueError("commutation parameter is not a root of unity")
            e = _lcm(e, order)
    t = 1
    while (t * t) % e != 0:
        t += 1
    return t


class ThetaAlgebra:
    """The commutative operator ring k[theta_1..theta_c], theta_i = chi_i^t.

    theta_i has cohomological degree 2t and internal degree -t df_i; the
    constructor certifies that chi^(t^2) = 1 on the relevant colors.
    """

    def __init__(self, spec: RingSpec, t: int | None = None):
        self.spec = spec
        self.t = compute_t(spec) if t is None else t
        colors = [tuple(1 if k == i else 0 for k in range(spec.n))
                  for i in range(spec.n)] + list(spec.cf)
        for sigma in colors:
            for tau in colors:
                if not (spec.chi(sigma, tau) ** (self.t * self.t)).is_one():
                    raise ValueError(
                        f"t={self.t} does not commute the operator subalgebra")
        self.ring = _theta_ring(spec, self.t)

    @property
    def names(self):
        return self.ring.names

    def ideal_strings(self, gens):
        out = []
        for g in gens:
            terms = {exps: c for (exps, _comp), c in g.items()}
            out.append(poly_to_string(Poly(self.ring, terms)))
        return out


# ---------------------------------------------------------------------------
# integer polynomial helpers (series arithmetic for Poincare data)
# ---------------------------------------------------------------------------

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divexact(num, den):
    """num / den in Z[t] or None if not exact."""
    num = list(num)
    _poly_trim(num)
    if not num:
        return []
    if len(num) < len(den):
        return None
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            return None
        q[i] = c // den[-1]
        if q[i]:
            for j, d in enumerate(den):
                num[i + j] -= q[i] * d
    if any(num):
        return None
    return _poly_trim(q)


def _divide_out(p, factor, limit):
    """Divide p by factor while the division is exact, at most limit times;
    returns (quotient, number of divisions)."""
    count = 0
    while count < limit:
        q = _poly_divexact(p, factor)
        if q is None:
            break
        p = q
        count += 1
    return p, count


ONE_MINUS_T2 = [1, 0, -1]


class PoincareSeries:
    """P(t) = p(t) / (1 - t^2)^c' with p(1) != 0, integer coefficients."""

    def __init__(self, numerator, cprime, method, window=None):
        self.numerator = list(numerator)
        self.cprime = cprime
        self.method = method
        self.window = window

    def complexity(self):
        return self.cprime

    def coefficients(self, upto):
        out = [0] * (upto + 1)
        for d, v in enumerate(self.numerator):
            if d <= upto:
                out[d] += v
        for _ in range(self.cprime):
            for d in range(2, upto + 1):
                out[d] += out[d - 2]
        return out

    def numerator_at_one(self):
        return sum(self.numerator)

    def to_json(self):
        return {
            "numerator": list(self.numerator),
            "cprime": self.cprime,
            "method": self.method,
            "window": self.window,
        }

    def __repr__(self):
        terms = []
        for d, v in enumerate(self.numerator):
            if v:
                if d == 0:
                    terms.append(str(v))
                else:
                    base = "t" if d == 1 else f"t^{d}"
                    terms.append(base if v == 1 else f"{v}*{base}")
        num = " + ".join(terms).replace("+ -", "- ") or "0"
        if self.cprime == 0:
            return num
        return f"({num})/(1-t^2)^{self.cprime}"


class RationalityError(RuntimeError):
    """The window was too small to certify the rational form."""


def _reduce_to_poincare(numerator, denom_power, gluing, c, method, window):
    """Turn num/(1-t^{2t})^c into p/(1-t^2)^c' with p(1) != 0.

    ``gluing`` is (1 - t^{2t})/(1 - t^2) as an integer polynomial; the
    division below is exact because the series is a rational function with
    denominator (1-t^2)^c (finite free resolution over the theta ring).
    """
    p, glued = _divide_out(list(numerator), gluing, denom_power)
    if glued < denom_power:
        raise AssertionError("theta Hilbert numerator not divisible; "
                             "rational form violated")
    p, removed = _divide_out(p, ONE_MINUS_T2, c)
    cprime = c - removed
    if sum(p) == 0:
        raise AssertionError("numerator vanishes at t=1 after reduction; "
                             "rationality theorem violated")
    return PoincareSeries(p, cprime, method, window)


def _series_fit(coeffs, c, validate, method, window):
    """Fit sum coeffs t^i = p(t)/(1-t^2)^c' with a validated zero tail."""
    u = list(coeffs)
    for _ in range(c):
        for d in range(len(u) - 1, 1, -1):
            u[d] -= u[d - 2]
    last = max((d for d, v in enumerate(u) if v), default=-1)
    if last > len(u) - 1 - validate:
        raise RationalityError(
            f"window too small: (1-t^2)^{c} * P has support at degree "
            f"{last} with only {len(u) - 1 - last} trailing zeros "
            f"(need {validate})")
    p, removed = _divide_out(_poly_trim(u[: last + 1]), ONE_MINUS_T2, c)
    cprime = c - removed
    if p and sum(p) == 0:
        raise AssertionError("fit numerator vanishes at t=1")
    return PoincareSeries(p or [0], cprime if p else 0, method, window)


# ---------------------------------------------------------------------------
# support reports
# ---------------------------------------------------------------------------

class SupportReport:
    def __init__(self, spec, t, ideal_gens, dimension, semantics, window,
                 labels=None):
        self.spec = spec
        self.t = t
        self.ideal_gens = ideal_gens      # vectors over the theta ring
        self.dimension = dimension
        self.semantics = semantics
        self.window = window or {}
        self.labels = labels or {}
        self.algebra = ThetaAlgebra(spec, t)

    @property
    def ideal(self):
        return self.algebra.ideal_strings(self.ideal_gens)

    @property
    def proj_empty(self):
        return self.dimension <= 0

    def to_json(self):
        return {
            "t": self.t,
            "ideal": self.ideal,
            "dimension": self.dimension,
            "semantics": self.semantics,
            "proj_empty": self.proj_empty,
            "window": self.window,
            **self.labels,
        }

    def __repr__(self):
        gens = ", ".join(self.ideal) or "0"
        return (f"SupportReport(ideal=({gens}), dim={self.dimension}, "
                f"semantics={self.semantics})")


def _is_k(n):
    """Is the second module of a pair the residue field: None, "k", or a
    presentation of k?"""
    return n is None or (isinstance(n, str) and n == "k") or (
        isinstance(n, ModulePresentation) and n.is_residue_field())


def _theta_data(module: ModulePresentation, t):
    tm = current().theta_module(module, t)
    ann = tm.annihilator()
    dim = tm.dimension()
    # internal consistency: the Krull dimension equals the pole order of
    # the Hilbert series at 1 (degree of growth of the Hilbert function)
    num = tm.hilbert_numerator()
    if dim >= 0 or num:
        pole = _pole_order_at_one(num, module.spec.c, t)
        if pole != max(dim, 0) and not (dim == -1 and pole == 0):
            raise AssertionError(
                f"dimension check failed: Krull {dim} vs pole order {pole}")
    return tm, ann, dim


def _pole_order_at_one(num_dict, c, t):
    if not num_dict:
        return 0
    degmax = max(num_dict)
    p = [0] * (degmax + 1)
    for d, v in num_dict.items():
        p[d] = v
    # the denominator (1 - u^{2t})^c has a zero of order c at u = 1; each
    # factor (1 - u) of a nonzero numerator cancels one order
    q = _poly_trim(p)
    mult = _divide_out(q, [1, -1], c)[1] if q else 0
    return c - mult


def support_variety(m: ModulePresentation, n) -> SupportReport:
    """V_R(M, N) in the fiber semantics.

    For N = k (or M = k, using symmetry) the support is exact: the
    annihilator of Ext over k[theta].  For a general pair the report is the
    intersection V(M,k) cap V(N,k), labeled as fiber semantics.
    """
    spec = m.spec
    t = compute_t(spec)
    n_is_k = _is_k(n)
    m_is_k = m.is_residue_field()
    if n_is_k or m_is_k:
        base = m if n_is_k else n
        _tm, ann, dim = _theta_data(base, t)
        labels = {"pair": [base.name, "k"]}
        if m_is_k and not n_is_k:
            labels["note"] = "computed as V(N,k) = V(k,N) by symmetry"
        return SupportReport(spec, t, ann, max(dim, 0), "fiber",
                             {"exact": True}, labels)
    # general pair: fiber-intersection V(M,k) cap V(N,k)
    _tm, ann_m, _ = _theta_data(m, t)
    _tm2, ann_n, _ = _theta_data(n, t)
    ring = _theta_ring(spec, t)
    combined = interreduce_ideal(list(ann_m) + list(ann_n), ring)
    order = Order(ring)
    exps = [max(g, key=order.key)[0] for g in combined]
    dim = monomial_dimension(exps, spec.c)
    return SupportReport(spec, t, combined, max(dim, 0), "fiber",
                         {"exact": True},
                         {"pair": [m.name, n.name],
                          "note": "fiber intersection V(M,k) cap V(N,k)"})


def support_variety_full(m: ModulePresentation, degree_cap=6, imax=6,
                         jmax=8) -> SupportReport:
    """Annihilator-up-to-degree estimate over the full operator subalgebra.

    Collects the monomials theta^v (x^t)^u of cohomological degree at most
    degree_cap that annihilate every homology class in the window; labeled
    as the truncated-full semantics it is.
    """
    spec = m.spec
    t = compute_t(spec)
    k = ModulePresentation.residue_field(spec)
    opcx = build_operator_complex(current().get_or_build(m), k)
    table = homology_bigraded(opcx, imax, jmax)
    ring = _theta_ring(spec, t)
    ann_gens = []
    for v in _small_exponents(spec.c, degree_cap // (2 * t)):
        if not any(v):
            continue
        if _theta_monomial_annihilates(table, spec, t, v, imax, jmax):
            ann_gens.append({(v, 0): spec.one()})
    combined = interreduce_ideal(ann_gens, ring)
    exps = [max(g, key=lambda kk: (ring.deg(kk[0]), kk[0]))[0]
            for g in combined]
    dim = monomial_dimension(exps, spec.c) if combined else spec.c
    return SupportReport(
        spec, t, combined, max(dim, 0), "truncated-full",
        {"degree_cap": degree_cap, "imax": imax, "jmax": jmax},
        {"pair": [m.name, "k"],
         "note": "annihilator estimate up to the stated degree cap"})


def _small_exponents(c, cap):
    out = []
    v = [0] * c

    def walk(i, rem):
        if i == c:
            out.append(tuple(v))
            return
        for e in range(rem + 1):
            v[i] = e
            walk(i + 1, rem - e)
        v[i] = 0

    walk(0, cap)
    return out


def _theta_monomial_annihilates(table, spec, t, v, imax, jmax):
    """Does theta^v kill every homology class checkable inside the window?

    Classes whose action path leaves the window are skipped; this is why
    the full-semantics support is an estimate.
    """
    steps = []
    for l in range(spec.c):
        steps += [l] * (t * v[l])
    for (i, j), d in table.dims.items():
        if not d:
            continue
        if i + 2 * t * sum(v) > imax:
            continue
        mats = []
        src = (i, j)
        reachable = True
        for l in steps:
            mat = table.chi_actions[f"chi{l+1}"].get(src)
            if mat is None:
                reachable = False
                break
            mats.append(mat)
            src = mat["target"]
        if not reachable:
            continue
        for col in range(d):
            vec = {col: spec.one()}
            for mat in mats:
                nxt = {}
                for kidx, c in vec.items():
                    add_scaled(nxt, mat["columns"][kidx], c)
                vec = nxt
                if not vec:
                    break
            if vec:
                return False
    return True


# ---------------------------------------------------------------------------
# complexity and Poincare series
# ---------------------------------------------------------------------------

class ComplexityResult:
    def __init__(self, value, certificate):
        self.value = value
        self.certificate = certificate

    def __int__(self):
        return self.value

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other
        if isinstance(other, ComplexityResult):
            return self.value == other.value
        return NotImplemented

    def __repr__(self):
        return f"ComplexityResult({self.value}, {self.certificate})"

    def to_json(self):
        return {"value": self.value, "certificate": self.certificate}


def poincare_series(m: ModulePresentation, n=None,
                    window=None) -> PoincareSeries:
    """P^R_{M,N}(t) = sum dim(Ext^i (x)_R k) t^i as p(t)/(1-t^2)^c'.

    Exact via the theta-module Hilbert series when N = k; otherwise a
    rational fit over the window validated on 2c extra coefficients.
    """
    spec = m.spec
    t = compute_t(spec)
    if _is_k(n):
        tm, _ann, _dim = _theta_data(m, t)
        return _series_from_theta(tm, spec, t)
    coeffs, win = _tensor_k_series(m, n, window)
    return _series_fit(coeffs, spec.c, 2 * spec.c, "fit", win)


def _series_from_theta(tm, spec, t):
    num = tm.hilbert_numerator()
    numerator = [0] * (max(num) + 1 if num else 1)
    for d, v in num.items():
        numerator[d] = v
    # (1 - u^{2t})/(1 - u^2) = 1 + u^2 + ... + u^{2(t-1)}
    gluing = [1 if d % 2 == 0 else 0 for d in range(2 * t - 1)]
    return _reduce_to_poincare(numerator, spec.c, gluing, spec.c,
                               "exact-theta", {"t": t})


def _tensor_k_series(m, n, window):
    """Window dims of Ext^i(M,N) (x)_R k, with j-complete windows when the
    target is finite dimensional (then only the i-truncation remains and
    the caller's tail validation covers it)."""
    spec = m.spec
    imax = (window or {}).get("cmax", 8)
    cx = current().get_or_build(m)
    top_deg = max(d for layer in cx.basis for d, _c in layer)
    low_deg = min(d for layer in cx.basis for d, _c in layer)
    opcx = build_operator_complex(cx, n)
    nb = opcx.x.nb
    min_n = min((d for d, _c in nb.gens()), default=0)
    # j <= sum(w) df + max basis degree - min target degree, sum(w) <= i/2
    jmax_required = (imax // 2) * max(spec.df) + top_deg - min_n
    jmax = max((window or {}).get("dmax", 10), jmax_required)
    # probe whether the target is finite dimensional; if so the window is
    # complete below as well
    probe = top_deg + jmax + 2 * max(spec.degrees)
    max_n = None
    for d in range(probe, probe - 2 * max(spec.degrees) - 1, -1):
        if nb.basis_of_degree(d):
            break
    else:
        max_n = probe
        while max_n > 0 and not nb.basis_of_degree(max_n):
            max_n -= 1
    if max_n is not None:
        jmin_required = low_deg - max_n
        jmin = min((window or {}).get("jmin", 0), jmin_required)
        j_complete = True
    else:
        jmin = (window or {}).get("jmin", -jmax)
        j_complete = False
    table = homology_bigraded(opcx, imax, jmax, jmin=jmin)
    coeffs = [table.tensor_k_dim(i) for i in range(imax + 1)]
    return coeffs, {"cmax": imax, "dmax": jmax, "jmin": jmin,
                    "j_complete": j_complete}


def complexity(m: ModulePresentation, n=None, window=None,
               force_fit=False) -> ComplexityResult:
    """cx_R(M, N): Krull dimension of the theta support when N = k (exact),
    pole order of the validated rational fit otherwise.

    ``force_fit`` takes the rational-fit route even when the exact theta
    route applies; used to cross-check the two methods against each other.
    """
    spec = m.spec
    t = compute_t(spec)
    n_is_k = _is_k(n)
    m_is_k = m.is_residue_field()
    if force_fit:
        if n_is_k:
            n = ModulePresentation.residue_field(spec)
        n_is_k = m_is_k = False
    if n_is_k or m_is_k:
        tm, _ann, dim = _theta_data(m if n_is_k else n, t)
        series = _series_from_theta(tm, spec, t)
        value = max(dim, 0)
        if series.cprime != value:
            raise AssertionError(
                f"complexity mismatch: dim {value} vs pole {series.cprime}")
        return ComplexityResult(value, {"method": "theta-dimension", "t": t})
    coeffs, win = _tensor_k_series(m, n, window)
    series = _series_fit(coeffs, spec.c, 2 * spec.c, "fit", win)
    return ComplexityResult(series.cprime,
                            {"method": "rational-fit", **win})


def is_perfect(m: ModulePresentation) -> bool:
    """True iff the support over k is empty in Proj; cross-checked against
    Betti vanishing in the oracle window."""
    spec = m.spec
    report = support_variety(m, "k")
    empty = report.proj_empty
    betti = minimal_R_resolution(m, spec.n + spec.c + 3,
                                 3 * (sum(spec.df) + 2))
    pd = betti.projective_dimension()
    if empty and pd is None:
        raise AssertionError(
            "support empty but Betti numbers persist through the window")
    if not empty and pd is not None:
        raise AssertionError(
            f"support nonempty but projective dimension is finite ({pd})")
    return empty


class ArcReport:
    """A verdict with its detail; ``jrange`` is the (jmin, jmax) of the
    internal-degree window the Ext tables were computed on."""

    def __init__(self, verdict, detail, jrange):
        self.verdict = verdict
        self.detail = detail
        self.jrange = jrange

    def __repr__(self):
        return f"ArcReport({self.verdict}: {self.detail})"

    def to_json(self):
        return {"verdict": self.verdict, **self.detail}


def arc_check(m: ModulePresentation, r: int, window: int) -> ArcReport:
    """Vanishing criterion for projective dimension.

    Verifies Ext^i(M, M + R) = 0 for r < i <= window; when the hypothesis
    holds, independently computes pd from the Betti oracle and checks both
    pd <= r and pd = sup{i : Ext^i(M,R) != 0} within the window.
    """
    spec = m.spec
    if window <= r:
        raise ValueError("window must exceed r")
    cx = current().get_or_build(m)
    free = ModulePresentation.free(spec)
    top_basis_deg = max(d for layer in cx.basis for d, _c in layer)
    jmax = (window // 2 + 1) * max(spec.df) + top_basis_deg
    jmin = -jmax
    table_m = homology_bigraded(
        build_operator_complex(cx, m), window, jmax, jmin=jmin,
        want_actions=False)
    table_r = homology_bigraded(
        build_operator_complex(cx, free), window, jmax, jmin=jmin,
        want_actions=False)
    failures = [i for i in range(r + 1, window + 1)
                if table_m.ext_dim(i) or table_r.ext_dim(i)]
    if failures:
        return ArcReport("hypothesis not satisfied",
                         {"first_nonvanishing": failures[0],
                          "window": window}, (jmin, jmax))
    betti = minimal_R_resolution(m, window, jmax)
    pd = betti.projective_dimension()
    if pd is None:
        return ArcReport("fail", {"reason": "oracle Betti numbers persist",
                                  "window": window}, (jmin, jmax))
    ext_r_sup = max((i for i in range(window + 1) if table_r.ext_dim(i)),
                    default=0)
    ok = pd <= r and pd == ext_r_sup
    detail = {"pd": pd, "r": r, "sup_ext_R": ext_r_sup, "window": window}
    return ArcReport("pass" if ok else "fail", detail, (jmin, jmax))
