"""Support varieties, complexity, and Poincare series over the commutative
operator ring.

With all commutation parameters roots of unity there is a minimal t > 0
such that the subalgebra on the t-th powers of the operators (and of the
ring variables) is commutative: t is the least integer whose square is
divisible by the exponent of the bicharacter's image.  Ext_R(M, k) is
presented once over the skew chi-ring S (``operators.ext_over_theta``),
with no window and no t; t enters only here, where the support is read in
k[theta_1..theta_c], theta_i = chi_i^t.  The reported ideal is the
annihilator of the Ext module in k[theta] (same vanishing locus as the
Fitting ideal, and canonical as a reduced Groebner basis) and the reported
dimension is its Krull dimension, which equals the complexity of the pair.
"""

from __future__ import annotations

from math import gcd, lcm

from .colorcore import QRing, RingSpec, poly_to_string
from .operators import (
    _tensor_k_dims,
    build_operator_complex,
    homology_bigraded,
)
from .qgrobner import Order, interreduce_ideal, monomial_dimension
from .resolve import ModulePresentation, minimal_R_resolution
from .scalars import CycScalar, _polydiv_exact
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
    "degree_bound",
]


def _colors(spec):
    """The generator colors, then the relation colors cf_i."""
    return [*spec.qring.colors, *spec.cf]


def compute_t(spec: RingSpec) -> int:
    """Minimal t > 0 with e | t^2, e the exponent of the bicharacter image.

    The image is generated by the chi values zeta_m^a on generator and
    relation colors, and zeta_m^a has order m / gcd(a, m).
    """
    colors = _colors(spec)
    m = spec.m
    e = 1
    for sigma in colors:
        for tau in colors:
            e = lcm(e, m // gcd(spec.qring.chi_exp(sigma, tau), m))
    t = 1
    while (t * t) % e != 0:
        t += 1
    return t


def _theta_ring(spec, t):
    c = spec.c
    return QRing(spec.m, tuple(f"th{i+1}" for i in range(c)), (2 * t,) * c,
                 [[0] * c for _ in range(c)])


class ThetaAlgebra:
    """The commutative operator ring k[theta_1..theta_c], theta_i = chi_i^t.

    theta_i has cohomological degree 2t and internal degree -t df_i; the
    constructor certifies that chi^(t^2) = 1 on the relevant colors.
    """

    def __init__(self, spec: RingSpec, t: int | None = None):
        self.spec = spec
        self.t = compute_t(spec) if t is None else t
        colors = _colors(spec)
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
            out.append(poly_to_string(self.ring, terms))
        return out


# ---------------------------------------------------------------------------
# integer polynomial helpers (series arithmetic for Poincare data)
# ---------------------------------------------------------------------------

def _divide_out(p, factor, limit):
    """Divide p by factor while the division is exact, at most limit times;
    returns (quotient, number of divisions)."""
    count = 0
    while count < limit:
        q = _polydiv_exact(p, factor)
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

    def coefficients(self, upto):
        out = [0] * (upto + 1)
        for d, v in enumerate(self.numerator):
            if d <= upto:
                out[d] += v
        for _ in range(self.cprime):
            for d in range(2, upto + 1):
                out[d] += out[d - 2]
        return out

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


class EmptyWindowError(ValueError):
    """A fit window with no internal index: jmin above the effective
    dmax."""


def _series_from_theta(tm, c, t):
    """The Hilbert series num/(1-u^2)^c of Ext over the chi-ring as
    p/(1-u^2)^c' with p(1) != 0; P = 0 for the zero module.

    The divisions are exact because the series is a rational function with
    denominator (1-u^2)^c (finite free resolution over the chi-ring).
    """
    num = tm.hilbert_numerator()
    if not num:
        return PoincareSeries([0], 0, "exact-theta", {"t": t})
    p = [num.get(d, 0) for d in range(max(num) + 1)]
    p, removed = _divide_out(p, ONE_MINUS_T2, c)
    if sum(p) == 0:
        raise AssertionError("numerator vanishes at t=1 after reduction; "
                             "rationality theorem violated")
    return PoincareSeries(p, c - removed, "exact-theta", {"t": t})


# ---------------------------------------------------------------------------
# support reports
# ---------------------------------------------------------------------------

class SupportReport:
    """A support ideal in k[theta] and its Krull dimension.

    Every support is computed exactly in the fiber over k, with no window;
    ``to_json`` records that as ``"semantics": "fiber"`` and
    ``"window": {"exact": true}``.
    """

    def __init__(self, spec, t, ideal_gens, dimension, labels=None):
        self.spec = spec
        self.t = t
        self.ideal_gens = ideal_gens      # vectors over the theta ring
        self.dimension = dimension
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
            "semantics": "fiber",
            "proj_empty": self.proj_empty,
            "window": {"exact": True},
            **self.labels,
        }

    def __repr__(self):
        gens = ", ".join(self.ideal) or "0"
        return f"SupportReport(ideal=({gens}), dim={self.dimension})"


def _is_k(n):
    """Is the second module of a pair the residue field: None, "k", or a
    presentation of k?"""
    return n is None or (isinstance(n, str) and n == "k") or (
        isinstance(n, ModulePresentation) and n.is_residue_field())


def _theta_data(module: ModulePresentation, t):
    """(Ext_R(module, k) over the chi-ring, its dimension, its Poincare
    series), certified once: the Krull dimension (0 for the zero module)
    equals the pole order at 1, the c' of p/(1-t^2)^c' with p(1) != 0."""
    tm = current().theta_module(module)
    dim = max(tm.dimension(), 0)
    series = _series_from_theta(tm, module.spec.c, t)
    if series.cprime != dim:
        raise AssertionError(f"dimension check failed: Krull {dim} vs "
                             f"pole order {series.cprime}")
    return tm, dim, series


def _theta_annihilator(tm, t):
    """ann_{k[theta]}(E) for E = S^r/L over the chi-ring S.

    A theta-monomial skew-commutes with every chi-monomial up to a scalar,
    so theta^a kills E exactly when chi^(t a) lies in every (L : e_j), i.e.
    in I = ann_S of the generators.  Under Z^n colors I is monomial, and
    chi^(t a) is in I exactly when some generator chi^b of I has b <= t a:
    the ideal is generated by the theta^ceil(b/t).  A non-monomial
    generator of I is refused.
    """
    exps = set()
    for g in tm.annihilator():
        if len(g) != 1:
            raise AssertionError("annihilator over the chi-ring is not "
                                 "monomial")
        ((b, _comp),) = g
        exps.add(tuple(-(-e // t) for e in b))
    one = CycScalar.one(tm.spec.m)
    return interreduce_ideal([{(a, 0): one} for a in sorted(exps)],
                             _theta_ring(tm.spec, t))


def support_variety(m: ModulePresentation, n) -> SupportReport:
    """V_R(M, N) in the fiber over k.

    For N = k (or M = k, using symmetry) the support is the annihilator of
    Ext_R(M, k) over k[theta].  For a general pair the report is the
    intersection V(M,k) cap V(N,k), and its note says so.
    """
    spec = m.spec
    t = compute_t(spec)
    n_is_k = _is_k(n)
    m_is_k = m.is_residue_field()
    if n_is_k or m_is_k:
        base = m if n_is_k else n
        tm, dim, _series = _theta_data(base, t)
        labels = {"pair": [base.name, "k"]}
        if m_is_k and not n_is_k:
            labels["note"] = "computed as V(N,k) = V(k,N) by symmetry"
        return SupportReport(spec, t, _theta_annihilator(tm, t), dim, labels)
    # general pair: fiber-intersection V(M,k) cap V(N,k)
    ann_m = _theta_annihilator(_theta_data(m, t)[0], t)
    ann_n = _theta_annihilator(_theta_data(n, t)[0], t)
    ring = _theta_ring(spec, t)
    combined = interreduce_ideal(list(ann_m) + list(ann_n), ring)
    order = Order(ring)
    exps = [max(g, key=order.key)[0] for g in combined]
    dim = monomial_dimension(exps, spec.c)
    return SupportReport(spec, t, combined, max(dim, 0),
                         {"pair": [m.name, n.name],
                          "note": "fiber intersection V(M,k) cap V(N,k)"})


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

    Exact via the Hilbert series of Ext over the chi-ring when N = k;
    otherwise a rational fit over the window validated on 2c extra
    coefficients.
    """
    if _is_k(n):
        return _theta_data(m, compute_t(m.spec))[2]
    return _pair_series(m, n, window)


def _pair_series(m, n, window):
    """P_{M,N} = sum dim(Ext^i(M,N) (x)_R k) t^i fitted over the window as
    p/(1-t^2)^c', with a validated zero tail of 2c coefficients.  With
    c = 0 the series has degree at most n = gl.dim Q, so a window with
    cmax < n cannot certify it."""
    c = m.spec.c
    coeffs, win = _tensor_k_series(m, n, window)
    if c == 0 and win["cmax"] < m.spec.n:
        raise RationalityError(
            f"cmax {win['cmax']} is below n = {m.spec.n}, the degree bound "
            f"of P over a ring with no relations")
    u = list(coeffs)
    for _ in range(c):
        for d in range(len(u) - 1, 1, -1):
            u[d] -= u[d - 2]
    last = max((d for d, v in enumerate(u) if v), default=-1)
    if last > len(u) - 1 - 2 * c:
        raise RationalityError(
            f"(1-t^2)^{c} * P has support at degree "
            f"{last} with only {len(u) - 1 - last} trailing zeros "
            f"(need {2 * c})")
    p, removed = _divide_out(u[: last + 1], ONE_MINUS_T2, c)
    if p and sum(p) == 0:
        raise AssertionError("fit numerator vanishes at t=1")
    return PoincareSeries(p or [0], c - removed if p else 0, "fit", win)


def _tensor_k_series(m, n, window):
    """Window dims of Ext^i(M,N) (x)_R k, with j-complete windows when the
    target has finite length (then only the i-truncation remains and the
    caller's tail validation covers it).

    The default bounds are those of the degree-0 normalizations of M and N,
    moved by M's lowest generator degree minus N's, as Ext(M, N) moves in
    j; a dmax or jmin in ``window`` is taken as given.
    """
    spec = m.spec
    window = window or {}
    imax = window.get("cmax", 8)
    cx = current().get_or_build(m)
    low_deg, top_deg = _degree_span(cx)
    opcx = build_operator_complex(cx, n)
    nb = opcx.x.nb
    min_n = min((d for d, _c in nb.gens()), default=0)
    shift = low_deg - min_n
    # j <= sum(w) df + max basis degree - min target degree, sum(w) <= i/2
    jmax_required = (imax // 2) * max(spec.df, default=0) + top_deg - min_n
    jmax = max(window.get("dmax", 10 + shift), jmax_required)
    max_n = nb.top_degree()
    if max_n is not None:
        # a target of finite length makes the window complete below too
        jmin = min(window.get("jmin", shift), low_deg - max_n)
        j_complete = True
    else:
        jmin = window.get("jmin", 2 * shift - jmax)
        j_complete = False
    if jmin > jmax:
        raise EmptyWindowError(
            f"fit window is empty: jmin = {jmin} > dmax = {jmax}")
    coeffs = _tensor_k_dims(opcx, imax, jmax, jmin)
    return coeffs, {"cmax": imax, "dmax": jmax, "jmin": jmin,
                    "j_complete": j_complete}


def complexity(m: ModulePresentation, n=None,
               window=None) -> ComplexityResult:
    """cx_R(M, N): Krull dimension of the theta support when N = k (exact),
    pole order of the validated rational fit otherwise."""
    n_is_k = _is_k(n)
    if n_is_k or m.is_residue_field():
        t = compute_t(m.spec)
        dim = _theta_data(m if n_is_k else n, t)[1]
        return ComplexityResult(dim, {"method": "theta-dimension", "t": t})
    series = _pair_series(m, n, window)
    return ComplexityResult(series.cprime,
                            {"method": "rational-fit", **series.window})


def degree_bound(cx, imax: int) -> int:
    """A degree above which Ext^{i,j}_R(M, k) = 0 for i <= imax, cx = F
    resolving M: the symbol (w, b), b in F_p, has i = 2|w| + p and j = sum
    w df + deg b <= top label degree + (imax // 2) max df; plus one max df."""
    return _degree_span(cx)[1] + (imax // 2 + 1) * max(cx.spec.df, default=0)


def is_perfect(m: ModulePresentation) -> bool:
    """True iff pd_R M is finite, i.e. iff the support over k is empty;
    certified by the Betti oracle at imax = n - c + 1 and degree_bound.  A
    finite pd_R M is at most n - c (graded Auslander-Buchsbaum; Kaplansky's
    change of rings over Q of global dimension n) and beta vanishes from
    its first zero on, so beta_{n-c+1} = 0 exactly when pd is finite."""
    _tm, dim, series = _theta_data(m, compute_t(m.spec))
    empty = dim <= 0
    imax = m.spec.n - m.spec.c + 1
    betti = minimal_R_resolution(
        m, imax, degree_bound(current().get_or_build(m), imax))
    pd = betti.projective_dimension()
    if empty and pd is None:
        raise AssertionError(
            "support empty but Betti numbers persist through the window")
    if not empty and pd is not None:
        raise AssertionError(
            f"support nonempty but projective dimension is finite ({pd})")
    if betti.totals() != series.coefficients(imax):
        raise AssertionError(f"oracle totals {betti.totals()} vs {series}")
    return empty


class ArcReport:
    """A verdict with its detail, from Ext tables on internal indices
    ``jmin`` <= j <= ``jmax``."""

    def __init__(self, verdict, detail, jmin, jmax):
        self.verdict = verdict
        self.detail = detail
        self.jmin = jmin
        self.jmax = jmax

    def __repr__(self):
        return f"ArcReport({self.verdict}: {self.detail})"

    def to_json(self):
        return {"verdict": self.verdict, **self.detail}


def _degree_span(cx):
    """(lowest, top) label degree of the resolution cx; (0, 0) for the
    zero module, whose resolution is empty.  The lowest is the lowest
    generator degree of the module cx resolves."""
    degrees = [d for layer in cx.basis for d, _c in layer]
    return (min(degrees), max(degrees)) if degrees else (0, 0)


def arc_check(m: ModulePresentation, r: int, window: int) -> ArcReport:
    """Vanishing criterion for projective dimension.

    Verifies Ext^i(M, M + R) = 0 for r < i <= window, Ext^{r+1}(M, M)
    first.  Ext(M(s), N(s')) is Ext(M, N) moved by s - s' in j, so each
    table is read on |j| <= J = degree_bound(F, window) - s for the
    degree-0 normalization of M, moved by M's lowest generator degree s
    minus the target's.  When it holds, computes pd from the Betti oracle
    at (window, degree_bound(F, window)) and checks both pd <= r and pd =
    sup{i : Ext^i(M,R) != 0} within the window.
    """
    if window <= r:
        raise ValueError("window must exceed r")
    cx = current().get_or_build(m)
    dmax = degree_bound(cx, window)
    shift = _degree_span(cx)[0]
    jmax = dmax - shift
    opcx_m = build_operator_complex(cx, m)
    # Ext^{r+1}(M, M) alone is cheap, and most modules already fail there
    failures = [r + 1] if homology_bigraded(
        opcx_m, r + 1, jmax, imin=r + 1, jmin=-jmax).ext_dim(r + 1) else []
    if not failures:
        free = ModulePresentation.free(m.spec)
        table_m = homology_bigraded(opcx_m, window, jmax, jmin=-jmax)
        table_r = homology_bigraded(build_operator_complex(cx, free), window,
                                    jmax + shift, jmin=shift - jmax)
        failures = [i for i in range(r + 1, window + 1)
                    if table_m.ext_dim(i) or table_r.ext_dim(i)]
    span = (min(0, shift) - jmax, max(0, shift) + jmax)
    if failures:
        return ArcReport("hypothesis not satisfied",
                         {"first_nonvanishing": failures[0],
                          "window": window}, *span)
    pd = minimal_R_resolution(m, window, dmax).projective_dimension()
    if pd is None:
        return ArcReport("fail", {"reason": "oracle Betti numbers persist",
                                  "window": window}, *span)
    ext_r_sup = max((i for i in range(window + 1) if table_r.ext_dim(i)),
                    default=0)
    ok = pd <= r and pd == ext_r_sup
    detail = {"pd": pd, "r": r, "sup_ext_R": ext_r_sup, "window": window}
    return ArcReport("pass" if ok else "fail", detail, *span)
