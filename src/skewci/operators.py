"""Chain-level cohomology operator complexes and their homology.

For a bounded strongly-perfect complex F with strict e-actions and a target
X (a finitely presented module N, or the Koszul algebra itself), the
operator complex is S (x) X with differential

    d(s (x) x) = s (x) d(x) + sum_i chi(f_i, s) chi_i s (x) (lam_i - lam_i') x

where lam_i / lam_i' are the two e_i-multiplications.  Left S-linearity
makes every slice computation reduce to exact linear algebra over the
cyclotomic field, and turns the residue field case into a finite free
complex over the skew chi-ring S = k_q[chi_1..chi_c] (``ext_over_theta``).

Cohomological degree of chi^w (x) x is 2|w| - hdeg(x); the internal index j
used in tables is sum w_i df_i - ideg(x), which for X = Hom(F, k) matches
the (i, j) layout of graded Betti tables.
"""

from __future__ import annotations

from .colorcore import QRing, RingSpec, compositions, standard_monomials
from .koszul import koszul_algebra
from .linalg import Echelon, kernel_basis
from .qgrobner import (
    annihilator_ideal,
    buchberger,
    hilbert_numerator,
    homology_presentation,
    monomial_dimension,
    syzygy_module,
)
from .resolve import KoszulComplex, ModulePresentation
from .scalars import CycScalar
from .sparse import add_scaled, add_term

__all__ = [
    "OperatorComplex",
    "ExtTable",
    "ThetaModule",
    "build_operator_complex",
    "homology_bigraded",
    "braided_hh",
    "ext_over_theta",
    "HHReport",
]


class ModuleBasis:
    """Standard-monomial data for a finitely presented R-module N, the
    target of Hom(F, -)."""

    def __init__(self, module: ModulePresentation):
        self.spec = module.spec
        self.module = module.normalized()
        self.gb = buchberger(self.module.q_relations(), self.spec.qring)
        self._leads = [[] for _ in self.module.gens]
        for (exps, comp), _ in self.gb.leads:
            self._leads[comp].append(exps)
        self._basis_cache = {}
        self._nf_cache = {}

    def gens(self):
        return self.module.gens

    def basis_of_degree(self, d):
        """Standard monomials (exps, comp) of internal degree d."""
        if d in self._basis_cache:
            return self._basis_cache[d]
        out = [(exps, comp)
               for comp, (gd, _c) in enumerate(self.module.gens)
               for exps in standard_monomials(self.spec.qring, d - gd,
                                              self._leads[comp])]
        out.sort()
        self._basis_cache[d] = out
        return out

    def unit_normal_form(self, key):
        """Memoised normal form in N of the unit term key = (exps, comp);
        shared, so callers must not mutate it."""
        nf = self._nf_cache.get(key)
        if nf is None:
            nf, _ = self.gb.normal_form({key: CycScalar.one(self.spec.m)})
            self._nf_cache[key] = nf
        return nf

    def term_normal_form(self, key, coeff):
        """Normal form in N of coeff * key, key = (exps, comp), as a fresh
        dict.

        Reduction is linear and exact, so scaling the memoised normal form
        of the unit term gives the same terms, in the same order, as
        reducing coeff * key itself.
        """
        return {k: v * coeff for k, v in self.unit_normal_form(key).items()}

    def key_color(self, key):
        exps, comp = key
        base = self.module.gens[comp][1]
        mono = self.spec.qring.color(exps)
        return tuple(a + b for a, b in zip(mono, base))


# -- X interfaces -------------------------------------------------------------
# Each interface gives symbols, hx_range (the homological degrees its
# symbols occupy, from which slices enumerate exactly the chi-weights that
# can occur) and parts(xsym) -> (dx, [op_i]): in one call, everything one
# symbol contributes to the operator differential, with op_i = lam_i -
# lam_i' the difference of the two e_i-actions.  The parts are fresh dicts
# without zero entries.  Hom(F, N) also gives x-multiplication, which only
# ``_tensor_k_dims`` uses.

class _HomIntoModule:
    """X = Hom_Q(F, N) for a module N (a ModuleBasis): symbols (p, b, key)
    meaning b* tensor key, of homological degree -p.

    d_N and each e_i^N are zero, so dx and lam_i only precompose and lam_i'
    is zero.
    """

    def __init__(self, cx: KoszulComplex, nbasis):
        self.cx = cx
        self.nb = nbasis
        self.spec = cx.spec
        self.hx_range = (1 - len(cx.basis), 0)
        self._units = _signed_zeta_powers(cx.spec.qring)
        self._key_twists = {}     # key -> _twist_part of its color
        self._label_twists = {}   # (p, b) -> _twist_part of its color

    def symbols(self, hx, idegx):
        # hx = -p; idegx = ideg(key) - ideg(b)
        p = -hx
        if not 0 <= p < len(self.cx.basis):
            return []
        return [(p, b, key) for b, (bd, _bc) in enumerate(self.cx.basis[p])
                for key in self.nb.basis_of_degree(idegx + bd)]

    def _twist_part(self, color, nexps):
        """Exponents linear in a color: chi(color, x_k) C(x_k, x^nexps) for
        each variable k, then chi(f_i, color) for each relation i."""
        ring = self.spec.qring
        n = ring.nvars
        deltas = [tuple(int(j == k) for j in range(n)) for k in range(n)]
        return (tuple(ring.chi_exp(color, d) + ring.cpair_exp(d, nexps)
                      for d in deltas)
                + tuple(ring.chi_exp(cf, color) for cf in self.spec.cf))

    def _twists(self, sym):
        """Integer zeta-exponents t of the twists of sym = (p, b, key).

        A matrix term x^beta picks up chi(sigma, x^beta) C(x^beta, x^nexps)
        = zeta^(t[:n] . beta), and lam_i the factor chi(f_i, sigma) =
        zeta^t[n + i].  Both are linear in sigma = color(key) - color(b),
        so t is a part memoised per key minus one memoised per label b.
        """
        p, b, key = sym
        plus = self._key_twists.get(key)
        if plus is None:
            plus = self._key_twists[key] = self._twist_part(
                self.nb.key_color(key), key[0])
        minus = self._label_twists.get((p, b))
        if minus is None:
            minus = self._label_twists[(p, b)] = self._twist_part(
                self.cx.basis[p][b][1], self.spec.qring.zero_exp())
        return tuple(x - y for x, y in zip(plus, minus))

    def parts(self, sym):
        """(dx, [lam_i]) of sym = (p, b, key), of degree |alpha| = -p:
        d(alpha) = -(-1)^{|alpha|} alpha o dF and lam_i alpha =
        (-1)^{|alpha|} chi(f_i, sigma) alpha o e_i."""
        p = sym[0]
        cx = self.cx
        t = self._twists(sym)
        dx = {}
        if p + 1 < len(cx.basis) and cx.diff[p + 1] is not None:
            dx = self._compose(sym, t, p + 1, None, p % 2 == 0)
        ops = [self._compose(sym, t, p - 1, i, p % 2 == 1)
               if p and cx.eact[i][p - 1] else {}
               for i in range(self.spec.c)]
        return dx, ops

    def _compose(self, sym, t, h, i, negate):
        """(-1)^negate alpha o M, as a dict of symbols, for M: F_h -> F_p
        either diff[h] (i None) or chi(f_i, sigma) eact[i][h]; t is
        ``_twists(sym)``."""
        p, b, (nexps, comp) = sym
        e0 = 0 if i is None else t[self.spec.n + i]
        units = self._units[negate]
        m = len(units)
        unit_nf = self.nb.unit_normal_form
        out = {}
        for col, exps, c in self.cx.rows(h, i).get(b, ()):
            # value entry * key, reduced in the target
            nf = unit_nf((tuple(a + e for a, e in zip(exps, nexps)), comp))
            if not nf:
                continue
            # zip stops at len(exps) = n
            e = e0 + sum(r * x for r, x in zip(t, exps) if x)
            scal = c * units[e % m]
            for k2, c2 in nf.items():
                add_term(out, (h, col, k2), c2 * scal)
        return out

    def xmul(self, l, sym):
        p, b, key = sym
        delta = tuple(1 if k == l else 0 for k in range(self.spec.n))
        ring = self.spec.qring
        nf = self.nb.term_normal_form(
            (tuple(a + e for a, e in zip(delta, key[0])), key[1]),
            ring.cpair(delta, key[0]))
        return {(p, b, k2): c2 for k2, c2 in nf.items()}


class _SelfE:
    """X = E with the diagonal E^e-action.

    A symbol is a basis term u = x^alpha e_S (S a bitmask), and every
    operator below sends it to single terms times +-zeta^e.  Each twist is
    summed as an integer exponent in the product conventions of
    ``koszul.DGAlgebra`` (uv = (-1)^{|u||v|} chi(u, v) vu, odd generators
    ascending, x^a x^b = C(a, b) x^(a+b)).  The variables have unit
    colors, so the color of x^alpha is alpha itself.
    """

    def __init__(self, spec: RingSpec):
        self.spec = spec
        self.ctx = koszul_algebra(spec)
        self.hx_range = (0, self.ctx.nodd)
        ring = spec.qring
        # _ff[i][s]: exponent of chi(f_i, f_s), the twist of e_i past e_s
        self._ff = [[ring.chi_exp(fi, fs) for fs in spec.cf] for fi in spec.cf]
        self._units = _signed_zeta_powers(ring)
        # _bits[S]: the indices in the bitmask S, ascending
        self._bits = [[s for s in range(spec.c) if mask >> s & 1]
                      for mask in range(1 << spec.c)]

    def symbols(self, hx, idegx):
        return [ (exps, smask) for (exps, smask, _h)
                 in self.ctx.basis_slice(hx, idegx) ]

    def _unit(self, flips, e):
        """(-1)^flips zeta^e."""
        units = self._units[flips % 2]
        return units[e % len(units)]

    def parts(self, sym):
        """(dx, [lam_i - lamp_i]) of u = sym."""
        # d(u) = sum_l (-1)^l chi(e_{s_0}..e_{s_l-1}, f_{s_l})
        #        x^alpha f_{s_l} e_{S - s_l}, x^a x^b = C(a, b) x^(a+b)
        exps, smask = sym
        ring = self.spec.qring
        bits = self._bits[smask]
        dx = {}
        for l, s in enumerate(bits):
            e = sum(self._ff[r][s] for r in bits[:l])
            rest = smask & ~(1 << s)
            for beta, c in self.spec.relations[s].items():
                unit = self._unit(l, e + ring.cpair_exp(exps, beta))
                dx[(tuple(a + b for a, b in zip(exps, beta)), rest)] = \
                    unit if c.is_one() else c * unit
        ops = []
        for i in range(self.spec.c):
            op = self.lam(i, sym)
            for xk, c in self.lamp(i, sym).items():
                add_term(op, xk, -c)
            ops.append(op)
        return dx, ops

    def lam(self, i, sym):
        # (1 (x) e_i) . u = (-1)^{|u|} chi(f_i, u) u e_i, and moving e_i
        # left past each e_s, s > i, gives
        # u e_i = (-1)^#{s > i} prod_{s > i} chi(f_s, f_i) x^alpha e_{S+i}
        exps, smask = sym
        if smask >> i & 1:
            return {}
        ff = self._ff
        inside = self._bits[smask]
        above = [s for s in inside if s > i]
        e = (self.spec.qring.chi_exp(self.spec.cf[i], exps)
             + sum(ff[i][s] for s in inside) + sum(ff[s][i] for s in above))
        return {(exps, smask | 1 << i): self._unit(len(inside) + len(above),
                                                   e)}

    def lamp(self, i, sym):
        # (e_i (x) 1) . u = e_i u
        #   = (-1)^#{s < i} chi(f_i, x^alpha) prod_{s < i} chi(f_i, f_s)
        #     x^alpha e_{S+i}
        exps, smask = sym
        if smask >> i & 1:
            return {}
        below = [s for s in self._bits[smask] if s < i]
        e = (self.spec.qring.chi_exp(self.spec.cf[i], exps)
             + sum(self._ff[i][s] for s in below))
        return {(exps, smask | 1 << i): self._unit(len(below), e)}


def _signed_zeta_powers(ring):
    """([zeta^k], [-zeta^k]) for k < m, indexed by a sign flag."""
    plus = [ring.zeta_pow(k) for k in range(ring.m)]
    return plus, [-z for z in plus]


class OperatorComplex:
    """S (x) X with the operator differential, sliced by bidegree.

    Symbols are (w, xsym) with w the chi-multiindex; cohomological degree
    is 2|w| - hdeg(xsym) and the internal index is sum w df - ideg(xsym).

    Only a zeta-power depends on w, so the X-parts of the differential
    (``parts``: dx and each lam_i - lam_i') are computed once per X-symbol
    and the w-scalars once per (operator, w); both memos belong to this
    instance.  ``homology_bigraded`` drops the X-parts it computed once no
    later internal index uses them.
    """

    def __init__(self, spec: RingSpec, xiface, description):
        self.spec = spec
        self.x = xiface
        self.description = description
        self._xparts = {}    # xsym -> (dx, [lam_i - lamp_i for each i])
        self._scalars = {}   # (kind, i, w) -> zeta-power, None when it is 1

    def slice_symbols(self, i, j):
        """All symbols at cohomological degree i, internal index j."""
        spec = self.spec
        lo, hi = self.x.hx_range
        out = []
        xsyms = {}
        # hx = 2|w| - i must lie in the X-part's homological range
        for size in range(max(0, (i + lo + 1) // 2), (i + hi) // 2 + 1):
            for w in compositions(spec.c, size):
                key = (2 * size - i,
                       sum(a * d for a, d in zip(w, spec.df)) - j)
                if key not in xsyms:
                    xsyms[key] = self.x.symbols(*key)
                out.extend((w, xsym) for xsym in xsyms[key])
        return sorted(out)

    def _xpart(self, xsym):
        """The memoised ``parts`` of one X-symbol; shared, so callers must
        not mutate it."""
        part = self._xparts.get(xsym)
        if part is None:
            part = self._xparts[xsym] = self.x.parts(xsym)
        return part

    def _w_scalar(self, kind, i, w):
        """The zeta-power chi^w picks up under an operator, None if it is 1.

        kind "d": the chi_i term of the differential, prod_{t>i}
        chi(f_t, f_i)^w_t; "x": x_i moved past chi^w, prod_t
        chi(f_t, e_i)^w_t, since chi^w has color -sum_t w_t cf_t.
        """
        key = (kind, i, w)
        if key in self._scalars:
            return self._scalars[key]
        spec = self.spec
        ring = spec.qring
        cf = spec.cf
        if kind == "d":
            e = sum(w[t] * ring.chi_exp(cf[t], cf[i])
                    for t in range(i + 1, spec.c) if w[t])
        else:
            el = tuple(1 if k == i else 0 for k in range(spec.n))
            e = sum(w[t] * ring.chi_exp(cf[t], el)
                    for t in range(spec.c) if w[t])
        scal = ring.zeta_pow(e) if e % spec.m else None
        self._scalars[key] = scal
        return scal

    def _column(self, sym, index, l=None):
        """The column of d (l None) or of left multiplication by x_l (an X
        with ``xmul``; (i, j) -> (i, j - d_l)) on sym, as a fresh
        {position: scalar} in the target slice, whose symbols index maps to
        their positions.  A term outside that slice is an error."""
        w, xsym = sym
        if l is None:
            dx, ops = self._xpart(xsym)
            # distinct i give distinct w2, so no two parts share a position
            pieces = [(w, dx, None)] + [
                (w[:i] + (w[i] + 1,) + w[i + 1:], op,
                 self._w_scalar("d", i, w))
                for i, op in enumerate(ops) if op]
        else:
            pieces = [(w, self.x.xmul(l, xsym), self._w_scalar("x", l, w))]
        out = {}
        for w2, part, scal in pieces:
            for xk, c in part.items():
                idx = index.get((w2, xk))
                if idx is None:
                    raise AssertionError(
                        f"map escapes the enumerated slice: {(w2, xk)}")
                out[idx] = c if scal is None else c * scal
        return out


def build_operator_complex(resolution, target) -> OperatorComplex:
    """The operator complex for Hom(F, target), or S (x) E for "self-E".

    ``resolution`` is a KoszulComplex that passes ``certify`` (refused with
    ValueError otherwise): one built or loaded by the store already holds
    its certificate, any other complex is certified here, once.
    ``target`` is a ModulePresentation or "self-E" (in which case
    ``resolution`` may be a RingSpec); anything else is a TypeError.
    """
    if target == "self-E":
        spec = resolution if isinstance(resolution, RingSpec) \
            else resolution.spec
        return OperatorComplex(spec, _SelfE(spec), "self-E")
    if not isinstance(target, ModulePresentation):
        raise TypeError(f"unsupported target {target!r}")
    cx = resolution
    errors = cx.certify()
    if errors:
        raise ValueError(f"uncertified resolution refused: {errors[:3]}")
    iface = _HomIntoModule(cx, ModuleBasis(target))
    return OperatorComplex(cx.spec, iface, f"Hom(F,{target.name})")


# -- bigraded homology --------------------------------------------------------

class ExtTable:
    """Exact bigraded dimensions {(i, j): dim H} and the window they span."""

    def __init__(self, dims, window):
        self.dims = dims                  # (i, j) -> dim
        self.window = window

    def dim(self, i, j):
        return self.dims.get((i, j), 0)

    def ext_dim(self, i):
        return sum(v for (ii, _j), v in self.dims.items() if ii == i)

    def ext_dims(self, imax):
        return [self.ext_dim(i) for i in range(imax + 1)]

    def to_json(self):
        return {
            "window": self.window,
            "dims": [[i, j, v] for (i, j), v in sorted(self.dims.items())
                     if v],
        }


def homology_bigraded(opcx: OperatorComplex, imax, jmax, imin=0,
                      jmin=0) -> ExtTable:
    """Exact dims of H in the (cohomological, internal) window, from ranks.

    dim H(i, j) = #cols - rank d(i, j) - rank d(i-1, j): for each j, i runs
    upward, the columns of d(i, j) go into one untracked elimination as
    they are built, and only the next slice's symbols and the previous
    rank are kept.  An X-symbol of key (hx, idegx) occurs only at
    j = w df - idegx with 2|w| - hx <= imax, so each X-part this call
    computes is dropped from the complex's memo once j passes
    ((imax + hx) // 2) * max(df) - idegx.  Memory is one slice plus the
    X-parts that a later j still uses; each X-part is computed once.
    """
    spec = opcx.spec
    dfmax = max(spec.df, default=0)
    parts = opcx._xparts
    expiry = {}     # last j that uses them -> X-symbols computed here
    dims = {}
    for j in range(jmin, jmax + 1):
        syms = opcx.slice_symbols(imin - 1, j)
        prev_rank = 0
        for i in range(imin - 1, imax + 1):
            for w, xsym in syms:
                if xsym not in parts:
                    hx = 2 * sum(w) - i
                    idegx = sum(a * d for a, d in zip(w, spec.df)) - j
                    last = (imax + hx) // 2 * dfmax - idegx
                    expiry.setdefault(min(last, jmax), set()).add(xsym)
            nxt = opcx.slice_symbols(i + 1, j)
            index = {sym: idx for idx, sym in enumerate(nxt)}
            ech = Echelon()
            for sym in syms:
                col = opcx._column(sym, index)
                if col:
                    ech.add(col)
            if i >= imin:
                d = len(syms) - ech.rank - prev_rank
                if d < 0:
                    raise AssertionError(f"negative homology dim at {(i, j)}")
                dims[(i, j)] = d
            prev_rank = ech.rank
            syms = nxt
        for xsym in expiry.pop(j, ()):
            del parts[xsym]
    window = {"imin": imin, "imax": imax, "jmin": jmin, "jmax": jmax}
    return ExtTable(dims, window)


def _tensor_k_dims(opcx: OperatorComplex, imax, jmax, jmin):
    """[dim H^i / (x_1..x_n) H^i for i = 0..imax] over the internal window
    [jmin, jmax], from ranks alone: for X = Hom(F, N) this is
    dim Ext^i(M, N) (x)_R k.

    i runs upward holding the slices of two cohomological degrees.  At
    each i, j runs downward, and one untracked elimination per slice
    takes B(i, j) = im d(i-1, j), then the x_l-images of the classes kept
    at (i, j + deg x_l), then the kernel of d(i, j).  Each x_l is a chain
    map, so the images are cycles and the kernel vectors that still give
    a pivot count dim (H/xH)(i, j); the images and kernel vectors that
    gave a pivot represent a basis of H(i, j), which the lower j map by
    x.  Classes outside [jmin, jmax] are not counted.
    """
    spec = opcx.spec
    one = CycScalar.one(spec.m)
    js = range(jmax, jmin - 1, -1)
    syms = {j: opcx.slice_symbols(0, j) for j in js}
    index = {j: {sym: idx for idx, sym in enumerate(syms[j])} for j in js}
    bounds = {j: [opcx._column(sym, index[j])
                  for sym in opcx.slice_symbols(-1, j)] for j in js}
    out = []
    for i in range(imax + 1):
        nxt = {j: opcx.slice_symbols(i + 1, j) for j in js}
        nxt_index = {j: {sym: idx for idx, sym in enumerate(nxt[j])}
                     for j in js}
        cols = {j: [opcx._column(sym, nxt_index[j]) for sym in syms[j]]
                for j in js}
        reps = {}
        total = 0
        for j in js:
            ech = Echelon()
            for col in bounds[j]:
                if col:
                    ech.add(col)
            kept = []
            for l, deg in enumerate(spec.degrees):
                for rep in reps.get(j + deg, ()):
                    image = {}
                    for idx, c in rep.items():
                        add_scaled(image, opcx._column(
                            syms[j + deg][idx], index[j], l), c)
                    if image and ech.add(image)[0] is not None:
                        kept.append(image)
            for kv in kernel_basis(cols[j], one):
                if ech.add(kv)[0] is not None:
                    kept.append(kv)
                    total += 1
            reps[j] = kept
        out.append(total)
        syms, index, bounds = nxt, nxt_index, cols
    return out


# -- braided Hochschild cohomology --------------------------------------------

class HHReport:
    def __init__(self, ok, mismatches, dims, window):
        self.ok = ok
        self.mismatches = mismatches
        self.dims = dims
        self.window = window

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {
            "ok": self.ok,
            "window": self.window,
            "mismatches": [list(x) for x in self.mismatches],
            "dims": [[i, j, v] for (i, j), v in sorted(self.dims.items())
                     if v],
        }


def braided_hh(spec: RingSpec, cmax: int, dmax: int) -> HHReport:
    """Compare H of the self-operator complex against R[chi_1..chi_c].

    The expected bigraded dimension at (i, j) is the number of pairs
    (w, monomial of R) with 2|w| = i and deg = sum w df - j.
    """
    opcx = build_operator_complex(spec, "self-E")
    jmax = (cmax // 2 + spec.c) * max(spec.df, default=0)
    jmin = -dmax
    imin = -spec.c
    table = homology_bigraded(opcx, cmax, jmax, imin=imin, jmin=jmin)
    rcut = jmax + dmax
    rdims = spec.hilbert_dims(rcut)
    mismatches = []
    for i in range(imin, cmax + 1):
        for j in range(jmin, jmax + 1):
            got = table.dim(i, j)
            expected = 0
            if i >= 0 and i % 2 == 0:
                for w in compositions(spec.c, i // 2):
                    d = sum(a * b for a, b in zip(w, spec.df)) - j
                    if 0 <= d <= rcut:
                        expected += rdims[d]
            if got != expected:
                mismatches.append((i, j, got, expected))
    return HHReport(not mismatches, mismatches, table.dims,
                    {"cmax": cmax, "dmax": dmax})


# -- Ext(M, k) over the skew chi-ring -----------------------------------------

def _chi_ring(spec):
    """The skew operator ring S = k_q[chi_1..chi_c], chi_i of degree 2.

    chi_j chi_i = chi(f_j, f_i) chi_i chi_j, so its reordering scalar
    C(chi^w, chi_i) is the "d" twist of ``OperatorComplex._w_scalar`` and the
    operator differential is left S-linear.
    """
    c = spec.c
    ring = spec.qring
    return QRing(spec.m, tuple(f"chi{i+1}" for i in range(c)), (2,) * c,
                 [[ring.chi_exp(fj, fi) for fi in spec.cf] for fj in spec.cf])


class ThetaModule:
    """Ext_R(M, k) as a finitely presented graded left module over the skew
    chi-ring S (``_chi_ring``).

    Generators carry cohomological degrees; chi_i has degree 2.  The
    support is read in the commutative subring k[theta_i = chi_i^t]
    (``support``), over which S is free of rank t^c; t is not needed here.
    """

    def __init__(self, spec, gen_degs, columns):
        self.spec = spec
        self.gen_degs = list(gen_degs)
        self.columns = [dict(c) for c in columns]
        self.ring = _chi_ring(spec)

    def annihilator(self):
        """The left ideal of S killing every generator, as a reduced
        Groebner basis."""
        return annihilator_ideal(self.columns, len(self.gen_degs), self.ring)

    def groebner_leads(self):
        if not self.columns:
            return []
        gb = buchberger(self.columns, self.ring)
        return [m for m, _ in gb.leads]

    def dimension(self):
        """Krull dimension of the module (max over components of LT dims)."""
        if not self.gen_degs:
            return -1
        leads = self.groebner_leads()
        best = -1
        for comp in range(len(self.gen_degs)):
            exps = [e for (e, c) in leads if c == comp]
            best = max(best, monomial_dimension(exps, self.spec.c))
        return best

    def hilbert_numerator(self):
        """Numerator over (1 - u^2)^c of the cohomological Hilbert series."""
        leads = self.groebner_leads()
        out = {}
        for comp, d in enumerate(self.gen_degs):
            exps = [e for (e, c) in leads if c == comp]
            num = hilbert_numerator(exps, self.ring.degs)
            for deg, v in num.items():
                out[deg + d] = out.get(deg + d, 0) + v
        return {k: v for k, v in out.items() if v}


def ext_over_theta(resolution: KoszulComplex) -> ThetaModule:
    """Presentation of H(E_{F,k}) = Ext_R(M, k) over the chi-ring S.

    The operator complex of Hom(F, k) is the free S-module on the X-symbols
    with a left S-linear differential: the column of x is dx at chi^0 plus
    lam_i - lam_i' at chi_i, read from the complex's X-parts, so it shares
    every convention of ``ext``.  Its homology is presented by syzygies over
    S and minimalized.
    """
    spec = resolution.spec
    sring = _chi_ring(spec)
    x = _HomIntoModule(resolution,
                       ModuleBasis(ModulePresentation.residue_field(spec)))
    opcx = OperatorComplex(spec, x, "Hom(F,k)")
    xsyms = sorted(sym for p, layer in enumerate(resolution.basis)
                   for bd in {d for d, _c in layer}
                   for sym in x.symbols(-p, -bd))
    xindex = {xsym: i for i, xsym in enumerate(xsyms)}
    zero = sring.zero_exp()
    chis = [zero[:i] + (1,) + zero[i + 1:] for i in range(spec.c)]
    columns = []
    for xsym in xsyms:
        dx, ops = opcx._xpart(xsym)
        col = {(zero, xindex[xk]): c for xk, c in dx.items()}
        for chi_i, op in zip(chis, ops):
            for xk, c in op.items():
                col[(chi_i, xindex[xk])] = c
        columns.append(col)
    kergens = syzygy_module(columns, sring)   # in canonical order
    h_degs = []
    for kg in kergens:
        # the symbol (p, b, key) has homological degree -p
        degs = {sring.deg(e) + xsyms[c][0] for (e, c) in kg}
        if len(degs) != 1:
            raise AssertionError("inhomogeneous kernel generator")
        h_degs.append(degs.pop())
    kept, cols, _ = homology_presentation(kergens, columns, sring)
    remap = {old: new for new, old in enumerate(kept)}
    return ThetaModule(spec, [h_degs[k] for k in kept],
                       [{(e, remap[c]): v for (e, c), v in col.items()}
                        for col in cols])

