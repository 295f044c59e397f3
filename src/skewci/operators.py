"""Chain-level cohomology operator complexes and their homology.

For a bounded strongly-perfect complex F with strict e-actions and a target
X (a finitely presented module N, a second complex G, or the Koszul algebra
itself), the operator complex is S (x) X with differential

    d(s (x) x) = s (x) d(x) + sum_i chi(f_i, s) chi_i s (x) (lam_i - lam_i') x

where lam_i / lam_i' are the two e_i-multiplications.  Left S-linearity
makes every slice computation reduce to exact linear algebra over the
cyclotomic field; restriction along k[theta_i = chi_i^t] turns the residue
field case into a finite free complex over a commutative polynomial ring.

Cohomological degree of chi^w (x) x is 2|w| - hdeg(x); the internal index j
used in tables is sum w_i df_i - ideg(x), which for X = Hom(F, k) matches
the (i, j) layout of graded Betti tables.
"""

from __future__ import annotations

import itertools

from .colorcore import RingSpec, monomials_of_degree, standard_monomials
from .koszul import koszul_algebra
from .linalg import Echelon, kernel_basis, rank
from .qgrobner import (
    buchberger,
    hilbert_numerator,
    minimalize_presentation,
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
    """Standard-monomial data for a finitely presented R-module N, as a
    Hom(F, -) target with one homological layer."""

    top = 0

    def __init__(self, module: ModulePresentation):
        self.spec = module.spec
        self.module = module.normalized()
        spec = self.spec
        ring = spec.qring
        cols = [dict(c) for c in self.module.relations]
        for f in spec.relations:
            for g in range(len(self.module.gens)):
                cols.append({(e, g): c for e, c in f.terms.items()})
        self.gb = buchberger(cols, ring)
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

    def key_ideg(self, key):
        exps, comp = key
        return self.spec.qring.deg(exps) + self.module.gens[comp][0]

    def key_layer(self, key):
        return 0


class ComplexBasis:
    """A complex G of free Q-modules as a Hom(F, -) target.

    Keys are (gamma, g) meaning x^gamma g, where g numbers the labels of
    every layer of G in turn; they are already normal forms.
    """

    def __init__(self, cx: KoszulComplex):
        self.cx = cx
        self.spec = cx.spec
        self.top = len(cx.basis) - 1
        self.labels = [(h, b) for h, layer in enumerate(cx.basis)
                       for b in range(len(layer))]
        self._index = {label: g for g, label in enumerate(self.labels)}
        self._basis_cache = {}

    def _label(self, g):
        h, b = self.labels[g]
        return self.cx.basis[h][b]

    def basis_of_degree(self, d):
        """Keys (gamma, g) of internal degree d, sorted."""
        if d in self._basis_cache:
            return self._basis_cache[d]
        ring = self.spec.qring
        out = sorted((gamma, g) for g in range(len(self.labels))
                     for gamma in monomials_of_degree(
                         ring, d - self._label(g)[0]))
        self._basis_cache[d] = out
        return out

    def unit_normal_form(self, key):
        return {key: CycScalar.one(self.spec.m)}

    def term_normal_form(self, key, coeff):
        return {key: coeff}

    def key_color(self, key):
        gamma, g = key
        mono = self.spec.qring.color(gamma)
        return tuple(a + b for a, b in zip(mono, self._label(g)[1]))

    def key_ideg(self, key):
        gamma, g = key
        return self.spec.qring.deg(gamma) + self._label(g)[0]

    def key_layer(self, key):
        return self.labels[key[1]][0]

    def apply_map(self, key, i):
        """d_G (i None) or e_i^G applied to x^gamma g, which twists by
        chi(f_i, gamma), as {key: scalar}."""
        gamma, g = key
        h, b = self.labels[g]
        cx = self.cx
        if i is None:
            h2, color = h - 1, None
            matrix = cx.diff[h] if h else None
        else:
            h2, color = h + 1, self.spec.cf[i]
            matrix = cx.eact[i][h] if h < self.top else None
        if not matrix:
            return {}
        out = cx.apply_matrix(matrix, color,
                              {(gamma, b): CycScalar.one(self.spec.m)})
        return {(exps, self._index[(h2, row)]): c
                for (exps, row), c in out.items()}


# -- X interfaces -------------------------------------------------------------
# Each interface gives symbols, their degrees, dx, the two e-actions lam and
# lamp, x-multiplication, and hx_range: the homological degrees its symbols
# occupy, from which slices enumerate exactly the chi-weights that can occur.

class _HomIntoModule:
    """X = Hom_Q(F, T): symbols (p, b, key) meaning b* tensor key.

    The target T is a ModuleBasis (a module N in layer 0) or a
    ComplexBasis (a complex G in layers 0..top); a symbol has homological
    degree layer(key) - p.  A target with top 0 has no maps: d_T and each
    e_i^T are zero.
    """

    def __init__(self, cx: KoszulComplex, nbasis):
        self.cx = cx
        self.nb = nbasis
        self.spec = cx.spec
        self.hx_range = (1 - len(cx.basis), nbasis.top)
        self._units = _signed_zeta_powers(cx.spec.qring)
        self._key_twists = {}     # key -> _twist_part of its color
        self._label_twists = {}   # (p, b) -> _twist_part of its color

    def symbols(self, hx, idegx):
        # hx = layer(key) - p; idegx = ideg(key) - ideg(b)
        nb = self.nb
        out = []
        for p, labels in enumerate(self.cx.basis):
            if not 0 <= hx + p <= nb.top:
                continue
            for b, (bd, _bc) in enumerate(labels):
                out.extend((p, b, key)
                           for key in nb.basis_of_degree(idegx + bd)
                           if nb.key_layer(key) == hx + p)
        return out

    def hdeg(self, sym):
        return self.nb.key_layer(sym[2]) - sym[0]

    def ideg(self, sym):
        p, b, key = sym
        return self.nb.key_ideg(key) - self.cx.basis[p][b][0]

    def _sigma(self, sym):
        p, b, key = sym
        bc = self.cx.basis[p][b][1]
        nc = self.nb.key_color(key)
        return tuple(a - v for a, v in zip(nc, bc))

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

    def _compose(self, sym, h, i, negate):
        """(-1)^negate alpha o M, as a dict of symbols, for M: F_h -> F_p
        either diff[h] (i None) or chi(f_i, sigma) eact[i][h]."""
        p, b, (nexps, comp) = sym
        t = self._twists(sym)
        e0 = 0 if i is None else t[self.spec.n + i]
        units = self._units[negate]
        m = len(units)
        unit_nf = self.nb.unit_normal_form
        out = {}
        for col, poly in self.cx.rows(h, i).get(b, ()):
            for exps, c in poly.items():
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

    def _postcompose(self, sym, i):
        """d_T o alpha (i None) or e_i^T o alpha."""
        if not self.nb.top:
            return {}
        p, b, key = sym
        return {(p, b, k2): c for k2, c in self.nb.apply_map(key, i).items()}

    def dx(self, sym):
        # d(alpha) = d_T o alpha - (-1)^{|alpha|} alpha o dF
        p = sym[0]
        out = {}
        if p + 1 < len(self.cx.basis) and self.cx.diff[p + 1] is not None:
            out = self._compose(sym, p + 1, None, self.hdeg(sym) % 2 == 0)
        add_scaled(out, self._postcompose(sym, None))
        return out

    def lam(self, i, sym):
        p = sym[0]
        if p - 1 < 0 or not self.cx.eact[i][p - 1]:
            return {}
        # (-1)^{|alpha|} chi(f_i, sigma) alpha o e_i
        return self._compose(sym, p - 1, i, self.hdeg(sym) % 2 == 1)

    def lamp(self, i, sym):
        return self._postcompose(sym, i)

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

    def hdeg(self, sym):
        return bin(sym[1]).count("1")

    def ideg(self, sym):
        return self.ctx.term_ideg((sym[0], sym[1], ()))

    def _unit(self, flips, e):
        """(-1)^flips zeta^e."""
        units = self._units[flips % 2]
        return units[e % len(units)]

    def dx(self, sym):
        # d(u) = sum_l (-1)^l chi(e_{s_0}..e_{s_l-1}, f_{s_l})
        #        x^alpha f_{s_l} e_{S - s_l}, x^a x^b = C(a, b) x^(a+b)
        exps, smask = sym
        ring = self.spec.qring
        bits = self._bits[smask]
        out = {}
        for l, s in enumerate(bits):
            e = sum(self._ff[r][s] for r in bits[:l])
            rest = smask & ~(1 << s)
            for beta, c in self.spec.relations[s].terms.items():
                unit = self._unit(l, e + ring.cpair_exp(exps, beta))
                out[(tuple(a + b for a, b in zip(exps, beta)), rest)] = \
                    unit if c.is_one() else c * unit
        return out

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

    def xmul(self, l, sym):
        # x_l u = C(delta_l, alpha) x^(alpha+delta_l) e_S
        exps, smask = sym
        delta = tuple(1 if k == l else 0 for k in range(self.spec.n))
        e = self.spec.qring.cpair_exp(delta, exps)
        return {(tuple(a + d for a, d in zip(exps, delta)), smask):
                self._unit(0, e)}


def _signed_zeta_powers(ring):
    """([zeta^k], [-zeta^k]) for k < m, indexed by a sign flag."""
    plus = [ring.zeta_pow(k) for k in range(ring.m)]
    return plus, [-z for z in plus]


class OperatorComplex:
    """S (x) X with the operator differential, sliced by bidegree.

    Symbols are (w, xsym) with w the chi-multiindex; cohomological degree
    is 2|w| - hdeg(xsym) and the internal index is sum w df - ideg(xsym).

    Only a zeta-power depends on w, so the X-parts of the differential
    (dx and each lam_i - lam_i') are computed once per X-symbol and the
    w-scalars once per (operator, w); both memos belong to this instance.
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
            for w in _chi_weights(spec.c, size):
                key = (2 * size - i,
                       sum(a * d for a, d in zip(w, spec.df)) - j)
                if key not in xsyms:
                    xsyms[key] = self.x.symbols(*key)
                out.extend((w, xsym) for xsym in xsyms[key])
        return sorted(out)

    def _xpart(self, xsym):
        """(dx, [lam_i - lam_i' for each i]) of one X-symbol, zeros dropped."""
        part = self._xparts.get(xsym)
        if part is None:
            # every X interface returns fresh dicts without zero entries
            dx = self.x.dx(xsym)
            ops = []
            for i in range(self.spec.c):
                op = self.x.lam(i, xsym)
                for xk, c in self.x.lamp(i, xsym).items():
                    add_term(op, xk, -c)
                ops.append(op)
            part = self._xparts[xsym] = (dx, ops)
        return part

    def _w_scalar(self, kind, i, w):
        """The zeta-power chi^w picks up under an operator, None if it is 1.

        kind "d": the chi_i term of the differential, prod_{t>i}
        chi(f_t, f_i)^w_t; "chi": left chi_i-multiplication, prod_{t<i}
        chi(f_i, f_t)^w_t; "x": x_i moved past chi^w, prod_t
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
        elif kind == "chi":
            e = sum(w[t] * ring.chi_exp(cf[i], cf[t]) for t in range(i) if w[t])
        else:
            el = tuple(1 if k == i else 0 for k in range(spec.n))
            e = sum(w[t] * ring.chi_exp(cf[t], el)
                    for t in range(spec.c) if w[t])
        scal = ring.zeta_pow(e) if e % spec.m else None
        self._scalars[key] = scal
        return scal

    def differential(self, sym):
        """d(sym) as {symbol: scalar}, landing in (i+1, j); a fresh dict."""
        w, xsym = sym
        dx, ops = self._xpart(xsym)
        out = {(w, xk): c for xk, c in dx.items()}
        for i, op in enumerate(ops):
            if not op:
                continue
            # distinct i give distinct w2, so no two parts share a key
            w2 = w[:i] + (w[i] + 1,) + w[i + 1:]
            scal = self._w_scalar("d", i, w)
            for xk, c in op.items():
                out[(w2, xk)] = c if scal is None else c * scal
        return out

    def chi_action(self, i, sym):
        """Left multiplication by chi_i: (i,j) -> (i+2, j+df_i)."""
        w, xsym = sym
        scal = self._w_scalar("chi", i, w) or CycScalar.one(self.spec.m)
        return {(w[:i] + (w[i] + 1,) + w[i + 1:], xsym): scal}

    def x_action(self, l, sym):
        """Left multiplication by x_l: (i,j) -> (i, j - d_l)."""
        w, xsym = sym
        scal = self._w_scalar("x", l, w)
        out = {}
        for xk, c in self.x.xmul(l, xsym).items():
            add_term(out, (w, xk), c if scal is None else c * scal)
        return out


def _chi_weights(c, total):
    """All w in N^c with |w| = total."""
    if c == 0:
        return [()] if total == 0 else []
    return [(e,) + rest for e in range(total + 1)
            for rest in _chi_weights(c - 1, total - e)]


def build_operator_complex(resolution, target) -> OperatorComplex:
    """The operator complex for Hom(F, target), or S (x) E for "self-E".

    ``resolution`` is a certified KoszulComplex (refused otherwise);
    ``target`` is a ModulePresentation, another KoszulComplex, or "self-E"
    (in which case ``resolution`` may be a RingSpec).
    """
    if target == "self-E":
        spec = resolution if isinstance(resolution, RingSpec) \
            else resolution.spec
        return OperatorComplex(spec, _SelfE(spec), "self-E")
    cx = resolution
    errors = cx.verify_invariants()
    if errors:
        raise ValueError(f"non-strict resolution refused: {errors[:3]}")
    if isinstance(target, ModulePresentation):
        iface = _HomIntoModule(cx, ModuleBasis(target))
        return OperatorComplex(cx.spec, iface, f"Hom(F,{target.name})")
    if isinstance(target, KoszulComplex):
        iface = _HomIntoModule(cx, ComplexBasis(target))
        return OperatorComplex(cx.spec, iface, "Hom(F,G)")
    raise TypeError(f"unsupported target {target!r}")


# -- bigraded homology --------------------------------------------------------

class ExtTable:
    """Exact bigraded dimensions with operator action matrices.

    An action matrix on the classes at (i, j) is {"target": (i', j'),
    "columns": [{row: scalar}, one sparse column per source class]}; its
    row count is dims[target].
    """

    def __init__(self, dims, chi_actions, x_actions, window):
        self.dims = dims                  # (i, j) -> dim
        self.chi_actions = chi_actions    # "chi<i>" -> (i, j) -> matrix
        self.x_actions = x_actions        # [l] -> (i, j) -> matrix
        self.window = window

    def dim(self, i, j):
        return self.dims.get((i, j), 0)

    def ext_dim(self, i):
        return sum(v for (ii, _j), v in self.dims.items() if ii == i)

    def ext_dims(self, imax):
        return [self.ext_dim(i) for i in range(imax + 1)]

    def tensor_k_dim(self, i):
        """dim of Ext^i (x)_R k inside the window."""
        total = 0
        for (ii, j), d in self.dims.items():
            if ii != i:
                continue
            ech = Echelon()
            for table in self.x_actions:
                for mat in table.values():
                    if mat["target"] == (i, j):
                        for colvec in mat["columns"]:
                            if colvec:
                                ech.add(dict(colvec))
            total += d - ech.rank
        return total

    def to_json(self):
        out = {
            "window": self.window,
            "dims": [[i, j, v] for (i, j), v in sorted(self.dims.items())
                     if v],
        }
        acts = {}
        for name, table in (self.chi_actions or {}).items():
            acts[name] = [
                [list(src), mat["target"],
                 [[col[r].to_string() if r in col else "0"
                   for col in mat["columns"]]
                  for r in range(self.dims[mat["target"]])]]
                for src, mat in sorted(table.items())
            ]
        out["actions"] = acts
        return out


def homology_bigraded(opcx: OperatorComplex, imax, jmax, imin=0, jmin=0,
                      want_actions=True) -> ExtTable:
    """Exact dims of H in the (cohomological, internal) window, with the
    chi_i and x_l action matrices on pivot-chosen homology bases.

    Without actions the dims come from ranks alone, one untracked
    elimination per slice matrix.
    """
    spec = opcx.spec
    one = CycScalar.one(spec.m)

    slices = {}
    for i in range(imin - 1, imax + 2):
        for j in range(jmin, jmax + 1):
            syms = opcx.slice_symbols(i, j)
            slices[(i, j)] = {sym: idx for idx, sym in enumerate(syms)}

    def as_vector(mapping, index):
        out = {}
        for sym, c in mapping.items():
            idx = index.get(sym)
            if idx is None:
                if c:
                    raise AssertionError(
                        f"differential escapes the enumerated slice: {sym}")
                continue
            add_term(out, idx, c)
        return out

    dmat = {}
    for i in range(imin - 1, imax + 1):
        for j in range(jmin, jmax + 1):
            index_to = slices.get((i + 1, j), {})
            cols = []
            for sym in slices[(i, j)]:
                cols.append(as_vector(opcx.differential(sym), index_to))
            dmat[(i, j)] = cols

    window = {"imin": imin, "imax": imax, "jmin": jmin, "jmax": jmax}
    if not want_actions:
        # dim H = #cols - rank d(i,j) - rank d(i-1,j); each rank once
        ranks = {key: rank(cols) for key, cols in dmat.items()}
        dims = {}
        for i in range(imin, imax + 1):
            for j in range(jmin, jmax + 1):
                d = len(dmat[(i, j)]) - ranks[(i, j)] - ranks[(i - 1, j)]
                if d < 0:
                    raise AssertionError(f"negative homology dim at {(i, j)}")
                dims[(i, j)] = d
        return ExtTable(dims, {}, [], window)

    # homology data per slice: a combined echelon (image vectors first with
    # empty traces, then kernel vectors tracked by homology-basis index)
    # makes dims exact and gives canonical H-coordinates for any cycle
    hdata = {}
    dims = {}
    for i in range(imin, imax + 1):
        for j in range(jmin, jmax + 1):
            cols = dmat[(i, j)]
            kers = kernel_basis(cols, one)
            comb = Echelon(track=True)
            for col in dmat.get((i - 1, j), []):
                if col:
                    comb.add(dict(col), {})
            reps = []
            for kv in kers:
                piv, _ = comb.add(dict(kv), {len(reps): one})
                if piv is not None:
                    reps.append(dict(kv))
            dims[(i, j)] = len(reps)
            hdata[(i, j)] = (reps, comb)

    def action_table(act, di, dj):
        table = {}
        for (i, j), (reps, _comb) in hdata.items():
            tgt = (i + di, j + dj)
            if tgt in hdata and reps:
                table[(i, j)] = {"target": tgt, "columns": _action_columns(
                    act, reps, slices[(i, j)], slices[tgt], hdata[tgt][1])}
        return table

    chi_actions = {}
    for opi in range(spec.c):
        chi_actions[f"chi{opi+1}"] = action_table(
            lambda s: opcx.chi_action(opi, s), 2, spec.df[opi])
    x_actions = []
    for l in range(spec.n):
        x_actions.append(action_table(
            lambda s: opcx.x_action(l, s), 0, -spec.degrees[l]))
    return ExtTable(dims, chi_actions, x_actions, window)


def _action_columns(act, reps, src_index, tgt_index, tgt_comb):
    """Sparse columns {row: scalar} of an action on homology bases, one per
    source class, in the H-coordinates of the target slice."""
    src_syms = list(src_index)
    columns = []
    for rep in reps:
        total = {}
        for idx, c in rep.items():
            for tsym, tc in act(src_syms[idx]).items():
                tidx = tgt_index.get(tsym)
                if tidx is not None:
                    add_term(total, tidx, tc * c)
        residual, trace = tgt_comb.reduce(total, {})
        if residual:
            raise AssertionError("action image not recognized in target slice")
        columns.append({k: -v for k, v in trace.items()})
    return columns


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
    maxdf = max(spec.df) if spec.c else 0
    jmax = (cmax // 2 + spec.c) * maxdf
    jmin = -dmax
    imin = -spec.c
    table = homology_bigraded(opcx, cmax, jmax, imin=imin, jmin=jmin,
                              want_actions=False)
    rcut = jmax + dmax
    rdims = [len(standard_monomials(spec.qring, d, spec.rel_exps))
             for d in range(rcut + 1)]
    mismatches = []
    for i in range(imin, cmax + 1):
        for j in range(jmin, jmax + 1):
            got = table.dim(i, j)
            expected = 0
            if i >= 0 and i % 2 == 0:
                for w in _chi_weights(spec.c, i // 2):
                    d = sum(a * b for a, b in zip(w, spec.df)) - j
                    if 0 <= d <= rcut:
                        expected += rdims[d]
            if got != expected:
                mismatches.append((i, j, got, expected))
    return HHReport(not mismatches, mismatches, table.dims,
                    {"cmax": cmax, "dmax": dmax})


# -- restriction to the commutative operator ring ----------------------------

class ThetaModule:
    """A finitely presented graded module over k[theta_1..theta_c].

    Generators carry cohomological degrees; theta_i has degree 2t.  The
    relation columns are vectors over a commutative QRing.
    """

    def __init__(self, spec, t, gen_degs, columns):
        self.spec = spec
        self.t = t
        self.gen_degs = list(gen_degs)
        self.columns = [dict(c) for c in columns]
        self.ring = _theta_ring(spec, t)

    def annihilator(self):
        from .qgrobner import annihilator_ideal

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
        """Numerator over (1 - u^{2t})^c of the cohomological Hilbert series."""
        leads = self.groebner_leads()
        weights = (2 * self.t,) * self.spec.c
        out = {}
        for comp, d in enumerate(self.gen_degs):
            exps = [e for (e, c) in leads if c == comp]
            num = hilbert_numerator(exps, weights)
            for deg, v in num.items():
                out[deg + d] = out.get(deg + d, 0) + v
        return {k: v for k, v in out.items() if v}


def _theta_ring(spec, t):
    from .colorcore import QRing

    c = spec.c
    names = tuple(f"th{i+1}" for i in range(c))
    return QRing(spec.m, names, (2 * t,) * c,
                 [[0] * c for _ in range(c)])


def ext_over_theta(resolution: KoszulComplex, t: int) -> ThetaModule:
    """Presentation of H(E_{F,k}) over k[theta_i = chi_i^t].

    The operator complex of Hom(F, k) is a finite free module over the
    chi-ring; restricting along theta_i = chi_i^t (free of rank t^c on
    chi^w, 0 <= w_i < t) and taking homology by commutative syzygies yields
    the presentation.  The restricted differential reads its X-parts and
    twists from that complex, so it shares every convention of ``ext``.
    """
    from .store import current  # store imports this module

    spec = resolution.spec
    tring = _theta_ring(spec, t)
    kbasis = current().module_basis(ModulePresentation.residue_field(spec))
    x = _HomIntoModule(resolution, kbasis)
    opcx = OperatorComplex(spec, x, "Hom(F,k)")
    xsyms = sorted(sym for p, layer in enumerate(resolution.basis)
                   for bd in {d for d, _c in layer}
                   for sym in x.symbols(-p, -bd))
    weights = list(itertools.product(range(t), repeat=spec.c))
    # chi^w adds 2|w| to the degree and -sum_i w_i cf_i to the color
    wshifts = [(2 * sum(w), tuple(sum(wi * cf[k] for wi, cf in zip(w, spec.cf))
                                  for k in range(spec.n)))
               for w in weights]
    xindex = {xsym: i for i, xsym in enumerate(xsyms)}
    windex = {w: i for i, w in enumerate(weights)}

    def gen_id(xsym, w):
        return xindex[xsym] * len(weights) + windex[w]

    zero_t = tring.zero_exp()
    gen_degs, gen_colors, columns = [], [], []
    for xsym in xsyms:
        dx, ops = opcx._xpart(xsym)
        sigma = x._sigma(xsym)
        for w, (wdeg, wcolor) in zip(weights, wshifts):
            gen_degs.append(wdeg - x.hdeg(xsym))
            gen_colors.append(tuple(s - v for s, v in zip(sigma, wcolor)))
            col = {(zero_t, gen_id(xk, w)): c for xk, c in dx.items()}
            for i, op in enumerate(ops):
                if not op:
                    continue
                # chi^w chi_i = u chi^w2 with u the "d" twist; when w2_i
                # reaches t, chi^w2 = theta_i chi^w' times the "chi" twist
                # to the power -t
                u = opcx._w_scalar("d", i, w)
                w2 = w[:i] + (w[i] + 1,) + w[i + 1:]
                texps = zero_t
                if w2[i] == t:
                    wrap = opcx._w_scalar("chi", i, w)
                    if wrap is not None:
                        wrap = wrap ** -t
                        u = wrap if u is None else u * wrap
                    w2 = w[:i] + (0,) + w[i + 1:]
                    texps = zero_t[:i] + (1,) + zero_t[i + 1:]
                for xk, c in op.items():
                    col[(texps, gen_id(xk, w2))] = c if u is None else c * u
            columns.append(col)

    # homology presentation per color class (theta shifts color by -t cf_i)
    moduli = _color_moduli(spec, t)
    classes = {}
    for gid, color in enumerate(gen_colors):
        classes.setdefault(_color_class(color, moduli), []).append(gid)

    out_degs = []
    out_cols = []
    for cls, members in sorted(classes.items()):
        local = {gid: i for i, gid in enumerate(members)}
        loc_cols = []
        for gid in members:
            vec = {}
            for (exps, dst), c in columns[gid].items():
                vec[(exps, local[dst])] = c
            loc_cols.append(vec)
        degs = [gen_degs[g] for g in members]
        h_degs, h_cols = _homology_presentation(loc_cols, degs, tring)
        base = len(out_degs)
        out_degs.extend(h_degs)
        for colv in h_cols:
            out_cols.append({(e, base + cc): v
                             for (e, cc), v in colv.items()})

    kept, cols2, _ = minimalize_presentation(len(out_degs), out_cols, tring)
    remap = {old: new for new, old in enumerate(kept)}
    out_degs = [out_degs[k] for k in kept]
    out_cols = [{(e, remap[c]): v for (e, c), v in col.items()}
                for col in cols2]

    return ThetaModule(spec, t, out_degs, out_cols)


def _homology_presentation(columns, gen_degs, tring):
    """ker(D)/im(D) for the square matrix given by columns over tring."""
    kergens = syzygy_module(columns, tring)   # in canonical order
    if not kergens:
        return [], []
    gb = buchberger(kergens, tring, want_lifts=True, want_syzygies=True)
    rels = []
    for col in columns:
        if not col:
            continue
        lift = gb.lift_to_inputs(col)
        if lift is None:
            raise AssertionError("image vector outside the kernel module")
        rels.append(lift)
    rels += [dict(s) for s in gb.syzygies]
    h_degs = []
    for kg in kergens:
        degs = {tring.deg(e) + gen_degs[c] for (e, c) in kg}
        if len(degs) != 1:
            raise AssertionError("inhomogeneous kernel generator")
        h_degs.append(degs.pop())
    return h_degs, rels


def _color_moduli(spec, t):
    """[(k, t cf_i[k]), one per relation] when the relation colors have
    pairwise disjoint one-coordinate supports, else None.

    Reduction mod the lattice <t cf_i> is then coordinatewise; otherwise
    every color falls in one class.
    """
    moduli = []
    seen = set()
    for cf in spec.cf:
        support = [k for k, v in enumerate(cf) if v]
        if len(support) != 1 or support[0] in seen:
            return None
        k = support[0]
        seen.add(k)
        moduli.append((k, t * cf[k]))
    return moduli


def _color_class(color, moduli):
    """Canonical representative of a color mod the lattice <t cf_i>, with
    moduli from ``_color_moduli``."""
    if moduli is None:
        return ("single",)
    out = list(color)
    for k, modulus in moduli:
        out[k] %= modulus
    return tuple(out)
