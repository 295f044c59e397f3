"""The skew Koszul DG algebra E, the diagonal resolution obtained from its
enveloping algebra E^e by adjoining divided-power variables, and the skew
Taylor complex: the closed-form F of every module whose relation columns
and f_i have one term each.

Elements live in a graded color commutative algebra over Q generated by odd
exterior variables (homological degree 1) and even divided-power variables
(homological degree 2).  A term is (exponents, odd bitmask, divided-power
vector) -> scalar, written in the normal order

    x^alpha * (odd generators, ascending) * y_1^(h_1) ... y_k^(h_k).

Sign convention: uv = (-1)^{|u||v|} chi(u,v) vu for homogeneous u, v, odd
squares vanish, and the differential satisfies the Leibniz rule
d(uv) = d(u) v + (-1)^{|u|} u d(v).  The convention is pinned down by the
d^2 = 0 and Leibniz property tests.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb
from operator import sub

from .colorcore import RingSpec, compositions, monomials_of_degree
from .linalg import Echelon
from .qgrobner import _divides
from .scalars import CycScalar
from .sparse import add_scaled, add_term

__all__ = [
    "DGAlgebra",
    "koszul_algebra",
    "diagonal_context",
    "phi_expand",
    "taylor_maps",
    "verify_diagonal_resolution",
    "DiagonalReport",
]


class DGAlgebra:
    """Color DG algebra over Q with odd and even (divided power) generators.

    ``odd_colors``/``even_colors`` are Z^n color vectors, ``*_idegs`` the
    internal degrees.  ``odd_diff[i]`` is the element d(odd_i) (homological
    degree 0) and ``even_diff[j]`` the element d(even_j) (degree 1); either
    may be None for a cycle.
    """

    def __init__(self, spec: RingSpec, odd_names, odd_colors, odd_idegs,
                 even_names=(), even_colors=(), even_idegs=()):
        self.spec = spec
        self.ring = spec.qring
        self.m = spec.m
        self.odd_names = tuple(odd_names)
        self.odd_colors = tuple(tuple(c) for c in odd_colors)
        self.odd_idegs = tuple(odd_idegs)
        self.even_names = tuple(even_names)
        self.even_colors = tuple(tuple(c) for c in even_colors)
        self.even_idegs = tuple(even_idegs)
        self.nodd = len(self.odd_names)
        self.neven = len(self.even_names)
        self.odd_diff = [None] * self.nodd
        self.even_diff = [None] * self.neven
        self._one = CycScalar.one(spec.m)

    # -- term bookkeeping ----------------------------------------------

    def zero_h(self):
        return (0,) * self.neven

    def term(self, exps=None, smask=0, hvec=None, coeff=None):
        exps = self.ring.zero_exp() if exps is None else tuple(exps)
        hvec = self.zero_h() if hvec is None else tuple(hvec)
        coeff = self._one if coeff is None else coeff
        return {(exps, smask, hvec): coeff}

    def from_poly(self, poly):
        return {(exps, 0, self.zero_h()): c for exps, c in poly.items()}

    def term_color(self, key):
        exps, smask, hvec = key
        return tuple(map(sum, zip(self.ring.color(exps),
                                  self._smask_color(smask),
                                  self._hvec_color(hvec))))

    def _smask_color(self, smask):
        col = [0] * self.spec.n
        for i in range(self.nodd):
            if smask >> i & 1:
                for k, v in enumerate(self.odd_colors[i]):
                    col[k] += v
        return tuple(col)

    def _hvec_color(self, hvec):
        col = [0] * self.spec.n
        for j, h in enumerate(hvec):
            if h:
                for k, v in enumerate(self.even_colors[j]):
                    col[k] += h * v
        return tuple(col)

    # -- algebra operations ----------------------------------------------

    def mul(self, u, v):
        """Graded color commutative product."""
        chi = self.ring.chi
        out = {}
        for (alpha, s1, h1), c1 in u.items():
            colSH = tuple(a + b for a, b in zip(
                self._smask_color(s1), self._hvec_color(h1)))
            for (beta, s2, h2), c2 in v.items():
                if s1 & s2:
                    continue
                coeff = c1 * c2
                # move x^beta left past E_{s1} Y^{h1} (beta is even)
                if any(beta) and (s1 or any(h1)):
                    coeff = coeff * chi(colSH, self.ring.color(beta))
                # multiply coefficients in Q
                coeff = coeff * self.ring.cpair(alpha, beta)
                exps = tuple(a + b for a, b in zip(alpha, beta))
                # move E_{s2} left past Y^{h1}
                if s2 and any(h1):
                    coeff = coeff * chi(self._hvec_color(h1),
                                        self._smask_color(s2))
                # interleave odd parts: sign and chi per inversion
                if s1 and s2:
                    sign = 1
                    for i in _bits(s1):
                        for j in _bits(s2):
                            if i > j:
                                sign = -sign
                                coeff = coeff * chi(self.odd_colors[i],
                                                    self.odd_colors[j])
                    if sign < 0:
                        coeff = -coeff
                # divided powers
                hvec = tuple(a + b for a, b in zip(h1, h2))
                for j in range(self.neven):
                    if h1[j] and h2[j]:
                        coeff = coeff * comb(h1[j] + h2[j], h1[j])
                for j in range(self.neven):
                    if not h1[j]:
                        continue
                    for l in range(j):
                        if h2[l]:
                            coeff = coeff * chi(
                                self.even_colors[j],
                                self.even_colors[l]) ** (h1[j] * h2[l])
                add_term(out, (exps, s1 | s2, hvec), coeff)
        return out

    def diff(self, u):
        """Color Leibniz differential."""
        chi = self.ring.chi
        out = {}
        for (alpha, smask, hvec), coeff in u.items():
            bits = _bits(smask)
            # odd part: d(e_{s_0} ... e_{s_k}) with sign (-1)^l
            for l, s in enumerate(bits):
                dval = self.odd_diff[s]
                if not dval:
                    continue
                scal = coeff if l % 2 == 0 else -coeff
                for r in bits[:l]:
                    scal = scal * chi(self.odd_colors[r], self.odd_colors[s])
                rest = self.term(smask=smask & ~(1 << s), hvec=hvec)
                piece = self.mul(dval, rest)
                piece = self.mul(self.term(exps=alpha), piece)
                add_scaled(out, piece, scal)
            # even part, with presign (-1)^{|S|}
            presign = -1 if len(bits) % 2 else 1
            for j in range(self.neven):
                if not hvec[j]:
                    continue
                dval = self.even_diff[j]
                if not dval:
                    continue
                scal = coeff * presign
                for l in range(j):
                    if hvec[l]:
                        scal = scal * chi(self.even_colors[l],
                                          self.even_colors[j]) ** hvec[l]
                hrest = list(hvec)
                hrest[j] -= 1
                inner = self.mul(dval, self.term(hvec=hrest))
                piece = self.mul(self.term(exps=alpha, smask=smask), inner)
                add_scaled(out, piece, scal)
        return out

    # -- slice enumeration ------------------------------------------------

    def basis_slice(self, hdeg, ideg):
        """All basis keys of the given homological and internal degree."""
        out = []
        for smask in range(1 << self.nodd):
            sbits = bin(smask).count("1")
            if sbits > hdeg:
                continue
            s_ideg = sum(self.odd_idegs[i] for i in _bits(smask))
            if s_ideg > ideg:
                continue
            for hvec in self._hvecs((hdeg - sbits), ideg - s_ideg):
                rem = ideg - s_ideg - sum(
                    h * d for h, d in zip(hvec, self.even_idegs))
                for exps in monomials_of_degree(self.ring, rem):
                    out.append((exps, smask, hvec))
        return sorted(out)

    def _hvecs(self, two_h, ideg_cap):
        """Divided-power vectors of homological degree two_h and internal
        degree at most ideg_cap."""
        if two_h % 2:
            return []
        return [hvec for hvec in compositions(self.neven, two_h // 2)
                if sum(h * d for h, d in zip(hvec, self.even_idegs))
                <= ideg_cap]


def _bits(mask):
    out = []
    i = 0
    while mask >> i:
        if mask >> i & 1:
            out.append(i)
        i += 1
    return out


# -- the standard contexts ---------------------------------------------------

def koszul_algebra(spec: RingSpec) -> DGAlgebra:
    """E = Q<e_1..e_c | d(e_i) = f_i>, the skew Koszul complex on f."""
    ctx = DGAlgebra(
        spec,
        odd_names=[f"e{i+1}" for i in range(spec.c)],
        odd_colors=spec.cf,
        odd_idegs=spec.df,
    )
    for i, f in enumerate(spec.relations):
        ctx.odd_diff[i] = ctx.from_poly(f)
    return ctx


def diagonal_context(spec: RingSpec) -> DGAlgebra:
    """E^e<Y | d(y_i) = e_i' - e_i> with divided powers y_i of degree 2.

    E^e = Q<e_1..e_c, e_1'..e_c' | d(e_i) = d(e_i') = f_i>: bit i is e_i
    (the factor 1 (x) e_i), bit c+i is e_i' (= e_i (x) 1).
    """
    c = spec.c
    ctx = DGAlgebra(
        spec,
        odd_names=[f"e{i+1}" for i in range(c)] + [f"e{i+1}p" for i in range(c)],
        odd_colors=tuple(spec.cf) + tuple(spec.cf),
        odd_idegs=tuple(spec.df) + tuple(spec.df),
        even_names=[f"y{i+1}" for i in range(c)],
        even_colors=spec.cf,
        even_idegs=spec.df,
    )
    for i, f in enumerate(spec.relations):
        ctx.odd_diff[i] = ctx.from_poly(f)
        ctx.odd_diff[c + i] = ctx.from_poly(f)
        dy = ctx.term(smask=1 << (c + i))
        add_scaled(dy, ctx.term(smask=1 << i), -ctx._one)
        ctx.even_diff[i] = dy
    return ctx


# -- the closed-form F of a module with one-term relations ---------------------

def taylor_maps(module):
    """(basis, diff, eact) of the skew Taylor complex of a module whose
    relation columns and f_i have one term each, in the layout of
    ``resolve.KoszulComplex``: the direct sum over the generators b of the
    complex on g_1..g_r, the monomials minimal under divisibility among b's
    relations and the f_i, sorted descending.

    Labels of b's summand in F_h are the h-subsets S of {1..r}.  With
    m_S = lcm{g_s : s in S}, beta_S = color(b) + m_S and
    sigma(u, v) = zeta^cpair_exp(u, v): for T = S - S[p] and u = m_S - m_T,
    d(e_S) = sum_p (-1)^p sigma(u, beta_T)^-1 x^u e_T; for f_i = a x^F,
    g_j the first g dividing F, T = S + j and u = F + m_S - m_T,
    e_i(e_S) = (-1)^(position of j in T) a sigma(u, beta_T)^-1
    sigma(F, beta_S) x^u e_T when j is not in S, and 0 otherwise.  This is
    the Taylor DG algebra (Taylor 1966; Gemeda 1976) twisted by the cocycle
    sigma.  With pairwise disjoint supports m_S = sum g_s, and it is the
    Koszul complex on g; otherwise it is not minimal (R/(x1x2) over
    Q/(x1^2, x2^2) gets ranks [1, 3, 3, 1]), and its length, the largest
    r, can exceed n.
    """
    spec = module.spec
    ring = spec.qring
    fs = [next(iter(f.items())) for f in spec.relations]
    summands = []
    for b in range(len(module.gens)):
        terms = ({e for col in module.relations for e, g in col if g == b}
                 | {fexp for fexp, _a in fs})
        summands.append(sorted((e for e in terms if not any(
            o != e and _divides(o, e) for o in terms)), reverse=True))
    top = max(map(len, summands), default=0)
    basis = [[] for _ in range(top + 1)]
    diff = [None] + [[] for _ in range(top)]
    eact = [[[] for _ in range(top)] + [None] for _ in fs]
    for (deg, color), gs in zip(module.gens, summands):
        subsets = [S for h in range(len(gs) + 1)
                   for S in combinations(range(len(gs)), h)]
        lcm, beta, index = {}, {}, {}
        for S in subsets:
            lcm[S] = tuple(max((gs[s][v] for s in S), default=0)
                           for v in range(spec.n))
            beta[S] = tuple(map(sum, zip(color, ring.color(lcm[S]))))
            index[S] = len(basis[len(S)])
            basis[len(S)].append((deg + ring.deg(lcm[S]), beta[S]))

        def entry(T, u, shift, p):
            """The term (-1)^p zeta^shift sigma(u, beta_T)^-1 x^u e_T."""
            z = ring.zeta_pow(shift - ring.cpair_exp(u, beta[T]))
            return (u, index[T]), -z if p % 2 else z

        first = [next(j for j, g in enumerate(gs) if _divides(g, fexp))
                 for fexp, _a in fs]
        for S in subsets:
            h = len(S)
            if h:
                faces = [S[:p] + S[p + 1:] for p in range(h)]
                diff[h].append(dict(
                    entry(T, tuple(map(sub, lcm[S], lcm[T])), 0, p)
                    for p, T in enumerate(faces)))
            if h == top:
                continue
            for i, ((fexp, a), j) in enumerate(zip(fs, first)):
                if j in S:
                    eact[i][h].append({})
                    continue
                T = tuple(sorted(S + (j,)))
                u = tuple(f + x - y for f, x, y in zip(fexp, lcm[S], lcm[T]))
                key, z = entry(T, u, ring.cpair_exp(fexp, beta[S]),
                               T.index(j))
                eact[i][h].append({key: a * z})
    return basis, diff, eact


# -- diagonal approximation ---------------------------------------------------

def phi_expand(spec: RingSpec, hvec):
    """Expansion of the diagonal approximation on y^(H).

    Returns [(H', H'', scalar)] with
    scalar = prod_{i<j} chi(f_i, f_j)^{h'_j h''_i} over all H' + H'' = H.
    """
    c = len(hvec)
    out = []
    # H' in lexicographic order, its first coordinate slowest
    for hp in product(*(range(h + 1) for h in hvec)):
        hpp = tuple(h - p for h, p in zip(hvec, hp))
        scal = CycScalar.one(spec.m)
        for i in range(c):
            for j in range(i + 1, c):
                e = hp[j] * hpp[i]
                if e:
                    scal = scal * spec.chi_ff(i, j) ** e
        out.append((hp, hpp, scal))
    return out


# -- homology of the diagonal resolution --------------------------------------

class DiagonalReport:
    def __init__(self, ok, dmax, failures, homology_dims):
        self.ok = ok
        self.dmax = dmax
        self.failures = failures        # list of (hdeg, ideg, got, expected)
        self.homology_dims = homology_dims

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {
            "ok": self.ok,
            "dmax": self.dmax,
            "failures": [list(f) for f in self.failures],
            "homology_dims": {f"{h},{d}": v
                              for (h, d), v in sorted(self.homology_dims.items())},
        }


def homology_dims_of_context(ctx: DGAlgebra, hmax, dmax):
    """Exact dim_k H_(h,d) for h <= hmax, internal degree d <= dmax."""
    dims = {}
    for d in range(dmax + 1):
        slices = {h: ctx.basis_slice(h, d) for h in range(hmax + 2)}
        ranks = {}
        kernels = {}
        for h in range(1, hmax + 2):
            cols = []
            for key in slices[h]:
                img = ctx.diff({key: ctx._one})
                cols.append(img)
            ech = Echelon()
            kernel_count = 0
            for col in cols:
                piv, _ = ech.add(col)
                if piv is None:
                    kernel_count += 1
            ranks[h] = ech.rank
            kernels[h] = kernel_count
        for h in range(hmax + 1):
            if h == 0:
                cycles = len(slices[0])  # d = 0 on homological degree 0
            else:
                cycles = kernels[h]
            dims[(h, d)] = cycles - ranks.get(h + 1, 0)
    return dims


def verify_diagonal_resolution(spec: RingSpec, dmax: int) -> DiagonalReport:
    """Check that the diagonal resolution has homology R in degree 0 only.

    Computes homology of E^e<Y> in all bidegrees with internal degree at
    most dmax and homological degree up to the largest one supported there,
    and compares against dim_k R_d from the standard monomial count.
    """
    ctx = diagonal_context(spec)
    # internal degree bounds homological degree: every e, e', y carries
    # internal degree >= min(df) and homological degree <= 2 per unit
    hmax = (2 * dmax) // min(spec.df) if spec.c else 0
    r_dims = spec.hilbert_dims(dmax)
    dims = homology_dims_of_context(ctx, hmax, dmax)
    failures = []
    for (h, d), v in sorted(dims.items()):
        expected = r_dims[d] if h == 0 else 0
        if v != expected:
            failures.append((h, d, v, expected))
    return DiagonalReport(not failures, dmax, failures, dims)
