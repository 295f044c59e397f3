"""Strict DG module resolutions over the skew Koszul algebra.

Three layers:

* ``ModulePresentation``: a graded color module over R given by generators
  and monomial-per-component relation columns.
* ``SemifreeResolution``: the E-semifree resolution, one ``stage`` per degree,
  killing homology classes; cycles come from exact syzygy computations over
  Q, so no truncation heuristics enter the construction.
* ``finite_koszul_resolution``: the bounded strongly-perfect model F of
  the normalized module, certified exactly in one place (freeness,
  d^2 = 0, the homotopy identities for the e-actions, and exactness).
  When every relation column and every f_i has one term, F is the skew
  Taylor complex of ``koszul.taylor_maps``; otherwise it is the semifree
  resolution with its top replaced by a free cokernel
  (``semifree_finite_resolution``).

The independent Betti oracle ``minimal_R_resolution`` works degreewise by
plain linear algebra over the coefficient field using R normal forms and
never touches the Groebner path above.
"""

from __future__ import annotations

from .colorcore import (
    RingSpec,
    parse_poly,
    poly_to_string,
    standard_monomials,
)
from .koszul import koszul_algebra, taylor_maps
from .linalg import Echelon
from .qgrobner import (
    buchberger,
    homology_presentation,
    minimalize_presentation,
    mono_mul_vector,
    poly_mul_vector,
    syzygy_module,
)
from .scalars import CycScalar
from .sparse import add_scaled, add_term

__all__ = [
    "ModulePresentation",
    "SemifreeResolution",
    "KoszulComplex",
    "finite_koszul_resolution",
    "semifree_finite_resolution",
    "minimal_R_resolution",
    "BettiTable",
]


class ModulePresentation:
    """A finitely presented graded color R-module.

    ``gens`` is a list of (internal degree, color vector); ``relations`` a
    list of columns {(exps, gen index): scalar}, each G-homogeneous.
    """

    def __init__(self, spec: RingSpec, gens, relations, name="M"):
        self.spec = spec
        self.gens = [(int(d), tuple(c)) for d, c in gens]
        self.relations = [dict(col) for col in relations]
        self.name = name
        if any(len(c) != spec.n for _d, c in self.gens):
            raise ValueError(f"a generator color of {name} does not have "
                             f"length n = {spec.n}")
        if any(not 0 <= g < len(self.gens)
               for col in self.relations for _e, g in col):
            raise ValueError(f"a relation of {name} has more entries than "
                             f"its {len(self.gens)} generators")
        self._check_homogeneous()

    def _check_homogeneous(self):
        ring = self.spec.qring
        for col in self.relations:
            data = set()
            for (exps, comp), _ in col.items():
                d, c = self.gens[comp]
                color = tuple(a + b for a, b in
                              zip(ring.color(exps), c))
                data.add((ring.deg(exps) + d, color))
            if len(data) > 1:
                raise ValueError(f"inhomogeneous relation column in {self.name}")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def free(spec, name="R"):
        return ModulePresentation(spec, [(0, (0,) * spec.n)], [], name)

    @staticmethod
    def residue_field(spec):
        one = CycScalar.one(spec.m)
        gens = [(0, (0,) * spec.n)]
        cols = []
        for i in range(spec.n):
            exps = tuple(1 if k == i else 0 for k in range(spec.n))
            cols.append({(exps, 0): one})
        return ModulePresentation(spec, gens, cols, "k")

    @staticmethod
    def cyclic(spec, polys, name=None):
        """R/(ideal generated by the given G-homogeneous elements, written
        as polynomial strings)."""
        gens = [(0, (0,) * spec.n)]
        cols = [{(exps, 0): c for exps, c in parse_poly(spec.qring, p).items()}
                for p in polys]
        label = name or ("R/(" + ",".join(polys) + ")")
        return ModulePresentation(spec, gens, cols, label)

    @staticmethod
    def from_json(spec, doc):
        if isinstance(doc, str):
            if doc == "k":
                return ModulePresentation.residue_field(spec)
            if doc == "R":
                return ModulePresentation.free(spec)
            raise ValueError(f"unknown module shorthand {doc!r}")
        if "quotient" in doc:
            quotient = doc["quotient"]
            if not (isinstance(quotient, list)
                    and all(isinstance(f, str) for f in quotient)):
                raise TypeError("quotient must be a list of strings")
            return ModulePresentation.cyclic(spec, quotient, doc.get("name"))
        gens = [(g.get("degree", 0), tuple(g.get("color", (0,) * spec.n)))
                for g in doc["gens"]]
        cols = []
        for col in doc["relations"]:
            out = {}
            for comp, text in enumerate(col):
                for exps, c in parse_poly(spec.qring, text).items():
                    out[(exps, comp)] = c
            cols.append(out)
        return ModulePresentation(spec, gens, cols, doc.get("name", "M"))

    def to_json(self):
        ring = self.spec.qring
        cols = []
        for col in self.relations:
            entries = []
            for comp in range(len(self.gens)):
                terms = {exps: c for (exps, cc), c in col.items()
                         if cc == comp}
                entries.append(poly_to_string(ring, terms))
            cols.append(entries)
        return {
            "name": self.name,
            "gens": [{"degree": d, "color": list(c)} for d, c in self.gens],
            "relations": cols,
        }

    def is_residue_field(self):
        n = self.spec.n
        return (len(self.gens) == 1 and self.gens[0][0] == 0
                and all(len(col) == 1 for col in self.relations)
                and {e for col in self.relations for e, _g in col}
                == {tuple(int(k == i) for k in range(n)) for i in range(n)})

    def normalized(self):
        """Eliminate constant entries so the presentation is minimal."""
        kept, cols, _ = minimalize_presentation(
            len(self.gens), self.relations, self.spec.qring)
        if len(kept) == len(self.gens) and len(cols) == len(self.relations):
            return self
        remap = {old: new for new, old in enumerate(kept)}
        gens = [self.gens[k] for k in kept]
        cols = [{(e, remap[c]): v for (e, c), v in col.items()}
                for col in cols]
        return ModulePresentation(self.spec, gens, cols, self.name)

    def q_relations(self):
        """The module's relation columns over Q: its own relations, then
        f_i times each generator for every relation f_i of R."""
        cols = [dict(col) for col in self.relations]
        for f in self.spec.relations:
            for g in range(len(self.gens)):
                cols.append({(exps, g): c for exps, c in f.items()})
        return cols

    def cache_key_data(self):
        return {"ring": self.spec.to_json(), "module": self.to_json()}

    def __repr__(self):
        return (f"ModulePresentation({self.name}: {len(self.gens)} gens, "
                f"{len(self.relations)} relations)")


# ---------------------------------------------------------------------------
# E-semifree resolutions
# ---------------------------------------------------------------------------

class SemifreeResolution:
    """F = (+) E.g over the generators, with d(g) recorded per generator.

    F-elements are dicts {(exps, odd bitmask, gen index): scalar}.  Starts
    with the degree-0 generators of a normalized module; each ``stage``
    adjoins the generators of the next homological degree.
    ``images[h]`` (h >= 1) holds d of each ``basis(h)`` label as a Q-vector
    over ``basis(h - 1)``, in ``basis(h)`` order.
    """

    def __init__(self, module: ModulePresentation):
        self.module = module
        self.spec = module.spec
        self.ctx = koszul_algebra(self.spec)
        # (hdeg, ideg, color) and the F-element d(g), one per generator
        self.gens = [(0, d, c) for d, c in self.module.gens]
        self.dgen = [{} for _ in self.gens]
        self.images = [None]

    # -- element operations ----------------------------------------------

    def emul(self, eelt, felt):
        """Multiply an E-element into an F-element from the left."""
        ctx = self.ctx
        out = {}
        for (beta, tmask, _h), c1 in eelt.items():
            left = {(beta, tmask, ()): c1}
            for (alpha, smask, g), c2 in felt.items():
                prod = ctx.mul(left, {(alpha, smask, ()): c2})
                for (gamma, umask, _hh), c in prod.items():
                    add_term(out, (gamma, umask, g), c)
        return out

    def fdiff(self, felt):
        """Differential of an F-element (Leibniz over E plus d(gen))."""
        ctx = self.ctx
        out = {}
        for (alpha, smask, g), coeff in felt.items():
            epart = ctx.diff({(alpha, smask, ()): coeff})
            for (gamma, umask, _h), c in epart.items():
                add_term(out, (gamma, umask, g), c)
            dg = self.dgen[g]
            if dg:
                bits = bin(smask).count("1")
                sign = coeff if bits % 2 == 0 else -coeff
                add_scaled(out, self.emul({(alpha, smask, ()): sign}, dg))
        return out

    def term_ideg(self, key):
        alpha, smask, g = key
        total = self.spec.qring.deg(alpha) + self.gens[g][1]
        for i in range(self.spec.c):
            if smask >> i & 1:
                total += self.spec.df[i]
        return total

    def term_color(self, key):
        alpha, smask, g = key
        return tuple(map(sum, zip(
            self.spec.qring.color(alpha), self.gens[g][2],
            *(cf for i, cf in enumerate(self.spec.cf) if smask >> i & 1))))

    # -- Q-basis bookkeeping ----------------------------------------------

    def basis(self, hdeg):
        """Q-basis labels (smask, gen) of F in homological degree hdeg."""
        out = []
        for g, (h, _d, _c) in enumerate(self.gens):
            need = hdeg - h
            if need < 0 or need > self.spec.c:
                continue
            for smask in range(1 << self.spec.c):
                if bin(smask).count("1") == need:
                    out.append((smask, g))
        return sorted(out, key=lambda t: (t[1], t[0]))

    def label_data(self, smask, g):
        """(internal degree, color) of a basis label."""
        key = (self.spec.qring.zero_exp(), smask, g)
        return self.term_ideg(key), self.term_color(key)

    def _vec_ideg_color(self, qvec, basis_list):
        data = set()
        for (alpha, comp), _ in qvec.items():
            smask, g = basis_list[comp]
            key = (alpha, smask, g)
            data.add((self.term_ideg(key), self.term_color(key)))
        if len(data) != 1:
            raise ValueError("inhomogeneous cycle encountered")
        return data.pop()

    # -- the degreewise construction ---------------------------------------

    def stage(self):
        """Adjoin the generators of degree p + 1, p the stages run so far.

        The cycles at p (the module relations and boundaries when p = 0) are
        computed exactly (syzygies over Q), and a minimal generating set of
        the homology is adjoined, cycle representatives sorted by internal
        degree then position.  Each label's image is computed here once.
        """
        ring = self.spec.qring
        zero, one = ring.zero_exp(), CycScalar.one(self.spec.m)
        p = len(self.images) - 1
        basis_p = self.basis(p)
        index_p = {lab: i for i, lab in enumerate(basis_p)}
        # labels of degree p + 1 over the generators already present
        images = []
        for smask, g in self.basis(p + 1):
            img = self.fdiff({(zero, smask, g): one})
            images.append({(alpha, index_p[(tmask, tg)]): c
                           for (alpha, tmask, tg), c in img.items()})
        if p == 0:
            zcols = self.module.relations + images
        else:
            zcols = syzygy_module(self.images[p], ring)
        if zcols:
            zcols = sorted(
                zcols,
                key=lambda v: (self._vec_ideg_color(v, basis_p)[0],
                               sorted(v.keys())))
            kept, _cols, _proj = homology_presentation(zcols, images, ring)
            for k in kept:
                ideg, color = self._vec_ideg_color(zcols[k], basis_p)
                self.gens.append((p + 1, ideg, color))
                self.dgen.append({(alpha, *basis_p[comp]): c
                                  for (alpha, comp), c in zcols[k].items()})
                # a new generator's label sorts after every older one
                images.append(zcols[k])
        self.images.append(images)


# ---------------------------------------------------------------------------
# the truncated strongly perfect complex
# ---------------------------------------------------------------------------

class KoszulComplex:
    """A bounded complex of finite free Q-modules with a strict E-action.

    ``basis[h]`` lists (internal degree, color) labels.  ``diff[h]`` maps
    F_h -> F_{h-1} (None at h = 0) and ``eact[i][h]`` maps F_h -> F_{h+1}
    (None at the top); each map is a list of columns, one per label of F_h,
    the column being that label's image as a Q-vector {(exps, row): scalar}.
    """

    def __init__(self, spec, basis, diff, eact, module=None):
        self.spec = spec
        self.basis = basis
        self.diff = diff
        self.eact = eact
        self.module = module
        self._rows = {}
        self._errors = None

    @property
    def length(self):
        return len(self.basis) - 1

    def ranks(self):
        return [len(b) for b in self.basis]

    def rows(self, h, i=None):
        """``diff[h]`` (i None) or ``eact[i][h]`` grouped by row, as
        {row: [(col, exps, scalar), ...]} with columns ascending; built once
        per map and shared by every caller on this complex."""
        key = (h, i)
        grouped = self._rows.get(key)
        if grouped is None:
            columns = self.diff[h] if i is None else self.eact[i][h]
            grouped = {}
            for col, vec in enumerate(columns or ()):
                for (exps, row), c in vec.items():
                    grouped.setdefault(row, []).append((col, exps, c))
            self._rows[key] = grouped
        return grouped

    def _apply(self, columns, map_color, vec):
        """Apply a map of color ``map_color`` (None: plain) to a Q-vector
        {(exps, col): scalar}: phi(x^a b) = chi(sigma, color(x^a)) x^a phi(b)
        with phi(b) the column of b."""
        ring = self.spec.qring
        out = {}
        for (alpha, col), coeff in vec.items():
            if map_color is not None and any(alpha):
                coeff = coeff * ring.chi(map_color, ring.color(alpha))
            add_scaled(out, mono_mul_vector(ring, coeff, alpha, columns[col]))
        return out

    # -- invariants --------------------------------------------------------

    def certify(self):
        """Errors of the full certificate: the strict structure identities
        and exactness, with H_0 = ``module``.  Computed on the first call and
        kept, since a complex is an immutable value; empty when certified."""
        if self._errors is None:
            self._errors = self.verify_invariants() + self.verify_exactness()
        return self._errors

    def verify_invariants(self):
        """d^2 = 0, d e_i + e_i d = f_i, e_i^2 = 0, and e-commutation."""
        spec = self.spec
        ring = spec.qring
        one = CycScalar.one(spec.m)
        errors = []
        for h in range(len(self.basis)):
            for col in range(len(self.basis[h])):
                v = {(ring.zero_exp(), col): one}
                dv = self._d(h, v)
                if self._d(h - 1, dv):
                    errors.append(("d2", h, col))
                for i in range(spec.c):
                    eiv = self._e(i, h, v)
                    lhs = self._d(h + 1, eiv)
                    add_scaled(lhs, self._e(i, h - 1, dv))
                    rhs = poly_mul_vector(ring, spec.relations[i], v)
                    add_scaled(lhs, rhs, -one)
                    if lhs:
                        errors.append(("homotopy", i, h, col))
                    if self._e(i, h + 1, eiv):
                        errors.append(("esquare", i, h, col))
                    for j in range(i + 1, spec.c):
                        # e_i e_j = -chi(f_i, f_j) e_j e_i as operators
                        ejv = self._e(j, h, v)
                        lhs = self._e(i, h + 1, ejv)
                        rhs = self._e(j, h + 1, self._e(i, h, v))
                        add_scaled(lhs, rhs, spec.chi_ff(i, j))
                        if lhs:
                            errors.append(("ecomm", i, j, h, col))
        return errors

    def _d(self, h, vec):
        if not vec or not 1 <= h < len(self.basis):
            return {}
        return self._apply(self.diff[h], None, vec)

    def _e(self, i, h, vec):
        if not vec or not 0 <= h < self.length:
            return {}
        return self._apply(self.eact[i][h], self.spec.cf[i], vec)

    def verify_exactness(self):
        """Certify H_0 = M and H_h = 0 for h >= 1 via Groebner membership.

        One Groebner basis of each map d_h, with its syzygies, gives both
        the cycles at h and membership in the image at h - 1."""
        ring = self.spec.qring
        errors = []
        top = self.length
        gbs = {h: buchberger(self.diff[h], ring, want_syzygies=True)
               for h in range(1, top + 1)}
        # kernel of the top map must vanish
        if top >= 1 and any(gbs[top].syzygies):
            errors.append(("top_kernel_nonzero", top))
        # middle exactness: cycles at h lie in the image from h+1
        for h in range(1, top):
            if not all(gbs[h + 1].contains(z) for z in gbs[h].syzygies):
                errors.append(("homology", h))
        # H_0: image of d_1 (zero at length 0) equals relations + f * gens
        mod = self.module
        if mod is not None:
            k0 = mod.q_relations()
            image = self.diff[1] if top >= 1 else []
            gb_im = gbs.get(1)    # None at length 0, where the image is 0
            gb_k0 = buchberger(k0, ring)
            if not all(gb_k0.contains(col) for col in image):
                errors.append(("image_not_in_kernel", 0))
            if any(col and (gb_im is None or not gb_im.contains(col))
                   for col in k0):
                errors.append(("kernel_not_in_image", 0))
        return errors

    # -- serialization -------------------------------------------------------

    def to_json(self):
        """Each map as its nonzero entries [row, col, poly string], sorted."""
        ring = self.spec.qring

        def entries(columns):
            polys = {}
            for col, vec in enumerate(columns or ()):
                for (exps, row), c in vec.items():
                    polys.setdefault((row, col), {})[exps] = c
            return [[r, c, poly_to_string(ring, p)]
                    for (r, c), p in sorted(polys.items())]

        return {
            "ring": self.spec.to_json(),
            "module": self.module.to_json() if self.module else None,
            "basis": [[[d, list(c)] for d, c in layer]
                      for layer in self.basis],
            "diff": [entries(m) for m in self.diff],
            "eact": [[entries(m) for m in family] for family in self.eact],
        }

    @staticmethod
    def from_json(doc):
        spec = RingSpec.from_json(doc["ring"])
        ring = spec.qring
        module = None
        if doc.get("module"):
            module = ModulePresentation.from_json(spec, doc["module"])
        basis = [[(d, tuple(c)) for d, c in layer] for layer in doc["basis"]]
        top = len(basis) - 1

        def columns(entries, h):
            out = [{} for _ in basis[h]]
            for r, c, text in entries:
                for exps, v in parse_poly(ring, text).items():
                    out[c][(exps, r)] = v
            return out

        diff = [None] + [columns(m, h)
                         for h, m in enumerate(doc["diff"]) if h]
        eact = [[columns(m, h) for h, m in enumerate(family[:top])] + [None]
                for family in doc["eact"]]
        return KoszulComplex(spec, basis, diff, eact, module)


def finite_koszul_resolution(module: ModulePresentation) -> KoszulComplex:
    """Bounded complex of finite free Q-modules, strict E-action, = M,
    certified once (``KoszulComplex.certify``).  When every relation column
    of the normalized module and every f_i has one term, F is the skew
    Taylor complex of ``koszul.taylor_maps``: not minimal when the
    monomials of a generator share variables, and of length the largest
    number of them, which can exceed n.  Otherwise F is
    ``semifree_finite_resolution``'s."""
    module = module.normalized()
    if (all(len(col) <= 1 for col in module.relations)
            and all(len(f) == 1 for f in module.spec.relations)):
        complex_ = KoszulComplex(module.spec, *taylor_maps(module), module)
    else:
        complex_ = semifree_finite_resolution(module)
    errors = complex_.certify()
    if errors:
        raise AssertionError(f"resolution failed certification: {errors}")
    return complex_


def semifree_finite_resolution(module: ModulePresentation) -> KoszulComplex:
    """Bounded complex of finite free Q-modules, strict E-action, = M, for
    a normalized module; ``finite_koszul_resolution`` certifies it.

    Builds the semifree resolution one degree at a time and truncates at the
    first homological degree, from 0, where the cokernel of the incoming
    differential is Q-free (certified by presentation minimalization).  Q
    has global dimension n (Hilbert's syzygy theorem), so that cokernel is
    free by degree n.
    """
    res = SemifreeResolution(module)
    ring = res.spec.qring
    top = res.spec.n
    for cut in range(top + 1):
        res.stage()
        kept, leftover, proj = minimalize_presentation(
            len(res.basis(cut)), res.images[cut + 1], ring)
        if not any(leftover):
            return _assemble_truncation(res, cut, kept, proj)
    raise AssertionError(
        f"no free cokernel by homological degree {top} = gl.dim Q")


def _assemble_truncation(res: SemifreeResolution, cut, kept, proj):
    """F_0 .. F_cut with F_cut replaced by the free cokernel on ``kept``;
    ``proj`` writes each F_cut component over the kept ones."""
    spec = res.spec
    ring = spec.qring
    one = CycScalar.one(spec.m)
    top_basis = res.basis(cut)
    labels = [res.basis(h) for h in range(cut)]
    labels.append([top_basis[k] for k in kept])
    layers = [[res.label_data(s, g) for s, g in bas] for bas in labels]
    # the top layer is indexed over all of F_cut, then projected
    index = [{lab: i for i, lab in enumerate(bas)}
             for bas in labels[:cut] + [top_basis]]
    remap_top = {orig: new for new, orig in enumerate(kept)}

    def project_top(qvec):
        """Push a vector over the full F_cut basis into the cokernel."""
        out = {}
        for (alpha, comp), c in qvec.items():
            add_scaled(out, poly_mul_vector(ring, {alpha: c}, proj[comp]))
        return {(e, remap_top[comp]): v for (e, comp), v in out.items()}

    diff = [None] + res.images[1:cut]
    if cut:
        diff.append([res.images[cut][k] for k in kept])

    eact = []
    for i in range(spec.c):
        family = []
        for h in range(cut):
            columns = []
            for smask, g in labels[h]:
                img = res.emul(res.ctx.term(smask=1 << i),
                               {(ring.zero_exp(), smask, g): one})
                qvec = {(alpha, index[h + 1][(tmask, tg)]): c
                        for (alpha, tmask, tg), c in img.items()}
                columns.append(project_top(qvec) if h + 1 == cut else qvec)
            family.append(columns)
        family.append(None)
        eact.append(family)

    return KoszulComplex(spec, layers, diff, eact, res.module)


# ---------------------------------------------------------------------------
# the degreewise Betti oracle over R
# ---------------------------------------------------------------------------

class BettiTable:
    def __init__(self, entries, imax, dmax):
        self.entries = dict(entries)  # (i, j) -> count
        self.imax = imax
        self.dmax = dmax

    def total(self, i):
        return sum(v for (ii, _), v in self.entries.items() if ii == i)

    def totals(self):
        return [self.total(i) for i in range(self.imax + 1)]

    def projective_dimension(self):
        """sup{i : b_i != 0} within the window, or None if it reaches imax."""
        nonzero = [i for i in range(self.imax + 1) if self.total(i)]
        if not nonzero:
            return 0
        top = max(nonzero)
        return top if top < self.imax else None

    def to_json(self):
        return {
            "imax": self.imax,
            "dmax": self.dmax,
            "entries": [[i, j, v] for (i, j), v in sorted(self.entries.items())],
        }

    def __repr__(self):
        return f"BettiTable(totals={self.totals()})"


def minimal_R_resolution(module: ModulePresentation, imax: int,
                         dmax: int) -> BettiTable:
    """Graded Betti numbers of M over R by degreewise linear algebra.

    Independent of the Groebner/operator path: R-arithmetic is monomial
    normal forms, kernels are exact echelon computations per degree.
    """
    from .linalg import kernel_basis

    spec = module.spec
    module = module.normalized()
    one = CycScalar.one(spec.m)
    entries = {}

    gen_degs = [d for d, _ in module.gens]
    # degrees from the lowest generator's up; a monomial factor has degree
    # at most dmax minus that, and reducible factors only ever give zero
    degrees = range(min(gen_degs, default=0), dmax + 1)
    rbasis = [standard_monomials(spec.qring, d, spec.rel_exps)
              for d in range(len(degrees))]

    def r_basis(d):
        return rbasis[d] if d >= 0 else ()

    for j in gen_degs:
        if j <= dmax:
            entries[(0, j)] = entries.get((0, j), 0) + 1

    columns = [_mult_into_slice(spec, spec.qring.zero_exp(), c)
               for c in module.relations]
    columns = [c for c in columns if c]
    curr_degs, curr_columns = gen_degs, columns

    for step in range(1, imax + 1):
        # kernel slices of the current map per internal degree
        kernel_slices = {}
        if step == 1:
            # the kernel of F_0 -> M is spanned by the relation columns
            for d in degrees:
                ech = Echelon()
                vecs = []
                for col in curr_columns:
                    cdeg = _col_degree(spec, col, gen_degs)
                    for delta in r_basis(d - cdeg):
                        moved = _mult_into_slice(spec, delta, col)
                        if moved:
                            piv, _ = ech.add(dict(moved))
                            if piv is not None:
                                vecs.append(moved)
                kernel_slices[d] = vecs
        else:
            for d in degrees:
                cols_d, keys_d = [], []
                for comp, cd in enumerate(curr_degs):
                    for mono in r_basis(d - cd):
                        cols_d.append(
                            _mult_into_slice(spec, mono, curr_columns[comp]))
                        keys_d.append((mono, comp))
                vecs = []
                for kv in kernel_basis(cols_d, one):
                    vec = {}
                    for idx, c in kv.items():
                        add_term(vec, keys_d[idx], c)
                    if vec:
                        vecs.append(vec)
                kernel_slices[d] = vecs

        # minimal generators: kernel slice modulo x_l * (lower slices)
        new_cols, new_degs = [], []
        for d in degrees:
            ech = Echelon()
            for l in range(spec.n):
                delta = tuple(1 if k == l else 0 for k in range(spec.n))
                for v in kernel_slices.get(d - spec.degrees[l], []):
                    moved = _mult_into_slice(spec, delta, v)
                    if moved:
                        ech.add(dict(moved))
            for v in kernel_slices.get(d, []):
                piv, _ = ech.add(dict(v))
                if piv is not None:
                    entries[(step, d)] = entries.get((step, d), 0) + 1
                    new_cols.append(dict(v))
                    new_degs.append(d)

        curr_degs, curr_columns = new_degs, new_cols
        if not curr_columns:
            break

    return BettiTable(entries, imax, dmax)


def _col_degree(spec, col, gen_degs):
    degs = {spec.qring.deg(exps) + gen_degs[comp]
            for (exps, comp) in col}
    if len(degs) != 1:
        raise ValueError("inhomogeneous column")
    return degs.pop()


def _mult_into_slice(spec, delta, col):
    """x^delta * col in R, where a term whose monomial is divisible by a
    relation's dies; distinct terms of col stay distinct, so each product
    term is stored as it is."""
    ring = spec.qring
    leads = spec.rel_exps
    m = spec.m
    out = {}
    for (alpha, comp), c in col.items():
        exps = tuple([a + b for a, b in zip(delta, alpha)])
        for lead in leads:
            if all([a >= b for a, b in zip(exps, lead)]):
                break
        else:
            e = ring.cpair_exp(delta, alpha) % m
            out[(exps, comp)] = c * ring.zeta_pow(e) if e else c
    return out
