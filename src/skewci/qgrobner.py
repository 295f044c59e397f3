"""Left Groebner bases over quantum affine spaces and their specializations.

One engine serves the base ring Q, chi-extensions, and commutative
polynomial rings (all commutation scalars 1): only the leading-coefficient
arithmetic changes, through the reordering pairing of the QRing.

Module elements are dicts {(exponent tuple, component index): CycScalar}.
Left multiplication by x^d sends (a, comp) to cpair(d, a) x^(d+a) e_comp.
The default order is weighted degree-reverse-lexicographic on terms with
position-over-term for modules.  Syzygies are collected Schreyer-style from
s-pair reductions with full lift tracking.
"""

from __future__ import annotations

from .colorcore import QRing
from .scalars import CycScalar
from .sparse import add_scaled, add_term

__all__ = [
    "Order",
    "GroebnerBasis",
    "buchberger",
    "syzygy_module",
    "normal_form",
    "vector_scale",
    "poly_mul_vector",
    "minimalize_presentation",
    "minimal_free_resolution",
    "annihilator_ideal",
    "interreduce_ideal",
    "hilbert_numerator",
    "monomial_dimension",
]


class Order:
    """Weighted degrevlex on terms, position-over-term on components."""

    __slots__ = ("ring",)

    def __init__(self, ring: QRing):
        self.ring = ring

    def key(self, mono):
        exps, comp = mono
        return (-comp, self.ring.deg(exps), tuple(-e for e in reversed(exps)))


# -- raw vector helpers ------------------------------------------------------

def vector_scale(vec, scale):
    return {m: c * scale for m, c in vec.items()}


def mono_mul_vector(ring, scale, delta, vec):
    """scale * x^delta * vec."""
    out = {}
    for (alpha, comp), coeff in vec.items():
        add_term(out, (tuple(d + a for d, a in zip(delta, alpha)), comp),
                 ring.cpair(delta, alpha) * coeff * scale)
    return out


def poly_mul_vector(ring, poly_terms, vec):
    """(sum of scalar*x^delta) * vec for a poly given as {exps: scalar}."""
    out = {}
    for delta, s in poly_terms.items():
        add_scaled(out, mono_mul_vector(ring, s, delta, vec))
    return out


def leading(vec, order):
    mono = max(vec, key=order.key)
    return mono, vec[mono]


def _divides(beta, alpha):
    return all(b <= a for b, a in zip(beta, alpha))


# -- Groebner bases ----------------------------------------------------------

class GroebnerBasis:
    """A left Groebner basis with optional lifts to the input generators."""

    def __init__(self, ring, order, elements, lifts=None, syzygies=None):
        self.ring = ring
        self.order = order
        self.elements = elements
        self.leads = [leading(g, order) for g in elements]
        self.lifts = lifts
        self.syzygies = syzygies

    def normal_form(self, vec, want_lift=False):
        """Canonical remainder (fully reduced); optionally the lift.

        With want_lift the second return value q satisfies
        vec = sum_k q[k] * elements[k] + remainder, with q[k] polynomial
        dicts acting by left multiplication.
        """
        return _reduce_full(self.ring, self.order, vec, self.elements,
                            self.leads, want_lift)

    def contains(self, vec) -> bool:
        nf, _ = self.normal_form(vec)
        return not nf

    def lift_to_inputs(self, vec):
        """Express vec over the original generators; None if not a member."""
        if self.lifts is None:
            raise ValueError("basis was computed without lift tracking")
        nf, q = self.normal_form(vec, want_lift=True)
        if nf:
            return None
        out = {}
        for k, poly in q.items():
            add_scaled(out, poly_mul_vector(self.ring, poly, self.lifts[k]))
        return out


def _reduce_full(ring, order, vec, elements, leads, want_lift):
    vec = dict(vec)
    quotients = {} if want_lift else None
    done_upto = None  # all terms with key > done_upto are irreducible
    while True:
        candidates = sorted(vec, key=order.key, reverse=True)
        hit = False
        for mono in candidates:
            if done_upto is not None and order.key(mono) >= done_upto:
                continue
            exps, comp = mono
            for k, ((lexps, lcomp), lcoeff) in enumerate(leads):
                if lcomp != comp or not _divides(lexps, exps):
                    continue
                delta = tuple(a - b for a, b in zip(exps, lexps))
                scale = vec[mono] / (ring.cpair(delta, lexps) * lcoeff)
                add_scaled(vec, mono_mul_vector(ring, -scale, delta,
                                                elements[k]))
                if want_lift:
                    add_term(quotients.setdefault(k, {}), delta, scale)
                hit = True
                break
            if hit:
                break
            done_upto = order.key(mono)
        if not hit:
            if want_lift:
                return vec, {k: q for k, q in quotients.items() if q}
            return vec, None


def buchberger(gens, ring, want_lifts=False, want_syzygies=False):
    """Left Groebner basis of the module generated by gens.

    Terminates by Dickson's lemma; no pair-skipping criteria are applied
    because the product criterion is unsound for scaled leading terms.
    """
    import heapq

    order = Order(ring)
    track = want_lifts or want_syzygies
    elements, lifts, leads = [], [], []
    zero_exp = ring.zero_exp()
    one = CycScalar.one(ring.m)
    syzygies = []

    for idx, g in enumerate(gens):
        if not g:
            # a zero generator contributes its unit vector as a syzygy
            if want_syzygies:
                syzygies.append({(zero_exp, idx): one})
            continue
        elements.append(dict(g))
        leads.append(leading(g, order))
        if track:
            lifts.append({(zero_exp, idx): one})

    pairs = []
    for i in range(len(elements)):
        for j in range(i):
            _maybe_add_pair(pairs, leads, ring, i, j)
    heapq.heapify(pairs)

    while pairs:
        _, i, j = heapq.heappop(pairs)
        spoly, slift = _s_poly(ring, order, elements, leads,
                               lifts if track else None, i, j)
        nf, q = _reduce_full(ring, order, spoly, elements, leads, track)
        if track:
            for k, poly in (q or {}).items():
                add_scaled(slift, poly_mul_vector(ring, poly, lifts[k]),
                           scale=_neg_one(ring))
        if nf:
            new_idx = len(elements)
            elements.append(nf)
            leads.append(leading(nf, order))
            if track:
                lifts.append(slift)
            for k in range(new_idx):
                _maybe_add_pair(pairs, leads, ring, new_idx, k, heap=True)
        elif track and want_syzygies and slift:
            syzygies.append(slift)

    gb = GroebnerBasis(ring, order, elements,
                       lifts=lifts if track else None,
                       syzygies=syzygies if want_syzygies else None)
    return gb


def _neg_one(ring):
    return -CycScalar.one(ring.m)


def _maybe_add_pair(pairs, leads, ring, i, j, heap=False):
    import heapq

    (aexps, acomp), _ = leads[i]
    (bexps, bcomp), _ = leads[j]
    if acomp != bcomp:
        return
    gamma = tuple(max(a, b) for a, b in zip(aexps, bexps))
    item = ((ring.deg(gamma), gamma, acomp, i, j), i, j)
    if heap:
        heapq.heappush(pairs, item)
    else:
        pairs.append(item)


def _s_poly(ring, order, elements, leads, lifts, i, j):
    (aexps, comp), ac = leads[i]
    (bexps, _), bc = leads[j]
    gamma = tuple(max(a, b) for a, b in zip(aexps, bexps))
    da = tuple(g - a for g, a in zip(gamma, aexps))
    db = tuple(g - b for g, b in zip(gamma, bexps))
    sa = (ring.cpair(da, aexps) * ac).inverse()
    sb = (ring.cpair(db, bexps) * bc).inverse()
    spoly = mono_mul_vector(ring, sa, da, elements[i])
    add_scaled(spoly, mono_mul_vector(ring, -sb, db, elements[j]))
    slift = None
    if lifts is not None:
        slift = mono_mul_vector(ring, sa, da, lifts[i])
        add_scaled(slift, mono_mul_vector(ring, -sb, db, lifts[j]))
    return spoly, slift


def syzygy_module(gens, ring):
    """Generators of the left syzygy module of gens (Schreyer-style)."""
    gens = list(gens)
    gb = buchberger(gens, ring, want_syzygies=True)
    out = [s for s in gb.syzygies if s]
    return sorted(out, key=_canonical_vec_key)


def _canonical_vec_key(vec):
    return sorted((m, tuple(c.c)) for m, c in vec.items())


def normal_form(vec, gb: GroebnerBasis):
    nf, _ = gb.normal_form(vec)
    return nf


# -- presentations -----------------------------------------------------------

def _substitute(vec, comp, expr, ring):
    """vec with e_comp replaced by expr, or None if vec does not mention it.

    Surviving terms keep their order and new terms follow them.
    """
    entry_terms = {exps: c for (exps, cc), c in vec.items() if cc == comp}
    if not entry_terms:
        return None
    out = {m: c for m, c in vec.items() if m[1] != comp}
    add_scaled(out, poly_mul_vector(ring, entry_terms, expr))
    return out


def minimalize_presentation(ncomps, columns, ring):
    """Eliminate unit entries from a graded presentation.

    Returns (kept, cols, proj): kept is the list of surviving component
    indices, cols the remaining relation columns written over the kept
    components, and proj maps each original component index to its
    expression over kept components (identity on kept ones).  Each step
    eliminates the first unit entry of the first column that has one.
    """
    zero_exp = ring.zero_exp()
    one = CycScalar.one(ring.m)

    def has_unit(col):
        return any(exps == zero_exp for exps, _c in col)

    cols = {ci: dict(c) for ci, c in enumerate(columns) if c}
    units = {ci for ci, col in cols.items() if has_unit(col)}
    alive = set(range(ncomps))
    proj = {i: {(zero_exp, i): one} for i in range(ncomps)}
    # component -> column ids / proj keys whose vector may mention it
    col_mentions = {}
    for ci, col in cols.items():
        for _e, cc in col:
            col_mentions.setdefault(cc, set()).add(ci)
    mentioned_by = {i: {i} for i in range(ncomps)}

    while units:
        ci = min(units)
        units.discard(ci)
        col = cols.pop(ci)
        comp, coeff = next((cc, c) for (exps, cc), c in col.items()
                           if exps == zero_exp)
        inv = coeff.inverse()
        # e_comp = -inv * (col - coeff e_comp), substituted everywhere
        expr = {m: -(c * inv) for m, c in col.items() if m != (zero_exp, comp)}
        alive.discard(comp)
        expr_comps = {cc for (_e, cc) in expr}
        for cj in col_mentions.pop(comp, ()):
            if cj not in cols:
                continue
            other = _substitute(cols[cj], comp, expr, ring)
            if other is None:
                continue
            units.discard(cj)
            if not other:
                del cols[cj]
                continue
            cols[cj] = other
            if has_unit(other):
                units.add(cj)
            for cc in expr_comps:
                col_mentions.setdefault(cc, set()).add(cj)
        for key in mentioned_by.pop(comp, ()):
            pvec = _substitute(proj[key], comp, expr, ring)
            if pvec is not None:
                proj[key] = pvec
                for cc in expr_comps:
                    mentioned_by.setdefault(cc, set()).add(key)

    kept = sorted(alive)
    return kept, list(cols.values()), proj


def minimal_free_resolution(columns, ncomps, shifts, ring, max_steps=32):
    """Minimal graded free resolution of coker(columns) by iterated syzygies.

    Returns a list of (shifts_i, matrix_i) pairs where matrix_i is the list
    of relation columns over the previous step's components; stops when the
    syzygy module vanishes or after max_steps.
    """
    kept, cols, _ = minimalize_presentation(ncomps, columns, ring)
    remap = {old: new for new, old in enumerate(kept)}
    cols = [{(e, remap[c]): v for (e, c), v in col.items()} for col in cols]
    shifts = [shifts[k] for k in kept]
    steps = [(shifts, None)]
    current = cols
    while current and len(steps) <= max_steps:
        degs = [_column_degree(col, steps[-1][0], ring) for col in current]
        steps.append((degs, current))
        syz = syzygy_module(current, ring)
        kept2, syz_cols, _ = minimalize_presentation(len(current), syz, ring)
        remap2 = {old: new for new, old in enumerate(kept2)}
        keptset = set(kept2)
        # components eliminated from the syzygy presentation correspond to
        # non-minimal relations; rebuild current accordingly
        if len(kept2) != len(current):
            current2 = [current[k] for k in kept2]
            degs = [degs[k] for k in kept2]
            steps[-1] = (degs, current2)
            syz = [{(e, remap2[c]): v for (e, c), v in col.items()}
                   for col in syz_cols]
            current = syz
        else:
            current = [{(e, remap2[c]): v for (e, c), v in col.items()}
                       for col in syz_cols]
    return steps


def _column_degree(col, shifts, ring):
    degs = {ring.deg(exps) + shifts[comp] for (exps, comp) in col}
    if len(degs) != 1:
        raise ValueError("inhomogeneous column in graded presentation")
    return degs.pop()


# -- ideal arithmetic (used over the commutative theta ring) ----------------

def interreduce_ideal(gens, ring):
    """Reduced Groebner basis of the ideal generated by gens (component 0)."""
    order = Order(ring)
    gb = buchberger([g for g in gens if g], ring)
    # a minimal basis: one element per minimal leading monomial
    lead_exps = [exps for (exps, _comp), _ in gb.leads]
    keep = [i for i, e in enumerate(lead_exps)
            if not any(_divides(f, e) and (f != e or j < i)
                       for j, f in enumerate(lead_exps) if j != i)]
    elems = [gb.elements[i] for i in keep]
    leads = [gb.leads[i] for i in keep]
    # tail-reduce and normalize lead coefficients
    final = []
    for i, g in enumerate(elems):
        nf, _ = _reduce_full(ring, order, g, elems[:i] + elems[i + 1:],
                             leads[:i] + leads[i + 1:], False)
        _, lc = leading(nf, order)
        final.append(vector_scale(nf, lc.inverse()))
    return sorted(final, key=_canonical_vec_key)


def colon_ideal(columns, ring, comp):
    """(N : e_comp) for the submodule N spanned by columns."""
    zero_exp = ring.zero_exp()
    one = CycScalar.one(ring.m)
    gens = [{(zero_exp, comp): one}] + list(columns)
    syz = syzygy_module(gens, ring)
    out = []
    for s in syz:
        poly = {exps: c for (exps, idx), c in s.items() if idx == 0}
        if poly:
            out.append({(exps, 0): c for exps, c in poly.items()})
    return out


def ideal_intersect(igens, jgens, ring):
    """I cap J via syzygies of the concatenated generator list."""
    if not igens:
        return []
    if not jgens:
        return []
    gens = list(igens) + list(jgens)
    syz = syzygy_module(gens, ring)
    ni = len(igens)
    out = []
    for s in syz:
        elt = {}
        for (exps, idx), c in s.items():
            if idx < ni:
                add_scaled(elt, poly_mul_vector(ring, {exps: c}, igens[idx]))
        if elt:
            out.append(elt)
    return interreduce_ideal(out, ring)


def annihilator_ideal(columns, ncomps, ring):
    """Annihilator of coker(columns) in a free module with ncomps components.

    Returns a reduced Groebner basis (component-0 vectors).  The zero module
    (ncomps == 0) has unit annihilator.
    """
    one = CycScalar.one(ring.m)
    if ncomps == 0:
        return [{(ring.zero_exp(), 0): one}]
    per_comp = []
    for comp in range(ncomps):
        cols = [c for c in columns if c]
        per_comp.append(interreduce_ideal(
            colon_ideal(cols, ring, comp), ring))
    result = per_comp[0]
    for nxt in per_comp[1:]:
        if not result:
            return []
        if _is_unit_ideal(result, ring):
            result = nxt
            continue
        if not nxt:
            return []
        if _is_unit_ideal(nxt, ring):
            continue
        result = ideal_intersect(result, nxt, ring)
    return interreduce_ideal(result, ring)


def _is_unit_ideal(gens, ring):
    zero_exp = ring.zero_exp()
    return any((zero_exp, 0) in g and len(g) == 1 for g in gens)


# -- Hilbert data ------------------------------------------------------------

def hilbert_numerator(lead_exps, weights):
    """Numerator N with HS(k[v]/I) = N(t)/prod(1-t^w) for monomial I.

    Returns a dict {degree: int}.  Standard recursion
    N(I + (mono)) = N(I) - t^deg(mono) N(I : mono).
    """
    gens = _prune_monomials(lead_exps)
    if not gens:
        return {0: 1}
    head, rest = gens[-1], gens[:-1]
    n_rest = hilbert_numerator(rest, weights)
    colon = [tuple(max(g - h, 0) for g, h in zip(r, head)) for r in rest]
    n_colon = hilbert_numerator(colon, weights)
    d = sum(e * w for e, w in zip(head, weights))
    out = dict(n_rest)
    for deg, c in n_colon.items():
        out[deg + d] = out.get(deg + d, 0) - c
        if not out[deg + d]:
            del out[deg + d]
    return out


def _prune_monomials(exps_list):
    uniq = sorted(set(exps_list), key=lambda e: (sum(e), e))
    out = []
    for e in uniq:
        if not any(_divides(f, e) for f in out):
            out.append(e)
    return out


def monomial_dimension(lead_exps, nvars):
    """Krull dimension of k[v_1..v_nvars]/(monomial ideal); -1 for the unit ideal."""
    gens = _prune_monomials(lead_exps)
    if any(sum(g) == 0 for g in gens):
        return -1
    from itertools import combinations

    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            sset = set(subset)
            if all(any(i not in sset for i, e in enumerate(g) if e)
                   for g in gens):
                return size
    return 0
