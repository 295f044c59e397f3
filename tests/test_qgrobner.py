import random

from skewci.colorcore import (
    QRing,
    RingSpec,
    parse_poly,
    poly_to_string,
    standard_monomials,
)
from skewci.qgrobner import (
    GroebnerBasis,
    Order,
    annihilator_ideal,
    buchberger,
    hilbert_numerator,
    interreduce_ideal,
    minimalize_presentation,
    monomial_dimension,
    poly_mul_vector,
    syzygy_module,
)
from skewci.scalars import CycScalar
from skewci.sparse import add_scaled

from fixtures import example_ring, random_exponent, random_ring, rank


def commutative_ring(nvars, names=None):
    names = names or tuple(f"t{i+1}" for i in range(nvars))
    return QRing(1, names, (1,) * nvars, [[0] * nvars for _ in range(nvars)])


def quotient_dims(ring, shifts, lead_monos, cutoff):
    """dim_k per degree of (free module on shifts)/(monomial lead module)."""
    dims = [0] * (cutoff + 1)
    by_comp = {}
    for exps, comp in lead_monos:
        by_comp.setdefault(comp, []).append(exps)
    for comp, shift in enumerate(shifts):
        if shift > cutoff:
            continue
        leads = by_comp.get(comp, [])
        local = [len(standard_monomials(ring, d, leads))
                 for d in range(cutoff - shift + 1)]
        for d, v in enumerate(local):
            dims[d + shift] += v
    return dims


def gb_to_json(gb: GroebnerBasis, ncomps: int):
    """Order descriptor plus element list in the polynomial grammar."""
    ring = gb.ring
    elements = []
    for element in gb.elements:
        entries = []
        for comp in range(ncomps):
            terms = {exps: c for (exps, cc), c in element.items()
                     if cc == comp}
            entries.append(poly_to_string(ring, terms))
        elements.append(entries)
    return {
        "order": {"terms": "degrevlex", "modules": "position-over-term",
                  "weights": list(ring.degs)},
        "ncomps": ncomps,
        "elements": elements,
    }


def gb_from_json(doc, ring) -> GroebnerBasis:
    elements = []
    for entries in doc["elements"]:
        element = {}
        for comp, text in enumerate(entries):
            for exps, c in parse_poly(ring, text).items():
                element[(exps, comp)] = c
        elements.append(element)
    return GroebnerBasis(ring, Order(ring), elements)


def vec(ring, poly, comp=0):
    return {(e, comp): c for e, c in poly.items()}


def poly_vec(ring, text, comp=0):
    return vec(ring, parse_poly(ring, text), comp)


def test_gb_single_monomial():
    spec = example_ring()
    gb = buchberger([poly_vec(spec.qring, "x1^2")], spec.qring)
    assert len(gb.elements) == 1


def test_gb_example_ring_dimension():
    spec = example_ring()
    ring = spec.qring
    gb = buchberger([poly_vec(ring, "x1^2"), poly_vec(ring, "x2^2")], ring)
    leads = [m for m, _ in gb.leads]
    dims = quotient_dims(ring, [0], leads, 6)
    assert dims == [1, 2, 1, 0, 0, 0, 0]
    assert sum(dims) == 4


def test_gb_commutative_hand_run():
    # k[t1,t2], ideal (t1*t2, t1^2): normal monomials 1, t1, t2^j
    ring = commutative_ring(2)
    gb = buchberger(
        [poly_vec(ring, "t1*t2"), poly_vec(ring, "t1^2")], ring)
    leads = sorted(m for m, _ in gb.leads)
    assert leads == [((1, 1), 0), ((2, 0), 0)]
    dims = quotient_dims(ring, [0], leads, 5)
    assert dims == [1, 2, 1, 1, 1, 1]


def test_normal_form_powers():
    spec = example_ring()
    ring = spec.qring
    gb = buchberger([poly_vec(ring, "x1^2")], ring)
    nf = gb.normal_form(poly_vec(ring, "x1^3"))[0]
    assert not nf


def test_normal_form_reorders_nothing_without_basis():
    spec = example_ring()
    ring = spec.qring
    gb = buchberger([], ring)
    target = poly_vec(ring, "x2*x1")
    nf = gb.normal_form(target)[0]
    # x2*x1 parses to q_21 x1x2 already; empty basis leaves it alone
    assert nf == target
    assert list(nf) == [((1, 1), 0)]


def test_normal_form_strips_ideal_part():
    spec = example_ring()
    ring = spec.qring
    gb = buchberger([poly_vec(ring, "x1^2")], ring)
    nf = gb.normal_form(poly_vec(ring, "x1^2 + x1*x2"))[0]
    assert nf == poly_vec(ring, "x1*x2")


def test_syzygy_of_regular_element():
    spec = example_ring()
    assert syzygy_module([poly_vec(spec.qring, "x1")], spec.qring) == []


def test_syzygy_koszul_pair_skew():
    spec = example_ring()
    ring = spec.qring
    f = [poly_vec(ring, "x1^2"), poly_vec(ring, "x2^2")]
    syz = syzygy_module(f, ring)
    assert len(syz) == 1
    s = syz[0]
    # s = a e_1 + b e_2 with a x1^2 + b x2^2 = 0; the Koszul syzygy carries
    # the cpair((0,2),(2,0)) reordering scalar
    check = {}
    for (exps, idx), coeff in s.items():
        add_scaled(check, poly_mul_vector(ring, {exps: coeff}, f[idx]))
    assert not check


def test_syzygy_koszul_pair_commutative():
    ring = commutative_ring(2)
    f = [poly_vec(ring, "t1"), poly_vec(ring, "t2")]
    syz = syzygy_module(f, ring)
    assert len(syz) == 1
    s = syz[0]
    mono = {exps for (exps, _) in s}
    assert mono == {(0, 1), (1, 0)}


def test_membership_against_bruteforce():
    # membership (normal_form == 0) agrees with degreewise linear algebra
    rng = random.Random(42)
    for _ in range(8):
        spec = random_ring(rng, nmax=2)
        ring = spec.qring
        gens = []
        for _ in range(rng.randint(1, 2)):
            exps = random_exponent(rng, spec.n, 3)
            gens.append({(exps, 0): CycScalar.one(spec.m)})
        gb = buchberger(gens, ring)
        for _ in range(6):
            exps = random_exponent(rng, spec.n, 6)
            target = {(exps, 0): CycScalar.one(spec.m)}
            d = ring.deg(exps)
            # brute force: span of all monomial multiples of gens in degree d
            span = []
            for g in gens:
                gdeg = ring.deg(next(iter(g))[0])
                for delta in _all_exps(spec.n, d - gdeg, ring):
                    span.append(poly_mul_vector(
                        ring, {delta: CycScalar.one(spec.m)}, g))
            in_span = rank(span + [target]) == rank(span)
            assert gb.contains(target) == in_span


def _all_exps(n, deg, ring):
    """All exponent vectors of weighted degree exactly deg."""
    out = []
    if deg < 0:
        return out
    exps = [0] * n

    def walk(i, rem):
        if i == n:
            if rem == 0:
                out.append(tuple(exps))
            return
        e = 0
        while e * ring.degs[i] <= rem:
            exps[i] = e
            walk(i + 1, rem - e * ring.degs[i])
            e += 1
        exps[i] = 0

    walk(0, deg)
    return out


def test_hilbert_series_skew_line():
    ring = QRing(4, ("x1",), (1,), [[0]])
    gb = buchberger([], ring)
    dims = quotient_dims(ring, [0], [], 5)
    assert dims == [1, 1, 1, 1, 1, 1]


def test_hilbert_series_theta_quotient():
    ring = commutative_ring(2)
    leads = [((0, 1), 0)]  # ideal (t2)
    dims = quotient_dims(ring, [0], leads, 4)
    assert dims == [1, 1, 1, 1, 1]


def test_hilbert_numerator_and_dimension():
    # k[t1,t2]/(t2): HS = 1/(1-t), numerator (1-t) over (1-t)^2
    num = hilbert_numerator([(0, 1)], (1, 1))
    assert num == {0: 1, 1: -1}
    assert monomial_dimension([(0, 1)], 2) == 1
    assert monomial_dimension([], 2) == 2
    assert monomial_dimension([(1, 0), (0, 1)], 2) == 0
    assert monomial_dimension([(0, 0)], 2) == -1


def test_minimalize_presentation_unit_entry():
    ring = commutative_ring(2)
    one = CycScalar.one(1)
    # gens g0, g1 with relation g1 = t1 g0  (unit entry at g1)
    col = {((1, 0), 0): one, ((0, 0), 1): -one}
    kept, cols, proj = minimalize_presentation(2, [col], ring)
    assert kept == [0]
    assert cols == []
    assert proj[1] == {((1, 0), 0): one}


def test_minimalize_presentation_chained_unit_eliminations():
    ring = commutative_ring(2)
    one = CycScalar.one(1)
    # g2 = t1 g1 is eliminated first, its expression mentions g1, and then
    # g1 = t2 g0 is eliminated; g2 must end as t1 t2 g0
    first = {((0, 0), 2): one, ((1, 0), 1): -one}
    second = {((0, 0), 1): one, ((0, 1), 0): -one}
    kept, cols, proj = minimalize_presentation(4, [first, second], ring)
    assert kept == [0, 3]
    assert cols == []
    assert proj == {
        0: {((0, 0), 0): one},
        1: {((0, 1), 0): one},
        2: {((1, 1), 0): one},
        3: {((0, 0), 3): one},
    }


def test_minimalize_presentation_substitutes_only_mentioning_columns():
    ring = commutative_ring(2)
    one = CycScalar.one(1)
    columns = [
        {((0, 0), 1): one, ((1, 0), 2): -one},   # g1 = t1 g2, eliminated 1st
        {((0, 1), 1): one, ((1, 0), 3): one},    # gains g2 from g1
        {((1, 0), 1): one, ((2, 0), 2): -one},   # t1 * first: becomes empty
        {((0, 0), 2): one, ((0, 1), 0): -one},   # g2 = t2 g0, eliminated 2nd
        {((0, 1), 2): one, ((0, 1), 4): one},    # left alone by the 1st
    ]
    kept, cols, proj = minimalize_presentation(5, columns, ring)
    assert kept == [0, 3, 4]
    # t2 g1 + t1 g3 -> t1 g3 + t1 t2 g2 -> t1 g3 + t1 t2^2 g0
    # t2 g2 + t2 g4 -> t2 g4 + t2^2 g0
    assert [list(col.items()) for col in cols] == [
        [(((1, 0), 3), one), (((1, 2), 0), one)],
        [(((0, 1), 4), one), (((0, 2), 0), one)],
    ]
    assert proj == {
        0: {((0, 0), 0): one},
        1: {((1, 1), 0): one},
        2: {((0, 1), 0): one},
        3: {((0, 0), 3): one},
        4: {((0, 0), 4): one},
    }


def test_annihilator_of_cyclic_module():
    ring = commutative_ring(2)
    one = CycScalar.one(1)
    # coker of (t2) on one generator twice: ann((k[t]/(t2))^2) = (t2)
    cols = [{((0, 1), 0): one}, {((0, 1), 1): one}]
    ann = annihilator_ideal(cols, 2, ring)
    assert len(ann) == 1
    assert list(ann[0]) == [((0, 1), 0)]


def test_annihilator_zero_module_is_unit():
    ring = commutative_ring(2)
    ann = annihilator_ideal([], 0, ring)
    assert ann and list(ann[0]) == [((0, 0), 0)]


def test_annihilator_free_module_is_zero():
    ring = commutative_ring(2)
    ann = annihilator_ideal([], 2, ring)
    assert ann == []


def test_interreduce_drops_redundant():
    ring = commutative_ring(2)
    gens = [poly_vec(ring, "t1"), poly_vec(ring, "t1^2"),
            poly_vec(ring, "t1*t2")]
    red = interreduce_ideal(gens, ring)
    assert len(red) == 1
    assert list(red[0]) == [((1, 0), 0)]


def test_interreduce_keeps_one_of_repeated_generators():
    ring = commutative_ring(2, ("th1", "th2"))
    th1 = poly_vec(ring, "th1")
    assert interreduce_ideal([th1, th1], ring) == [th1]
    # equal leading monomials, different tails
    red = interreduce_ideal([poly_vec(ring, "th1 + th2"), th1], ring)
    assert sorted(red, key=str) == sorted([th1, poly_vec(ring, "th2")],
                                          key=str)


def test_exactness_of_resolutions_randomized():
    rng = random.Random(99)
    for _ in range(5):
        spec = random_ring(rng, nmax=2)
        ring = spec.qring
        gens = []
        for _ in range(rng.randint(1, 2)):
            exps = random_exponent(rng, spec.n, 3)
            if sum(exps) == 0:
                continue
            gens.append({(exps, 0): CycScalar.one(spec.m)})
        if not gens:
            continue
        # iterated syzygies: each map composed with the one before is zero
        steps = [gens]
        while steps[-1] and len(steps) < 4:
            steps.append(syzygy_module(steps[-1], ring))
        for i in range(1, len(steps)):
            mat_prev, mat = steps[i - 1], steps[i]
            for col in mat:
                image = {}
                for (exps, comp), coeff in col.items():
                    add_scaled(image, poly_mul_vector(
                        ring, {exps: coeff}, mat_prev[comp]))
                assert not image


def test_gb_json_roundtrip():
    spec = example_ring()
    ring = spec.qring
    gb = buchberger([poly_vec(ring, "x1^2"), poly_vec(ring, "x2^2")], ring)
    doc = gb_to_json(gb, 1)
    again = gb_from_json(doc, ring)
    assert sorted(map(sorted, (g.items() for g in again.elements)),
                  key=str) == \
        sorted(map(sorted, (g.items() for g in gb.elements)), key=str)
    assert doc["order"]["terms"] == "degrevlex"


def test_weighted_degrees_supported():
    # internal degrees are configurable; d = (1, 2)
    spec = RingSpec(2, 4, [[0, 1], [-1, 0]], degrees=[1, 2],
                    relations=["x1^2", "x2^2"])
    from skewci.colorcore import validate_ring

    report = validate_ring(spec)
    assert report.ok
    # H_R = (1-t^2)(1-t^4)/((1-t)(1-t^2)) = (1+t)(1+t^2)
    assert report.hilbert_dims[:6] == [1, 1, 1, 1, 0, 0]


def test_canonical_order_matches_rational_order():
    # syzygies and reduced bases are sorted on integer numerators over one
    # common denominator; the order is the one the Fraction coefficients
    # give, here on vectors that share monomials and differ in scalars
    from fractions import Fraction

    from skewci.qgrobner import _canonical_sorted

    rng = random.Random(25)
    for m in (1, 5, 12):
        phi = len(CycScalar.one(m).n)
        monos = [((1, 0), 0), ((0, 1), 0), ((1, 1), 1)]
        vecs = []
        for _ in range(40):
            vec = {}
            for mono in rng.sample(monos, rng.randint(1, 3)):
                coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                          for _ in range(phi)]
                if any(coeffs):
                    vec[mono] = CycScalar(m, coeffs)
            vecs.append(vec)
        want = sorted(vecs, key=lambda vec: sorted(
            (mono, c.c) for mono, c in vec.items()))
        assert _canonical_sorted(vecs) == want
