import itertools
import random

from skewci.colorcore import (
    RingSpec,
    monomials_of_degree,
    parse_poly,
    standard_monomials,
)
from skewci.koszul import (
    diagonal_context,
    koszul_algebra,
    phi_expand,
    verify_diagonal_resolution,
)
from skewci.scalars import CycScalar
from skewci.sparse import add_scaled, add_term

from fixtures import (
    example_ring,
    fixture_rings,
    hypersurface_ring,
    random_exponent,
    random_ring,
    skew_hypersurface_ring,
)


def scaled(u, s):
    """s * u for an element u of a DGAlgebra."""
    return {k: c * s for k, c in u.items()} if s else {}


def test_odd_square_is_zero():
    ctx = koszul_algebra(example_ring())
    e1 = ctx.term(smask=1)
    assert ctx.mul(e1, e1) == {}


def test_defining_commutation():
    spec = example_ring()
    ctx = koszul_algebra(spec)
    e1, e2 = ctx.term(smask=1), ctx.term(smask=2)
    lhs = ctx.mul(e2, e1)
    rhs = scaled(ctx.mul(e1, e2), -spec.chi_ff(1, 0))
    assert lhs == rhs


def test_coefficient_reordering_in_product():
    spec = example_ring()
    ctx = koszul_algebra(spec)
    x = ctx.from_poly(parse_poly(spec.qring, "x1"))
    y = ctx.from_poly(parse_poly(spec.qring, "x2"))
    u = ctx.mul(x, ctx.term(smask=1))      # x e_1
    v = ctx.mul(y, ctx.term(smask=2))      # y e_2
    prod = ctx.mul(u, v)
    # e_1 moves past the coefficient y: chi(gdeg f_1, gdeg y) = chi(2e_1, e_2)
    scal = spec.chi(spec.cf[0], (0, 1))
    assert prod == {((1, 1), 3, ()): scal}


def test_diff_of_generator_is_relation():
    spec = example_ring()
    ctx = koszul_algebra(spec)
    assert ctx.diff(ctx.term(smask=1)) == {((2, 0), 0, ()): spec.one()}


def test_diff_is_q_linear():
    spec = example_ring()
    ctx = koszul_algebra(spec)
    x = ctx.from_poly(parse_poly(spec.qring, "x1"))
    xe1 = ctx.mul(x, ctx.term(smask=1))
    assert ctx.diff(xe1) == {((3, 0), 0, ()): spec.one()}


def test_diff_e1e2_leibniz():
    spec = example_ring()
    ctx = koszul_algebra(spec)
    e1e2 = ctx.term(smask=3)
    d = ctx.diff(e1e2)
    # d(e1 e2) = f1 e2 - chi(f1, f2) f2 e1
    expected = {((2, 0), 2, ()): spec.one()}
    add_scaled(expected, {((0, 2), 1, ()): spec.chi_ff(0, 1)}, -spec.one())
    assert d == expected


def _random_element(rng, ctx, max_terms=3):
    spec = ctx.spec
    out = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = random_exponent(rng, spec.n, 3)
        smask = rng.randrange(1 << ctx.nodd)
        if ctx.neven:
            hvec = tuple(rng.randint(0, 2) for _ in range(ctx.neven))
        else:
            hvec = ()
        coeff = CycScalar.zeta(spec.m, rng.randrange(spec.m))
        if rng.random() < 0.3:
            coeff = coeff + 1
        add_term(out, (exps, smask, hvec), coeff)
    return out


def test_diff_squared_zero_randomized():
    rng = random.Random(314)
    for _ in range(25):
        spec = random_ring(rng)
        # diagonal_context contains the enveloping algebra E^e
        for make in (koszul_algebra, diagonal_context):
            ctx = make(spec)
            u = _random_element(rng, ctx)
            assert ctx.diff(ctx.diff(u)) == {}


def test_leibniz_randomized():
    rng = random.Random(2718)
    for _ in range(20):
        spec = random_ring(rng)
        ctx = diagonal_context(spec)
        # homogeneous u needed for the sign (-1)^{|u|}
        exps = random_exponent(rng, spec.n, 2)
        smask = rng.randrange(1 << ctx.nodd)
        hvec = tuple(rng.randint(0, 1) for _ in range(ctx.neven))
        u = {(exps, smask, hvec): CycScalar.one(spec.m)}
        v = _random_element(rng, ctx)
        sign = -1 if (bin(smask).count("1") + 2 * sum(hvec)) % 2 else 1
        lhs = ctx.diff(ctx.mul(u, v))
        rhs = ctx.mul(ctx.diff(u), v)
        add_scaled(rhs, ctx.mul(u, ctx.diff(v)),
                   CycScalar.from_rational(spec.m, sign))
        assert lhs == rhs


def test_mul_associative_randomized():
    rng = random.Random(163)
    for _ in range(15):
        spec = random_ring(rng)
        ctx = diagonal_context(spec)
        u = _random_element(rng, ctx, 2)
        v = _random_element(rng, ctx, 2)
        w = _random_element(rng, ctx, 2)
        assert ctx.mul(ctx.mul(u, v), w) == ctx.mul(u, ctx.mul(v, w))


def test_diagonal_dy_is_eprime_minus_e():
    spec = example_ring()
    ctx = diagonal_context(spec)
    y1 = ctx.term(hvec=(1, 0))
    d = ctx.diff(y1)
    expected = ctx.term(smask=1 << 2)
    add_scaled(expected, ctx.term(smask=1), -spec.one())
    assert d == expected


def test_phi_counit_and_total_degree():
    spec = example_ring()
    for hvec in [(0, 0), (1, 0), (2, 0), (1, 1), (2, 1)]:
        terms = phi_expand(spec, hvec)
        # counit: collapsing either side leaves y^(H) with scalar 1
        left = [t for t in terms if all(x == 0 for x in t[0])]
        right = [t for t in terms if all(x == 0 for x in t[1])]
        assert len(left) == 1 and left[0][1] == hvec and left[0][2].is_one()
        assert len(right) == 1 and right[0][0] == hvec and right[0][2].is_one()
        for hp, hpp, _ in terms:
            assert tuple(a + b for a, b in zip(hp, hpp)) == hvec


def test_phi_h20_all_scalars_one():
    spec = example_ring()
    terms = phi_expand(spec, (2, 0))
    assert len(terms) == 3
    assert all(s.is_one() for _, _, s in terms)


def test_phi_h11_cross_scalar():
    spec = example_ring()
    terms = dict(((hp, hpp), s) for hp, hpp, s in phi_expand(spec, (1, 1)))
    # the y_2 (x) y_1 term carries chi(y_1, y_2)^{h'_2 h''_1} = chi(f_1, f_2)
    assert terms[((0, 1), (1, 0))] == spec.chi_ff(0, 1)
    assert terms[((1, 0), (0, 1))].is_one()
    assert terms[((1, 1), (0, 0))].is_one()


def test_phi_coassociative():
    rng = random.Random(55)
    for _ in range(6):
        spec = random_ring(rng)
        c = spec.c
        hvecs = []
        for total in range(5):
            for h in _compositions(total, c):
                hvecs.append(h)
        for hvec in hvecs:
            if sum(hvec) > 4:
                continue
            lhs = {}
            for hp, hpp, s in phi_expand(spec, hvec):
                for hq, hr, s2 in phi_expand(spec, hp):
                    key = (hq, hr, hpp)
                    lhs[key] = lhs.get(key, CycScalar.zero(spec.m)) + s * s2
            rhs = {}
            for hp, hpp, s in phi_expand(spec, hvec):
                for hq, hr, s2 in phi_expand(spec, hpp):
                    key = (hp, hq, hr)
                    rhs[key] = rhs.get(key, CycScalar.zero(spec.m)) + s * s2
            lhs = {k: v for k, v in lhs.items() if v}
            rhs = {k: v for k, v in rhs.items() if v}
            assert lhs == rhs


def _compositions(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def test_diagonal_resolution_example_ring():
    report = verify_diagonal_resolution(example_ring(), 6)
    assert report.ok, report.failures


def test_diagonal_resolution_commutative_hypersurface():
    report = verify_diagonal_resolution(hypersurface_ring(), 6)
    assert report.ok, report.failures


def test_diagonal_resolution_detects_corruption(monkeypatch):
    from skewci import koszul

    def corrupted(spec):
        ctx = diagonal_context(spec)
        # drop the e' part of d(y_1): no longer a resolution
        ctx.even_diff[0] = scaled(ctx.term(smask=1), -spec.one())
        return ctx

    monkeypatch.setattr(koszul, "diagonal_context", corrupted)
    spec = example_ring()
    report = verify_diagonal_resolution(spec, 4)
    assert not report.ok
    assert any(h == 2 for h, _, _, _ in report.failures)


def test_standard_monomials_match_filtered_enumeration():
    # the pruned walk yields exactly the standard monomials of a full
    # enumeration, in its lexicographic order, for relation leads, random
    # lead sets and no leads at all (monomials_of_degree)
    rng = random.Random(2718)
    specs = fixture_rings() + [skew_hypersurface_ring()]
    specs.append(RingSpec(2, 4, [[0, 1], [-1, 0]], degrees=[1, 2],
                          relations=["x1^2", "x2^2"]))
    specs += [random_ring(rng, nmax=4, cmax=3) for _ in range(4)]
    for spec in specs:
        ring = spec.qring
        lead_sets = [[], list(spec.rel_exps)]
        lead_sets += [[random_exponent(rng, spec.n, 4)
                       for _ in range(rng.randint(1, 4))] for _ in range(6)]
        for leads in lead_sets:
            for d in range(-1, 9):
                grid = itertools.product(*(range(d // w + 1)
                                           for w in ring.degs))
                expected = [e for e in grid if ring.deg(e) == d
                            and not any(all(a >= b for a, b in zip(e, lead))
                                        for lead in leads)]
                assert standard_monomials(ring, d, leads) == expected, \
                    (spec.n, leads, d)
                if not leads:
                    assert monomials_of_degree(ring, d) == expected
