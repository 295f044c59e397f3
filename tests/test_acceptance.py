"""Acceptance suite: one test per criterion, one printed verdict line each.

Desk scale throughout: n, c <= 3, m <= 8, internal windows <= 16,
cohomological windows <= 12.  Every tolerance is exact equality; there are
no approximate comparisons anywhere in the package.
"""

import random

from skewci.colorcore import RingSpec
from skewci.dualpowers import verify_appendix
from skewci.koszul import phi_expand
from skewci.operators import (
    build_operator_complex,
    braided_hh,
    homology_bigraded,
)
from skewci.resolve import (
    ModulePresentation,
    finite_koszul_resolution,
    minimal_R_resolution,
)
from skewci.scalars import CycScalar
from skewci.support import (
    _pair_series,
    arc_check,
    complexity,
    is_perfect,
    poincare_series,
    support_variety,
)

from fixtures import (
    d_squares_to_zero,
    example_ring,
    fixture_rings,
    hypersurface_ring,
    random_ring,
    self_e_complex,
    skew_hypersurface_ring,
    three_var_ring,
)


def _verdict(number, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {status}: {text}")
    assert ok, f"criterion {number}: {text}"


# -- criterion 1 --------------------------------------------------------------

def test_criterion_01_example_support_reproduction():
    spec = example_ring()
    m = ModulePresentation.cyclic(spec, ["x1"], name="M")
    report = support_variety(m, "k")
    ok = (report.ideal == ["th2"] and report.dimension == 1
          and report.t == 2)
    _verdict(1, ok,
             f"support(M,k) over C_i[x,y]/(x^2,y^2) = ({', '.join(report.ideal)}), "
             f"dim {report.dimension}, t={report.t} (expected (th2), 1, 2)")


# -- criterion 2 --------------------------------------------------------------

def test_criterion_02_full_support_of_residue_field():
    spec = example_ring()
    k = ModulePresentation.residue_field(spec)
    report = support_variety(k, k)
    ok = report.ideal == [] and report.dimension == spec.c
    _verdict(2, ok,
             f"support(k,k) = zero ideal with dim {report.dimension} "
             f"(full Proj)")


# -- criterion 3 --------------------------------------------------------------

def test_criterion_03_poincare_series_of_k():
    from math import comb

    ok = True
    details = []
    for spec in fixture_rings():
        k = ModulePresentation.residue_field(spec)
        series = poincare_series(k)
        want = [comb(spec.n, j) for j in range(spec.n + 1)]
        good = (series.cprime == spec.c and series.numerator == want
                and series.method == "exact-theta")
        ok = ok and good
        details.append(f"(n={spec.n},c={spec.c}): {series!r}")
    _verdict(3, ok, "P^R_k = (1+t)^n/(1-t^2)^c exactly on "
             + "; ".join(details))


# -- criterion 4 --------------------------------------------------------------

def test_criterion_04_complexity_of_k():
    ok = True
    values = []
    for spec in fixture_rings():
        k = ModulePresentation.residue_field(spec)
        value = complexity(k, k)
        ok = ok and value == spec.c
        values.append(f"(n={spec.n},c={spec.c})->{int(value)}")
    _verdict(4, ok, "cx_R(k,k) = c exactly: " + ", ".join(values))


# -- criterion 5 --------------------------------------------------------------

def _random_module(rng, spec):
    roll = rng.random()
    if roll < 0.35:
        return ModulePresentation.residue_field(spec)
    if roll < 0.5:
        return ModulePresentation.free(spec)
    gens = []
    count = rng.randint(1, 2)
    seen = set()
    for _ in range(count):
        v = rng.randrange(spec.n)
        e = rng.randint(1, 2)
        mono = f"x{v+1}^{e}" if e > 1 else f"x{v+1}"
        if mono not in seen:
            seen.add(mono)
            gens.append(mono)
    return ModulePresentation.cyclic(spec, gens)


def test_criterion_05_oracle_equivalence_randomized():
    rng = random.Random(20260809)
    instances = 0
    checked = 0
    while instances < 10:
        spec = random_ring(rng, nmax=2, cmax=2)
        mod = _random_module(rng, spec)
        k = ModulePresentation.residue_field(spec)
        cx = finite_koszul_resolution(mod)
        imax = 5
        top_deg = max(d for layer in cx.basis for d, _c in layer)
        jmax = (imax // 2 + 1) * max(spec.df) + top_deg
        opcx = build_operator_complex(cx, k)
        table = homology_bigraded(opcx, imax, jmax)
        betti = minimal_R_resolution(mod, imax, jmax)
        for i in range(imax + 1):
            for j in range(jmax + 1):
                assert table.dim(i, j) == betti.entries.get((i, j), 0), (
                    spec, mod.name, i, j)
                checked += 1
        instances += 1
    _verdict(5, True,
             f"bigraded H(E_F,k) equals the degreewise Betti oracle on "
             f"{instances} randomized instances ({checked} bidegrees, exact)")


# -- criterion 6 --------------------------------------------------------------

def test_criterion_06_braided_hochschild():
    ok = True
    details = []
    for spec, cmax, dmax in [
        (example_ring(), 4, 6),
        (hypersurface_ring(), 6, 6),
        (three_var_ring(), 4, 6),
        (skew_hypersurface_ring(), 4, 6),
    ]:
        rep = braided_hh(spec, cmax, dmax)
        ok = ok and rep.ok
        details.append(f"(n={spec.n},c={spec.c}):"
                       + ("match" if rep.ok else "MISMATCH"))
    _verdict(6, ok, "H(E_E) = R[chi_1..chi_c] bigraded on all fixtures: "
             + ", ".join(details))


# -- criterion 7 --------------------------------------------------------------

def _check_opcx_d_squared(opcx, islice, jslice):
    return all(d_squares_to_zero(opcx, i, j) for i in islice for j in jslice)


def test_criterion_07_structural_invariants_randomized():
    rng = random.Random(77001)
    instances = 0
    resolutions = 0
    d2_checked = 0
    while instances < 50:
        spec = random_ring(rng, nmax=3 if instances % 7 == 0 else 2, cmax=2)
        mod = _random_module(rng, spec)
        if spec.n >= 3 and not mod.is_residue_field() and rng.random() < 0.5:
            mod = ModulePresentation.cyclic(spec, ["x1"])
        cx = finite_koszul_resolution(mod)
        assert not cx.verify_invariants(), (spec, mod.name)
        resolutions += 1
        if instances % 3 == 0:
            opcx = build_operator_complex(
                cx, ModulePresentation.residue_field(spec))
            assert _check_opcx_d_squared(opcx, range(0, 3), range(0, 4))
            d2_checked += 1
        if instances % 10 == 0:
            opcx = self_e_complex(spec)
            assert _check_opcx_d_squared(opcx, range(-1, 2), range(-2, 3))
            d2_checked += 1
        instances += 1
    _verdict(7, True,
             f"strictness identities exact on {resolutions} random "
             f"resolutions; operator d^2 = 0 on {d2_checked} complexes")


# -- criterion 8 --------------------------------------------------------------

def test_criterion_08_appendix_suite():
    ok = True
    details = []
    for order in (1, 2, 4):
        if order == 1:
            spec = RingSpec(2, 1, [[0, 0], [0, 0]],
                            relations=["x1^2", "x2^2"])
        else:
            spec = RingSpec(2, order, [[0, -1], [1, 0]],
                            relations=["x1^2", "x2^2"])
        rep = verify_appendix(spec, 4)
        ok = ok and rep.ok
        cases = sum(rep.checks.values())
        details.append(f"q-order {order}: {cases} cases")
        # coassociativity and counit of the diagonal approximation
        for hvec in _hvecs_up_to(spec.c, 4):
            terms = phi_expand(spec, hvec)
            left = [t for t in terms if not any(t[0])]
            assert len(left) == 1 and left[0][1] == hvec \
                and left[0][2].is_one()
            lhs, rhs = {}, {}
            for hp, hpp, s in terms:
                for hq, hr, s2 in phi_expand(spec, hp):
                    key = (hq, hr, hpp)
                    lhs[key] = lhs.get(key, CycScalar.zero(spec.m)) + s * s2
                for hq, hr, s2 in phi_expand(spec, hpp):
                    key = (hp, hq, hr)
                    rhs[key] = rhs.get(key, CycScalar.zero(spec.m)) + s * s2
            assert {k: v for k, v in lhs.items() if v} == \
                {k: v for k, v in rhs.items() if v}
    _verdict(8, ok, "dual divided-powers suite exhaustive to bidegree 4, "
             "k <= 4: " + ", ".join(details))


def _hvecs_up_to(c, total):
    out = []
    h = [0] * c

    def walk(i, rem):
        if i == c:
            out.append(tuple(h))
            return
        for e in range(rem + 1):
            h[i] = e
            walk(i + 1, rem - e)
        h[i] = 0

    walk(0, total)
    return out


# -- criterion 9 --------------------------------------------------------------

def test_criterion_09_symmetry():
    ok = True
    details = []
    for spec in fixture_rings():
        mods = [ModulePresentation.residue_field(spec),
                ModulePresentation.free(spec)]
        for v in range(spec.n):
            mods.append(ModulePresentation.cyclic(spec, [f"x{v+1}"]))
        pairs = []
        for a in range(len(mods)):
            for b in range(a, len(mods)):
                pairs.append((mods[a], mods[b]))
        pairs = pairs[:6] if len(pairs) >= 6 else pairs
        count = 0
        for m, n in pairs:
            r1 = support_variety(m, n)
            r2 = support_variety(n, m)
            if sorted(r1.ideal) != sorted(r2.ideal) or \
                    r1.dimension != r2.dimension:
                ok = False
            window = {"cmax": 8, "dmax": 10}
            c1 = complexity(m, n, window=window)
            c2 = complexity(n, m, window=window)
            if c1.value != c2.value:
                ok = False
            count += 1
        details.append(f"(n={spec.n},c={spec.c}): {count} pairs")
    # cross-method check: exact theta dimension vs the rational fit run on
    # a presentation of k
    spec = example_ring()
    m = ModulePresentation.cyclic(spec, ["x1"])
    exact = complexity(m, "k")
    fitted = _pair_series(m, ModulePresentation.residue_field(spec),
                          {"cmax": 8, "dmax": 10})
    if exact.value != fitted.cprime:
        ok = False
    _verdict(9, ok, "support and complexity symmetric on module pairs: "
             + ", ".join(details) + "; exact-vs-fit cross-check agrees")


# -- criterion 10 -------------------------------------------------------------

def test_criterion_10_rationality():
    ok = True
    checked = 0
    for spec in fixture_rings():
        mods = [ModulePresentation.residue_field(spec),
                ModulePresentation.free(spec),
                ModulePresentation.cyclic(spec, ["x1"])]
        for m in mods:
            series = poincare_series(m)
            cx_val = complexity(m, "k")
            good = (series.cprime == cx_val.value
                    and all(isinstance(v, int) for v in series.numerator)
                    and sum(series.numerator) != 0)
            # validation on an extension window of 2c coefficients beyond
            # the declared support of (1-t^2)^cx * P
            upto = len(series.numerator) + 2 * spec.c + 4
            coeffs = series.coefficients(upto)
            u = list(coeffs)
            for _ in range(series.cprime):
                for d in range(len(u) - 1, 1, -1):
                    u[d] -= u[d - 2]
            tail = u[len(series.numerator):]
            good = good and all(v == 0 for v in tail)
            ok = ok and good
            checked += 1
    _verdict(10, ok,
             f"(1-t^2)^cx * P integer polynomial, nonzero at t=1, "
             f"tail-validated on {checked} instances")


# -- criterion 11 -------------------------------------------------------------

def test_criterion_11_vanishing_criterion():
    spec = skew_hypersurface_ring()
    m = ModulePresentation.cyclic(spec, ["x2"], name="R/(y)")
    rep1 = arc_check(m, 1, 5)
    ok = rep1.verdict == "pass" and rep1.detail["pd"] == 1 \
        and rep1.detail["pd"] == rep1.detail["sup_ext_R"]

    rep2 = arc_check(ModulePresentation.free(example_ring()), 0, 4)
    ok = ok and rep2.verdict == "pass" and rep2.detail["pd"] == 0

    k = ModulePresentation.residue_field(example_ring())
    rep3 = arc_check(k, 2, 6)
    ok = ok and rep3.verdict == "hypothesis not satisfied"
    _verdict(11, ok,
             f"pd <= r confirmed with pd = sup(Ext^i(M,R) != 0) on finite-pd "
             f"fixtures; k correctly reports '{rep3.verdict}'")


# -- criterion 12 -------------------------------------------------------------

def test_criterion_12_hypersurface_dichotomy():
    ok = True
    tested = 0
    for spec in (hypersurface_ring(), skew_hypersurface_ring()):
        mods = [ModulePresentation.residue_field(spec),
                ModulePresentation.free(spec)]
        for v in range(spec.n):
            mods.append(ModulePresentation.cyclic(spec, [f"x{v+1}"]))
        window = 6
        for m in mods:
            cxm = finite_koszul_resolution(m)
            top = max(d for layer in cxm.basis for d, _c in layer)
            jmax = (window // 2 + 1) * max(spec.df) + top
            for n in mods:
                opcx = build_operator_complex(cxm, n)
                table = homology_bigraded(opcx, window, jmax, jmin=-jmax)
                vanishing = all(table.ext_dim(i) == 0
                                for i in range(3, window + 1))
                if vanishing:
                    if not (is_perfect(m) or is_perfect(n)):
                        ok = False
                tested += 1
    _verdict(12, ok,
             f"window-vanishing Ext implies a perfect member on {tested} "
             f"c=1 pairs")
