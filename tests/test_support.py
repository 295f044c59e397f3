import random

import pytest

from skewci.cli import run
from skewci.colorcore import RingSpec
from skewci.resolve import (
    ModulePresentation,
    finite_koszul_resolution,
    minimal_R_resolution,
)
from skewci.support import (
    RationalityError,
    ThetaAlgebra,
    arc_check,
    complexity,
    compute_t,
    degree_bound,
    is_perfect,
    poincare_series,
    support_variety,
)

from fixtures import (
    example_ring,
    fixture_rings,
    hypersurface_ring,
    random_ring,
    skew_hypersurface_ring,
    three_var_ring,
)


def test_compute_t_example_ring():
    assert compute_t(example_ring()) == 2


def test_compute_t_trivial_q():
    assert compute_t(hypersurface_ring()) == 1


def test_compute_t_order_three():
    spec = RingSpec(2, 3, [[0, 1], [-1, 0]], relations=["x1^3", "x2^3"])
    assert compute_t(spec) == 3


def test_theta_algebra_validates():
    spec = example_ring()
    alg = ThetaAlgebra(spec)
    assert alg.t == 2
    assert alg.names == ("th1", "th2")
    with pytest.raises(ValueError):
        ThetaAlgebra(spec, 1)


def test_support_example_module():
    spec = example_ring()
    m = ModulePresentation.cyclic(spec, ["x1"])
    report = support_variety(m, "k")
    assert report.t == 2
    assert report.ideal == ["th2"]
    assert report.dimension == 1
    assert not report.proj_empty


def test_support_residue_field_is_full():
    spec = example_ring()
    k = ModulePresentation.residue_field(spec)
    report = support_variety(k, k)
    assert report.ideal == []
    assert report.dimension == 2


def test_support_free_module_empty():
    spec = example_ring()
    r = ModulePresentation.free(spec)
    report = support_variety(r, "k")
    assert report.proj_empty
    assert report.dimension == 0


def test_support_symmetry_on_pairs():
    spec = example_ring()
    mods = [
        ModulePresentation.cyclic(spec, ["x1"]),
        ModulePresentation.cyclic(spec, ["x2"]),
        ModulePresentation.cyclic(spec, ["x1", "x2"], name="k2"),
        ModulePresentation.residue_field(spec),
        ModulePresentation.free(spec),
    ]
    for a in mods:
        for b in mods:
            r1 = support_variety(a, b)
            r2 = support_variety(b, a)
            assert sorted(r1.ideal) == sorted(r2.ideal), (a.name, b.name)
            assert r1.dimension == r2.dimension


def test_support_intersection_identity():
    # V(M,k) cap V(N,k) computed directly equals the pair report
    spec = example_ring()
    m = ModulePresentation.cyclic(spec, ["x1"])
    n = ModulePresentation.cyclic(spec, ["x2"])
    pair = support_variety(m, n)
    assert pair.ideal == ["th1", "th2"] or sorted(pair.ideal) == ["th1", "th2"]
    assert pair.dimension == 0


def test_support_pair_commutative_three_relations():
    # V(M,k) and V(N,k) share the generator th3: the intersection ideal
    # must keep one copy of it
    spec = RingSpec(3, 1, [[0] * 3 for _ in range(3)],
                    relations=["x1^2", "x2^2", "x3^2"])
    m = ModulePresentation.cyclic(spec, ["x1"])
    n = ModulePresentation.cyclic(spec, ["x2"])
    pair = support_variety(m, n)
    assert sorted(pair.ideal) == ["th1", "th2", "th3"]
    assert pair.dimension == 0


def test_support_skew_three_relations():
    # n=3, c=3, m=5: noncommutative with phi(m) = 4
    spec = RingSpec(3, 5, [[0, 1, 2], [-1, 0, 1], [-2, -1, 0]],
                    relations=["x1^2", "x2^2", "x3^2"])
    report = support_variety(ModulePresentation.cyclic(spec, ["x1"]), "k")
    assert sorted(report.ideal) == ["th2", "th3"]
    assert report.dimension == 1


def test_poincare_residue_field_example():
    spec = example_ring()
    k = ModulePresentation.residue_field(spec)
    series = poincare_series(k)
    # (1+t)^2/(1-t^2)^2
    assert series.cprime == 2
    assert series.numerator == [1, 2, 1]
    assert series.method == "exact-theta"


def test_poincare_residue_field_three_var():
    spec = three_var_ring()
    k = ModulePresentation.residue_field(spec)
    series = poincare_series(k)
    assert series.cprime == 2
    assert series.numerator == [1, 3, 3, 1]


def test_poincare_residue_field_hypersurface():
    spec = hypersurface_ring()
    k = ModulePresentation.residue_field(spec)
    series = poincare_series(k)
    assert series.cprime == 1
    assert series.numerator == [1, 1]


def test_poincare_rx_after_cancellation():
    spec = example_ring()
    m = ModulePresentation.cyclic(spec, ["x1"])
    series = poincare_series(m)
    # Betti numbers 1,1,1,...: P = 1/(1-t) = (1+t)/(1-t^2)
    assert series.cprime == 1
    assert series.numerator == [1, 1]
    assert series.coefficients(6) == [1] * 7


def test_poincare_free_module():
    spec = example_ring()
    series = poincare_series(ModulePresentation.free(spec))
    assert series.cprime == 0
    assert series.numerator == [1]


def test_complexity_of_k_is_c():
    for spec in (example_ring(), hypersurface_ring(), three_var_ring()):
        k = ModulePresentation.residue_field(spec)
        assert complexity(k, k) == spec.c


def test_complexity_examples():
    spec = example_ring()
    m = ModulePresentation.cyclic(spec, ["x1"])
    assert complexity(m, "k") == 1
    assert complexity(ModulePresentation.free(spec), "k") == 0


def test_complexity_symmetry_general_pair():
    spec = example_ring()
    m = ModulePresentation.cyclic(spec, ["x1"])
    n = ModulePresentation.cyclic(spec, ["x2"])
    window = {"cmax": 8, "dmax": 8}
    c1 = complexity(m, n, window=window)
    c2 = complexity(n, m, window=window)
    assert c1.value == c2.value == 0


def test_complexity_general_pair_nonzero():
    spec = example_ring()
    m = ModulePresentation.cyclic(spec, ["x1"])
    window = {"cmax": 8, "dmax": 8}
    c1 = complexity(m, m, window=window)
    c2 = complexity(m, "k")
    assert c1.value == c2.value == 1


def test_rationality_certificate():
    spec = example_ring()
    m = ModulePresentation.cyclic(spec, ["x1"])
    n = ModulePresentation.cyclic(spec, ["x2"])
    series = poincare_series(m, n, window={"cmax": 8, "dmax": 8})
    assert series.method == "fit"
    assert sum(series.numerator) != 0
    assert all(isinstance(v, int) for v in series.numerator)


def test_fit_window_too_small_raises():
    spec = example_ring()
    m = ModulePresentation.cyclic(spec, ["x1"])
    with pytest.raises(RationalityError):
        poincare_series(m, m, window={"cmax": 3, "dmax": 6})


def test_is_perfect():
    spec = example_ring()
    assert is_perfect(ModulePresentation.free(spec))
    assert not is_perfect(ModulePresentation.residue_field(spec))
    assert not is_perfect(ModulePresentation.cyclic(spec, ["x1"]))


def test_is_perfect_finite_pd_module():
    spec = skew_hypersurface_ring()
    m = ModulePresentation.cyclic(spec, ["x2"])
    assert is_perfect(m)


# k_q[x1, x2, x3]/(x1^2, x2^2) with q12 = i, q23 = i
N3C2M4 = {"n": 3, "m": 4, "qexp": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]],
          "relations": ["x1^2", "x2^2"]}


def _result_on_n3c2m4(command, module):
    """The result of command on the module doc over N3C2M4, default
    windows; a string is the one relation of a cyclic module."""
    if isinstance(module, str):
        module = {"quotient": [module]}
    code, report, _ = run({"ring": N3C2M4, "modules": {"M": module},
                           "command": command, "params": {"module": "M"}})
    assert code == 0, report
    return report["result"]


def test_perfect_sees_a_relation_beyond_a_fixed_degree_window():
    # x1*x3^20 has degree 21: an oracle window that does not reach it sees
    # a free module and contradicts the nonempty support
    assert _result_on_n3c2m4("perfect", "x1*x3^20")["perfect"] is False


def test_betti_default_window_reaches_a_high_degree_relation():
    # pd R/(x3^20) = 1, with beta_1 in degree 20: the default window must
    # follow the module's degrees
    assert _result_on_n3c2m4("betti", "x3^20")["totals"] \
        == [1, 1, 0, 0, 0, 0, 0]
    assert _result_on_n3c2m4("perfect", "x3^20")["perfect"] is True


def test_betti_oracle_reads_generators_of_negative_degree():
    # R/(x3) and R/(x1) on a generator of degree -3: the oracle must scan
    # from the lowest generator degree, below the relation in degree -2
    for relation, totals, perfect in (("x3", [1, 1, 0, 0, 0, 0, 0], True),
                                      ("x1", [1] * 7, False)):
        module = {"gens": [{"degree": -3, "color": [0, 0, 0]}],
                  "relations": [[relation]]}
        assert _result_on_n3c2m4("betti", module)["totals"] == totals
        assert _result_on_n3c2m4("perfect", module)["perfect"] is perfect


def test_finite_projective_dimension_is_at_most_n_minus_c():
    # is_perfect reads finiteness off beta_{n-c+1} alone: a finite pd_R M is
    # at most n - c.  Checked in a wider window, three more homological
    # degrees and their degree bound, which also decides is_perfect
    rng = random.Random(27)
    specs = fixture_rings() + [
        skew_hypersurface_ring(),
        RingSpec(3, 6, [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]],
                 relations=["x1^2"]),
        RingSpec.from_json(N3C2M4),
    ] + [random_ring(rng, nmax=3, cmax=2, conductors=(5, 8))
         for _ in range(3)]
    finite = []
    for spec in specs:
        n = spec.n
        quotients = [[f"x{v + 1}" for v in range(n)], [], ["1"]]
        quotients += [[f"x{v + 1}"] for v in range(n)]
        quotients += [[f"x{n}^3"], [f"x1*x{n}^2"]]
        if n >= 3:
            quotients += [["x2", "x3"], ["x2*x3"], ["x1*x2", "x3^2"]]
        for quotient in quotients:
            mod = ModulePresentation.cyclic(spec, quotient)
            imax = n - spec.c + 4
            dmax = degree_bound(finite_koszul_resolution(mod), imax)
            pd = minimal_R_resolution(mod, imax, dmax).projective_dimension()
            assert (pd is not None) == is_perfect(mod), (spec, quotient)
            if pd is not None:
                assert pd <= n - spec.c, (spec.to_json(), quotient, pd)
                finite.append(pd == n - spec.c)
    # the bound is reached, so imax = n - c + 1 is as small as it can be
    assert len(finite) >= 20 and any(finite), finite


def test_arc_check_pass_on_finite_pd():
    spec = skew_hypersurface_ring()
    m = ModulePresentation.cyclic(spec, ["x2"])  # pd 1
    report = arc_check(m, 1, 5)
    assert report.verdict == "pass"
    assert report.detail["pd"] == 1


def test_arc_check_free_module():
    spec = example_ring()
    report = arc_check(ModulePresentation.free(spec), 0, 4)
    assert report.verdict == "pass"
    assert report.detail["pd"] == 0


def test_arc_check_hypothesis_fails_for_k():
    spec = example_ring()
    k = ModulePresentation.residue_field(spec)
    report = arc_check(k, 1, 5)
    assert report.verdict == "hypothesis not satisfied"


def test_arc_check_first_failure_matches_the_full_tables():
    # arc_check computes Ext^{r+1}(M, M) alone first; its verdict is the one
    # the full tables of Ext(M, M) and Ext(M, R) give
    from skewci.operators import build_operator_complex, homology_bigraded

    spec = three_var_ring()
    for quotient in (["x1"], ["x3"], ["x1*x3"], ["x3^2", "x1*x2"]):
        m = ModulePresentation.cyclic(spec, quotient)
        cx = finite_koszul_resolution(m)
        jmax = degree_bound(cx, 4)
        tables = [homology_bigraded(build_operator_complex(cx, n), 4, jmax,
                                    jmin=-jmax)
                  for n in (m, ModulePresentation.free(spec))]
        for r in range(4):
            report = arc_check(m, r, 4)
            failures = [i for i in range(r + 1, 5)
                        if any(t.ext_dim(i) for t in tables)]
            assert report.jmax == jmax
            assert report.detail.get("first_nonvanishing") \
                == (failures[0] if failures else None), (quotient, r)

def test_poincare_closed_form_on_random_rings():
    # P^R_k = (1+t)^n/(1-t^2)^c for every skew complete intersection,
    # independent of q and of the relation degrees
    from math import comb
    from fixtures import random_ring

    rng = random.Random(424242)
    for _ in range(6):
        spec = random_ring(rng, nmax=2, cmax=2)
        k = ModulePresentation.residue_field(spec)
        series = poincare_series(k)
        assert series.cprime == spec.c
        assert series.numerator == [comb(spec.n, j)
                                    for j in range(spec.n + 1)]


def test_non_monomial_chi_annihilator_is_refused(monkeypatch):
    # Under Z^n colors the annihilator over the chi-ring is monomial, which
    # the theta read-off relies on; E = S/(chi1 - chi2) breaks that and
    # must fail as a certificate (exit 1), never give an ideal
    from skewci import operators
    from skewci.cli import run
    from skewci.scalars import CycScalar

    spec = example_ring()
    one = CycScalar.one(spec.m)
    module = operators.ThetaModule(
        spec, [0], [{((1, 0), 0): one, ((0, 1), 0): -one}])
    monkeypatch.setattr(operators, "ext_over_theta", lambda cx: module)
    config = {"ring": spec.to_json(), "modules": {},
              "command": "support", "params": {"module": "k"}}
    code, report, _ = run(config)
    assert code == 1
    assert report["error"] == ("certificate failed: annihilator over the "
                               "chi-ring is not monomial")
