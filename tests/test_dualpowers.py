import random

from skewci.colorcore import RingSpec
from skewci.dualpowers import (
    bracket,
    convolution_mul,
    double_dual_structure_constant,
    dual_coproduct,
    verify_appendix,
    xi_divided_power,
    xi_mul,
)
from skewci.koszul import phi_expand
from skewci.scalars import CycScalar
from skewci.sparse import add_term

from fixtures import example_ring, random_exponent, random_ring


def q_ring(order):
    """n=2 ring with q_21 of the given multiplicative order."""
    if order == 1:
        return RingSpec(2, 1, [[0, 0], [0, 0]], relations=["x1^2", "x2^2"])
    return RingSpec(2, order, [[0, -1], [1, 0]],
                    relations=["x1^2", "x2^2"])


def test_xi_mul_same_variable():
    spec = q_ring(4)
    scal, exps = xi_mul(spec, (1, 0), (1, 0))
    assert exps == (2, 0)
    assert scal == 2


def test_xi_mul_cross_variables():
    spec = q_ring(4)  # q_21 = zeta
    z = CycScalar.zeta(4)
    scal, exps = xi_mul(spec, (1, 0), (0, 1))
    # C(x^gamma, x^beta)^{-1} = cpair((0,1),(1,0))^{-1} = q_21^{-1}
    assert exps == (1, 1)
    assert scal == z.inverse()


def test_xi_mul_unit():
    spec = q_ring(4)
    scal, exps = xi_mul(spec, (0, 0), (2, 1))
    assert scal.is_one() and exps == (2, 1)


def test_divided_power_brackets():
    assert bracket(1, 3) == 1
    assert bracket(2, 2) == 3
    spec = q_ring(1)
    scal, exps = xi_divided_power(spec, (1, 0), 3)
    assert scal == 1 and exps == (3, 0)
    scal, exps = xi_divided_power(spec, (2, 0), 2)
    assert scal == 3 and exps == (4, 0)
    scal, exps = xi_divided_power(spec, (0, 0), 0)
    assert scal.is_one() and exps == (0, 0)


def test_divided_power_forced_k_factorial_on_mixed_support():
    # gamma^(k) = gamma^k / k! forces an extra k! over the componentwise
    # bracket for monomials in more than one variable
    spec = q_ring(1)
    scal, exps = xi_divided_power(spec, (1, 1), 2)
    assert exps == (2, 2)
    assert scal == 2


def test_convolution_matches_xi_mul():
    rng = random.Random(77)
    for order in (1, 2, 4):
        spec = q_ring(order)
        for _ in range(10):
            beta = random_exponent(rng, 2, 3)
            gamma = random_exponent(rng, 2, 3)
            scal, exps = xi_mul(spec, beta, gamma)
            one = spec.one()
            conv = convolution_mul(spec, {beta: one}, {gamma: one})
            assert conv == {exps: scal}


def test_convolution_unit():
    spec = q_ring(4)
    unit = {(0, 0): spec.one()}
    phi = {(1, 2): CycScalar.zeta(4)}
    assert convolution_mul(spec, unit, phi) == phi
    assert convolution_mul(spec, phi, unit) == phi


def test_convolution_associative_and_color_commutative():
    rng = random.Random(123)
    for _ in range(10):
        spec = random_ring(rng, nmax=2)
        ring = spec.qring

        def rand_dual():
            out = {}
            for _ in range(rng.randint(1, 2)):
                e = random_exponent(rng, spec.n, 3)
                add_term(out, e, CycScalar.zeta(spec.m, rng.randrange(spec.m)))
            return out

        a, b, c = rand_dual(), rand_dual(), rand_dual()
        lhs = convolution_mul(spec, convolution_mul(spec, a, b), c)
        rhs = convolution_mul(spec, a, convolution_mul(spec, b, c))
        assert lhs == rhs
        # color commutativity on monomial duals: ab = chi(a,b) ba
        ea = random_exponent(rng, spec.n, 3)
        eb = random_exponent(rng, spec.n, 3)
        pa, pb = {ea: spec.one()}, {eb: spec.one()}
        ab = convolution_mul(spec, pa, pb)
        ba = convolution_mul(spec, pb, pa)
        # gdeg xi^a = -a, so chi(gdeg a, gdeg b) = chi(a, b)
        twist = ring.chi(ea, eb)
        assert ab == {e: c * twist for e, c in ba.items()}


def test_dual_coproduct_counit():
    spec = q_ring(4)
    for alpha in [(0, 0), (1, 0), (2, 1), (1, 1)]:
        delta = dual_coproduct(spec, alpha)
        zero = (0, 0)
        assert delta[(alpha, zero)].is_one()
        assert delta[(zero, alpha)].is_one()


def test_double_dual_structure_constants():
    rng = random.Random(321)
    for order in (1, 2, 4):
        spec = q_ring(order)
        for _ in range(8):
            a = random_exponent(rng, 2, 3)
            b = random_exponent(rng, 2, 3)
            assert double_dual_structure_constant(spec, a, b) == \
                spec.qring.cpair(a, b)


def test_chi_product_on_divided_powers_matches_proof_cases():
    # chi_i chi_j evaluated through the coproduct on y^(H) is 1 exactly on
    # H = delta_i + delta_j and 0 on the other H of the same weight
    spec = example_ring()
    c = spec.c
    for i in range(c):
        for j in range(c):
            for hvec in [(2, 0), (1, 1), (0, 2)]:
                value = CycScalar.zero(spec.m)
                for hp, hpp, s in phi_expand(spec, hvec):
                    di = tuple(1 if t == i else 0 for t in range(c))
                    dj = tuple(1 if t == j else 0 for t in range(c))
                    if hp == di and hpp == dj:
                        value = value + s
                target = tuple(
                    (1 if t == i else 0) + (1 if t == j else 0)
                    for t in range(c))
                if hvec == target:
                    assert value.is_one() or (i != j and value)
                else:
                    assert not value


def test_verify_appendix_passes():
    for order in (1, 2, 4):
        report = verify_appendix(q_ring(order), 4)
        assert report.ok, report.counterexample


def test_verify_appendix_vacuous_bound_zero():
    report = verify_appendix(q_ring(4), 0)
    assert report.ok


def test_verify_appendix_negative_control(monkeypatch):
    from math import comb

    from skewci import dualpowers

    def flipped(spec, alpha, k):
        # negate the self-pairing exponent; first witness is k = 2
        scal, exps = xi_divided_power(spec, alpha, k)
        return scal * spec.qring.cpair(alpha, alpha) ** (2 * comb(k, 2)), exps

    monkeypatch.setattr(dualpowers, "xi_divided_power", flipped)
    report = verify_appendix(q_ring(4), 3)
    assert not report.ok
    assert report.counterexample["check"] == "product_identity"
    assert report.counterexample["k"] == 2
