import random

import pytest

from skewci.colorcore import (
    Poly,
    RingSpec,
    chi,
    parse_poly,
    poly_mul,
    validate_ring,
)
from skewci.scalars import CycScalar

from fixtures import example_ring, random_exponent, random_ring


def test_chi_on_unit_vectors_is_q():
    spec = example_ring()
    z = CycScalar.zeta(4)
    assert chi(spec, (1, 0), (0, 1)) == z          # q_12
    assert chi(spec, (0, 1), (1, 0)) == z ** 3     # q_21 = q_12^{-1}


def test_chi_alternating_and_bimultiplicative():
    rng = random.Random(11)
    for _ in range(25):
        spec = random_ring(rng)
        n = spec.n
        a = random_exponent(rng, n, 4)
        b = random_exponent(rng, n, 4)
        c = random_exponent(rng, n, 4)
        assert chi(spec, a, a).is_one()
        ab = tuple(x + y for x, y in zip(a, b))
        assert chi(spec, ab, c) == chi(spec, a, c) * chi(spec, b, c)
        assert chi(spec, c, ab) == chi(spec, c, a) * chi(spec, c, b)


def test_chi_of_sum_reproduces_q21():
    spec = example_ring()
    assert chi(spec, (1, 1), (1, 0)) == chi(spec, (0, 1), (1, 0))


def test_chi_length_mismatch():
    spec = example_ring()
    with pytest.raises(ValueError):
        chi(spec, (1, 0, 0), (0, 1))


def test_c_pair_examples():
    spec = example_ring()
    z = CycScalar.zeta(4)
    assert spec.qring.cpair((1, 0), (0, 1)).is_one()   # already normal order
    # one adjacent swap: x2 x1 = q_21 x1 x2, and here q_21 = zeta^{-1} = -z
    assert spec.qring.cpair((0, 1), (1, 0)) == -z
    assert spec.qring.cpair((0, 1), (1, 0)) == chi(spec, (0, 1), (1, 0))
    assert spec.qring.cpair((0, 3), (2, 0)) == chi(spec, (0, 1), (1, 0)) ** 6


def test_c_pair_six_swaps_value():
    # q_21 = zeta_4^3, six adjacent swaps: zeta^18 = zeta^2 = -1
    spec = example_ring()
    assert spec.qring.cpair((0, 3), (2, 0)) == -1


def test_chi_and_c_identity():
    rng = random.Random(5)
    for _ in range(30):
        spec = random_ring(rng)
        a = random_exponent(rng, spec.n, 4)
        b = random_exponent(rng, spec.n, 4)
        lhs = chi(spec, a, b)
        rhs = spec.qring.cpair(a, b) * spec.qring.cpair(b, a).inverse()
        assert lhs == rhs


def test_c_pair_bicharacter_in_first_argument():
    rng = random.Random(6)
    for _ in range(30):
        spec = random_ring(rng)
        a = random_exponent(rng, spec.n, 3)
        a2 = random_exponent(rng, spec.n, 3)
        b = random_exponent(rng, spec.n, 3)
        asum = tuple(x + y for x, y in zip(a, a2))
        assert spec.qring.cpair(asum, b) == spec.qring.cpair(a, b) * spec.qring.cpair(a2, b)
        bsum = tuple(x + y for x, y in zip(b, a2))
        assert spec.qring.cpair(a, bsum) == spec.qring.cpair(a, b) * spec.qring.cpair(a, a2)


def test_poly_mul_defining_relation():
    spec = example_ring()
    x = Poly.variable(spec.qring, 0)
    y = Poly.variable(spec.qring, 1)
    prod = poly_mul(y, x)
    # x2 x1 = q_21 x1 x2
    assert prod == Poly.monomial(spec.qring, (1, 1), chi(spec, (0, 1), (1, 0)))


def test_poly_mul_cross_terms_cancel_at_q_minus_one():
    spec = RingSpec(2, 2, [[0, 1], [1, 0]])  # q_12 = -1
    x = Poly.variable(spec.qring, 0)
    y = Poly.variable(spec.qring, 1)
    sq = (x + y) * (x + y)
    assert sq == x * x + y * y


def test_poly_mul_unit():
    spec = example_ring()
    p = parse_poly(spec.qring, "x1^2 + 3*x1*x2")
    assert Poly.constant(spec.qring, 1) * p == p


def test_poly_mul_associativity_and_color():
    rng = random.Random(9)
    for _ in range(20):
        spec = random_ring(rng)
        ring = spec.qring

        def rand_poly():
            p = Poly.zero(ring)
            for _ in range(rng.randint(1, 3)):
                exps = random_exponent(rng, spec.n, 3)
                p = p + Poly.monomial(ring, exps,
                                      CycScalar.zeta(spec.m, rng.randrange(spec.m)))
            return p

        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a * b) * c == a * (b * c)
        am, bm = Poly.monomial(ring, random_exponent(rng, spec.n, 3)), \
            Poly.monomial(ring, random_exponent(rng, spec.n, 3))
        prod = am * bm
        if prod:
            expected = tuple(
                x + y for x, y in zip(am.color(), bm.color()))
            assert prod.color() == expected


def test_homogeneous_elements_are_normal():
    # f * x_j = chi(f, e_j) * x_j * f for G-homogeneous f
    rng = random.Random(13)
    for _ in range(20):
        spec = random_ring(rng)
        ring = spec.qring
        exps = random_exponent(rng, spec.n, 4)
        f = Poly.monomial(ring, exps)
        for j in range(spec.n):
            xj = Poly.variable(ring, j)
            ej = tuple(1 if k == j else 0 for k in range(spec.n))
            assert f * xj == (xj * f) * chi(spec, exps, ej)


def test_validate_example_ring():
    spec = example_ring()
    report = validate_ring(spec)
    assert report.ok
    # H_R = (1+t)^2 = 1, 2, 1
    assert report.hilbert_dims[:4] == [1, 2, 1, 0]


def test_validate_repeated_relation_fails():
    spec = RingSpec(2, 4, [[0, 1], [-1, 0]], relations=["x1^2", "x1^2"])
    report = validate_ring(spec)
    assert not report.ok
    assert any("Hilbert mismatch" in msg for msg in report.messages)


def test_validate_inhomogeneous_relation_fails():
    spec = RingSpec(2, 4, [[0, 1], [-1, 0]], relations=["x1 + x2"])
    report = validate_ring(spec)
    assert not report.ok
    joined = " ".join(report.messages)
    assert "G-homogeneous" in joined or "(x_1..x_n)^2" in joined


def test_validate_linear_relation_fails():
    spec = RingSpec(2, 4, [[0, 1], [-1, 0]], relations=["x1"])
    report = validate_ring(spec)
    assert not report.ok


def test_parse_and_print_roundtrip():
    spec = example_ring()
    ring = spec.qring
    p = parse_poly(ring, "2*x1^2*x2 - z*x2 + 3")
    text = str(p)
    again = parse_poly(ring, text)
    assert again == p


def test_ring_spec_json_roundtrip():
    spec = example_ring()
    doc = spec.to_json()
    spec2 = RingSpec.from_json(doc)
    assert spec2.to_json() == doc
    assert spec2.df == (2, 2)
    assert spec2.cf == ((2, 0), (0, 2))
