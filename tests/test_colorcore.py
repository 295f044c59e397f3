import random
import re
from fractions import Fraction

import pytest

from skewci.colorcore import (
    RingSpec,
    chi,
    dict_mul,
    parse_poly,
    poly_to_string,
    validate_ring,
)
from skewci.scalars import CycScalar
from skewci.sparse import add_term

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
    one = spec.one()
    prod = dict_mul(spec.qring, {(0, 1): one}, {(1, 0): one})
    # x2 x1 = q_21 x1 x2
    assert prod == {(1, 1): chi(spec, (0, 1), (1, 0))}


def test_poly_mul_cross_terms_cancel_at_q_minus_one():
    spec = RingSpec(2, 2, [[0, 1], [1, 0]])  # q_12 = -1
    ring = spec.qring
    s = parse_poly(ring, "x1 + x2")
    assert dict_mul(ring, s, s) == parse_poly(ring, "x1^2 + x2^2")


def test_poly_mul_unit():
    spec = example_ring()
    p = parse_poly(spec.qring, "x1^2 + 3*x1*x2")
    assert dict_mul(spec.qring, {(0, 0): spec.one()}, p) == p


def test_poly_mul_associativity_and_color():
    rng = random.Random(9)
    for _ in range(20):
        spec = random_ring(rng)
        ring = spec.qring

        def rand_poly():
            p = {}
            for _ in range(rng.randint(1, 3)):
                exps = random_exponent(rng, spec.n, 3)
                add_term(p, exps, CycScalar.zeta(spec.m, rng.randrange(spec.m)))
            return p

        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (dict_mul(ring, dict_mul(ring, a, b), c)
                == dict_mul(ring, a, dict_mul(ring, b, c)))
        ea = random_exponent(rng, spec.n, 3)
        eb = random_exponent(rng, spec.n, 3)
        (prod,) = dict_mul(ring, {ea: spec.one()}, {eb: spec.one()})
        expected = tuple(
            x + y for x, y in zip(ring.color(ea), ring.color(eb)))
        assert ring.color(prod) == expected


def test_homogeneous_elements_are_normal():
    # f * x_j = chi(f, e_j) * x_j * f for G-homogeneous f
    rng = random.Random(13)
    for _ in range(20):
        spec = random_ring(rng)
        ring = spec.qring
        exps = random_exponent(rng, spec.n, 4)
        f = {exps: spec.one()}
        for j in range(spec.n):
            ej = tuple(1 if k == j else 0 for k in range(spec.n))
            xj = {ej: spec.one()}
            twist = chi(spec, exps, ej)
            assert dict_mul(ring, f, xj) == {
                e: c * twist for e, c in dict_mul(ring, xj, f).items()}


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
    text = poly_to_string(ring, p)
    again = parse_poly(ring, text)
    assert again == p


def test_parse_poly_forms_and_errors():
    spec = example_ring()                    # m = 4, z = i
    ring = spec.qring
    z = CycScalar.zeta(4)
    one = spec.one()
    accepted = [
        (spec, "z^-1*x1", {(1, 0): z.inverse()}),
        (spec, "3/2*x1", {(1, 0): CycScalar.from_rational(4, Fraction(3, 2))}),
        (spec, "-x1 - -x2", {(1, 0): -one, (0, 1): one}),
        (spec, "x1^0", {(0, 0): one}),
        (spec, "2*x1 - 2*x1", {}),
        (RingSpec(2, 2, [[0, 1], [1, 0]]), "(x1 + x2)^2",     # q_12 = -1
         {(2, 0): CycScalar.one(2), (0, 2): CycScalar.one(2)}),
    ]
    for sp, text, want in accepted:
        assert parse_poly(sp.qring, text) == want, text
    refused = [
        ("x1/x2", "division only by scalars"),
        ("x1^-1", "negative powers only on scalars"),
        ("x1^x2", "exponent must be an integer"),
        ("(x1", "missing closing parenthesis"),
        ("x1 x2", "trailing input at token 'x2'"),
        ("x9", "unknown variable 'x9'"),
        ("x1 &", "bad character at position 2"),
    ]
    for text, message in refused:
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_poly(ring, text)


def test_ring_spec_json_roundtrip():
    spec = example_ring()
    doc = spec.to_json()
    spec2 = RingSpec.from_json(doc)
    assert spec2.to_json() == doc
    assert spec2.df == (2, 2)
    assert spec2.cf == ((2, 0), (0, 2))
