import random
from fractions import Fraction
from math import gcd

import pytest

from skewci.scalars import (
    ConductorMismatch,
    CycScalar,
    cyclotomic_polynomial,
    euler_phi,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert euler_phi(8) == 4
    assert euler_phi(12) == 4


def test_zeta4_squares_to_minus_one():
    z = CycScalar.zeta(4)
    assert z * z == CycScalar.from_rational(4, -1)
    assert z * z == -1


def test_zeta3_sum_of_primitive_roots():
    z = CycScalar.zeta(3)
    assert z + z * z == -1


def test_m8_exponent_arithmetic():
    # zeta^3 * zeta^7 = zeta^10 = zeta^2, then reduced mod Phi_8
    z = CycScalar.zeta(8)
    assert z ** 3 * z ** 7 == z ** 2


def test_inverse_of_zeta4():
    z = CycScalar.zeta(4)
    assert z.inverse() == -z
    assert z * z.inverse() == 1


def test_inverse_of_one_plus_zeta3():
    # extended Euclid of 1+t against Phi_3 = t^2+t+1; the inverse is -zeta
    # since (1+z)(-z) = -z - z^2 = 1 when 1 + z + z^2 = 0
    z = CycScalar.zeta(3)
    a = 1 + z
    inv = a.inverse()
    assert a * inv == 1
    assert inv == -z


def test_inverse_of_rational():
    a = CycScalar.from_rational(4, 2)
    assert a.inverse() == Fraction(1, 2)


def test_unit_orders():
    z = CycScalar.zeta(4)
    assert z.unit_order() == 4
    assert CycScalar.from_rational(4, -1).unit_order() == 2
    assert (1 + z).unit_order() is None
    assert CycScalar.one(4).unit_order() == 1


def test_unit_order_of_zeta_powers():
    from math import gcd

    for m in (2, 3, 4, 6, 8):
        for k in range(1, m):
            assert CycScalar.zeta(m, k).unit_order() == m // gcd(m, k)


def test_conductor_mismatch():
    with pytest.raises(ConductorMismatch):
        CycScalar.zeta(4) + CycScalar.zeta(3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CycScalar.zero(4).inverse()
    with pytest.raises(ZeroDivisionError):
        CycScalar.zero(4).unit_order()


def _random_scalar(rng, m):
    phi = euler_phi(m)
    return CycScalar(
        m,
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(phi)],
    )


def test_field_axioms_randomized():
    rng = random.Random(20240)
    for m in (2, 3, 4, 8):
        for _ in range(40):
            a, b, c = (_random_scalar(rng, m) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a * 1  # commutative coefficients
            if a:
                assert a * a.inverse() == 1


def test_reduction_idempotence():
    rng = random.Random(7)
    for m in (3, 4, 8):
        for _ in range(20):
            a = _random_scalar(rng, m)
            again = CycScalar(m, a.c)
            assert again == a
            assert len(a.c) == euler_phi(m)


def test_string_roundtrip_rendering():
    z = CycScalar.zeta(8)
    val = 2 + z - 3 * z ** 3
    assert val.to_string() == "2 + z - 3*z^3"
    assert CycScalar.zero(4).to_string() == "0"


def _fraction_rendering(s):
    """to_string written over the Fraction coefficients, as a reference."""
    parts = []
    for k, a in enumerate(s.c):
        if a:
            z = "z" if k == 1 else f"z^{k}"
            parts.append(str(a) if k == 0 else z if a == 1 else
                         f"-{z}" if a == -1 else f"{a}*{z}")
    out = parts[0] if parts else "0"
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def test_rendering_matches_fraction_reference():
    rng = random.Random(25)
    for m in (4, 5, 12):
        for _ in range(60):
            s = _random_scalar(rng, m)
            for value in (s, -s, s * s, s + 1, CycScalar.zeta(m, 3) - s):
                assert value.to_string() == _fraction_rendering(value)


# -- fields of degree phi(m) > 2 --------------------------------------------

LARGE_PHI = (5, 7, 9, 12, 15)


def _schoolbook_product(m, a, b):
    """Fraction coefficients of a*b mod Phi_m by polynomial long division."""
    poly = cyclotomic_polynomial(m)
    phi = len(poly) - 1
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, phi - 1, -1):
        top = prod[k]
        for i, p in enumerate(poly):
            prod[k - phi + i] -= top * p
    return tuple(prod[:phi])


def _assert_canonical(s):
    assert all(type(x) is int for x in s.n) and type(s.d) is int
    assert s.d > 0
    assert gcd(s.d, *s.n) == 1


def _nonzero_scalar(rng, m):
    while True:
        a = _random_scalar(rng, m)
        if a:
            return a


def test_inverse_round_trip_large_phi():
    rng = random.Random(31337)
    for m in LARGE_PHI:
        for _ in range(15):
            a, b = _nonzero_scalar(rng, m), _nonzero_scalar(rng, m)
            inv = b.inverse()
            _assert_canonical(inv)
            assert (a * b) * inv == a
            assert a * a.inverse() == 1
            assert a / b == a * inv


def test_products_match_schoolbook_large_phi():
    rng = random.Random(4711)
    for m in LARGE_PHI:
        for _ in range(15):
            a, b = _random_scalar(rng, m), _random_scalar(rng, m)
            prod = a * b
            _assert_canonical(prod)
            assert prod.c == _schoolbook_product(m, a.c, b.c)
            assert (a + b).c == tuple(x + y for x, y in zip(a.c, b.c))
            assert (a - b).c == tuple(x - y for x, y in zip(a.c, b.c))


def test_one_value_by_different_routes_large_phi():
    rng = random.Random(99)
    for m in LARGE_PHI:
        phi = euler_phi(m)
        rest = [0] * (phi - 2)
        a = CycScalar(m, [Fraction(2, 4), Fraction(-6, 9)] + rest)
        b = _random_scalar(rng, m)
        routes = [
            a,
            CycScalar(m, [Fraction(1, 2), Fraction(-2, 3)] + rest),
            (a + b) - b,
            b + (a - b),
            CycScalar(m, a.c),
        ]
        for r in routes:
            _assert_canonical(r)
            assert r == a and hash(r) == hash(a) and r.c == a.c
        assert (a.n, a.d) == ((3, -4) + (0,) * (phi - 2), 6)
        half = [CycScalar(m, [Fraction(2, 4)] + [0] * (phi - 1)),
                CycScalar.from_rational(m, Fraction(1, 2)),
                (b + Fraction(1, 2)) - b,
                CycScalar.one(m) / 2]
        for r in half:
            _assert_canonical(r)
            assert r == half[0] and hash(r) == hash(half[0])
            assert r == Fraction(1, 2) and not any(r.n[1:])
            assert Fraction(r.n[0], r.d) == Fraction(1, 2)
        zero = b - b
        _assert_canonical(zero)
        assert zero == CycScalar.zero(m) and zero.d == 1 and not zero


def test_zeta_powers_and_root_of_unity_inverses_large_phi():
    for m in LARGE_PHI:
        z = CycScalar.zeta(m)
        for k in range(-m, 2 * m):
            zk = CycScalar.zeta(m, k)
            assert zk == z ** (k % m)
            assert zk.inverse() == CycScalar.zeta(m, -k)
            assert (-zk).inverse() == -CycScalar.zeta(m, -k)
            # a multiple of zeta^k takes the conjugate route
            assert (3 * zk).inverse() == CycScalar.zeta(m, -k) / 3
            assert zk * zk.inverse() == 1


def test_errors_large_phi():
    for m in LARGE_PHI:
        zero = CycScalar.zero(m)
        with pytest.raises(ZeroDivisionError):
            zero.inverse()
        with pytest.raises(ZeroDivisionError):
            CycScalar.zeta(m) / zero
        with pytest.raises(ZeroDivisionError):
            zero.unit_order()
    with pytest.raises(ConductorMismatch):
        CycScalar.zeta(5) * CycScalar.zeta(7)
    with pytest.raises(ConductorMismatch):
        CycScalar.zeta(12) - CycScalar.zeta(15)
    with pytest.raises(ConductorMismatch):
        CycScalar.zeta(9) / CycScalar.zeta(5)
