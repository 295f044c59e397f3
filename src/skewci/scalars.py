"""Exact arithmetic in the cyclotomic field Q(zeta_m).

Elements are residues modulo the m-th cyclotomic polynomial Phi_m, stored in
the power basis 1, z, ..., z^(phi(m)-1) with Fraction coefficients.  The
representation is fully reduced, so two values are equal in the field iff
their coefficient vectors are equal.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

__all__ = [
    "CycScalar",
    "ConductorMismatch",
    "cyclotomic_polynomial",
    "euler_phi",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ConductorMismatch(ValueError):
    """Raised when combining scalars with different conductors m."""


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("conductor must be positive")
    result, k = 1, m
    p = 2
    while p * p <= k:
        if k % p == 0:
            e = 0
            while k % p == 0:
                k //= p
                e += 1
            result *= (p - 1) * p ** (e - 1)
        p += 1
    if k > 1:
        result *= k - 1
    return result


def _polydiv_exact(num: list, den: list) -> list:
    """Exact division of integer polynomials (used for Phi_m only)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        assert c % den[-1] == 0
        q[i] = c // den[-1]
        for j, d in enumerate(den):
            num[i + j] -= q[i] * d
    assert all(c == 0 for c in num)
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Coefficients of Phi_m, low degree first, as integers (monic)."""
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            phi_d = list(cyclotomic_polynomial(d))
            new = [0] * (len(den) + len(phi_d) - 1)
            for i, a in enumerate(den):
                for j, b in enumerate(phi_d):
                    new[i + j] += a * b
            den = new
    return tuple(_polydiv_exact(num, den))


class _FieldData:
    """Per-conductor tables: phi(m) and reduction rows for z^k, k >= phi."""

    __slots__ = ("m", "phi", "red")

    def __init__(self, m: int):
        self.m = m
        self.phi = euler_phi(m)
        poly = cyclotomic_polynomial(m)
        # z^phi = -(poly[0] + ... + poly[phi-1] z^(phi-1)); extend far enough
        # for products (2phi-2) and for zeta powers up to z^(m-1)
        rows = []
        base = [Fraction(-c) for c in poly[: self.phi]]
        rows.append(tuple(base))
        extra = max(2 * self.phi - 2, m - 1) - self.phi
        for _ in range(extra):
            prev = rows[-1]
            shifted = [_ZERO] + list(prev[:-1])
            top = prev[-1]
            if top:
                shifted = [s + top * b for s, b in zip(shifted, base)]
            rows.append(tuple(shifted))
        self.red = rows  # red[k] = coefficients of z^(phi+k)


_FIELD_CACHE: dict = {}


def _field(m: int) -> _FieldData:
    data = _FIELD_CACHE.get(m)
    if data is None:
        data = _FieldData(m)
        _FIELD_CACHE[m] = data
    return data


class CycScalar:
    """An element of Q(zeta_m) in reduced power-basis form.

    Values are immutable; all arithmetic returns new objects in canonical
    form, so ``==`` on coefficient vectors decides field equality.
    """

    __slots__ = ("m", "c")

    def __init__(self, m: int, coeffs):
        self.m = m
        self.c = tuple(coeffs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(m: int) -> "CycScalar":
        return CycScalar(m, (_ZERO,) * _field(m).phi)

    @staticmethod
    def one(m: int) -> "CycScalar":
        return CycScalar.from_rational(m, 1)

    @staticmethod
    def from_rational(m: int, value) -> "CycScalar":
        phi = _field(m).phi
        coeffs = [_ZERO] * phi
        coeffs[0] = Fraction(value)
        return CycScalar(m, coeffs)

    @staticmethod
    def zeta(m: int, k: int = 1) -> "CycScalar":
        """zeta_m^k, reduced."""
        fd = _field(m)
        k %= m
        coeffs = [_ZERO] * max(fd.phi, k + 1)
        coeffs[k] = _ONE
        return CycScalar(m, _reduce(fd, coeffs))

    # -- helpers ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycScalar):
            if other.m != self.m:
                raise ConductorMismatch(
                    f"conductor mismatch: {self.m} vs {other.m}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycScalar.from_rational(self.m, other)
        return NotImplemented

    # -- predicates ---------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.c)

    def is_one(self) -> bool:
        return self.c[0] == 1 and not any(self.c[1:])

    def is_rational(self) -> bool:
        return not any(self.c[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.c[0]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycScalar(self.m, tuple(a + b for a, b in zip(self.c, other.c)))

    __radd__ = __add__

    def __neg__(self):
        return CycScalar(self.m, tuple(-a for a in self.c))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycScalar(self.m, tuple(a - b for a, b in zip(self.c, other.c)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        n = len(a)
        # fast paths: rational factors
        if not any(b[1:]):
            s = b[0]
            if not s:
                return CycScalar.zero(self.m)
            return CycScalar(self.m, tuple(x * s for x in a))
        if not any(a[1:]):
            s = a[0]
            if not s:
                return CycScalar.zero(self.m)
            return CycScalar(self.m, tuple(x * s for x in b))
        conv = [_ZERO] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return CycScalar(self.m, _reduce(_field(self.m), conv))

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        """Multiplicative inverse via extended Euclid in Q[t] mod Phi_m."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        if self.is_rational():
            return CycScalar.from_rational(self.m, 1 / self.c[0])
        fd = _field(self.m)
        phi_coeffs = [Fraction(x) for x in cyclotomic_polynomial(self.m)]
        r0, r1 = phi_coeffs, list(self.c)
        s0, s1 = [_ZERO], [_ONE]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                inv = 1 / r1[0]
                coeffs = [x * inv for x in s1] + [_ZERO] * fd.phi
                return CycScalar(self.m, _reduce(fd, coeffs[: 2 * fd.phi - 1]))
            q, r = _polydiv_frac(r0, r1)
            s = _polysub(s0, _polymul(q, s1))
            r0, r1 = r1, r
            s0, s1 = s1, s

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = CycScalar.one(self.m)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- structure ----------------------------------------------------

    def unit_order(self):
        """Smallest e with self**e == 1, or None if not a root of unity.

        Roots of unity in Q(zeta_m) form the group generated by -1 and
        zeta_m, of order lcm(2, m).
        """
        if not self:
            raise ZeroDivisionError("unit_order of zero")
        n = self.m * 2 // gcd(self.m, 2)
        if not (self ** n).is_one():
            return None
        best = n
        for e in range(1, n + 1):
            if n % e == 0 and (self ** e).is_one():
                best = e
                break
        return best

    # -- hashing / comparison / display -------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.c[0] == other
        if not isinstance(other, CycScalar):
            return NotImplemented
        return self.m == other.m and self.c == other.c

    def __hash__(self):
        return hash((self.m, self.c))

    def __repr__(self):
        return f"CycScalar({self.m}, {self.to_string()!r})"

    def to_string(self) -> str:
        """Render as 'a0 + a1*z + ...' omitting zero terms."""
        parts = []
        for k, a in enumerate(self.c):
            if not a:
                continue
            if k == 0:
                parts.append(str(a))
            else:
                z = "z" if k == 1 else f"z^{k}"
                if a == 1:
                    parts.append(z)
                elif a == -1:
                    parts.append(f"-{z}")
                else:
                    parts.append(f"{a}*{z}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def _reduce(fd: _FieldData, conv) -> tuple:
    phi = fd.phi
    out = list(conv[:phi]) + [_ZERO] * (phi - len(conv))
    for k in range(phi, len(conv)):
        ck = conv[k]
        if ck:
            row = fd.red[k - phi]
            for i in range(phi):
                if row[i]:
                    out[i] += ck * row[i]
    return tuple(out[:phi])


def _polydiv_frac(num, den):
    num = list(num)
    dn = len(den) - 1
    q = [_ZERO] * max(1, len(num) - dn)
    inv = 1 / den[-1]
    for i in range(len(num) - dn - 1, -1, -1):
        c = num[i + dn] * inv
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    return q, num[:dn] or [_ZERO]


def _polymul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _polysub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [_ZERO] * (n - len(a))
    b = list(b) + [_ZERO] * (n - len(b))
    return [x - y for x, y in zip(a, b)]
