"""Exact arithmetic in the cyclotomic field Q(zeta_m).

Elements are residues modulo the m-th cyclotomic polynomial Phi_m in the
power basis 1, z, ..., z^(phi(m)-1).  A value is stored as a tuple ``n`` of
phi(m) integer numerators over one common denominator ``d > 0`` with
gcd(d, *n) == 1, so the form is canonical: two values are equal in the
field iff their (m, n, d) are equal.  Phi_m is monic over Z, so a product is
an integer convolution reduced by integer rows, with one gcd at the end.

The inverse of a non-rational a is the product of its non-trivial Galois
conjugates sigma_k(a), k in (Z/m)^x minus {1}, divided by the rational norm
a * prod sigma_k(a).  The roots of unity +-zeta^k, which most pivots are,
take their inverse +-zeta^(-k) from a per-field table.  No floating point
anywhere, and no ``fractions``: rationals come in and go out as integers,
and the ``Fraction`` arguments the constructors accept are read through
their ``numerator`` and ``denominator``, as ints are.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

__all__ = [
    "CycScalar",
    "ConductorMismatch",
    "cyclotomic_polynomial",
    "euler_phi",
]


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


def _polydiv_exact(num, den):
    """num / den in Z[t], coefficients low degree first and den[-1] != 0,
    or None when the division is not exact."""
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    q = [0] * max(len(num) - len(den) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1]:
            return None
        q[i] = c // den[-1]
        for j, d in enumerate(den):
            num[i + j] -= q[i] * d
    return None if any(num) else q


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
    """Per-conductor integer tables.

    ``zpow[j]`` holds the numerators of zeta^j for j < m; ``red[k]`` the
    nonzero (index, coefficient) pairs of z^(phi+k) for the degrees a
    product reaches; ``conj`` one row table per non-trivial Galois
    automorphism sigma_k, its row i being sigma_k(z^i) = zeta^(ik); and
    ``unit_inv`` maps the numerators of each +-zeta^k to +-zeta^(-k).
    """

    __slots__ = ("phi", "zpow", "red", "conj", "unit_inv")

    def __init__(self, m: int):
        phi = self.phi = euler_phi(m)
        # z^phi = -(poly[0] + ... + poly[phi-1] z^(phi-1))
        base = tuple(-c for c in cyclotomic_polynomial(m)[:phi])
        # powers[j] = z^j reduced, for every zeta power and product degree
        powers = [tuple(int(i == j) for i in range(phi)) for j in range(phi)]
        while len(powers) < max(m, 2 * phi - 1):
            prev = powers[-1]
            top = prev[-1]
            powers.append(tuple((prev[i - 1] if i else 0) + top * base[i]
                                for i in range(phi)))
        self.zpow = tuple(powers[:m])
        self.red = tuple(tuple((i, r) for i, r in enumerate(row) if r)
                         for row in powers[phi:2 * phi - 1])
        self.conj = tuple(
            tuple(powers[i * k % m] for i in range(phi))
            for k in range(2, m) if gcd(k, m) == 1)
        self.unit_inv = {}
        for k, zk in enumerate(self.zpow):
            inv = self.zpow[-k % m]
            self.unit_inv[zk] = _make(m, inv, 1)
            self.unit_inv[_neg(zk)] = _make(m, _neg(inv), 1)


def _neg(v) -> tuple:
    return tuple([-x for x in v])


_FIELD_CACHE: dict = {}


def _field(m: int) -> _FieldData:
    data = _FIELD_CACHE.get(m)
    if data is None:
        data = _FieldData(m)
        _FIELD_CACHE[m] = data
    return data


_new = object.__new__


def _make(m: int, n, d: int) -> "CycScalar":
    """The scalar n/d, already canonical: d > 0 and gcd(d, *n) == 1."""
    out = _new(CycScalar)
    out.m = m
    out.n = n
    out.d = d
    return out


def _reduced(m: int, n, d: int) -> "CycScalar":
    """The scalar n/d for d > 0, with the common factor divided out."""
    g = gcd(d, *n)
    if g != 1:
        return _make(m, tuple([x // g for x in n]), d // g)
    return _make(m, tuple(n), d)


def _product(fd: _FieldData, a, b) -> list:
    """Numerators of a*b reduced mod Phi_m, for numerator tuples a, b."""
    phi = fd.phi
    conv = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    conv[j] += x * y
    for k, row in enumerate(fd.red, phi):
        ck = conv[k]
        if ck:
            for i, r in row:
                conv[i] += ck * r
    del conv[phi:]
    return conv


def _conjugate(rows, a) -> list:
    """sigma_k(a) for the Galois automorphism whose row table is rows."""
    out = [0] * len(a)
    for x, row in zip(a, rows):
        if x:
            for i, r in enumerate(row):
                if r:
                    out[i] += x * r
    return out


def _scale(a: "CycScalar", p: int, q: int) -> "CycScalar":
    """a * p/q for a rational p/q in lowest terms with q > 0."""
    if not p:
        return _make(a.m, (0,) * len(a.n), 1)
    if p == 1 and q == 1:
        return a
    return _reduced(a.m, [x * p for x in a.n], a.d * q)


def _is_rational(x) -> bool:
    """Is x an int or a Fraction?  Both carry numerator and denominator."""
    return hasattr(x, "denominator")


class CycScalar:
    """An element of Q(zeta_m) in reduced power-basis form.

    Values are immutable; all arithmetic returns objects in canonical
    form, so ``==`` on (m, numerators, denominator) decides field equality.
    """

    __slots__ = ("m", "n", "d")

    def __init__(self, m: int, coeffs):
        """The scalar with power-basis coefficients ``coeffs``, ints or
        Fractions."""
        coeffs = list(coeffs)
        d = lcm(*(x.denominator for x in coeffs))
        self.m = m
        # with d the lcm of reduced denominators, gcd(d, *n) == 1
        self.n = tuple(x.numerator * (d // x.denominator) for x in coeffs)
        self.d = d

    @property
    def c(self) -> tuple:
        """The power-basis coefficients as Fractions."""
        from fractions import Fraction

        d = self.d
        return tuple(Fraction(x, d) for x in self.n)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(m: int) -> "CycScalar":
        return _make(m, (0,) * _field(m).phi, 1)

    @staticmethod
    def one(m: int) -> "CycScalar":
        return _make(m, _field(m).zpow[0], 1)

    @staticmethod
    def from_rational(m: int, value) -> "CycScalar":
        """An int or a Fraction as a scalar."""
        return _make(m, (value.numerator,) + (0,) * (_field(m).phi - 1),
                     value.denominator)

    @staticmethod
    def zeta(m: int, k: int = 1) -> "CycScalar":
        """zeta_m^k, reduced."""
        return _make(m, _field(m).zpow[k % m], 1)

    # -- helpers ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycScalar):
            if other.m != self.m:
                raise ConductorMismatch(
                    f"conductor mismatch: {self.m} vs {other.m}")
            return other
        if _is_rational(other):
            return CycScalar.from_rational(self.m, other)
        return NotImplemented

    # -- predicates ---------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.n)

    def is_one(self) -> bool:
        n = self.n
        return n[0] == 1 and self.d == 1 and not any(n[1:])

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ad, bd = self.d, other.d
        if ad == bd:
            return _reduced(self.m, [x + y for x, y in zip(self.n, other.n)],
                            ad)
        return _reduced(self.m, [x * bd + y * ad
                                 for x, y in zip(self.n, other.n)], ad * bd)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.m, _neg(self.n), self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ad, bd = self.d, other.d
        if ad == bd:
            return _reduced(self.m, [x - y for x, y in zip(self.n, other.n)],
                            ad)
        return _reduced(self.m, [x * bd - y * ad
                                 for x, y in zip(self.n, other.n)], ad * bd)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.n, other.n
        # fast paths: rational factors
        if not any(b[1:]):
            return _scale(self, b[0], other.d)
        if not any(a[1:]):
            return _scale(other, a[0], self.d)
        return _reduced(self.m, _product(_field(self.m), a, b),
                        self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        """Multiplicative inverse: conjugates over the norm."""
        n, d, m = self.n, self.d, self.m
        if not any(n):
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        if not any(n[1:]):
            p = n[0]
            return _make(m, (d if p > 0 else -d,) + n[1:], abs(p))
        fd = _field(m)
        if d == 1:
            hit = fd.unit_inv.get(n)
            if hit is not None:
                return hit
        conj = _conjugate(fd.conj[0], n)
        for rows in fd.conj[1:]:
            conj = _product(fd, conj, _conjugate(rows, n))
        norm = _product(fd, n, conj)
        assert norm[0] and not any(norm[1:]), "norm is not a nonzero rational"
        if norm[0] < 0:
            return _reduced(m, [-d * x for x in conj], -norm[0])
        return _reduced(m, [d * x for x in conj], norm[0])

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

    # -- hashing / comparison / display -------------------------------

    def __eq__(self, other):
        if isinstance(other, CycScalar):
            return (self.m == other.m and self.n == other.n
                    and self.d == other.d)
        if _is_rational(other):
            n = self.n
            return (not any(n[1:])
                    and n[0] * other.denominator == other.numerator * self.d)
        return NotImplemented

    def __hash__(self):
        return hash((self.m, self.n, self.d))

    def __repr__(self):
        return f"CycScalar({self.m}, {self.to_string()!r})"

    def to_string(self) -> str:
        """Render as 'a0 + a1*z + ...' omitting zero terms."""
        parts = []
        d = self.d
        for k, x in enumerate(self.n):
            if not x:
                continue
            g = gcd(x, d)
            a = f"{x // g}" if g == d else f"{x // g}/{d // g}"
            if k == 0:
                parts.append(a)
            else:
                z = "z" if k == 1 else f"z^{k}"
                if x == d:
                    parts.append(z)
                elif x == -d:
                    parts.append(f"-{z}")
                else:
                    parts.append(f"{a}*{z}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out
