"""Colors, the commutation bicharacter, and exact skew polynomial arithmetic.

The ambient ring is a quantum affine space: variables v_1..v_N with
v_i v_j = q_{ij} v_j v_i where q_{ij} = zeta_m^{a_ij} for an antisymmetric
integer matrix a.  Monomials are kept in normal order v_1^{a_1}...v_N^{a_N};
reordering scalars come from the pairing C with x^a x^b = C(a,b) x^{a+b}.

Colors live in Z^n (gdeg(x_i) = i-th unit vector for the base ring Q);
derived rings (the operator ring S, chi-rings, theta rings) carry their own
commutation matrices computed from the same bicharacter.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .scalars import CycScalar
from .sparse import add_scaled, add_term

__all__ = [
    "QRing",
    "Poly",
    "RingSpec",
    "ValidationReport",
    "chi",
    "c_pair",
    "poly_mul",
    "validate_ring",
    "parse_poly",
]


class QRing:
    """A quantum affine space k_q[v_1..v_N] over Q(zeta_m).

    ``aexp`` is the antisymmetric integer matrix of zeta-exponents:
    v_i v_j = zeta^{aexp[i][j]} v_j v_i.  ``degs`` are the internal degrees
    (positive integers) and ``colors`` the Z^ncol color vectors of the
    variables (defaults to unit vectors).
    """

    __slots__ = ("m", "names", "degs", "aexp", "colors", "nvars", "_zpow")

    def __init__(self, m, names, degs, aexp, colors=None):
        if m < 1:
            raise ValueError(f"conductor m must be positive, got {m}")
        self.m = m
        self.names = tuple(names)
        self.nvars = len(self.names)
        self.degs = tuple(degs)
        self.aexp = tuple(tuple(int(x) % m for x in row) for row in aexp)
        for i in range(self.nvars):
            if self.aexp[i][i] % m != 0:
                raise ValueError("aexp must vanish on the diagonal")
            for j in range(self.nvars):
                if (self.aexp[i][j] + self.aexp[j][i]) % m != 0:
                    raise ValueError("aexp must be antisymmetric mod m")
        if colors is None:
            colors = [unit_vector(self.nvars, i) for i in range(self.nvars)]
        self.colors = tuple(tuple(c) for c in colors)
        self._zpow = [CycScalar.zeta(m, k) for k in range(m)]

    def zeta_pow(self, k: int) -> CycScalar:
        return self._zpow[k % self.m]

    def one(self) -> CycScalar:
        return self._zpow[0]

    def cpair_exp(self, alpha, beta) -> int:
        """zeta-exponent of the reordering scalar C(x^alpha, x^beta)."""
        a = self.aexp
        total = 0
        for j in range(1, self.nvars):
            aj = alpha[j]
            if aj:
                row = a[j]
                for i in range(j):
                    if beta[i]:
                        total += row[i] * aj * beta[i]
        return total

    def cpair(self, alpha, beta) -> CycScalar:
        return self._zpow[self.cpair_exp(alpha, beta) % self.m]

    def chi_exp(self, alpha, beta) -> int:
        a = self.aexp
        total = 0
        for j in range(self.nvars):
            aj = alpha[j]
            if aj:
                row = a[j]
                for i in range(self.nvars):
                    if beta[i]:
                        total += row[i] * aj * beta[i]
        return total

    def chi(self, alpha, beta) -> CycScalar:
        """The alternating bicharacter: chi(e_i, e_j) = q_ij."""
        return self._zpow[self.chi_exp(alpha, beta) % self.m]

    def deg(self, alpha) -> int:
        return sum(a * d for a, d in zip(alpha, self.degs))

    def color(self, alpha):
        """Color vector of the monomial x^alpha in Z^ncol."""
        ncol = len(self.colors[0]) if self.colors else 0
        out = [0] * ncol
        for i, a in enumerate(alpha):
            if a:
                ci = self.colors[i]
                for k in range(ncol):
                    out[k] += a * ci[k]
        return tuple(out)

    def mono_mul(self, alpha, beta):
        """x^alpha * x^beta = (scalar, exponent)."""
        exps = tuple(a + b for a, b in zip(alpha, beta))
        return self.cpair(alpha, beta), exps

    def zero_exp(self):
        return (0,) * self.nvars

    def __repr__(self):
        return f"QRing(m={self.m}, vars={','.join(self.names)})"


def unit_vector(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


# ---------------------------------------------------------------------------
# polynomial dictionaries: exponent tuple -> CycScalar (no zero values stored)
# ---------------------------------------------------------------------------

def dict_mul(ring, p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            s, exps = ring.mono_mul(ea, eb)
            add_term(out, exps, ca * cb * s)
    return out


class Poly:
    """A skew polynomial: finitely supported exponent -> CycScalar map."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: QRing, terms=None):
        self.ring = ring
        self.terms = dict(terms) if terms else {}

    @staticmethod
    def zero(ring):
        return Poly(ring)

    @staticmethod
    def constant(ring, value):
        if isinstance(value, (int, Fraction)):
            value = CycScalar.from_rational(ring.m, value)
        if not value:
            return Poly(ring)
        return Poly(ring, {ring.zero_exp(): value})

    @staticmethod
    def variable(ring, i):
        exps = unit_vector(ring.nvars, i)
        return Poly(ring, {exps: CycScalar.one(ring.m)})

    @staticmethod
    def monomial(ring, exps, coeff=None):
        coeff = CycScalar.one(ring.m) if coeff is None else coeff
        if not coeff:
            return Poly(ring)
        return Poly(ring, {tuple(exps): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            other = Poly.constant(self.ring, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            other = Poly.constant(self.ring, other)
        out = dict(self.terms)
        add_scaled(out, other.terms)
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            other = Poly.constant(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycScalar.from_rational(self.ring.m, other)
        if isinstance(other, CycScalar):
            if not other:
                return Poly(self.ring)
            return Poly(self.ring, {e: c * other for e, c in self.terms.items()})
        return Poly(self.ring, dict_mul(self.ring, self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            return self * other
        return NotImplemented

    def __pow__(self, k):
        out = Poly.constant(self.ring, 1)
        for _ in range(k):
            out = out * self
        return out

    def is_monomial(self):
        return len(self.terms) == 1

    def color(self):
        """Color vector if G-homogeneous, else None."""
        cols = {self.ring.color(e) for e in self.terms}
        if len(cols) == 1:
            return cols.pop()
        return None

    def constant_term(self) -> CycScalar:
        c = self.terms.get(self.ring.zero_exp())
        return c if c is not None else CycScalar.zero(self.ring.m)

    def __str__(self):
        return poly_to_string(self)

    def __repr__(self):
        return f"Poly({poly_to_string(self)})"


def poly_to_string(p: Poly) -> str:
    if not p.terms:
        return "0"
    ring = p.ring
    parts = []
    for exps in sorted(p.terms, key=lambda e: (ring.deg(e), e)):
        c = p.terms[exps]
        mono = "*".join(
            f"{ring.names[i]}^{e}" if e > 1 else ring.names[i]
            for i, e in enumerate(exps) if e
        )
        if not mono:
            parts.append(f"({c.to_string()})")
        elif c.is_one():
            parts.append(mono)
        else:
            parts.append(f"({c.to_string()})*{mono}")
    return " + ".join(parts)


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|-|\(|\)|/)")


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        mobj = _TOKEN.match(text, pos)
        if not mobj:
            raise ValueError(f"bad character at position {pos} in {text!r}")
        out.append(mobj.group(1))
        pos = mobj.end()
    out.append(None)
    return out


class _Parser:
    """Recursive-descent parser for the ASCII polynomial grammar.

    Grammar: integers, 'z' for zeta_m, variable names, '+', '-', '*', '^',
    '/' (rational coefficients), parentheses.  Adjacency does not multiply;
    '*' is required between factors.
    """

    def __init__(self, ring, tokens):
        self.ring = ring
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def parse(self):
        p = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input at token {self.peek()!r}")
        return p

    def expr(self):
        if self.peek() == "-":
            self.next()
            out = -self.term()
        else:
            out = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            t = self.term()
            out = out + t if op == "+" else out - t
        return out

    def term(self):
        out = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            f = self.factor()
            if op == "*":
                out = out * f
            else:
                if f.terms and list(f.terms) == [self.ring.zero_exp()]:
                    out = out * f.constant_term().inverse()
                else:
                    raise ValueError("division only by scalars")
        return out

    def factor(self):
        base = self.atom()
        while self.peek() == "^":
            self.next()
            tok = self.next()
            neg = False
            if tok == "-":
                neg, tok = True, self.next()
            if not tok or not tok.isdigit():
                raise ValueError("exponent must be an integer")
            k = int(tok)
            if neg:
                if not (base.is_monomial() and not any(next(iter(base.terms)))):
                    raise ValueError("negative powers only on scalars")
                base = Poly.constant(self.ring, 1) * base.constant_term() ** (-k)
            else:
                base = base ** k
        return base

    def atom(self):
        tok = self.next()
        if tok is None:
            raise ValueError("unexpected end of input")
        if tok == "(":
            p = self.expr()
            if self.next() != ")":
                raise ValueError("missing closing parenthesis")
            return p
        if tok == "-":
            return -self.atom()
        if tok.isdigit():
            return Poly.constant(self.ring, int(tok))
        if tok == "z":
            return Poly.constant(self.ring, CycScalar.zeta(self.ring.m))
        if tok in self.ring.names:
            return Poly.variable(self.ring, self.ring.names.index(tok))
        raise ValueError(f"unknown variable {tok!r}")


def parse_poly(ring: QRing, text: str) -> Poly:
    return _Parser(ring, _tokenize(text)).parse()


# ---------------------------------------------------------------------------
# the ambient ring spec Q = k_q[x_1..x_n] with relations f_1..f_c
# ---------------------------------------------------------------------------

class RingSpec:
    """The data (n, m, q-exponent matrix, degrees, relations) defining Q and R.

    Relations must be G-homogeneous; with G = Z^n and gdeg(x_i) = e_i that
    forces each f_i to be a single monomial (coefficients are normalized to
    1, which generates the same ideal).
    """

    def __init__(self, n, m, aexp, degrees=None, relations=()):
        self.n = n
        self.m = m
        degrees = tuple(degrees) if degrees else (1,) * n
        names = tuple(f"x{i+1}" for i in range(n))
        self.qring = QRing(m, names, degrees, aexp)
        self.degrees = degrees
        rels = []
        for f in relations:
            if isinstance(f, str):
                f = parse_poly(self.qring, f)
            rels.append(f)
        self.relations = tuple(rels)
        self.c = len(rels)
        self.rel_exps = []
        for f in rels:
            if len(f.terms) == 1:
                self.rel_exps.append(next(iter(f.terms)))
            else:
                self.rel_exps.append(None)  # caught by validate_ring
        self.df = tuple(
            self.qring.deg(e) if e is not None else None for e in self.rel_exps
        )
        self.cf = tuple(
            self.qring.color(e) if e is not None else None for e in self.rel_exps
        )

    # chi on arbitrary color vectors (length n)
    def chi(self, alpha, beta) -> CycScalar:
        return self.qring.chi(alpha, beta)

    def chi_ff(self, i, j) -> CycScalar:
        """chi on the colors of f_i and f_j."""
        return self.qring.chi(self.cf[i], self.cf[j])

    def one(self) -> CycScalar:
        return CycScalar.one(self.m)

    def to_json(self):
        return {
            "n": self.n,
            "m": self.m,
            "qexp": [list(r) for r in self.qring.aexp],
            "degrees": list(self.degrees),
            "relations": [poly_to_string(f) for f in self.relations],
        }

    @staticmethod
    def from_json(doc) -> "RingSpec":
        return RingSpec(
            int(doc["n"]),
            int(doc["m"]),
            doc["qexp"],
            doc.get("degrees"),
            doc.get("relations", ()),
        )

    def __repr__(self):
        rels = ", ".join(poly_to_string(f) for f in self.relations)
        return f"RingSpec(n={self.n}, m={self.m}, f=({rels}))"


def chi(spec: RingSpec, alpha, beta) -> CycScalar:
    """Alternating bicharacter on Z^n; chi(e_i, e_j) = q_ij."""
    if len(alpha) != spec.n or len(beta) != spec.n:
        raise ValueError("color vector length mismatch")
    return spec.qring.chi(alpha, beta)


def c_pair(spec: RingSpec, alpha, beta) -> CycScalar:
    """Reordering scalar with x^alpha x^beta = c_pair(alpha,beta) x^(alpha+beta)."""
    return spec.qring.cpair(alpha, beta)


def poly_mul(p: Poly, q: Poly) -> Poly:
    if p.ring is not q.ring and p.ring.names != q.ring.names:
        raise ValueError("polynomials over different rings")
    return p * q


class ValidationReport:
    def __init__(self, ok, messages, hilbert_cutoff=None, hilbert_dims=None):
        self.ok = ok
        self.messages = list(messages)
        self.hilbert_cutoff = hilbert_cutoff
        self.hilbert_dims = hilbert_dims

    def to_json(self):
        return {
            "ok": self.ok,
            "messages": self.messages,
            "hilbert_cutoff": self.hilbert_cutoff,
            "hilbert_dims": self.hilbert_dims,
        }

    def __bool__(self):
        return self.ok

    def __repr__(self):
        status = "valid" if self.ok else "INVALID"
        return f"ValidationReport({status}: {'; '.join(self.messages) or 'ok'})"


def _series_coeffs(numer_factors, denom_factors, cutoff):
    """Coefficients of prod(1-t^a)/prod(1-t^b) up to degree cutoff."""
    coeffs = [0] * (cutoff + 1)
    coeffs[0] = 1
    for a in numer_factors:
        new = list(coeffs)
        for d in range(a, cutoff + 1):
            new[d] -= coeffs[d - a]
        coeffs = new
    for b in denom_factors:
        for d in range(b, cutoff + 1):
            coeffs[d] += coeffs[d - b]
    return coeffs


def monomials_of_degree(ring, deg):
    """All exponent vectors of weighted internal degree exactly deg."""
    return standard_monomials(ring, deg, ())


def standard_monomials(ring, deg, leads):
    """Exponent vectors of weighted degree deg that no lead divides, in
    ascending lexicographic order.

    Each lead is tested at the last coordinate of its support: once the
    fixed prefix is divisible by it, so is every completion and every larger
    value of that coordinate, so the walk leaves the coordinate there.
    """
    out = []
    if deg < 0:
        return out
    n = ring.nvars
    closing = [[] for _ in range(n)]
    for lead in leads:
        support = [k for k, e in enumerate(lead) if e]
        if not support:
            return out
        closing[support[-1]].append(lead)
    exps = [0] * n

    def walk(i, rem):
        if i == n:
            if rem == 0:
                out.append(tuple(exps))
            return
        e = 0
        while e * ring.degs[i] <= rem:
            exps[i] = e
            if closing[i] and any(all(a >= b for a, b in zip(exps, lead))
                                  for lead in closing[i]):
                break
            walk(i + 1, rem - e * ring.degs[i])
            e += 1
        exps[i] = 0

    walk(0, deg)
    return out


def validate_ring(spec: RingSpec, cutoff=None) -> ValidationReport:
    """Certify the ring data: homogeneity of each f_i and regularity of f.

    Regularity is checked by comparing dim_k R_j with the coefficient of t^j
    in prod(1-t^df_i)/prod(1-t^d_i) for all j up to the cutoff (default
    2*sum(df_i)).
    """
    messages = []
    for idx, f in enumerate(spec.relations):
        if not f:
            messages.append(f"relation f{idx+1} is zero")
            continue
        if len(f.terms) > 1:
            messages.append(
                f"relation f{idx+1} is not G-homogeneous "
                "(distinct monomials have distinct colors)")
            continue
        exps = next(iter(f.terms))
        if sum(exps) < 2:
            messages.append(f"relation f{idx+1} is not in (x_1..x_n)^2")
    if messages:
        return ValidationReport(False, messages)

    if cutoff is None:
        cutoff = 2 * sum(spec.df) if spec.c else 2
    expected = _series_coeffs(spec.df, spec.degrees, cutoff)
    actual = [len(standard_monomials(spec.qring, d, spec.rel_exps))
              for d in range(cutoff + 1)]
    for d in range(cutoff + 1):
        if expected[d] != actual[d]:
            messages.append(
                f"Hilbert mismatch at degree {d}: expected {expected[d]}, "
                f"got {actual[d]} (f is not a regular sequence)")
            return ValidationReport(False, messages, cutoff, actual)
    return ValidationReport(True, [], cutoff, actual)
