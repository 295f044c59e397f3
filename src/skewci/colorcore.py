"""Colors, the commutation bicharacter, and exact skew polynomial arithmetic.

The ambient ring is a quantum affine space: variables v_1..v_N with
v_i v_j = q_{ij} v_j v_i where q_{ij} = zeta_m^{a_ij} for an antisymmetric
integer matrix a.  Monomials are kept in normal order v_1^{a_1}...v_N^{a_N};
reordering scalars come from the pairing C with x^a x^b = C(a,b) x^{a+b}.

A polynomial is a term dict {exponent tuple: CycScalar} that stores no
zero coefficient (``parse_poly`` builds one, ``poly_to_string`` prints one);
term dicts are never mutated once built.

Colors live in Z^n (gdeg(x_i) = i-th unit vector for the base ring Q);
derived rings (the operator ring S, chi-rings, theta rings) carry their own
commutation matrices computed from the same bicharacter.
"""

from __future__ import annotations

import re

from .scalars import CycScalar
from .sparse import add_scaled, add_term

__all__ = [
    "QRing",
    "RingSpec",
    "ValidationReport",
    "chi",
    "validate_ring",
    "parse_poly",
    "poly_to_string",
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
    """The product p q of two term dicts, as a fresh term dict."""
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            s, exps = ring.mono_mul(ea, eb)
            add_term(out, exps, ca * cb * s)
    return out


def poly_to_string(ring, terms) -> str:
    """A term dict in the grammar ``parse_poly`` reads, terms by degree."""
    if not terms:
        return "0"
    parts = []
    for exps in sorted(terms, key=lambda e: (ring.deg(e), e)):
        c = terms[exps]
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
    '*' is required between factors.  Every method returns a fresh term
    dict, which its caller may extend in place.
    """

    def __init__(self, ring, tokens):
        self.ring = ring
        self.toks = tokens
        self.i = 0
        self.one = CycScalar.one(ring.m)

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
            out = _neg(self.term())
        else:
            out = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            t = self.term()
            add_scaled(out, t if op == "+" else _neg(t))
        return out

    def term(self):
        out = self.factor()
        zero = self.ring.zero_exp()
        while self.peek() in ("*", "/"):
            op = self.next()
            f = self.factor()
            if op == "*":
                out = dict_mul(self.ring, out, f)
            elif list(f) == [zero]:
                inv = f[zero].inverse()
                out = {e: c * inv for e, c in out.items()}
            else:
                raise ValueError("division only by scalars")
        return out

    def factor(self):
        base = self.atom()
        zero = self.ring.zero_exp()
        while self.peek() == "^":
            self.next()
            tok = self.next()
            neg = tok == "-"
            if neg:
                tok = self.next()
            if not tok or not tok.isdigit():
                raise ValueError("exponent must be an integer")
            k = int(tok)
            if neg:
                if list(base) != [zero]:
                    raise ValueError("negative powers only on scalars")
                base = {zero: base[zero] ** (-k)}
            else:
                power = {zero: self.one}
                for _ in range(k):
                    power = dict_mul(self.ring, power, base)
                base = power
        return base

    def atom(self):
        ring = self.ring
        tok = self.next()
        if tok is None:
            raise ValueError("unexpected end of input")
        if tok == "(":
            p = self.expr()
            if self.next() != ")":
                raise ValueError("missing closing parenthesis")
            return p
        if tok == "-":
            return _neg(self.atom())
        if tok.isdigit():
            value = CycScalar.from_rational(ring.m, int(tok))
            return {ring.zero_exp(): value} if value else {}
        if tok == "z":
            return {ring.zero_exp(): CycScalar.zeta(ring.m)}
        if tok in ring.names:
            return {unit_vector(ring.nvars, ring.names.index(tok)): self.one}
        raise ValueError(f"unknown variable {tok!r}")


def _neg(terms):
    return {e: -c for e, c in terms.items()}


def parse_poly(ring: QRing, text: str) -> dict:
    """The term dict {exps: CycScalar} of a polynomial written in the ASCII
    grammar of ``_Parser``; malformed text raises ValueError."""
    return _Parser(ring, _tokenize(text)).parse()


# ---------------------------------------------------------------------------
# the ambient ring spec Q = k_q[x_1..x_n] with relations f_1..f_c
# ---------------------------------------------------------------------------

class RingSpec:
    """The data (n, m, q-exponent matrix, degrees, relations) defining Q and R.

    ``relations`` are polynomial strings; ``self.relations`` holds their
    term dicts.  Relations must be G-homogeneous; with G = Z^n and
    gdeg(x_i) = e_i that forces each f_i to be a single monomial.
    """

    def __init__(self, n, m, aexp, degrees=None, relations=()):
        self.n = n
        self.m = m
        degrees = tuple(degrees) if degrees else (1,) * n
        names = tuple(f"x{i+1}" for i in range(n))
        self.qring = QRing(m, names, degrees, aexp)
        self.degrees = degrees
        self.relations = tuple(parse_poly(self.qring, f) for f in relations)
        self.c = len(self.relations)
        # None for a non-monomial relation, which validate_ring refuses
        self.rel_exps = [next(iter(f)) if len(f) == 1 else None
                         for f in self.relations]
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

    def hilbert_dims(self, dmax):
        """[dim_k R_d for d = 0..dmax], counted as standard monomials."""
        return [len(standard_monomials(self.qring, d, self.rel_exps))
                for d in range(dmax + 1)]

    def to_json(self):
        return {
            "n": self.n,
            "m": self.m,
            "qexp": [list(r) for r in self.qring.aexp],
            "degrees": list(self.degrees),
            "relations": [poly_to_string(self.qring, f)
                          for f in self.relations],
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
        rels = ", ".join(poly_to_string(self.qring, f)
                         for f in self.relations)
        return f"RingSpec(n={self.n}, m={self.m}, f=({rels}))"


def chi(spec: RingSpec, alpha, beta) -> CycScalar:
    """Alternating bicharacter on Z^n; chi(e_i, e_j) = q_ij."""
    if len(alpha) != spec.n or len(beta) != spec.n:
        raise ValueError("color vector length mismatch")
    return spec.qring.chi(alpha, beta)


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
    # walk refers to itself; dropping it frees the closure, and with it the
    # reference to out, now instead of at the next cyclic collection
    del walk
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
        if len(f) > 1:
            messages.append(
                f"relation f{idx+1} is not G-homogeneous "
                "(distinct monomials have distinct colors)")
            continue
        exps = next(iter(f))
        if sum(exps) < 2:
            messages.append(f"relation f{idx+1} is not in (x_1..x_n)^2")
    if messages:
        return ValidationReport(False, messages)

    if cutoff is None:
        cutoff = 2 * sum(spec.df) if spec.c else 2
    expected = _series_coeffs(spec.df, spec.degrees, cutoff)
    actual = spec.hilbert_dims(cutoff)
    for d in range(cutoff + 1):
        if expected[d] != actual[d]:
            messages.append(
                f"Hilbert mismatch at degree {d}: expected {expected[d]}, "
                f"got {actual[d]} (f is not a regular sequence)")
            return ValidationReport(False, messages, cutoff, actual)
    return ValidationReport(True, [], cutoff, actual)
