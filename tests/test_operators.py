import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from skewci.colorcore import QRing, RingSpec, validate_ring
from skewci.operators import (
    OperatorComplex,
    build_operator_complex,
    braided_hh,
    ext_over_theta,
    homology_bigraded,
)
from skewci.resolve import (
    KoszulComplex,
    ModulePresentation,
    finite_koszul_resolution,
    minimal_R_resolution,
)
from skewci.scalars import CycScalar
from skewci.sparse import add_scaled, add_term

from fixtures import (
    d_squares_to_zero,
    example_ring,
    fixture_rings,
    hypersurface_ring,
    is_rational,
    random_ring,
    rank,
    slice_columns,
    slice_images,
    three_var_ring,
)


M5 = RingSpec(2, 5, [[0, 1], [-1, 0]], relations=["x1^2", "x2^2"])


def paper_display_complex(spec):
    """The length-2 complex resolving R/(x) with explicit e-actions.

    F: 0 -> Q --(y^2, x)^T--> Q^2 --(x, y^2)--> Q -> 0, with
    e_1 = (x,0)^T then (0,x), e_2 = (0,1)^T then (1,0).
    """
    one = spec.one()
    basis = [
        [(0, (0, 0))],
        [(1, (1, 0)), (2, (0, 2))],
        [(3, (1, 2))],
    ]
    # each map as its columns {(exps, row): scalar}
    diff = [
        None,
        [{((1, 0), 0): one}, {((0, 2), 0): one}],
        [{((0, 2), 0): one, ((1, 0), 1): one}],
    ]
    eact = [
        [  # e_1
            [{((1, 0), 0): one}],
            [{}, {((1, 0), 0): one}],
            None,
        ],
        [  # e_2
            [{((0, 0), 1): one}],
            [{((0, 0), 0): one}, {}],
            None,
        ],
    ]
    module = ModulePresentation.cyclic(spec, ["x1"])
    return KoszulComplex(spec, basis, diff, eact, module)


def test_paper_display_complex_is_strict_and_exact():
    spec = example_ring()
    cx = paper_display_complex(spec)
    assert not cx.verify_invariants()
    assert not cx.verify_exactness()


def test_mislabelled_resolution_is_refused():
    # a strict, exact resolution of R/(x1) labelled as one of R/(x2): only
    # the H_0 part of the certificate sees it
    spec = example_ring()
    doc = finite_koszul_resolution(
        ModulePresentation.cyclic(spec, ["x1"])).to_json()
    doc["module"] = ModulePresentation.cyclic(spec, ["x2"]).to_json()
    cx = KoszulComplex.from_json(doc)
    with pytest.raises(ValueError):
        build_operator_complex(cx, ModulePresentation.residue_field(spec))


def test_complex_target_is_refused():
    # Hom(F, -) takes a module target; a complex is a TypeError
    spec = example_ring()
    cx = finite_koszul_resolution(ModulePresentation.cyclic(spec, ["x1"]))
    with pytest.raises(TypeError):
        build_operator_complex(cx, cx)


def test_operator_differential_squares_to_zero_on_fixtures():
    spec = example_ring()
    k = ModulePresentation.residue_field(spec)
    cx = finite_koszul_resolution(k)
    opcx = build_operator_complex(cx, k)
    for i in range(0, 4):
        for j in range(0, 5):
            assert d_squares_to_zero(opcx, i, j), (i, j)


def test_ext_k_k_dims_match_poincare_series():
    spec = example_ring()
    k = ModulePresentation.residue_field(spec)
    cx = finite_koszul_resolution(k)
    opcx = build_operator_complex(cx, k)
    table = homology_bigraded(opcx, 5, 8)
    # (1+t)^2/(1-t^2)^2 = 1/(1-t)^2
    assert table.ext_dims(5) == [1, 2, 3, 4, 5, 6]


def test_oracle_equivalence_bigraded_for_k():
    spec = example_ring()
    k = ModulePresentation.residue_field(spec)
    cx = finite_koszul_resolution(k)
    opcx = build_operator_complex(cx, k)
    table = homology_bigraded(opcx, 4, 8)
    betti = minimal_R_resolution(k, 4, 8)
    for i in range(5):
        for j in range(9):
            assert table.dim(i, j) == betti.entries.get((i, j), 0), (i, j)


def test_oracle_equivalence_for_rx():
    spec = example_ring()
    m = ModulePresentation.cyclic(spec, ["x1"])
    k = ModulePresentation.residue_field(spec)
    cx = finite_koszul_resolution(m)
    opcx = build_operator_complex(cx, k)
    table = homology_bigraded(opcx, 5, 8)
    betti = minimal_R_resolution(m, 5, 8)
    for i in range(6):
        for j in range(9):
            assert table.dim(i, j) == betti.entries.get((i, j), 0), (i, j)
    assert table.ext_dims(5) == [1, 1, 1, 1, 1, 1]


def test_ext_of_free_module_is_target():
    spec = example_ring()
    free = ModulePresentation.free(spec)
    n = ModulePresentation.cyclic(spec, ["x2"])
    cx = finite_koszul_resolution(free)
    opcx = build_operator_complex(cx, n)
    table = homology_bigraded(opcx, 3, 6, jmin=-4)
    # Ext^0 = N, higher Ext vanish; N = R/(y) has dims 1,1,1,1 per degree
    assert table.ext_dim(0) > 0
    for i in range(1, 4):
        assert table.ext_dim(i) == 0


def _squares_ring(rng, n, m):
    """R = Q/(x_1^2, .., x_n^2) with random nonzero skew exponents mod m
    (all zero for m = 1)."""
    qexp = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            qexp[a][b] = rng.randrange(1, m) if m > 1 else 0
            qexp[b][a] = -qexp[a][b]
    return RingSpec(n, m, qexp, relations=[f"x{v + 1}^2" for v in range(n)])


def test_resolution_independence_of_target():
    # every variable squared: R/(x1) has the periodic resolution
    # .. -> R -x1-> R -x1-> R, and ann x1 = x1 R, so Ext_R(R/(x1), N) is the
    # homology of N -x1-> N -x1-> ..  For N = R/(x2), x1 acts exactly
    # (Hom = x1 R/(x2), dim 2^(n-2)); for N = R/(x1) it acts as zero
    rng = random.Random(23)
    for n in (2, 3):
        for m in (1, 4, 5, 12):
            spec = _squares_ring(rng, n, m)
            cxm = finite_koszul_resolution(
                ModulePresentation.cyclic(spec, ["x1"]))
            for target, want in (("x2", [2 ** (n - 2)] + [0] * 4),
                                 ("x1", [2 ** (n - 1)] * 5)):
                opcx = build_operator_complex(
                    cxm, ModulePresentation.cyclic(spec, [target]))
                table = homology_bigraded(opcx, 4, 6, jmin=-4)
                assert table.ext_dims(4) == want, (spec.to_json(), target)


def _r_chi_dim(spec, i, j):
    """dim of R[chi_1..chi_c] at (i, j): pairs (w, monomial of R) with
    2|w| = i and deg = sum w df - j."""
    from skewci.colorcore import compositions, standard_monomials

    if i < 0 or i % 2:
        return 0
    return sum(len(standard_monomials(spec.qring, d, spec.rel_exps))
               for w in compositions(spec.c, i // 2)
               for d in [sum(a * b for a, b in zip(w, spec.df)) - j]
               if d >= 0)


def _assert_dims_match_references(spec, cx, target, window):
    """homology_bigraded on Hom(F, target) or S (x) E against a reference
    that does not share its slices: the Betti oracle for target k, the
    R[chi] count for "self-E"."""
    imin, jmin = window.get("imin", 0), window.get("jmin", 0)
    imax, jmax = window["imax"], window["jmax"]
    table = homology_bigraded(build_operator_complex(cx, target), **window)
    if target == "self-E":
        want = {(i, j): _r_chi_dim(spec, i, j)
                for i in range(imin, imax + 1) for j in range(jmin, jmax + 1)}
    else:
        assert target.is_residue_field() and imin == jmin == 0
        betti = minimal_R_resolution(cx.module, imax, jmax)
        want = {(i, j): betti.entries.get((i, j), 0)
                for i in range(imax + 1) for j in range(jmax + 1)}
    assert table.dims == want, (spec.to_json(), window)
    assert any(want.values())


def test_rank_only_dims_match_references():
    spec = example_ring()
    k = ModulePresentation.residue_field(spec)
    cxm = finite_koszul_resolution(ModulePresentation.cyclic(spec, ["x1"]))
    skew5 = RingSpec(3, 5, [[0, 1, 2], [-1, 0, 1], [-2, -1, 0]],
                     relations=["x1^2", "x2^2", "x3^2"])
    k5 = ModulePresentation.residue_field(skew5)
    cases = [
        (spec, cxm, k, dict(imax=4, jmax=6)),
        (spec, spec, "self-E", dict(imax=4, jmax=4, imin=-2, jmin=-4)),
        (skew5, finite_koszul_resolution(k5), k5, dict(imax=3, jmax=3)),
    ]
    for case in cases:
        _assert_dims_match_references(*case)


def _dims_keeping_every_slice(opcx, imax, jmax, imin, jmin):
    """The window's homology dims with every slice matrix built before any
    is ranked: what a routine that keeps every slice holds at once."""
    cols = {(i, j): slice_columns(opcx, i, j)[1]
            for i in range(imin - 1, imax + 1)
            for j in range(jmin, jmax + 1)}
    return {(i, j): len(cols[(i, j)]) - rank(cols[(i, j)])
            - rank(cols[(i - 1, j)])
            for i in range(imin, imax + 1) for j in range(jmin, jmax + 1)}


def test_dims_only_memory_scales_with_a_slice():
    # homology_bigraded keeps one slice matrix at a time; holding every
    # slice of the window at once costs far more.  Both run on a complex
    # whose memos an untraced run already filled, so only what each
    # routine allocates itself counts.
    import tracemalloc

    def traced(routine, opcx, window):
        tracemalloc.start()
        try:
            dims = routine(opcx, window, window, imin=-opcx.spec.c,
                           jmin=-window)
            return dict(getattr(dims, "dims", dims)), \
                tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # The traced peaks depend on the interpreter's free lists, which
    # whatever ran before leaves filled; the most X-parts a fresh complex
    # holds at once, against the number it computes, does not.
    for spec, window, xparts in ((example_ring(), 8, (387, 513)),
                                 (three_var_ring(), 5, (551, 780))):
        opcx = build_operator_complex(spec, "self-E")
        _dims_keeping_every_slice(opcx, window, window, -spec.c, -window)
        dims, peak = traced(homology_bigraded, opcx, window)
        all_dims, all_peak = traced(_dims_keeping_every_slice, opcx, window)
        assert dims == all_dims
        assert peak <= 0.2 * all_peak, (window, peak, all_peak)
        fresh = build_operator_complex(spec, "self-E")
        counting = _CountingX(fresh)
        homology_bigraded(fresh, window, window, imin=-spec.c, jmin=-window)
        assert (counting.most_alive, len(counting.parts_calls)) == xparts


class _CountingX:
    """An X-interface that counts the X-parts its complex computes: the
    complex calls parts exactly when it builds the part of a symbol."""

    def __init__(self, opcx):
        self.inner = opcx.x
        self.opcx = opcx
        self.parts_calls = {}
        self.most_alive = 0
        opcx.x = self

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def parts(self, xsym):
        self.parts_calls[xsym] = self.parts_calls.get(xsym, 0) + 1
        self.most_alive = max(self.most_alive, len(self.opcx._xparts) + 1)
        return self.inner.parts(xsym)


def _assert_xparts_released(opcx, imax, jmax, imin, jmin):
    """homology_bigraded computes each X-part once, never holds all of
    them at once, leaves the memo empty, and gives the dims of a routine
    that keeps every slice."""
    counting = _CountingX(opcx)
    dims = homology_bigraded(opcx, imax, jmax, imin=imin, jmin=jmin).dims
    assert counting.parts_calls
    assert set(counting.parts_calls.values()) == {1}
    assert not opcx._xparts
    assert counting.most_alive < len(counting.parts_calls), \
        (counting.most_alive, len(counting.parts_calls))
    fresh = OperatorComplex(opcx.spec, counting.inner, opcx.description)
    assert dims == _dims_keeping_every_slice(fresh, imax, jmax, imin, jmin)


def test_xparts_are_released_after_their_last_j():
    # the braided_hh window of cmax = dmax = 4 on n = 4, c = 2, m = 12
    spec = RingSpec(4, 12, [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 1],
                            [-3, -5, -1, 0]], relations=["x1^2", "x2^2"])
    _assert_xparts_released(build_operator_complex(spec, "self-E"),
                            4, (4 // 2 + 2) * 2, -2, -4)
    # Hom(F, N) with F resolving M = R/(x1), N = R/(x2)
    spec = three_var_ring()
    cx = finite_koszul_resolution(ModulePresentation.cyclic(spec, ["x1"]))
    n = ModulePresentation.cyclic(spec, ["x2"])
    _assert_xparts_released(build_operator_complex(cx, n), 4, 4, 0, -4)
    # c = 0: df is empty, so an X-symbol occurs at one j only
    spec = RingSpec(2, 1, [[0, 0], [0, 0]], relations=[])
    k = ModulePresentation.residue_field(spec)
    _assert_xparts_released(
        build_operator_complex(finite_koszul_resolution(k), k), 3, 3, 0, -3)
    _assert_xparts_released(build_operator_complex(spec, "self-E"),
                            2, 0, 0, -3)


def test_twists_run_once_per_xpart(monkeypatch):
    # one parts call builds dx and every lam_i of a symbol from one
    # _twists, however many of them are nonzero
    from skewci.operators import _HomIntoModule

    calls = []
    twists = _HomIntoModule._twists

    def counting(self, sym):
        calls.append(sym)
        return twists(self, sym)

    monkeypatch.setattr(_HomIntoModule, "_twists", counting)
    spec = three_var_ring()
    cx = finite_koszul_resolution(ModulePresentation.cyclic(spec, ["x1"]))
    x = build_operator_complex(cx, ModulePresentation.cyclic(spec, ["x2"])).x
    several = 0
    for p in range(len(cx.basis)):
        for idegx in range(-6, 4):
            for sym in x.symbols(-p, idegx):
                del calls[:]
                dx, ops = x.parts(sym)
                assert calls == [sym]
                several += bool(dx) + sum(map(bool, ops)) > 1
    assert several


def test_a_part_outside_its_slice_is_refused(monkeypatch):
    # a dx term of internal degree 10 has no position in the slice d
    # lands in
    spec = example_ring()
    opcx = build_operator_complex(spec, "self-E")
    parts = opcx.x.parts

    def escaping(sym):
        dx, ops = parts(sym)
        return {**dx, ((5, 5), 0): spec.one()}, ops

    monkeypatch.setattr(opcx.x, "parts", escaping)
    with pytest.raises(AssertionError,
                       match="map escapes the enumerated slice"):
        homology_bigraded(opcx, 2, 2, imin=-2, jmin=-2)


def test_an_op_breaking_d_squared_is_refused(monkeypatch):
    # over the commutative k[x]/(x^2) lam = lam', so op = lam + lam' in
    # place of lam - lam' breaks d o d = 0 and the ranks overcount
    spec = hypersurface_ring()
    opcx = build_operator_complex(spec, "self-E")
    lamp = opcx.x.lamp
    monkeypatch.setattr(opcx.x, "lamp", lambda i, sym: {
        k: -c for k, c in lamp(i, sym).items()})
    assert not all(d_squares_to_zero(opcx, i, j)
                   for i in range(-1, 3) for j in range(-4, 3))
    opcx._xparts.clear()
    with pytest.raises(AssertionError, match="negative homology dim"):
        homology_bigraded(opcx, 4, 4, imin=-1, jmin=-4)


def test_dims_paths_and_hh_agree_on_wider_random_rings():
    # conductors beyond {1, 2, 3, 4}, up to n = 4 and c = 3; small windows
    rng = random.Random(12)
    specs = [random_ring(rng, nmax=4, cmax=3, conductors=(m,))
             for m in (5, 6, 8, 12) for _ in range(2)]
    assert any(spec.n == 4 and spec.c == 3 for spec in specs)
    for spec in specs:
        k = ModulePresentation.residue_field(spec)
        cx = finite_koszul_resolution(k)
        _assert_dims_match_references(spec, cx, k, dict(imax=3, jmax=6))
        _assert_dims_match_references(
            spec, spec, "self-E", dict(imax=3, jmax=3, imin=-spec.c, jmin=-3))
        assert braided_hh(spec, 3, 3).ok, spec.to_json()


def _direct_differential(opcx, sym):
    """The operator differential straight from the X-interface's parts, no
    memos."""
    spec = opcx.spec
    ring = spec.qring
    w, xsym = sym
    dx, ops = opcx.x.parts(xsym)
    out = {}
    for xk, c in dx.items():
        add_term(out, (w, xk), c)
    for i, op in enumerate(ops):
        scal = spec.one()
        for t in range(i + 1, spec.c):
            scal = scal * ring.chi(spec.cf[t], spec.cf[i]) ** w[t]
        w2 = tuple(a + (1 if t == i else 0) for t, a in enumerate(w))
        for xk, c in op.items():
            add_term(out, (w2, xk), c * scal)
    return out


def test_differential_returns_a_fresh_dict():
    # on the m=3 ring chi(f_2, f_1) = zeta_3^2, so the w-scalars are not 1
    for spec in (example_ring(),
                 RingSpec(2, 3, [[0, 1], [-1, 0]], relations=["x1^2", "x2^2"])):
        k = ModulePresentation.residue_field(spec)
        opcx = build_operator_complex(finite_koszul_resolution(k), k)
        for i, j in ((1, 2), (2, 2), (3, 4), (4, 4)):
            target = opcx.slice_symbols(i + 1, j)
            index = {sym: idx for idx, sym in enumerate(target)}
            for sym in opcx.slice_symbols(i, j):
                first = opcx._column(sym, index)
                expected = {index[s]: c for s, c
                            in _direct_differential(opcx, sym).items()}
                assert first == expected
                first.clear()
                first[0] = spec.one()
                assert opcx._column(sym, index) == expected


def test_term_normal_form_matches_reduction_and_is_fresh():
    from skewci.colorcore import monomials_of_degree
    from skewci.operators import ModuleBasis

    spec = RingSpec(3, 5, [[0, 1, 2], [-1, 0, 1], [-2, -1, 0]],
                    relations=["x1^2", "x2^2"])
    # x3 g0 + x1 g1 + x2 g2 = 0: a leading term reduces to two terms
    mod = ModulePresentation.from_json(spec, {
        "gens": [{"degree": 0, "color": [1, 1, 0]},
                 {"degree": 0, "color": [0, 1, 1]},
                 {"degree": 0, "color": [1, 0, 1]}],
        "relations": [["x3", "x1", "x2"]]})
    nb = ModuleBasis(mod)
    coeff = CycScalar(5, [1, 0, 2, -1]) * CycScalar.zeta(5, 3)
    multi = 0
    for d in range(4):
        for exps in monomials_of_degree(spec.qring, d):
            for comp in range(3):
                key = (exps, comp)
                for c in (coeff, spec.one()):
                    direct, _ = nb.gb.normal_form({key: c})
                    first = nb.term_normal_form(key, c)
                    assert list(first.items()) == list(direct.items())
                    multi += len(first) > 1
                    first.clear()
                    first[key] = c
                    second = nb.term_normal_form(key, c)
                    assert list(second.items()) == list(direct.items())
    assert multi


def test_differential_parts_belong_to_one_complex():
    spec = example_ring()
    cxm = finite_koszul_resolution(ModulePresentation.cyclic(spec, ["x1"]))
    into_k = build_operator_complex(cxm, ModulePresentation.residue_field(spec))
    into_n = build_operator_complex(cxm, ModulePresentation.cyclic(spec, ["x2"]))
    shared = 0
    for i in range(-1, 4):
        for j in range(-2, 5):
            from_k = slice_images(into_k, i, j)
            from_n = slice_images(into_n, i, j)
            for sym, image in from_k.items():
                direct = _direct_differential(into_k, sym)
                if direct != _direct_differential(into_n, sym):
                    shared += 1
                    assert image == direct
                    assert from_n[sym] == _direct_differential(into_n, sym)
    assert shared


def test_slice_symbols_match_brute_force_enumeration():
    # chi-weights up to a cap far beyond every X-part's homological range
    from skewci.colorcore import compositions

    for spec in fixture_rings():
        k = ModulePresentation.residue_field(spec)
        m = ModulePresentation.cyclic(spec, ["x1"])
        cxk, cxm = finite_koszul_resolution(k), finite_koszul_resolution(m)
        for opcx in (build_operator_complex(cxm, k),
                     build_operator_complex(cxk, m),
                     build_operator_complex(spec, "self-E")):
            for i in range(-3, 5):
                for j in range(-4, 5):
                    brute = []
                    for size in range((i + 24) // 2 + 1):
                        for w in compositions(spec.c, size):
                            shift = sum(a * d for a, d in zip(w, spec.df))
                            brute += [(w, xsym) for xsym in opcx.x.symbols(
                                2 * size - i, shift - j)]
                    assert opcx.slice_symbols(i, j) == sorted(brute), \
                        (opcx.description, i, j)


def _golden_actions(spec, tables):
    """Stored action tables {name: [[source, target, rows]]} as {name:
    {source: (target, sparse columns {row: scalar})}}."""
    from skewci.colorcore import parse_poly

    def scalar(text):
        return parse_poly(spec.qring, text)[spec.qring.zero_exp()]

    return {name: {tuple(src): (tuple(tgt), [
                {r: scalar(row[c]) for r, row in enumerate(rows)
                 if row[c] != "0"}
                for c in range(len(rows[0]) if rows else 0)])
                for src, tgt, rows in table}
            for name, table in tables.items()}


def _quotient_dims(table, actions, imax):
    """Per cohomological degree i <= imax: dim H^i minus the rank of the
    images of the given actions landing in degree i."""
    images = {}
    for acts in actions.values():
        for tgt, columns in acts.values():
            images.setdefault(tgt, []).extend(columns)
    return [sum(v - rank(images.get((ii, j), []))
                for (ii, j), v in table.dims.items() if ii == i)
            for i in range(imax + 1)]


def _compose_columns(m2, m1):
    """Sparse columns of m2 o m1, both given as lists of sparse columns."""
    out = []
    for col in m1:
        image = {}
        for k, c in col.items():
            add_scaled(image, m2[k], c)
        out.append(image)
    return out


def test_ext_actions_match_golden_m5():
    # Ext_R(k, k) over Q(zeta_5) with the chi action tables that an earlier
    # action path stored: dims and window must still match, the chi-images
    # must leave exactly the minimal generators of Ext over the chi-ring
    # that ext_over_theta finds, and chi_2 chi_1 = chi(f_2, f_1) chi_1 chi_2
    # must hold on the stored matrices
    k = ModulePresentation.residue_field(M5)
    cx = finite_koszul_resolution(k)
    table = homology_bigraded(build_operator_complex(cx, k), 5, 8)
    golden = json.loads(
        (Path(__file__).parent / "data" / "ext_actions_m5.json").read_text())
    assert table.to_json() == {"window": golden["window"],
                               "dims": golden["dims"]}
    chi = _golden_actions(M5, golden["actions"])
    gen_degs = ext_over_theta(cx).gen_degs
    generators = _quotient_dims(table, chi, 5)
    assert generators == [gen_degs.count(i) for i in range(6)]
    assert generators != table.ext_dims(5)
    twist = M5.qring.chi(M5.cf[1], M5.cf[0])
    checked = 0
    for src, (mid1, m1) in chi["chi1"].items():
        if src not in chi["chi2"] or mid1 not in chi["chi2"]:
            continue
        mid2, m2 = chi["chi2"][src]
        two_one = _compose_columns(chi["chi2"][mid1][1], m1)
        one_two = _compose_columns(chi["chi1"][mid2][1], m2)
        assert two_one == [{r: v * twist for r, v in col.items()}
                           for col in one_two], src
        checked += any(two_one)
    assert checked


def test_braided_hh_example_ring():
    report = braided_hh(example_ring(), 4, 6)
    assert report.ok, report.mismatches[:5]


def test_braided_hh_commutative_hypersurface():
    report = braided_hh(hypersurface_ring(), 6, 6)
    assert report.ok, report.mismatches[:5]


def test_braided_hh_negative_control():
    # corrupting the chi-scalar in the lambda action breaks d^2 = 0 or the
    # dimension match; either way the verdict must not be "ok"
    from skewci.operators import _SelfE, OperatorComplex
    from skewci.colorcore import compositions, standard_monomials

    spec = example_ring()

    class Corrupted(_SelfE):
        def lam(self, i, sym):
            out = _SelfE.lam(self, i, sym)
            bad = self.spec.qring.chi(self.spec.cf[i], (1, 0))
            return {k: v * bad for k, v in out.items()}

    opcx = OperatorComplex(spec, Corrupted(spec), "corrupted")
    try:
        table = homology_bigraded(opcx, 4, 6, imin=-2, jmin=-6)
    except AssertionError:
        return  # d no longer closes in slices: detected
    rdims = [len(standard_monomials(spec.qring, d, spec.rel_exps))
             for d in range(21)]
    ok = True
    for i in range(-2, 5):
        for j in range(-6, 7):
            expected = 0
            if i >= 0 and i % 2 == 0:
                for w in compositions(spec.c, i // 2):
                    d = sum(a * b for a, b in zip(w, spec.df)) - j
                    if 0 <= d <= 20:
                        expected += rdims[d]
            if table.dim(i, j) != expected:
                ok = False
    assert not ok


def _theta_ideal_exps(tm, t):
    """Exponents of the generators of ann_{k[theta]}(Ext) read off tm."""
    from skewci.support import _theta_annihilator

    out = []
    for g in _theta_annihilator(tm, t):
        ((exps, comp),) = g.keys()
        assert comp == 0
        out.append(exps)
    return out


def test_theta_module_of_paper_display_complex():
    spec = example_ring()
    cx = paper_display_complex(spec)
    tm = ext_over_theta(cx)
    # V_R(M, C) = V(chi_2^2): annihilator (theta_2)
    assert _theta_ideal_exps(tm, 2) == [(0, 1)]
    assert tm.dimension() == 1


def test_theta_module_of_constructed_resolution_matches():
    spec = example_ring()
    m = ModulePresentation.cyclic(spec, ["x1"])
    cx = finite_koszul_resolution(m)
    tm = ext_over_theta(cx)
    assert _theta_ideal_exps(tm, 2) == [(0, 1)]
    assert tm.dimension() == 1


def test_theta_module_hilbert_matches_betti():
    spec = example_ring()
    k = ModulePresentation.residue_field(spec)
    cx = finite_koszul_resolution(k)
    tm = ext_over_theta(cx)
    num = tm.hilbert_numerator()
    # expand num / (1 - u^2)^2 and compare with Betti totals 1,2,3,...
    cutoff = 8
    series = [0] * (cutoff + 1)
    for d, v in num.items():
        if d <= cutoff:
            series[d] += v
    for _ in range(2):
        for d in range(2, cutoff + 1):
            series[d] += series[d - 2]
    for i in range(cutoff + 1):
        assert series[i] == i + 1


def test_theta_module_free_for_k():
    spec = example_ring()
    k = ModulePresentation.residue_field(spec)
    cx = finite_koszul_resolution(k)
    tm = ext_over_theta(cx)
    # Ext_R(k,k) is free over the chi-ring of rank 2^n = 4; annihilator 0
    assert tm.annihilator() == []
    assert _theta_ideal_exps(tm, 2) == []
    assert tm.dimension() == 2
    assert len(tm.gen_degs) == 4
    assert not tm.columns


def test_random_instances_operator_d_squared(seed=5150):
    rng = random.Random(seed)
    done = 0
    while done < 3:
        spec = random_ring(rng, nmax=2, cmax=2)
        mod = ModulePresentation.residue_field(spec)
        cx = finite_koszul_resolution(mod)
        opcx = build_operator_complex(cx, mod)
        for i in range(0, 3):
            for j in range(0, 4):
                assert d_squares_to_zero(opcx, i, j), (spec.to_json(), i, j)
        done += 1


def test_long_exact_sequence_alternating_sums():
    # 0 -> (x) -> R -> R/(x) -> 0 over R = C_i[x,y]/(x^2,y^2), where the
    # ideal (x) = R/ann(x) shifted by 1 since ann(x) = (x).  Per internal
    # degree j the graded Ext(-,k) long exact sequence involves only
    # cohomological degrees i <= j + 1, so in-window alternating sums of
    # dimensions vanish exactly.
    spec = example_ring()
    k = ModulePresentation.residue_field(spec)
    m3 = ModulePresentation.cyclic(spec, ["x1"], name="R/(x)")
    m2 = ModulePresentation.free(spec)
    one = spec.one()
    m1 = ModulePresentation(spec, [(1, (1, 0))],
                            [{((1, 0), 0): one}], name="(x)")
    imax, jmax = 6, 5
    tables = {}
    for name, mod in (("m1", m1), ("m2", m2), ("m3", m3)):
        cx = finite_koszul_resolution(mod)
        opcx = build_operator_complex(cx, k)
        tables[name] = homology_bigraded(opcx, imax, jmax)
    for j in range(jmax + 1):
        total = 0
        for i in range(imax + 1):
            term = (tables["m3"].dim(i, j) - tables["m2"].dim(i, j)
                    + tables["m1"].dim(i, j))
            total += (-1) ** i * term
        assert total == 0, j


N3C3M5 = RingSpec(3, 5, [[0, 1, 2], [-1, 0, 1], [-2, -1, 0]],
                  relations=["x1^2", "x2^2", "x3^2"])
N4C2M12 = RingSpec(4, 12, [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 1],
                           [-3, -5, -1, 0]], relations=["x1^2", "x2^2"])
N2C2M9 = RingSpec(2, 9, [[0, 1], [-1, 0]], relations=["x1^2", "x2^2"])


def _golden_theta_module(spec, doc):
    """A stored theta-module: its presentation over the commutative ring
    k[theta_1..theta_c], theta_i of degree 2t."""
    c, t = spec.c, doc["t"]
    ring = QRing(spec.m, [f"th{i+1}" for i in range(c)], [2 * t] * c,
                 [[0] * c for _ in range(c)])
    columns = [{(tuple(exps), comp):
                CycScalar(spec.m, [Fraction(x, d) for x in n])
                for exps, comp, n, d in col} for col in doc["columns"]]
    return ring, doc["gen_degs"], columns


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_pow(p, e):
    out = [1]
    for _ in range(e):
        out = _poly_mul(out, p)
    return out


def _trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def test_theta_modules_match_golden():
    # four theta-modules stored by the route that restricted the operator
    # complex to k[theta_i = chi_i^t] are the oracle: their annihilator,
    # Krull dimension and Hilbert series, derived here over a commutative
    # theta ring, must equal what support, complexity and poincare read
    # off Ext over the chi-ring.  Over Q(zeta_9) (t = 3) chi(f_1, f_2)^t =
    # zeta_9^3 is not +-1, so the stored columns carry the twist from
    # rewriting chi_i^t as theta_i.
    from skewci.colorcore import poly_to_string
    from skewci.qgrobner import (
        annihilator_ideal,
        buchberger,
        hilbert_numerator,
        monomial_dimension,
    )
    from skewci.support import (
        complexity,
        compute_t,
        poincare_series,
        support_variety,
    )

    golden = json.loads(
        (Path(__file__).parent / "data" / "theta_modules.json").read_text())
    cases = [("n3c3m5", ModulePresentation.cyclic(N3C3M5, ["x1"])),
             ("n4c2m12", ModulePresentation.cyclic(N4C2M12, ["x1*x2"])),
             ("example", ModulePresentation.residue_field(example_ring())),
             ("n2c2m9", ModulePresentation.cyclic(N2C2M9, ["x1"]))]
    assert sorted(golden) == sorted(f"{n} {mod.name}" for n, mod in cases)
    twisted = False
    for name, mod in cases:
        spec = mod.spec
        doc = golden[f"{name} {mod.name}"]
        assert doc["t"] == compute_t(spec)
        ring, gen_degs, columns = _golden_theta_module(spec, doc)
        twisted |= any(not is_rational(c) for col in columns
                       for c in col.values())
        ideal = [poly_to_string(ring, {e: c for (e, _), c in g.items()})
                 for g in annihilator_ideal(columns, len(gen_degs), ring)]
        leads = [m for m, _ in buchberger(columns, ring).leads] \
            if columns else []
        dim = max(monomial_dimension([e for e, cc in leads if cc == comp],
                                     spec.c)
                  for comp in range(len(gen_degs)))
        num = {}
        for comp, d in enumerate(gen_degs):
            part = hilbert_numerator([e for e, cc in leads if cc == comp],
                                     ring.degs)
            for deg, v in part.items():
                num[deg + d] = num.get(deg + d, 0) + v
        num = [num.get(d, 0) for d in range(max(num) + 1)]

        support = support_variety(mod, "k").to_json()
        assert support["ideal"] == ideal, name
        assert support["dimension"] == dim == complexity(mod, "k").value
        series = poincare_series(mod)
        assert series.cprime == dim
        # num/(1-u^{2t})^c = p/(1-u^2)^c', compared cross-multiplied
        t, c = doc["t"], spec.c
        lhs = _poly_mul(num, _poly_pow([1, 0, -1], series.cprime))
        rhs = _poly_mul(series.numerator,
                        _poly_pow([1] + [0] * (2 * t - 1) + [-1], c))
        assert _trim(lhs) == _trim(rhs), name
    assert twisted


N4C3M2 = RingSpec(4, 2, [[0, 1, 1, 0], [1, 0, 1, 1], [1, 1, 0, 1],
                          [0, 1, 1, 0]], relations=["x1^2", "x2^2", "x3^2"])
# theta_1 = chi_1^2 is not central: chi_1^2 chi_2 = -chi_2 chi_1^2
CUBES_M4 = RingSpec(2, 4, [[0, 1], [-1, 0]], relations=["x1^3", "x2^3"])


def test_chi_ring_reorders_by_the_d_twist():
    # C(chi^w, chi_i) in the chi-ring is the scalar the operator
    # differential gives chi^w chi_i, so that differential is left linear
    from skewci.colorcore import compositions
    from skewci.operators import OperatorComplex, _chi_ring

    for spec in (N3C3M5, N4C3M2, N2C2M9, CUBES_M4, example_ring()):
        ring = _chi_ring(spec)
        assert ring.degs == (2,) * spec.c
        opcx = OperatorComplex(spec, None, "twists only")
        for size in range(4):
            for w in compositions(spec.c, size):
                for i in range(spec.c):
                    chi_i = tuple(int(k == i) for k in range(spec.c))
                    d = opcx._w_scalar("d", i, w) or spec.one()
                    assert ring.cpair(w, chi_i) == d, (spec, w, i)


def test_theta_hilbert_series_matches_slice_homology():
    # sum_i dim Ext^i(M, k) u^i from the Hilbert series of Ext over the
    # chi-ring equals the dims-only homology of the operator complex,
    # slice by slice summed over j; small windows on the larger rings
    cases = [(N3C3M5, 4), (N4C2M12, 4), (N4C3M2, 3), (N2C2M9, 4),
             (CUBES_M4, 4)]
    cases += [(random_ring(random.Random(seed), nmax=4, cmax=3,
                           conductors=(5, 6, 8, 12)), 3) for seed in (5, 9)]
    assert {(s.n, s.c, s.m) for s, _ in cases[-2:]} == {(3, 3, 8), (4, 3, 8)}
    for spec, imax in cases:
        k = ModulePresentation.residue_field(spec)
        for mod in (k, ModulePresentation.cyclic(spec, ["x1"]),
                    ModulePresentation.cyclic(spec, ["x1*x2"])):
            cx = finite_koszul_resolution(mod)
            series = [0] * (imax + 1)
            for d, v in ext_over_theta(cx).hilbert_numerator().items():
                if d <= imax:
                    series[d] += v
            for _ in range(spec.c):
                for d in range(2, imax + 1):
                    series[d] += series[d - 2]
            top = max(d for layer in cx.basis for d, _c in layer)
            jmax = (imax // 2) * max(spec.df) + top
            table = homology_bigraded(build_operator_complex(cx, k), imax,
                                      jmax)
            assert table.ext_dims(imax) == series, (spec.to_json(),
                                                    mod.name)


def _closed_form_rings():
    """Five shapes for the _SelfE closed forms: m in {5, 7, 9, 12}, c <= 3,
    one cubic relation."""
    specs = [
        RingSpec(3, 5, [[0, 1, 2], [-1, 0, 1], [-2, -1, 0]],
                 relations=["x1^2", "x2^2", "x3^2"]),
        RingSpec(3, 7, [[0, 1, 3], [-1, 0, 2], [-3, -2, 0]],
                 relations=["x1^2", "x3^2"]),
        RingSpec(2, 9, [[0, 2], [-2, 0]], relations=["x1^3", "x2^2"]),
        RingSpec(4, 12, [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 1],
                         [-3, -5, -1, 0]],
                 relations=["x1^2", "x2^2", "x3^2"]),
        RingSpec(3, 12, [[0, 5, 3], [-5, 0, 4], [-3, -4, 0]],
                 relations=["x2^2"]),
    ]
    for spec in specs:
        assert validate_ring(spec).ok, spec
    return specs


def _generic_self_e(ctx, spec, sym):
    """dx, lam_i and lamp_i of u = x^alpha e_S through the generic
    DGAlgebra.mul/diff, as ordered item lists."""
    one = spec.one()
    u = {(sym[0], sym[1], ()): one}

    def strip(elt):
        return [((e, s), c) for (e, s, _h), c in elt.items()]

    out = {"dx": strip(ctx.diff(u))}
    ucolor = ctx.term_color((sym[0], sym[1], ()))
    for i in range(spec.c):
        # (1 (x) e_i) . u = (-1)^{|u|} chi(f_i, u) u e_i
        scal = spec.qring.chi(spec.cf[i], ucolor)
        if bin(sym[1]).count("1") % 2:
            scal = -scal
        prod = ctx.mul(u, ctx.term(smask=1 << i))
        out[("lam", i)] = strip({k: v * scal for k, v in prod.items()})
        out[("lamp", i)] = strip(ctx.mul(ctx.term(smask=1 << i), u))
    return out


def test_self_e_closed_forms_match_generic_products():
    from skewci.operators import _SelfE

    total = 0
    for spec in _closed_form_rings():
        x = _SelfE(spec)
        ctx = x.ctx
        nontrivial = 0
        for hx in range(spec.c + 1):
            for ideg in range(8):
                for sym in x.symbols(hx, ideg):
                    dx, ops = x.parts(sym)
                    got = {"dx": list(dx.items())}
                    for i in range(spec.c):
                        got[("lam", i)] = list(x.lam(i, sym).items())
                        got[("lamp", i)] = list(x.lamp(i, sym).items())
                    want = _generic_self_e(ctx, spec, sym)
                    assert got == want, (spec, sym)
                    # parts combines the closed forms into lam_i - lamp_i
                    for i, op in enumerate(ops):
                        diff = dict(want[("lam", i)])
                        for k, c in want[("lamp", i)]:
                            add_term(diff, k, -c)
                        assert list(op.items()) == list(diff.items())
                    nontrivial += any(not is_rational(c)
                                      for part in want.values()
                                      for _k, c in part)
                    total += 1
        assert nontrivial, spec
    assert total > 1500


def _sigma(x, sym):
    """The color of the Hom symbol sym = (p, b, key): color(key) minus the
    color of the basis element b of F_p."""
    p, b, key = sym
    return tuple(a - v for a, v in zip(x.nb.key_color(key),
                                       x.cx.basis[p][b][1]))


def _scan_compose(x, sym, columns, layer):
    """alpha o M by a scan of every entry of every column of M, each term
    twisted by chi(sigma, x^beta) C(x^beta, x^nexps) and reduced in N."""
    p, b, (nexps, comp) = sym
    ring = x.spec.qring
    sigma = _sigma(x, sym)
    out = {}
    for col, vec in enumerate(columns):
        for (exps, row), c in vec.items():
            if row != b:
                continue
            scal = (c * ring.chi(sigma, ring.color(exps))
                    * ring.cpair(exps, nexps))
            key = (tuple(a + e for a, e in zip(exps, nexps)), comp)
            for k2, c2 in x.nb.term_normal_form(key, scal).items():
                add_term(out, (layer, col, k2), c2)
    return out


def test_row_indexed_compose_matches_matrix_scan():
    from skewci.operators import _HomIntoModule, ModuleBasis

    m5 = RingSpec(3, 5, [[0, 1, 2], [-1, 0, 1], [-2, -1, 0]],
                  relations=["x1^2", "x2^2"])
    # x3 g0 + x1 g1 + x2 g2 = 0: normal forms with two terms
    tangled = ModulePresentation.from_json(m5, {
        "gens": [{"degree": 0, "color": [1, 1, 0]},
                 {"degree": 0, "color": [0, 1, 1]},
                 {"degree": 0, "color": [1, 0, 1]}],
        "relations": [["x3", "x1", "x2"]]})
    cases = []
    for spec in fixture_rings() + [m5]:
        k = ModulePresentation.residue_field(spec)
        rx = ModulePresentation.cyclic(spec, ["x1"])
        targets = [k, rx] + ([tangled] if spec is m5 else [])
        for source in (k, rx):
            cx = finite_koszul_resolution(source)
            cases += [(cx, target) for target in targets]
    seen = {"dx": 0, "lam": 0, "twisted": 0}
    for cx, target in cases:
        spec = cx.spec
        x = _HomIntoModule(cx, ModuleBasis(target))
        for p in range(len(cx.basis)):
            for idegx in range(-8, 5):
                for sym in x.symbols(-p, idegx):
                    sigma = _sigma(x, sym)
                    dx, ops = x.parts(sym)
                    want = {}
                    if p + 1 < len(cx.basis) and cx.diff[p + 1]:
                        sign = -spec.one() if p % 2 == 0 else spec.one()
                        want = {k: v * sign for k, v in _scan_compose(
                            x, sym, cx.diff[p + 1], p + 1).items()}
                    assert list(dx.items()) == list(want.items())
                    seen["dx"] += bool(want)
                    for i in range(spec.c):
                        want = {}
                        if p >= 1 and cx.eact[i][p - 1]:
                            scal = spec.qring.chi(spec.cf[i], sigma)
                            if p % 2:
                                scal = -scal
                            want = {k: v * scal for k, v in _scan_compose(
                                x, sym, cx.eact[i][p - 1], p - 1).items()}
                        assert list(ops[i].items()) == list(want.items())
                        seen["lam"] += bool(want)
                        seen["twisted"] += any(not is_rational(c)
                                               for c in want.values())
    assert all(seen.values()), seen


def _apply(op, vec):
    """A linear map op on symbols, extended to a vector of symbols."""
    out = {}
    for sym, c in vec.items():
        add_scaled(out, op(sym), c)
    return out


def _chi_action(opcx, i, sym):
    """Left multiplication by chi_i on a symbol (w, xsym) of an operator
    complex: chi_i chi^w = prod_{t<i} chi(f_i, f_t)^w_t chi^(w + e_i)."""
    spec = opcx.spec
    w, xsym = sym
    scal = spec.one()
    for t in range(i):
        scal = scal * spec.qring.chi(spec.cf[i], spec.cf[t]) ** w[t]
    return {(w[:i] + (w[i] + 1,) + w[i + 1:], xsym): scal}


def test_actions_are_chain_maps():
    # x_l (module targets, the only ones with xmul) and chi_i (also
    # S (x) E) commute with d on every symbol of a small window, with d and
    # x_l read from the column writer.
    # chi(f_t, x_l)^2 != 1 over Q(zeta_5), so a wrong sign of the twist of
    # x_l past chi^w shows.
    rx = ModulePresentation.cyclic(N3C3M5, ["x1"])
    cx = finite_koszul_resolution(rx)
    cases = [(build_operator_complex(cx, ModulePresentation.residue_field(
                  N3C3M5)), True),
             (build_operator_complex(cx, rx), True),
             (build_operator_complex(N3C3M5, "self-E"), False)]
    for opcx, with_x in cases:
        spec = opcx.spec
        xls = range(spec.n if with_x else 0)
        # d on every slice an action moves the window's symbols to; x_l on
        # the window and on the slices d moves it to
        d, xmul = {}, {l: {} for l in xls}
        for i in range(-2, 5):
            for j in range(-3 - max(spec.degrees), 3 + max(spec.df)):
                d.update(slice_images(opcx, i, j))
        for i in range(-2, 4):
            for j in range(-3, 3):
                for l in xls:
                    xmul[l].update(slice_images(opcx, i, j, l))
        ops = [xmul[l].__getitem__ for l in xls]
        ops += [lambda s, i=i: _chi_action(opcx, i, s)
                for i in range(spec.c)]
        checked = 0
        for i in range(-2, 3):
            for j in range(-3, 3):
                for sym in opcx.slice_symbols(i, j):
                    dsym = d[sym]
                    for op in ops:
                        assert (_apply(d.__getitem__, op(sym))
                                == _apply(op, dsym)), (opcx.description, sym)
                    checked += bool(dsym)
        assert checked, opcx.description


def test_module_target_matches_complex_target_golden_m5():
    # Ext_R(R/(x1), R/(x1)) over Q(zeta_5) through Hom(F, R/(x1)) against
    # the table an earlier complex target Hom(F, F) stored, with its x
    # action tables: F -> R/(x1) is a quasi-isomorphism, so dims and window
    # must match, and dim Ext (x)_R k read off the stored x-images must
    # equal what the rational fit's rank-only routine computes
    from skewci.operators import _tensor_k_dims

    rx = ModulePresentation.cyclic(M5, ["x1"])
    opcx = build_operator_complex(finite_koszul_resolution(rx), rx)
    table = homology_bigraded(opcx, 3, 3, jmin=-3)
    golden = json.loads((Path(__file__).parent / "data"
                         / "ext_actions_ff_m5.json").read_text())
    assert table.to_json() == {"window": golden["window"],
                               "dims": golden["dims"]}
    expected = _quotient_dims(table, _golden_actions(M5, golden["x_actions"]),
                              3)
    assert _tensor_k_dims(opcx, 3, 3, -3) == expected
    assert expected != table.ext_dims(3)


def test_tracer_operator_groups_name_operators_attributes():
    # bench/tracer.py files the spans of these operators names under their
    # own groups; a name missing here would silently move that time to the
    # "build" group
    import ast

    from skewci import operators

    tree = ast.parse((Path(__file__).parents[1] / "bench" / "tracer.py")
                     .read_text())
    (groups,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets]
                 == ["OPERATOR_GROUPS"]]
    assert {"ext_over_theta", "ThetaModule"} <= set(groups)
    assert [name for name in groups if not hasattr(operators, name)] == []
