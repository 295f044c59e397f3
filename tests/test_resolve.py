import json
import random
from pathlib import Path

import pytest

from skewci.colorcore import RingSpec, validate_ring
from skewci.koszul import taylor_maps
from skewci.operators import (
    build_operator_complex,
    ext_over_theta,
    homology_bigraded,
)
from skewci.resolve import (
    KoszulComplex,
    ModulePresentation,
    SemifreeResolution,
    finite_koszul_resolution,
    minimal_R_resolution,
    semifree_finite_resolution,
)

from fixtures import (
    canonical_json,
    example_ring,
    fixture_rings,
    hypersurface_ring,
    random_ring,
    skew_hypersurface_ring,
    three_var_ring,
)


def test_presentation_homogeneity_check():
    spec = example_ring()
    with pytest.raises(ValueError):
        ModulePresentation(spec, [(0, (0, 0))],
                           [{((1, 0), 0): spec.one(),
                             ((0, 2), 0): spec.one()}])


def test_residue_field_shape():
    spec = example_ring()
    k = ModulePresentation.residue_field(spec)
    assert k.is_residue_field()
    assert len(k.relations) == 2


def semifree_resolution(module, hmax):
    """The E-semifree resolution of module, built through degree hmax."""
    res = SemifreeResolution(module)
    for _ in range(hmax):
        res.stage()
    return res


def test_semifree_of_free_module_is_koszul_algebra():
    spec = example_ring()
    res = semifree_resolution(ModulePresentation.free(spec), 4)
    assert len(res.gens) == 1
    assert res.gens[0][0] == 0


def test_semifree_generator_counts_match_betti_for_k():
    spec = example_ring()
    k = ModulePresentation.residue_field(spec)
    res = semifree_resolution(k, 5)
    counts = {}
    for h, _d, _c in res.gens:
        counts[h] = counts.get(h, 0) + 1
    # P^R_k = (1+t)^2/(1-t^2)^2 = 1/(1-t)^2: generators 1, 2, 3, 4, ...
    for h in range(5):
        assert counts.get(h, 0) == h + 1


def test_finite_koszul_resolution_of_R_is_E():
    spec = example_ring()
    cx = finite_koszul_resolution(ModulePresentation.free(spec))
    assert cx.ranks() == [1, 2, 1]
    assert not cx.verify_invariants()
    assert not cx.verify_exactness()


def test_finite_koszul_resolution_rx_invariants():
    spec = example_ring()
    m = ModulePresentation.cyclic(spec, ["x1"])
    cx = finite_koszul_resolution(m)
    assert not cx.verify_invariants()
    assert not cx.verify_exactness()
    # quasi-isomorphic to the length-2 Koszul complex on (x, y^2)
    assert cx.length >= 2


def test_finite_koszul_resolution_hypersurface_k():
    spec = hypersurface_ring()
    k = ModulePresentation.residue_field(spec)
    cx = finite_koszul_resolution(k)
    assert not cx.verify_invariants()
    assert not cx.verify_exactness()


def test_q_free_module_resolves_at_length_zero():
    # a Q-free module is its own F: the cut is at degree 0, with no empty
    # layer above it; R on a ring without relations, and the zero module
    free_ring = RingSpec(2, 1, [[0, 0], [0, 0]], relations=[])
    zero = ModulePresentation(three_var_ring(), [], [], name="0")
    for mod, ranks in ((ModulePresentation.free(free_ring), [1]),
                       (zero, [0])):
        cx = finite_koszul_resolution(mod)
        assert (cx.ranks(), cx.length) == (ranks, 0)
        assert not cx.certify()
        assert canonical_json(KoszulComplex.from_json(cx.to_json())) \
            == canonical_json(cx)
    # at length 0 the certificate still checks H_0 = M: Q alone resolves
    # neither k nor, once c >= 1, R
    for spec, mod in ((free_ring, ModulePresentation.residue_field(free_ring)),
                      (example_ring(), ModulePresentation.free(example_ring()))):
        cx = KoszulComplex(spec, [[(0, (0,) * spec.n)]], [None],
                           [[None]] * spec.c, mod)
        assert ("kernel_not_in_image", 0) in cx.verify_exactness()


def test_truncation_detects_corruption():
    spec = example_ring()
    m = ModulePresentation.cyclic(spec, ["x1"])
    cx = finite_koszul_resolution(m)
    # corrupt one differential entry and re-verify
    h = 1
    key, c = next(iter(cx.diff[h][0].items()))
    cx.diff[h][0] = {**cx.diff[h][0], key: c + c}
    assert cx.verify_invariants() or cx.verify_exactness()


def test_json_roundtrip():
    spec = example_ring()
    m = ModulePresentation.cyclic(spec, ["x1"])
    cx = finite_koszul_resolution(m)
    doc = cx.to_json()
    cx2 = KoszulComplex.from_json(doc)
    assert canonical_json(cx2) == canonical_json(cx)
    assert not cx2.verify_invariants()


def test_betti_oracle_residue_field_example_ring():
    spec = example_ring()
    k = ModulePresentation.residue_field(spec)
    table = minimal_R_resolution(k, 6, 10)
    assert table.totals() == [1, 2, 3, 4, 5, 6, 7]


def test_betti_oracle_free_module():
    spec = example_ring()
    table = minimal_R_resolution(ModulePresentation.free(spec), 4, 8)
    assert table.totals() == [1, 0, 0, 0, 0]
    assert table.projective_dimension() == 0


def test_betti_oracle_rx_periodic():
    # R/(x) over C_i[x,y]/(x^2,y^2): ann(x) = (x), so the resolution is
    # periodic of rank one: 1, 1, 1, ...
    spec = example_ring()
    m = ModulePresentation.cyclic(spec, ["x1"])
    table = minimal_R_resolution(m, 6, 12)
    assert table.totals() == [1] * 7


def test_betti_oracle_finite_pd_module():
    # R = C_i[x,y]/(x^2): R/(y) has projective dimension 1
    spec = skew_hypersurface_ring()
    m = ModulePresentation.cyclic(spec, ["x2"])
    table = minimal_R_resolution(m, 5, 10)
    assert table.totals() == [1, 1, 0, 0, 0, 0]
    assert table.projective_dimension() == 1


def test_betti_oracle_three_var_k():
    spec = three_var_ring()
    k = ModulePresentation.residue_field(spec)
    table = minimal_R_resolution(k, 4, 8)
    # (1+t)^3/(1-t^2)^2 = (1+t)/(1-t)^2: totals 1, 3, 5, 7, ...
    assert table.totals() == [1, 3, 5, 7, 9]


def test_betti_stability_in_dmax():
    spec = example_ring()
    k = ModulePresentation.residue_field(spec)
    t1 = minimal_R_resolution(k, 4, 8)
    t2 = minimal_R_resolution(k, 4, 10)
    for i in range(5):
        assert t1.total(i) == t2.total(i)


def test_random_instances_invariants():
    rng = random.Random(1234)
    done = 0
    while done < 4:
        spec = random_ring(rng, nmax=2, cmax=2)
        choice = rng.random()
        if choice < 0.4:
            mod = ModulePresentation.residue_field(spec)
        elif choice < 0.7:
            v = rng.randrange(spec.n)
            mod = ModulePresentation.cyclic(spec, [f"x{v+1}"])
        else:
            mod = ModulePresentation.free(spec)
        cx = finite_koszul_resolution(mod)
        assert not cx.verify_invariants()
        assert not cx.verify_exactness()
        done += 1


def test_direct_sum_additivity_of_generator_counts():
    spec = example_ring()
    one = spec.one()
    a = ModulePresentation.cyclic(spec, ["x1"])
    b = ModulePresentation.residue_field(spec)
    direct = ModulePresentation(
        spec,
        a.gens + b.gens,
        [dict(col) for col in a.relations]
        + [{(e, c + len(a.gens)): v for (e, c), v in col.items()}
           for col in b.relations],
        name="A+B",
    )
    hmax = 4

    def counts(mod):
        res = semifree_resolution(mod, hmax)
        out = {}
        for h, _d, _c in res.gens:
            out[h] = out.get(h, 0) + 1
        return out

    ca, cb, cd = counts(a), counts(b), counts(direct)
    for h in range(hmax + 1):
        assert cd.get(h, 0) == ca.get(h, 0) + cb.get(h, 0)


_GOLDEN_RINGS = {
    "n3c3m5": RingSpec(3, 5, [[0, 1, 2], [-1, 0, 1], [-2, -1, 0]],
                       relations=["x1^2", "x2^2", "x3^2"]),
    "n4c2m12": RingSpec(4, 12, [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 1],
                                [-3, -5, -1, 0]], relations=["x1^2", "x2^2"]),
    "n3c3m1": RingSpec(3, 1, [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                       relations=["x1^2", "x2^2", "x3^2"]),
    "n2c2m9": RingSpec(2, 9, [[0, 1], [-1, 0]], relations=["x1^2", "x2^2"]),
}


def _golden_modules(spec):
    return (ModulePresentation.residue_field(spec),
            ModulePresentation.cyclic(spec, ["x1"]),
            ModulePresentation.cyclic(spec, ["x1*x2"]))


def test_finite_resolutions_match_golden():
    # the canonical JSON of the semifree F for k, R/(x1) and R/(x1x2) on
    # four rings, one over Q(zeta_9); any change to a generator, its order
    # or a matrix entry fails here
    doc = {}
    for name, spec in _GOLDEN_RINGS.items():
        for mod in _golden_modules(spec):
            cx = semifree_finite_resolution(mod)
            doc[f"{name} {mod.name}"] = json.loads(canonical_json(cx))
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    golden = Path(__file__).parent / "data" / "resolutions.json"
    assert text == golden.read_text()


def test_each_label_differential_computed_once(monkeypatch):
    # every basis label's image d(label) is shared by the cycle step, the
    # cut test and the assembled complex, so fdiff sees each label once
    from skewci import resolve

    seen = []
    fdiff = resolve.SemifreeResolution.fdiff

    def recording(self, felt):
        seen.append((id(self), tuple(sorted(felt))))
        return fdiff(self, felt)

    monkeypatch.setattr(resolve.SemifreeResolution, "fdiff", recording)
    for spec in (example_ring(), three_var_ring(), _GOLDEN_RINGS["n3c3m5"]):
        for mod in _golden_modules(spec):
            seen.clear()
            semifree_finite_resolution(mod)
            assert seen and len(set(seen)) == len(seen), mod.name


def test_no_semifree_stage_past_the_cut(monkeypatch):
    # the cut at degree h needs the generators of degree h + 1 and no more
    from skewci import resolve

    built = []
    assemble = resolve._assemble_truncation

    def recording(res, cut, kept, proj):
        built.append(res)
        return assemble(res, cut, kept, proj)

    monkeypatch.setattr(resolve, "_assemble_truncation", recording)
    for spec in (example_ring(), three_var_ring(), _GOLDEN_RINGS["n3c3m5"]):
        for mod in _golden_modules(spec):
            built.clear()
            cx = semifree_finite_resolution(mod)
            top = max(h for h, _d, _c in built[0].gens)
            assert top <= cx.length + 1, (mod.name, top, cx.length)


def _minimal_monomials(module):
    """Per generator of the normalized module, the monomials minimal under
    divisibility among its one-term relations and the f_i."""
    module = module.normalized()
    out = []
    for b in range(len(module.gens)):
        terms = ({e for col in module.relations for e, g in col if g == b}
                 | {e for f in module.spec.relations for e in f})
        out.append([e for e in terms if not any(
            o != e and all(x <= y for x, y in zip(o, e)) for o in terms)])
    return out


def test_finite_resolution_length_within_global_dimension():
    # Q has global dimension n, so the semifree cokernel is free by degree
    # n (Hilbert's syzygy theorem): k, R, each R/(x_v) and R/(x1x2).  The
    # Taylor complex has length max_b r_b instead, the largest number of
    # minimal monomials of a generator, which is n for k and exceeds n for
    # R/(x1x2) over Q/(x1^2, x2^2)
    rng = random.Random(21)
    specs = fixture_rings() + [random_ring(rng, nmax=4, cmax=3,
                                           conductors=(5, 6, 8, 12))
                               for _ in range(6)]
    for spec in specs:
        modules = [ModulePresentation.residue_field(spec),
                   ModulePresentation.free(spec)]
        modules += [ModulePresentation.cyclic(spec, [f"x{v + 1}"])
                    for v in range(spec.n)]
        if spec.n >= 2:
            modules.append(ModulePresentation.cyclic(spec, ["x1*x2"]))
        semifree = [semifree_finite_resolution(module) for module in modules]
        assert not any(cx.certify() for cx in semifree), spec
        assert max(cx.length for cx in semifree) <= spec.n, spec
        lengths = [finite_koszul_resolution(module).length
                   for module in modules]
        assert lengths[0] == spec.n, (spec, lengths)
        assert lengths == [max(map(len, _minimal_monomials(module)))
                           for module in modules], (spec, lengths)
    x1x2 = ModulePresentation.cyclic(example_ring(), ["x1*x2"])
    assert finite_koszul_resolution(x1x2).length == 3


def _closed_form_rings():
    """Random rings with m in {5, 6, 8, 12}, n <= 4 and c <= 3, and two
    rings with non-unit degrees whose relations x1*x2 and x1^2*x3 are not
    powers of one variable."""
    rng = random.Random(25)
    specs = [random_ring(rng, nmax=4, cmax=3, conductors=(5, 6, 8, 12))
             for _ in range(10)]
    specs.append(RingSpec(3, 6, [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]],
                          degrees=[1, 2, 1], relations=["x1*x2", "x3^2"]))
    specs.append(RingSpec(3, 8, [[0, 3, 1], [-3, 0, 2], [-1, -2, 0]],
                          degrees=[2, 1, 3], relations=["x1^2*x3", "x2^2"]))
    for spec in specs:
        assert validate_ring(spec).ok, spec.to_json()
    return specs


def _shifted_sum(spec):
    """R/(x1) plus R/(x1x2) (R/(x1) when n = 1) on a generator shifted by
    the degree and color of x_n."""
    one = spec.one()
    x1 = tuple(int(v == 0) for v in range(spec.n))
    second = tuple(int(v < 2) for v in range(spec.n))
    return ModulePresentation(
        spec, [(0, (0,) * spec.n),
               (spec.degrees[-1], tuple(int(v == spec.n - 1)
                                        for v in range(spec.n)))],
        [{(x1, 0): one}, {(second, 1): one}], name="shifted sum")


def test_closed_form_matches_semifree_builder():
    # k, R, each R/(x_v), R/(x1, x2^2), R/(x1x2), R/(x1x3, x2x3),
    # R/(x1x2, x2x3, x1x3), a sum with a shifted generator and R/(1): the
    # Taylor complex of rank sum_b 2^(r_b) and the semifree F give the same
    # Ext into k and into the module itself, and the same Ext over the
    # chi-ring; with disjoint supports it is the minimal Koszul complex
    modules_seen = 0
    for spec in _closed_form_rings():
        modules = [ModulePresentation.residue_field(spec),
                   ModulePresentation.free(spec),
                   ModulePresentation.cyclic(spec, ["1"]),
                   _shifted_sum(spec)]
        modules += [ModulePresentation.cyclic(spec, [f"x{v + 1}"])
                    for v in range(spec.n)]
        if spec.n >= 2:
            modules += [ModulePresentation.cyclic(spec, ["x1", "x2^2"]),
                        ModulePresentation.cyclic(spec, ["x1*x2"])]
        if spec.n >= 3:
            modules += [
                ModulePresentation.cyclic(spec, ["x1*x3", "x2*x3"]),
                ModulePresentation.cyclic(spec, ["x1*x2", "x2*x3", "x1*x3"])]
        for mod in modules:
            modules_seen += 1
            gs = _minimal_monomials(mod)
            closed = finite_koszul_resolution(mod)
            semifree = semifree_finite_resolution(mod.normalized())
            assert not semifree.certify(), (spec.to_json(), mod.name)
            assert sum(closed.ranks()) == sum(2 ** len(g) for g in gs)
            if all(sum(1 for g in gb if g[v]) <= 1
                   for gb in gs for v in range(spec.n)):
                assert sum(closed.ranks()) <= sum(semifree.ranks())
            for target in (ModulePresentation.residue_field(spec), mod):
                dims = [homology_bigraded(build_operator_complex(cx, target),
                                          4, 8, jmin=-8).dims
                        for cx in (closed, semifree)]
                assert dims[0] == dims[1], (spec.to_json(), mod.name)
            thetas = [ext_over_theta(cx) for cx in (closed, semifree)]
            assert (thetas[0].hilbert_numerator(), thetas[0].dimension()) \
                == (thetas[1].hilbert_numerator(), thetas[1].dimension())
    assert modules_seen >= 100, modules_seen


def test_uncovered_modules_fall_back_to_the_semifree_builder():
    # R/(x1x2) (x1x2, x1^2 and x2^2 share variables), a two-generator
    # module and the zero module R/(1) take the Taylor complex; a module
    # with a multi-term relation column takes the semifree F
    spec = example_ring()
    k = ModulePresentation.residue_field(spec)
    two_gens = ModulePresentation(
        spec, k.gens * 2,
        k.relations + [{(e, 1): v for (e, _c), v in col.items()}
                       for col in k.relations], name="k+k")
    for mod in (ModulePresentation.cyclic(spec, ["x1*x2"]), two_gens,
                ModulePresentation.cyclic(spec, ["1"])):
        cx = finite_koszul_resolution(mod)
        assert not cx.certify(), mod.name
        norm = mod.normalized()
        assert canonical_json(cx) == canonical_json(
            KoszulComplex(spec, *taylor_maps(norm), norm)), mod.name
    m5 = RingSpec(3, 5, [[0, 1, 2], [-1, 0, 1], [-2, -1, 0]],
                  relations=["x1^2", "x2^2"])
    # x3 g0 + x1 g1 + x2 g2 = 0
    tangled = ModulePresentation.from_json(m5, {
        "gens": [{"degree": 0, "color": [1, 1, 0]},
                 {"degree": 0, "color": [0, 1, 1]},
                 {"degree": 0, "color": [1, 0, 1]}],
        "relations": [["x3", "x1", "x2"]]})
    assert canonical_json(finite_koszul_resolution(tangled)) \
        == canonical_json(semifree_finite_resolution(tangled))


def _column_lists(diff, eact):
    """The column list of every map of d and of the e_i."""
    return [columns for columns in diff + [c for fam in eact for c in fam]
            if columns]


def test_closed_form_sign_flips_fail_the_certificate():
    # negating any one entry of d or of an e_i breaks the certificate, for
    # the Koszul case and for overlapping supports (R/(x1x2))
    n3c3m5 = _GOLDEN_RINGS["n3c3m5"]
    for spec, mod in (
            (three_var_ring(),
             ModulePresentation.residue_field(three_var_ring())),
            (n3c3m5, ModulePresentation.cyclic(n3c3m5, ["x1"])),
            (n3c3m5, ModulePresentation.cyclic(n3c3m5, ["x1*x2"]))):
        basis, diff, eact = taylor_maps(mod)
        assert not KoszulComplex(spec, basis, diff, eact, mod).certify()
        flips = [(m, col, key)
                 for m, columns in enumerate(_column_lists(diff, eact))
                 for col, vec in enumerate(columns) for key in vec]
        assert flips
        for m, col, key in flips:
            basis, diff, eact = taylor_maps(mod)
            vec = _column_lists(diff, eact)[m][col]
            vec[key] = -vec[key]
            cx = KoszulComplex(spec, basis, diff, eact, mod)
            assert cx.certify(), (mod.name, m, col, key)
