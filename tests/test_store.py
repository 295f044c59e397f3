import inspect
import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

from skewci import operators, resolve, store, support
from skewci.cli import run
from skewci.colorcore import RingSpec
from skewci.operators import ThetaModule
from skewci.resolve import ModulePresentation
from skewci.scalars import CycScalar
from skewci.store import ResolutionCache
from skewci.support import (
    complexity,
    is_perfect,
    poincare_series,
    support_variety,
)

from fixtures import example_ring, is_rational


def m5_ring():
    """Q(zeta_5)[x1,x2,x3]/(x1^2, x2^2): theta columns with irrational
    coefficients."""
    return RingSpec(3, 5, [[0, 1, 2], [-1, 0, 1], [-2, -1, 0]],
                    relations=["x1^2", "x2^2"])


def _items(tm):
    return [list(col.items()) for col in tm.columns]


def _only(directory, prefix):
    (name,) = [p for p in os.listdir(directory) if p.startswith(prefix)]
    return os.path.join(directory, name)


def test_theta_module_disk_round_trip(tmp_path):
    spec = m5_ring()
    mod = ModulePresentation.cyclic(spec, ["x2*x3"], name="M")
    cold = ResolutionCache(str(tmp_path))
    built = cold.theta_module(mod)
    assert cold.stats() == {"hits": 0, "misses": 2, "corrupt": 0}
    warm = ResolutionCache(str(tmp_path))
    loaded = warm.theta_module(mod)
    assert warm.stats() == {"hits": 1, "misses": 0, "corrupt": 0}
    assert any(not is_rational(c) for col in built.columns
               for c in col.values())
    assert loaded.gen_degs == built.gen_degs
    assert _items(loaded) == _items(built)


def test_theta_round_trip_keeps_term_order(tmp_path, monkeypatch):
    spec = m5_ring()
    mod = ModulePresentation.cyclic(spec, ["x3"], name="M")
    z = CycScalar.zeta(5)
    half = CycScalar(5, [Fraction(1, 2), 0, Fraction(-3, 7), 0])
    # terms deliberately out of sorted order
    columns = [{((0, 1), 1): z, ((1, 0), 0): half, ((0, 0), 1): -z * z},
               {((2, 0), 0): half * z, ((0, 0), 0): CycScalar.one(5)}]
    synthetic = ThetaModule(spec, [4, 0], columns)
    monkeypatch.setattr(operators, "ext_over_theta", lambda cx: synthetic)
    ResolutionCache(str(tmp_path)).theta_module(mod)
    loaded = ResolutionCache(str(tmp_path)).theta_module(mod)
    assert loaded is not synthetic
    assert loaded.gen_degs == [4, 0]
    assert _items(loaded) == _items(synthetic)


def test_corrupt_theta_entry_is_rebuilt(tmp_path):
    spec = example_ring()
    mod = ModulePresentation.cyclic(spec, ["x1"], name="M")
    with store.using(ResolutionCache(str(tmp_path))):
        expected = support_variety(mod, "k").to_json()
    path = _only(tmp_path, "theta-")
    with open(path) as handle:
        doc = json.load(handle)
    doc["payload"]["gen_degs"][0] += 1
    with open(path, "w") as handle:
        json.dump(doc, handle)
    cache = ResolutionCache(str(tmp_path))
    with store.using(cache):
        got = support_variety(mod, "k").to_json()
    # the theta module is rejected and rebuilt from the stored resolution
    assert cache.stats() == {"hits": 1, "misses": 1, "corrupt": 1}
    assert got == expected


@pytest.mark.parametrize("numerator", ["1", 0.5, None])
def test_theta_entry_with_non_integer_numerators_is_corrupt(tmp_path,
                                                           numerator):
    # a theta file whose hash matches a payload that holds no integer
    # numerator is refused as corrupt, not read as a scalar
    spec = example_ring()
    mod = ModulePresentation.cyclic(spec, ["x1"], name="M")
    ResolutionCache(str(tmp_path)).theta_module(mod)
    path = _only(tmp_path, "theta-")
    with open(path) as handle:
        doc = json.load(handle)
    doc["payload"]["columns"][0][0][2][0] = numerator
    doc["sha256"] = store._sha256(json.dumps(doc["payload"], sort_keys=True))
    with open(path, "w") as handle:
        json.dump(doc, handle)
    cache = ResolutionCache(str(tmp_path))
    cache.theta_module(mod)
    assert cache.stats() == {"hits": 1, "misses": 1, "corrupt": 1}


def test_one_build_per_module_within_a_store(monkeypatch):
    counts = {"res": 0, "theta": 0}
    build_res = resolve.finite_koszul_resolution
    build_theta = operators.ext_over_theta

    def counted_res(module, *args, **kwargs):
        counts["res"] += 1
        return build_res(module, *args, **kwargs)

    def counted_theta(cx, *args, **kwargs):
        counts["theta"] += 1
        return build_theta(cx, *args, **kwargs)

    monkeypatch.setattr(resolve, "finite_koszul_resolution", counted_res)
    monkeypatch.setattr(operators, "ext_over_theta", counted_theta)
    spec = example_ring()
    mod = ModulePresentation.cyclic(spec, ["x1"], name="M")
    cache = ResolutionCache(None)
    with store.using(cache):
        assert store.current() is cache
        assert support_variety(mod, "k").dimension == 1
        assert complexity(mod, "k") == 1
        assert poincare_series(mod).cprime == 1
        assert is_perfect(mod) is False
        assert isinstance(store.current().get_or_build(mod),
                          resolve.KoszulComplex)
    assert store.current() is not cache
    assert counts == {"res": 1, "theta": 1}
    assert cache.stats() == {"hits": 0, "misses": 2, "corrupt": 0}


def test_warm_cli_support_serves_theta_from_disk(tmp_path, monkeypatch):
    config = {
        "ring": example_ring().to_json(),
        "modules": {"M": {"quotient": ["x1"], "name": "M"}},
        "command": "support",
        "params": {"module": "M", "other": "k"},
    }
    code1, cold, _ = run(config, cache_dir=str(tmp_path))
    assert cold["cache"] == {"hits": 0, "misses": 2, "corrupt": 0}

    def no_build(*args, **kwargs):
        raise AssertionError("the warm run must not build")

    monkeypatch.setattr(operators, "ext_over_theta", no_build)
    monkeypatch.setattr(resolve, "finite_koszul_resolution", no_build)
    code2, warm, _ = run(config, cache_dir=str(tmp_path))
    assert code1 == code2 == 0
    assert warm["cache"] == {"hits": 1, "misses": 0, "corrupt": 0}
    assert warm["result"] == cold["result"]


def test_t_keyed_theta_entry_is_a_miss_not_corrupt(tmp_path):
    # tests/data/t_keyed_cache holds the two files a support job wrote when
    # theta entries were keyed and stored with t: the resolution file, a
    # semifree F of ranks [1, 3, 2], has today's key and loads as a hit,
    # although a fresh build writes the Koszul complex on (x1, x2^2) there;
    # the old theta file has another key, so it is never read and the theta
    # module is rebuilt
    data = Path(__file__).parent / "data" / "t_keyed_cache"
    old = {path.name: path.read_text() for path in data.iterdir()}
    assert sorted(name.split("-")[0] for name in old) == ["res", "theta"]
    for name, text in old.items():
        (tmp_path / name).write_text(text)
    config = {
        "ring": example_ring().to_json(),
        "modules": {"M": {"quotient": ["x1"], "name": "M"}},
        "command": "support",
        "params": {"module": "M"},
    }
    fresh = tmp_path / "fresh"
    code1, cold, _ = run(config, cache_dir=str(fresh))
    res = Path(_only(fresh, "res-"))
    assert res.name in old
    layers = json.loads(res.read_text())["payload"]["basis"]
    assert [len(layer) for layer in layers] == [1, 2, 1]
    code2, report, _ = run(config, cache_dir=str(tmp_path))
    assert code1 == code2 == 0
    assert report["cache"] == {"hits": 1, "misses": 1, "corrupt": 0}
    assert report["result"] == cold["result"]
    for name, text in old.items():
        assert (tmp_path / name).read_text() == text


@pytest.mark.parametrize("command", ["ext", "support"])
def test_resolution_failing_its_certificate_is_rebuilt(tmp_path, command):
    # a res entry whose hash is valid but whose differential is not: one
    # entry doubled and the hash recomputed, with no theta entry to hide it
    config = {
        "ring": example_ring().to_json(),
        "modules": {"M": {"quotient": ["x1"], "name": "M"},
                    "N": {"quotient": ["x2"], "name": "N"}},
        "command": command,
        "params": {"module": "M", "other": "N" if command == "ext" else "k"},
    }
    _code, cold, _ = run(config, cache_dir=str(tmp_path))
    path = _only(tmp_path, "res-")
    with open(path) as handle:
        doc = json.load(handle)
    entry = next(e for layer in doc["payload"]["diff"] for e in layer)
    entry[2] = f"2*({entry[2]})"
    doc["sha256"] = store._sha256(json.dumps(doc["payload"], sort_keys=True))
    with open(path, "w") as handle:
        json.dump(doc, handle)
    for name in os.listdir(tmp_path):
        if name.startswith("theta-"):
            os.remove(os.path.join(tmp_path, name))
    code, warm, _ = run(config, cache_dir=str(tmp_path))
    assert code == 0
    assert warm["result"] == cold["result"]
    assert warm["cache"]["corrupt"] == 1


@pytest.mark.parametrize("command, params", [
    ("ext", {"module": "M", "other": "N"}),
    ("arc", {"module": "M", "r": 1, "window": 3}),
], ids=["ext", "arc"])
def test_each_resolution_is_certified_once(tmp_path, monkeypatch, command,
                                           params):
    # one verify_invariants and one verify_exactness per resolution built
    # (cold) or loaded (warm); the operator complexes built on it read the
    # kept certificate
    calls = {"verify_invariants": 0, "verify_exactness": 0}
    for name in calls:
        original = getattr(resolve.KoszulComplex, name)

        def counted(self, _name=name, _original=original):
            calls[_name] += 1
            return _original(self)

        monkeypatch.setattr(resolve.KoszulComplex, name, counted)
    config = {
        "ring": example_ring().to_json(),
        "modules": {"M": {"quotient": ["x1"], "name": "M"},
                    "N": {"quotient": ["x2"], "name": "N"}},
        "command": command,
        "params": params,
    }
    for expected in ({"hits": 0, "misses": 1, "corrupt": 0},
                     {"hits": 1, "misses": 0, "corrupt": 0}):
        for name in calls:
            calls[name] = 0
        code, report, _ = run(config, cache_dir=str(tmp_path))
        assert code == 0
        assert report["cache"] == expected
        assert calls == {"verify_invariants": 1, "verify_exactness": 1}


def _public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) \
                != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj.__init__
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_support_functions_take_no_resolution():
    names = []
    for name, fn in _public_callables(support):
        names.append(name)
        params = inspect.signature(fn).parameters
        assert "resolution" not in params, name
        assert "resolution_other" not in params, name
    assert {"support_variety", "complexity", "poincare_series",
            "is_perfect", "arc_check"} <= set(names)


@pytest.mark.parametrize("kind", ["res", "theta"])
def test_unreadable_entry_counts_as_corrupt(tmp_path, kind):
    spec = example_ring()
    mod = ModulePresentation.cyclic(spec, ["x1"], name="M")
    ResolutionCache(str(tmp_path)).theta_module(mod)
    with open(_only(tmp_path, kind + "-"), "w") as handle:
        handle.write("{not json")
    cache = ResolutionCache(str(tmp_path))
    if kind == "res":
        cx = cache.get_or_build(mod)
        assert not cx.verify_invariants()
    else:
        cache.theta_module(mod)
    assert cache.stats()["corrupt"] == 1


@pytest.mark.parametrize("kind", ["res", "theta"])
def test_digests_are_the_hashlib_sha256_digests(tmp_path, kind):
    # the builtin SHA-256 gives the digests hashlib gave, so cache
    # directories written with hashlib still load as hits
    import hashlib

    spec = example_ring()
    mod = ModulePresentation.cyclic(spec, ["x1"], name="M")
    ResolutionCache(str(tmp_path)).theta_module(mod)
    path = _only(tmp_path, kind + "-")
    with open(path) as handle:
        doc = json.load(handle)
    text = json.dumps(doc["payload"], sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert store._sha256(text) == digest == doc["sha256"]
