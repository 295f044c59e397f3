import json
import os
import re
from pathlib import Path

import pytest

from skewci.cli import (
    _COMMANDS,
    _NONNEGATIVE,
    _PARAM_TYPES,
    JobError,
    ResolutionCache,
    _parse_window,
    main,
    run,
)
from skewci.colorcore import RingSpec
from skewci.resolve import (
    ModulePresentation,
    finite_koszul_resolution,
    minimal_R_resolution,
)

from fixtures import canonical_json, example_ring


def example_config(command, params=None, modules=None):
    return {
        "ring": example_ring().to_json(),
        "modules": modules or {
            "M": {"quotient": ["x1"], "name": "M"},
            "N": {"quotient": ["x2"], "name": "N"},
        },
        "command": command,
        "params": params or {},
    }


def test_window_parsing():
    assert _parse_window("c=6,D=8,j=-2") == {"cmax": 6, "dmax": 8, "jmin": -2}
    with pytest.raises(JobError):
        _parse_window("q=3")
    # no construction bound is configurable: the resolution loop always
    # stops at its first free cokernel
    with pytest.raises(JobError):
        _parse_window("h=4")


def test_window_example_in_help_parses(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    example = re.search(r"e\.g\.\s+(\S+)", capsys.readouterr().out).group(1)
    assert _parse_window(example)


def test_window_value_not_integer_exit_code(tmp_path, capsys):
    config_path = tmp_path / "job.json"
    with open(config_path, "w") as handle:
        json.dump(example_config("check"), handle)
    code = main(["--config", str(config_path), "--window", "c=x"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _main_exit_and_stderr(tmp_path, capsys, config):
    config_path = tmp_path / "job.json"
    with open(config_path, "w") as handle:
        json.dump(config, handle)
    code = main(["--config", str(config_path)])
    return code, capsys.readouterr().err


def test_relation_with_unknown_variable_exit_code(tmp_path, capsys):
    config = example_config("check")
    config["ring"]["relations"] = ["x1^2", "x9^2"]
    code, err = _main_exit_and_stderr(tmp_path, capsys, config)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "x9" in err


def test_zero_conductor_exit_code(tmp_path, capsys):
    config = example_config("check")
    config["ring"]["m"] = 0
    code, err = _main_exit_and_stderr(tmp_path, capsys, config)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "conductor" in err


def _assert_config_error(tmp_path, capsys, config, fragment):
    code, err = _main_exit_and_stderr(tmp_path, capsys, config)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


@pytest.mark.parametrize("key, value", [("cmax", "3"), ("dmax", 2.5)])
def test_non_integer_param_exit_code(tmp_path, capsys, key, value):
    config = example_config("ext", {"module": "M", key: value})
    _assert_config_error(tmp_path, capsys, config, f"params.{key}")


def test_config_not_an_object_exit_code(tmp_path, capsys):
    _assert_config_error(tmp_path, capsys, "ring command", "object")
    config = example_config("check")
    config["command"] = ["check"]
    _assert_config_error(tmp_path, capsys, config, "unknown command")


def test_params_list_exit_code(tmp_path, capsys):
    config = example_config("check")
    config["params"] = [["cmax", 3]]
    _assert_config_error(tmp_path, capsys, config, "params")


def test_quotient_with_unknown_variable_exit_code(tmp_path, capsys):
    config = example_config("support", {"module": "M"},
                            modules={"M": {"quotient": ["x9"]}})
    _assert_config_error(tmp_path, capsys, config, "x9")


def test_quotient_given_as_string_exit_code(tmp_path, capsys):
    # a string is not parsed character by character
    config = example_config("support", {"module": "M"},
                            modules={"M": {"quotient": "x1"}})
    _assert_config_error(tmp_path, capsys, config, "quotient")


def test_relation_column_longer_than_gens_exit_code(tmp_path, capsys):
    # a second entry names a generator the module does not have
    config = example_config("support", {"module": "M"}, modules={
        "M": {"gens": [{"degree": 0}], "relations": [["x1", "x2"]]}})
    _assert_config_error(tmp_path, capsys, config, "invalid module 'M'")


def test_generator_color_of_wrong_length_exit_code(tmp_path, capsys):
    config = example_config("support", {"module": "M"}, modules={
        "M": {"gens": [{"degree": 0, "color": [0]}],
              "relations": [["x1"]]}})
    _assert_config_error(tmp_path, capsys, config, "length n = 2")


def test_arc_window_not_above_r_exit_code(tmp_path, capsys):
    config = example_config("arc", {"module": "M", "r": 3, "window": 3})
    _assert_config_error(tmp_path, capsys, config, "window")


def test_check_command():
    code, report, text = run(example_config("check"))
    assert code == 0
    assert report["result"]["hilbert_dims"][:3] == [1, 2, 1]
    assert report["result"]["t"] == 2


def test_check_rejects_invalid_ring():
    config = example_config("check")
    config["ring"]["relations"] = ["x1^2", "x1^2"]
    code, report, text = run(config)
    assert code == 2
    assert not report["ok"]
    assert any("Hilbert mismatch" in m
               for m in report["validation"]["messages"])


def test_support_command_example():
    code, report, text = run(example_config(
        "support", {"module": "M", "other": "k"}))
    assert code == 0
    assert report["result"]["ideal"] == ["th2"]
    assert report["result"]["dimension"] == 1
    assert report["result"]["t"] == 2
    assert "th2" in text


def test_betti_command():
    code, report, text = run(example_config(
        "betti", {"module": "k", "imax": 6, "dmax": 8}))
    assert code == 0
    assert report["result"]["totals"] == [1, 2, 3, 4, 5, 6, 7]


def test_poincare_command():
    code, report, text = run(example_config("poincare", {"module": "k"}))
    assert code == 0
    assert report["result"]["numerator"] == [1, 2, 1]
    assert report["result"]["cprime"] == 2


def test_zero_module_has_zero_series_and_complexity():
    # R/(1) = 0: P = 0 and cx = 0, not a failed certificate
    modules = {"Z": {"quotient": ["1"], "name": "Z"}}
    code, report, _ = run(example_config("poincare", {"module": "Z"},
                                         modules))
    assert code == 0, report.get("error")
    assert report["result"]["numerator"] == [0]
    assert report["result"]["cprime"] == 0
    assert report["result"]["coefficients"] == [0] * 11
    code, report, _ = run(example_config("complexity", {"module": "Z"},
                                         modules))
    assert code == 0, report.get("error")
    assert report["result"]["value"] == 0


def test_hh_command():
    code, report, text = run(example_config("hh", {"cmax": 4, "dmax": 6}))
    assert code == 0
    assert report["result"]["ok"]


def test_selftest_appendix_command():
    code, report, text = run(example_config(
        "selftest-appendix", {"bound": 3}))
    assert code == 0
    assert report["result"]["ok"]


def test_arc_command():
    config = {
        "ring": {"n": 2, "m": 4, "qexp": [[0, 1], [-1, 0]],
                 "relations": ["x1^2"]},
        "modules": {"M": {"quotient": ["x2"], "name": "M"}},
        "command": "arc",
        "params": {"module": "M", "r": 1, "window": 5},
    }
    code, report, text = run(config)
    assert code == 0
    assert report["result"]["verdict"] == "pass"


def polynomial_config(command, params):
    """A job over k[x1, x2] (m = 1, no relations) with M = R/(x1) and
    N = R/(x1*x2)."""
    return {
        "ring": {"n": 2, "m": 1, "qexp": [[0, 0], [0, 0]], "relations": []},
        "modules": {"M": {"quotient": ["x1"], "name": "M"},
                    "N": {"quotient": ["x1*x2"], "name": "N"}},
        "command": command,
        "params": params,
    }


def test_ring_without_relations_matches_the_oracle(tmp_path, capsys):
    # c = 0: arc, complexity and poincare of a pair used to crash on
    # max(spec.df).  Over k[x1, x2] pd M = 1, so cx(M, N) = 0, and by
    # Koszul self-duality dim Ext^i(k, N) = beta_{2-i}(N).
    spec = RingSpec.from_json(polynomial_config("check", {})["ring"])
    pd_m = minimal_R_resolution(ModulePresentation.cyclic(spec, ["x1"]),
                                4, 6).projective_dimension()
    betti_n = minimal_R_resolution(
        ModulePresentation.cyclic(spec, ["x1*x2"]), 4, 6).totals()
    assert pd_m == 1 and betti_n == [1, 1, 0, 0, 0]
    jobs = [("arc", {"module": "M", "r": 1, "window": 3}),
            ("complexity", {"module": "M", "other": "N"}),
            ("poincare", {"module": "k", "other": "N", "cmax": 4})]
    results = {}
    for command, params in jobs:
        code, report, captured = _main_with_report(
            tmp_path, capsys, polynomial_config(command, params))
        assert code == 0, report.get("error")
        assert "Traceback" not in captured.err + captured.out
        results[command] = report["result"]
    assert results["arc"]["verdict"] == "pass"
    assert results["arc"]["pd"] == results["arc"]["sup_ext_R"] == pd_m
    assert results["complexity"]["value"] == 0
    assert results["poincare"]["coefficients"] == [
        betti_n[2 - i] if i <= 2 else 0 for i in range(5)]


def test_zero_module_pairs_and_arc(tmp_path, capsys):
    # Z = R/(1) = 0 has an empty resolution, so the pair fits and the ARC
    # check read degrees off an empty basis
    ring = {"n": 3, "m": 4, "qexp": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]],
            "relations": ["x1^2", "x2^2"]}
    modules = {"Z": {"quotient": ["1"], "name": "Z"},
               "N": {"quotient": ["x2"], "name": "N"}}
    pairs = [("Z", "N"), ("N", "Z"), ("Z", "Z")]
    jobs = ([("complexity", {"module": a, "other": b}) for a, b in pairs]
            + [("poincare", {"module": a, "other": b}) for a, b in pairs]
            + [("arc", {"module": "Z", "r": 0, "window": 2})])
    results = []
    for command, params in jobs:
        code, report, captured = _main_with_report(
            tmp_path, capsys, {"ring": ring, "modules": modules,
                               "command": command, "params": params})
        assert code == 0, (command, params, report.get("error"))
        assert "Traceback" not in captured.err + captured.out
        results.append(report["result"])
    assert [r["value"] for r in results[:3]] == [0, 0, 0]
    assert [r["numerator"] for r in results[3:6]] == [[0], [0], [0]]
    assert results[6]["verdict"] == "pass"
    assert results[6]["pd"] == 0


def test_ring_without_relations_needs_cmax_n():
    # with c = 0 the fit validates no trailing coefficients, so a window
    # below gl.dim Q = n cannot certify the series: P_{k,M} = t + t^2
    for command, module, other in (("poincare", "k", "M"),
                                   ("complexity", "M", "N")):
        code, report, _ = run(polynomial_config(
            command, {"module": module, "other": other, "cmax": 1}))
        assert code == 3, command
        assert report["error"].startswith(
            "window too small: cmax 1 is below n = 2"), report["error"]
    code, report, _ = run(polynomial_config(
        "poincare", {"module": "k", "other": "M", "cmax": 2}))
    assert code == 0
    assert report["result"]["coefficients"] == [0, 1, 1]


def test_cache_roundtrip(tmp_path):
    spec = example_ring()
    mod = ModulePresentation.cyclic(spec, ["x1"], name="M")
    cache = ResolutionCache(str(tmp_path))
    cx1 = cache.get_or_build(mod)
    assert cache.stats()["misses"] == 1
    cx2 = cache.get_or_build(mod)
    assert cache.stats()["hits"] == 1
    assert canonical_json(cx1) == canonical_json(cx2)
    # serialize-then-deserialize is the identity on the canonical form
    direct = finite_koszul_resolution(mod)
    assert canonical_json(direct) == canonical_json(cx1)


def test_cache_detects_corruption(tmp_path):
    spec = example_ring()
    mod = ModulePresentation.cyclic(spec, ["x1"], name="M")
    cache = ResolutionCache(str(tmp_path))
    cache.get_or_build(mod)
    (entry,) = [p for p in os.listdir(tmp_path) if p.endswith(".json")]
    path = os.path.join(tmp_path, entry)
    with open(path) as handle:
        doc = json.load(handle)
    doc["payload"]["basis"][0][0][0] = 99  # flip a bit
    with open(path, "w") as handle:
        json.dump(doc, handle)
    cache2 = ResolutionCache(str(tmp_path))
    cx = cache2.get_or_build(mod)
    assert cache2.stats()["corrupt"] == 1
    assert cache2.stats()["misses"] == 1
    assert not cx.verify_invariants()


def test_run_reports_cache_hits(tmp_path):
    config = example_config("resolve", {"module": "M"})
    code1, report1, _ = run(config, cache_dir=str(tmp_path))
    code2, report2, _ = run(config, cache_dir=str(tmp_path))
    assert code1 == code2 == 0
    assert report1["cache"]["misses"] == 1
    assert report2["cache"]["hits"] == 1


def test_determinism_identical_reports(tmp_path):
    config = example_config("support", {"module": "M", "other": "k"})
    _, r1, _ = run(config)
    _, r2, _ = run(config)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_main_end_to_end(tmp_path, capsys):
    config_path = tmp_path / "job.json"
    out_path = tmp_path / "report.json"
    with open(config_path, "w") as handle:
        json.dump(example_config("support", {"module": "M"}), handle)
    code = main(["--config", str(config_path), "--out", str(out_path),
                 "--cache", str(tmp_path / "cache")])
    assert code == 0
    captured = capsys.readouterr()
    assert "ideal: (th2)" in captured.out
    with open(out_path) as handle:
        report = json.load(handle)
    assert report["result"]["dimension"] == 1


def test_unknown_command_rejected():
    with pytest.raises(JobError):
        run(example_config("frobnicate"))


def test_missing_module_rejected():
    with pytest.raises(JobError):
        run(example_config("support", {"module": "Zed"}))


def test_reserved_module_names_are_refused(tmp_path, capsys):
    # a config module named k or R would shadow the built-in module, and
    # change the answer of every job whose default other is k
    for name in ("k", "R"):
        modules = {"M": {"quotient": ["x1"]}, name: {"quotient": ["x2"]}}
        for command in ("poincare", "complexity", "support"):
            config = example_config(command, {"module": "M"}, modules)
            with pytest.raises(JobError, match=f"{name!r} is reserved"):
                run(config)
    config_path = tmp_path / "job.json"
    with open(config_path, "w") as handle:
        json.dump(config, handle)
    assert main(["--config", str(config_path)]) == 2
    assert "reserved" in capsys.readouterr().err
    # so the names are checked on an object, and every command refuses
    # modules that are not one
    config = example_config("check")
    config["modules"] = ["k"]
    with pytest.raises(JobError, match="modules must be an object"):
        run(config)


def test_malformed_config_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"ring": [,]}')
    with pytest.raises(JobError) as err:
        from skewci.cli import load_config
        load_config(str(path))
    assert "line" in str(err.value) and "column" in str(err.value)


def test_negative_window_bounds_are_rejected(tmp_path, capsys):
    for key in _NONNEGATIVE:
        with pytest.raises(JobError, match=f"params.{key} must be >= 0"):
            run(example_config("check", {key: -1}))
    # jmin is a signed internal degree
    assert run(example_config("ext", {"module": "M", "jmin": -3}))[0] == 0
    config_path = tmp_path / "job.json"
    for config, argv in [(example_config("check", {"dmax": -1}), []),
                         (example_config("hh"), ["--window", "c=-1"])]:
        with open(config_path, "w") as handle:
            json.dump(config, handle)
        code = main(["--config", str(config_path)] + argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


N3C3M5 = RingSpec(3, 5, [[0, 1, 2], [-1, 0, 1], [-2, -1, 0]],
                  relations=["x1^2", "x2^2", "x3^2"])


def test_empty_ext_window_exit_code(tmp_path, capsys):
    # jmin above dmax leaves no internal index: refused, not read as
    # vanishing Ext, whether jmin comes from params or from --window
    config = example_config("ext", {"module": "M", "other": "N", "cmax": 2,
                                    "dmax": 2})
    config["ring"] = N3C3M5.to_json()
    code, report, _ = run(config)
    assert code == 0 and report["result"]["ext_dims"] == [2, 0, 0]
    config_path = tmp_path / "job.json"
    for jmin in (3, 5):
        with pytest.raises(JobError, match="ext window is empty"):
            run(config, window_override={"jmin": jmin})
        config["params"]["jmin"] = jmin
        _assert_config_error(tmp_path, capsys, config, "ext window is empty")
        del config["params"]["jmin"]
        with open(config_path, "w") as handle:
            json.dump(config, handle)
        assert main(["--config", str(config_path),
                     "--window", f"j={jmin}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ext window is empty" in err
    # jmin = dmax is a window of one internal index
    assert run(config, window_override={"jmin": 2})[0] == 0


def test_unknown_param_exit_code(tmp_path, capsys):
    config = example_config("ext", {"module": "M", "cmx": 1})
    _assert_config_error(tmp_path, capsys, config, "unknown params key 'cmx'")


def test_window_too_small_exit_code():
    config = example_config(
        "poincare", {"module": "M", "other": "M", "cmax": 3, "dmax": 6})
    code, report, text = run(config)
    assert code == 3
    assert report["error"].startswith("window too small: (1-t^2)^2 * P ")
    assert report["error"].count("window too small") == 1


def _main_with_report(tmp_path, capsys, config):
    config_path = tmp_path / "job.json"
    out_path = tmp_path / "report.json"
    with open(config_path, "w") as handle:
        json.dump(config, handle)
    code = main(["--config", str(config_path), "--out", str(out_path)])
    captured = capsys.readouterr()
    with open(out_path) as handle:
        return code, json.load(handle), captured


def test_certificate_failure_exit_code(tmp_path, capsys, monkeypatch):
    from skewci import operators

    def uncertified(cx, *args, **kwargs):
        raise AssertionError("image vector outside the kernel module")

    monkeypatch.setattr(operators, "ext_over_theta", uncertified)
    code, report, captured = _main_with_report(
        tmp_path, capsys, example_config("complexity", {"module": "M"}))
    assert code == 1
    assert report["ok"] is False
    assert report["error"] == ("certificate failed: image vector outside "
                               "the kernel module")
    assert "Traceback" not in captured.err + captured.out
    assert captured.out.count(report["error"]) == 1


def test_default_windows_are_reported():
    # each command reports the windows it ran with, defaults included, and
    # no param it does not read
    fit = {"cmax": 8, "dmax": 11, "jmin": -1, "j_complete": True}
    cases = [
        ("ext", {"module": "M"}, {"cmax": 6, "dmax": 8, "jmin": -8}),
        ("hh", {}, {"cmax": 6, "dmax": 8}),
        # F of M = R/(x1) tops out at degree 3 (x1 and x2^2), and df = (2, 2)
        ("betti", {"module": "M"}, {"imax": 6, "dmax": 3 + (6 // 2 + 1) * 2}),
        ("arc", {"module": "M"}, {"r": 0, "window": 4, "jmin": -9, "jmax": 9}),
        ("ext", {"module": "M", "cmax": 3, "dmax": 2},
         {"cmax": 3, "dmax": 2, "jmin": -2}),
        # a rational fit runs with the jmin asked for, lowered to the
        # j-complete window it needs
        ("complexity", {"module": "M", "other": "N"}, fit),
        ("complexity", {"module": "M", "other": "N", "jmin": -2},
         {**fit, "jmin": -2}),
        ("complexity", {"module": "M", "other": "N", "jmin": 0}, fit),
        # poincare sizes its fit and its coefficients with one cmax
        ("poincare", {"module": "M", "other": "N"},
         {"cmax": 10, "dmax": 13, "jmin": -1, "j_complete": True}),
        ("poincare", {"module": "M", "other": "N", "jmin": -5},
         {"cmax": 10, "dmax": 13, "jmin": -5, "j_complete": True}),
        ("poincare", {"module": "k"}, {"cmax": 10}),
        ("support", {"module": "M", "cmax": 9}, {}),
        ("selftest-appendix", {"bound": 3}, {"bound": 3}),
        ("check", {"diagonal_dmax": 3}, {"diagonal_dmax": 3}),
    ]
    for command, params, windows in cases:
        code, report, _ = run(example_config(command, params))
        assert code == 0, command
        assert report["windows"] == windows, (command, params)


def _schema(name):
    path = Path(__file__).resolve().parent.parent / "docs" / name
    return json.loads(path.read_text())


def test_schemas_agree_with_the_cli():
    config = _schema("config.schema.json")["properties"]
    json_types = {"integer": int, "string": str}
    assert config["params"]["additionalProperties"] is False
    params = config["params"]["properties"]
    assert {key: json_types[prop["type"]] for key, prop
            in params.items()} == _PARAM_TYPES
    assert {key for key, prop in params.items()
            if prop.get("minimum") == 0} == set(_NONNEGATIVE)
    assert set(config["command"]["enum"]) == set(_COMMANDS)
    # the top-level keys of a report that succeeded, of a ring that failed
    # validation and of a job that failed with a typed error
    invalid = example_config("check")
    invalid["ring"]["relations"] = ["x1^2", "x1^2"]
    too_small = example_config(
        "poincare", {"module": "M", "other": "M", "cmax": 3, "dmax": 6})
    keys = set()
    for job in (example_config("check"), invalid, too_small):
        keys |= set(run(job)[1])
    assert {"windows", "result", "cache", "error"} <= keys
    report = _schema("report.schema.json")["properties"]
    assert keys <= set(report)
    # every result key of one job per command is documented, and so is
    # every key of an ext table
    jobs = [("check", {"diagonal_dmax": 2}), ("resolve", {"module": "M"}),
            ("betti", {"module": "M"}),
            ("ext", {"module": "M", "other": "N"}),
            ("hh", {"cmax": 2, "dmax": 2}),
            ("support", {"module": "M", "other": "N"}),
            ("complexity", {"module": "M"}),
            ("poincare", {"module": "M", "other": "N"}),
            ("perfect", {"module": "M"}),
            ("arc", {"module": "M", "r": 1, "window": 3}),
            ("arc", {"module": "R", "r": 0, "window": 2}),
            ("selftest-appendix", {"bound": 2})]
    assert {command for command, _params in jobs} == set(_COMMANDS)
    documented = report["result"]["properties"]
    for command, params in jobs:
        code, job_report, _ = run(example_config(command, params))
        assert code == 0, (command, job_report)
        result = job_report["result"]
        assert set(result) <= set(documented), (command, set(result))
        if command == "ext":
            assert set(result["table"]) == \
                set(documented["table"]["properties"])


def test_importing_the_cli_leaves_dualpowers_unloaded():
    import subprocess
    import sys

    import skewci

    src = os.path.dirname(os.path.dirname(skewci.__file__))
    code = ("import sys, skewci.cli; "
            "assert 'skewci.dualpowers' not in sys.modules; "
            "from skewci import verify_appendix; "
            "assert 'skewci.dualpowers' in sys.modules")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_jobs_leave_openssl_unloaded(tmp_path):
    # the store's digests come from the builtin SHA-256 module: a job that
    # writes a cache entry and one that reads it back load no OpenSSL
    import subprocess
    import sys

    import skewci

    src = os.path.dirname(os.path.dirname(skewci.__file__))
    config_path = tmp_path / "job.json"
    config_path.write_text(json.dumps(
        example_config("resolve", {"module": "M"})))
    reports = [tmp_path / "cold.json", tmp_path / "warm.json"]
    code = ("import sys; from skewci.cli import main; "
            "args = ['--config', sys.argv[1], '--cache', sys.argv[2]]; "
            "assert main(args + ['--out', sys.argv[3]]) == 0; "
            "assert main(args + ['--out', sys.argv[4]]) == 0; "
            "assert not {'_hashlib', '_ssl'} & set(sys.modules), "
            "sorted({'_hashlib', '_ssl'} & set(sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(config_path),
         str(tmp_path / "cache")] + [str(p) for p in reports],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    cold, warm = (json.loads(p.read_text())["cache"] for p in reports)
    assert cold == {"hits": 0, "misses": 1, "corrupt": 0}
    assert warm == {"hits": 1, "misses": 0, "corrupt": 0}


def test_cli_jobs_load_no_argparse_or_fractions(tmp_path):
    # the command line is parsed without argparse and scalars print, sort
    # and load from the store in integers: a cold support job and a warm
    # one on its cache load none of these modules
    import subprocess
    import sys

    import skewci

    src = os.path.dirname(os.path.dirname(skewci.__file__))
    config_path = tmp_path / "job.json"
    config_path.write_text(json.dumps(
        example_config("support", {"module": "M"})))
    reports = [tmp_path / "cold.json", tmp_path / "warm.json"]
    heavy = {"argparse", "gettext", "fractions", "decimal"}
    code = ("import sys; from skewci.cli import main; "
            "args = ['--config', sys.argv[1], '--cache', sys.argv[2]]; "
            "assert main(args + ['--out', sys.argv[3]]) == 0; "
            "assert main(args + ['--out', sys.argv[4]]) == 0; "
            f"loaded = sorted({heavy!r} & set(sys.modules)); "
            "assert not loaded, loaded")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(config_path),
         str(tmp_path / "cache")] + [str(p) for p in reports],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    cold, warm = (json.loads(p.read_text())["cache"] for p in reports)
    assert cold == {"hits": 0, "misses": 2, "corrupt": 0}
    assert warm == {"hits": 1, "misses": 0, "corrupt": 0}


def test_command_line_flags(tmp_path, capsys):
    config_path = tmp_path / "job.json"
    config_path.write_text(json.dumps(example_config("check")))
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "e.g. c=6,D=8,j=-8" in capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main([f"--config={config_path}", f"--out={out}",
                 "--window", "D=4"]) == 0
    assert json.loads(out.read_text())["windows"] == {"dmax": 4}
    capsys.readouterr()
    for argv in (["--config", str(config_path), "--bogus"],
                 ["--out", str(out)], ["--config"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        usage = [line for line in captured.err.splitlines()
                 if line.startswith("usage: skewci ")]
        assert len(usage) == 1 and not captured.out, argv
        assert "Traceback" not in captured.err
