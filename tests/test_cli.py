import json
import os
import re

import pytest

from skewci.cli import JobError, ResolutionCache, _parse_window, main, run
from skewci.resolve import ModulePresentation, finite_koszul_resolution

from fixtures import example_ring


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


def test_cache_roundtrip(tmp_path):
    spec = example_ring()
    mod = ModulePresentation.cyclic(spec, ["x1"], name="M")
    cache = ResolutionCache(str(tmp_path))
    cx1 = cache.get_or_build(mod)
    assert cache.stats()["misses"] == 1
    cx2 = cache.get_or_build(mod)
    assert cache.stats()["hits"] == 1
    assert cx1.canonical_json() == cx2.canonical_json()
    # serialize-then-deserialize is the identity on the canonical form
    direct = finite_koszul_resolution(mod)
    assert direct.canonical_json() == cx1.canonical_json()


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


def test_main_full_semantics(tmp_path, capsys):
    config_path = tmp_path / "job.json"
    with open(config_path, "w") as handle:
        json.dump(example_config(
            "support", {"module": "M", "degree_cap": 8}), handle)
    code = main(["--config", str(config_path), "--semantics", "full"])
    assert code == 0
    captured = capsys.readouterr()
    assert "truncated-full" in captured.out


def test_unknown_command_rejected():
    with pytest.raises(JobError):
        run(example_config("frobnicate"))


def test_missing_module_rejected():
    with pytest.raises(JobError):
        run(example_config("support", {"module": "Zed"}))


def test_malformed_config_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"ring": [,]}')
    with pytest.raises(JobError) as err:
        from skewci.cli import load_config
        load_config(str(path))
    assert "line" in str(err.value) and "column" in str(err.value)


def test_window_too_small_exit_code():
    config = example_config(
        "poincare", {"module": "M", "other": "M", "cmax": 3, "dmax": 6})
    code, report, text = run(config)
    assert code == 3
    assert "window too small" in report["error"]


def _main_with_report(tmp_path, capsys, config):
    config_path = tmp_path / "job.json"
    out_path = tmp_path / "report.json"
    with open(config_path, "w") as handle:
        json.dump(config, handle)
    code = main(["--config", str(config_path), "--out", str(out_path)])
    captured = capsys.readouterr()
    with open(out_path) as handle:
        return code, json.load(handle), captured


def test_truncation_error_exit_code(tmp_path, capsys, monkeypatch):
    from skewci import resolve

    def truncated(module, *args, **kwargs):
        raise resolve.TruncationError(
            "no free cokernel reached up to homological degree 4; "
            "increase hmax")

    monkeypatch.setattr(resolve, "finite_koszul_resolution", truncated)
    code, report, captured = _main_with_report(
        tmp_path, capsys, example_config("support", {"module": "M"}))
    assert code == 3
    assert report["ok"] is False
    assert report["error"] == ("bound too small: no free cokernel reached "
                               "up to homological degree 4; increase hmax")
    assert "Traceback" not in captured.err + captured.out
    assert captured.out.count(report["error"]) == 1


def test_certificate_failure_exit_code(tmp_path, capsys, monkeypatch):
    from skewci import operators

    def uncertified(cx, t, *args, **kwargs):
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
    # each command reports the windows it ran with, defaults included
    cases = [
        ("ext", {"module": "M"}, {"cmax": 6, "dmax": 8, "jmin": -8}),
        ("hh", {}, {"cmax": 6, "dmax": 8}),
        ("betti", {"module": "M"}, {"imax": 6, "dmax": 14}),
        ("arc", {"module": "M"}, {"r": 0, "window": 4, "jmin": -9, "jmax": 9}),
        ("ext", {"module": "M", "cmax": 3, "dmax": 2},
         {"cmax": 3, "dmax": 2, "jmin": -2}),
    ]
    for command, params, windows in cases:
        code, report, _ = run(example_config(command, params))
        assert code == 0, command
        assert report["windows"] == windows, (command, params)


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
