"""Tests of the benchmark's own code.

    python3 -m pytest bench/tests -q

The end-to-end tests run ``run.py`` against a stub ``skewci`` package in a
temporary tree, so they take seconds and do not depend on the real
program's speed or answers.
"""

from __future__ import annotations

import importlib
import inspect
import json
import shutil
import subprocess
import sys
import textwrap
import time
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

STUB_CLI = textwrap.dedent('''
    import argparse, json, os, sys

    def main(argv=None):
        parser = argparse.ArgumentParser()
        for flag in ("--config", "--cache", "--out"):
            parser.add_argument(flag)
        args = parser.parse_args(argv)
        with open(args.config) as handle:
            command = json.load(handle)["command"]
        mode = os.environ.get("STUB_MODE", "ok")
        if mode == "crash" and command != "check":
            raise RuntimeError("stub crash")
        dims = [8 if mode == "wrong" else 7, 0, 0, 0, 0]
        with open(args.out, "w") as handle:
            json.dump({"ok": True, "result": {"ok": True, "ext_dims": dims},
                       "cache": {"hits": 0, "misses": 1}}, handle)
        return 0

    if __name__ == "__main__":
        sys.exit(main())
''')


# -- generator ----------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seeds_only_permute_and_relabel_symmetrically(workload):
    base = workloads.WORKLOADS[workload]
    ids = sorted(workloads.job_id(job) for job in base)
    orders = set()
    for seed in range(6):
        jobs, perms = workloads.generate(workload, seed)
        assert sorted(jid for jid, _ in jobs) == ids
        orders.add(tuple(jid for jid, _ in jobs))
        for name, perm in perms.items():
            assert perm in workloads.automorphisms(workloads.RINGS[name])
        for _jid, cfg in jobs:
            ring = cfg["ring"]
            assert ring["n"] == len(ring["qexp"])
    assert len(orders) > 1


def test_every_job_has_a_reference():
    with open(BENCH / "references.json") as handle:
        refs = json.load(handle)
    for workload, jobs in workloads.WORKLOADS.items():
        for job in jobs:
            assert workloads.job_id(job) in refs
        assert f"{workloads.first_ring(workload)}:check" in refs


def test_relabelling_permutes_variables_consistently():
    ring = workloads.RINGS["n3c3m1"]
    moved = workloads.relabel_ring(ring, [1, 2, 0])
    assert moved["relations"] == ["x2^2", "x3^2", "x1^2"]
    cfg = workloads.config(workloads.WORKLOADS["theta_batch"][0], [1, 2, 0])
    assert cfg["modules"]["M"]["quotient"] == ["x2"]


# -- answer checks --------------------------------------------------------------

def test_support_ideal_must_match_its_dimension():
    # the zero ideal of k[th1..th3] has dimension 3, not 1
    report = {"ok": True, "result": {"ideal": [], "dimension": 1}}
    problems = check.check_answer(0, report, {}, 3)
    assert problems and "dimension" in problems[0]
    good = {"ok": True, "result": {"ideal": ["th3", "th2"], "dimension": 1}}
    assert check.check_answer(0, good, {"ideal": ["th2", "th3"],
                                        "dimension": 1}, 3) == []


def test_ideal_dimension():
    assert check.ideal_dimension([], 3) == 3
    assert check.ideal_dimension(["th1", "th2"], 3) == 1
    assert check.ideal_dimension(["th1*th2"], 2) == 1
    assert check.ideal_dimension(["th1 + th2"], 2) is None


def test_crash_classification():
    assert check.crashed(1, "Traceback (most recent call last):\n  ...")
    assert check.crashed(-9, "")
    assert not check.crashed(1, "")
    assert not check.crashed(3, "error: window too small")


# -- the command, against a stub program -------------------------------------

@pytest.fixture
def stub_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("tests", "__pycache__"))
    pkg = tmp_path / "src" / "skewci"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(STUB_CLI)
    return tmp_path


def _run(tree, mode):
    env = {"STUB_MODE": mode, "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload",
         "ext_slices", "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, env=env, timeout=120)


def test_correct_answers_exit_zero(stub_tree):
    proc = _run(stub_tree, "ok")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"cold_pass_s", "warm_pass_s",
                                      "peak_rss_mb", "setup_s"}
    assert not (stub_tree / ".bench_work").exists() or not any(
        (stub_tree / ".bench_work").iterdir())


def test_perturbed_answer_exits_nonzero(stub_tree):
    proc = _run(stub_tree, "wrong")
    assert proc.returncode == 1
    assert "WRONG ANSWER" in proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False


def test_traceback_counts_as_failure_not_wrong_answer(stub_tree):
    proc = _run(stub_tree, "crash")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    # every workload job crashed (the set-up check jobs are not counted)
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["cold_pass_s"]["value"] is None
    assert "fail_frac = 1 ratio" in proc.stdout


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("tests", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
         "ext_slices", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- tracer ----------------------------------------------------------------------

def _snapshot():
    """Every attribute of the skewci modules and of their classes."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "skewci" or name.startswith("skewci."):
            out[name] = dict(vars(mod))
            for attr, obj in vars(mod).items():
                if inspect.isclass(obj) and obj.__module__ == name:
                    out[f"{name}.{attr}"] = dict(vars(obj))
    return out


@pytest.fixture
def skewci_on_path():
    sys.path.insert(0, str(SRC))
    try:
        importlib.import_module("skewci.cli")
        yield
    finally:
        sys.path.remove(str(SRC))


def test_wrappers_are_restored_after_traced_run(skewci_on_path, tmp_path):
    before = _snapshot()
    job = tmp_path / "job.json"
    job.write_text(json.dumps(workloads.check_config("n3c2m4")))
    out = tmp_path / "trace.json"
    launched = time.perf_counter()
    code = tracer.main(["--out", str(out), "--job", "t",
                        "--launched", repr(launched), "--",
                        "--config", str(job), "--out",
                        str(tmp_path / "report.json")])
    assert code == 0
    wall = time.perf_counter() - launched
    after = _snapshot()
    assert after.keys() == before.keys()
    for key in before:
        changed = [a for a in before[key]
                   if after[key].get(a) is not before[key][a]]
        assert not changed, (key, changed)
    text = out.read_text()
    doc = json.loads(text)
    names = Counter(span[0] for span in doc["spans"])
    assert {"cli.main", "colorcore.validate_ring"} <= set(names)
    assert doc["calls"]["cli.main"] == 1
    # hot names are counted in full but keep at most SPAN_CAP spans
    assert max(names.values()) <= tracer.SPAN_CAP
    assert max(doc["calls"].values()) > tracer.SPAN_CAP

    class Traced:
        traces = [(wall, text)]
        reports = []

    metrics = tracer.layer_metrics([Traced])
    assert set(metrics) | {"trace.overhead_frac"} == set(
        tracer.PER_LAYER_UNITS)
    assert metrics["colorcore.validate_busy_s"] > 0
    # start-up is reported apart from the layers, not attributed to them
    assert 0 < metrics["trace.startup_frac"]
    assert 0 < metrics["trace.attributed_frac"]
    assert metrics["trace.startup_frac"] + metrics["trace.attributed_frac"] < 1


def test_metric_tables_name_wrapped_callables(skewci_on_path):
    """A renamed skewci callable must not silently drop out of a metric."""
    t = tracer.Tracer().install()
    wrapped = set()
    for owner, attr, _original in t._patches:
        if inspect.ismodule(owner):
            wrapped.add(f"{owner.__name__.split('.')[-1]}.{attr}")
        else:
            wrapped.add(f"{owner.__module__.split('.')[-1]}."
                        f"{owner.__qualname__}.{attr}")
    t.restore()
    named = set(tracer.HOOKS) | set(tracer.SCOPES)
    for names in tracer.CALL_METRICS.values():
        named |= set(names)
    assert named <= wrapped, named - wrapped
    with open(BENCH.parent / "BENCHMARK.json") as handle:
        listed = [m["name"] for m in json.load(handle)["per_layer"]]
    assert listed == list(tracer.PER_LAYER_UNITS)


def test_install_patches_every_binding(skewci_on_path):
    from skewci import linalg, operators

    original = linalg.kernel_basis
    t = tracer.Tracer().install()
    try:
        assert linalg.kernel_basis is not original
        assert operators.kernel_basis is linalg.kernel_basis
        assert linalg.kernel_basis.__wrapped__ is original
    finally:
        t.restore()
    assert linalg.kernel_basis is original
    assert operators.kernel_basis is original
