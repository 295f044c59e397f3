#!/usr/bin/env python3
"""skewci benchmark: run one workload of CLI jobs, check every answer, and
print its metrics.

    python3 bench/run.py --workload theta_batch --seed 1 --seconds 40 --trace 0

Load is a closed loop with one client: each job is a fresh
``skewci --config JOB --cache DIR`` process, one at a time.  A pass runs the
workload's job list once.  A round is a cold pass against an empty cache
directory followed by a warm pass against the directory the cold pass
filled.  Rounds repeat until the next one would end after ``--seconds``;
every time metric is the median over rounds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each round
as an untraced cold pass plus a traced cold and warm pass (jobs started
through ``tracer.py``), prints the per-layer metrics, and writes the spans
of every traced job to ``.bench_work/trace-WORKLOAD.jsonl``.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit status is 1 when an answer differs from its
reference in ``references.json``, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 25
JOB_TIMEOUT_S = 150

END_TO_END_UNITS = {"cold_pass_s": "s", "warm_pass_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class Job:
    def __init__(self, jid, cfg, path, reference):
        self.id = jid
        self.path = path
        self.reference = reference
        self.c = len(cfg["ring"]["relations"])


class Pass:
    """Outcome of one pass over a job list."""

    def __init__(self):
        self.seconds = 0.0       # wall time of the jobs with a checked answer
        self.answered = 0
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0
        self.wrong = []          # (job id, problems)
        self.reports = []
        self.traces = []         # (job wall seconds, trace document)

    @property
    def time(self):
        return self.seconds if self.answered else None


class Runner:
    def __init__(self, workload, seed, work):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)
        with open(BENCH / "references.json") as handle:
            references = json.load(handle)
        generated, perms = workloads.generate(workload, seed)
        (work / "jobs").mkdir(parents=True)
        self.jobs = [self._job(i, jid, cfg, references[jid])
                     for i, (jid, cfg) in enumerate(generated)]
        ring = workloads.first_ring(workload)
        self.setup_job = self._job(
            "setup", f"{ring}:check",
            workloads.check_config(ring, perms[ring]),
            references[f"{ring}:check"])
        self.counter = 0

    def _job(self, index, jid, cfg, reference):
        path = self.work / "jobs" / f"{index}.json"
        path.write_text(json.dumps(cfg, sort_keys=True))
        return Job(jid, cfg, path, reference)

    def run_job(self, job, cache, result, traced=False):
        """Run one job process and fold its outcome into ``result``.

        Returns the job's wall time, or None when it crashed.
        """
        self.counter += 1
        report = self.work / f"report-{self.counter}.json"
        spans = self.work / f"trace-{self.counter}.json"
        err_path = self.work / "stderr.txt"
        args = ["--config", str(job.path), "--cache", str(cache),
                "--out", str(report)]
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            if traced:
                cmd = [sys.executable, str(BENCH / "tracer.py"), "--out",
                       str(spans), "--job", f"{self.counter}:{job.id}",
                       "--launched", repr(start), "--"] + args
            else:
                cmd = [sys.executable, "-m", "skewci.cli"] + args
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr_text = err_path.read_text(errors="replace")
        result.attempted += 1
        result.peak_rss_kb = max(result.peak_rss_kb, usage.ru_maxrss)
        if check.crashed(proc.returncode, stderr_text):
            result.failed += 1
            last = stderr_text.strip().splitlines()[-1:] or ["no stderr"]
            print(f"  job {job.id} failed: {last[0]}", file=sys.stderr)
            return
        doc = None
        if report.exists():
            doc = json.loads(report.read_text())
            report.unlink()
        problems = check.check_answer(proc.returncode, doc, job.reference,
                                      job.c)
        if problems:
            result.wrong.append((job.id, problems))
        result.answered += 1
        result.seconds += wall
        if doc is not None:
            result.reports.append(doc)
        if traced and spans.exists():
            result.traces.append((wall, spans.read_text()))
            spans.unlink()
        return wall

    def run_pass(self, cache, traced=False):
        result = Pass()
        for job in self.jobs:
            self.run_job(job, cache, result, traced)
        return result

    def fresh_cache(self):
        self.counter += 1
        path = self.work / f"cache-{self.counter}"
        path.mkdir()
        return path

    def rounds(self, seconds, one_round):
        """Call one_round until the next call would end past ``seconds``."""
        start = time.perf_counter()
        done = []
        while True:
            done.append(one_round())
            times = ", ".join("crashed" if p.time is None else f"{p.time:.3f}"
                              for p in done[-1])
            print(f"  round {len(done)}: pass seconds {times}",
                  file=sys.stderr)
            if any(p.wrong for p in done[-1]):
                break
            elapsed = time.perf_counter() - start
            if elapsed * (len(done) + 1) / len(done) > seconds:
                break
        return done


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, seconds):
    """Set-up time, then rounds of cold and warm passes."""
    setup = Pass()
    walls = [runner.run_job(runner.setup_job, runner.fresh_cache(), setup)
             for _ in range(SETUP_REPEATS)]

    def one_round():
        cache = runner.fresh_cache()
        return runner.run_pass(cache), runner.run_pass(cache)

    rounds = runner.rounds(seconds, one_round)
    passes = [p for r in rounds for p in r]
    metrics = {
        "cold_pass_s": _median(cold.time for cold, _ in rounds),
        "warm_pass_s": _median(warm.time for _, warm in rounds),
        "peak_rss_mb": _median(p.peak_rss_kb / 1024 for p in passes),
        "setup_s": _median(walls),
    }
    metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    samples = {"cold_pass_s": len(rounds), "warm_pass_s": len(rounds),
               "peak_rss_mb": len(passes), "setup_s": SETUP_REPEATS}
    return passes, setup.wrong, metrics, samples


def per_layer(runner, seconds):
    """Rounds of an untraced cold pass and a traced cold and warm pass."""

    def one_round():
        plain = runner.run_pass(runner.fresh_cache())
        cache = runner.fresh_cache()
        return (plain, runner.run_pass(cache, traced=True),
                runner.run_pass(cache, traced=True))

    rounds = runner.rounds(seconds, one_round)
    per_round = [tracer.layer_metrics([cold, warm])
                 for _, cold, warm in rounds]
    metrics = {}
    for name, unit in tracer.PER_LAYER_UNITS.items():
        if name == "trace.overhead_frac":
            plain = _median(p.time for p, _, _ in rounds)
            cold = _median(c.time for _, c, _ in rounds)
            value = cold / plain - 1 if plain and cold else None
        else:
            value = _median(m.get(name) for m in per_round)
        metrics[name] = _metric(value, unit)
    samples = {name: len(rounds) for name in metrics}
    return [p for r in rounds for p in r], [], metrics, samples


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one skewci benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "skewci" / "cli.py").is_file():
        print(f"error: skewci sources not found under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        runner = Runner(args.workload, args.seed, work)
        measure = per_layer if args.trace else end_to_end
        passes, wrong, metrics, samples = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    trace_path = work.parent / f"trace-{args.workload}.jsonl"
    if args.trace:
        # one trace document per traced job of the run, the latest run only
        with open(trace_path, "w") as handle:
            for p in passes:
                for _wall, text in p.traces:
                    handle.write(text)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wrong += [w for p in passes for w in p.wrong]
    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}: {len(runner.jobs)} jobs per pass")
    for name, metric in metrics.items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name} = {shown} {metric['unit']}  "
              f"(median of {samples[name]})")
    print(f"  fail_frac = {failed / max(attempted, 1):.6g} ratio  "
          f"({failed} of {attempted} jobs)")
    if args.trace:
        print(f"  spans of every traced job: {trace_path.relative_to(ROOT)}")
    for jid, problems in wrong:
        print(f"WRONG ANSWER {jid}: " + "; ".join(problems), file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
