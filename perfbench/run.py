"""abcsmc benchmark: time to a fixed ladder target, one run at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the root of a source checkout; the package is imported from
``src/``.  Each operation is one complete sampler run of the workload in a
fresh child process (``child.py``), started only after the previous one has
ended (a closed loop with one client).  Runs go on, each on the next input
of the seed (see ``workloads.py``), until ``--seconds`` have passed.  Every run's output
is checked against an oracle; a run that raises, ends with a status other
than ``ok`` or fails its check counts as failed.

With ``--trace 0`` the last line reports the end-to-end metrics, each the
median over the runs:

- ``wall_s``: from the sampler call to written artifacts;
- ``setup_s``: from child start to ready-to-sample (interpreter, imports,
  config and model build, observation draw), over the run's own set-up and
  that of ``SETUP_SAMPLES`` more children per run that stop there;
- ``peak_rss_mb``: the child's peak resident set size.

With ``--trace 1`` each input runs twice, untraced then with every layer's
entry point wrapped (``spans.py``); the two runs must write byte-identical
``trace.csv`` files, and the last line reports the per-layer metrics of the
traced runs plus ``bench.trace_overhead_s``, the traced minus the untraced
median wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import layer_metrics
from workloads import WORKLOADS, input_seed

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
WORK_DIR = ROOT / ".perfbench_work"
BLAS_THREADS = 1  # every layer is single-threaded numpy; one BLAS thread keeps runs steady
TIME_LIMIT_S = 170.0  # whole process, so the benchmark ends within 180 s
SETUP_SAMPLES = 3  # set-up-only children per untraced operation, so setup_s rests on more samples than wall_s

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def environment(args) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": BLAS_THREADS,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def child_env() -> dict:
    env = dict(os.environ)
    # users run from compiled modules; the warm-up child writes them once
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv, deadline: float) -> dict:
    """One child process; returns its result record, or one with an ``error``."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def operation(workload, cfg: dict, seed: int, run_dir: Path, traced: bool, deadline: float) -> dict:
    """One checked sampler run; ``problems`` lists why it failed, if it did.

    An untraced run is followed by ``SETUP_SAMPLES`` children that stop at the
    sampler call; ``setup_samples`` holds all of the operation's set-up times.
    """
    run_dir.mkdir(parents=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(cfg))
    argv = ["--config", str(config_path), "--seed", str(seed), "--out", str(run_dir)]
    result = run_child([*argv, "--trace", str(int(traced))], deadline)
    if "error" in result:
        result["problems"] = [result["error"]]
        return result
    result["problems"] = workload.check(cfg, run_dir)
    if not traced:
        result["setup_samples"] = [result["setup_s"]]
        for _ in range(SETUP_SAMPLES):
            extra = run_child([*argv, "--setup-only"], deadline)
            if "error" in extra:
                result["problems"].append(f"set-up-only child: {extra['error']}")
            else:
                result["setup_samples"].append(extra["setup_s"])
    return result


def measure(name: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    """Run one workload for ``seconds``; returns its result object."""
    workload = WORKLOADS[name]
    work = WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run_child(["--warmup"], deadline)  # compiled modules and page cache, which users do not pay per run

    plain, traced_runs, problems = [], [], []
    start = time.monotonic()
    i = 0
    while (i == 0 or time.monotonic() - start < seconds) and time.monotonic() < deadline:
        sub = input_seed(seed, i)
        cfg = workload.config
        run = operation(workload, cfg, sub, work / f"{i}-plain", False, deadline)
        plain.append(run)
        if not run["problems"]:
            print(f"  {name} input {sub}: wall {run['wall_s']:.4f} s, setup {run['setup_s']:.4f} s, "
                  f"{run['rungs']} rungs, {run['sim_calls']} simulator calls", flush=True)
        problems += [f"input {sub}: {p}" for p in run["problems"]]
        if traced:
            tr = operation(workload, cfg, sub, work / f"{i}-traced", True, deadline)
            traced_runs.append(tr)
            problems += [f"input {sub} (traced): {p}" for p in tr["problems"]]
            if not run["problems"] and not tr["problems"]:
                same = (work / f"{i}-plain" / "trace.csv").read_bytes() == (work / f"{i}-traced" / "trace.csv").read_bytes()
                if not same:
                    tr["problems"].append("traced trace.csv differs from the untraced one")
                    problems.append(f"input {sub}: traced trace.csv differs from the untraced one")
        shutil.rmtree(work / f"{i}-plain", ignore_errors=True)
        shutil.rmtree(work / f"{i}-traced", ignore_errors=True)
        i += 1
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_DIR.rmdir()
    except OSError:  # not empty: another invocation is using it
        pass

    runs = plain + traced_runs
    failed = sum(1 for r in runs if r["problems"])
    ok_plain = [r for r in plain if not r["problems"]]
    ok_traced = [r for r in traced_runs if not r["problems"]]
    metrics = {}
    if traced and ok_traced and ok_plain:
        per_run = [layer_metrics(r["spans"], r) for r in ok_traced]
        for key in per_run[0]:
            metrics[key] = statistics.median(m[key] for m in per_run)
        metrics["bench.trace_overhead_s"] = statistics.median(r["wall_s"] for r in ok_traced) - statistics.median(
            r["wall_s"] for r in ok_plain
        )
    elif not traced and ok_plain:
        metrics["wall_s"] = statistics.median(r["wall_s"] for r in ok_plain)
        metrics["setup_s"] = statistics.median(t for r in ok_plain for t in r["setup_samples"])
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in ok_plain)
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
    }


def units(traced: bool) -> dict:
    if not traced:
        return UNITS
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "abcsmc" / "__init__.py").is_file():
        print(f"error: no abcsmc sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args)), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unit_of = units(bool(args.trace))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = measure(name, args.seed, args.seconds, bool(args.trace), deadline)
        for problem in res.pop("problems"):
            print(f"FAILED {name}: {problem}", file=sys.stderr)
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}")
        for key, value in res["metrics"].items():
            print(f"  {key} = {value:.6g} {unit_of[key]}")
            full = key if len(names) == 1 else f"{name}.{key}"
            combined["metrics"][full] = {"value": value, "unit": unit_of[key]}
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
