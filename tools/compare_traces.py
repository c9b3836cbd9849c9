"""Check that two checkouts produce byte-identical run artifacts at seed 7.

    python3 tools/compare_traces.py BASE CHANGE

BASE and CHANGE are checkouts of this repository.  Each run is an ``abcsmc
run`` at seed 7: the presets with overrides of ``PRESET_RUNS``, then the
benchmark's workload configs, read from ``perfbench/workloads.py`` next to
this tool.  Between them they reach every ladder, kernel and M refresh, the
stall push of ``on_stall="advance"``, a large M whose one simulator call
streams blocks that a particle's datasets span, and both paths of
``distance_batch``:
statistics shorter than 8 entries (among them an ``lp`` distance with
p = 3) and one of 9 entries.  Each is made once per checkout in a child
process that imports the package from that checkout's ``src``.  A run
counts as identical only if both sides exit 0, both write ``trace.csv``,
and both write the same files with the same bytes, except
``summary.json``'s ``wall_time_s``.  One line is printed per run; under a
run that differs, a second line gives its ``status``, ``steps``,
``lambda_final``, ``m_final`` and ``sim_calls`` as base -> change
(``SHIFT_FIELDS``), so a change that moves the random stream on purpose
shows what each run spent and the M it ended at.

The runs of ``PINNED_RUNS`` (the moment statistic of ``mixture-adaptive-m``
and the indicator statistic of ``exp3``) then run once more per checkout, in
a child pinned to one CPU (``os.sched_setaffinity`` in the child only), where
the mixture's helper thread shares that CPU with the calling thread; each
side's pinned run must write the same bytes as its own unpinned run, so the line holds also for a change that
moves the random stream on purpose.  Where the platform has no
``sched_setaffinity`` these lines read ``skipped``.

Then ``abcsmc experiment NAME --seeds 7`` runs once per checkout for every
experiment (``EXPERIMENTS``: exp1, exp2, exp3 and the two toy studies),
shrunk by ``EXPERIMENT_OVERRIDES``, and every CSV it writes is compared byte
for byte: one line per file, with the largest relative difference of its
numeric cells when the two files differ in numbers only.

The exit code is 1 if any run, experiment or CSV is not identical, else 0.
The run directories are kept, and their path printed, only then.

A change that claims to keep the sampler's arithmetic bit for bit should
pass this against its parent commit; a change that alters the random stream
or the ladder on purpose shows here which runs it moved.
"""

from __future__ import annotations

import csv
import importlib.util
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 7
ROOT = Path(__file__).resolve().parents[1]

# (name, preset, overrides): every ladder, kernel and M refresh the presets reach
PRESET_RUNS = [
    ("toy-discrete", "toy-discrete", []),
    # the enumerable model on the eps ladder: its summary.json carries the TV to the uniform-kernel posterior
    (
        "toy-discrete-uniform",
        "toy-discrete",
        ['smc.kernel="uniform"', "smc.eps_target=1", "smc.lambda_target=null", 'smc.on_stall="stop"'],
    ),
    # atoms out of sorted order, and a zero outcome probability, which gives tied dataset CDF entries
    (
        "toy-discrete-unsorted",
        "toy-discrete",
        [
            "model.theta_values=[3.0,0.0,4.0,1.0,2.0]",
            "model.obs_probs=[[0.7,0.3,0.0],[0.45,0.35,0.2],[0.25,0.5,0.25],[0.15,0.35,0.5],[0.05,0.25,0.7]]",
        ],
    ),
    ("toy-quadrature", "toy-quadrature", []),
    (
        "toy-quadrature-uniform",
        "toy-quadrature",
        ['smc.kernel="uniform"', "smc.eps_target=0.05", "smc.lambda_target=null"],
    ),
    ("exp2", "exp2", []),
    # the IS refresh can stall the ladder; "stop" ends the run there with exit 0 and keeps its trace
    ("exp2-is", "exp2", ['smc.m_change="is"', 'smc.on_stall="stop"']),
    # "advance" pushes lambda by half past such a stall and keeps the weights (steps 12-14 at seed 7)
    ("exp2-is-advance", "exp2", ['smc.m_change="is"', 'smc.on_stall="advance"']),
    ("exp3", "exp3", []),
    # the two paths of distance_batch: a power p other than 1 and 2 on the column adds of a
    # 3-entry statistic, and a statistic of 8 or more entries on the one-shot reduction
    ("toy-discrete-p3", "toy-discrete", ["distance.p=3"]),
    (
        "exp3-nine-thresholds",
        "exp3",
        ["summary.thresholds=[-3.0,-2.25,-1.5,-0.75,0.0,0.75,1.5,2.25,3.0]", "bound.m=9"],
    ),
    ("exp1-lambda4", "exp1", ["smc.lambda_target=4"]),
    # a large M: each simulate_distances call at M=2300 is one mixture call of up to 100 x 2300
    # datasets, streamed through the statistic in blocks of 728 that a particle's datasets span
    ("exp1-large-m", "exp1", ["smc.n_particles=100", 'smc.m_schedule={"1": 2300, "2": 8}']),
]


def benchmark_workloads() -> dict:
    """The benchmark's workloads by name, from ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


def runs(work: Path) -> list[tuple[str, list[str]]]:
    """Every run as (name, ``abcsmc run`` arguments); workload configs are written to ``work``."""
    out = []
    for name, preset, overrides in PRESET_RUNS:
        args = ["--preset", preset]
        for item in overrides:
            args += ["--override", item]
        out.append((name, args))
    for name, workload in benchmark_workloads().items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(workload.config))
        out.append((name, ["--config", str(path)]))
    return out


# every experiment, shrunk from minutes to seconds
EXPERIMENTS = ["exp1", "exp2", "exp3", "toy-discrete", "toy-quadrature"]
EXPERIMENT_OVERRIDES = ["smc.n_particles=300", "smc.lambda_target=4", "smc.m_max=16", "smc.mcmc_steps=2"]


# the runs made again on one CPU, which the helper thread shares: both mixture statistics
PINNED_RUNS = ["mixture-adaptive-m", "exp3"]


def cli_once(checkout: Path, argv: list[str], out: Path, one_cpu: bool = False) -> tuple[int, float]:
    """One ``abcsmc`` command against the package in ``checkout``; returns (exit code, seconds).

    With ``one_cpu`` the child is pinned to the lowest CPU it may run on.
    """
    cmd = [sys.executable, "-m", "abcsmc.cli", *argv, "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    pin = None
    if one_cpu:
        cpu = min(os.sched_getaffinity(0))

        def pin():  # runs in the child, between fork and exec
            os.sched_setaffinity(0, {cpu})

    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=out.parent, capture_output=True, text=True, preexec_fn=pin)
    return proc.returncode, time.perf_counter() - t0


def artifact(path: Path) -> bytes | str:
    """A file's bytes; for ``summary.json`` its JSON text without the wall clock.

    The JSON is re-serialised rather than compared as a dict, so that a NaN
    in the report equals the NaN on the other side.
    """
    if path.name != "summary.json":
        return path.read_bytes()
    doc = json.loads(path.read_text())
    doc.pop("wall_time_s", None)
    return json.dumps(doc, sort_keys=True)


def differences(base: Path, change: Path) -> list[str]:
    """Names of the files that differ between two run directories (or exist in only one)."""
    names = sorted({p.name for p in base.glob("*")} | {p.name for p in change.glob("*")})
    out = []
    for name in names:
        a, b = base / name, change / name
        if not (a.is_file() and b.is_file()) or artifact(a) != artifact(b):
            out.append(name)
    return out


def csv_verdict(a: Path, b: Path) -> str:
    """"same" for identical files; else how they differ, with the largest
    relative difference of the numeric cells when only numbers differ."""
    if not (a.is_file() and b.is_file()):
        return "MISSING " + ("change" if a.is_file() else "base")
    if a.read_bytes() == b.read_bytes():
        return "same"
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return "DIFFER in shape"
    worst = 0.0
    for x, y in zip(itertools.chain(*rows_a), itertools.chain(*rows_b)):
        if x != y:
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                return "DIFFER in text"
            if fx != fy:  # not "1.0" against "1"
                worst = max(worst, abs(fx - fy) / max(abs(fx), abs(fy)))
    return f"DIFFER max rel {worst:.1e}"


def verdict(codes: dict[str, int], base: Path, change: Path) -> str:
    """Return "same" for an identical pair of successful runs, else what went wrong."""
    if codes["base"] != 0 or codes["change"] != 0:
        return f"FAILED exit {codes['base']} / {codes['change']}"
    missing = [side for side, out in (("base", base), ("change", change)) if not (out / "trace.csv").is_file()]
    if missing:
        return f"FAILED no trace.csv ({', '.join(missing)})"
    diff = differences(base, change)
    return f"DIFFER {', '.join(diff)}" if diff else "same"


# summary.json fields shown, base -> change, under a run that differs
SHIFT_FIELDS = ["status", "steps", "lambda_final", "m_final", "sim_calls"]


def shift(base: Path, change: Path) -> str | None:
    """``SHIFT_FIELDS`` of both sides' ``summary.json`` as "field base -> change", or None without both files."""
    docs = []
    for out in (base, change):
        path = out / "summary.json"
        if not path.is_file():
            return None
        docs.append(json.loads(path.read_text()))
    return "  ".join(f"{key} {docs[0].get(key)} -> {docs[1].get(key)}" for key in SHIFT_FIELDS)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit("usage: compare_traces.py BASE CHANGE  (two checkouts of this repository)")
    checkouts = {}
    for side, tree in zip(("base", "change"), argv):
        checkouts[side] = Path(tree).resolve()
        if not (checkouts[side] / "src" / "abcsmc" / "__init__.py").is_file():
            raise SystemExit(f"error: no src/abcsmc package in {tree}")

    work = Path(tempfile.mkdtemp(prefix="compare_traces_"))
    all_runs = runs(work)
    failed = 0
    for name, args in all_runs:
        codes, secs = {}, {}
        for side, checkout in checkouts.items():
            out = work / side / name
            out.mkdir(parents=True)
            codes[side], secs[side] = cli_once(checkout, ["run", *args, "--seed", str(SEED)], out)
        result = verdict(codes, work / "base" / name, work / "change" / name)
        failed += result != "same"
        print(
            f"{result:<24} {name:<24} base {secs['base']:.1f} s  change {secs['change']:.1f} s",
            flush=True,
        )
        if result != "same" and (moved := shift(work / "base" / name, work / "change" / name)):
            print(f"{'':<24} {moved}", flush=True)
    print(f"{len(all_runs) - failed}/{len(all_runs)} runs identical at seed {SEED}")

    for name, args in (run for run in all_runs if run[0] in PINNED_RUNS):
        pinned = f"{name}-1cpu"
        if not hasattr(os, "sched_setaffinity"):
            print(f"{'skipped':<24} {pinned}", flush=True)
            continue
        codes, secs = {}, {}
        for side, checkout in checkouts.items():
            out = work / side / pinned
            out.mkdir(parents=True)
            codes[side], secs[side] = cli_once(checkout, ["run", *args, "--seed", str(SEED)], out, one_cpu=True)
        result = verdict(codes, work / "base" / name, work / "base" / pinned)
        if result == "same":
            result = verdict(codes, work / "change" / name, work / "change" / pinned)
        failed += result != "same"
        print(
            f"{result:<24} {pinned:<24} base {secs['base']:.1f} s  change {secs['change']:.1f} s",
            flush=True,
        )

    n_files = same_files = 0
    for name in EXPERIMENTS:
        argv = ["experiment", name, "--seeds", str(SEED)]
        for item in EXPERIMENT_OVERRIDES:
            argv += ["--override", item]
        codes = {}
        for side, checkout in checkouts.items():
            codes[side], _ = cli_once(checkout, argv, work / side / f"experiment-{name}")
        if codes["base"] != 0 or codes["change"] != 0:
            failed += 1
            print(f"FAILED exit {codes['base']} / {codes['change']}  experiment {name}", flush=True)
            continue
        base, change = work / "base" / f"experiment-{name}", work / "change" / f"experiment-{name}"
        files = sorted({p.relative_to(d) for d in (base, change) for p in d.rglob("*.csv")})
        for rel in files:
            result = csv_verdict(base / rel, change / rel)
            n_files += 1
            same_files += result == "same"
            print(f"{result:<24} {name}/{rel}", flush=True)
    failed += n_files - same_files
    print(f"{same_files}/{n_files} experiment CSVs identical at seed {SEED}")
    if failed:
        print(f"run directories kept in {work}")
        return 1
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
