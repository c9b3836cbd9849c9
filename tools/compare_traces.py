"""Check that two checkouts produce byte-identical run artifacts at seed 7.

    python3 tools/compare_traces.py BASE CHANGE

BASE and CHANGE are checkouts of this repository.  Each run of ``RUNS`` is an
``abcsmc run`` of a preset with overrides at seed 7, made once per checkout in
a child process that imports the package from that checkout's ``src``.  A run
counts as identical only if both sides exit 0, both write ``trace.csv``, and
both write the same files with the same bytes, except ``summary.json``'s
``wall_time_s``.  One line is printed per run; the exit code is 1 if any run
is not identical, else 0.  The run directories are kept, and their path
printed, only when some run is not identical.

A change that claims to keep the sampler's arithmetic bit for bit should
pass this against its parent commit; a change that alters the random stream
or the ladder on purpose shows here which runs it moved.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 7

# (name, preset, overrides): every ladder, kernel and M refresh the presets reach
RUNS = [
    ("toy-discrete", "toy-discrete", []),
    ("toy-quadrature", "toy-quadrature", []),
    (
        "toy-quadrature-uniform",
        "toy-quadrature",
        ['smc.kernel="uniform"', "smc.eps_target=0.05", "smc.lambda_target=null"],
    ),
    ("exp2", "exp2", []),
    # the IS refresh can stall the ladder; "stop" ends the run there with exit 0 and keeps its trace
    ("exp2-is", "exp2", ['smc.m_change="is"', 'smc.on_stall="stop"']),
    ("exp3", "exp3", []),
    ("exp1-lambda4", "exp1", ["smc.lambda_target=4"]),
]


def run_once(checkout: Path, preset: str, overrides: list[str], out: Path) -> tuple[int, float]:
    """One ``abcsmc run`` against the package in ``checkout``; returns (exit code, seconds)."""
    cmd = [sys.executable, "-m", "abcsmc.cli", "run", "--preset", preset, "--seed", str(SEED), "--out", str(out)]
    for item in overrides:
        cmd += ["--override", item]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=out.parent, capture_output=True, text=True)
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


def verdict(codes: dict[str, int], base: Path, change: Path) -> str:
    """Return "same" for an identical pair of successful runs, else what went wrong."""
    if codes["base"] != 0 or codes["change"] != 0:
        return f"FAILED exit {codes['base']} / {codes['change']}"
    missing = [side for side, out in (("base", base), ("change", change)) if not (out / "trace.csv").is_file()]
    if missing:
        return f"FAILED no trace.csv ({', '.join(missing)})"
    diff = differences(base, change)
    return f"DIFFER {', '.join(diff)}" if diff else "same"


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
    failed = 0
    for name, preset, overrides in RUNS:
        codes, secs = {}, {}
        for side, checkout in checkouts.items():
            out = work / side / name
            out.mkdir(parents=True)
            codes[side], secs[side] = run_once(checkout, preset, overrides, out)
        result = verdict(codes, work / "base" / name, work / "change" / name)
        failed += result != "same"
        print(
            f"{result:<24} {name:<24} base {secs['base']:.1f} s  change {secs['change']:.1f} s",
            flush=True,
        )
    print(f"{len(RUNS) - failed}/{len(RUNS)} runs identical at seed {SEED}")
    if failed:
        print(f"run directories kept in {work}")
        return 1
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
