"""One benchmark operation in a fresh process: ``abcsmc run --config``.

    python3 perfbench/child.py --config CFG.json --seed N --out DIR [--trace 1]
    python3 perfbench/child.py --config CFG.json --seed N --out DIR --setup-only
    python3 perfbench/child.py --warmup

Calls the CLI's own entry point, ``abcsmc.cli.main(["run", ...])``.  The
``run_smc`` it calls is wrapped to stamp the moment sampling starts and to
keep the final particle system; nothing else of the CLI is replaced.  The
child prints one JSON line: the monotonic time at which sampling could
start, the wall time from the sampler call to the CLI's return (artifacts
written), peak RSS and the run's outcome, plus its spans when traced.  The
final particles go to ``particles.npz`` after the clock stops, for the
oracle checks.

With ``--setup-only`` the child stops at the sampler call and prints only
the ready time, so set-up can be sampled more often than whole runs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from abcsmc import cli  # noqa: E402


class _Ready(Exception):
    """Raised at the sampler call of a set-up-only child."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="stop when sampling could start")
    parser.add_argument("--warmup", action="store_true", help="import the package and exit")
    args = parser.parse_args(argv)
    if args.warmup:
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    sample, tracer = cli.run_smc, None
    if args.trace:
        from spans import Tracer, install

        tracer = Tracer()
        sample = install(tracer)
    seen = {}

    def run_smc(smc_cfg, model, summary, dist_spec, observations, *rest, **kwargs):
        seen["ready"] = time.monotonic()
        if args.setup_only:
            raise _Ready
        seen["observations"] = observations
        seen["t0"] = time.perf_counter()
        seen["system"], seen["trace"] = sample(smc_cfg, model, summary, dist_spec, observations, *rest, **kwargs)
        return seen["system"], seen["trace"]

    cli.run_smc = run_smc
    try:
        code = cli.main(["run", "--config", args.config, "--seed", str(args.seed), "--out", args.out])
    except _Ready:
        print(json.dumps({"ready": seen["ready"]}))
        return 0
    end = time.perf_counter()
    if code != 0:
        return code
    wall = end - seen["t0"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    system, trace = seen["system"], seen["trace"]
    np.savez(
        Path(args.out) / "particles.npz",
        theta=system.theta,
        log_weights=system.log_weights,
        observations=seen["observations"],
    )
    result = {
        "ready": seen["ready"],
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "status": trace.status,
        "rungs": len(trace),
        "lambda_final": system.lam,
        "m_final": system.m_replicates,
        "sim_calls": system.sim_calls,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
