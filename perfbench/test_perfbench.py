"""Tests of the benchmark itself.

    python3 -m pytest perfbench

One input of every workload runs untraced and traced in child processes;
the tests check that tracing does not perturb the sampler, that every
layer's span fires, that each workload stresses the layers it was chosen
for, and that the oracles pass good runs and reject damaged ones.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run
from spans import layer_metrics, span_totals
from workloads import WORKLOADS

SPANS = {
    "models.simulate_batch",
    "statistics.summarize_batch",
    "statistics.distance_batch",
    "smc.simulate_distances",
    "smc.select",
    "smc.resample",
    "smc.driver",
    "mcmc.rejuvenate",
    "mcmc.calibrate",
    "madapt.refresh",
    "bounds.report",
    "cli.setup",
    "cli.artifacts",
}
# The discrete toy proposes uniformly over its atoms, so it never calibrates a
# random walk; only the mixture adapts M.
SILENT = {
    "discrete-wide": {"mcmc.calibrate", "madapt.refresh"},
    "gaussian-uniform": {"madapt.refresh"},
    "mixture-adaptive-m": set(),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: (config, untraced run, its directory, traced run, its directory)."""
    out = {}
    deadline = time.monotonic() + 600.0
    for name, workload in WORKLOADS.items():
        base = tmp_path_factory.mktemp(name)
        cfg = workload.config
        plain = run.operation(workload, cfg, 0, base / "plain", False, deadline)
        traced = run.operation(workload, cfg, 0, base / "traced", True, deadline)
        out[name] = (cfg, plain, base / "plain", traced, base / "traced")
    return out


def test_benchmark_json_names_match_the_harness():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.UNITS
    fake_run = {"rungs": 1, "lambda_final": 1.0, "m_final": 1, "sim_calls": 1}
    names = [*layer_metrics([], fake_run), "bench.trace_overhead_s"]
    assert [m["name"] for m in doc["per_layer"]] == names


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_runs_pass_their_oracle(runs, name):
    _, plain, _, traced, _ = runs[name]
    assert plain["problems"] == []
    assert traced["problems"] == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_leaves_trace_csv_byte_identical(runs, name):
    _, _, plain_dir, _, traced_dir = runs[name]
    assert (plain_dir / "trace.csv").read_bytes() == (traced_dir / "trace.csv").read_bytes()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_layer_span_fires(runs, name):
    _, _, _, traced, _ = runs[name]
    fired = {s[0] for s in traced["spans"]}
    assert fired == SPANS - SILENT[name]


def _sim_and_summary_share(traced) -> float:
    totals = span_totals(traced["spans"])
    busy = totals["models.simulate_batch"]["self_s"] + totals["statistics.summarize_batch"]["self_s"]
    return busy / traced["wall_s"]


def test_mixture_is_simulation_bound(runs):
    assert _sim_and_summary_share(runs["mixture-adaptive-m"][3]) >= 0.9


def test_discrete_is_not_simulation_bound(runs):
    assert _sim_and_summary_share(runs["discrete-wide"][3]) <= 0.5


def test_layer_counts_are_consistent(runs):
    for name, (_, _, _, traced, _) in runs.items():
        m = layer_metrics(traced["spans"], traced)
        assert m["smc.sim_calls.init"] == WORKLOADS[name].config["smc"]["n_particles"]
        assert m["models.simulate_batch.calls"] >= m["smc.simulate_distances.chunks"] > 0
        assert 0.0 < m["mcmc.rejuvenate.accept_ratio"] < 1.0
    mixture = layer_metrics(runs["mixture-adaptive-m"][3]["spans"], runs["mixture-adaptive-m"][3])
    assert mixture["madapt.refresh.calls"] == 5  # M goes 1 -> 2 -> 4 -> 8 -> 256 -> 8
    assert mixture["smc.m_final"] == 8
    assert mixture["smc.simulate_distances.chunks"] == mixture["models.simulate_batch.calls"]


def test_setup_is_sampled_beyond_the_run(runs):
    for _, plain, _, _, _ in runs.values():
        assert len(plain["setup_samples"]) == 1 + run.SETUP_SAMPLES
        assert all(0.0 < t < 10.0 for t in plain["setup_samples"])


def test_oracles_reject_damaged_runs(runs, tmp_path):
    cfg, _, plain_dir, _, _ = runs["gaussian-uniform"]
    bad = shutil.copytree(plain_dir, tmp_path / "log_z")
    summary = json.loads((bad / "summary.json").read_text())
    summary["log_z"] += 0.5
    (bad / "summary.json").write_text(json.dumps(summary))
    assert any("log Z - exact" in p for p in WORKLOADS["gaussian-uniform"].check(cfg, bad))

    cfg, _, plain_dir, _, _ = runs["discrete-wide"]
    bad = shutil.copytree(plain_dir, tmp_path / "weights")
    particles = dict(np.load(bad / "particles.npz"))
    theta = particles["theta"][:, 0]
    log_w = np.where(theta == theta.max(), 0.0, -np.inf)  # all mass on one atom
    particles["log_weights"] = log_w - np.log(np.exp(log_w).sum())
    np.savez(bad / "particles.npz", **particles)
    assert any("TV to enumeration" in p for p in WORKLOADS["discrete-wide"].check(cfg, bad))

    cfg, _, plain_dir, _, _ = runs["mixture-adaptive-m"]
    bad = shutil.copytree(plain_dir, tmp_path / "ladder")
    rows = (bad / "trace.csv").read_text().splitlines()
    (bad / "trace.csv").write_text("\n".join(rows[:-1]) + "\n")  # ends short of the target
    assert any("ladder ends at" in p for p in WORKLOADS["mixture-adaptive-m"].check(cfg, bad))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "discrete-wide", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
