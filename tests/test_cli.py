import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from abcsmc import cli
from abcsmc import config as cfgmod
from abcsmc.bounds import BoundConstants, corollary1_terms, empirical_bound, nonparametric_rate
from abcsmc.exceptions import LadderStallError


TOY_FAST = [
    "--override",
    "smc.n_particles=400",
    "--override",
    "smc.lambda_target=3.0",
]

UNIFORM = ["--override", 'smc.kernel="uniform"', "--override", "smc.lambda_target=null"]


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestRun:
    def test_preset_run_artifacts(self, tmp_path):
        out = tmp_path / "run"
        rc = cli.main(
            ["run", "--preset", "toy-discrete", *TOY_FAST, "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        rows = _read_csv(out / "trace.csv")
        assert rows[0][:6] == ["step", "lambda", "ess", "accept_rate", "M", "log_z"]
        assert len(rows) > 1
        report = json.loads((out / "summary.json").read_text())
        assert report["status"] == "ok"
        assert report["seed"] == 1
        assert report["lambda_final"] == 3.0
        assert report["steps"] == len(rows) - 1
        assert 0.0 <= report["tv_to_enumerated"] <= 1.0
        assert report["sim_calls"] > 0

    def test_config_file_run_with_snapshots(self, tmp_path):
        from abcsmc.config import preset

        cfg = preset("toy-discrete")
        cfg["smc"].update(n_particles=300, lambda_target=2.0, store_snapshots=True)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        snap = _read_csv(out / "snapshots.csv")
        assert snap[0][:3] == ["step", "particle", "weight"]
        assert len(snap) > 1

    def test_bound_fields_in_summary(self, tmp_path):
        out = tmp_path / "run"
        rc = cli.main(
            [
                "run",
                "--preset",
                "toy-quadrature",
                "--override",
                "smc.n_particles=500",
                "--override",
                "smc.lambda_target=5.0",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = json.loads((out / "summary.json").read_text())
        assert "empirical_bound" in report
        assert "lambda_hat" in report and 0 < report["lambda_hat"] <= 5.0

    def test_uniform_kernel_tv_is_to_the_uniform_posterior(self, tmp_path):
        # measured against the exponential kernel at lambda = eps, this read 0.063
        out = tmp_path / "run"
        argv = ["run", "--preset", "toy-discrete", *UNIFORM, "--override", "smc.eps_target=1"]
        argv += ["--override", "smc.n_particles=20000", "--override", 'smc.on_stall="stop"']
        assert cli.main([*argv, "--seed", "0", "--out", str(out)]) == 0
        report = json.loads((out / "summary.json").read_text())
        assert report["status"] == "ok" and report["lambda_final"] == 1.0
        assert report["tv_to_enumerated"] < 0.02

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_override_exit_2(self, tmp_path):
        rc = cli.main(
            ["run", "--preset", "toy-discrete", "--override", "oops", "--out", str(tmp_path)]
        )
        assert rc == 2

    def test_non_finite_observations_exit_2(self, tmp_path, capsys):
        from abcsmc.config import preset

        cfg = preset("toy-quadrature")
        del cfg["truth"]
        cfg["observations"] = [0.1, float("nan"), -0.4]
        cfg["smc"]["n_particles"] = 200
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_degenerate_run_exit_3(self, tmp_path, monkeypatch, capsys):
        def boom(*a, **k):
            raise LadderStallError("forced")

        monkeypatch.setattr(cli, "run_smc", boom)
        rc = cli.main(["run", "--preset", "toy-discrete", "--out", str(tmp_path)])
        assert rc == 3
        assert "degenerated" in capsys.readouterr().err

    def test_deterministic_trace_bytes(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert (
                cli.main(
                    ["run", "--preset", "toy-discrete", *TOY_FAST, "--seed", "5", "--out", str(out)]
                )
                == 0
            )
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace_src")
    rc = cli.main(
        [
            "run",
            "--preset",
            "toy-quadrature",
            "--override",
            "smc.n_particles=500",
            "--override",
            "smc.lambda_target=5.0",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return out / "trace.csv"


@pytest.fixture(scope="module")
def tail_trace(tmp_path_factory):
    """A trace whose top rung is selected and does not round-trip: 1/(1/lambda) != lambda.

    The observations lie in the prior's tail, so the averaged bound still
    falls at the top of the ladder.
    """
    out = tmp_path_factory.mktemp("tail_trace")
    argv = ["run", "--preset", "toy-quadrature", "--override", "smc.n_particles=500"]
    argv += ["--override", "smc.lambda_target=23.837827716870166", "--override", "truth.means=[4.0,0.0]"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out / "trace.csv"


@pytest.fixture(scope="module")
def eps_run(tmp_path_factory):
    """Directory of a short uniform-kernel (eps ladder) run with a bound section."""
    out = tmp_path_factory.mktemp("eps_run")
    argv = ["run", "--preset", "toy-quadrature", *UNIFORM, "--override", "smc.eps_target=0.05"]
    assert cli.main([*argv, "--override", "smc.n_particles=500", "--out", str(out)]) == 0
    return out


class TestBound:
    CONSTANTS = {"n": 50, "m": 1, "p": 2, "K": 1.0, "d": 1, "theta_var": 4.0, "eps": 0.05}

    def _constants_file(self, tmp_path, extra=None):
        doc = dict(self.CONSTANTS)
        doc.update(extra or {})
        path = tmp_path / "constants.json"
        path.write_text(json.dumps(doc))
        return path

    def test_empirical_mode_matches_library(self, tmp_path, small_trace):
        cpath = self._constants_file(tmp_path, {"distance_kind": "scaled_empirical_l2"})
        rc = cli.main(
            [
                "bound",
                "--trace",
                str(small_trace),
                "--constants",
                str(cpath),
                "--mode",
                "empirical",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        rows = _read_csv(tmp_path / "bound_empirical.csv")
        assert rows[0] == ["step", "lambda", "bound", "neg_log_z", "concentration", "confidence"]
        constants = BoundConstants(**self.CONSTANTS)
        from abcsmc.smc import load_trace_csv

        trace = load_trace_csv(small_trace)
        for row, rec in zip(rows[1:], trace.records):
            expected = empirical_bound(rec.log_z, rec.lam, constants, "scaled_empirical_l2")
            assert float(row[2]) == pytest.approx(expected.value, rel=1e-12)

    @pytest.mark.parametrize("trace_fixture", ["small_trace", "tail_trace"])
    def test_adaptive_mode_selects_on_ladder(self, tmp_path, trace_fixture, request):
        cpath = self._constants_file(tmp_path, {"distance_kind": "scaled_empirical_l2"})
        rc = cli.main(
            [
                "bound",
                "--trace",
                str(request.getfixturevalue(trace_fixture)),
                "--constants",
                str(cpath),
                "--mode",
                "adaptive",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        rows = _read_csv(tmp_path / "bound_adaptive.csv")
        assert rows[0] == ["beta", "lambda", "objective", "selected"]
        selected = [r for r in rows[1:] if r[3] == "1"]
        assert len(selected) == 1
        objectives = [float(r[2]) for r in rows[1:]]
        assert float(selected[0][2]) == pytest.approx(min(objectives), rel=1e-12)

    @pytest.mark.parametrize("mode", ["empirical", "adaptive"])
    def test_eps_ladder_exit_2(self, tmp_path, eps_run, mode, capsys):
        cpath = self._constants_file(tmp_path)
        argv = ["bound", "--trace", str(eps_run / "trace.csv"), "--constants", str(cpath), "--mode", mode]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 2
        assert "decreasing" in capsys.readouterr().err
        assert not (tmp_path / f"bound_{mode}.csv").exists()

    def test_adaptive_mode_requires_trace(self, tmp_path):
        cpath = self._constants_file(tmp_path)
        rc = cli.main(["bound", "--constants", str(cpath), "--mode", "adaptive", "--out", str(tmp_path)])
        assert rc == 2

    def test_cor1_mode(self, tmp_path):
        cpath = self._constants_file(tmp_path)
        rc = cli.main(["bound", "--constants", str(cpath), "--mode", "cor1", "--out", str(tmp_path)])
        assert rc == 0
        rows = _read_csv(tmp_path / "bound_cor1.csv")
        report = corollary1_terms(BoundConstants(**self.CONSTANTS))
        got = dict(zip(rows[0], rows[1]))
        assert float(got["value"]) == pytest.approx(report.value, rel=1e-12)
        assert float(got["lambda_star"]) == pytest.approx(report.lam_or_beta, rel=1e-12)
        for key, val in report.components.items():
            assert float(got[key]) == pytest.approx(val, rel=1e-12)

    def test_nonparam_mode(self, tmp_path):
        cpath = self._constants_file(tmp_path, {"beta_smooth": 2.0})
        rc = cli.main(
            ["bound", "--constants", str(cpath), "--mode", "nonparam", "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = _read_csv(tmp_path / "bound_nonparam.csv")
        r = nonparametric_rate(50, 2.0)
        got = dict(zip(rows[0], rows[1]))
        assert float(got["rate"]) == pytest.approx(r.rate, rel=1e-12)
        assert got["order_only"] == "True"

    def test_nonparam_needs_beta_smooth(self, tmp_path):
        cpath = self._constants_file(tmp_path)
        rc = cli.main(
            ["bound", "--constants", str(cpath), "--mode", "nonparam", "--out", str(tmp_path)]
        )
        assert rc == 2


def _run_override(preset, *overrides):
    return lambda tmp_path: ["run", "--preset", preset, *TOY_FAST, *(f"--override={o}" for o in overrides)]


def _run_config(edit):
    """``run --config`` on the toy-discrete preset as ``edit`` leaves it."""

    def argv(tmp_path):
        cfg = cfgmod.preset("toy-discrete")
        edit(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return ["run", "--config", str(path), *TOY_FAST]

    return argv


# a three-rung lambda ladder, enough for the adaptive mode's default grid
LADDER_CSV = """step,lambda,ess,accept_rate,M,log_z,theta_mean_1,theta_sd_1,ess_post_refresh
0,0.5,90,0.3,1,-0.2,0,1,100
1,2,90,0.3,1,-0.9,0,1,100
2,6,90,0.3,1,-2.1,0,1,100
"""


def _bound_constants(doc, mode="cor1", trace_csv=LADDER_CSV):
    def argv(tmp_path):
        path = tmp_path / "constants.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        trace = []
        if mode in ("empirical", "adaptive"):
            if trace_csv is not None:  # None: a trace file that does not exist
                (tmp_path / "trace.csv").write_text(trace_csv)
            trace = ["--trace", str(tmp_path / "trace.csv")]
        return ["bound", "--constants", str(path), "--mode", mode, *trace]

    return argv


# each bad input, and what its error message must name: the section and the key
BAD_INPUTS = {
    "smc-unknown-key": (_run_override("toy-discrete", "smc.bogus=1"), ["'smc'", "'bogus'"]),
    "model-unknown-key": (_run_override("toy-quadrature", "model.bogus=1"), ["'model'", "'bogus'"]),
    "summary-unknown-key": (_run_override("toy-discrete", "summary.bogus=1"), ["'summary'", "'bogus'"]),
    "distance-unknown-key": (_run_override("toy-discrete", "distance.bogus=1"), ["'distance'", "'bogus'"]),
    "truth-unknown-key": (_run_override("toy-quadrature", "truth.bogus=1"), ["'truth'", "'bogus'"]),
    "bound-unknown-key": (_run_override("toy-quadrature", "bound.bogus=1"), ["'bound'", "'bogus'"]),
    "smc-stale-lambda-max": (_run_override("toy-discrete", "smc.lambda_max=50"), ["'smc'", "'lambda_max'"]),
    # settings that became the constants every run uses
    "smc-stale-initial-m": (_run_override("toy-discrete", "smc.initial_m=2"), ["'smc'", "'initial_m'"]),
    "smc-stale-proposal-scale": (_run_override("toy-discrete", "smc.proposal_scale=0.5"), ["'smc'", "'proposal_scale'"]),
    "smc-stale-bisect-tol": (_run_override("toy-discrete", "smc.bisect_tol=0.001"), ["'smc'", "'bisect_tol'"]),
    "smc-stale-snapshot-max": (_run_override("toy-discrete", "smc.snapshot_max=3"), ["'smc'", "'snapshot_max'"]),
    "smc-tau-not-a-number": (_run_override("toy-discrete", 'smc.tau="x"'), ["'smc'", "'tau'"]),
    "bound-n-not-a-number": (_run_override("toy-quadrature", 'bound.n="x"'), ["'bound'", "'n'"]),
    "truth-n-not-a-number": (_run_override("toy-quadrature", 'truth.n="x"'), ["'truth'", "'n'"]),
    "smc-m-schedule-keys": (_run_override("toy-discrete", 'smc.m_schedule={"a":2}'), ["'smc'", "'m_schedule'"]),
    # an M below 1 cannot be drawn: trace.csv would record it while each particle keeps one replicate
    "smc-m-schedule-zero": (_run_override("toy-discrete", 'smc.m_schedule={"2":0}'), ["m_schedule", ">= 1"]),
    "smc-m-schedule-negative": (_run_override("toy-discrete", 'smc.m_schedule={"2":-1}'), ["m_schedule", ">= 1"]),
    "model-without-obs-probs": (_run_config(lambda cfg: cfg["model"].pop("obs_probs")), ["'model'", "'obs_probs'"]),
    # runs that would end before their first rung: no step allowed, or a budget the first draw spends
    "smc-max-steps-zero": (_run_override("toy-discrete", "smc.max_steps=0"), ["max_steps", ">= 1"]),
    "smc-max-steps-negative": (_run_override("toy-quadrature", "smc.max_steps=-1"), ["max_steps", ">= 1"]),
    "smc-sim-budget-at-n": (_run_override("toy-discrete", "smc.sim_budget=400"), ["sim_budget", "n_particles"]),
    "smc-sim-budget-below-n": (
        _run_override("toy-quadrature", "smc.sim_budget=10"), ["sim_budget", "n_particles"]
    ),
    # a ladder target the run cannot reach: it ran until max_steps
    "smc-lambda-target-infinite": (_run_override("toy-discrete", "smc.lambda_target=Infinity"), ["finite lambda_target"]),
    "smc-lambda-target-nan": (_run_override("toy-discrete", "smc.lambda_target=NaN"), ["finite lambda_target"]),
    "smc-eps-target-infinite": (
        _run_override("toy-discrete", 'smc.kernel="uniform"', "smc.eps_target=Infinity"), ["finite eps_target"]
    ),
    # a bound computed for a statistic of another dimension
    "bound-m-not-the-dimension": (_run_override("toy-quadrature", "bound.m=2"), ["'bound'", "'m'", "dimension 1"]),
    "bound-m-nine-thresholds": (
        _run_override("exp3", "summary.thresholds=[-3.0,-2.25,-1.5,-0.75,0.0,0.75,1.5,2.25,3.0]"),
        ["'bound'", "'m'", "dimension 9", "not 7"],
    ),
    "experiment-exp2-bound-m": (
        lambda tmp_path: ["experiment", "exp2", "--override", "bound.m=7"], ["'bound'", "'m'", "dimension 6"]
    ),
    # rows that sum to 1 but hold a negative entry: the likelihood table gets an entry of -0.24 at n=3
    "model-negative-obs-prob": (
        _run_override(
            "toy-discrete",
            "model.obs_probs=[[1.2,-0.2,0.0],[0.45,0.35,0.2],[0.25,0.5,0.25],[0.15,0.35,0.5],[0.05,0.25,0.7]]",
        ),
        ["likelihood entries", "nonnegative"],
    ),
    "model-negative-prior-weight": (
        _run_override("toy-discrete", "model.prior_weights=[0.5,-0.1,0.3,0.2,0.1]"), ["prior weights", "nonnegative"]
    ),
    "truth-not-an-object": (_run_override("toy-quadrature", "truth=[1]"), ["'truth'"]),
    "constants-unknown-key": (_bound_constants({**TestBound.CONSTANTS, "bogus": 1}), ["constants file", "'bogus'"]),
    "constants-array": (_bound_constants([1, 2]), ["constants file", "object"]),
    "constants-malformed-json": (_bound_constants('{"n": 50,'), ["constants.json:1"]),
    "nonparam-n-not-a-number": (
        _bound_constants({"n": "x", "beta_smooth": 2}, "nonparam"), ["constants file", "'n'"]
    ),
    "nonparam-beta-smooth-not-a-number": (
        _bound_constants({"n": 50, "beta_smooth": "y"}, "nonparam"), ["constants file", "'beta_smooth'"]
    ),
    # refused before the trace is read, in every mode
    **{
        f"adaptive-beta-grid-{name}": (
            _bound_constants({**TestBound.CONSTANTS, "beta_grid": grid}, "adaptive"),
            ["constants file", "'beta_grid'"],
        )
        for name, grid in [
            ("number", 0.5),
            ("string", ["x"]),
            ("negative", [0.5, -1.0]),
            ("boolean", [True]),
            ("infinite", [math.inf]),
        ]
    },
    "adaptive-beta-smooth-not-a-number": (
        _bound_constants({**TestBound.CONSTANTS, "beta_smooth": "y"}, "adaptive"),
        ["constants file", "'beta_smooth'"],
    ),
    # seeds numpy cannot take: the run and the experiment stop before they simulate
    "run-seed-negative": (
        lambda tmp_path: ["run", "--preset", "toy-discrete", *TOY_FAST, "--seed", "-1"], ["seed", ">= 0"]
    ),
    "experiment-seed-negative": (
        lambda tmp_path: ["experiment", "toy-discrete", "--seeds", "0,-1", *TOY_FAST], ["--seeds", ">= 0", "-1"]
    ),
    "experiment-seed-not-an-integer": (
        lambda tmp_path: ["experiment", "toy-discrete", "--seeds", "x"], ["--seeds", "'x'"]
    ),
    "cor1-beta-grid-number": (
        _bound_constants({**TestBound.CONSTANTS, "beta_grid": 0.5}), ["constants file", "'beta_grid'"]
    ),
    # an n_grid the study cannot run, refused before its first run
    **{
        f"experiment-exp2-n-grid-{name}": (
            lambda tmp_path, grid=grid: ["experiment", "exp2", "--override", f"n_grid={grid}"],
            ["n_grid", ">= 1"],
        )
        for name, grid in [
            ("string", '["x"]'), ("number", "5"), ("empty", "[]"), ("zero", "[0]"), ("boolean", "[true]")
        ]
    },
    # every command checks n_grid, not only the study that reads it
    "run-config-n-grid": (_run_config(lambda cfg: cfg.update(n_grid=[30, 0])), ["n_grid", ">= 1"]),
    "experiment-exp3-n-grid": (
        lambda tmp_path: ["experiment", "exp3", "--seeds", "7", "--override", 'n_grid="x"'], ["n_grid", ">= 1"]
    ),
    # refused inside the study's first run, after the command has read its seeds
    "experiment-exp1-unknown-key": (
        lambda tmp_path: ["experiment", "exp1", "--seeds", "7", "--override", "smc.bogus=1"], ["'smc'", "'bogus'"]
    ),
    # input files that cannot be read as such
    "trace-missing": (_bound_constants(TestBound.CONSTANTS, "empirical", None), ["No such file", "trace.csv"]),
    "trace-without-step-column": (
        _bound_constants(
            TestBound.CONSTANTS, "empirical", "\n".join(line.split(",", 1)[1] for line in LADDER_CSV.splitlines())
        ),
        ["trace.csv", "'step'"],
    ),
    "trace-cell-not-a-number": (
        _bound_constants(TestBound.CONSTANTS, "empirical", LADDER_CSV.replace("1,2,90", "1,2,x")), ["trace.csv:3"]
    ),
    "constants-a-directory": (
        lambda tmp_path: ["bound", "--constants", str(tmp_path), "--mode", "cor1"], ["Is a directory"]
    ),
    "config-a-directory": (lambda tmp_path: ["run", "--config", str(tmp_path)], ["Is a directory"]),
    "run-out-an-existing-file": (
        lambda tmp_path: (tmp_path / "out").write_text("") or ["run", "--preset", "toy-discrete", *TOY_FAST],
        ["File exists", "out"],
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_config_input_exits_2(case, tmp_path, capsys):
    argv, named = BAD_INPUTS[case]
    args, out = argv(tmp_path), tmp_path / "out"
    existing_file = out.exists()
    rc = cli.main([*args, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2, err
    for text in named:
        assert text in err
    # a refused command creates no output directory (and leaves a file named by --out as it was)
    assert out.is_file() if existing_file else not out.exists()


class TestExperiments:
    def test_toy_discrete_aggregate(self, tmp_path):
        rc = cli.main(
            [
                "experiment",
                "toy-discrete",
                "--seeds",
                "0,1",
                *TOY_FAST,
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        rows = _read_csv(tmp_path / "aggregate.csv")
        assert rows[0][0] == "seed" and len(rows) == 3
        for row in rows[1:]:
            assert 0.0 <= float(row[5]) <= 1.0  # tv_to_enumerated
            assert math.isfinite(float(row[6]))  # exact log Z
        assert (tmp_path / "seed_0" / "trace_main.csv").exists()
        assert (tmp_path / "seed_1" / "trace_main.csv").exists()

    def test_exp1_artifacts(self, tmp_path):
        rc = cli.main(
            [
                "experiment",
                "exp1",
                "--seeds",
                "0",
                "--override",
                "smc.n_particles=60",
                "--override",
                "smc.lambda_target=2.0",
                "--override",
                "smc.m_max=2",
                "--override",
                "smc.mcmc_steps=1",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        errors = _read_csv(tmp_path / "errors.csv")
        assert errors[0] == ["seed", "estimator", "param", "abs_error"]
        tags = {r[1] for r in errors[1:]}
        assert tags == {"exponential", "uniform"}
        assert len(errors) == 1 + 2 * 4  # two estimators x four parameters
        acc = _read_csv(tmp_path / "acceptance.csv")
        assert {r[1] for r in acc[1:]} == {"adaptive_m", "fixed_m1"}
        for tag in ("exponential", "reference", "uniform", "fixed_m1"):
            assert (tmp_path / "seed_0" / f"trace_{tag}.csv").exists()
        _check_spend(tmp_path, ["exponential", "uniform"])

    # the bound table comes from the first seed at the preset n (90): its fixed arm when the grid holds 90
    @pytest.mark.parametrize("n,source", [(30, "bound_source"), (90, "fixed_n90")])
    def test_exp2_artifacts(self, tmp_path, n, source):
        rc = cli.main(
            [
                "experiment",
                "exp2",
                "--seeds",
                "0",
                "--override",
                f"n_grid=[{n}]",
                "--override",
                "smc.n_particles=60",
                "--override",
                "smc.lambda_target=2.0",
                "--override",
                "smc.m_max=2",
                "--override",
                "smc.mcmc_steps=1",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        mse = _read_csv(tmp_path / "mse.csv")
        assert mse[0] == ["n", "seed", "estimator", "mse", "lambda"]
        assert {r[2] for r in mse[1:]} == {"fixed_lambda", "adaptive_lambda", "uniform"}
        for row in mse[1:]:
            assert float(row[3]) >= 0.0
        agg = _read_csv(tmp_path / "aggregate.csv")
        assert agg[0] == ["n", "estimator", "median_mse", "max_mse"]
        assert len(agg) == 4
        bound = _read_csv(tmp_path / "bound_table.csv")
        assert bound[0][0] == "step" and len(bound) > 1
        traces = sorted(p.name for p in (tmp_path / "seed_0").glob("trace_*.csv"))
        assert traces == sorted({f"trace_fixed_n{n}.csv", f"trace_uniform_n{n}.csv", f"trace_{source}.csv"})
        ladder = _read_csv(tmp_path / "seed_0" / f"trace_{source}.csv")
        assert [r[:2] for r in bound[1:]] == [r[:2] for r in ladder[1:]]
        _check_spend(tmp_path, [f"fixed_n{n}", f"uniform_n{n}"])

    def test_exp3_artifacts(self, tmp_path):
        rc = cli.main(
            [
                "experiment",
                "exp3",
                "--seeds",
                "0",
                "--override",
                "smc.n_particles=60",
                "--override",
                "smc.lambda_target=2.0",
                "--override",
                "smc.m_max=2",
                "--override",
                "smc.mcmc_steps=1",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        errs = _read_csv(tmp_path / "stat_errors.csv")
        # 7 thresholds plus a max row, per method
        per_method = {}
        for row in errs[1:]:
            per_method.setdefault(row[1], []).append(row[2])
        assert set(per_method) == {"abc", "uniform"}
        for rows in per_method.values():
            assert len(rows) == 8 and rows[-1] == "max"
        dens = _read_csv(tmp_path / "density.csv")
        assert len(dens) == 1 + 2 * 101
        widths = [float(r[3]) - float(r[2]) for r in dens[1:]]
        total = sum(d * w for d, w in zip((float(r[4]) for r in dens[1:]), widths))
        assert total == pytest.approx(2.0, abs=1e-6)  # two normalized histograms
        _check_spend(tmp_path, ["abc", "uniform"])

    def test_uniform_arm_ends_at_a_stalled_ladder(self, tmp_path, capsys):
        # exp3's tied distances stall the eps ladder long before this budget
        cfg = cfgmod.preset("exp3")
        cfg["smc"]["n_particles"] = 300
        spend = []
        system = cli._uniform_arm(cfg, 0, tmp_path, "uniform", 200_000, spend)
        assert system.sim_calls < 200_000
        trace_rows = _read_csv(tmp_path / "trace_uniform.csv")
        assert len(trace_rows) > 1
        assert spend == [[0, "uniform", "ladder_stall", len(trace_rows) - 1, system.sim_calls, 200_000]]
        err = capsys.readouterr().err
        assert "uniform arm uniform (seed 0) stopped with ladder_stall" in err
        assert f"after {system.sim_calls} of 200000 simulator calls" in err

    def test_empty_seed_list_rejected(self, tmp_path):
        rc = cli.main(["experiment", "toy-discrete", "--seeds", "", "--out", str(tmp_path)])
        assert rc == 2


def test_console_entry_point(tmp_path):
    out = tmp_path / "run"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "abcsmc.cli",
            "run",
            "--preset",
            "toy-discrete",
            *TOY_FAST,
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "run complete" in proc.stdout
    assert (out / "summary.json").exists()


def _check_spend(out, arms):
    """spend.csv has one row per arm of seed 0; the uniform arm ran on the
    other arm's spend as its budget."""
    spend = _read_csv(out / "spend.csv")
    assert spend[0] == ["seed", "arm", "status", "steps", "sim_calls", "sim_budget"]
    rows = {r[1]: r for r in spend[1:]}
    assert list(rows) == arms and all(r[0] == "0" for r in rows.values())
    compared, uniform = (rows[a] for a in arms)
    assert compared[5] == "" and uniform[5] == compared[4]
    for r in rows.values():
        assert r[2] in {"ok", "budget_exhausted", "ladder_stall", "max_steps"}
        assert int(r[3]) >= 1 and int(r[4]) > 0
