"""Command-line entry point: seeded runs, bound reports, and experiment suites.

Subcommands:

  run         one SMC run from a config file or preset; writes trace.csv,
              snapshots.csv (if enabled), and summary.json
  bound       evaluate bound reports from a trace CSV and a constants file
  experiment  multi-seed study (exp1 | exp2 | exp3 | toy-discrete |
              toy-quadrature) with per-seed artifacts and aggregate CSVs

Exit codes: 0 success, 2 invalid configuration or input, 3 runtime
degeneracy (ladder stall / particle collapse).
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import statistics as pystats
import sys
import time
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .bounds import (
    BoundConstants,
    adaptive_objectives,
    adaptive_select_lambda,
    corollary1_terms,
    empirical_bound,
    nonparametric_rate,
)
from .exceptions import (
    ABCSMCError,
    DegenerateSystemError,
    InvalidConfigError,
    InvalidInputError,
    LadderStallError,
)
from .models import DiscreteToyModel, enumerated_posterior
from .smc import fmt, load_trace_csv, posterior_at_lambda, run_smc, weighted_moments
from .statistics import KERNELS, summarize, summarize_batch


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LadderStallError, DegenerateSystemError) as err:
        print(f"error: run degenerated: {err}", file=sys.stderr)
        return 3
    except ABCSMCError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _build_parser():
    parser = argparse.ArgumentParser(prog="abcsmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single seeded SMC run")
    _add_config_flags(p_run)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_bound = sub.add_parser("bound", help="bound reports from a trace CSV")
    p_bound.add_argument("--trace", help="ladder trace CSV (empirical/adaptive modes)")
    p_bound.add_argument("--constants", required=True, help="JSON file of bound constants")
    p_bound.add_argument(
        "--mode", required=True, choices=["empirical", "adaptive", "cor1", "nonparam"]
    )
    p_bound.add_argument("--out", default="out")
    p_bound.set_defaults(func=cmd_bound)

    p_exp = sub.add_parser("experiment", help="multi-seed experiment suite")
    p_exp.add_argument("name", choices=cfgmod.preset_names())
    p_exp.add_argument("--seeds", default="0", help="comma-separated seed list")
    p_exp.add_argument("--override", action="append", default=[], metavar="KEY.PATH=VALUE")
    p_exp.add_argument("--out", default="out")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def _add_config_flags(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="JSON config file")
    group.add_argument("--preset", choices=cfgmod.preset_names())
    p.add_argument("--override", action="append", default=[], metavar="KEY.PATH=VALUE")


def _load_run_config(args) -> dict:
    cfg = cfgmod.load_config(args.config) if args.config else cfgmod.preset(args.preset)
    return cfgmod.apply_overrides(cfg, args.override)


def _out_dir(path) -> Path:
    """``--out``, refused now if it names a file; made at the first write, so a refused command leaves none."""
    out = Path(path)
    if out.exists() and not out.is_dir():
        raise FileExistsError(errno.EEXIST, "File exists", str(out))
    return out


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _tv_to_enumeration(model, summary, dist_spec, observations, system, kernel):
    """Total variation from the particle posterior over the atoms to enumeration under the run's
    kernel at its last rung; also the exact log Z."""
    exact, log_z_exact = enumerated_posterior(model, summary, dist_spec, observations, system.lam, kernel)
    got = np.array(
        [np.sum(system.weights() * (system.theta[:, 0] == v)) for v in model.theta_values]
    )
    return float(0.5 * np.abs(got - exact).sum()), log_z_exact


_BOUND_TABLE_HEADER = ["step", "lambda", "bound", "neg_log_z", "concentration", "confidence"]


def _bound_table_rows(trace, constants, distance_kind):
    """One empirical-bound row per ladder step, in the columns of _BOUND_TABLE_HEADER."""
    rows = []
    for rec in trace.records:
        report = empirical_bound(rec.log_z, rec.lam, constants, distance_kind)
        rows.append(
            [rec.step, fmt(rec.lam), fmt(report.value)]
            + [fmt(report.components[k]) for k in ("neg_log_z", "concentration", "confidence")]
        )
    return rows


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _execute(cfg: dict, seed: int):
    model = cfgmod.build_model(cfg)
    summary = cfgmod.build_summary(cfg)
    dist_spec = cfgmod.build_distance(cfg)
    smc_cfg = cfgmod.build_smc_config(cfg, seed=seed)
    observations = cfgmod.build_observations(cfg, seed)
    system, trace = run_smc(smc_cfg, model, summary, dist_spec, observations)
    return model, summary, dist_spec, smc_cfg, observations, system, trace


def cmd_run(args) -> int:
    cfg = _load_run_config(args)
    constants = cfgmod.build_bound_constants(cfg) if "bound" in cfg else None
    out = _out_dir(args.out)
    t0 = time.perf_counter()
    model, summary, dist_spec, smc_cfg, observations, system, trace = _execute(cfg, args.seed)
    wall = time.perf_counter() - t0

    out.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out / "trace.csv")
    if smc_cfg.store_snapshots:
        trace.snapshots_to_csv(out / "snapshots.csv")

    mean, sd = weighted_moments(system.theta, system.weights())
    report = {
        "seed": args.seed,
        "status": trace.status,
        "steps": len(trace),
        "lambda_final": system.lam,
        "log_z": system.log_z,
        "m_final": system.m_replicates,
        "sim_calls": system.sim_calls,
        "theta_mean": mean.tolist(),
        "theta_sd": sd.tolist(),
        "wall_time_s": wall,
    }
    kernel = KERNELS[smc_cfg.kernel]
    if isinstance(model, DiscreteToyModel):
        report["tv_to_enumerated"], _ = _tv_to_enumeration(model, summary, dist_spec, observations, system, kernel)
    if constants is not None:
        if len(trace) > 0 and trace.lambdas[0] < trace.lambdas[-1]:
            lam_hat, sel = adaptive_select_lambda(trace, constants, distance_kind=dist_spec.kind)
            report["lambda_hat"] = lam_hat
            report["adaptive_bound"] = sel.value
        report["empirical_bound"] = empirical_bound(
            system.log_z, system.lam, constants, dist_spec.kind
        ).value
    with open(out / "summary.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"run complete: {len(trace)} steps, lambda={system.lam:g}, status={trace.status}")
    return 0


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def _is_number(value) -> bool:
    """Whether a JSON value is a number (not a boolean)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def cmd_bound(args) -> int:
    doc = cfgmod.read_json(args.constants)
    if not isinstance(doc, dict):
        raise InvalidConfigError(f"constants file {args.constants} must hold an object")
    distance_kind = doc.pop("distance_kind", "lp")
    extras = {k: doc.pop(k) for k in ("beta_grid", "beta_smooth") if k in doc}
    grid = extras.get("beta_grid", [])
    if not (isinstance(grid, list) and all(_is_number(b) and 0 < b < np.inf for b in grid)):
        raise InvalidConfigError(
            f"key 'beta_grid' in constants file {args.constants} must be a list of finite positive numbers, "
            f"not {grid!r}"
        )
    if "beta_smooth" in extras and not _is_number(extras["beta_smooth"]):
        raise InvalidConfigError(
            f"key 'beta_smooth' in constants file {args.constants} must be a number, not {extras['beta_smooth']!r}"
        )
    path = _out_dir(args.out) / f"bound_{args.mode}.csv"

    if args.mode == "nonparam":
        # other keys are ignored: the same file may carry the BoundConstants of the other modes
        given = {k: v for k, v in {**doc, **extras}.items() if k in ("n", "beta_smooth")}
        kw = cfgmod.keyword_args(f"constants file {args.constants}", given, nonparametric_rate)
        r = nonparametric_rate(**kw)
        _write_csv(
            path,
            ["n", "beta_smooth", "rate", "lambda_n", "c_n", "order_only"],
            [[kw["n"], fmt(kw["beta_smooth"]), fmt(r.rate), fmt(r.lambda_n), fmt(r.c_n), r.order_only]],
        )
        print(f"wrote {path}")
        return 0

    constants = BoundConstants(**cfgmod.keyword_args(f"constants file {args.constants}", doc, BoundConstants))
    if args.mode == "cor1":
        report = corollary1_terms(constants)
        header = ["lambda_star", "value"] + sorted(report.components)
        row = [fmt(report.lam_or_beta), fmt(report.value)] + [
            fmt(report.components[k]) for k in sorted(report.components)
        ]
        _write_csv(path, header, [row])
        print(f"wrote {path}")
        return 0

    if not args.trace:
        raise InvalidConfigError(f"--trace is required for mode {args.mode!r}")
    trace = load_trace_csv(args.trace)
    if np.any(np.diff(trace.lambdas) < 0):
        raise InvalidInputError(f"{args.trace} holds a decreasing (eps) ladder; the bound needs a lambda ladder")

    if args.mode == "empirical":
        _write_csv(path, _BOUND_TABLE_HEADER, _bound_table_rows(trace, constants, distance_kind))
        print(f"wrote {path}")
        return 0

    # adaptive: every feasible beta of the grid, the selected one marked
    betas, values, sel = adaptive_objectives(trace, constants, grid or None, distance_kind)
    rows = [[fmt(b), fmt(1.0 / b), fmt(v), int(b == sel.lam_or_beta)] for b, v in zip(betas, values)]
    _write_csv(path, ["beta", "lambda", "objective", "selected"], rows)
    print(f"wrote {path}; selected lambda_hat={1.0 / sel.lam_or_beta:.6g} (bound {sel.value:.6g})")
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def cmd_experiment(args) -> int:
    try:
        seeds = [int(s) for s in str(args.seeds).split(",") if s != ""]
    except ValueError:
        raise InvalidConfigError(f"--seeds must be a comma-separated list of integers, not {args.seeds!r}") from None
    if not seeds:
        raise InvalidConfigError("--seeds must name at least one seed")
    if min(seeds) < 0:  # refused before any seed's run, as SMCConfig.validate would refuse it at that run
        raise InvalidConfigError(f"--seeds: each seed must be >= 0, not {min(seeds)}")
    cfg = cfgmod.apply_overrides(cfgmod.preset(args.name), args.override)
    out = _out_dir(args.out)
    runner = {
        "exp1": _experiment1,
        "exp2": _experiment2,
        "exp3": _experiment3,
        "toy-discrete": _experiment_toy,
        "toy-quadrature": _experiment_toy,
    }[args.name]
    runner(cfg, seeds, out)
    print(f"experiment {args.name} complete: {len(seeds)} seed(s), artifacts in {out}")
    return 0


def _run_variant(cfg: dict, seed: int, out_dir: Path, tag: str, **smc_overrides):
    """One run of a config variant; writes its trace under out_dir, made after the run."""
    cfg = json.loads(json.dumps(cfg))
    cfg["smc"].update(smc_overrides)
    model, summary, dist_spec, smc_cfg, observations, system, trace = _execute(cfg, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out_dir / f"trace_{tag}.csv")
    return model, summary, dist_spec, observations, system, trace


_SPEND_HEADER = ["seed", "arm", "status", "steps", "sim_calls", "sim_budget"]


def _uniform_arm(cfg: dict, seed: int, out_dir: Path, tag: str, budget: int, spend_rows: list):
    """Final particle system of the accept/reject baseline, run on the simulator
    budget of the run it is compared with; writes its trace under out_dir.
    A stalled eps ladder ends the arm where it stands: the arm's row in
    spend_rows records how it stopped and what it spent, and a warning goes
    to stderr when it stopped short of the budget."""
    _, _, _, _, system, trace = _run_variant(
        cfg,
        seed,
        out_dir,
        tag,
        kernel="uniform",
        eps_target=0.0,
        lambda_target=None,
        sim_budget=budget,
        adapt_m=False,
        store_snapshots=False,
        on_stall="stop",
    )
    spend_rows.append(_spend_row(seed, tag, system, trace, budget))
    if trace.status != "budget_exhausted":
        print(
            f"warning: uniform arm {tag} (seed {seed}) stopped with {trace.status} after "
            f"{system.sim_calls} of {budget} simulator calls",
            file=sys.stderr,
        )
    return system


def _spend_row(seed: int, tag: str, system, trace, budget: int | None = None) -> list:
    """One row of spend.csv: how an experiment arm stopped and what it spent."""
    return [seed, tag, trace.status, len(trace), system.sim_calls, "" if budget is None else budget]


def _posterior_predictive_stats(model, summary, theta, weights, n_obs, seed):
    """Weighted fresh-simulation estimate of the posterior-mean statistic vector."""
    rng = np.random.default_rng([seed, 0x5117])
    sims = model.simulate_batch(theta, n_obs, 1, rng)
    stats = summarize_batch(summary, sims)[:, 0, :]
    return weights @ stats, sims[:, 0, :]


def _truth_stats(cfg: dict, summary, size: int = 1_000_000) -> np.ndarray:
    """Large-sample Monte Carlo estimate of the truth's statistic vector (fixed seed)."""
    probe = json.loads(json.dumps(cfg))
    probe["truth"] = dict(probe["truth"], n=size)
    sample = cfgmod.build_observations(probe, 0)
    return summarize(summary, sample)


def _experiment_toy(cfg, seeds, out):
    rows = []
    for seed in seeds:
        sd = out / f"seed_{seed}"
        model, summary, dist_spec, obs, system, trace = _run_variant(cfg, seed, sd, "main")
        row = [seed, len(trace), fmt(system.lam), fmt(system.log_z), system.sim_calls]
        if isinstance(model, DiscreteToyModel):
            tv, log_z_exact = _tv_to_enumeration(model, summary, dist_spec, obs, system, KERNELS[trace.kernel])
            row += [fmt(tv), fmt(log_z_exact)]
        else:
            row += ["", ""]
        rows.append(row)
    _write_csv(
        out / "aggregate.csv",
        ["seed", "steps", "lambda_final", "log_z", "sim_calls", "tv_to_enumerated", "log_z_exact"],
        rows,
    )


def _experiment1(cfg, seeds, out):
    """Kernel comparison at equal budget (posterior-mean errors vs a 10x-particle
    reference) and acceptance-vs-lambda curves for adaptive-M vs fixed M=1."""
    err_rows, acc_rows, spend_rows = [], [], []
    n_ref = 10 * cfg["smc"]["n_particles"]
    for seed in seeds:
        sd = out / f"seed_{seed}"
        _, _, _, _, sys_exp, tr_exp = _run_variant(cfg, seed, sd, "exponential")
        budget = sys_exp.sim_calls
        spend_rows.append(_spend_row(seed, "exponential", sys_exp, tr_exp))
        _, _, _, _, sys_ref, _ = _run_variant(cfg, seed, sd, "reference", n_particles=n_ref)
        ref_mean, _ = weighted_moments(sys_ref.theta, sys_ref.weights())
        sys_uni = _uniform_arm(cfg, seed, sd, "uniform", budget, spend_rows)
        for tag, system in (("exponential", sys_exp), ("uniform", sys_uni)):
            err = np.abs(weighted_moments(system.theta, system.weights())[0] - ref_mean)
            for j, e in enumerate(err):
                err_rows.append([seed, tag, j + 1, fmt(e)])
        _, _, _, _, _, tr_fix = _run_variant(cfg, seed, sd, "fixed_m1", adapt_m=False)
        for policy, trace in (("adaptive_m", tr_exp), ("fixed_m1", tr_fix)):
            for rec in trace.records:
                acc_rows.append([seed, policy, rec.step, fmt(rec.lam), fmt(rec.accept_rate), rec.m])
    _write_csv(out / "errors.csv", ["seed", "estimator", "param", "abs_error"], err_rows)
    _write_csv(out / "spend.csv", _SPEND_HEADER, spend_rows)
    _write_csv(
        out / "acceptance.csv", ["seed", "policy", "step", "lambda", "accept_rate", "M"], acc_rows
    )


def _experiment2(cfg, seeds, out):
    """Misspecified MSE study over n plus the bound-vs-lambda table."""
    n_grid = cfg.get("n_grid", [30, 90, 270])
    constants = cfgmod.build_bound_constants(cfg)  # refused before any run
    summary = cfgmod.build_summary(cfg)
    s_true = _truth_stats(cfg, summary)
    lam_fixed = cfg["smc"]["lambda_target"]
    mse_rows, spend_rows = [], []
    bound_trace = None  # the trace of the first seed at the preset n, for the bound table
    for n in n_grid:
        for seed in seeds:
            sd = out / f"seed_{seed}"
            ncfg = json.loads(json.dumps(cfg))
            ncfg["truth"]["n"] = n
            if "bound" in ncfg:
                ncfg["bound"]["n"] = n
            model, summ, dist_spec, obs, system, trace = _run_variant(
                ncfg, seed, sd, f"fixed_n{n}", store_snapshots=True
            )
            if bound_trace is None and seed == seeds[0] and n == cfg["truth"]["n"]:
                bound_trace = trace
            budget = system.sim_calls
            spend_rows.append(_spend_row(seed, f"fixed_n{n}", system, trace))
            estimators = {}
            s_fixed, _ = _posterior_predictive_stats(
                model, summ, system.theta, system.weights(), len(obs), seed
            )
            estimators["fixed_lambda"] = s_fixed
            n_constants = cfgmod.build_bound_constants(ncfg)
            lam_hat, _ = adaptive_select_lambda(trace, n_constants, distance_kind=dist_spec.kind)
            th_a, w_a = posterior_at_lambda(trace, lam_hat)
            s_adapt, _ = _posterior_predictive_stats(model, summ, th_a, w_a, len(obs), seed)
            estimators["adaptive_lambda"] = s_adapt
            sys_uni = _uniform_arm(ncfg, seed, sd, f"uniform_n{n}", budget, spend_rows)
            s_uni, _ = _posterior_predictive_stats(
                model, summ, sys_uni.theta, sys_uni.weights(), len(obs), seed
            )
            estimators["uniform"] = s_uni
            for tag, s_hat in estimators.items():
                mse = float(np.mean((s_hat - s_true) ** 2))
                mse_rows.append([n, seed, tag, fmt(mse), fmt(lam_hat if tag == "adaptive_lambda" else lam_fixed)])
    _write_csv(out / "mse.csv", ["n", "seed", "estimator", "mse", "lambda"], mse_rows)
    _write_csv(out / "spend.csv", _SPEND_HEADER, spend_rows)

    agg = []
    for n in n_grid:
        for tag in ("fixed_lambda", "adaptive_lambda", "uniform"):
            vals = [float(r[3]) for r in mse_rows if r[0] == n and r[2] == tag]
            agg.append([n, tag, fmt(pystats.median(vals)), fmt(max(vals))])
    _write_csv(out / "aggregate.csv", ["n", "estimator", "median_mse", "max_mse"], agg)

    # bound-vs-lambda table from the first seed at the preset n: that arm's run when n_grid holds it
    if bound_trace is None:
        _, _, dist_spec, _, _, bound_trace = _run_variant(cfg, seeds[0], out / f"seed_{seeds[0]}", "bound_source")
    _write_csv(
        out / "bound_table.csv", _BOUND_TABLE_HEADER, _bound_table_rows(bound_trace, constants, dist_spec.kind)
    )


def _experiment3(cfg, seeds, out):
    """Indicator statistics under the max-norm: per-threshold errors and the
    posterior-predictive histogram versus a budget-matched uniform baseline."""
    summary = cfgmod.build_summary(cfg)
    thresholds = summary.thresholds
    s_true = _truth_stats(cfg, summary)
    bins = np.linspace(-5.0, 5.0, 102)
    err_rows, dens_rows, spend_rows = [], [], []
    for seed in seeds:
        sd = out / f"seed_{seed}"
        model, summ, dist_spec, obs, sys_abc, tr_abc = _run_variant(cfg, seed, sd, "abc")
        budget = sys_abc.sim_calls
        spend_rows.append(_spend_row(seed, "abc", sys_abc, tr_abc))
        sys_uni = _uniform_arm(cfg, seed, sd, "uniform", budget, spend_rows)
        for tag, system in (("abc", sys_abc), ("uniform", sys_uni)):
            s_hat, draws = _posterior_predictive_stats(
                model, summ, system.theta, system.weights(), len(obs), seed
            )
            errs = np.abs(s_hat - s_true)
            for t, e in zip(thresholds, errs):
                err_rows.append([seed, tag, fmt(t), fmt(e)])
            err_rows.append([seed, tag, "max", fmt(errs.max())])
            density, _ = np.histogram(
                np.clip(draws.ravel(), -5.0, 5.0), bins=bins, density=True
            )
            for k in range(101):
                dens_rows.append([seed, tag, fmt(bins[k]), fmt(bins[k + 1]), fmt(density[k])])
    _write_csv(out / "stat_errors.csv", ["seed", "method", "threshold", "abs_error"], err_rows)
    _write_csv(out / "spend.csv", _SPEND_HEADER, spend_rows)
    _write_csv(
        out / "density.csv", ["seed", "method", "bin_left", "bin_right", "density"], dens_rows
    )


if __name__ == "__main__":
    sys.exit(main())
