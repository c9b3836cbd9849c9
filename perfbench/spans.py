"""Layer spans recorded from outside the library, and the per-layer metrics built from them.

``install`` replaces the public entry point of each abcsmc layer with a
wrapper that records one span per call: name, start, end, parent span and
the work counts of that call.  It patches the names where the sampler looks
them up at call time, so the library's code runs unchanged:

- ``smc`` binds ``summarize_batch`` and ``distance_batch`` at import, so they
  are replaced on the ``smc`` module;
- ``mcmc`` and ``madapt`` fetch ``simulate_distances`` from ``smc`` at call
  time, so replacing it on ``smc`` covers them too;
- ``simulate_batch`` is a method, so it is replaced on each model class;
- the CLI's ``cmd_run`` is the ``cli.artifacts`` span.  Its config load and
  ``_execute`` (the builders plus the sampler) are ``cli.setup`` child
  spans, and the bound calls it makes are ``bounds.report`` spans, so the
  self time of ``cli.artifacts`` is what ``cmd_run`` does itself: build the
  report and write ``trace.csv`` and ``summary.json``.

Spans stay in memory and are handed back at the end of the run.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, counts]
        self._open: list[int] = []

    def span(self, name, fn, count=None):
        """Wrap ``fn`` so each call records a span; ``count(args, result)`` adds work counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, {}]
            self._open.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                rec[4].update(count(args, result))
            return result

        return wrapper

    def counter(self, key, fn):
        """Wrap ``fn`` so each call adds 1 to ``key`` on the innermost open span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open:
                counts = self.spans[self._open[-1]][4]
                counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


def _draws(args, result):
    return {"draws": int(result.size)}


def _observations(args, result):
    return {"obs": int(args[1].size)}


def _mh_moves(args, result):
    # rejuvenate(system, model, summary, dist_spec, n_obs, calibration, k_steps, rng, kernel)
    accept_rate, sims = result
    proposed = args[0].dists.shape[0] * args[6]
    return {"accepted": round(accept_rate * proposed), "proposed": proposed, "sims": int(sims)}


def _refresh_sims(args, result):
    return {"sims": int(result)}


def install(tracer: Tracer):
    """Wrap every layer entry point of abcsmc; returns the traced ``run_smc``."""
    from abcsmc import cli, madapt, mcmc, models, smc

    for cls in (models.MixtureModel, models.GaussianLocationModel, models.DiscreteToyModel):
        cls.simulate_batch = tracer.span("models.simulate_batch", cls.simulate_batch, _draws)
    smc.summarize_batch = tracer.span("statistics.summarize_batch", smc.summarize_batch, _observations)
    smc.distance_batch = tracer.span("statistics.distance_batch", smc.distance_batch)
    smc.simulate_distances = tracer.span("smc.simulate_distances", smc.simulate_distances)
    smc.find_next_lambda = tracer.span("smc.select", smc.find_next_lambda)
    smc._find_next_eps = tracer.span("smc.select", smc._find_next_eps)
    smc.ess = tracer.counter("ess_evals", smc.ess)
    smc.systematic_resample = tracer.span("smc.resample", smc.systematic_resample)
    mcmc.rejuvenate = tracer.span("mcmc.rejuvenate", mcmc.rejuvenate, _mh_moves)
    mcmc.calibrate = tracer.span("mcmc.calibrate", mcmc.calibrate)
    madapt.gibbs_refresh_system = tracer.span("madapt.refresh", madapt.gibbs_refresh_system, _refresh_sims)
    madapt.is_refresh_system = tracer.span("madapt.refresh", madapt.is_refresh_system, _refresh_sims)
    cli.adaptive_select_lambda = tracer.span("bounds.report", cli.adaptive_select_lambda)
    cli.empirical_bound = tracer.span("bounds.report", cli.empirical_bound)
    cli._load_run_config = tracer.span("cli.setup", cli._load_run_config)
    cli._execute = tracer.span("cli.setup", cli._execute)
    cli.cmd_run = tracer.span("cli.artifacts", cli.cmd_run)
    return tracer.span("smc.driver", smc.run_smc)


def span_totals(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds and summed counts.

    Self time is a span's duration minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict] = {}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
        t["calls"] += 1
        t["total_s"] += end - start
        t["self_s"] += end - start - child_time[i]
        for key, value in counts.items():
            t["counts"][key] = t["counts"].get(key, 0) + value
    return totals


def layer_metrics(spans, run: dict) -> dict:
    """The per-layer metrics of one traced run, from its spans and its result record."""
    totals = span_totals(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}

    def get(name):
        return totals.get(name, empty)

    def count(name, key):
        return get(name)["counts"].get(key, 0)

    sim = get("models.simulate_batch")
    draws = count("models.simulate_batch", "draws")
    summ = get("statistics.summarize_batch")
    obs = count("statistics.summarize_batch", "obs")
    sd_index = {i for i, s in enumerate(spans) if s[0] == "smc.simulate_distances"}
    chunks = sum(1 for s in spans if s[0] == "models.simulate_batch" and s[3] in sd_index)
    proposed = count("mcmc.rejuvenate", "proposed")
    sims_mcmc = count("mcmc.rejuvenate", "sims")
    sims_refresh = count("madapt.refresh", "sims")
    ess_evals = count("smc.select", "ess_evals")
    return {
        "models.simulate_batch.calls": sim["calls"],
        "models.simulate_batch.draws": draws,
        "models.simulate_batch.self_s": sim["self_s"],
        "models.simulate_batch.ns_per_draw": 1e9 * sim["self_s"] / max(draws, 1),
        "models.simulate_batch.bytes_out": 8 * draws,
        "statistics.summarize_batch.self_s": summ["self_s"],
        "statistics.summarize_batch.ns_per_obs": 1e9 * summ["self_s"] / max(obs, 1),
        "statistics.distance_batch.self_s": get("statistics.distance_batch")["self_s"],
        "smc.simulate_distances.self_s": get("smc.simulate_distances")["self_s"],
        "smc.simulate_distances.chunks": chunks,
        "smc.select.self_s": get("smc.select")["self_s"],
        "smc.select.ess_evals": ess_evals,
        "smc.select.ess_evals_per_rung": ess_evals / max(run["rungs"], 1),
        "smc.resample.self_s": get("smc.resample")["self_s"],
        "smc.driver.self_s": get("smc.driver")["self_s"],
        "smc.rungs": run["rungs"],
        "smc.lambda_final": run["lambda_final"],
        "smc.m_final": run["m_final"],
        "smc.sim_calls": run["sim_calls"],
        "smc.sim_calls.init": run["sim_calls"] - sims_mcmc - sims_refresh,
        "smc.sim_calls.mcmc": sims_mcmc,
        "smc.sim_calls.refresh": sims_refresh,
        "mcmc.rejuvenate.self_s": get("mcmc.rejuvenate")["self_s"],
        "mcmc.rejuvenate.accept_ratio": count("mcmc.rejuvenate", "accepted") / max(proposed, 1),
        "mcmc.calibrate.calls": get("mcmc.calibrate")["calls"],
        "madapt.refresh.calls": get("madapt.refresh")["calls"],
        "madapt.refresh.sims": sims_refresh,
        "bounds.report.self_s": get("bounds.report")["self_s"],
        "cli.artifacts.self_s": get("cli.artifacts")["self_s"],
    }
