"""JSON run-configuration schema, presets, overrides, and object builders.

A run configuration is a nested JSON document with sections:

    {
      "model":    {"name": "mixture" | "gaussian_location" | "discrete_toy", ...params},
      "truth":    {"kind": ..., "n": ..., ...TruthGenerator fields}   (or)
      "observations": [...],
      "summary":  {"kind": ..., "thresholds": [...], "clamp": [lo, hi]},
      "distance": {"kind": "lp" | "sup" | "scaled_empirical_l2", "p": ...},
      "smc":      {...SMCConfig fields...},
      "bound":    {...BoundConstants fields...}          (optional)
      "n_grid":   [n1, n2, ...]      (optional, sample-size sweep in studies)
    }
"""

from __future__ import annotations

import copy
import inspect
import json

import numpy as np

from .bounds import BoundConstants
from .exceptions import InvalidConfigError
from .models import (
    DiscreteToyModel,
    GaussianLocationModel,
    MixtureModel,
    TruthGenerator,
    three_component_truth,
)
from .smc import SMCConfig
from .statistics import DistanceSpec, SummarySpec

_SECTIONS = {"model", "truth", "observations", "summary", "distance", "smc", "bound", "n_grid"}


def read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise InvalidConfigError(f"{path}:{err.lineno}: {err.msg}") from None


def load_config(path) -> dict:
    return validate_config(read_json(path))


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise InvalidConfigError("config root must be an object")
    unknown = set(cfg) - _SECTIONS
    if unknown:
        raise InvalidConfigError(f"unknown config sections: {sorted(unknown)}")
    for section in ("model", "summary", "distance", "smc"):
        if section not in cfg:
            raise InvalidConfigError(f"missing config section {section!r}")
    if "observations" not in cfg and "truth" not in cfg:
        raise InvalidConfigError("config needs either 'observations' or 'truth'")
    n_grid = cfg.get("n_grid", [1])
    if not (isinstance(n_grid, list) and n_grid and all(type(n) is int and n >= 1 for n in n_grid)):
        raise InvalidConfigError(f"n_grid must be a non-empty list of integers >= 1, not {n_grid!r}")
    return cfg


def apply_overrides(cfg: dict, overrides) -> dict:
    """Apply dotted-path assignments like smc.n_particles=500 (values parsed as JSON)."""
    cfg = copy.deepcopy(cfg)
    for item in overrides or []:
        if "=" not in item:
            raise InvalidConfigError(f"override {item!r} must look like key.path=value")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        keys = path.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise InvalidConfigError(f"override path {path!r} crosses a non-object")
        node[keys[-1]] = value
    return validate_config(cfg)


# the JSON values that each annotation admits (a bool is no number here); other names admit anything
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
               "tuple": (list, tuple), "dict": dict, "None": type(None)}


def _admits(annotation, value) -> bool:
    """Whether a JSON value fits a parameter annotation (a string; an absent one admits anything)."""
    if not isinstance(annotation, str):
        return True
    kinds = [_JSON_TYPES.get(t.split("[")[0].strip(), object) for t in annotation.split("|")]
    return any(isinstance(value, k) for k in kinds) and (bool in kinds or not isinstance(value, bool))


def keyword_args(where: str, values, fn) -> dict:
    """A copy of ``values`` as keyword arguments of ``fn``, JSON arrays as tuples; InvalidConfigError names
    ``where`` and the key if values is not an object, has a key fn does not take or a value it does not
    admit, or lacks one that fn needs."""
    if not isinstance(values, dict):
        raise InvalidConfigError(f"{where} must be an object")
    params = inspect.signature(fn).parameters
    for key, value in values.items():
        if key not in params:
            raise InvalidConfigError(f"unknown key {key!r} in {where}")
        if not _admits(params[key].annotation, value):
            raise InvalidConfigError(f"key {key!r} in {where} must be {params[key].annotation}, not {value!r}")
    for key, param in params.items():
        if param.default is param.empty and key not in values:
            raise InvalidConfigError(f"{where} needs key {key!r}")
    return {key: tuple(value) if isinstance(value, list) else value for key, value in values.items()}


_MODELS = {
    "mixture": MixtureModel,
    "gaussian_location": GaussianLocationModel,
    "discrete_toy": DiscreteToyModel.from_obs_probs,
}


def build_model(cfg: dict):
    section = dict(cfg["model"]) if isinstance(cfg["model"], dict) else {}
    name = section.pop("name", None)
    if not isinstance(name, str) or name not in _MODELS:
        raise InvalidConfigError(f"config section 'model' needs a name in {sorted(_MODELS)}, not {name!r}")
    return _MODELS[name](**keyword_args("config section 'model'", section, _MODELS[name]))


def build_summary(cfg: dict) -> SummarySpec:
    return SummarySpec(**keyword_args("config section 'summary'", cfg["summary"], SummarySpec))


def build_distance(cfg: dict) -> DistanceSpec:
    return DistanceSpec(**keyword_args("config section 'distance'", cfg["distance"], DistanceSpec))


def build_bound_constants(cfg: dict) -> BoundConstants:
    """The ``bound`` section's constants, whose ``m`` must be the dimension of the config's statistic."""
    constants = BoundConstants(**keyword_args("config section 'bound'", cfg["bound"], BoundConstants))
    m = build_summary(cfg).dim(len(build_observations(cfg, 0)))
    if constants.m != m:
        raise InvalidConfigError(
            f"key 'm' in config section 'bound' must be the statistic's dimension {m}, not {constants.m}"
        )
    return constants


def build_smc_config(cfg: dict, seed: int | None = None) -> SMCConfig:
    section = keyword_args("config section 'smc'", cfg["smc"], SMCConfig)
    if seed is not None:
        section["seed"] = seed
    if section.get("m_schedule"):
        try:
            section["m_schedule"] = {int(k): int(v) for k, v in section["m_schedule"].items()}
        except (TypeError, ValueError):
            raise InvalidConfigError("key 'm_schedule' in config section 'smc' must map steps to counts") from None
    return SMCConfig(**section).validate()


def build_observations(cfg: dict, seed: int):
    """Observed data: either fixed in the config or drawn from the truth generator.

    The draw uses its own seed stream (seed + a fixed offset) so the observed
    dataset is reproducible and distinct from the sampler's randomness.
    """
    if "observations" in cfg:
        return np.asarray(cfg["observations"], dtype=float)
    section = keyword_args("config section 'truth'", cfg["truth"], TruthGenerator)
    if section.get("kind") == "three_component":
        base = three_component_truth()
        for key in ("weights", "means", "sds", "truncation"):
            section.setdefault(key, getattr(base, key))
    gen = TruthGenerator(**section)
    rng = np.random.default_rng([seed, 0x0B5E12])
    return gen.sample(rng)


# ---------------------------------------------------------------------------
# Presets (desk-scale versions of the three studies plus two oracle toys)
# ---------------------------------------------------------------------------

_DISCRETE_TOY = {
    "model": {
        "name": "discrete_toy",
        "theta_values": [0.0, 1.0, 2.0, 3.0, 4.0],
        "prior_weights": [0.3, 0.25, 0.2, 0.15, 0.1],
        "obs_values": [0.0, 1.0, 2.0],
        "obs_probs": [
            [0.70, 0.20, 0.10],
            [0.45, 0.35, 0.20],
            [0.25, 0.50, 0.25],
            [0.15, 0.35, 0.50],
            [0.05, 0.25, 0.70],
        ],
        "n": 3,
    },
    "observations": [0.0, 2.0, 1.0],
    "summary": {"kind": "identity"},
    "distance": {"kind": "lp", "p": 1},
    "smc": {
        "n_particles": 100_000,
        "lambda_target": 5.0,
        "adapt_m": False,
        "mcmc_steps": 3,
        "seed": 0,
    },
}

_QUADRATURE_TOY = {
    "model": {"name": "gaussian_location", "prior_var": 4.0, "noise_sd": 1.0},
    "truth": {
        "kind": "two_component",
        "weights": [1.0, 0.0],
        "means": [0.5, 0.0],
        "sds": [1.0, 1.0],
        "truncation": None,
        "n": 50,
    },
    "summary": {"kind": "mean"},
    # on the one-dimensional mean summary this equals the absolute mean gap
    "distance": {"kind": "scaled_empirical_l2"},
    "smc": {
        "n_particles": 20_000,
        "lambda_target": 20.0,
        "adapt_m": False,
        "mcmc_steps": 3,
        "seed": 0,
    },
    # the mean-gap distance on unit-variance noise is a 1-Lipschitz function of
    # a sub-Gaussian average with proxy 1, so the scaled-l2 branch uses K = 1
    "bound": {"n": 50, "m": 1, "p": 2, "K": 1.0, "d": 1, "theta_var": 4.0, "eps": 0.05},
}

_EXP1 = {
    "model": {"name": "mixture", "p": 0.8, "mu_prior_sd": 10.0, "logsigma_prior_sd": 1.0},
    "truth": {"kind": "two_component", "n": 90},
    "summary": {"kind": "moments_and_tails", "clamp": [-5.0, 5.0]},
    "distance": {"kind": "lp", "p": 2},
    "smc": {
        "n_particles": 1000,
        "lambda_target": 60.0,
        "tau": 0.9,
        "mcmc_steps": 3,
        "accept_target": 0.1,
        # acceptance at the target temperature needs far more than the
        # historical default of 128 replicates; see the replicate-noise study
        "m_max": 4096,
        "m_change": "gibbs",
        "seed": 0,
    },
    "bound": {"n": 90, "m": 6, "p": 2, "K": 625.0, "d": 4, "theta_var": 100.0, "eps": 0.05},
}

_EXP2 = {
    "model": {"name": "mixture", "p": 0.8, "mu_prior_sd": 10.0, "logsigma_prior_sd": 1.0},
    "truth": {"kind": "three_component", "n": 90},
    # each feature is rescaled by its sup bound so the concentration
    # constant K is exactly 1; bandwidth selection degenerates otherwise
    "summary": {"kind": "moments_and_tails", "clamp": [-5.0, 5.0], "normalize": True},
    "distance": {"kind": "lp", "p": 2},
    "smc": {
        "n_particles": 1000,
        "lambda_target": 90.0,
        "tau": 0.9,
        "mcmc_steps": 3,
        "accept_target": 0.1,
        "m_max": 128,
        "m_change": "gibbs",
        "store_snapshots": True,
        "seed": 0,
    },
    "bound": {"n": 90, "m": 6, "p": 2, "K": 1.0, "d": 4, "theta_var": 100.0, "eps": 0.05},
}

_EXP3 = {
    "model": {"name": "mixture", "p": 0.8, "mu_prior_sd": 10.0, "logsigma_prior_sd": 1.0},
    "truth": {"kind": "three_component", "n": 90},
    "summary": {
        "kind": "indicator_grid",
        "thresholds": [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0],
    },
    "distance": {"kind": "sup"},
    "smc": {
        "n_particles": 1000,
        "lambda_target": 60.0,
        "tau": 0.9,
        "mcmc_steps": 3,
        "accept_target": 0.1,
        "m_max": 128,
        "m_change": "gibbs",
        "seed": 0,
    },
    "bound": {"n": 90, "m": 7, "p": 2, "K": 1.0, "d": 4, "theta_var": 100.0, "eps": 0.05},
}

_PRESETS = {
    "toy-discrete": _DISCRETE_TOY,
    "toy-quadrature": _QUADRATURE_TOY,
    "exp1": _EXP1,
    "exp2": _EXP2,
    "exp3": _EXP3,
}


def preset_names():
    return sorted(_PRESETS)


def preset(name: str) -> dict:
    if name not in _PRESETS:
        raise InvalidConfigError(f"unknown preset {name!r}; choose from {preset_names()}")
    return copy.deepcopy(_PRESETS[name])
