import json

import numpy as np
import pytest

from abcsmc.config import (
    apply_overrides,
    build_distance,
    build_model,
    build_observations,
    build_smc_config,
    build_summary,
    load_config,
    preset,
    preset_names,
    validate_config,
)
from abcsmc.exceptions import InvalidConfigError
from abcsmc.models import DiscreteToyModel, GaussianLocationModel, MixtureModel


def _minimal_cfg():
    return {
        "model": {"name": "gaussian_location", "prior_var": 4.0, "noise_sd": 1.0},
        "observations": [0.1, -0.2, 0.3],
        "summary": {"kind": "mean"},
        "distance": {"kind": "lp", "p": 2},
        "smc": {"n_particles": 50, "lambda_target": 2.0, "seed": 0},
    }


class TestSerialization:
    def test_round_trip_identity(self, tmp_path):
        cfg = preset("exp1")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert load_config(path) == cfg

    def test_load_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "model": {,}\n}\n')
        with pytest.raises(InvalidConfigError, match=r":2:"):
            load_config(path)

    def test_unknown_section_rejected(self):
        cfg = _minimal_cfg()
        cfg["extra"] = {}
        with pytest.raises(InvalidConfigError, match="extra"):
            validate_config(cfg)

    def test_missing_section_rejected(self):
        cfg = _minimal_cfg()
        del cfg["summary"]
        with pytest.raises(InvalidConfigError, match="summary"):
            validate_config(cfg)

    def test_needs_observations_or_truth(self):
        cfg = _minimal_cfg()
        del cfg["observations"]
        with pytest.raises(InvalidConfigError):
            validate_config(cfg)


class TestOverrides:
    def test_nested_json_values(self):
        cfg = _minimal_cfg()
        out = apply_overrides(cfg, ["smc.n_particles=200", "smc.adapt_m=false", "distance.p=1"])
        assert out["smc"]["n_particles"] == 200
        assert out["smc"]["adapt_m"] is False
        assert out["distance"]["p"] == 1
        # original untouched
        assert cfg["smc"]["n_particles"] == 50

    def test_string_fallback(self):
        out = apply_overrides(_minimal_cfg(), ["summary.kind=identity"])
        assert out["summary"]["kind"] == "identity"

    def test_list_value(self):
        out = apply_overrides(_minimal_cfg(), ["observations=[1.0, 2.0]"])
        assert out["observations"] == [1.0, 2.0]

    def test_malformed_override(self):
        with pytest.raises(InvalidConfigError):
            apply_overrides(_minimal_cfg(), ["no-equals-sign"])

    def test_path_through_scalar_rejected(self):
        with pytest.raises(InvalidConfigError):
            apply_overrides(_minimal_cfg(), ["smc.n_particles.x=1"])


class TestBuilders:
    def test_build_each_model_kind(self):
        assert isinstance(build_model(preset("exp1")), MixtureModel)
        assert isinstance(build_model(preset("toy-quadrature")), GaussianLocationModel)
        assert isinstance(build_model(preset("toy-discrete")), DiscreteToyModel)
        with pytest.raises(InvalidConfigError):
            build_model({"model": {"name": "nope"}})

    def test_build_summary_tuples(self):
        spec = build_summary({"summary": {"kind": "indicator_grid", "thresholds": [-1, 0, 1]}})
        assert spec.thresholds == (-1, 0, 1)

    def test_build_smc_config_seed_injection(self):
        smc = build_smc_config(_minimal_cfg(), seed=7)
        assert smc.seed == 7 and smc.n_particles == 50

    def test_build_smc_m_schedule_keys_coerced(self):
        cfg = _minimal_cfg()
        cfg["smc"]["m_schedule"] = {"1": 2, "3": 8}  # JSON keys are strings
        smc = build_smc_config(cfg)
        assert smc.m_schedule == {1: 2, 3: 8}

    def test_observations_literal(self):
        obs = build_observations(_minimal_cfg(), seed=0)
        np.testing.assert_array_equal(obs, [0.1, -0.2, 0.3])

    def test_observations_from_truth_reproducible(self):
        cfg = preset("exp1")
        a = build_observations(cfg, seed=3)
        b = build_observations(cfg, seed=3)
        c = build_observations(cfg, seed=4)
        assert a.shape == (90,)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_three_component_defaults_backfilled(self):
        obs = build_observations(preset("exp2"), seed=0)
        assert obs.shape == (90,)
        assert np.all(np.abs(obs) <= 5.0)  # truncation honored


class TestPresets:
    def test_names(self):
        assert set(preset_names()) == {
            "toy-discrete",
            "toy-quadrature",
            "exp1",
            "exp2",
            "exp3",
        }

    @pytest.mark.parametrize("name", ["toy-discrete", "toy-quadrature", "exp1", "exp2", "exp3"])
    def test_every_preset_validates_and_builds(self, name):
        cfg = preset(name)
        validate_config(cfg)
        build_model(cfg)
        build_summary(cfg)
        build_distance(cfg)
        build_smc_config(cfg, seed=0).validate()
        obs = build_observations(cfg, seed=0)
        assert len(obs) > 0

    def test_preset_returns_copy(self):
        cfg = preset("exp1")
        cfg["smc"]["n_particles"] = 1
        assert preset("exp1")["smc"]["n_particles"] != 1

    def test_unknown_preset(self):
        with pytest.raises(InvalidConfigError):
            preset("nope")

    def test_presets_json_serializable(self):
        for name in preset_names():
            json.loads(json.dumps(preset(name)))
