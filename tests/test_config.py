import inspect
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy_lab import config, twoqubit
from holonomy_lab.config import (ConfigError, RunConfig, config_hash,
                                 default_config_text, load_config, parse_config)
from holonomy_lab.model import DispersiveSystemParams, NoiseModel
from holonomy_lab.pulses import SCHEMES


def test_defaults_match_device_values():
    cfg = RunConfig()
    assert cfg.t1_ge_us == 18.9
    assert cfg.t2e_ge_us == 38.0
    assert cfg.chi_storage_ge_MHz == 2.87
    assert cfg.tau_sr_ns == 120.0


def test_parse_overrides_and_comments():
    cfg = parse_config("""
# comment line
t1_ge_us = 20.0   # inline comment
noise = true
seed = 7
scheme = nhqc
""")
    assert cfg.t1_ge_us == 20.0
    assert cfg.noise is True
    assert cfg.seed == 7
    assert cfg.scheme == "nhqc"
    # untouched keys keep defaults
    assert cfg.t1_ef_us == 12.7


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("t1_ge = 20.0")


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        parse_config("t1_ge_us = fast")
    with pytest.raises(ConfigError):
        parse_config("seed = 1.5")
    with pytest.raises(ConfigError):
        parse_config("noise = maybe")
    with pytest.raises(ConfigError):
        parse_config("just a line without equals")
    with pytest.raises(ConfigError, match="'scheme'"):
        parse_config("scheme = foo")
    for eps in ("1.5", "-2", "nan"):
        with pytest.raises(ConfigError, match="'epsilon'"):
            parse_config(f"epsilon = {eps}")


def test_hash_tracks_physics_not_output_dir():
    a = RunConfig()
    b = replace(a, output_dir="elsewhere")
    c = replace(a, t1_ge_us=21.0)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_default_hash_is_pinned():
    # Every artifact header carries it as "# config <hash>", so a change
    # of digest, of key set or of value repr shows in every rerun.
    assert config_hash(RunConfig()) == "766619da1886"


_VALUES = {"float": st.floats(allow_nan=False), "int": st.integers(),
           "bool": st.booleans(), "str": st.sampled_from(SCHEMES)}
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Keys whose legal values are a subset of their type's, by unit suffix
# and by name.
_SUFFIX_VALUES = {"_us": st.floats(min_value=0.0, exclude_min=True),  # inf is legal
                  "_ns": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                  "_rad": _FINITE, "_MHz": _FINITE}
_KEY_VALUES = {"epsilon": st.floats(-1.0, 1.0), "seed": st.integers(min_value=0),
               "n_fock": st.integers(min_value=3)}


def _legal_values(name, typ):
    suffix = "_" + name.rsplit("_", 1)[-1]
    return _KEY_VALUES.get(name, _SUFFIX_VALUES.get(suffix, _VALUES[typ]))


@settings(max_examples=50, deadline=None)
@given(st.fixed_dictionaries({}, optional={
    f.name: _legal_values(f.name, f.type) for f in fields(RunConfig)
    if f.name != "output_dir"}))
def test_parse_config_round_trips_values(values):
    # Every numeric, boolean and scheme key, written as Python prints it.
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    assert parse_config(text) == RunConfig(**values)


# One value out of each key's domain.
_ILLEGAL = {"t1_ge_us": -1.0, "cavity_t1_us": 0.0, "tau_sr_ns": math.inf,
            "step_2q_ns": math.nan, "chi_storage_ge_MHz": math.inf, "theta_rad": math.nan,
            "scheme": "foo", "epsilon": 1.5, "noise": "maybe", "seed": -1, "n_fock": 2,
            "output_dir": None}


@pytest.mark.parametrize("key, value", _ILLEGAL.items())
def test_every_route_rejects_a_value_out_of_domain(key, value):
    message = f"key {key!r}: expected"
    with pytest.raises(ConfigError, match=message):
        RunConfig(**{key: value})
    with pytest.raises(ConfigError, match=message):
        replace(RunConfig(), **{key: value})
    if isinstance(value, (int, float, str)):
        with pytest.raises(ConfigError, match=message):
            parse_config(f"{key} = {value}")


def test_parse_config_checks_the_domain():
    # parse_config, not only load_config, rejects a negative time.
    with pytest.raises(ConfigError, match="'t1_ge_us': expected a positive time, got -1.0"):
        parse_config("t1_ge_us = -1")
    assert parse_config("t1_ge_us = inf\nepsilon = -1").t1_ge_us == math.inf


def test_every_key_has_a_domain():
    assert set(config._DOMAINS) == {f.name for f in fields(RunConfig)}


def test_key_given_twice_is_rejected():
    with pytest.raises(ConfigError, match="line 3: key 't1_ge_us' already set on line 1"):
        parse_config("t1_ge_us = 20\nseed = 1\nt1_ge_us = 30\n")


def test_default_config_text_round_trips():
    text = default_config_text()
    cfg = parse_config(text)
    assert cfg == RunConfig()


def test_noise_model_and_dispersive_helpers():
    cfg = RunConfig()
    n = replace(cfg, epsilon=0.05).noise_model()
    assert np.isclose(n.gamma_ge, 1 / 18.9)
    assert n.epsilon == 0.05
    p = cfg.dispersive_params()
    assert np.isclose(p.chi_ge, 2.87 * 2 * np.pi * 1e-3)
    assert p.n_fock == 4


def test_config_defaults_are_the_model_defaults():
    cfg = RunConfig()
    assert cfg.noise_model() == NoiseModel.from_coherence_times()
    assert cfg.dispersive_params() == DispersiveSystemParams.from_mhz()
    default_t1 = inspect.signature(twoqubit.cnot_state_fidelity).parameters["cavity_t1_us"]
    assert cfg.cavity_t1_us == default_t1.default


def test_step_cap_leaves_the_default_and_device_configs_unchanged(tmp_path):
    defaults = tmp_path / "default.cfg"
    defaults.write_text(default_config_text())
    device = Path(__file__).resolve().parents[1] / "bench" / "device.cfg"
    for path in (defaults, device):
        assert load_config(path) == parse_config(path.read_text())
    # The longest default run, the 2 760 ns sr-nhqc CNOT at 0.5 ns.
    assert RunConfig().tau_2q_sr_ns / RunConfig().step_2q_ns == 5520 < config.MAX_RUN_STEPS


def test_step_cap_counts_the_longest_run_of_its_kind(tmp_path):
    path = tmp_path / "fine.cfg"
    # 10^6 steps of the 120 ns sr-nhqc gate load; a longer nhqc gate then
    # makes too many.
    path.write_text("step_1q_ns = 0.00012\n")
    assert load_config(path).step_1q_ns == 0.00012
    path.write_text("step_1q_ns = 0.00012\ntau_nhqc_ns = 240\n")
    with pytest.raises(ConfigError, match="'step_1q_ns': expected at most 1000000 steps "
                                          "per run, got 2e\\+06 for tau_nhqc_ns = 240.0"):
        load_config(path)
