"""The commands compute and `main` writes: exit codes and artifacts.

A command returns its files; `main` writes them only once the command
has returned, so any exit other than 0 leaves no output directory.
"""

import ast
import json
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from holonomy_lab import cli, rb, tomography
from holonomy_lab.cli import main
from holonomy_lab.config import RunConfig
from holonomy_lab.model import NoiseModel


def _run(tmp_path, config, *argv):
    cfg = tmp_path / "device.cfg"
    cfg.write_text(config)
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["--config", str(cfg), *argv, "--output-dir", str(out)])
    return code, out


def test_failed_twoqubit_fidelity_writes_nothing(tmp_path, capsys):
    # The robustness grid succeeds; the open-system run at a 100 ns step
    # then fails its trace-drift check.
    code, out = _run(tmp_path, "step_2q_ns = 100\n", "twoqubit", "--fidelity")
    assert code == 3
    assert "trace drift" in capsys.readouterr().err
    assert not out.exists()


def test_failed_interleaved_rb_writes_no_reference(tmp_path, monkeypatch):
    def fail(ref, inter):
        raise FloatingPointError("interleaved fit failed")

    monkeypatch.setattr(rb, "interleaved_gate_fidelity", fail)
    code, out = _run(tmp_path, "", "rb", "--n-seqs", "2", "--interleaved", "X")
    assert code == 3
    assert not out.exists()


def test_contradicting_rb_fits_exit_3_without_artifacts(tmp_path, monkeypatch, capsys):
    # An interleaved decay slower than the reference decay is a failure
    # of the fits, not bad input, whatever the config.
    fits = iter([np.array([0.7, 0.98, 0.3]), np.array([0.7, 0.99, 0.3])])
    monkeypatch.setattr(rb, "_fit_decay", lambda m_values, mean_pg: next(fits))
    code, out = _run(tmp_path, "", "rb", "--n-seqs", "2", "--interleaved", "X")
    assert code == 3
    assert "numerical failure: RB fit rejected: p_gate exceeds p_ref" in capsys.readouterr().err
    assert not out.exists()


def test_lin_alg_error_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    # LinAlgError subclasses ValueError, which alone would exit 2.
    def fail(sup, readout=None):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(tomography, "qpt", fail)
    code, out = _run(tmp_path, "", "qpt", "--gate", "X")
    assert code == 3
    assert "numerical failure: singular" in capsys.readouterr().err
    assert not out.exists()


_COHERENCE_KEYS = ("t1_ge_us", "t1_ef_us", "t1_gf_us", "t2e_ge_us", "t2e_ef_us",
                   "t2e_gf_us", "cavity_t1_us")


# `twoqubit --fidelity` reads every one of these keys.  Unchecked, NaN
# ran to exit 0 (a nan budget, or the cavity collapse operators dropped)
# and 0 divided by zero.
@pytest.mark.parametrize("value", ["nan", "0", "-5"])
@pytest.mark.parametrize("key", _COHERENCE_KEYS)
def test_bad_coherence_time_exits_2_without_artifacts(tmp_path, capsys, key, value):
    code, out = _run(tmp_path, f"{key} = {value}\n", "twoqubit", "--fidelity")
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


def test_noise_model_rejects_a_nan_rate():
    with pytest.raises(ValueError, match="non-negative"):
        NoiseModel(gamma_ge=float("nan"))


def _no_schedule(*args, **kwargs):
    raise AssertionError("a schedule was built")


# An angle flag sets its key, so the key's domain check rejects it.
@pytest.mark.parametrize("flag, value", [
    ("--theta", "nan"), ("--phi", "inf"), ("--gamma", "-inf")])
def test_non_finite_angle_flag_exits_2(tmp_path, monkeypatch, capsys, flag, value):
    monkeypatch.setattr(cli, "build_schedule", _no_schedule)
    out = tmp_path / "o"
    assert main(["simulate-gate", f"{flag}={value}", "--output-dir", str(out)]) == 2
    assert repr(f"{flag[2:]}_rad") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("theta_rad", "nan"), ("phi_rad", "inf"), ("gamma_rad", "-inf")])
def test_non_finite_angle_key_exits_2(tmp_path, monkeypatch, capsys, key, value):
    monkeypatch.setattr(cli, "build_schedule", _no_schedule)
    code, out = _run(tmp_path, f"{key} = {value}\n", "simulate-gate")
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


def test_negative_eps_grid_parses_as_a_separate_argument(tmp_path):
    bodies = []
    for i, argv in enumerate((["--eps-grid=-0.05,0,0.05"], ["--eps-grid", "-0.05,0,0.05"])):
        out = tmp_path / f"o{i}"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["twoqubit", *argv, "--output-dir", str(out)]) == 0
        bodies.append((out / "cnot_robustness.csv").read_bytes())
    assert bodies[0] == bodies[1]
    assert len(bodies[0].decode().splitlines()) == 2 + 1 + 3


def test_only_main_touches_the_filesystem():
    tree = ast.parse(Path(cli.__file__).read_text())
    writers = {"write_text", "write_bytes", "mkdir", "open", "touch"}
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef) and func.name != "main":
            calls = {node.func.attr if isinstance(node.func, ast.Attribute)
                     else getattr(node.func, "id", None)
                     for node in ast.walk(func) if isinstance(node, ast.Call)}
            assert not calls & writers, func.name


_DURATION_KEYS = ("tau_sr_ns", "tau_nhqc_ns", "tau_dynamical_ns", "tau_2q_sr_ns",
                  "tau_2q_nhqc_ns")


# `budget` reads every gate duration and propagates nothing, so no
# schedule rejected these: NaN and inf wrote nan or inf rows with exit 0.
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-5"])
@pytest.mark.parametrize("key", _DURATION_KEYS)
def test_bad_gate_duration_exits_2_without_artifacts(tmp_path, capsys, key, value):
    code, out = _run(tmp_path, f"{key} = {value}\n", "budget")
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


_COMMANDS = ("simulate-gate", "sweep-epsilon", "dynphase", "qpt", "rb", "twoqubit", "budget")
_NON_FINITE = ("nan", "inf", "-inf")
# Values out of each key's domain, as its type allows.  output_dir is
# checked by type only, and a config file always gives it a string.
_OUT_OF_DOMAIN = {
    **dict.fromkeys(_COHERENCE_KEYS, ("nan", "-inf", "0", "-5")),
    **dict.fromkeys((*_DURATION_KEYS, "step_1q_ns", "step_2q_ns"), (*_NON_FINITE, "0", "-5")),
    **dict.fromkeys(("chi_storage_ge_MHz", "chi_storage_ef_MHz", "theta_rad", "phi_rad",
                     "gamma_rad"), _NON_FINITE),
    "epsilon": (*_NON_FINITE, "-5", "1.5"),
    "scheme": ("foo",), "noise": ("maybe",), "seed": ("-1",), "n_fock": ("-1", "0", "2"),
}


def test_out_of_domain_values_cover_every_key():
    assert set(_OUT_OF_DOMAIN) == {f.name for f in fields(RunConfig)} - {"output_dir"}


# The whole file is checked at load, whatever keys the command reads.
@pytest.mark.parametrize("key, value", [(key, value) for key, values in _OUT_OF_DOMAIN.items()
                                        for value in values])
def test_every_key_out_of_domain_exits_2_under_every_command(tmp_path, capsys, key, value):
    for command in _COMMANDS:
        code, out = _run(tmp_path, f"{key} = {value}\n", command)
        assert code == 2, command
        assert repr(key) in capsys.readouterr().err, command
        assert not out.exists(), command


# Keys that changed only the config hash were retired; a file that still
# names one is refused at load, as any unknown key is.
_RETIRED_KEYS = ("omega_ge_GHz", "omega_ef_GHz", "omega_readout_GHz", "omega_storage_GHz",
                 "raman_drive_GHz", "chi_readout_ge_MHz", "chi_readout_ef_MHz",
                 "t2star_ge_us", "t2star_ef_us", "raman_pulse_ns", "cavity_t2star_us")


@pytest.mark.parametrize("key", _RETIRED_KEYS)
def test_retired_key_exits_2_as_unknown_under_every_command(tmp_path, capsys, key):
    assert key not in {f.name for f in fields(RunConfig)}
    for command in _COMMANDS:
        code, out = _run(tmp_path, f"{key} = 1\n", command)
        assert code == 2, command
        assert f"unknown key {key!r}" in capsys.readouterr().err, command
        assert not out.exists(), command


# test_cli.py runs t1_ge_us = inf, the other edge a domain admits.
@pytest.mark.parametrize("text", ["epsilon = 1\n", "epsilon = -1\n"])
def test_rabi_error_domain_edges_run(tmp_path, text):
    code, out = _run(tmp_path, text, "budget")
    assert code == 0
    assert (out / "budget.csv").exists()


def _artifacts(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


# A gate flag sets the angle keys, so the header hashes what ran.
@pytest.mark.parametrize("command, flags, keys", [
    ("dynphase", ["--theta", "1.0"], {"theta_rad": 1.0}),
    *((command, ["--gate", "Y/2"],
       {"theta_rad": np.pi / 2, "phi_rad": np.pi / 2, "gamma_rad": np.pi / 2})
      for command in ("simulate-gate", "dynphase"))],
    ids=["theta", "gate-Y/2", "dynphase-gate-Y/2"])
def test_flag_and_config_file_write_the_same_bytes(tmp_path, command, flags, keys):
    (tmp_path / "flag").mkdir()
    (tmp_path / "file").mkdir()
    code, by_flag = _run(tmp_path / "flag", "", command, *flags)
    assert code == 0
    text = "".join(f"{key} = {value!r}\n" for key, value in keys.items())
    code, by_file = _run(tmp_path / "file", text, command)
    assert code == 0
    assert _artifacts(by_flag) == _artifacts(by_file)
    # The flags moved the angles off the defaults, and the header with them.
    assert all(b"\n# config 766619da1886\n" not in body for body in _artifacts(by_flag).values())


def test_gate_x_keeps_the_default_hash(tmp_path):
    code, out = _run(tmp_path, "", "dynphase", "--gate", "X")
    assert code == 0
    for body in _artifacts(out).values():
        assert body.decode().splitlines()[1] == "# config 766619da1886"


# dynphase.json names the gate from the config's angles, whichever route
# set them: the defaults are X, and angles off every named gate are null.
@pytest.mark.parametrize("config, flags, name", [
    ("", [], "X"), ("", ["--gate", "X/2"], "X/2"),
    ("theta_rad = 1.5707963267948966\nphi_rad = 1.5707963267948966\n", [], "Y"),
    ("", ["--theta", "1.0"], None)], ids=["default", "flag-X/2", "file-Y", "drawn"])
def test_dynphase_names_the_configured_gate(tmp_path, config, flags, name):
    code, out = _run(tmp_path, config, "dynphase", *flags)
    assert code == 0
    body = (out / "dynphase.json").read_text()
    assert json.loads("".join(line for line in body.splitlines()
                              if not line.startswith("#")))["gate"] == name
