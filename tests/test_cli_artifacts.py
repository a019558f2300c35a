"""The commands compute and `main` writes: exit codes and artifacts.

A command returns its files; `main` writes them only once the command
has returned, so any exit other than 0 leaves no output directory.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

from holonomy_lab import cli, rb, tomography
from holonomy_lab.cli import main
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
                   "t2e_gf_us", "cavity_t1_us", "cavity_t2star_us")


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


@pytest.mark.parametrize("flag, value", [
    ("--theta", "nan"), ("--phi", "inf"), ("--gamma", "-inf")])
def test_non_finite_angle_flag_exits_2(tmp_path, monkeypatch, capsys, flag, value):
    monkeypatch.setattr(cli, "build_schedule", _no_schedule)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["simulate-gate", f"{flag}={value}", "--output-dir", str(out)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
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
