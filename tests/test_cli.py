import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from holonomy_lab import cohfit, evolve, model, qmath, twoqubit
from holonomy_lab.config import RunConfig
from holonomy_lab.pulses import (DEFAULT_STEP_1Q, GATE_X, PulseSchedule, build_schedule,
                                 build_sr_nhqc)
from holonomy_lab.cli import build_parser, main


def _read_json(path):
    text = path.read_text()
    body = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
    return json.loads(body)


def test_cli_import_loads_no_scipy():
    # scipy is imported where a fit or the idle channel needs it, so a
    # closed-system command does not pay for loading it.
    src = str(Path(evolve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, holonomy_lab.cli; "
         "print(sorted(k for k in sys.modules if k.startswith('scipy')))"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    assert loaded == "[]"


def test_simulate_gate_ideal(tmp_path):
    out = tmp_path / "o"
    assert main(["simulate-gate", "--gate", "X",
                 "--output-dir", str(out)]) == 0
    payload = _read_json(out / "fidelity.json")
    assert abs(payload["fidelity"] - 1.0) < 1e-6
    trace = (out / "trace.csv").read_text()
    assert trace.startswith("# holonomy-lab")


def test_simulate_gate_with_rabi_error(tmp_path):
    out = tmp_path / "o"
    assert main(["simulate-gate", "--gate", "X", "--epsilon", "0.1",
                 "--output-dir", str(out)]) == 0
    payload = _read_json(out / "fidelity.json")
    assert abs(payload["fidelity"] - 0.99940) < 1e-3


def test_noisy_gate_is_integrated_once(tmp_path, monkeypatch):
    columns = []
    real = evolve.propagate_lindblad_h

    def counted(ham, c_ops, tau, step, rho0):
        columns.append(rho0.shape[0])
        return real(ham, c_ops, tau, step, rho0)

    monkeypatch.setattr(evolve, "propagate_lindblad_h", counted)
    out = tmp_path / "o"
    assert main(["simulate-gate", "--noise", "--gate", "X",
                 "--output-dir", str(out)]) == 0
    assert columns == [9]
    noise = RunConfig().noise_model()
    payload = _read_json(out / "fidelity.json")
    assert abs(payload["avg_gate_error"]
               - cohfit.lindblad_average_gate_error(GATE_X, noise=noise)) < 1e-12
    # The |g><g| column of the channel run is the trace a one-state run gives.
    last = (out / "trace.csv").read_text().splitlines()[-1].split(",")
    schedule = build_sr_nhqc(GATE_X)
    ham = evolve.schedule_hamiltonian(schedule)
    _, populations, _ = real(ham, model.collapse_operators(noise), schedule.tau,
                             DEFAULT_STEP_1Q, qmath.projector(model.KET_G)[None])
    assert np.allclose([float(x) for x in last[1:]], populations[-1, 0], rtol=0, atol=1e-9)


def test_invalid_gamma_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate-gate", "--gamma", "bogus",
              "--output-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--gamma" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 1\n")
    code = main(["--config", str(cfg), "budget",
                 "--output-dir", str(tmp_path / "o")])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


def test_dynphase_nhqc_cross_term(tmp_path):
    out = tmp_path / "o"
    assert main(["dynphase", "--scheme", "nhqc", "--gate", "X",
                 "--output-dir", str(out)]) == 0
    payload = _read_json(out / "dynphase.json")
    assert abs(payload["D12_abs_over_pi"] - 1.0) < 0.1


def test_budget_contains_decoherence_entry(tmp_path):
    out = tmp_path / "o"
    assert main(["budget", "--output-dir", str(out)]) == 0
    text = (out / "budget.csv").read_text()
    assert "0.0043" in text
    assert text.startswith("# holonomy-lab")


def test_rb_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["rb", "--seed", "7", "--n-seqs", "3",
                 "--output-dir", str(a)]) == 0
    assert main(["rb", "--seed", "7", "--n-seqs", "3",
                 "--output-dir", str(b)]) == 0
    assert (a / "rb_reference.csv").read_bytes() == \
        (b / "rb_reference.csv").read_bytes()
    assert (a / "rb_fit.json").read_bytes() == (b / "rb_fit.json").read_bytes()


def test_rb_without_sequences_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["rb", "--n-seqs", "0", "--output-dir", str(out)]) == 2
    assert "n_seqs" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_respects_thread_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("HOLONOMY_LAB_THREADS", "2")
    out = tmp_path / "o"
    assert main(["sweep-epsilon", "--gate", "X", "--points", "5",
                 "--eps-min", "-0.1", "--eps-max", "0.1",
                 "--output-dir", str(out)]) == 0
    lines = [l for l in (out / "sweep.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "epsilon,F_sim,F_analytic"
    assert len(lines) == 6
    # grid order is preserved regardless of completion order
    eps = [float(l.split(",")[0]) for l in lines[1:]]
    assert eps == sorted(eps)


def _sweep_lines(out):
    return [l for l in (out / "sweep.csv").read_text().splitlines()
            if not l.startswith("#")]


def test_sweep_rejects_rabi_error_above_one(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["sweep-epsilon", "--gate", "X", "--eps-max", "1.5", "--points", "3",
                 "--output-dir", str(out)]) == 2
    assert "epsilon" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_sweep_without_points_writes_header_only(tmp_path):
    out = tmp_path / "o"
    assert main(["sweep-epsilon", "--gate", "X", "--points", "0",
                 "--output-dir", str(out)]) == 0
    assert _sweep_lines(out) == ["epsilon,F_sim,F_analytic"]


def test_shared_parser_keeps_each_command_defaults(tmp_path):
    assert build_parser() is build_parser()
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["simulate-gate", "--noise", "--gate", "X", "--output-dir", str(first)]) == 0
    assert main(["simulate-gate", "--gate", "X", "--output-dir", str(second)]) == 0
    assert _read_json(first / "fidelity.json")["noise"] is True
    assert _read_json(second / "fidelity.json")["noise"] is False
    assert main(["sweep-epsilon", "--points", "5", "--output-dir", str(first)]) == 0
    assert main(["sweep-epsilon", "--output-dir", str(second)]) == 0
    assert len(_sweep_lines(first)) == 1 + 5
    assert len(_sweep_lines(second)) == 1 + 41


def test_sweep_is_propagated_once(tmp_path, monkeypatch):
    cfg = RunConfig()
    schedule = build_schedule(GATE_X, cfg.scheme, cfg.tau_ns(cfg.scheme))
    times = evolve._time_grid(schedule.tau, cfg.step_1q_ns)
    samples = np.unique(evolve.schedule_hamiltonian(schedule).coefficient(
        0.5 * (times[:-1] + times[1:])))
    drive_calls, eigh_calls = [], []
    real_drive, real_eigh = PulseSchedule.drive, np.linalg.eigh

    def counted_drive(self, t):
        drive_calls.append(np.size(t))
        return real_drive(self, t)

    def counted_eigh(a, *args, **kwargs):
        eigh_calls.append(a.shape)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(PulseSchedule, "drive", counted_drive)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    out = tmp_path / "o"
    assert main(["sweep-epsilon", "--gate", "X", "--points", "41",
                 "--output-dir", str(out)]) == 0
    # One drive call on the 2400 step midpoints and one stacked eigh of
    # the distinct midpoint samples serve all 41 Rabi errors.
    assert drive_calls == [2400]
    assert len(samples) < 2400
    assert eigh_calls == [(len(samples), 3, 3)]
    assert len(_sweep_lines(out)) == 42


def test_coarse_noisy_step_exits_3(tmp_path, capsys):
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("step_1q_ns = 5\n")
    assert main(["--config", str(cfg), "simulate-gate", "--noise", "--gate", "X",
                 "--output-dir", str(tmp_path / "o")]) == 3
    assert "Choi" in capsys.readouterr().err


def test_bad_thread_env_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HOLONOMY_LAB_THREADS", "many")
    code = main(["budget", "--output-dir", str(tmp_path / "o")])
    assert code == 2


def test_qpt_command(tmp_path):
    out = tmp_path / "o"
    assert main(["qpt", "--gate", "X", "--output-dir", str(out)]) == 0
    payload = _read_json(out / "qpt.json")
    assert payload["process_fidelity"] > 0.999


def test_twoqubit_command(tmp_path):
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["twoqubit", "--eps-grid", "0",
                     "--output-dir", str(out)]) == 0
    payload = _read_json(out / "twoqubit.json")
    assert payload["robustness"][0]["P_g"] > 0.999


def test_twoqubit_fidelity_reads_cavity_coherence(tmp_path, monkeypatch):
    seen = []

    def fake_fidelity(params, transmon_noise, cavity_noise=None, **kwargs):
        seen.append(cavity_noise)
        return 0.5

    monkeypatch.setattr(twoqubit, "cnot_state_fidelity", fake_fidelity)
    cfg = tmp_path / "device.cfg"
    cfg.write_text("cavity_t1_us = 100\ncavity_t2star_us = 80\nstep_2q_ns = 5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["--config", str(cfg), "twoqubit", "--eps-grid", "0", "--fidelity",
                     "--output-dir", str(tmp_path / "o")]) == 0
    assert [(c.t1_us, c.t2star_us) for c in seen] == [(100.0, 80.0)]


def test_writes_stay_inside_output_dir(tmp_path, monkeypatch):
    # Run from a scratch cwd and verify the only artifacts appear under
    # the configured output directory.
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = tmp_path / "artifacts"
    assert main(["dynphase", "--gate", "X", "--output-dir", str(out)]) == 0
    assert os.listdir(workdir) == []
    assert sorted(os.listdir(out)) == ["dynphase.csv", "dynphase.json"]


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    out = capsys.readouterr().out
    assert out.startswith("usage: holonomy-lab")
    for name in ("simulate-gate", "sweep-epsilon", "dynphase", "qpt", "rb",
                 "twoqubit", "budget"):
        assert name in out, name


def test_print_config(capsys):
    assert main(["--print-config"]) == 0
    out = capsys.readouterr().out
    assert "t1_ge_us = 18.9" in out
