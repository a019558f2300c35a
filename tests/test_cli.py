import ast
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from holonomy_lab import cli, cohfit, evolve, holonomy, model, qmath, rb, twoqubit
from holonomy_lab.config import RunConfig
from holonomy_lab.pulses import (DEFAULT_STEP_1Q, GATE_X, PulseSchedule, build_schedule,
                                 build_sr_nhqc)
from holonomy_lab.cli import build_parser, main
from reference import lindblad_stage_loop
from test_unused_parameters import SRC, TEST_ONLY


def _read_json(path):
    text = path.read_text()
    body = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
    return json.loads(body)


def _fresh_env():
    src = str(Path(evolve.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def test_cli_import_loads_no_scipy():
    # Only cohfit's test-only fitters import scipy, inside their bodies,
    # so importing the CLI does not pay for loading it.
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, holonomy_lab.cli; "
         "print(sorted(k for k in sys.modules if k.startswith('scipy')))"],
        env=_fresh_env(), capture_output=True, text=True, check=True).stdout.strip()
    assert loaded == "[]"


COMMANDS_SCRIPT = """
import sys
from holonomy_lab.cli import main
out = sys.argv[1]
for argv in (["rb", "--interleaved", "X", "--n-seqs", "2"],
             ["qpt", "--noise", "--readout", "--gate", "X"],
             ["simulate-gate", "--noise", "--gate", "X"],
             ["twoqubit", "--eps-grid", "0", "--fidelity"],
             ["budget"]):
    assert main([*argv, "--output-dir", out]) == 0, argv
print(sorted(k for k in sys.modules if k.startswith("scipy")))
"""


def test_commands_load_no_scipy(tmp_path):
    # No command's path imports scipy: RB's idle channel and decay fit
    # are plain numpy.
    loaded = subprocess.run([sys.executable, "-c", COMMANDS_SCRIPT, str(tmp_path / "o")],
                            env=_fresh_env(), capture_output=True, text=True,
                            check=True).stdout.strip().splitlines()[-1]
    assert loaded == "[]"


HASHLIB_SCRIPT = """
import sys
from holonomy_lab.cli import main
out = sys.argv[1]
for argv in (["simulate-gate", "--gate", "X"],
             ["sweep-epsilon", "--gate", "X", "--points", "3"],
             ["dynphase", "--gate", "X"],
             ["qpt", "--noise", "--readout", "--gate", "X"],
             ["twoqubit", "--eps-grid", "0", "--fidelity"],
             ["budget"]):
    assert main([*argv, "--output-dir", out]) == 0, argv
print("_hashlib" in sys.modules)
"""


def test_commands_load_no_openssl(tmp_path):
    # The config digest takes CPython's builtin sha256, so no command but
    # rb maps OpenSSL through hashlib's _hashlib.  rb is left out: its
    # numpy.random imports secrets, which imports hmac and so _hashlib.
    loaded = subprocess.run([sys.executable, "-c", HASHLIB_SCRIPT, str(tmp_path / "o")],
                            env=_fresh_env(), capture_output=True, text=True,
                            check=True).stdout.strip().splitlines()[-1]
    assert loaded == "False"


# The only functions in src/ that may import scipy: fitters of measured
# coherence data that no command calls (TEST_ONLY in
# test_unused_parameters.py).
SCIPY_FITTERS = {"fit_rate_equation", "fit_ramsey"}


def scipy_importers(source: str) -> list[str]:
    """The enclosing function ('<module>' at top level) of every import
    of scipy or a scipy submodule in source."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "scipy" for m in modules):
                found.append(owner)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if named else owner)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_finds_every_scipy_import():
    source = ("import scipy\nimport numpy\n"
              "def f():\n    from scipy.optimize import curve_fit\n"
              "    def g():\n        import scipy.linalg as la\n"
              "class C:\n    def h(self):\n        from . import scipyish\n")
    assert scipy_importers(source) == ["<module>", "f", "g"]


def test_scipy_is_imported_only_by_the_test_only_fitters():
    importers = {owner for path in sorted(SRC.glob("*.py"))
                 for owner in scipy_importers(path.read_text())}
    assert importers <= SCIPY_FITTERS <= set(TEST_ONLY)


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

    def counted(ham, c_ops, tau, step):
        run = real(ham, c_ops, tau, step)
        columns.append(len(run[2]))
        return run

    monkeypatch.setattr(evolve, "propagate_lindblad_h", counted)
    out = tmp_path / "o"
    assert main(["simulate-gate", "--noise", "--gate", "X",
                 "--output-dir", str(out)]) == 0
    assert columns == [9]
    noise = RunConfig().noise_model()
    payload = _read_json(out / "fidelity.json")
    schedule = build_sr_nhqc(GATE_X)
    assert abs(payload["avg_gate_error"] - cohfit.channel_average_gate_error(
        evolve.gate_channel(schedule, noise), GATE_X)) < 1e-12
    # The |g><g| column of the channel run is the trace a one-state run gives.
    last = (out / "trace.csv").read_text().splitlines()[-1].split(",")
    ham = evolve.schedule_hamiltonian(schedule)
    _, states = lindblad_stage_loop(ham, model.collapse_operators(noise), schedule.tau,
                                    DEFAULT_STEP_1Q, qmath.projector(model.KET_G)[None])
    assert np.allclose([float(x) for x in last[1:]], np.diag(states[-1, 0]).real,
                       rtol=0, atol=1e-9)


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


@pytest.mark.parametrize("command", ["simulate-gate", "dynphase", "twoqubit"])
def test_unknown_scheme_in_config_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scheme = foo\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), command, "--output-dir", str(out)]) == 2
    assert "'scheme'" in capsys.readouterr().err
    assert not out.exists()


# A non-finite duration or step has no time grid.  Unchecked, tau = inf
# overflows, step = inf runs a single step and nan fails to convert.
@pytest.mark.parametrize("text", [
    "tau_sr_ns = inf\n", "scheme = dynamical\ntau_dynamical_ns = inf\n",
    "step_1q_ns = inf\n", "step_1q_ns = nan\n"],
    ids=["tau-sr", "tau-dyn", "step-inf", "step-nan"])
def test_non_finite_grid_in_config_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "simulate-gate", "--output-dir", str(out)]) == 2
    assert "finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("make", [lambda tmp: tmp / "missing.cfg",
                                  lambda tmp: tmp], ids=["missing", "directory"])
def test_unreadable_config_exits_2(tmp_path, capsys, make):
    out = tmp_path / "o"
    assert main(["--config", str(make(tmp_path)), "budget", "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
def test_output_dir_at_a_file_exits_2(tmp_path, capsys, below):
    kept = tmp_path / "f"
    kept.write_text("kept\n")
    assert main(["budget", "--output-dir", str(kept / below)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error:") and err.count("\n") == 1
    assert kept.read_text() == "kept\n"


def test_twoqubit_rejects_the_dynamical_scheme_flag(tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["twoqubit", "--scheme", "dynamical", "--output-dir", str(out)])
    assert exc.value.code == 2
    assert "--scheme" in capsys.readouterr().err
    assert not out.exists()


def test_twoqubit_runs_sr_nhqc_under_a_dynamical_config(tmp_path):
    cfg = tmp_path / "dyn.cfg"
    cfg.write_text("scheme = dynamical\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["--config", str(cfg), "twoqubit", "--eps-grid", "0",
                     "--output-dir", str(out)]) == 0
    assert _read_json(out / "twoqubit.json")["scheme"] == "sr-nhqc"


def test_infinite_coherence_time_in_config_is_legal(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("t1_ge_us = inf\n")
    assert main(["--config", str(cfg), "simulate-gate", "--noise",
                 "--output-dir", str(tmp_path / "o")]) == 0


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


def _no_work(*args, **kwargs):
    raise AssertionError("a flag above its cap reached the computation")


# A flag above its cap exits 2 naming the flag, before any work and
# before the output directory is made; the defaults stay under the caps.
@pytest.mark.parametrize("argv, flag, target", [
    (["sweep-epsilon", "--points", str(cli.MAX_SWEEP_POINTS + 1)], "--points",
     (holonomy, "robustness_sweep")),
    (["rb", "--n-seqs", str(cli.MAX_RB_SEQUENCES + 1)], "--n-seqs",
     (rb, "default_channel_factory"))], ids=["points", "n-seqs"])
def test_a_flag_above_its_cap_exits_2_before_any_work(tmp_path, capsys, monkeypatch, argv,
                                                      flag, target):
    monkeypatch.setattr(*target, _no_work)
    out = tmp_path / "o"
    assert main([*argv, "--output-dir", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_flag_defaults_are_unchanged():
    assert build_parser().parse_args(["sweep-epsilon"]).points == 41
    assert build_parser().parse_args(["rb"]).n_seqs == 50
    assert 41 <= cli.MAX_SWEEP_POINTS and 50 <= cli.MAX_RB_SEQUENCES


# Only rb draws random numbers; anywhere else a seed would change nothing
# but the config hash in the artifact headers.
@pytest.mark.parametrize("command", ["simulate-gate", "sweep-epsilon", "dynphase", "qpt",
                                     "twoqubit", "budget"])
def test_seedless_command_rejects_seed(tmp_path, capsys, command):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "7", "--output-dir", str(out)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_rb_seed_draws_the_sequences(tmp_path):
    runs = {seed: tmp_path / seed for seed in ("7", "8")}
    for seed, out in runs.items():
        assert main(["rb", "--seed", seed, "--n-seqs", "3", "--output-dir", str(out)]) == 0
    assert (runs["7"] / "rb_reference.csv").read_bytes() != \
        (runs["8"] / "rb_reference.csv").read_bytes()


def test_sweep_keeps_grid_order(tmp_path):
    out = tmp_path / "o"
    assert main(["sweep-epsilon", "--gate", "X", "--points", "5",
                 "--eps-min", "-0.1", "--eps-max", "0.1",
                 "--output-dir", str(out)]) == 0
    lines = [l for l in (out / "sweep.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "epsilon,F_sim,F_analytic"
    assert len(lines) == 6
    eps = [float(l.split(",")[0]) for l in lines[1:]]
    assert eps == sorted(eps)


def _sweep_lines(out):
    return [l for l in (out / "sweep.csv").read_text().splitlines()
            if not l.startswith("#")]


def test_sweep_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["sweep-epsilon", "--gate", "X", "--points", "41",
                     "--output-dir", str(out)]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_sweep_rejects_rabi_error_above_one(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["sweep-epsilon", "--gate", "X", "--eps-max", "1.5", "--points", "3",
                 "--output-dir", str(out)]) == 2
    assert "epsilon" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


# NaN passes a check written as |epsilon| > 1, so every command would
# propagate it; an error in the config fails before any artifact.
@pytest.mark.parametrize("config, argv", [
    ("", ["sweep-epsilon", "--eps-min", "nan", "--points", "3"]),
    ("", ["simulate-gate", "--epsilon", "nan"]),
    ("", ["twoqubit", "--eps-grid=nan"]),
    ("epsilon = 2\n", ["twoqubit", "--fidelity"]),
    ("epsilon = nan\n", ["twoqubit", "--fidelity"])],
    ids=["sweep-nan", "simulate-nan", "grid-nan", "config-2", "config-nan"])
def test_bad_rabi_error_exits_2_without_artifacts(tmp_path, capsys, config, argv):
    cfg = tmp_path / "device.cfg"
    cfg.write_text(config)
    out = tmp_path / "o"
    assert main(["--config", str(cfg), *argv, "--output-dir", str(out)]) == 2
    assert "epsilon" in capsys.readouterr().err
    assert not out.exists()


def test_twoqubit_warns_of_leakage_once(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["twoqubit", "--eps-grid=-0.05,0,0.05",
                     "--output-dir", str(tmp_path / "o")]) == 0
    leaks = [w for w in caught
             if issubclass(w.category, RuntimeWarning) and "leakage" in str(w.message)]
    assert len(leaks) == 1


def test_twoqubit_nhqc_does_not_warn_of_leakage(tmp_path):
    # nhqc leaks 1.5e-4, under the 1% threshold; sr-nhqc leaks 0.026.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["twoqubit", "--scheme", "nhqc", "--eps-grid=0",
                     "--output-dir", str(tmp_path / "o")]) == 0
    assert not [w for w in caught if "leakage" in str(w.message)]


# Block 0 has no dispersive shift, so each of its distinct segments is one
# step of the summed drive, for the grid and for the leakage alike; only
# block 2 chains, one run per distinct sr-nhqc segment.
def test_twoqubit_chains_steps_on_block_2_only(tmp_path, monkeypatch):
    runs, real = [], evolve.scaled_final_unitaries

    def recorded(ham, tau, step, scales):
        times, finals = real(ham, tau, step, scales)
        runs.append((ham.h0, len(times) - 1))
        return times, finals

    monkeypatch.setattr(evolve, "scaled_final_unitaries", recorded)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["twoqubit", "--eps-grid=-0.05,0,0.05",
                     "--output-dir", str(tmp_path / "o")]) == 0
    assert [str(w.message)[:14] for w in caught
            if "leakage" in str(w.message)] == ["leakage 0.026 "]
    shift = model.dispersive_shift_hamiltonian(model.DispersiveSystemParams.from_mhz())
    assert [steps for _, steps in runs] == [1, 1, 1, 1, 690, 1380]
    for h0, steps in runs:
        assert np.array_equal(h0, shift[2] if steps > 1 else np.zeros((3, 3)))


@pytest.mark.parametrize("points", ["0", "-3"])
def test_sweep_without_points_exits_2(tmp_path, capsys, points):
    out = tmp_path / "o"
    assert main(["sweep-epsilon", "--gate", "X", "--points", points,
                 "--output-dir", str(out)]) == 2
    assert "points" in capsys.readouterr().err
    assert not out.exists()


# The summary names the epsilon whose P_g it prints: 0 when the grid
# holds it, else the first grid point.
@pytest.mark.parametrize("grid, label", [("0.1,0.1", "P_g(eps=0.1) 0.998803"),
                                         ("-0.1,0,0.1", "P_g(eps=0) 1.000000")],
                         ids=["no-zero", "zero"])
def test_twoqubit_summary_names_the_reported_epsilon(tmp_path, capsys, grid, label):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the default gate's leakage
        assert main(["twoqubit", f"--eps-grid={grid}", "--output-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith(label + " -> ")


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


# Both steps put every CNOT segment boundary on the grid, so each block's
# channel is a product of segment channels.  At 5 ns block 2's channel
# has a Choi eigenvalue of -2.8e-3 and no trace drift.  At 115 ns every
# 3- and 6-step segment run keeps its trace to round-off, which the
# product of block 2's RK4 maps (spectral radius 57) amplifies to 6e28.
@pytest.mark.parametrize("step, message", [(5, "Choi eigenvalue"), (115, "trace drift")])
def test_coarse_cnot_fidelity_step_exits_3_without_artifacts(tmp_path, capsys, step,
                                                              message):
    cfg = tmp_path / "device.cfg"
    cfg.write_text(f"step_2q_ns = {step}\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["--config", str(cfg), "twoqubit", "--eps-grid", "0", "--fidelity",
                     "--output-dir", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


# A step too fine for memory: at step_1q_ns = 1e-12 the time grid alone
# is 873 TiB.  The grid is stubbed to raise what numpy raises, so the
# test allocates nothing.
def test_out_of_memory_exits_3_without_artifacts(tmp_path, capsys, monkeypatch):
    def unallocatable(tau, step):
        raise MemoryError("Unable to allocate 873. TiB for an array with shape "
                          "(120000000000001,) and data type float64")

    monkeypatch.setattr(evolve, "_time_grid", unallocatable)
    out = tmp_path / "o"
    assert main(["simulate-gate", "--gate", "X", "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numerical failure: out of memory (Unable to allocate 873.")
    assert not out.exists()


# The same steps through the config: each is rejected at load, naming
# its key, before anything is allocated.  Without the cap, 1e-17 failed
# inside numpy with a message that named no key.
@pytest.mark.parametrize("key", ["step_1q_ns", "step_2q_ns"])
@pytest.mark.parametrize("value", [1e-17, 1e-12])
def test_step_too_fine_for_memory_exits_2_naming_the_key(tmp_path, capsys, key, value):
    cfg = tmp_path / "fine.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "simulate-gate", "--output-dir", str(out)]) == 2
    assert f"config error: key {key!r}: expected at most" in capsys.readouterr().err
    assert not out.exists()


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


def test_twoqubit_fidelity_reads_cavity_coherence(tmp_path, monkeypatch, capsys):
    seen = []

    def fake_fidelity(params, transmon_noise, cavity_t1_us, **kwargs):
        seen.append(cavity_t1_us)
        return 0.5

    monkeypatch.setattr(twoqubit, "cnot_state_fidelity", fake_fidelity)
    cfg = tmp_path / "device.cfg"
    cfg.write_text("cavity_t1_us = 100\nstep_2q_ns = 5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["--config", str(cfg), "twoqubit", "--eps-grid", "0", "--fidelity",
                     "--output-dir", str(tmp_path / "o")]) == 0
    assert seen == [100.0]
    # No result reads the cavity's T2*, so it is not a key.
    cfg.write_text("cavity_t2star_us = 80\n")
    assert main(["--config", str(cfg), "twoqubit", "--eps-grid", "0", "--fidelity",
                 "--output-dir", str(tmp_path / "o2")]) == 2
    assert "unknown key 'cavity_t2star_us'" in capsys.readouterr().err
    assert not (tmp_path / "o2").exists()


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
