"""Command-line front end.

Subcommands wrap the library one-to-one.  A command only computes: it
returns its artifacts as {file name: body} plus a summary line, and
`main` alone touches the filesystem.  Once the command has returned,
`main` writes the plain CSV/JSON artifacts into the configured output
directory and prints the summary, so nothing is written unless the exit
code is 0.  Every output file starts with '#' comment lines recording
the package version and a hash of the full configuration, so any
artifact can be traced back to the exact run that produced it (strip
leading '#' lines before feeding the JSON files to a parser).

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure.  Given the same config and seed, every command is
deterministic and re-runs are byte-identical.  The HOLONOMY_LAB_THREADS
environment variable is validated (a positive integer, else exit 2)
but sizes nothing: every command runs in one thread.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__, cohfit, evolve, holonomy, qmath, rb, tomography, twoqubit
from .config import ConfigError, RunConfig, config_hash, default_config_text, load_config
from .pulses import (NAMED_GATES, SCHEME_DYNAMICAL, SCHEME_SR, SCHEMES, GateSpec,
                     PulseSchedule, apply_rabi_error, build_schedule)
from .tomography import ASSIGNMENT_DEFAULT


def _check_thread_env() -> None:
    env = os.environ.get("HOLONOMY_LAB_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError as exc:
            raise ConfigError("HOLONOMY_LAB_THREADS must be an integer") from exc
        if n < 1:
            raise ConfigError("HOLONOMY_LAB_THREADS must be >= 1")


# What a command returns: {file name: body} and its summary line.
Artifacts = tuple[dict[str, str], str]


def _json_body(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _to(cfg: RunConfig, name: str) -> str:
    """The ' -> path' tail of a summary line naming an artifact."""
    return f" -> {Path(cfg.output_dir) / name}"


def _gate_from(cfg: RunConfig, args: argparse.Namespace) -> GateSpec:
    name = getattr(args, "gate", None)
    if name:
        return NAMED_GATES[name]
    theta = cfg.theta_rad if args.theta is None else args.theta
    phi = cfg.phi_rad if args.phi is None else args.phi
    gamma = cfg.gamma_rad if args.gamma is None else args.gamma
    return GateSpec(theta, phi, gamma)


def _gate_schedule(cfg: RunConfig, args: argparse.Namespace
                   ) -> tuple[GateSpec, float, PulseSchedule]:
    """(gate, duration, schedule) of the gate flags in the configured scheme."""
    gate, tau = _gate_from(cfg, args), cfg.tau_ns(cfg.scheme)
    return gate, tau, build_schedule(gate, cfg.scheme, tau)


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """The config with every flag given; a flag left off keeps the config's value."""
    updates = {key: getattr(args, key, None) for key in ("scheme", "seed", "output_dir",
                                                        "epsilon")}
    updates["noise"] = getattr(args, "noise", False) or None
    return replace(cfg, **{k: v for k, v in updates.items() if v is not None})


# ---------------------------------------------------------------- commands


def cmd_simulate_gate(cfg: RunConfig, args: argparse.Namespace) -> Artifacts:
    gate, tau, schedule = _gate_schedule(cfg, args)
    payload = {"scheme": cfg.scheme, "theta": gate.theta, "phi": gate.phi,
               "gamma": gate.gamma, "epsilon": cfg.epsilon, "tau_ns": tau,
               "noise": cfg.noise}
    if cfg.noise:
        trace, channel = evolve.propagate_superoperator(schedule, cfg.noise_model(),
                                                        cfg.step_1q_ns)
        payload["avg_gate_error"] = cohfit.channel_average_gate_error(channel, gate)
        payload["fidelity"] = 1.0 - payload["avg_gate_error"]
    else:
        trace = evolve.propagate_unitary(apply_rabi_error(schedule, cfg.epsilon),
                                         cfg.step_1q_ns)
        payload["fidelity"] = holonomy.gate_fidelity(trace.final_unitary, gate)
    payload["analytic_fidelity"] = holonomy.analytic_fidelity(gate.gamma, cfg.epsilon)
    return ({"trace.csv": evolve.trace_to_csv(trace), "fidelity.json": _json_body(payload)},
            f"fidelity {payload['fidelity']:.6f}" + _to(cfg, "fidelity.json"))


def cmd_sweep_epsilon(cfg: RunConfig, args: argparse.Namespace) -> Artifacts:
    rows = holonomy.robustness_sweep(_gate_from(cfg, args), cfg.scheme,
                                     np.linspace(args.eps_min, args.eps_max, args.points),
                                     cfg.step_1q_ns, cfg.tau_ns(cfg.scheme))
    return ({"sweep.csv": holonomy.sweep_to_csv(rows)},
            f"{len(rows)} points" + _to(cfg, "sweep.csv"))


def cmd_dynphase(cfg: RunConfig, args: argparse.Namespace) -> Artifacts:
    _, _, schedule = _gate_schedule(cfg, args)
    rec = holonomy.phase_record(schedule, step=cfg.step_1q_ns)
    payload = {
        "scheme": cfg.scheme, "gate": getattr(args, "gate", None),
        "D11_rad": rec.D11, "D22_rad": rec.D22,
        "D12_re_rad": rec.D12.real, "D12_im_rad": rec.D12.imag,
        "D12_abs_over_pi": abs(rec.D12) / np.pi,
        "D11_over_pi": rec.D11 / np.pi, "D22_over_pi": rec.D22 / np.pi,
        "dark_coupling_max": rec.dark_max,
    }
    return ({"dynphase.csv": holonomy.phase_record_to_csv(rec),
             "dynphase.json": _json_body(payload)},
            f"D11/pi {payload['D11_over_pi']:+.4f}  D22/pi {payload['D22_over_pi']:+.4f}  "
            f"|D12|/pi {payload['D12_abs_over_pi']:.4f}")


def cmd_qpt(cfg: RunConfig, args: argparse.Namespace) -> Artifacts:
    gate, _, schedule = _gate_schedule(cfg, args)
    sup = evolve.gate_channel(schedule, cfg.noise_model() if cfg.noise else None,
                              cfg.step_1q_ns)
    chi = tomography.qpt(sup, ASSIGNMENT_DEFAULT if args.readout else None)
    fid = tomography.process_fidelity(chi, gate.target_unitary())
    return ({"chi.csv": tomography.chi_to_csv(chi), "qpt.json": _json_body({
        "process_fidelity": fid, "noise": cfg.noise,
        "readout_model": bool(args.readout), "chi": tomography.chi_to_json(chi)})},
            f"process fidelity {fid:.6f}" + _to(cfg, "qpt.json"))


def cmd_rb(cfg: RunConfig, args: argparse.Namespace) -> Artifacts:
    factory = rb.default_channel_factory(cfg.noise_model(), cfg.tau_sr_ns, cfg.step_1q_ns)
    ref = rb.run_rb(factory, n_seqs=args.n_seqs, seed=cfg.seed)
    files = {"rb_reference.csv": rb.rb_to_csv(ref)}
    fits = {"reference": json.loads(rb.rb_fit_json(ref))}
    summary = f"F_ref {ref.f_ref:.6f}"
    if args.interleaved:
        inter = rb.run_rb(factory, n_seqs=args.n_seqs, seed=cfg.seed,
                          interleaved=args.interleaved)
        files["rb_interleaved.csv"] = rb.rb_to_csv(inter)
        fits["interleaved"] = {**json.loads(rb.rb_fit_json(inter)),
                               "F_gate": rb.interleaved_gate_fidelity(ref, inter)}
        summary += f"  F_gate({args.interleaved}) {fits['interleaved']['F_gate']:.6f}"
    files["rb_fit.json"] = _json_body(fits)
    return files, summary + _to(cfg, "rb_fit.json")


def cmd_twoqubit(cfg: RunConfig, args: argparse.Namespace) -> Artifacts:
    params = cfg.dispersive_params()
    scheme = cfg.scheme if cfg.scheme != SCHEME_DYNAMICAL else SCHEME_SR
    tau = cfg.tau_ns(scheme, two_qubit=True)
    grid = [float(x) for x in args.eps_grid.split(",")]
    rows = twoqubit.cnot_robustness(grid, scheme, tau, cfg.step_2q_ns)
    # No artifact reads the 12x12 gate; it is built once for its leakage warning.
    twoqubit.build_two_qubit_gate(twoqubit.CNOT_GATE, scheme, tau, params, step=cfg.step_2q_ns)
    payload = {"scheme": scheme, "tau_ns": tau,
               "robustness": [{"epsilon": r.epsilon, "P_g": r.p_g,
                               "P_e": r.p_e, "P_f": r.p_f} for r in rows]}
    if args.fidelity:
        cavity = twoqubit.CavityNoise(cfg.cavity_t1_us, cfg.cavity_t2star_us)
        payload["cnot_state_fidelity"] = twoqubit.cnot_state_fidelity(
            params, cfg.noise_model(), cavity, scheme=scheme, tau=tau,
            step=cfg.step_2q_ns)
    pg0 = next(r.p_g for r in rows if r.epsilon == 0.0) if 0.0 in grid else rows[0].p_g
    return ({"cnot_robustness.csv": twoqubit.robustness_to_csv(rows),
             "twoqubit.json": _json_body(payload)},
            f"P_g(eps=0) {pg0:.6f}" + _to(cfg, "twoqubit.json"))


def cmd_budget(cfg: RunConfig, args: argparse.Namespace) -> Artifacts:
    noise = cfg.noise_model()
    rows = [
        ("single_qubit_sr", cfg.tau_sr_ns),
        ("single_qubit_nhqc", cfg.tau_nhqc_ns),
        ("single_qubit_dynamical", cfg.tau_dynamical_ns),
        ("two_qubit_sr", cfg.tau_2q_sr_ns),
        ("two_qubit_nhqc", cfg.tau_2q_nhqc_ns),
    ]
    body = qmath.csv_text(["label", "tau_ns", "e_coherence"], "%s,%.6g,%.4f",
                          [(label, tau, cohfit.coherence_limited_error(noise, tau))
                           for label, tau in rows])
    return {"budget.csv": body}, f"{len(rows)} rows" + _to(cfg, "budget.csv")


# --------------------------------------------------------------- plumbing


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: parse_args leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="holonomy-lab",
        description="Pulse-level simulator for superrobust holonomic control")
    parser.add_argument("--version", action="version",
                        version=f"holonomy-lab {__version__}")
    parser.add_argument("--config", type=str, default=None,
                        help="path to a flat key=value config file")
    parser.add_argument("--print-config", action="store_true",
                        help="print the annotated default config and exit")
    sub = parser.add_subparsers(dest="command")

    for name, func in (("simulate-gate", cmd_simulate_gate),
                       ("sweep-epsilon", cmd_sweep_epsilon),
                       ("dynphase", cmd_dynphase),
                       ("qpt", cmd_qpt),
                       ("rb", cmd_rb),
                       ("twoqubit", cmd_twoqubit),
                       ("budget", cmd_budget)):
        p = sub.add_parser(name, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=func)
        p.add_argument("--output-dir", dest="output_dir", default=None)
        p.add_argument("--seed", type=int, default=None)
        if name in ("simulate-gate", "sweep-epsilon", "dynphase", "qpt",
                    "twoqubit"):
            p.add_argument("--scheme", choices=SCHEMES, default=None)
        if name in ("simulate-gate", "sweep-epsilon", "dynphase", "qpt"):
            p.add_argument("--gate", choices=sorted(NAMED_GATES),
                           help="named gate; overrides --theta/--phi/--gamma")
            for angle in ("--theta", "--phi", "--gamma"):
                p.add_argument(angle, type=_finite_float, default=None)
        if name == "simulate-gate":
            p.add_argument("--epsilon", type=float, default=None)
            p.add_argument("--noise", action="store_true")
        if name == "sweep-epsilon":
            p.add_argument("--eps-min", type=float, default=-0.2)
            p.add_argument("--eps-max", type=float, default=0.2)
            p.add_argument("--points", type=int, default=41)
        if name == "qpt":
            p.add_argument("--noise", action="store_true")
            p.add_argument("--readout", action="store_true",
                           help="simulate through the assignment matrix")
        if name == "rb":
            p.add_argument("--interleaved", choices=sorted(NAMED_GATES), default=None)
            p.add_argument("--n-seqs", type=int, default=50)
        if name == "twoqubit":
            p.add_argument("--eps-grid", default="-0.1,-0.05,0,0.05,0.1",
                           help="comma-separated epsilon values")
            # A grid like -0.05,0,0.05 is a value, not an unknown option.
            p._negative_number_matcher = re.compile(r"^-\.?\d")
            p.add_argument("--fidelity", action="store_true",
                           help="also run the open-system CNOT fidelity")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_config:
        print(default_config_text())
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        cfg = _apply_overrides(cfg, args)
        _check_thread_env()
        artifacts, summary = args.func(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # LinAlgError subclasses ValueError, so it is caught first.
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    header = f"# holonomy-lab {__version__}\n# config {config_hash(cfg)}\n"
    for name, body in artifacts.items():
        (outdir / name).write_text(header + body)
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
