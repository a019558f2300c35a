"""Command-line front end.

Subcommands wrap the library one-to-one and write plain CSV/JSON
artifacts into the configured output directory.  Every output file
starts with '#' comment lines recording the package version and a hash
of the full configuration, so any artifact can be traced back to the
exact run that produced it (strip leading '#' lines before feeding the
JSON files to a parser).

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
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__, cohfit, evolve, holonomy, qmath, rb, tomography, twoqubit
from .config import ConfigError, RunConfig, config_hash, default_config_text, load_config
from .pulses import (NAMED_GATES, SCHEME_DYNAMICAL, SCHEME_SR, SCHEMES, GateSpec,
                     apply_rabi_error, build_schedule)
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


def _write(outdir: Path, name: str, body: str, cfg: RunConfig) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text(f"# holonomy-lab {__version__}\n# config {config_hash(cfg)}\n" + body)
    return path


def _json_body(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _gate_from(cfg: RunConfig, args: argparse.Namespace) -> GateSpec:
    name = getattr(args, "gate", None)
    if name:
        return NAMED_GATES[name]
    theta = cfg.theta_rad if args.theta is None else args.theta
    phi = cfg.phi_rad if args.phi is None else args.phi
    gamma = cfg.gamma_rad if args.gamma is None else args.gamma
    return GateSpec(theta, phi, gamma)


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates = {}
    for attr, key in (("scheme", "scheme"), ("seed", "seed"),
                      ("output_dir", "output_dir"), ("epsilon", "epsilon")):
        val = getattr(args, attr, None)
        if val is not None:
            updates[key] = val
    if getattr(args, "noise", False):
        updates["noise"] = True
    return replace(cfg, **updates) if updates else cfg


# ---------------------------------------------------------------- commands


def cmd_simulate_gate(cfg: RunConfig, args: argparse.Namespace) -> int:
    gate = _gate_from(cfg, args)
    scheme = cfg.scheme
    tau = cfg.tau_ns(scheme)
    schedule = build_schedule(gate, scheme, tau)
    outdir = Path(cfg.output_dir)

    payload = {"scheme": scheme, "theta": gate.theta, "phi": gate.phi,
               "gamma": gate.gamma, "epsilon": cfg.epsilon, "tau_ns": tau,
               "noise": cfg.noise}
    if cfg.noise:
        noise = cfg.noise_model()
        trace, channel = evolve.propagate_superoperator(schedule, noise, cfg.step_1q_ns)
        payload["avg_gate_error"] = cohfit.channel_average_gate_error(channel, gate)
        payload["fidelity"] = 1.0 - payload["avg_gate_error"]
    else:
        trace = evolve.propagate_unitary(apply_rabi_error(schedule, cfg.epsilon),
                                         cfg.step_1q_ns)
        payload["fidelity"] = holonomy.gate_fidelity(trace.final_unitary, gate)
    payload["analytic_fidelity"] = holonomy.analytic_fidelity(gate.gamma, cfg.epsilon)

    _write(outdir, "trace.csv", evolve.trace_to_csv(trace), cfg)
    _write(outdir, "fidelity.json", _json_body(payload), cfg)
    print(f"fidelity {payload['fidelity']:.6f} -> {outdir}/fidelity.json")
    return 0


def cmd_sweep_epsilon(cfg: RunConfig, args: argparse.Namespace) -> int:
    gate = _gate_from(cfg, args)
    scheme = cfg.scheme
    tau = cfg.tau_ns(scheme)
    rows = holonomy.robustness_sweep(gate, scheme,
                                     np.linspace(args.eps_min, args.eps_max, args.points),
                                     cfg.step_1q_ns, tau)
    path = _write(Path(cfg.output_dir), "sweep.csv",
                  holonomy.sweep_to_csv(rows), cfg)
    print(f"{len(rows)} points -> {path}")
    return 0


def cmd_dynphase(cfg: RunConfig, args: argparse.Namespace) -> int:
    gate = _gate_from(cfg, args)
    scheme = cfg.scheme
    schedule = build_schedule(gate, scheme, cfg.tau_ns(scheme))
    rec = holonomy.phase_record(schedule, step=cfg.step_1q_ns)
    payload = {
        "scheme": scheme, "gate": getattr(args, "gate", None),
        "D11_rad": rec.D11, "D22_rad": rec.D22,
        "D12_re_rad": rec.D12.real, "D12_im_rad": rec.D12.imag,
        "D12_abs_over_pi": abs(rec.D12) / np.pi,
        "D11_over_pi": rec.D11 / np.pi, "D22_over_pi": rec.D22 / np.pi,
        "dark_coupling_max": rec.dark_max,
    }
    outdir = Path(cfg.output_dir)
    _write(outdir, "dynphase.csv", holonomy.phase_record_to_csv(rec), cfg)
    _write(outdir, "dynphase.json", _json_body(payload), cfg)
    print(f"D11/pi {payload['D11_over_pi']:+.4f}  D22/pi {payload['D22_over_pi']:+.4f}  "
          f"|D12|/pi {payload['D12_abs_over_pi']:.4f}")
    return 0


def cmd_qpt(cfg: RunConfig, args: argparse.Namespace) -> int:
    gate = _gate_from(cfg, args)
    scheme = cfg.scheme
    schedule = build_schedule(gate, scheme, cfg.tau_ns(scheme))
    noise = cfg.noise_model() if cfg.noise else None
    sup = evolve.gate_channel(schedule, noise, cfg.step_1q_ns)
    readout = ASSIGNMENT_DEFAULT if args.readout else None
    chi = tomography.qpt(sup, readout)
    fid = tomography.process_fidelity(chi, gate.target_unitary())
    outdir = Path(cfg.output_dir)
    _write(outdir, "chi.csv", tomography.chi_to_csv(chi), cfg)
    _write(outdir, "qpt.json", _json_body({
        "process_fidelity": fid, "noise": cfg.noise,
        "readout_model": bool(args.readout), "chi": tomography.chi_to_json(chi),
    }), cfg)
    print(f"process fidelity {fid:.6f} -> {outdir}/qpt.json")
    return 0


def cmd_rb(cfg: RunConfig, args: argparse.Namespace) -> int:
    noise = cfg.noise_model()
    factory = rb.default_channel_factory(noise, cfg.tau_sr_ns, cfg.step_1q_ns)
    ref = rb.run_rb(factory, n_seqs=args.n_seqs, seed=cfg.seed)
    outdir = Path(cfg.output_dir)
    _write(outdir, "rb_reference.csv", rb.rb_to_csv(ref), cfg)
    payloads = {"reference": json.loads(rb.rb_fit_json(ref))}
    if args.interleaved:
        inter = rb.run_rb(factory, n_seqs=args.n_seqs, seed=cfg.seed,
                          interleaved=args.interleaved)
        f_gate = rb.interleaved_gate_fidelity(ref, inter)
        _write(outdir, "rb_interleaved.csv", rb.rb_to_csv(inter), cfg)
        d = json.loads(rb.rb_fit_json(inter))
        d["F_gate"] = f_gate
        payloads["interleaved"] = d
    _write(outdir, "rb_fit.json", _json_body(payloads), cfg)
    msg = f"F_ref {ref.f_ref:.6f}"
    if args.interleaved:
        msg += f"  F_gate({args.interleaved}) {payloads['interleaved']['F_gate']:.6f}"
    print(msg + f" -> {outdir}/rb_fit.json")
    return 0


def cmd_twoqubit(cfg: RunConfig, args: argparse.Namespace) -> int:
    params = cfg.dispersive_params()
    scheme = cfg.scheme if cfg.scheme != SCHEME_DYNAMICAL else SCHEME_SR
    tau = cfg.tau_ns(scheme, two_qubit=True)
    outdir = Path(cfg.output_dir)
    grid = [float(x) for x in args.eps_grid.split(",")] if args.eps_grid else \
        [-0.1, -0.05, 0.0, 0.05, 0.1]
    rows = twoqubit.cnot_robustness(grid, scheme, tau, cfg.step_2q_ns)
    # No artifact reads the 12x12 gate; it is built once for its leakage warning.
    twoqubit.build_two_qubit_gate(twoqubit.CNOT_GATE, scheme, tau, params, step=cfg.step_2q_ns)
    _write(outdir, "cnot_robustness.csv", twoqubit.robustness_to_csv(rows), cfg)
    payload = {"scheme": scheme, "tau_ns": tau,
               "robustness": [{"epsilon": r.epsilon, "P_g": r.p_g,
                               "P_e": r.p_e, "P_f": r.p_f} for r in rows]}
    if args.fidelity:
        cavity = twoqubit.CavityNoise(cfg.cavity_t1_us, cfg.cavity_t2star_us)
        payload["cnot_state_fidelity"] = twoqubit.cnot_state_fidelity(
            params, cfg.noise_model(), cavity, scheme=scheme, tau=tau,
            step=cfg.step_2q_ns)
    _write(outdir, "twoqubit.json", _json_body(payload), cfg)
    pg0 = next(r.p_g for r in rows if r.epsilon == 0.0) if 0.0 in grid else rows[0].p_g
    print(f"P_g(eps=0) {pg0:.6f} -> {outdir}/twoqubit.json")
    return 0


def cmd_budget(cfg: RunConfig, args: argparse.Namespace) -> int:
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
    path = _write(Path(cfg.output_dir), "budget.csv", body, cfg)
    print(f"{len(rows)} rows -> {path}")
    return 0


# --------------------------------------------------------------- plumbing


def _add_gate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gate", choices=sorted(NAMED_GATES),
                   help="named gate; overrides --theta/--phi/--gamma")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--phi", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)


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

    common = dict(formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    for name, func in (("simulate-gate", cmd_simulate_gate),
                       ("sweep-epsilon", cmd_sweep_epsilon),
                       ("dynphase", cmd_dynphase),
                       ("qpt", cmd_qpt),
                       ("rb", cmd_rb),
                       ("twoqubit", cmd_twoqubit),
                       ("budget", cmd_budget)):
        p = sub.add_parser(name, **common)
        p.set_defaults(func=func)
        p.add_argument("--output-dir", dest="output_dir", default=None)
        p.add_argument("--seed", type=int, default=None)
        if name in ("simulate-gate", "sweep-epsilon", "dynphase", "qpt",
                    "twoqubit"):
            p.add_argument("--scheme", choices=SCHEMES, default=None)
        if name in ("simulate-gate", "sweep-epsilon", "dynphase", "qpt"):
            _add_gate_flags(p)
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
            p.add_argument("--eps-grid", type=str, default=None,
                           help="comma-separated epsilon values")
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
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
