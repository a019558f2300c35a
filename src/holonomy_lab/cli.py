"""Command-line front end.

Subcommands wrap the library one-to-one.  A command only computes: it
returns its artifacts as {file name: body} plus a summary line, and
`main` alone touches the filesystem.  Once the command has returned,
`main` writes the plain CSV/JSON artifacts into the configured output
directory and prints the summary, so nothing is written unless the
command succeeded.  A config file that cannot be read, a key outside
its domain, or an output directory that cannot be made or written,
exits 2 with a one-line message.  The flags that set a result are key
overrides applied to the loaded config: --scheme, --epsilon, --noise,
--seed, --theta/--phi/--gamma (theta_rad, phi_rad, gamma_rad) and
--gate, which sets the three angle keys.  So a command reads its inputs
from the config alone, and every output file starts with '#' comment
lines recording the package version and a hash of the full
configuration, flags included: any artifact can be traced back to the
exact run that produced it (strip leading '#' lines before feeding the
JSON files to a parser).

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure, an allocation that runs out of memory included.  Given the
same config (and, for `rb`, the same seed), every command is
deterministic and re-runs are byte-identical.  Only `rb`
draws random numbers, so only `rb` takes `--seed`.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__, cohfit, evolve, holonomy, qmath, rb, tomography, twoqubit
from .config import ConfigError, RunConfig, config_hash, default_config_text, load_config
from .pulses import (DEFAULT_TAU_TWO_QUBIT, NAMED_GATES, SCHEME_DYNAMICAL, SCHEME_SR,
                     SCHEMES, GateSpec, PulseSchedule, apply_rabi_error, build_schedule)
from .tomography import ASSIGNMENT_DEFAULT


# What a command returns: {file name: body} and its summary line.
Artifacts = tuple[dict[str, str], str]


def _json_body(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _to(cfg: RunConfig, name: str) -> str:
    """The ' -> path' tail of a summary line naming an artifact."""
    return f" -> {Path(cfg.output_dir) / name}"


def _gate_schedule(cfg: RunConfig) -> tuple[GateSpec, float, PulseSchedule]:
    """(gate, duration, schedule) of the configured gate and scheme."""
    gate, tau = cfg.gate(), cfg.tau_ns(cfg.scheme)
    return gate, tau, build_schedule(gate, cfg.scheme, tau)


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """The config with every flag given; a flag left off keeps the config's value.

    A flag's dest is the key it sets, and --gate sets the three angle keys.
    """
    updates = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    if getattr(args, "gate", None):
        gate = NAMED_GATES[args.gate]
        updates.update(theta_rad=gate.theta, phi_rad=gate.phi, gamma_rad=gate.gamma)
    return replace(cfg, **{k: v for k, v in updates.items() if v is not None})


# ---------------------------------------------------------------- commands


def cmd_simulate_gate(cfg: RunConfig, args: argparse.Namespace) -> Artifacts:
    gate, tau, schedule = _gate_schedule(cfg)
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
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    rows = holonomy.robustness_sweep(cfg.gate(), cfg.scheme,
                                     np.linspace(args.eps_min, args.eps_max, args.points),
                                     cfg.step_1q_ns, cfg.tau_ns(cfg.scheme))
    return ({"sweep.csv": holonomy.sweep_to_csv(rows)},
            f"{len(rows)} points" + _to(cfg, "sweep.csv"))


def cmd_dynphase(cfg: RunConfig, args: argparse.Namespace) -> Artifacts:
    gate, _, schedule = _gate_schedule(cfg)
    rec = holonomy.phase_record(schedule, step=cfg.step_1q_ns)
    # The named gate whose angles the config holds, however they were set.
    name = next((key for key, named in NAMED_GATES.items() if named == gate), None)
    payload = {
        "scheme": cfg.scheme, "gate": name,
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
    gate, _, schedule = _gate_schedule(cfg)
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
    fits = {"reference": rb.rb_fit_payload(ref)}
    summary = f"F_ref {ref.f_ref:.6f}"
    if args.interleaved:
        inter = rb.run_rb(factory, n_seqs=args.n_seqs, seed=cfg.seed,
                          interleaved=args.interleaved)
        files["rb_interleaved.csv"] = rb.rb_to_csv(inter)
        fits["interleaved"] = {**rb.rb_fit_payload(inter),
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
    # No artifact reads the gate on the photonic-qubit Fock blocks 0 and 2,
    # each the product of its distinct segments' propagators; it is built
    # for its leakage warning.
    twoqubit.build_two_qubit_gate(twoqubit.CNOT_GATE, scheme, tau, params, cfg.step_2q_ns)
    payload = {"scheme": scheme, "tau_ns": tau,
               "robustness": [{"epsilon": r.epsilon, "P_g": r.p_g,
                               "P_e": r.p_e, "P_f": r.p_f} for r in rows]}
    if args.fidelity:
        payload["cnot_state_fidelity"] = twoqubit.cnot_state_fidelity(
            params, cfg.noise_model(), cfg.cavity_t1_us, scheme=scheme, tau=tau,
            step=cfg.step_2q_ns)
    # P_g at epsilon = 0, or at the first grid point if 0 is not on the grid.
    row = next((r for r in rows if r.epsilon == 0.0), rows[0])
    return ({"cnot_robustness.csv": twoqubit.robustness_to_csv(rows),
             "twoqubit.json": _json_body(payload)},
            f"P_g(eps={row.epsilon:g}) {row.p_g:.6f}" + _to(cfg, "twoqubit.json"))


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
        if name in ("simulate-gate", "sweep-epsilon", "dynphase", "qpt"):
            p.add_argument("--scheme", choices=SCHEMES, default=None)
        if name == "twoqubit":
            # There is no dynamical two-qubit gate.  A config's scheme key
            # also picks the 1Q commands' scheme, so there dynamical is
            # legal and twoqubit falls back to sr-nhqc.
            p.add_argument("--scheme", choices=tuple(DEFAULT_TAU_TWO_QUBIT), default=None,
                           help="two-qubit scheme; a config file's scheme = dynamical "
                                "runs sr-nhqc")
        if name in ("simulate-gate", "sweep-epsilon", "dynphase", "qpt"):
            p.add_argument("--gate", choices=sorted(NAMED_GATES),
                           help="named gate; overrides --theta/--phi/--gamma")
            for angle in ("theta", "phi", "gamma"):
                p.add_argument(f"--{angle}", dest=f"{angle}_rad", type=float, default=None)
        if name == "simulate-gate":
            p.add_argument("--epsilon", type=float, default=None)
            p.add_argument("--noise", action="store_true", default=None)
        if name == "sweep-epsilon":
            p.add_argument("--eps-min", type=float, default=-0.2)
            p.add_argument("--eps-max", type=float, default=0.2)
            p.add_argument("--points", type=int, default=41)
        if name == "qpt":
            p.add_argument("--noise", action="store_true", default=None)
            p.add_argument("--readout", action="store_true",
                           help="simulate through the assignment matrix")
        if name == "rb":
            p.add_argument("--seed", type=int, default=None)
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
        artifacts, summary = args.func(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # LinAlgError subclasses ValueError, so it is caught first.
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    # A time grid too fine for memory: numpy names the array it could not
    # allocate.
    except MemoryError as exc:
        print(f"numerical failure: out of memory ({exc})", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    outdir = Path(cfg.output_dir)
    header = f"# holonomy-lab {__version__}\n# config {config_hash(cfg)}\n"
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, body in artifacts.items():
            (outdir / name).write_text(header + body)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
