"""Workload task lists, result fingerprints and correctness checks.

A workload is a list of CLI invocations made from the seed alone.  After
each invocation the benchmark reads the artifacts back, extracts named
numbers (the fingerprint) and checks them two ways: against the stored
reference values for the same task, and against physical invariants
that hold for every seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

DEFAULT_SEED = 0
SCHEMES = ("sr-nhqc", "nhqc", "dynamical")

# Absolute tolerances against the stored reference.  Every acceptance
# band in the test suite is 1e-3 or wider; these catch any wrong result
# while leaving room for a different but converged integrator.
FINGERPRINT_TOL = 1e-6
RB_FIT_TOL = 1e-5  # p, F_ref, F_gate come out of a nonlinear fit

# Invariants checked on every seed.
IDEAL_INFIDELITY_MAX = 1e-6
ANALYTIC_GAP_MAX = 1e-3
SR_PHASE_MAX = 0.01 * math.pi
CNOT_PG_MIN = 0.99


@dataclass(frozen=True)
class Task:
    kind: str      # end-to-end timing group, e.g. "sweep_epsilon"
    label: str     # identity of the inputs, the key into the reference
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    tasks: tuple[Task, ...]
    # (task index, task index, file): artifacts that must be byte-identical
    same_artifacts: tuple[tuple[int, int, str], ...] = ()


def _task(kind: str, *argv: str, label: Optional[str] = None) -> Task:
    return Task(kind, label or " ".join(argv), tuple(argv))


def drawn_gate(seed: int) -> tuple[str, str, str]:
    """(theta, phi, gamma) as CLI strings, from the acceptance grid's ranges."""
    rng = random.Random(seed)
    return (f"{rng.uniform(0.1 * math.pi, 0.9 * math.pi):.6f}",
            f"{rng.uniform(0.0, 2.0 * math.pi):.6f}",
            f"{rng.uniform(0.2 * math.pi, 1.8 * math.pi):.6f}")


def drawn_eps_grid(seed: int) -> str:
    """Five sorted Rabi errors in [-0.1, 0.1], always including 0."""
    rng = random.Random(seed)
    values = {"0"}
    while len(values) < 5:
        x = f"{rng.uniform(-0.1, 0.1):.4f}"
        if float(x) != 0.0:
            values.add(x)
    return ",".join(sorted(values, key=float))


def closed_1q(seed: int) -> Workload:
    theta, phi, gamma = drawn_gate(seed)
    gates = (("--gate", "X"), ("--theta", theta, "--phi", phi, "--gamma", gamma))
    tasks = []
    for scheme in SCHEMES:
        for gate in gates:
            common = ("--scheme", scheme, *gate)
            tasks += [_task("simulate_gate", "simulate-gate", *common, "--epsilon", "0.1"),
                      _task("sweep_epsilon", "sweep-epsilon", *common),
                      _task("dynphase", "dynphase", *common)]
    return Workload("closed_1q", tuple(tasks))


def open_1q(seed: int) -> Workload:
    tasks = (_task("simulate_gate_noise", "simulate-gate", "--noise", "--gate", "X"),
             _task("qpt", "qpt", "--noise", "--readout", "--gate", "X"),
             _task("qpt", "qpt", "--noise", "--readout", "--gate", "Y/2"),
             _task("rb", "rb", "--interleaved", "X", "--seed", str(seed)))
    return Workload("open_1q", tasks)


def cavity_cnot(seed: int) -> Workload:
    grid = f"--eps-grid={drawn_eps_grid(seed)}"
    tasks = (_task("twoqubit", "twoqubit", grid, label="twoqubit"),
             _task("twoqubit_fidelity", "twoqubit", grid, "--fidelity",
                   label="twoqubit --fidelity"))
    return Workload("cavity_cnot", tasks, same_artifacts=((0, 1, "cnot_robustness.csv"),))


WORKLOADS = {"closed_1q": closed_1q, "open_1q": open_1q, "cavity_cnot": cavity_cnot}


# ------------------------------------------------------------ fingerprints


def _read(path: Path) -> str:
    return "".join(line for line in path.read_text().splitlines(keepends=True)
                   if not line.startswith("#"))


def _json(outdir: Path, name: str) -> dict:
    return json.loads(_read(outdir / name))


def _csv(outdir: Path, name: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(_read(outdir / name))))


def _rows(rows: list[dict], key: str, columns: tuple[str, ...]) -> dict[str, float]:
    return {f"{c}@{r[key]}": float(r[c]) for r in rows for c in columns}


def fingerprint(task: Task, outdir: Path) -> dict[str, float]:
    """Named result numbers of one finished task, read from its artifacts."""
    cmd = task.argv[0]
    if cmd == "simulate-gate":
        fid = _json(outdir, "fidelity.json")
        last = _csv(outdir, "trace.csv")[-1]
        out = {k: float(fid[k]) for k in ("fidelity", "analytic_fidelity")}
        out.update({f"final_{c}": float(v) for c, v in last.items() if c != "t_ns"})
        if "avg_gate_error" in fid:
            out["avg_gate_error"] = float(fid["avg_gate_error"])
        return out
    if cmd == "sweep-epsilon":
        return _rows(_csv(outdir, "sweep.csv"), "epsilon", ("F_sim", "F_analytic"))
    if cmd == "dynphase":
        rec = _json(outdir, "dynphase.json")
        return {k: float(rec[k]) for k in ("D11_rad", "D22_rad", "D12_re_rad",
                                           "D12_im_rad", "dark_coupling_max")}
    if cmd == "qpt":
        rec = _json(outdir, "qpt.json")
        out = {"process_fidelity": float(rec["process_fidelity"])}
        full = rec["chi"]["full"]
        for part in ("re", "im"):
            for i, row in enumerate(full[part]):
                out.update({f"chi_{part}[{i},{j}]": float(x) for j, x in enumerate(row)})
        return out
    if cmd == "rb":
        fit = _json(outdir, "rb_fit.json")
        out = {f"reference.{k}": float(fit["reference"][k]) for k in ("p", "F_ref")}
        out.update({f"interleaved.{k}": float(fit["interleaved"][k])
                    for k in ("p", "F_gate")})
        out.update(_rows(_csv(outdir, "rb_reference.csv"), "m", ("mean_Pg",)))
        return out
    if cmd == "twoqubit":
        out = _rows(_csv(outdir, "cnot_robustness.csv"), "epsilon", ("P_g", "P_e", "P_f"))
        payload = _json(outdir, "twoqubit.json")
        if "cnot_state_fidelity" in payload:
            out["cnot_state_fidelity"] = float(payload["cnot_state_fidelity"])
        return out
    raise ValueError(f"no fingerprint for command {cmd!r}")


def tolerance(key: str) -> float:
    return RB_FIT_TOL if key.split(".")[-1] in ("p", "F_ref", "F_gate") else FINGERPRINT_TOL


def compare(values: dict[str, float], reference: Optional[dict[str, float]],
            full: bool) -> list[str]:
    """Mismatches against the stored reference of the same task.

    Values without a stored counterpart are skipped, unless full is set
    (the default seed), where both key sets must agree exactly.
    """
    if reference is None:
        return ["no stored reference"] if full else []
    problems = []
    if full and set(values) != set(reference):
        problems.append(f"fingerprint keys differ: {sorted(set(values) ^ set(reference))[:4]}")
    for key in sorted(set(values) & set(reference)):
        gap = abs(values[key] - reference[key])
        if not gap <= tolerance(key):
            problems.append(f"{key} = {values[key]!r}, reference {reference[key]!r}")
    return problems


def invariants(task: Task, values: dict[str, float]) -> list[str]:
    """Physics checks that hold for every seed."""
    problems = []
    argv = task.argv
    scheme = argv[argv.index("--scheme") + 1] if "--scheme" in argv else "sr-nhqc"
    if task.kind == "sweep_epsilon":
        ideal = [f for key, f in values.items()
                 if key.startswith("F_sim@") and abs(float(key[6:])) < 1e-12]
        if len(ideal) != 1 or not 1.0 - ideal[0] < IDEAL_INFIDELITY_MAX:
            problems.append(f"{scheme} infidelity at eps=0: {[1.0 - f for f in ideal]}")
        if scheme == "sr-nhqc":
            gaps = [abs(f - values["F_analytic@" + key[6:]])
                    for key, f in values.items() if key.startswith("F_sim@")]
            if not max(gaps) < ANALYTIC_GAP_MAX:
                problems.append(f"sr-nhqc analytic-law gap {max(gaps):.3e}")
    if task.kind == "simulate_gate" and scheme == "sr-nhqc":
        gap = abs(values["fidelity"] - values["analytic_fidelity"])
        if not gap < ANALYTIC_GAP_MAX:
            problems.append(f"sr-nhqc analytic-law gap {gap:.3e}")
    if task.kind == "dynphase" and scheme == "sr-nhqc":
        biggest = max(abs(values["D11_rad"]), abs(values["D22_rad"]),
                      math.hypot(values["D12_re_rad"], values["D12_im_rad"]))
        if not biggest < SR_PHASE_MAX:
            problems.append(f"sr-nhqc max|D_mn| = {biggest / math.pi:.4f} pi")
    if task.kind.startswith("twoqubit") and not values.get("P_g@0", 0.0) > CNOT_PG_MIN:
        problems.append(f"CNOT P_g(eps=0) = {values.get('P_g@0')}")
    return problems
