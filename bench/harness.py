"""Benchmark runner: timed passes, correctness gate, traced pass, report.

Tasks go through `holonomy_lab.cli.main([...])` in this one process,
the path a user takes.  End-to-end times come from untraced passes; a
traced pass (with --trace 1) reruns the task list under the span tracer
and reports per-layer self times and counts.  Every task of every pass
is checked, so a fast but wrong build shows as failed operations.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path

import numpy as np
import scipy

import tracer as tracing
import workloads as wl
from holonomy_lab import cli
from holonomy_lab.pulses import PulseSchedule

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = BENCH / "device.cfg"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
SETUP_CODE = ("import sys; from holonomy_lab import cli, config; "
              "config.load_config(sys.argv[1])")

LAYERS = ("cli", "config", "pulses", "model", "evolve", "holonomy",
          "tomography", "rb", "twoqubit", "cohfit")
# Microsecond helpers called inside a traced hot loop: a span would cost
# more than the call, so their time stays in the caller's self time.
# qmath is left out for the same reason.
UNTRACED = {"pulses.sample_envelope"}
WORK = {"evolve.propagate_unitary_h": lambda res: len(res[0]) - 1,
        "rb.run_rb": lambda res: len(res.m_values) * res.n_seqs}

UNITS = {"_s": "s", "_calls": "count", "_steps": "count", "sequences": "count",
         "_warnings": "count", "_written": "bytes",
         "_ratio": "ratio", "_concurrency": "ratio", "_frac": "ratio", "_mb": "MB"}


def unit(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


@dataclass
class PassResult:
    times: list[float] = field(default_factory=list)
    problems: list[list[str]] = field(default_factory=list)
    artifacts: list[dict[str, bytes]] = field(default_factory=list)
    values: list[dict[str, float]] = field(default_factory=list)
    leakage_warnings: int = 0

    @property
    def wall(self) -> float:
        return sum(self.times)


# ------------------------------------------------------------------ passes


def run_task(task: wl.Task, outdir: Path) -> tuple[float, list[str], int]:
    """(seconds, problems, leakage warnings) of one CLI invocation."""
    argv = ["--config", str(CONFIG), *task.argv, "--output-dir", str(outdir)]
    captured = io.StringIO()
    problems: list[str] = []
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crashing task is a failed operation
            code = None
            problems.append(f"raised {exc!r}")
        seconds = time.perf_counter() - start
    if code != 0 and not problems:
        problems.append(f"exit code {code}: {captured.getvalue().strip()[-200:]}")
    leaks = sum("leakage" in str(w.message) for w in caught)
    return seconds, problems, leaks


def run_pass(work: wl.Workload, pass_dir: Path, reference: dict, full_check: bool,
             first: PassResult | None, tracer: tracing.Tracer | None = None) -> PassResult:
    res = PassResult()
    for i, task in enumerate(work.tasks):
        outdir = pass_dir / f"t{i:02d}"
        if tracer is not None:
            tracer.task = i
        seconds, problems, leaks = run_task(task, outdir)
        res.times.append(seconds)
        res.leakage_warnings += leaks
        files = {p.name: p.read_bytes() for p in sorted(outdir.glob("*"))} \
            if outdir.is_dir() else {}
        values: dict[str, float] = {}
        if not problems:
            try:
                values = wl.fingerprint(task, outdir)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                problems.append(f"unreadable artifacts: {exc!r}")
        if values:
            problems += wl.compare(values, reference.get(task.label), full_check)
            problems += wl.invariants(task, values)
        if first is not None and files != first.artifacts[i]:
            problems.append("artifacts differ from the first pass")
        res.problems.append(problems)
        res.artifacts.append(files)
        res.values.append(values)
    for a, b, name in work.same_artifacts:
        if res.artifacts[a].get(name) != res.artifacts[b].get(name):
            res.problems[b].append(f"{name} differs from task {a}")
    return res


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing the package and
    parsing the config file."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(CONFIG)], env=env,
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ----------------------------------------------------------------- metrics


def end_to_end(work: wl.Workload, passes: list[PassResult]) -> dict[str, float]:
    kinds = list(dict.fromkeys(t.kind for t in work.tasks))
    out = {"wall_s": statistics.median(p.wall for p in passes)}
    for kind in kinds:
        idx = [i for i, t in enumerate(work.tasks) if t.kind == kind]
        out[f"{kind}_s"] = statistics.median(
            statistics.fmean(p.times[i] for i in idx) for p in passes)
    out["cmd_geomean_s"] = math.exp(statistics.fmean(
        math.log(out[f"{k}_s"]) for k in kinds))
    return out


def instrument(tr: tracing.Tracer) -> None:
    """Wrap the public functions of every layer, wherever they are bound."""
    modules = {name: import_module(f"holonomy_lab.{name}") for name in LAYERS}
    replacements = {}
    for layer in LAYERS:
        mod = modules[layer]
        for attr, fn in vars(mod).items():
            name = f"{layer}.{attr}"
            if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in UNTRACED):
                replacements[id(fn)] = (fn, tr.wrap(fn, name, WORK.get(name)))

    # The RB channel factory is a closure: trace the closures it returns.
    make_factory = modules["rb"].default_channel_factory

    def traced_factory(*args, **kwargs):
        return tr.wrap(make_factory(*args, **kwargs), "rb.factory")

    replacements[id(make_factory)] = (
        make_factory, tr.wrap(traced_factory, "rb.default_channel_factory"))
    replacements[id(ThreadPoolExecutor)] = (
        ThreadPoolExecutor, tr.executor_class(ThreadPoolExecutor))
    tr.rebind(modules.values(), replacements)
    tr.patch(PulseSchedule, "drive",
             tr.wrap(PulseSchedule.drive, "pulses.PulseSchedule.drive"))


def layer_metrics(tr: tracing.Tracer, spans: dict, self_ns: np.ndarray,
                  work: wl.Workload) -> dict[str, float]:
    names = tr.names
    n = len(names)
    calls = dict(zip(names, np.bincount(spans["name"], minlength=n).tolist()))
    selfs = dict(zip(names, (np.bincount(spans["name"], weights=self_ns,
                                         minlength=n) / 1e9).tolist()))
    counts = dict(zip(names, np.bincount(spans["name"], weights=spans["work"],
                                         minlength=n).astype(np.int64).tolist()))

    def total(table, *fns):
        return sum(table.get(f, 0) for f in fns)

    m = {f"{layer}.self_s": sum(v for k, v in selfs.items() if k.split(".")[0] == layer)
         for layer in LAYERS}
    m["pulses.drive_calls"] = total(calls, "pulses.PulseSchedule.drive")
    m["pulses.drive_s"] = total(selfs, "pulses.PulseSchedule.drive")
    ham = ("model.bright_drive_hamiltonian", "model.dispersive_hamiltonian")
    m["model.hamiltonian_calls"] = total(calls, *ham)
    m["model.hamiltonian_s"] = total(selfs, *ham)
    unitary = ("evolve.propagate_unitary_h", "evolve.propagate_unitary")
    lindblad = ("evolve.propagate_lindblad", "evolve.propagate_superoperator")
    m["evolve.unitary_calls"] = total(calls, unitary[0])
    m["evolve.unitary_steps"] = total(counts, unitary[0])
    m["evolve.unitary_self_s"] = total(selfs, *unitary)
    m["evolve.lindblad_calls"] = total(calls, *lindblad)
    m["evolve.lindblad_self_s"] = total(selfs, *lindblad)
    m["evolve.gate_channel_calls"] = total(calls, "evolve.gate_channel")
    m["holonomy.fidelity_calls"] = total(calls, "holonomy.simulated_gate_fidelity")
    m["tomography.qpt_calls"] = total(calls, "tomography.qpt")
    m["tomography.qpt_self_s"] = m["tomography.self_s"]
    m["rb.sequences"] = total(counts, "rb.run_rb")
    m["rb.run_rb_self_s"] = total(selfs, "rb.run_rb")
    m["rb.factory_calls"] = total(calls, "rb.factory")
    m["rb.factory_builds"] = factory_builds(tr, spans)
    m["rb.factory_hit_ratio"] = (1.0 - m["rb.factory_builds"] / m["rb.factory_calls"]
                                 if m["rb.factory_calls"] else 0.0)
    m["twoqubit.build_gate_self_s"] = total(selfs, "twoqubit.build_two_qubit_gate")
    m["twoqubit.cnot_fidelity_self_s"] = total(selfs, "twoqubit.cnot_state_fidelity")
    m["config.parse_s"] = total(selfs, "config.load_config", "config.parse_config")
    m["cli.sweep_concurrency"] = sweep_concurrency(tr, spans, work)
    return m


def _name_mask(tr: tracing.Tracer, spans: dict, name: str) -> np.ndarray:
    if name not in tr.names:
        return np.zeros(len(spans["id"]), dtype=bool)
    return spans["name"] == tr.names.index(name)


def factory_builds(tr: tracing.Tracer, spans: dict) -> int:
    """RB factory calls that built a channel rather than hitting the cache."""
    ppos = tracing.parent_index(spans)
    built = _name_mask(tr, spans, "evolve.gate_channel") | \
        _name_mask(tr, spans, "evolve.idle_channel")
    parents = ppos[built & (ppos >= 0)]
    return len(np.unique(parents[_name_mask(tr, spans, "rb.factory")[parents]]))


def sweep_concurrency(tr: tracing.Tracer, spans: dict, work: wl.Workload) -> float:
    """Summed per-point fidelity span time over sweep-epsilon wall time."""
    sweeps = [i for i, t in enumerate(work.tasks) if t.kind == "sweep_epsilon"]
    in_sweep = np.isin(spans["task"], sweeps)
    duration = spans["end"] - spans["start"]
    wall = duration[in_sweep & _name_mask(tr, spans, "cli.main")].sum()
    points = duration[in_sweep & _name_mask(tr, spans, "holonomy.simulated_gate_fidelity")]
    return float(points.sum() / wall) if wall else 0.0


# ------------------------------------------------------------------ report


def environment(seed: int) -> dict:
    commit = "unknown"  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    threads = {k: os.environ.get(k) for k in (
        "HOLONOMY_LAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
        "MKL_NUM_THREADS")}
    return {"nproc": len(os.sched_getaffinity(0)), "threads": threads,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "commit": commit, "seed": seed,
            "src_lines": src_lines}


def print_table(title: str, metrics: dict[str, float]) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit(name)}")


def traced_pass(work: wl.Workload, pass_dir: Path, reference: dict, full_check: bool,
                first: PassResult) -> tuple[PassResult, dict[str, float]]:
    """One more pass under the tracer; the spans are saved to OUT."""
    tr = tracing.Tracer()
    instrument(tr)
    try:
        res = run_pass(work, pass_dir, reference, full_check, first, tr)
    finally:
        tr.restore()
    spans = tr.spans()
    self_ns = tracing.self_times(spans)
    layers = layer_metrics(tr, spans, self_ns, work)
    layers["twoqubit.leakage_warnings"] = res.leakage_warnings
    layers["cli.bytes_written"] = sum(len(b) for files in res.artifacts
                                      for b in files.values())
    layers["trace.wall_s"] = res.wall
    OUT.mkdir(exist_ok=True)
    np.savez(OUT / f"spans_{work.name}.npz", names=np.array(tr.names),
             self_ns=self_ns, **spans)
    return res, layers


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's fingerprints as the reference "
                             "(default seed only)")
    args = parser.parse_args(argv)
    if args.record_reference and args.seed != wl.DEFAULT_SEED:
        parser.error("--record-reference needs the default seed")
    # The result line carries the metrics BENCHMARK.json declares; the
    # tables also show those that only some workloads exercise.
    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]

    work = wl.WORKLOADS[args.workload](args.seed)
    reference = {} if args.record_reference else json.loads(REFERENCE.read_text())
    full_check = args.seed == wl.DEFAULT_SEED and not args.record_reference
    run_dir = TMP / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = measure_setup()
        passes: list[PassResult] = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(work, run_dir / f"pass{len(passes)}", reference,
                                   full_check, passes[0] if passes else None))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            traced, layers = traced_pass(work, run_dir / "traced", reference,
                                         full_check, passes[0])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    checked = passes + [traced] if args.trace else passes
    attempted = sum(len(p.problems) for p in checked)
    failed = sum(bool(probs) for p in checked for probs in p.problems)
    if args.record_reference:
        stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        stored.update({t.label: v for t, v in zip(work.tasks, passes[0].values)})
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    e2e = end_to_end(work, passes)
    e2e.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb, failed_frac=failed / attempted)
    env = environment(args.seed)
    report = {"workload": work.name, "environment": env, "end_to_end": e2e,
              "task_times_s": [p.times for p in passes]}
    print(f"workload {work.name}  seed {args.seed}  passes {len(passes)}  "
          f"tasks/pass {len(work.tasks)}")
    print_table("end-to-end (tracing off; median over passes):", e2e)
    measured = e2e
    if args.trace:
        layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]
        print_table("per layer (traced pass):", layers)
        print("layer shares of traced wall: " + "  ".join(
            f"{layer} {layers[f'{layer}.self_s'] / layers['trace.wall_s']:.1%}"
            for layer in LAYERS))
        report["per_layer"] = measured = layers
    for i, task in enumerate(work.tasks):
        msgs = list(dict.fromkeys(m for p in checked for m in p.problems[i]))
        for msg in msgs[:3]:
            print(f"FAILED {task.label}: {msg}")
        if len(msgs) > 3:
            print(f"FAILED {task.label}: ... and {len(msgs) - 3} more")
    print("environment " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    (OUT / f"report_{work.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": measured[m["name"]],
                                              "unit": m["unit"]} for m in declared}}))
    return 0
