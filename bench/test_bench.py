"""Self-tests of the benchmark: tracer, correctness gate and inputs.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
import types

import numpy as np

import harness
import tracer as tracing
import workloads as wl
from holonomy_lab import cli, rb
from holonomy_lab.model import NoiseModel

SYNTHETIC = '''
import time
from concurrent.futures import ThreadPoolExecutor

def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass

def leaf(x):
    _busy(0.01)
    return x

def inner():
    _busy(0.005)
    return leaf(1)

def outer():
    _busy(0.005)
    inner()
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(leaf, range(4)))
    return inner()
'''


def _span_names(tr, spans):
    return np.array(tr.names)[spans["name"]]


def test_self_time_nested_and_threaded():
    mod = types.ModuleType("synthetic")
    exec(SYNTHETIC, mod.__dict__)
    user = types.ModuleType("user")  # as if it ran `from synthetic import outer`
    user.outer = mod.outer
    tr = tracing.Tracer()
    replacements = {id(f): (f, tr.wrap(f, f"synthetic.{f.__name__}"))
                    for f in (mod.leaf, mod.inner, mod.outer)}
    pool = mod.ThreadPoolExecutor
    replacements[id(pool)] = (pool, tr.executor_class(pool))
    tr.rebind([mod, user], replacements)
    try:
        user.outer()
    finally:
        tr.restore()
    assert user.outer is replacements[id(mod.outer)][0]

    spans = tr.spans()
    names = _span_names(tr, spans)
    assert sorted(names) == sorted(["synthetic.outer"] + ["synthetic.inner"] * 2
                                   + ["synthetic.leaf"] * 6)
    root = np.flatnonzero(names == "synthetic.outer")[0]
    assert len(np.unique(spans["thread"])) == 3
    pool_leaves = (names == "synthetic.leaf") & (spans["parent"] == spans["id"][root])
    assert pool_leaves.sum() == 4

    self_ns = tracing.self_times(spans)
    wall = spans["end"][root] - spans["start"][root]
    assert self_ns.min() >= 0.0
    assert abs(self_ns.sum() - wall) < 1e-6 * wall
    # Two workers spin through four 10 ms leaves in about 20 ms of wall
    # time, all of it theirs; the root keeps its own 5 ms but not the wait.
    assert self_ns[pool_leaves].sum() > 0.9 * 0.02e9
    assert 0.005e9 <= self_ns[root] < 0.5 * wall


def test_sweep_records_one_span_per_point(tmp_path):
    tr = tracing.Tracer()
    harness.instrument(tr)
    try:
        code = cli.main(["sweep-epsilon", "--scheme", "nhqc", "--gate", "X",
                         "--output-dir", str(tmp_path)])
    finally:
        tr.restore()
    assert code == 0
    spans = tr.spans()
    names = _span_names(tr, spans)
    points = names == "holonomy.simulated_gate_fidelity"
    assert points.sum() == 41
    parents = tracing.parent_index(spans)[points]
    assert set(names[parents]) == {"cli.cmd_sweep_epsilon"}
    assert tracing.self_times(spans).min() >= 0.0


def test_run_rb_builds_seven_channels():
    tr = tracing.Tracer()
    harness.instrument(tr)
    try:
        factory = rb.default_channel_factory(NoiseModel.from_coherence_times(),
                                             step=0.5)
        rb.run_rb(factory, m_values=(1, 2, 4, 8), n_seqs=2, interleaved="X")
    finally:
        tr.restore()
    spans = tr.spans()
    assert harness.factory_builds(tr, spans) == 7
    assert (_span_names(tr, spans) == "rb.factory").sum() > 7


def test_perturbed_fingerprint_fails(tmp_path):
    task = next(t for t in wl.closed_1q(0).tasks
                if t.label == "dynphase --scheme sr-nhqc --gate X")
    work = wl.Workload("single", (task,))
    reference = json.loads(harness.REFERENCE.read_text())
    ok = harness.run_pass(work, tmp_path / "a", reference, True, None)
    assert ok.problems == [[]]

    perturbed = dict(reference[task.label])
    perturbed["D11_rad"] += 10 * wl.tolerance("D11_rad")
    bad = harness.run_pass(work, tmp_path / "b", {task.label: perturbed}, True, ok)
    assert len(bad.problems[0]) == 1 and "D11_rad" in bad.problems[0][0]


def test_inputs_depend_only_on_seed():
    for make in wl.WORKLOADS.values():
        assert make(7) == make(7)
    for make in (wl.closed_1q, wl.open_1q, wl.cavity_cnot):
        assert make(7) != make(8)
    for seed in range(20):
        grid = [float(x) for x in wl.drawn_eps_grid(seed).split(",")]
        assert len(set(grid)) == 5 and 0.0 in grid and grid == sorted(grid)
        assert all(-0.1 <= x <= 0.1 for x in grid)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(harness.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.SPEC, tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "open_1q",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_declared_units_match_the_report():
    spec = json.loads(harness.SPEC.read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert harness.unit(metric["name"]) == metric["unit"], metric["name"]
