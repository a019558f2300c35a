import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from holonomy_lab import cohfit, evolve, model, qmath, twoqubit
from holonomy_lab.model import NoiseModel, bright_frame
from holonomy_lab.pulses import (DEFAULT_STEP_1Q, DEFAULT_STEP_2Q, NAMED_GATES, SCHEME_DYNAMICAL,
                                 SCHEMES, GateSpec, apply_rabi_error, build_schedule,
                                 build_sr_nhqc)
from reference import (CAVITY_T2STAR_US, bright_drive_hamiltonian, cavity_collapse_operators,
                       dispersive_hamiltonian, full_space_hamiltonian, lindblad_generator,
                       lindblad_stage_loop, segment_exact_unitary, sequential_unitaries)

GATE = GateSpec(np.pi / 2, 0.0, np.pi)
FRAME = bright_frame(GATE.theta, GATE.phi)
SCHEDULE = build_sr_nhqc(GATE, 120.0)


def test_closed_propagators_unitary():
    trace = evolve.propagate_unitary(SCHEDULE, step=0.1)
    for u in trace.unitaries[:: len(trace.unitaries) // 7]:
        assert np.allclose(u @ qmath.dagger(u), np.eye(3), atol=1e-10)
    assert np.allclose(trace.populations.sum(axis=1), 1.0, atol=1e-10)


def test_step_refinement_converges():
    u_fine = evolve.propagate_unitary(SCHEDULE, step=0.02).final_unitary
    u_coarse = evolve.propagate_unitary(SCHEDULE, step=0.2).final_unitary
    assert np.max(np.abs(u_fine - u_coarse)) < 1e-5


@pytest.mark.parametrize("step", [0.05, 0.5])
@pytest.mark.parametrize("gate", [GATE, GateSpec(1.3, 2.1, 2.7)], ids=["X", "generic"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_scaled_finals_match_per_point_rabi_errors(scheme, gate, step):
    schedule = build_schedule(gate, scheme)
    ham = evolve.schedule_hamiltonian(schedule)
    epsilons = (-0.2, 0.0, 0.13)
    _, finals = evolve.scaled_final_unitaries(ham, schedule.tau, step,
                                              [1.0 + e for e in epsilons])
    for eps, u in zip(epsilons, finals):
        ref = evolve.propagate_unitary(apply_rabi_error(schedule, eps), step).final_unitary
        assert np.max(np.abs(u - ref)) < 1e-12
    times, unitaries = evolve.propagate_unitary_h(ham, schedule.tau, step)
    times_1, finals_1 = evolve.scaled_final_unitaries(ham, schedule.tau, step, (1.0,))
    assert np.array_equal(times_1, times)
    assert np.array_equal(finals_1[0], unitaries[-1])


@pytest.mark.parametrize("step", [0.05, 0.5, 2.0])
@pytest.mark.parametrize("gate", [GATE, GateSpec(1.3, 2.1, 2.7)], ids=["X", "generic"])
@pytest.mark.parametrize("scheme", ["sr-nhqc", "nhqc"])
def test_closed_propagators_match_segment_exact_oracle(scheme, gate, step):
    # Within a segment the drive direction is fixed, so the midpoint
    # product of a segmented schedule is exact up to round-off.
    schedule = build_schedule(gate, scheme)
    ham = evolve.schedule_hamiltonian(schedule)
    _, unitaries = evolve.propagate_unitary_h(ham, schedule.tau, step)
    assert np.max(np.abs(unitaries[-1] - segment_exact_unitary(schedule))) < 1e-12
    scales = (0.8, 1.0, 1.13)
    _, finals = evolve.scaled_final_unitaries(ham, schedule.tau, step, scales)
    for s, u in zip(scales, finals):
        assert np.max(np.abs(u - segment_exact_unitary(schedule, s))) < 1e-12


# Step counts around the chain's width, its most chunks side by side, and
# the 2 400 of a default qutrit gate (127 chunks of 19 positions, the last
# 13 of them padding).
RAGGED_COUNTS = (1, evolve.CHAIN_WIDTH - 1, evolve.CHAIN_WIDTH, evolve.CHAIN_WIDTH + 1, 2400)


def _ragged_cases():
    """(Hamiltonian, tau, step) with the RAGGED_COUNTS of qutrit steps, and
    the 5 520-step cavity gate on Fock block 2."""
    ham = evolve.schedule_hamiltonian(SCHEDULE)
    _, cavity = twoqubit._selective_drive(GATE, "sr-nhqc", None, 0.0,
                                          model.DispersiveSystemParams.from_mhz())
    return [(ham, SCHEDULE.tau, SCHEDULE.tau / n, n) for n in RAGGED_COUNTS] + \
        [(replace(cavity, h0=cavity.h0[2]), 2760.0, 0.5, 5520)]


@pytest.mark.parametrize("ham, tau, step, steps", _ragged_cases(),
                         ids=["1", "block-1", "block", "block+1", "2400", "cavity"])
def test_chunked_chain_matches_sequential_chain(ham, tau, step, steps):
    times, unitaries = evolve.propagate_unitary_h(ham, tau, step)
    ref_times, ref_unitaries = sequential_unitaries(ham, tau, step)
    assert len(times) == steps + 1
    assert np.array_equal(times, ref_times)
    assert np.max(np.abs(unitaries - ref_unitaries)) < 1e-13
    _, finals = evolve.scaled_final_unitaries(ham, tau, step, (1.0,))
    assert np.array_equal(finals[0], unitaries[-1])


# Step counts around the width, below it, a prime and the cavity gate's
# 5 520; at 1, 5 and 41 scales the chain runs 128, 128 and 24 chunks wide,
# so most chunk counts are not powers of two.  The sequential chain drifts
# like n: at 5 520 steps and 5 or 41 scales it sits 1.0-1.5e-13 from this
# chain and from the chunk-by-chunk one before it alike, so the bound is
# 1e-13 up to 2 400 steps and grows with n beyond.
@pytest.mark.parametrize("batch", [1, 5, 41])
@pytest.mark.parametrize("steps", [1, evolve.CHAIN_WIDTH - 1, evolve.CHAIN_WIDTH,
                                   evolve.CHAIN_WIDTH + 1, 997, 2400, 5520])
def test_chain_scan_matches_sequential_chain(monkeypatch, steps, batch):
    params = model.DispersiveSystemParams.from_mhz()
    ham = replace(evolve.schedule_hamiltonian(SCHEDULE),
                  h0=model.dispersive_shift_hamiltonian(params)[2])
    tau, step = SCHEDULE.tau, SCHEDULE.tau / steps
    scales = np.linspace(0.9, 1.1, batch)
    calls = []
    kernel = evolve._step_exponentials
    monkeypatch.setattr(evolve, "_step_exponentials",
                        lambda *args: calls.append(1) or kernel(*args))
    times, unitaries = evolve._closed_products(ham, tau, step, scales, prefixes=True)
    _, finals = evolve._closed_products(ham, tau, step, scales, prefixes=False)
    assert len(times) == steps + 1
    chunks, length = evolve._chain_shape(steps, 3, batch)
    assert chunks <= evolve.CHAIN_WIDTH and chunks * batch <= max(batch, evolve.CHAIN_MATRICES)
    assert len(calls) == 2 * length
    assert np.array_equal(finals, unitaries[-1])
    for i, s in enumerate(scales):
        # s H(t): h0 and the drive amplitude both scale.
        scaled = replace(ham, h0=s * ham.h0,
                         drive=lambda t, s=s: (s * ham.drive(t)[0], ham.drive(t)[1]))
        _, ref = sequential_unitaries(scaled, tau, step)
        assert np.max(np.abs(unitaries[:, i] - ref)) < 1e-13 * max(1.0, steps / 2400)


def _counted_eigh(monkeypatch):
    """List that records the shape of every np.linalg.eigh argument."""
    calls, real_eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


# The segment product on 1Q schedules: every segment boundary of the
# default sr-nhqc and nhqc gates lies on the default 1Q grid, and the
# dynamical schedule has no segments.
@pytest.mark.parametrize("scheme, pieces", [("sr-nhqc", 6), ("nhqc", 2), ("dynamical", 1)])
def test_default_1q_schedules_split_into_their_segments(scheme, pieces):
    schedule = build_schedule(GATE, scheme)
    split = evolve._grid_pieces(schedule, DEFAULT_STEP_1Q)
    assert len(split) == pieces
    if scheme == SCHEME_DYNAMICAL:
        assert split == [(schedule, DEFAULT_STEP_1Q)]
    else:
        assert [piece.segments for piece, _ in split] == [(seg,) for seg in schedule.segments]


# Where H0 = 0 each segment is one exponential of its summed drive, so the
# closed entry is the segment-exact propagator to round-off at every
# scale.  The gaps are up to 1.7e-15.
_DRAWN = GateSpec(*np.random.default_rng(3).uniform([0.1 * np.pi, 0.0, 0.2 * np.pi],
                                                    [0.9 * np.pi, 2 * np.pi, 1.8 * np.pi]))


@pytest.mark.parametrize("scheme", ["sr-nhqc", "nhqc"])
@pytest.mark.parametrize("gate", [NAMED_GATES["X"], NAMED_GATES["Y/2"], _DRAWN],
                         ids=["X", "Y/2", "drawn"])
def test_1q_segment_finals_match_the_segment_exact_unitary(scheme, gate):
    schedule = build_schedule(gate, scheme)
    scales = (0.9, 1.0, 1.1)
    finals = evolve.segment_finals(schedule, DEFAULT_STEP_1Q, scales, np.zeros((3, 3)))
    np.testing.assert_allclose(finals, [segment_exact_unitary(schedule, s) for s in scales],
                               rtol=0, atol=1e-14)


def test_cavity_gate_eigendecomposes_each_distinct_sample_once(monkeypatch):
    # The six sr-nhqc segments come in two shapes, and each shape's
    # midpoint samples repeat where its envelope is symmetric.  Block 0
    # is one constant-drive step per shape; block 2 decomposes each
    # shape's distinct samples in one eigh.
    schedule = twoqubit._two_qubit_schedule(twoqubit.CNOT_GATE, "sr-nhqc", None)
    pieces = list(dict.fromkeys(evolve._grid_pieces(schedule, DEFAULT_STEP_2Q)))
    samples = []
    for piece, step in pieces:
        times = evolve._time_grid(piece.tau, step)
        midpoints = 0.5 * (times[:-1] + times[1:])
        samples.append(len(np.unique(evolve.schedule_hamiltonian(piece).coefficient(midpoints))))
    assert len(pieces) == 2
    assert sum(samples) < 5520 // 3
    calls = _counted_eigh(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the default gate's leakage
        twoqubit.build_two_qubit_gate(twoqubit.CNOT_GATE)
    assert calls == [(1, 3, 3)] * 2 + [(m, 3, 3) for m in samples]


def test_constant_drive_is_one_sample_and_the_identity_pad(monkeypatch):
    params = model.DispersiveSystemParams.from_mhz()
    a_op = evolve.schedule_hamiltonian(SCHEDULE).a_op
    ham = evolve.DrivenHamiltonian(model.dispersive_shift_hamiltonian(params)[2], a_op,
                                   lambda t: (np.full(np.shape(t), 0.04),
                                              np.full(np.shape(t), 0.7)))
    # 2 CHAIN_WIDTH + 3 steps: 87 chunks of three positions, the last two
    # of them identity steps.
    steps = 2 * evolve.CHAIN_WIDTH + 3
    chunks, length = evolve._chain_shape(steps, 3, 1)
    assert (chunks, length) == (87, 3) and chunks * length == steps + 2
    tau, step = 0.5 * steps, 0.5
    calls = _counted_eigh(monkeypatch)
    times, unitaries = evolve.propagate_unitary_h(ham, tau, step)
    assert calls == [(1, 3, 3)]
    assert len(times) == steps + 1
    _, ref_unitaries = sequential_unitaries(ham, tau, step)
    assert np.max(np.abs(unitaries - ref_unitaries)) < 1e-13
    exact = scipy.linalg.expm(-1j * ham.hamiltonians(np.zeros(1))[0] * tau)
    assert np.max(np.abs(unitaries[-1] - exact)) < 1e-12
    _, finals = evolve.scaled_final_unitaries(ham, tau, step, (1.0,))
    assert np.array_equal(finals[0], unitaries[-1])


# Round-off in a chain of n step products grows like n, so the bounds are
# per step: over 370 random gates at steps 0.05 and 0.5 the finals sat at
# most 0.85 eps per step from the per-step chain and 2.6 eps per step from
# the segment-exact product (1.4e-12 after 2 400 steps).  The examples are
# two gates that exceed flat 1e-12 and 1e-13 bounds at 2 400 steps.
@settings(max_examples=10, deadline=None)
@given(theta=st.floats(0.05, np.pi - 0.05), phi=st.floats(0.0, 2 * np.pi),
       gamma=st.floats(0.1, 2 * np.pi - 0.1), step=st.sampled_from([0.05, 0.5]),
       scales=st.lists(st.floats(0.8, 1.2), min_size=1, max_size=4))
@example(theta=1.8386653536044246, phi=1.6924395999952457e-05, gamma=1.0, step=0.05,
         scales=[1.0])
@example(theta=3.0, phi=0.00390625, gamma=1.0, step=0.05, scales=[1.0])
def test_scaled_finals_of_any_gate_match_oracles(theta, phi, gamma, step, scales):
    gate = GateSpec(theta, phi, gamma)
    eps = np.finfo(float).eps
    for scheme in SCHEMES:
        schedule = build_schedule(gate, scheme)
        ham = evolve.schedule_hamiltonian(schedule)
        times, finals = evolve.scaled_final_unitaries(ham, schedule.tau, step, [1.0, *scales])
        n = len(times) - 1
        _, ref = sequential_unitaries(ham, schedule.tau, step)
        assert np.max(np.abs(finals[0] - ref[-1])) < 2 * eps * n
        for s, u in zip(scales, finals[1:]):
            if scheme == SCHEME_DYNAMICAL:
                scaled = evolve.schedule_hamiltonian(apply_rabi_error(schedule, s - 1.0))
                ref_s = sequential_unitaries(scaled, schedule.tau, step)[1][-1]
                assert np.max(np.abs(u - ref_s)) < 2 * eps * n
            else:
                assert np.max(np.abs(u - segment_exact_unitary(schedule, s))) < 6 * eps * n


def _default_x(scheme):
    """(Hamiltonian, tau) of the default X gate of a scheme."""
    schedule = build_schedule(NAMED_GATES["X"], scheme)
    return evolve.schedule_hamiltonian(schedule), schedule.tau


# The eigenvectors LAPACK returns are long by about 1e-16 on average, so
# the closed chains drift off unitarity linearly in the step count: every
# prefix of the default X runs (2 400, 1 200 and 2 100 steps) stays within
# 4.3-8.1e-13 of unitary.  The bound leaves room for platform round-off,
# not for a chain that loses accuracy.
@pytest.mark.parametrize("scheme", SCHEMES)
def test_closed_chain_unitarity_drift_is_bounded(scheme):
    ham, tau = _default_x(scheme)
    _, unitaries = evolve.propagate_unitary_h(ham, tau, DEFAULT_STEP_1Q)
    assert np.max(np.abs(qmath.dagger(unitaries) @ unitaries - np.eye(3))) <= 2e-12


def _traced_peak(fn):
    """Peak bytes allocated while fn runs, numpy buffers included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Transient memory of one call on the default X runs: 1.0-2.4 MB for a
# 41-scale sweep and 1.4-3.1 MB with every prefix.  The chain keeps one
# product per chunk and scale, never one per step and scale.
@pytest.mark.parametrize("scheme", SCHEMES)
def test_closed_chain_transient_memory_is_bounded(scheme):
    ham, tau = _default_x(scheme)
    scales = np.linspace(0.9, 1.1, 41)
    assert _traced_peak(lambda: evolve.scaled_final_unitaries(
        ham, tau, DEFAULT_STEP_1Q, scales)) <= 3e6
    assert _traced_peak(lambda: evolve.propagate_unitary_h(ham, tau, DEFAULT_STEP_1Q)) <= 4e6


# One noisy sr-nhqc X channel (2 400 steps, r = m = 9).  The chain,
# which builds the RK4 step maps of one position of its 64 chunks at a
# time and keeps the diagonal rows of every prefix, peaks at 1.0 MB and
# takes about 17 minor page faults per call in a fresh interpreter (174
# over ten calls, numpy 2.4); the chunk-by-chunk chain before its scan,
# 0.9 MB and 128.  glibc trims its heap when a call's transient exceeds
# twice the largest block freed so far, and then faults it back in on
# the next call.  Earlier builds: one
# matmul per step into a (steps + 1, r, m) buffer peaked at 5.5 MB and
# took 117 faults per call; all (steps, r, r) step maps at once, 5.6 MB
# and 125; the prefix rows multiplied into a second buffer, not in
# place, 6.2 MB and about 1 460; the maps built per chain position,
# 2.4 MB and about 500.  The faults are counted in a fresh interpreter,
# because a larger block freed earlier in this process raises glibc's
# thresholds and hides them.
FAULT_SCRIPT = """
import resource
from holonomy_lab import evolve
from holonomy_lab.model import NoiseModel
from holonomy_lab.pulses import NAMED_GATES, build_schedule
noise = NoiseModel.from_coherence_times()
schedule = build_schedule(NAMED_GATES["X"], "sr-nhqc")
evolve.gate_channel(schedule, noise)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    evolve.gate_channel(schedule, noise)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_open_channel_transient_memory_and_faults_are_bounded():
    noise = NoiseModel.from_coherence_times()
    schedule = build_schedule(NAMED_GATES["X"], "sr-nhqc")
    evolve.gate_channel(schedule, noise)
    assert _traced_peak(lambda: evolve.gate_channel(schedule, noise)) <= 7e6
    src = str(Path(evolve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    faults = subprocess.run([sys.executable, "-c", FAULT_SCRIPT], env=env,
                            capture_output=True, text=True, check=True).stdout
    assert int(faults) <= 300 * 10


def test_every_propagator_runs_on_the_one_chain(monkeypatch):
    calls, chain = [], evolve._chain
    monkeypatch.setattr(evolve, "_chain", lambda *args: calls.append(1) or chain(*args))
    ham = evolve.schedule_hamiltonian(SCHEDULE)
    runs = {"propagate_unitary": lambda: evolve.propagate_unitary(SCHEDULE, step=1.0),
            "scaled_final_unitaries": lambda: evolve.scaled_final_unitaries(
                ham, SCHEDULE.tau, 1.0, (1.0, 1.1)),
            "gate_channel": lambda: evolve.gate_channel(
                SCHEDULE, NoiseModel.from_coherence_times(), step=0.5)}
    for name, run in runs.items():
        calls.clear()
        run()
        assert calls, name


def _lindblad_run(schedule, noise, step, level=model.G):
    """(populations, final rho) of the state |level> under the schedule
    and the noise: the column of |level><level| in the channel run."""
    _, populations, finals = evolve.propagate_lindblad_h(
        evolve.schedule_hamiltonian(schedule), model.collapse_operators(noise),
        schedule.tau, step)
    return populations[:, level], finals[4 * level]


def test_lindblad_reduces_to_closed_without_noise():
    populations, _ = _lindblad_run(SCHEDULE, NoiseModel(), step=0.05)
    trace_closed = evolve.propagate_unitary(SCHEDULE, step=0.05)
    assert np.max(np.abs(populations - trace_closed.populations)) < 1e-5


def test_lindblad_trace_and_positivity():
    noise = NoiseModel.from_coherence_times()
    _, rho = _lindblad_run(SCHEDULE, noise, step=0.05, level=model.F)
    assert np.isclose(np.trace(rho).real, 1.0, atol=1e-7)
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-8


def test_relaxation_only_decay_rate():
    # With a single g<-e collapse the excited population decays at
    # exactly gamma_ge; an idle (zero-drive) schedule isolates it.
    from holonomy_lab.pulses import PulseSchedule, PulseSegment
    idle = PulseSchedule("sr-nhqc", GATE, 1000.0,
                         segments=(PulseSegment(0.0, 0.0, 1000.0),))
    noise = NoiseModel(gamma_ge=1 / 18.9)
    _, rho = _lindblad_run(idle, noise, step=1.0, level=model.E)
    p_e = rho[model.E, model.E].real
    assert np.isclose(p_e, np.exp(-1.0 / 18.9), rtol=1e-6)


def test_superoperator_matches_state_propagation():
    noise = NoiseModel.from_coherence_times()
    sup = evolve.gate_channel(SCHEDULE, noise, step=0.05)
    rho0 = qmath.projector(model.KET_G)
    rho_sup = (sup @ rho0.reshape(-1)).reshape(3, 3)
    ham, c_ops = evolve._open_system(SCHEDULE, noise)
    _, states = lindblad_stage_loop(ham, c_ops, SCHEDULE.tau, 0.05, rho0[None])
    assert np.max(np.abs(rho_sup - states[-1, 0])) < 1e-9


def test_coarse_step_channel_is_not_completely_positive(monkeypatch):
    # RK4 keeps the trace at step 2 ns, but the channel's Choi matrix has
    # an eigenvalue near -2e-4; at 0.5 ns the minimum is +9e-5.  A channel
    # carries all 9 entries as columns, so it runs on the step maps.
    map_blocks = []
    step_maps = evolve._rk4_step_maps
    monkeypatch.setattr(evolve, "_rk4_step_maps",
                        lambda *args: map_blocks.append(1) or step_maps(*args))
    noise = NoiseModel.from_coherence_times()
    evolve.gate_channel(SCHEDULE, noise, step=0.5)
    map_blocks.clear()
    with pytest.raises(RuntimeError, match="Choi"):
        evolve.gate_channel(SCHEDULE, noise, step=2.0)
    assert map_blocks


def test_noiseless_gate_channel_is_unitary_conjugation():
    sup = evolve.gate_channel(SCHEDULE, None, step=0.05)
    u = evolve.propagate_unitary(SCHEDULE, step=0.05).final_unitary
    assert np.max(np.abs(sup - np.kron(u, u.conj()))) < 1e-8


def test_idle_channel_identity_without_noise():
    assert np.array_equal(evolve.idle_channel(120.0, None), np.eye(9))
    assert np.array_equal(evolve.idle_channel(120.0, NoiseModel()), np.eye(9))


# (duration, noise, tolerance against scipy.linalg.expm): the device's
# rates over one gate, and 1 ns relaxation over 5 us, where |L T|_1 is
# 1e4 and the exponential takes 15 squarings.
IDLE_CASES = [(120.0, NoiseModel.from_coherence_times(), 1e-14),
              (5000.0, NoiseModel.from_coherence_times(t1_ge_us=0.001), 1e-12)]


@pytest.mark.parametrize("duration, noise, tol", IDLE_CASES, ids=["device", "squared"])
def test_idle_channel_matches_scipy_expm(duration, noise, tol):
    gen = evolve.lindblad_superoperator(np.zeros((3, 3)), model.collapse_operators(noise))
    sup = evolve.idle_channel(duration, noise)
    assert np.max(np.abs(sup - scipy.linalg.expm(gen * duration))) <= tol
    choi = sup.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(9, 9)
    assert np.linalg.eigvalsh(0.5 * (choi + qmath.dagger(choi)))[0] >= -1e-12


def test_idle_channel_squaring_path_runs():
    duration, noise, _ = IDLE_CASES[1]
    gen = evolve.lindblad_superoperator(np.zeros((3, 3)), model.collapse_operators(noise))
    assert np.linalg.norm(gen * duration, 1) > 1e3


def test_idle_channel_decays_excited_state():
    noise = NoiseModel.from_coherence_times()
    sup = evolve.idle_channel(120.0, noise)
    rho = (sup @ qmath.projector(model.KET_E).reshape(-1)).reshape(3, 3)
    assert np.isclose(np.trace(rho).real, 1.0, atol=1e-10)
    assert rho[model.E, model.E].real < 1.0
    assert np.isclose(rho[model.E, model.E].real,
                      np.exp(-0.120 / 18.9), rtol=1e-6)


def test_invalid_step_rejected():
    with pytest.raises(ValueError):
        evolve.propagate_unitary(SCHEDULE, step=0.0)


@pytest.mark.parametrize("tau, step", [(np.inf, 0.05), (np.nan, 0.05), (120.0, np.inf),
                                       (120.0, np.nan), (0.0, 0.05), (120.0, -1.0)])
def test_grid_needs_finite_positive_tau_and_step(tau, step):
    with pytest.raises(ValueError, match="finite and positive"):
        evolve.propagate_unitary_h(evolve.schedule_hamiltonian(SCHEDULE), tau, step)


def test_trace_csv_header():
    trace = evolve.propagate_unitary(SCHEDULE, step=10.0)
    text = evolve.trace_to_csv(trace)
    assert text.splitlines()[0] == "t_ns,P_g,P_e,P_f"


def test_stacked_generator_matches_lindblad_superoperator():
    params = model.DispersiveSystemParams.from_mhz()
    schedule_2q, cavity = twoqubit._selective_drive(GATE, "sr-nhqc", None, 0.0, params)
    # The Fock blocks are the diagonal blocks of the full-space Hamiltonian.
    ts = np.array([0.0, 0.37 * schedule_2q.tau, schedule_2q.tau])
    dense = dispersive_hamiltonian(params, bright_drive_hamiltonian(FRAME, *schedule_2q.drive(ts)))
    fock = np.arange(params.n_fock)
    blocks = dense.reshape(len(ts), params.n_fock, 3, params.n_fock, 3)[:, fock, :, fock]
    assert np.max(np.abs(cavity.hamiltonians(ts) - blocks.swapaxes(0, 1))) < 1e-15
    qutrit_ops = model.collapse_operators(NoiseModel.from_coherence_times())
    cases = [(SCHEDULE, evolve.schedule_hamiltonian(SCHEDULE), qutrit_ops,
              lambda hd: hd),
             (schedule_2q, full_space_hamiltonian(cavity),
              [np.kron(np.eye(params.n_fock), c) for c in qutrit_ops]
              + cavity_collapse_operators(model.DEVICE["cavity_t1_us"], CAVITY_T2STAR_US,
                                          params.n_fock),
              lambda hd: dispersive_hamiltonian(params, hd))]
    for schedule, ham, c_ops, lift in cases:
        ts = np.array([0.0, 0.37 * schedule.tau, schedule.tau])
        h_ref = lift(bright_drive_hamiltonian(FRAME, *schedule.drive(ts)))
        assert np.max(np.abs(ham.hamiltonians(ts) - h_ref)) < 1e-15
        d2 = ham.h0.shape[0] ** 2
        l0, l_a, l_ad = lindblad_generator(ham, c_ops).reshape(3, d2, d2)
        for a, h in zip(ham.coefficient(ts), h_ref):
            expected = evolve.lindblad_superoperator(h, c_ops)
            assert np.max(np.abs(l0 + a * l_a + np.conj(a) * l_ad - expected)) < 1e-14


def test_hermitian_basis_is_orthonormal_with_populations_first():
    basis = evolve.hermitian_basis(3)
    assert np.max(np.abs(qmath.dagger(basis) @ basis - np.eye(9))) < 1e-15
    matrices = basis.T.reshape(9, 3, 3)
    assert np.array_equal(matrices, qmath.dagger(matrices))
    assert np.array_equal(matrices[:3], np.eye(9).reshape(9, 3, 3)[::4])
    # The trace of each basis matrix: 1 on the populations, 0 after.
    assert np.allclose(np.eye(3).reshape(-1) @ basis, [1, 1, 1, 0, 0, 0, 0, 0, 0],
                       rtol=0, atol=1e-16)


def _complex_matrices(count):
    """Strategy for (count, 3, 3) complex matrices with entries in the unit square."""
    return hnp.arrays(np.float64, (count, 2, 3, 3), elements=st.floats(-1.0, 1.0)).map(
        lambda x: x[:, 0] + 1j * x[:, 1])


@settings(max_examples=25, deadline=None)
@given(h=_complex_matrices(1), a_op=_complex_matrices(1),
       c_ops=st.integers(0, 3).flatmap(_complex_matrices),
       a=st.complex_numbers(max_magnitude=2.0))
def test_real_generator_is_the_lindblad_superoperator_in_the_hermitian_basis(h, a_op, c_ops,
                                                                            a):
    h0, a_op, c_ops = h[0] + qmath.dagger(h[0]), a_op[0], list(c_ops)
    # The generator reads h0 and A, not the drive.
    ham = evolve.DrivenHamiltonian(h0, a_op, drive=None)
    basis = evolve.hermitian_basis(3)
    l0, l_x, l_y = blocks = evolve.real_lindblad_generator(ham, c_ops)
    assert blocks.dtype == np.float64
    lsup = basis @ (l0 + a.real * l_x + a.imag * l_y) @ qmath.dagger(basis)
    h_total = h0 + a * a_op + np.conj(a) * qmath.dagger(a_op)
    assert np.max(np.abs(lsup - evolve.lindblad_superoperator(h_total, c_ops))) < 1e-13


def test_non_finite_run_raises():
    # A collapse rate this large overflows the generator, so the states
    # and their trace drift come out NaN.
    huge = [1e200 * np.outer(model.KET_G, model.KET_E)]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RuntimeError):
        evolve.propagate_lindblad_h(evolve.schedule_hamiltonian(SCHEDULE),
                                    huge, SCHEDULE.tau, 10.0)


@pytest.mark.parametrize("gate, scheme, noise", [
    ("X", "sr-nhqc", NoiseModel.from_coherence_times()),
    ("Y/2", "sr-nhqc", NoiseModel.from_coherence_times()),
    ("X", "nhqc", None)], ids=["sr-X-noisy", "sr-Y/2-noisy", "nhqc-X-noiseless"])
def test_step_maps_match_stage_loop(gate, scheme, noise):
    # The ragged step counts pin the identity steps that pad the last chunk.
    spec = NAMED_GATES[gate]
    schedule = build_schedule(spec, scheme)
    ham, c_ops = evolve._open_system(schedule, noise)
    basis = np.eye(9, dtype=complex).reshape(9, 3, 3)
    for step in (DEFAULT_STEP_1Q, *(schedule.tau / n for n in RAGGED_COUNTS)):
        times, populations, finals = evolve.propagate_lindblad_h(ham, c_ops, schedule.tau,
                                                                 step)
        ref_times, ref_states = lindblad_stage_loop(ham, c_ops, schedule.tau, step, basis)
        assert np.array_equal(times, ref_times)
        # The populations of the diagonal inputs |i><i|, columns 4 i.
        ref_populations = np.einsum("nmii->nmi", ref_states[:, ::4]).real
        assert np.max(np.abs(populations - ref_populations)) < 1e-13
        assert np.max(np.abs(finals - ref_states[-1])) < 1e-13


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(0.05, np.pi - 0.05), phi=st.floats(0.0, 2 * np.pi),
       gamma=st.floats(0.1, 2 * np.pi - 0.1))
def test_noiseless_channel_of_any_gate_is_cptp_and_on_target(theta, phi, gamma):
    gate = GateSpec(theta, phi, gamma)
    for scheme in SCHEMES:
        channel = evolve.gate_channel(build_schedule(gate, scheme))
        choi = channel.T.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(9, 9)
        assert np.linalg.eigvalsh(0.5 * (choi + qmath.dagger(choi)))[0] > -1e-8
        assert cohfit.channel_average_gate_error(channel, gate) < 1e-9


# The noisy twin: under the device's coherence times every gate's channel
# is CPTP, and its image of |g><g| is the complex stage loop's state.
@settings(max_examples=25, deadline=None)
@given(theta=st.floats(0.05, np.pi - 0.05), phi=st.floats(0.0, 2 * np.pi),
       gamma=st.floats(0.1, 2 * np.pi - 0.1), scheme=st.sampled_from(SCHEMES))
def test_noisy_channel_of_any_gate_is_cptp_and_matches_the_stage_loop(theta, phi, gamma,
                                                                      scheme):
    noise = NoiseModel.from_coherence_times()
    schedule = build_schedule(GateSpec(theta, phi, gamma), scheme)
    channel = evolve.gate_channel(schedule, noise)
    evolve._check_cptp(channel)
    ham, c_ops = evolve._open_system(schedule, noise)
    _, states = lindblad_stage_loop(ham, c_ops, schedule.tau, DEFAULT_STEP_1Q,
                                    qmath.projector(model.KET_G)[None])
    assert np.max(np.abs(channel[:, 0] - states[-1, 0].reshape(-1))) < 1e-13


def _dense_midpoint_product(ham, tau, step):
    times = evolve._time_grid(tau, step)
    u = np.eye(ham.h0.shape[0], dtype=complex)
    for h in ham.hamiltonians(0.5 * (times[:-1] + times[1:])):
        u = scipy.linalg.expm(-1j * h * (times[1] - times[0])) @ u
    return u


def test_block_diagonal_gate_matches_dense_midpoint_product():
    # Each Fock block of the cavity gate, a qutrit run of its own, against
    # the matching diagonal block of the dense 12x12 midpoint product,
    # whose off-diagonal blocks are zero; theta = 0 drives e-f only, so
    # |g> never couples to the rest of the one qutrit block.
    params = model.DispersiveSystemParams.from_mhz()
    _, cavity = twoqubit._selective_drive(GATE, "sr-nhqc", 13.8, 0.0, params)
    qutrit = evolve.schedule_hamiltonian(build_sr_nhqc(GateSpec(0.0, 0.0, np.pi), 120.0))
    cases = [(cavity, full_space_hamiltonian(cavity), 13.8, 0.69),
             (qutrit, qutrit, 120.0, 1.0)]
    for ham, dense, tau, step in cases:
        blocks = []
        for h0 in ham.h0.reshape(-1, 3, 3):
            block = replace(ham, h0=h0)
            _, unitaries = evolve.propagate_unitary_h(block, tau, step)
            _, finals = evolve.scaled_final_unitaries(block, tau, step, (1.0,))
            assert unitaries.shape[1:] == (3, 3)
            assert np.array_equal(finals[0], unitaries[-1])
            blocks.append(unitaries[-1])
        gap = scipy.linalg.block_diag(*blocks) - _dense_midpoint_product(dense, tau, step)
        assert np.max(np.abs(gap)) < 1e-13


# The closed core runs one qutrit block; a Fock-block stack is the
# caller's to split.
@pytest.mark.parametrize("run", [
    lambda ham: evolve.propagate_unitary_h(ham, 13.8, 0.69),
    lambda ham: evolve.scaled_final_unitaries(ham, 13.8, 0.69, (1.0,))],
    ids=["propagate_unitary_h", "scaled_final_unitaries"])
def test_closed_core_rejects_a_stack_of_blocks(run):
    _, cavity = twoqubit._selective_drive(GATE, "sr-nhqc", 13.8, 0.0,
                                          model.DispersiveSystemParams.from_mhz())
    with pytest.raises(ValueError, match="stack") as info:
        run(cavity)
    assert "\n" not in str(info.value)
