import functools
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from holonomy_lab import evolve, model, qmath, twoqubit
from holonomy_lab.model import DispersiveSystemParams, NoiseModel
from holonomy_lab.pulses import (DEFAULT_STEP_2Q, DEFAULT_TAU_TWO_QUBIT, GATE_X, GateSpec,
                                 PulseSchedule, build_schedule, rabi_scale)
from holonomy_lab.twoqubit import CNOT_GATE
from reference import (CAVITY_T2STAR_US, cavity_collapse_operators, cnot_robustness_per_error,
                       cnot_state_fidelity_full, cnot_state_fidelity_whole,
                       segment_exact_unitary, state_index, two_qubit_gate_full)

CAVITY_T1_US = model.DEVICE["cavity_t1_us"]


def _quiet_gate(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return twoqubit.build_two_qubit_gate(*args, **kwargs)


def test_state_indexing():
    assert state_index(0, "g") == 0
    assert state_index(0, "f") == 2
    assert state_index(2, "g") == 6
    assert state_index(2, "f") == 8


def test_two_qubit_target_structure():
    tgt = twoqubit.two_qubit_target(CNOT_GATE)
    u1 = CNOT_GATE.target_unitary()
    assert np.allclose(tgt[:2, :2], u1)
    assert np.allclose(tgt[2:, 2:], np.eye(2))
    assert np.allclose(tgt[:2, 2:], 0)


def test_identity_loop_returns_identity_block():
    # gamma = 0 traverses the loop without imprinting a holonomy; the
    # corrected computational block is the identity up to the residual
    # photon-number-selectivity leakage of a few 1e-3.
    block = _quiet_gate(GateSpec(np.pi / 2, 0.0, 0.0)).block
    assert qmath.unitary_fidelity(block, np.eye(4)) > 0.997
    assert np.max(np.abs(block - np.eye(4))) < 8e-3


def test_cnot_block_matches_target():
    res = _quiet_gate(CNOT_GATE)
    fid = qmath.unitary_fidelity(res.block, twoqubit.two_qubit_target(CNOT_GATE))
    assert fid > 0.995
    assert res.leakage < 0.03


def test_leakage_warning_fires():
    with pytest.warns(RuntimeWarning, match="leakage"):
        twoqubit.build_two_qubit_gate(CNOT_GATE)


def test_cnot_population_transfer():
    # The block's basis is (|0g>, |0f>, |2g>, |2f>).
    block = _quiet_gate(CNOT_GATE).block
    # control |0>: transmon flips f -> g
    assert abs(block[0, 1]) ** 2 > 0.99
    # control |2>: spectator, transmon stays in g
    assert abs(block[2, 2]) ** 2 > 0.99


# CNOT, the identity loop and an off-axis gate on either scheme; nhqc at
# its own 1 380 ns default.
@pytest.mark.parametrize("scheme", ["sr-nhqc", "nhqc"])
@pytest.mark.parametrize("gate", [CNOT_GATE, GateSpec(np.pi / 2, 0.0, 0.0),
                                  GateSpec(1.1, 0.4, 2.3)],
                         ids=["cnot", "gamma-0", "off-axis"])
def test_gate_matches_the_full_space_gate(scheme, gate):
    res = _quiet_gate(gate, scheme)
    block, leakage = two_qubit_gate_full(gate, scheme)
    np.testing.assert_allclose(res.block, block, rtol=0, atol=1e-12)
    assert abs(res.leakage - leakage) <= 1e-12


# Block 0 on the default grid is one exponential per distinct segment:
# its (|0g>, |0f>) corner against e^{-i gamma/2} times the segment-exact
# propagator's (g, f) corner, with gaps up to 1.6e-15.  The dense 12x12
# chain is up to 8.5e-13 from that propagator.
@pytest.mark.parametrize("scheme", ["sr-nhqc", "nhqc"])
@pytest.mark.parametrize("gate", [CNOT_GATE, GateSpec(np.pi / 2, 0.0, 0.0),
                                  GateSpec(1.1, 0.4, 2.3)],
                         ids=["cnot", "gamma-0", "off-axis"])
def test_gate_block_0_matches_the_segment_exact_unitary(scheme, gate):
    block = _quiet_gate(gate, scheme).block
    exact = segment_exact_unitary(twoqubit._two_qubit_schedule(gate, scheme, None))
    qubit = np.ix_([model.G, model.F], [model.G, model.F])
    np.testing.assert_allclose(block[:2, :2], np.exp(-1j * gate.gamma / 2) * exact[qubit],
                               rtol=0, atol=1e-14)


# Each photonic-qubit Fock block is one qutrit run per distinct segment:
# block 0 one step of each sr-nhqc segment shape's summed drive, block 2
# each shape on its own grid; no other Fock block runs.
def test_gate_propagates_the_photonic_qubit_blocks_only(monkeypatch):
    calls, real = [], evolve.scaled_final_unitaries

    def counted(ham, tau, step, scales):
        times, finals = real(ham, tau, step, scales)
        calls.append((ham.h0, len(times) - 1, tuple(scales)))
        return times, finals

    monkeypatch.setattr(evolve, "scaled_final_unitaries", counted)
    _quiet_gate(CNOT_GATE)
    shift = model.dispersive_shift_hamiltonian(DispersiveSystemParams.from_mhz())
    assert [(steps, scales) for _, steps, scales in calls] == \
        [(1, (1.0,)), (1, (1.0,)), (690, (1.0,)), (1380, (1.0,))]
    for h0, steps, _ in calls:
        assert np.array_equal(h0, shift[0] if steps == 1 else shift[2])


def test_cnot_robustness_ordering():
    sr = twoqubit.cnot_robustness([0.1], "sr-nhqc")
    nh = twoqubit.cnot_robustness([0.1], "nhqc")
    assert sr[0].p_g > nh[0].p_g
    assert sr[0].p_g > 0.99


# The benchmark's drawn grids at seeds 0, 3 and 7 on the default grid,
# where every segment boundary lies on a grid point and block 0 is one
# exponential per distinct segment: against the segment-exact propagator
# at scale 1 + epsilon, with gaps up to 3.1e-15.  The dense 12x12 chain
# is itself up to 1.5e-12 from that propagator.  A short coarse gate,
# whose sr-nhqc boundaries fall between grid points so that it runs on
# the chain, against the dense 12x12 chain; the gaps are up to 8.5e-14.
@pytest.mark.parametrize("scheme", ["sr-nhqc", "nhqc"])
@pytest.mark.parametrize("grid, tau, step, oracle", [
    ([-0.0482, -0.0159, 0.0, 0.0516, 0.0689], None, 0.5, "exact"),
    ([-0.0524, -0.0260, 0.0, 0.0088, 0.0208], None, 0.5, "exact"),
    ([-0.0855, -0.0698, -0.0352, 0.0, 0.0302], None, 0.5, "exact"),
    ([-0.1, 0.0, 0.05], 700.0, 2.0, "dense")], ids=["seed0", "seed3", "seed7", "coarse"])
def test_cnot_robustness_matches_the_full_gate_per_error(scheme, grid, tau, step, oracle):
    rows = twoqubit.cnot_robustness(grid, scheme, tau, step)
    assert [r.epsilon for r in rows] == grid
    got = np.array([(r.p_g, r.p_e, r.p_f) for r in rows])
    if oracle == "exact":
        schedule = twoqubit._two_qubit_schedule(CNOT_GATE, scheme, tau)
        expected = [np.abs(segment_exact_unitary(schedule, rabi_scale(eps))[:, model.F]) ** 2
                    for eps in grid]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)
    else:
        expected = cnot_robustness_per_error(grid, scheme, tau, step)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


# On the default grid every distinct segment of block 0 is one step of
# its summed drive: sr-nhqc's two segment shapes, nhqc's one.
@pytest.mark.parametrize("scheme, runs", [("sr-nhqc", 2), ("nhqc", 1)])
@pytest.mark.parametrize("points", [1, 7])
def test_cnot_robustness_is_one_exponential_per_distinct_segment(monkeypatch, scheme, runs,
                                                                 points):
    recorded, real = [], evolve.scaled_final_unitaries

    def counted(ham, tau, step, scales):
        times, finals = real(ham, tau, step, scales)
        recorded.append((ham.h0.shape, len(times) - 1, len(scales)))
        return times, finals

    monkeypatch.setattr(evolve, "scaled_final_unitaries", counted)
    twoqubit.cnot_robustness(np.linspace(-0.1, 0.1, points), scheme)
    assert recorded == [((3, 3), 1, points)] * runs


# Block 0's one-exponential pieces against the segment-exact propagator,
# whole unitaries on a gate whose bright frame is complex (phi = 0.4), so
# that a wrong drive phase shows; the CNOT's populations do not see it.
@pytest.mark.parametrize("scheme", ["sr-nhqc", "nhqc"])
def test_one_exponential_pieces_match_the_segment_exact_unitary(scheme):
    schedule = twoqubit._two_qubit_schedule(GateSpec(1.1, 0.4, 2.3), scheme, None)
    scales = (0.9, 1.0, 1.05)
    finals = twoqubit._piece_product(
        twoqubit._grid_pieces(schedule, DEFAULT_STEP_2Q),
        functools.partial(twoqubit._closed_final, evolve.schedule_hamiltonian(schedule), scales))
    np.testing.assert_allclose(finals, [segment_exact_unitary(schedule, s) for s in scales],
                               rtol=0, atol=1e-14)


# Off the grid the schedule is one piece on the chain: the same bits as
# one scaled_final_unitaries run of the whole schedule.
@pytest.mark.parametrize("scheme, tau, step", [("sr-nhqc", 64.17, 0.69),
                                               ("nhqc", 100.3, 0.5)])
def test_cnot_robustness_off_the_grid_is_the_whole_run(scheme, tau, step):
    grid = [-0.1, 0.0, 0.05]
    schedule = twoqubit._two_qubit_schedule(CNOT_GATE, scheme, tau)
    assert len(twoqubit._grid_pieces(schedule, step)) == 1
    finals = evolve.scaled_final_unitaries(evolve.schedule_hamiltonian(schedule), tau, step,
                                           [rabi_scale(eps) for eps in grid])[1]
    rows = twoqubit.cnot_robustness(grid, scheme, tau, step)
    assert np.array_equal([(r.p_g, r.p_e, r.p_f) for r in rows],
                          np.abs(finals[:, :, model.F]) ** 2)


# Block 2's dispersive shift keeps its pieces on the chain, one run per
# distinct segment; their product against one run of the whole schedule.
# The gaps are up to 2e-14.
@pytest.mark.parametrize("scheme", ["sr-nhqc", "nhqc"])
def test_piece_product_on_a_shifted_block_matches_the_whole_run(scheme):
    schedule, ham = twoqubit._selective_drive(CNOT_GATE, scheme, None, 0.0,
                                              DispersiveSystemParams.from_mhz())
    block = replace(ham, h0=ham.h0[2])
    scales = (1.0, 1.05)
    pieces = twoqubit._piece_product(twoqubit._grid_pieces(schedule, DEFAULT_STEP_2Q),
                                     functools.partial(twoqubit._closed_final, block, scales))
    whole = evolve.scaled_final_unitaries(block, schedule.tau, DEFAULT_STEP_2Q, scales)[1]
    np.testing.assert_allclose(pieces, whole, rtol=0, atol=1e-13)


def test_two_qubit_commands_reject_the_dynamical_scheme():
    with pytest.raises(ValueError, match="scheme"):
        twoqubit.cnot_robustness([0.0], "dynamical")
    with pytest.raises(ValueError, match="scheme"):
        twoqubit.build_two_qubit_gate(CNOT_GATE, "dynamical")


def test_cavity_noise_operators():
    ops = cavity_collapse_operators(CAVITY_T1_US, CAVITY_T2STAR_US, 4)
    assert len(ops) == 2
    for c in ops:
        assert c.shape == (12, 12)
    # lowering operator couples adjacent Fock blocks only
    low = ops[0]
    assert abs(low[state_index(0, "g"), state_index(1, "g")]) > 0
    assert abs(low[state_index(0, "g"), state_index(2, "g")]) == 0


def test_outputs():
    rows = [twoqubit.RobustnessRow(0.0, 1.0, 0.0, 0.0)]
    text = twoqubit.robustness_to_csv(rows)
    assert text.splitlines()[0] == "epsilon,P_g,P_e,P_f"


def test_closed_and_open_gate_sample_one_time_grid(monkeypatch):
    # 64.17 / 0.69 evaluates to 93.00000000000001: a grid that rounds up
    # naively takes 94 steps instead of 93.  The first segment boundary
    # falls at 11.625 steps, so the open run is the whole schedule.
    sampled = []
    real = PulseSchedule.drive

    def recorded(self, t):
        sampled.append(np.atleast_1d(t))
        return real(self, t)

    monkeypatch.setattr(PulseSchedule, "drive", recorded)
    _quiet_gate(CNOT_GATE, tau=64.17, step=0.69)
    closed = sampled[:]
    sampled.clear()
    twoqubit.cnot_state_fidelity(tau=64.17, step=0.69)
    # One call per run: each Fock block's closed run samples one midpoint
    # per step, its RK4 run the grid points and step midpoints.
    assert [len(t) for t in closed] == [93] * 2
    assert np.array_equal(closed[0], closed[1])
    assert [len(t) for t in sampled] == [2 * 93 + 1] * 2
    for t in sampled:
        np.testing.assert_allclose(np.sort(t)[1::2], closed[0], rtol=0, atol=1e-12)


def test_cnot_state_fidelity_is_pinned():
    assert abs(twoqubit.cnot_state_fidelity() - 0.9509618050577326) <= 1e-15


# The two Fock-block qutrit runs against one RK4 stage-loop run of |0f>
# and |2g> on the whole Fock (x) qutrit space with every collapse
# operator, cavity dephasing included: the package has no T2* to pass,
# and the oracle's, 243 us or 15 us, does not move the figure.  The gaps
# are 5e-15 to 2.2e-13.
@pytest.mark.parametrize("scheme, epsilon, t1_us, t2star_us", [
    ("sr-nhqc", 0.0, CAVITY_T1_US, CAVITY_T2STAR_US),
    ("nhqc", 0.0, CAVITY_T1_US, CAVITY_T2STAR_US),
    ("sr-nhqc", 0.05, CAVITY_T1_US, CAVITY_T2STAR_US),
    ("sr-nhqc", 0.0, 20.0, 15.0)],
    ids=["sr-nhqc", "nhqc", "epsilon-0.05", "cavity-20-15us"])
def test_cnot_state_fidelity_matches_the_full_space_run(scheme, epsilon, t1_us, t2star_us):
    blocks = twoqubit.cnot_state_fidelity(
        transmon_noise=NoiseModel.from_coherence_times(epsilon=epsilon),
        cavity_t1_us=t1_us, scheme=scheme)
    assert abs(blocks - cnot_state_fidelity_full(scheme, epsilon, t1_us, t2star_us)) <= 1e-12


def _recorded_lindblad_runs(monkeypatch):
    """The (h0, steps, finals shape) of every propagate_lindblad_h run."""
    runs, real = [], evolve.propagate_lindblad_h

    def recorded(ham, c_ops, tau, step):
        run = real(ham, c_ops, tau, step)
        runs.append((ham.h0, len(run[0]) - 1, run[2].shape))
        return run

    monkeypatch.setattr(evolve, "propagate_lindblad_h", recorded)
    return runs


def test_cnot_state_fidelity_is_two_qutrit_channel_runs(monkeypatch):
    # A segment boundary off the grid: each block is one whole run.
    runs = _recorded_lindblad_runs(monkeypatch)
    twoqubit.cnot_state_fidelity(tau=64.17, step=0.69)
    shift = model.dispersive_shift_hamiltonian(DispersiveSystemParams.from_mhz())
    assert [shape for _, _, shape in runs] == [(9, 3, 3), (9, 3, 3)]
    assert np.array_equal(runs[0][0], np.zeros((3, 3)))
    assert np.array_equal(runs[1][0], shift[2])


# On the default grid each distinct segment of the CNOT is one run per
# Fock block: sr-nhqc's (pi/2, tau/8) and (pi, tau/4) shapes, nhqc's one
# (pi, tau/2) segment, instead of 5 520 and 2 760 steps per block.
@pytest.mark.parametrize("scheme, steps", [("sr-nhqc", [690, 1380]), ("nhqc", [1380])])
def test_cnot_state_fidelity_integrates_each_distinct_segment_once(monkeypatch, scheme,
                                                                    steps):
    runs = _recorded_lindblad_runs(monkeypatch)
    twoqubit.cnot_state_fidelity(scheme=scheme)
    shift = model.dispersive_shift_hamiltonian(DispersiveSystemParams.from_mhz())
    assert [n for _, n, _ in runs] == steps * 2
    for h0, _, _ in runs[:len(steps)]:
        assert np.array_equal(h0, np.zeros((3, 3)))
    for h0, _, _ in runs[len(steps):]:
        assert np.array_equal(h0, shift[2])


@pytest.mark.parametrize("scheme", ["sr-nhqc", "nhqc"])
def test_default_grid_puts_every_segment_boundary_on_a_grid_point(scheme):
    schedule = twoqubit._two_qubit_schedule(CNOT_GATE, scheme, None)
    assert schedule.tau == DEFAULT_TAU_TWO_QUBIT[scheme]
    pieces = twoqubit._grid_pieces(schedule, DEFAULT_STEP_2Q)
    assert [piece.segments for piece, _ in pieces] == [(seg,) for seg in schedule.segments]


def test_a_schedule_without_segments_is_one_piece():
    schedule = build_schedule(GATE_X, "dynamical")
    assert twoqubit._grid_pieces(schedule, 0.5) == [(schedule, 0.5)]


# The composed channels against one run of the whole schedule per block.
# The gaps are 3.1e-15 to 1.6e-14.
@pytest.mark.parametrize("scheme, epsilon, t1_us", [
    ("sr-nhqc", 0.0, CAVITY_T1_US), ("nhqc", 0.0, CAVITY_T1_US),
    ("sr-nhqc", 0.05, CAVITY_T1_US), ("sr-nhqc", 0.0, 20.0)],
    ids=["sr-nhqc", "nhqc", "epsilon-0.05", "cavity-20-15us"])
def test_cnot_state_fidelity_matches_the_whole_schedule_run(scheme, epsilon, t1_us):
    pieces = twoqubit.cnot_state_fidelity(
        transmon_noise=NoiseModel.from_coherence_times(epsilon=epsilon),
        cavity_t1_us=t1_us, scheme=scheme)
    assert abs(pieces - cnot_state_fidelity_whole(scheme, epsilon, t1_us)) <= 1e-13


# Off the grid the schedule is one run, exactly the whole-schedule run.
@pytest.mark.parametrize("scheme, tau, step", [("sr-nhqc", 64.17, 0.69),
                                               ("nhqc", 100.3, 0.5)])
def test_cnot_state_fidelity_off_the_grid_is_the_whole_run(scheme, tau, step):
    assert (twoqubit.cnot_state_fidelity(scheme=scheme, tau=tau, step=step)
            == cnot_state_fidelity_whole(scheme, tau=tau, step=step))


def _second_call_peak(fn):
    """Peak bytes allocated by a second call of fn, numpy buffers included."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# One default call peaks at 1.16 MB, mostly the kept diagonal rows and
# the populations of its longest run, 1 380 steps.  One 5 520-step run
# per block peaked at 3.96 MB, and the stage loop on the full space at
# 3.3 MB.  A stack of one 5 520-step run's 9x9 step maps would take
# 7.2 MB on its own.
def test_cnot_state_fidelity_holds_no_map_per_step():
    assert _second_call_peak(twoqubit.cnot_state_fidelity) <= 2e6


# The default gate is one qutrit run per distinct segment and Fock block:
# a single step on block 0, and on block 2 at most the 1 380 steps of one
# segment, whose distinct samples take one eigh with the eigenvalues and
# projectors written in place.  It peaks at 0.83 MB.  Its 5 520 steps as
# one run on a (2, 3, 3) Fock-block stack (1 697 samples, eigh slabs of
# at most 2 048 matrices) peaked at 2.31 MB, all 4 Fock blocks at 3.86 MB,
# and 4 blocks with full-size stacks of H, eigenvectors, their transpose
# and its conjugate next to the projectors at 7.1 MB.
def test_cavity_gate_setup_holds_no_full_size_stacks():
    assert _second_call_peak(lambda: _quiet_gate(CNOT_GATE)) <= 1.5e6


# The 5-point grid is one step per distinct segment and peaks at 0.11 MB.
# Chained over its 5 520 steps (1 697 samples on the qutrit) it peaked at
# 1.4 MB, and at 2.0 MB with full-size stacks.
def test_robustness_grid_setup_holds_no_full_size_stacks():
    assert _second_call_peak(lambda: twoqubit.cnot_robustness(
        np.linspace(-0.1, 0.1, 5))) <= 0.5e6
