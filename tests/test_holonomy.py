import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy_lab import evolve, holonomy, qmath
from holonomy_lab.pulses import (DEFAULT_STEP_1Q, GATE_X, SCHEMES, GateSpec, build_dynamical,
                                 build_nhqc, build_schedule, build_sr_nhqc, rabi_scale)
from reference import reconstructed_phase_integrands


def test_sr_phase_integrals_vanish():
    rec = holonomy.phase_record(build_sr_nhqc(GATE_X, 120.0))
    assert abs(rec.D11) < 1e-3 * np.pi
    assert abs(rec.D22) < 1e-3 * np.pi
    assert abs(rec.D12) < 1e-3 * np.pi
    assert rec.dark_max < 1e-10


def test_nhqc_cross_term_is_pi():
    rec = holonomy.phase_record(build_nhqc(GATE_X, 60.0))
    assert abs(rec.D11) < 1e-6
    assert abs(rec.D22) < 1e-6
    assert np.isclose(abs(rec.D12), np.pi, atol=1e-3)


def test_dynamical_diagonal_phases():
    rec = holonomy.phase_record(build_dynamical(GATE_X, 105.0))
    assert np.isclose(rec.D11 / np.pi, 0.75, atol=0.01)
    assert np.isclose(rec.D22 / np.pi, -0.75, atol=0.01)


def test_reconstruction_path_matches_direct():
    for scheme in ("sr-nhqc", "nhqc", "dynamical"):
        schedule = build_schedule(GATE_X, scheme)
        rec = holonomy.phase_record(schedule)
        d11_rec, d22_rec, d12_rec = reconstructed_phase_integrands(schedule)
        assert np.max(np.abs(rec.d11 - d11_rec)) < 1e-8
        assert np.max(np.abs(rec.d22 - d22_rec)) < 1e-8
        assert np.max(np.abs(rec.d12 - d12_rec)) < 1e-8


def test_analytic_fidelity_values():
    assert np.isclose(holonomy.analytic_fidelity(np.pi, 0.0), 1.0)
    assert np.isclose(holonomy.analytic_fidelity(np.pi, 0.1), 0.9994011, atol=1e-6)
    # gamma = 0 is the identity loop: insensitive at any error
    assert np.isclose(holonomy.analytic_fidelity(0.0, 0.3), 1.0)


def test_noisy_gate_reduces_to_target_at_zero_error():
    for gate in (GATE_X, GateSpec(1.1, 0.6, 2.2)):
        g0 = holonomy.analytic_noisy_gate(gate, 0.0)
        expected = np.exp(1j * gate.gamma / 2) * gate.target_unitary()
        assert np.max(np.abs(g0 - expected)) < 1e-12


def test_simulated_matches_analytic_law():
    for row in holonomy.robustness_sweep(GATE_X, "sr-nhqc", (0.0, 0.07, -0.12)):
        assert np.isclose(row.f_sim, holonomy.analytic_fidelity(np.pi, row.epsilon), atol=1e-4)


def test_error_scaling_exponents():
    eps = np.linspace(0.02, 0.1, 5)
    slopes = {}
    for scheme in ("sr-nhqc", "nhqc", "dynamical"):
        rows = holonomy.robustness_sweep(GATE_X, scheme, eps)
        slopes[scheme] = holonomy.fit_error_slope(
            [r.epsilon for r in rows], [r.f_sim for r in rows])
    assert abs(slopes["sr-nhqc"] - 4.0) < 0.2
    assert abs(slopes["nhqc"] - 2.0) < 0.2
    assert abs(slopes["dynamical"] - 2.0) < 0.2


def test_fit_error_slope_needs_points_above_floor():
    with pytest.raises(ValueError):
        holonomy.fit_error_slope([0.01, 0.02], [1.0, 1.0])


def test_perturbative_series_converges_with_order():
    schedule = build_sr_nhqc(GATE_X, 120.0)
    devs = [holonomy.perturbative_expansion_check(schedule, 0.1, n)
            for n in (0, 1, 2, 4)]
    # first-order term vanishes for the superrobust loop
    assert np.isclose(devs[0], devs[1], atol=1e-6)
    assert devs[2] < devs[0]
    assert devs[3] < devs[2]
    assert devs[3] < 1e-3
    with pytest.raises(ValueError):
        holonomy.perturbative_expansion_check(schedule, 0.1, 7)


def test_truncate_to_qubit_picks_computational_pair():
    u = np.arange(9, dtype=complex).reshape(3, 3)
    t = holonomy.truncate_to_qubit(u)
    assert np.allclose(t, [[0, 2], [6, 8]])


def test_csv_outputs():
    rec = holonomy.phase_record(build_sr_nhqc(GATE_X, 120.0), step=5.0)
    text = holonomy.phase_record_to_csv(rec)
    assert text.splitlines()[0] == "t_ns,d11,d22,Re_d12,Im_d12"
    rows = holonomy.robustness_sweep(GATE_X, "sr-nhqc", [0.0, 0.1], step=0.5)
    sweep = holonomy.sweep_to_csv(rows)
    assert sweep.splitlines()[0] == "epsilon,F_sim,F_analytic"


def test_sweep_kernel_calls_follow_the_chain_shape(monkeypatch):
    # One kernel call per chain position.  A position multiplies at most
    # CHAIN_MATRICES matrices, so the chunks narrow as the scales grow:
    # 127 chunks of 19 positions at 5 scales, 24 chunks of 100 at 41.
    calls = []
    kernel = evolve._step_exponentials
    monkeypatch.setattr(evolve, "_step_exponentials",
                        lambda *args: calls.append(1) or kernel(*args))
    steps = len(evolve._time_grid(build_schedule(GATE_X, "sr-nhqc").tau, DEFAULT_STEP_1Q)) - 1
    counts = []
    for points in (5, 41):
        calls.clear()
        holonomy.robustness_sweep(GATE_X, "sr-nhqc", np.linspace(-0.2, 0.2, points))
        counts.append(len(calls))
    assert counts == [evolve._chain_shape(steps, 3, points)[1] for points in (5, 41)]
    assert counts == [19, 100]
    assert max(counts) <= evolve.CHAIN_WIDTH


@settings(max_examples=10, deadline=None)
@given(theta=st.floats(0.05, np.pi - 0.05), phi=st.floats(0.0, 2 * np.pi),
       gamma=st.floats(0.1, 2 * np.pi - 0.1), scheme=st.sampled_from(SCHEMES),
       epsilons=st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=6))
def test_sweep_rows_match_per_point_fidelities(theta, phi, gamma, scheme, epsilons):
    gate = GateSpec(theta, phi, gamma)
    rows = holonomy.robustness_sweep(gate, scheme, epsilons, step=0.5)
    schedule = build_schedule(gate, scheme)
    _, finals = evolve.scaled_final_unitaries(evolve.schedule_hamiltonian(schedule),
                                              schedule.tau, 0.5,
                                              [rabi_scale(e) for e in epsilons])
    assert [r.epsilon for r in rows] == epsilons
    for row, eps, u in zip(rows, epsilons, finals):
        noisy = holonomy.analytic_noisy_gate(gate, eps)
        assert abs(row.f_sim - holonomy.gate_fidelity(u, gate)) <= 1e-15
        assert abs(row.f_analytic - qmath.unitary_fidelity(noisy, gate.target_unitary())) <= 1e-15
