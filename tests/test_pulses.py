import numpy as np
import pytest

from holonomy_lab import pulses
from holonomy_lab.pulses import (SCHEME_NHQC, SCHEME_SR, SCHEMES, GateSpec, apply_rabi_error,
                                 build_dynamical, build_nhqc, build_schedule, build_sr_nhqc)


def test_target_unitary_known_gates():
    x = pulses.GATE_X.target_unitary()
    assert np.allclose(x, -1j * np.array([[0, 1], [1, 0]]), atol=1e-12)
    x2 = pulses.GATE_X2.target_unitary()
    assert np.allclose(x2 @ x2, x, atol=1e-12)
    y = pulses.GATE_Y.target_unitary()
    assert np.allclose(y, -1j * np.array([[0, -1j], [1j, 0]]), atol=1e-12)


def test_target_unitary_is_unitary_everywhere():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = GateSpec(*rng.uniform(0, 2 * np.pi, 3))
        u = g.target_unitary()
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_envelope_area_normalization():
    seg = pulses.PulseSegment(np.pi, 0.0, 15.0)
    ts = np.linspace(0, seg.duration, 4001)
    vals = [pulses._envelope(seg.area, seg.duration, t) for t in ts]
    assert np.isclose(np.trapezoid(vals, ts), np.pi, rtol=1e-6)
    assert np.isclose(vals[0], 0.0, atol=1e-12)
    assert np.isclose(vals[-1], 0.0, atol=1e-12)


def _total_area(schedule):
    return schedule.amp_scale * sum(seg.area for seg in schedule.segments)


def test_sr_schedule_layout():
    s = build_sr_nhqc(GateSpec(np.pi / 2, 0.0, np.pi), 120.0)
    assert len(s.segments) == 6
    assert np.isclose(sum(seg.duration for seg in s.segments), 120.0)
    assert np.isclose(_total_area(s), 4 * np.pi)
    areas = [seg.area for seg in s.segments]
    assert np.allclose(areas, [np.pi / 2, np.pi, np.pi / 2,
                               np.pi / 2, np.pi, np.pi / 2])


def test_nhqc_schedule_layout():
    g = GateSpec(np.pi / 2, 0.0, 1.0)
    s = build_nhqc(g, 60.0)
    assert len(s.segments) == 2
    assert np.isclose(_total_area(s), 2 * np.pi)
    assert np.isclose(s.segments[0].phase - s.segments[1].phase, g.gamma - np.pi)


def test_rabi_error_scales_area_not_phase():
    s = build_sr_nhqc(GateSpec(np.pi / 2, 0.0, np.pi), 120.0)
    se = apply_rabi_error(s, -0.05)
    assert np.isclose(_total_area(se), 4 * np.pi * 0.95)
    om0, ph0 = s.drive(17.0)
    om1, ph1 = se.drive(17.0)
    assert np.isclose(om1, 0.95 * om0)
    assert np.isclose(ph1, ph0)
    with pytest.raises(ValueError):
        apply_rabi_error(s, 1.5)


def test_dynamical_sampler_finite_and_smooth_limits():
    s = build_dynamical(GateSpec(np.pi / 2, 0.0, np.pi), 105.0)
    for t in np.linspace(0, 105.0, 701):
        om, phi1 = s.drive(t)
        assert np.isfinite(om) and np.isfinite(phi1)
    # endpoints and midpoint are envelope zeros
    assert s.drive(0.0)[0] == 0.0
    assert abs(s.drive(52.5)[0]) < 1e-6


def _segment_drive_loop(schedule, t):
    """Segment lookup one time at a time: the reference for drive on a grid."""
    t0 = 0.0
    for seg in schedule.segments:
        if t <= t0 + seg.duration + 1e-12:
            om = pulses._envelope(seg.area, seg.duration, min(max(t - t0, 0.0), seg.duration))
            return schedule.amp_scale * om, -seg.phase
        t0 += seg.duration
    return 0.0, 0.0


@pytest.mark.parametrize("scheme", SCHEMES)
def test_drive_on_a_grid_matches_one_time_at_a_time(scheme):
    s = apply_rabi_error(build_schedule(GateSpec(1.1, 0.7, 2.3), scheme), 0.03)
    bounds = np.cumsum([seg.duration for seg in s.segments])
    ts = np.concatenate([[0.0, s.tau / 2, s.tau], bounds, np.linspace(0.0, s.tau, 601)])
    om, phi1 = s.drive(ts)
    assert om.shape == phi1.shape == ts.shape
    one = np.array([s.drive(t) for t in ts])
    assert np.array_equal(om, one[:, 0]) and np.array_equal(phi1, one[:, 1])
    if s.segments:
        loop = np.array([_segment_drive_loop(s, t) for t in ts])
        assert np.array_equal(np.column_stack([om, phi1]), loop)


def test_build_schedule_dispatch_and_defaults():
    g = GateSpec(np.pi / 2, 0.0, np.pi)
    assert build_schedule(g, "sr-nhqc").tau == 120.0
    assert build_schedule(g, "nhqc").tau == 60.0
    assert build_schedule(g, "dynamical").tau == 105.0
    with pytest.raises(ValueError):
        build_schedule(g, "adiabatic")


def test_drive_rejects_out_of_range_time():
    s = build_sr_nhqc(GateSpec(np.pi / 2, 0.0, np.pi), 120.0)
    with pytest.raises(ValueError):
        s.drive(-1.0)
    with pytest.raises(ValueError):
        s.drive(121.0)


def _segment_index_loop(schedule, t):
    """Segment lookup one time at a time: the reference for PulseSchedule._segment_of."""
    t0 = 0.0
    for i, seg in enumerate(schedule.segments):
        t0 += seg.duration
        if t <= t0 + 1e-12:
            return i
    return len(schedule.segments) - 1


@pytest.mark.parametrize("scheme", (SCHEME_SR, SCHEME_NHQC))
def test_segment_lookup_matches_one_row_at_a_time(scheme):
    s = build_schedule(GateSpec(1.1, 0.7, 2.3), scheme)
    ends = np.cumsum([seg.duration for seg in s.segments])
    edges = np.concatenate([[0.0, s.tau / 2, s.tau], ends])
    near = np.concatenate([edges + d for d in (-2e-12, -5e-13, 5e-13, 2e-12)])
    ts = np.concatenate([edges, np.clip(near, 0.0, s.tau), [s.tau + 5e-10],
                         np.linspace(0.0, s.tau, 601)])
    assert np.array_equal(s._segment_of(ts), [_segment_index_loop(s, t) for t in ts])
