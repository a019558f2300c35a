import numpy as np
import pytest

from holonomy_lab import cohfit, evolve
from holonomy_lab.model import NoiseModel
from holonomy_lab.pulses import GATE_X, build_schedule

RATES = (1 / 18.9, 1 / 12.7, 1 / 500)


def test_rate_equation_conserves_probability():
    t = np.linspace(0, 50, 201)
    pops = cohfit.rate_equation_populations(t, *RATES, p_e0=0.2, p_f0=0.7)
    assert np.allclose(pops.sum(axis=0), 1.0, atol=1e-12)
    assert np.all(pops >= -1e-12)


def test_rate_fit_round_trip():
    t = np.linspace(0, 60, 121)
    pops = cohfit.rate_equation_populations(t, *RATES, p_e0=0.0, p_f0=1.0)
    res = cohfit.fit_rate_equation(t, *pops)
    assert abs(res.gamma_ge * 18.9 - 1) < 1e-3
    assert abs(res.gamma_ef * 12.7 - 1) < 1e-3
    assert abs(res.gamma_gf * 500 - 1) < 1e-3
    assert res.residual_rms < 1e-5


def test_rate_fit_degenerate_channel():
    t = np.linspace(0, 60, 121)
    pops = cohfit.rate_equation_populations(t, RATES[0], RATES[1], 0.0,
                                            p_e0=0.0, p_f0=1.0)
    res = cohfit.fit_rate_equation(t, *pops)
    assert res.gamma_gf < 1e-4


def test_rate_fit_under_noise():
    t = np.linspace(0, 60, 121)
    clean = cohfit.rate_equation_populations(t, *RATES, p_e0=0.0, p_f0=1.0)
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = clean + rng.normal(0, 0.01, clean.shape)
        noisy = np.clip(noisy, 0, 1)
        noisy /= noisy.sum(axis=0)
        res = cohfit.fit_rate_equation(t, *noisy)
        worst = max(worst, abs(res.gamma_ge * 18.9 - 1),
                    abs(res.gamma_ef * 12.7 - 1))
    assert worst < 0.05


def test_rate_fit_rejects_bad_populations():
    t = np.linspace(0, 10, 20)
    with pytest.raises(ValueError):
        cohfit.fit_rate_equation(t, np.full(20, 0.8), np.full(20, 0.8),
                                 np.full(20, 0.8))


def test_ramsey_round_trip():
    t = np.linspace(0, 80, 801)
    y = 0.5 + 0.4 * np.exp(-t / 25.9) * np.cos(2 * np.pi * 0.5 * t + 0.3)
    res = cohfit.fit_ramsey(t, y)
    assert abs(res.t2_star / 25.9 - 1) < 1e-3
    assert abs(res.frequency / 0.5 - 1) < 1e-6
    assert not res.t2_is_lower_bound


def test_ramsey_zero_decay_reports_bound():
    t = np.linspace(0, 80, 801)
    y = 0.5 + 0.4 * np.cos(2 * np.pi * 0.5 * t + 0.3)
    res = cohfit.fit_ramsey(t, y)
    assert res.t2_is_lower_bound
    assert res.t2_star >= 80.0


def test_ramsey_exponential_offset_round_trip():
    t = np.linspace(0, 80, 801)
    y = 0.5 * np.exp(-t / 12.7) + 0.4 * np.exp(-t / 12.9) * \
        np.cos(2 * np.pi * 0.5 * t + 0.3)
    res = cohfit.fit_ramsey(t, y, offset="exponential")
    assert abs(res.t2_star / 12.9 - 1) < 0.02
    assert abs(res.offset_decay / 12.7 - 1) < 0.02


def test_ramsey_input_validation():
    with pytest.raises(ValueError):
        cohfit.fit_ramsey(np.arange(4.0), np.arange(4.0))
    with pytest.raises(ValueError):
        cohfit.fit_ramsey(np.arange(10.0), np.ones(10), offset="quadratic")


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -1.0])
def test_coherence_limited_error_rejects_non_finite_durations(tau):
    # NaN passed the old `tau_ns <= 0` check and gave a nan error.
    with pytest.raises(ValueError, match="finite and positive"):
        cohfit.coherence_limited_error(NoiseModel.from_coherence_times(), tau)


def test_coherence_limited_error_values():
    assert cohfit.coherence_limited_error(NoiseModel(), 120.0) == 0.0
    n = NoiseModel.from_coherence_times()
    e120 = cohfit.coherence_limited_error(n, 120.0)
    assert np.isclose(e120, 0.0043, atol=5e-5)
    assert np.isclose(cohfit.coherence_limited_error(n, 240.0), 2 * e120)
    with pytest.raises(ValueError):
        cohfit.coherence_limited_error(n, 0.0)


def test_budget_agrees_with_lindblad_simulation():
    # Cross-module check: the formula must sit within 30% of the
    # simulated open-system average error for the benchmark X gate.
    n = NoiseModel.from_coherence_times()
    e_formula = cohfit.coherence_limited_error(n, 120.0)
    schedule = build_schedule(GATE_X, "sr-nhqc")
    e_sim = cohfit.channel_average_gate_error(evolve.gate_channel(schedule, n), GATE_X)
    assert abs(e_sim - e_formula) / e_formula < 0.3
