"""Coherence-experiment simulation and fitting.

Three pieces: a global rate-equation fit of three-level population
decay, damped-sinusoid Ramsey fits (with a constant or exponentially
decaying offset), and the closed-form coherence-limited gate error
budget.  Rates are in 1/us and times in us except where a duration is
explicitly tagged in ns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import F, G, NoiseModel, US_TO_NS

# Decay rates below 1% over the record length are indistinguishable
# from zero; the Ramsey fit then reports a lower bound on T2*.
RAMSEY_BOUND_FRACTION = 0.01


@dataclass(frozen=True)
class DecayFitResult:
    """Fitted relaxation rates (1/us) with 95% confidence half-widths."""

    gamma_ge: float
    gamma_ef: float
    gamma_gf: float
    ci_ge: float
    ci_ef: float
    ci_gf: float
    residual_rms: float
    n_evaluations: int


@dataclass(frozen=True)
class RamseyFitResult:
    """y(t) = y0(t) + A exp(-t/T2*) cos(2 pi f t + phi).

    t2_star is in us and f in MHz when times are passed in us.  When the
    data shows no resolvable decay, t2_star carries a lower bound and
    t2_is_lower_bound is set instead of pretending to a value.
    """

    t2_star: float
    frequency: float
    amplitude: float
    offset: float
    phase: float
    offset_decay: Optional[float] = None
    t2_is_lower_bound: bool = False
    residual_rms: float = 0.0
    n_evaluations: int = 0


def rate_equation_populations(times: np.ndarray, gamma_ge: float,
                              gamma_ef: float, gamma_gf: float,
                              p_e0: float, p_f0: float) -> np.ndarray:
    """Closed-form solution of dp/dt = Gamma p for the decay cascade
    f -> e -> g with the direct f -> g channel.  Returns shape (3, len(t))
    ordered (P_g, P_e, P_f)."""
    t = np.asarray(times, dtype=float)
    g_f = gamma_ef + gamma_gf
    p_f = p_f0 * np.exp(-g_f * t)
    if abs(g_f - gamma_ge) > 1e-12:
        feed = gamma_ef * (np.exp(-gamma_ge * t) - np.exp(-g_f * t)) / (g_f - gamma_ge)
    else:
        feed = gamma_ef * t * np.exp(-gamma_ge * t)
    p_e = p_e0 * np.exp(-gamma_ge * t) + p_f0 * feed
    p_g = 1.0 - p_e - p_f
    return np.stack([p_g, p_e, p_f])


def fit_rate_equation(times: np.ndarray, p_g: np.ndarray, p_e: np.ndarray,
                      p_f: np.ndarray) -> DecayFitResult:
    """Global least-squares fit of the rate-equation solution.

    All three population traces enter one residual vector, so the
    shared rates are constrained by every channel at once.  The initial
    populations of |e> and |f> are nuisance parameters.
    """
    times = np.asarray(times, dtype=float)
    pops = np.stack([np.asarray(p, dtype=float) for p in (p_g, p_e, p_f)])
    if np.any(pops < -1e-9) or np.any(pops > 1 + 1e-9):
        raise ValueError("populations must lie in [0, 1]")
    if np.max(np.abs(pops.sum(axis=0) - 1.0)) > 1e-6:
        raise ValueError("populations must sum to 1 at every time")

    def model_flat(t, gge, gef, ggf, pe0, pf0):
        return rate_equation_populations(t, gge, gef, ggf, pe0, pf0).reshape(-1)

    span = max(times[-1] - times[0], 1e-9)
    p0 = (1.0 / span, 1.0 / span, 0.1 / span,
          float(np.clip(pops[1, 0], 0, 1)), float(np.clip(pops[2, 0], 0, 1)))
    from scipy.optimize import curve_fit  # kept off the import path
    popt, pcov, info, _, _ = curve_fit(
        model_flat, times, pops.reshape(-1), p0=p0,
        bounds=([0, 0, 0, 0, 0], [np.inf, np.inf, np.inf, 1, 1]),
        maxfev=20000, full_output=True)
    resid = pops.reshape(-1) - model_flat(times, *popt)
    ci = 1.96 * np.sqrt(np.clip(np.diag(pcov), 0, None))
    return DecayFitResult(
        gamma_ge=float(popt[0]), gamma_ef=float(popt[1]), gamma_gf=float(popt[2]),
        ci_ge=float(ci[0]), ci_ef=float(ci[1]), ci_gf=float(ci[2]),
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
        n_evaluations=int(info["nfev"]))


def _initial_ramsey_guess(times: np.ndarray, signal: np.ndarray
                          ) -> tuple[float, float, float, float]:
    """(f, A, y0, phi) seed from the FFT peak of the detrended signal."""
    y0 = float(np.mean(signal))
    detr = signal - y0
    dt = float(np.mean(np.diff(times)))
    freqs = np.fft.rfftfreq(len(times), dt)
    spec = np.abs(np.fft.rfft(detr))
    k = int(np.argmax(spec[1:])) + 1
    f0 = float(freqs[k])
    a0 = float(np.sqrt(2) * np.std(detr))
    phi0 = float(np.angle(np.fft.rfft(detr)[k]))
    return f0, a0, y0, phi0


def fit_ramsey(times: np.ndarray, signal: np.ndarray,
               offset: str = "constant") -> RamseyFitResult:
    """Damped-sinusoid fit of a Ramsey fringe.

    offset = "constant" fits y = y0 + A e^{-t/T2*} cos(2 pi f t + phi);
    offset = "exponential" replaces y0 by y0 e^{-t/T_off}, the form the
    e-f fringe takes when the upper level also relaxes during the scan.
    The decay is fit as a rate bounded at zero; when the fitted rate
    resolves less than 1% decay over the record, T2* is reported as a
    lower bound rather than a fabricated number.
    """
    times = np.asarray(times, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if times.shape != signal.shape or times.ndim != 1 or len(times) < 8:
        raise ValueError("need matching 1-d arrays with at least 8 samples")
    if offset not in ("constant", "exponential"):
        raise ValueError("offset must be 'constant' or 'exponential'")

    f0, a0, y00, phi0 = _initial_ramsey_guess(times, signal)
    span = float(times[-1] - times[0])

    if offset == "constant":
        def model(t, rate, f, a, y0, phi):
            return y0 + a * np.exp(-rate * t) * np.cos(2 * np.pi * f * t + phi)
        p0 = (0.1 / span, f0, a0, y00, phi0)
        lb = [0, 0, 0, -np.inf, -2 * np.pi]
        ub = [np.inf, np.inf, np.inf, np.inf, 2 * np.pi]
    else:
        def model(t, rate, f, a, y0, phi, off_rate):
            return (y0 * np.exp(-off_rate * t)
                    + a * np.exp(-rate * t) * np.cos(2 * np.pi * f * t + phi))
        # Seed the offset decay from the oscillation-averaged trend so
        # the two nearly degenerate time constants start apart from the
        # generic guess.
        win = max(3, int(round(1.0 / max(f0, 1e-9) / max(np.mean(np.diff(times)), 1e-12))))
        win = min(win | 1, len(times) - 1 if (len(times) - 1) % 2 else len(times) - 2)
        trend = np.convolve(signal, np.ones(win) / win, mode="valid")
        t_tr = times[win // 2: win // 2 + len(trend)]
        off_rate0 = 0.1 / span
        y0_init = y00
        if np.all(trend > 0):
            slope, intercept = np.polyfit(t_tr, np.log(trend), 1)
            if slope < 0:
                off_rate0 = -float(slope)
                y0_init = float(np.exp(intercept))
        p0 = (0.1 / span, f0, a0, y0_init, phi0, off_rate0)
        lb = [0, 0, 0, -np.inf, -2 * np.pi, 0]
        ub = [np.inf, np.inf, np.inf, np.inf, 2 * np.pi, np.inf]

    from scipy.optimize import curve_fit  # kept off the import path
    popt, _, info, _, _ = curve_fit(model, times, signal, p0=p0,
                                    bounds=(lb, ub), maxfev=40000,
                                    full_output=True)
    resid = signal - model(times, *popt)
    rate = float(popt[0])
    rate_floor = RAMSEY_BOUND_FRACTION / span
    bound = rate < rate_floor
    t2 = (1.0 / rate_floor) if bound else 1.0 / rate
    off_decay = None
    if offset == "exponential":
        off_decay = float(1.0 / popt[5]) if popt[5] > 1e-12 else None
    return RamseyFitResult(
        t2_star=float(t2), frequency=float(popt[1]), amplitude=float(popt[2]),
        offset=float(popt[3]), phase=float(popt[4]), offset_decay=off_decay,
        t2_is_lower_bound=bool(bound),
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
        n_evaluations=int(info["nfev"]))


def channel_average_gate_error(channel: np.ndarray, gate) -> float:
    """Average gate error of a 9x9 qutrit channel on the computational pair.

    The channel acts on the six cardinal states of the (|g>, |f>) qubit;
    the error is one minus the mean overlap with the ideal outputs of
    the gate's target rotation.
    """
    r2 = np.sqrt(2)
    cardinal = np.array([[1, 0], [0, 1], [1 / r2, 1 / r2], [1 / r2, -1 / r2],
                         [1 / r2, 1j / r2], [1 / r2, -1j / r2]])
    psi_in, psi_tgt = np.zeros((2, 6, 3), dtype=complex)
    psi_in[:, [G, F]] = cardinal
    psi_tgt[:, [G, F]] = cardinal @ gate.target_unitary().T
    rho_in = psi_in[:, :, None] * psi_in[:, None, :].conj()
    rho_out = (rho_in.reshape(6, 9) @ channel.T).reshape(6, 3, 3)
    fids = np.einsum("ia,iab,ib->i", psi_tgt.conj(), rho_out, psi_tgt).real
    return float(1.0 - np.mean(fids))


def coherence_limited_error(noise: NoiseModel, tau_ns: float) -> float:
    """Decoherence-limited average gate error over a window of tau_ns.

    e_c = (1/9)(2 Gamma1 + 2 Gamma2 + 2 Gamma3 + Gamma_ge + Gamma_ef) tau,
    with the dephasing rates Gamma_1..3 and relaxation rates in 1/us and
    tau converted from ns.  Linear in tau by construction.
    """
    if not 0 < tau_ns < float("inf"):
        raise ValueError(f"tau must be finite and positive, got {tau_ns}")
    rate_sum = (2 * noise.gamma1 + 2 * noise.gamma2 + 2 * noise.gamma3
                + noise.gamma_ge + noise.gamma_ef)
    return float(rate_sum * (tau_ns / US_TO_NS) / 9.0)
