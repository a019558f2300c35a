"""Dynamical-phase diagnostics and Rabi-error robustness analysis.

The superrobustness criterion demands that every accumulated drive
integral D_mn = int <psi_m(t)|H(t)|psi_n(t)> dt vanish over the loop,
where |psi_m(t)> = U(t,0)|psi_m(0)> and the initial basis is ordered
(dark, bright, excited).  Index 0 is the dark state (identically
decoupled); the interesting entries are D11, D22 and the cross term
D12 between the bright and excited states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import evolve, model, qmath
from .model import bright_frame
from .pulses import DEFAULT_STEP_1Q, GateSpec, PulseSchedule, build_schedule, rabi_scale

# Infidelities at or below this sit on the double-precision round-off
# plateau; fit_error_slope drops them.
SLOPE_FLOOR = 1e-12


@dataclass(frozen=True)
class PhaseRecord:
    """Time-resolved d_mn(t) = <psi_m(t)|H|psi_n(t)> (rad/ns) and their
    integrals D_mn (rad)."""

    times: np.ndarray
    d11: np.ndarray
    d22: np.ndarray
    d12: np.ndarray
    D11: float
    D22: float
    D12: complex
    dark_max: float


def _interaction_frame(schedule: PulseSchedule, step: float
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, psi, M) along the closed-system evolution of the schedule.

    psi[k] = U(t_k, 0) B carries the initial basis B = (dark, bright,
    excited) of the gate's frame as columns, so psi[0] = B, and
    M_mn(t_k) = <psi_m(t_k)|H(t_k)|psi_n(t_k)>.
    """
    frame = bright_frame(schedule.gate.theta, schedule.gate.phi)
    ham = evolve.schedule_hamiltonian(schedule)
    times, unitaries = evolve.propagate_unitary_h(ham, schedule.tau, step)
    psi = unitaries @ np.column_stack([frame.dark, frame.bright, model.KET_E])
    m = np.einsum("nim,nij,njk->nmk", psi.conj(), ham.hamiltonians(times), psi)
    return times, psi, m


def phase_record(schedule: PulseSchedule, step: float = DEFAULT_STEP_1Q) -> PhaseRecord:
    """Compute d_mn(t) and D_mn along the closed-system evolution, as
    matrix elements in the frame transported by the gate's own
    bright/dark decomposition."""
    times, _, m = _interaction_frame(schedule, step)
    d11, d22, d12 = m[:, 1, 1].real, m[:, 2, 2].real, m[:, 1, 2]
    return PhaseRecord(
        times=times, d11=d11, d22=d22, d12=d12,
        D11=float(np.trapezoid(d11, times)),
        D22=float(np.trapezoid(d22, times)),
        D12=complex(np.trapezoid(d12, times)),
        dark_max=float(np.max(np.abs(m[:, 0, :]))))


def analytic_fidelity(gamma: float, epsilon: float) -> float:
    """Closed-form gate fidelity under a fractional Rabi error.

    F = sqrt(cos^2(g/2) + sin^2(g/2) cos^4(pi e/2) (1+sin^2(pi e/2))^2);
    the small-error expansion is 1 - pi^4 e^4 (1-cos g)/32, quartic in
    the error for any rotation angle.
    """
    a = np.cos(np.pi * epsilon / 2) ** 2 * (1 + np.sin(np.pi * epsilon / 2) ** 2)
    val = np.cos(gamma / 2) ** 2 + np.sin(gamma / 2) ** 2 * a ** 2
    return float(np.sqrt(val))


def bright_amplitude_factor(gamma: float, epsilon: float) -> complex:
    """X(epsilon): amplitude the erroneous loop leaves on the bright state.

    X = 1 - (1 - e^{i gamma}) cos^2(pi e/2)(1 + sin^2(pi e/2)); exact
    for the six-segment composite, not just perturbative.
    """
    a = np.cos(np.pi * epsilon / 2) ** 2 * (1 + np.sin(np.pi * epsilon / 2) ** 2)
    return complex(1.0 - (1.0 - np.exp(1j * gamma)) * a)


def analytic_noisy_gate(gate: GateSpec, epsilon: float) -> np.ndarray:
    """Erroneous gate |d><d| + X|b><b| on the ordered basis (|g>, |f>).

    At epsilon = 0 this equals e^{i gamma/2} U1(theta, phi, gamma); the
    global phase drops out of every fidelity metric.
    """
    x = bright_amplitude_factor(gate.gamma, epsilon)
    c, s = np.cos(gate.theta / 2), np.sin(gate.theta / 2)
    ph = np.exp(-1j * gate.phi)
    return np.array([
        [c * c + x * s * s, s * c * ph * (1.0 - x)],
        [s * c * np.conj(ph) * (1.0 - x), s * s + x * c * c],
    ])


def truncate_to_qubit(u3: np.ndarray) -> np.ndarray:
    """Project a 3x3 propagator onto the computational pair (|g>, |f>)."""
    return u3[np.ix_([model.G, model.F], [model.G, model.F])]


def gate_fidelity(u3: np.ndarray, gate: GateSpec) -> float:
    """Fidelity of a 3x3 propagator's computational pair against the target."""
    return qmath.unitary_fidelity(truncate_to_qubit(u3), gate.target_unitary())


def simulated_gate_fidelity(gate: GateSpec, scheme: str, epsilon: float,
                            step: float = DEFAULT_STEP_1Q,
                            tau: Optional[float] = None) -> float:
    return robustness_sweep(gate, scheme, [epsilon], step, tau)[0].f_sim


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    f_sim: float
    f_analytic: float


def robustness_sweep(gate: GateSpec, scheme: str, epsilons: Sequence[float],
                     step: float = DEFAULT_STEP_1Q,
                     tau: Optional[float] = None) -> list[SweepRow]:
    """F_sim vs the analytic law over an error grid.

    A Rabi error scales the whole qutrit Hamiltonian by 1 + epsilon, so
    every point comes from one propagation of the ideal schedule
    (evolve.scaled_final_unitaries).  The analytic column applies to
    the superrobust composite; it is still reported for the other
    schemes as the reference curve they fail to follow.
    """
    epsilons = [float(eps) for eps in epsilons]
    scales = [rabi_scale(eps) for eps in epsilons]
    schedule = build_schedule(gate, scheme, tau)
    _, finals = evolve.scaled_final_unitaries(evolve.schedule_hamiltonian(schedule),
                                              schedule.tau, step, scales)
    target = gate.target_unitary()
    return [SweepRow(eps, gate_fidelity(u, gate),
                     qmath.unitary_fidelity(analytic_noisy_gate(gate, eps), target))
            for eps, u in zip(epsilons, finals)]


def fit_error_slope(epsilons: Sequence[float], fidelities: Sequence[float]) -> float:
    """Least-squares slope of log(1-F) against log|eps|.

    Points with infidelity at or below SLOPE_FLOOR are dropped; they
    would bias the exponent.
    """
    eps = np.abs(np.asarray(epsilons, float))
    inf = 1.0 - np.asarray(fidelities, float)
    keep = (inf > SLOPE_FLOOR) & (eps > 0)
    if np.count_nonzero(keep) < 2:
        raise ValueError("not enough points above the infidelity floor")
    slope, _ = np.polyfit(np.log(eps[keep]), np.log(inf[keep]), 1)
    return float(slope)


def perturbative_expansion_check(schedule: PulseSchedule, epsilon: float,
                                 order: int,
                                 step: float = DEFAULT_STEP_1Q) -> float:
    """Frobenius gap between the erroneous loop and its Dyson series.

    In the interaction picture of the ideal loop, the error Hamiltonian
    is eps * M(t) with M_mn = <psi_m(t)|H|psi_n(t)>, so
    U_eps = U_0 T exp(-i eps int M dt).  The k-th time-ordered term is
    built by iterated trapezoid integration; the return value is
    || B^+ U_eps B - (B^+ U_0 B)(I + sum_k R_k) ||_F in the
    (dark, bright, excited) initial basis B.
    """
    if order < 0 or order > 6:
        raise ValueError("order must be in 0..6")
    times, psi, m = _interaction_frame(schedule, step)
    basis = psi[0]
    _, u_eps = evolve.scaled_final_unitaries(evolve.schedule_hamiltonian(schedule),
                                             schedule.tau, step, [rabi_scale(epsilon)])

    series = np.eye(3, dtype=complex)
    prev = np.broadcast_to(np.eye(3, dtype=complex), m.shape).copy()
    for _ in range(order):
        integrand = -1j * epsilon * np.einsum("nij,njk->nik", m, prev)
        cur = np.zeros_like(prev)
        dt = np.diff(times)[:, None, None]
        cur[1:] = np.cumsum(0.5 * dt * (integrand[1:] + integrand[:-1]), axis=0)
        series = series + cur[-1]
        prev = cur

    lhs = qmath.dagger(basis) @ u_eps[0] @ basis
    rhs = (qmath.dagger(basis) @ psi[-1]) @ series
    return float(np.linalg.norm(lhs - rhs))


def phase_record_to_csv(rec: PhaseRecord) -> str:
    return qmath.csv_text(["t_ns", "d11", "d22", "Re_d12", "Im_d12"],
                          "%.6g,%.10g,%.10g,%.10g,%.10g",
                          np.column_stack((rec.times, rec.d11, rec.d22,
                                           rec.d12.real, rec.d12.imag)))


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    return qmath.csv_text(["epsilon", "F_sim", "F_analytic"], "%.6g,%.10g,%.10g",
                          [(r.epsilon, r.f_sim, r.f_analytic) for r in rows])
