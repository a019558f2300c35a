"""Time-ordered propagation of pulse schedules.

Closed-system evolution composes midpoint matrix exponentials
U(t+dt, t) = exp(-i H(t+dt/2) dt); open-system evolution integrates the
vectorized Lindblad equation with fixed-step RK4 on a stack of initial
states.  Both sample one uniform time grid and keep the full
time-resolved record.

Vectorization convention is row-major: vec(A rho B) =
(A kron B^T) vec(rho) with vec = ndarray.reshape(-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg

from . import model, qmath
from .model import BrightFrame, NoiseModel
from .pulses import DEFAULT_STEP_1Q, PulseSchedule, apply_rabi_error

TRACE_DRIFT_LIMIT = 1e-5


@dataclass(frozen=True)
class EvolutionTrace:
    """Time-resolved propagation record.

    Closed case: unitaries[k] = U(times[k], 0).  Open case: states[k] =
    rho(times[k]).  populations[k] are the diagonal occupations of the
    tracked state at times[k].
    """

    times: np.ndarray
    populations: np.ndarray
    unitaries: Optional[np.ndarray] = field(default=None, repr=False)
    states: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def final_unitary(self) -> np.ndarray:
        if self.unitaries is None:
            raise ValueError("trace has no unitaries (open-system run)")
        return self.unitaries[-1]

    @property
    def final_state(self) -> np.ndarray:
        if self.states is None:
            raise ValueError("trace has no states (closed-system run)")
        return self.states[-1]


def hamiltonian_from_schedule(schedule: PulseSchedule,
                              frame: BrightFrame) -> Callable[[float], np.ndarray]:
    """Map a drive program onto the three-level Hamiltonian sampler."""

    def h(t: float) -> np.ndarray:
        omega, phi1 = schedule.drive(t)
        return model.bright_drive_hamiltonian(frame, omega, phi1)

    return h


def _time_grid(tau: float, step: float) -> np.ndarray:
    if step <= 0:
        raise ValueError("step must be positive")
    n = max(1, int(np.ceil(tau / step - 1e-12)))
    return np.linspace(0.0, tau, n + 1)


def propagate_unitary_h(h_func: Callable[[float], np.ndarray], tau: float,
                        step: float) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-exponential propagators U(t_k, 0) on a uniform grid.

    Each step uses exp(-i H(t_mid) dt) built from a batched
    eigendecomposition, so every factor is unitary to round-off.
    """
    times = _time_grid(tau, step)
    dt = times[1] - times[0]
    mids = 0.5 * (times[:-1] + times[1:])
    h_stack = np.stack([h_func(t) for t in mids])
    w, v = np.linalg.eigh(h_stack)
    phases = np.exp(-1j * w * dt)
    steps = np.einsum("nij,nj,nkj->nik", v, phases, v.conj())

    dim = h_stack.shape[-1]
    unitaries = np.empty((len(times), dim, dim), dtype=complex)
    unitaries[0] = np.eye(dim)
    for k in range(len(mids)):
        unitaries[k + 1] = steps[k] @ unitaries[k]
    return times, unitaries


def propagate_unitary(schedule: PulseSchedule, frame: BrightFrame,
                      step: float = DEFAULT_STEP_1Q,
                      initial_state: Optional[np.ndarray] = None) -> EvolutionTrace:
    """Closed-system trace of a schedule; populations track initial_state
    (default |g>)."""
    h = hamiltonian_from_schedule(schedule, frame)
    times, unitaries = propagate_unitary_h(h, schedule.tau, step)
    psi0 = model.KET_G if initial_state is None else np.asarray(initial_state, complex)
    psi_t = unitaries @ psi0
    populations = np.abs(psi_t) ** 2
    return EvolutionTrace(times=times, populations=populations, unitaries=unitaries)


def lindblad_superoperator(h: np.ndarray, c_ops: Sequence[np.ndarray]) -> np.ndarray:
    """L such that d vec(rho)/dt = L vec(rho), row-major vectorization."""
    d = h.shape[0]
    eye = np.eye(d)
    lsup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c in c_ops:
        cdc = qmath.dagger(c) @ c
        lsup += np.kron(c, c.conj())
        lsup -= 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return lsup


def dissipator_superoperator(c_ops: Sequence[np.ndarray], dim: int) -> np.ndarray:
    return lindblad_superoperator(np.zeros((dim, dim)), c_ops)


def propagate_lindblad_h(h_func: Callable[[float], np.ndarray],
                         c_ops: Sequence[np.ndarray], tau: float, step: float,
                         rho0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Density matrices rho_m(t_k) of a stack of initial states rho0 (m x d x d).

    Fixed-step RK4 on d vec(rho)/dt = L(t) vec(rho) with every initial
    state as one column; only the Hamiltonian commutator is time
    dependent, the dissipator is built once.  Returns (times, states)
    with states of shape (len(times), m, d, d).  Raises if any state's
    trace drifts from its initial value beyond TRACE_DRIFT_LIMIT, which
    flags a too-coarse step.
    """
    times = _time_grid(tau, step)
    m, dim = rho0.shape[0], rho0.shape[-1]
    diss = dissipator_superoperator(c_ops, dim)
    eye = np.eye(dim)

    def lmul(t: float, y: np.ndarray) -> np.ndarray:
        h = h_func(t)
        comm = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        return (comm + diss) @ y

    out = np.empty((len(times), m, dim * dim), dtype=complex)
    out[0] = rho0.reshape(m, dim * dim)
    y = out[0].T.copy()
    for k in range(len(times) - 1):
        t, dt = times[k], times[k + 1] - times[k]
        k1 = lmul(t, y)
        k2 = lmul(t + dt / 2, y + dt / 2 * k1)
        k3 = lmul(t + dt / 2, y + dt / 2 * k2)
        k4 = lmul(t + dt, y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = y.T
    states = out.reshape(len(times), m, dim, dim)

    traces = np.einsum("nmii->nm", states).real
    drift = np.max(np.abs(traces - traces[0]))
    if drift > TRACE_DRIFT_LIMIT:
        raise RuntimeError(f"trace drift {drift:.2e} exceeds {TRACE_DRIFT_LIMIT:g}; "
                           "reduce the integration step")
    return times, states


def propagate_lindblad(schedule: PulseSchedule, frame: BrightFrame,
                       noise: NoiseModel, step: float = DEFAULT_STEP_1Q,
                       initial_state: Optional[np.ndarray] = None) -> EvolutionTrace:
    """Open-system trace under the schedule plus relaxation/dephasing.

    The Rabi-error fraction of the noise model scales the drive; rho(0)
    defaults to |g><g|.  Raises on trace drift, as propagate_lindblad_h.
    """
    if noise.epsilon != 0.0:
        schedule = apply_rabi_error(schedule, noise.epsilon)
    if initial_state is None:
        rho0 = qmath.projector(model.KET_G)
    else:
        s = np.asarray(initial_state, complex)
        rho0 = qmath.projector(s) if s.ndim == 1 else s
    times, states = propagate_lindblad_h(hamiltonian_from_schedule(schedule, frame),
                                         model.collapse_operators(noise),
                                         schedule.tau, step, rho0[None])
    states = states[:, 0]
    populations = np.einsum("nii->ni", states).real
    return EvolutionTrace(times=times, populations=populations, states=states)


def propagate_superoperator(h_func: Callable[[float], np.ndarray],
                            c_ops: Sequence[np.ndarray], tau: float,
                            step: float = DEFAULT_STEP_1Q,
                            dim: int = 3) -> np.ndarray:
    """Full process map S (d^2 x d^2) of the noisy evolution.

    vec(rho(tau)) = S vec(rho(0)); used to precompute gate channels for
    benchmarking and tomography so each gate is integrated once.
    """
    basis = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)
    _, states = propagate_lindblad_h(h_func, c_ops, tau, step, basis)
    # A C-ordered copy, not a transposed view, so that products with the
    # channel take the same BLAS path, and round alike, as any stored matrix.
    return np.ascontiguousarray(states[-1].reshape(dim * dim, dim * dim).T)


def apply_superoperator(s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    return (s @ rho.reshape(-1)).reshape(d, d)


def gate_channel(schedule: PulseSchedule, frame: BrightFrame,
                 noise: Optional[NoiseModel] = None,
                 step: float = DEFAULT_STEP_1Q) -> np.ndarray:
    """9x9 superoperator of the gate, noiseless if noise is None."""
    c_ops: list[np.ndarray] = []
    if noise is not None:
        if noise.epsilon != 0.0:
            schedule = apply_rabi_error(schedule, noise.epsilon)
        c_ops = model.collapse_operators(noise)
    h = hamiltonian_from_schedule(schedule, frame)
    return propagate_superoperator(h, c_ops, schedule.tau, step)


def idle_channel(duration: float, noise: Optional[NoiseModel],
                 step: float = DEFAULT_STEP_1Q) -> np.ndarray:
    """Superoperator of doing nothing for the given time under noise."""
    c_ops = [] if noise is None else model.collapse_operators(noise)
    if not c_ops:
        return np.eye(9, dtype=complex)
    diss = dissipator_superoperator(c_ops, 3)
    return scipy.linalg.expm(diss * duration)


def unitary_superoperator(u: np.ndarray) -> np.ndarray:
    return np.kron(u, u.conj())


def trace_to_csv(trace: EvolutionTrace,
                 labels: tuple[str, ...] = ("P_g", "P_e", "P_f")) -> str:
    """CSV dump: t_ns plus one population column per level."""
    if trace.populations.shape[1] != len(labels):
        labels = tuple(f"P_{i}" for i in range(trace.populations.shape[1]))
    return qmath.csv_text(["t_ns", *labels],
                          ([f"{t:.6g}", *(f"{p:.10g}" for p in pops)]
                           for t, pops in zip(trace.times, trace.populations)))
