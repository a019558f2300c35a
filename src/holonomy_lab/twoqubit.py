"""Photon-number-selective control gates on the transmon-cavity system.

The composite space is Fock(N) (x) qutrit with index n*3 + level, so
|n, s> sits at component n*3 + s for s in (g, e, f) = (0, 1, 2).  Two
drives resonant with the n = 0 block realize U1(theta, phi, gamma) on
{|0g>, |0f>} while the dispersive shift detunes every other Fock block,
leaving |2g>, |2f> ideally untouched: a controlled gate on the
{|0g>, |0f>, |2g>, |2f>} subspace.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import evolve, model, qmath
from .model import N_FOCK, DispersiveSystemParams, NoiseModel
from .pulses import (DEFAULT_STEP_2Q, DEFAULT_TAU_TWO_QUBIT, SCHEME_SR, GateSpec,
                     PulseSchedule, apply_rabi_error, build_schedule)

LEVEL_NAMES = ("g", "e", "f")


def state_index(n: int, level: str) -> int:
    return 3 * n + LEVEL_NAMES.index(level)


def computational_indices() -> list[int]:
    """Indices of |0g>, |0f>, |2g>, |2f> in that frozen order."""
    return [state_index(0, "g"), state_index(0, "f"),
            state_index(2, "g"), state_index(2, "f")]


def two_qubit_target(gate: GateSpec) -> np.ndarray:
    """U2 = diag(U1, I) on the ordered basis (|0g>, |0f>, |2g>, |2f>)."""
    u = np.eye(4, dtype=complex)
    u[:2, :2] = gate.target_unitary()
    return u


@dataclass(frozen=True)
class CavityNoise:
    """Storage-mode relaxation/dephasing times in us."""

    t1_us: float = model.DEVICE["cavity_t1_us"]
    t2star_us: float = model.DEVICE["cavity_t2star_us"]

    def collapse_operators(self, n_fock: int) -> list[np.ndarray]:
        a = np.diag(np.sqrt(np.arange(1, n_fock)), 1).astype(complex)
        ops = []
        g1 = 1.0 / (self.t1_us * model.US_TO_NS)
        gphi = (1.0 / self.t2star_us - 0.5 / self.t1_us) / model.US_TO_NS
        if g1 > 0:
            ops.append(np.sqrt(g1) * qmath.tensor(a, np.eye(3)))
        if gphi > 0:
            ops.append(np.sqrt(2 * gphi) * qmath.tensor(a.conj().T @ a, np.eye(3)))
        return ops


def _selective_drive(gate: GateSpec, scheme: str, tau: Optional[float],
                     epsilon: float, params: DispersiveSystemParams
                     ) -> tuple[PulseSchedule, evolve.DrivenHamiltonian]:
    """(schedule, Hamiltonian on the full space) of the two-qubit gate.

    H0 is the dispersive shift and the schedule's qutrit drive acts on
    every Fock block.
    """
    if scheme not in DEFAULT_TAU_TWO_QUBIT:
        raise ValueError(f"scheme must be one of {tuple(DEFAULT_TAU_TWO_QUBIT)}")
    schedule = build_schedule(gate, scheme,
                              DEFAULT_TAU_TWO_QUBIT[scheme] if tau is None else tau)
    if epsilon != 0.0:
        schedule = apply_rabi_error(schedule, epsilon)
    a_op = evolve.schedule_hamiltonian(schedule).a_op
    return schedule, evolve.DrivenHamiltonian(
        model.dispersive_shift_hamiltonian(params),
        qmath.tensor(np.eye(params.n_fock), a_op), schedule.drive)


def zz_frame_correction(params: DispersiveSystemParams, tau: float) -> np.ndarray:
    """Diagonal unitary undoing the dispersive phase accumulated over tau.

    A pure frame change: it never moves population, only aligns the
    Fock-block phases so the ideal gate reads diag(U1, I).
    """
    h = model.dispersive_shift_hamiltonian(params)
    return np.diag(np.exp(1j * np.diag(h) * tau))


def calibration_phase_correction(u_zz_removed: np.ndarray, gamma: float,
                                 n_fock: int) -> np.ndarray:
    """Diagonal unitary absorbing the remaining deterministic phases.

    Two pieces, both pure frame changes that an experiment folds into
    its phase references instead of tuning the evolution time:
      - the driven n = 0 block comes out of the loop as
        e^{i gamma/2} U1, so the photon frame of that block is shifted
        by -gamma/2;
      - the off-resonant drive imprints Stark phases on the spectator
        levels |2g> and |2f>, read off the propagator's diagonal and
        conjugated away.
    No population ever moves.
    """
    d = np.ones(3 * n_fock, dtype=complex)
    d[0:3] = np.exp(-1j * gamma / 2)
    for idx in (state_index(2, "g"), state_index(2, "f")):
        entry = u_zz_removed[idx, idx]
        if abs(entry) > 1e-12:
            d[idx] = np.conj(entry) / abs(entry)
    return np.diag(d)


@dataclass(frozen=True)
class TwoQubitGateResult:
    schedule: PulseSchedule
    params: DispersiveSystemParams
    corrected: np.ndarray = field(repr=False)
    leakage: float = 0.0

    def computational_block(self) -> np.ndarray:
        idx = computational_indices()
        return self.corrected[np.ix_(idx, idx)]


def build_two_qubit_gate(gate: GateSpec, scheme: str = SCHEME_SR,
                         tau: Optional[float] = None,
                         params: Optional[DispersiveSystemParams] = None,
                         epsilon: float = 0.0,
                         step: float = DEFAULT_STEP_2Q) -> TwoQubitGateResult:
    """Propagate the selective drive and strip the ZZ frame phase.

    Leakage is the worst-case probability of leaving the four-state
    computational subspace; above 1% the weak-drive selectivity
    assumption is breaking down and a warning is emitted.
    """
    params = DispersiveSystemParams.from_mhz() if params is None else params
    schedule, ham = _selective_drive(gate, scheme, tau, epsilon, params)
    u = evolve.scaled_final_unitaries(ham, schedule.tau, step, (1.0,))[1][0]
    corrected = zz_frame_correction(params, schedule.tau) @ u
    corrected = calibration_phase_correction(corrected, gate.gamma,
                                             params.n_fock) @ corrected

    idx = computational_indices()
    block = corrected[np.ix_(idx, idx)]
    leak = float(1.0 - np.min(np.sum(np.abs(block) ** 2, axis=0)))
    if leak > 0.01:
        warnings.warn(f"leakage {leak:.3f} out of the computational subspace "
                      "exceeds 1%; drive is not photon-number selective",
                      RuntimeWarning, stacklevel=2)
    return TwoQubitGateResult(schedule=schedule, params=params,
                              corrected=corrected, leakage=leak)


def prepare_fock(target: str,
                 params: Optional[DispersiveSystemParams] = None) -> np.ndarray:
    """Photonic-qubit state prep: '0', '2', or '0+2' with the transmon in g.

    Climbs the ladder |0g> -> |0e> -> |0f> -> |1g> -> |1e> -> |1f> ->
    |2g> with qutrit pulses and two effective Raman couplings
    |0f> <-> |1g> and |1f> <-> |2g> (pi-area pulses, nominally 140 ns).
    For '0+2' the first e-f pulse is a half rotation, splitting the
    amplitude before the climb.
    """
    params = DispersiveSystemParams.from_mhz() if params is None else params
    n = params.n_fock
    dim = 3 * n
    raman1 = qmath.pair_rotation(dim, state_index(0, "f"), state_index(1, "g"), np.pi)
    raman2 = qmath.pair_rotation(dim, state_index(1, "f"), state_index(2, "g"), np.pi)
    ge = lambda a: qmath.tensor(np.eye(n), qmath.pair_rotation(3, model.G, model.E, a))
    ef = lambda a: qmath.tensor(np.eye(n), qmath.pair_rotation(3, model.E, model.F, a))

    if target == "0":
        ops: list[np.ndarray] = []
    elif target == "2":
        ops = [ge(np.pi), ef(np.pi), raman1, ge(np.pi), ef(np.pi), raman2]
    elif target == "0+2":
        ops = [ge(np.pi), ef(np.pi / 2), raman1, ge(np.pi), ef(np.pi), raman2]
    else:
        raise ValueError("target must be '0', '2' or '0+2'")

    psi = np.zeros(dim, dtype=complex)
    psi[state_index(0, "g")] = 1.0
    for op in ops:
        psi = op @ psi
    return psi


def target_prepared_state(target: str, n_fock: int = N_FOCK) -> np.ndarray:
    dim = 3 * n_fock
    psi = np.zeros(dim, dtype=complex)
    if target == "0":
        psi[state_index(0, "g")] = 1.0
    elif target == "2":
        psi[state_index(2, "g")] = 1.0
    elif target == "0+2":
        psi[state_index(0, "g")] = psi[state_index(2, "g")] = 1 / np.sqrt(2)
    else:
        raise ValueError("target must be '0', '2' or '0+2'")
    return psi


CNOT_GATE = GateSpec(np.pi / 2, 0.0, np.pi)


@dataclass(frozen=True)
class RobustnessRow:
    epsilon: float
    p_g: float
    p_e: float
    p_f: float


def transmon_populations(psi: np.ndarray) -> np.ndarray:
    """(P_g, P_e, P_f) of a ket, traced over the Fock mode."""
    return (np.abs(psi) ** 2).reshape(-1, 3).sum(axis=0)


def cnot_robustness(epsilons: Sequence[float], scheme: str = SCHEME_SR,
                    params: Optional[DispersiveSystemParams] = None,
                    tau: Optional[float] = None,
                    step: float = DEFAULT_STEP_2Q) -> list[RobustnessRow]:
    """Transmon populations after CNOT on |0f> as the drive is mis-scaled.

    The ideal gate returns the transmon to g; residual e/f population
    tracks the Rabi-error sensitivity of the scheme.
    """
    params = DispersiveSystemParams.from_mhz() if params is None else params
    rows = []
    psi0 = np.zeros(3 * params.n_fock, dtype=complex)
    psi0[state_index(0, "f")] = 1.0
    for eps in epsilons:
        res = build_two_qubit_gate(CNOT_GATE, scheme, tau, params,
                                   epsilon=float(eps), step=step)
        pg, pe, pf = transmon_populations(res.corrected @ psi0)
        rows.append(RobustnessRow(float(eps), float(pg), float(pe), float(pf)))
    return rows


def cnot_state_fidelity(params: Optional[DispersiveSystemParams] = None,
                        transmon_noise: Optional[NoiseModel] = None,
                        cavity_noise: Optional[CavityNoise] = None,
                        scheme: str = SCHEME_SR,
                        tau: Optional[float] = None,
                        step: float = DEFAULT_STEP_2Q) -> float:
    """Decoherence-limited CNOT figure of merit.

    Mean of the two characteristic population transfers: |0f> -> |0g>
    (controlled flip active) and |2g> -> |2g> (spectator), each
    propagated with the full Lindblad model and read out in the
    ZZ-corrected frame.
    """
    params = DispersiveSystemParams.from_mhz() if params is None else params
    if transmon_noise is None:
        transmon_noise = NoiseModel.from_coherence_times()
    if cavity_noise is None:
        cavity_noise = CavityNoise()

    schedule, ham = _selective_drive(CNOT_GATE, scheme, tau, transmon_noise.epsilon,
                                     params)
    c_ops = [qmath.tensor(np.eye(params.n_fock), c)
             for c in model.collapse_operators(transmon_noise)]
    c_ops += cavity_noise.collapse_operators(params.n_fock)

    start = [state_index(0, "f"), state_index(2, "g")]
    goal = [state_index(0, "g"), state_index(2, "g")]
    dim = 3 * params.n_fock
    rho0 = np.zeros((2, dim, dim), dtype=complex)
    rho0[[0, 1], start, start] = 1.0
    _, populations, _ = evolve.propagate_lindblad_h(ham, c_ops, schedule.tau, step, rho0)
    # Populations are frame-invariant, so the ZZ correction is a no-op
    # here; kept implicit.
    return float(np.mean(populations[-1, [0, 1], goal]))


def robustness_to_csv(rows: Sequence[RobustnessRow]) -> str:
    return qmath.csv_text(["epsilon", "P_g", "P_e", "P_f"], "%.6g,%.10g,%.10g,%.10g",
                          [(r.epsilon, r.p_g, r.p_e, r.p_f) for r in rows])

