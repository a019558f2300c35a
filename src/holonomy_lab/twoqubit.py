"""Photon-number-selective control gates on the transmon-cavity system.

The composite space is Fock(N) (x) qutrit with index n*3 + level, so
|n, s> sits at component n*3 + s for s in (g, e, f) = (0, 1, 2).  Two
drives resonant with the n = 0 block realize U1(theta, phi, gamma) on
{|0g>, |0f>} while the dispersive shift detunes every other Fock block,
leaving |2g>, |2f> ideally untouched: a controlled gate on the
{|0g>, |0f>, |2g>, |2f>} subspace.  Neither the drive nor the shift
changes the photon number, so the Hamiltonian is the stack of its
(n_fock, 3, 3) Fock blocks, each the driven qutrit with its own
detuning.  The computational states live in blocks 0 and 2 alone, so
the gate propagates those two, each as a qutrit (build_two_qubit_gate).

Every block's H0 is constant, so its propagators and channels are
evolve's segment products (segment_finals, segment_channel).  The
robustness grid starts in |0f>, which never leaves block 0, where the
dispersive shift is zero (cnot_robustness).  The gate on the photonic
qubit is read off blocks 0 and 2 (build_two_qubit_gate); the twoqubit
command reads its leakage for the selectivity warning.  Under noise each
transfer of the CNOT fidelity stays in its own Fock block too, so the
open-system figure reads two qutrit Lindblad channels
(cnot_state_fidelity).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import evolve, model, qmath
from .model import DispersiveSystemParams, NoiseModel
from .pulses import (DEFAULT_STEP_2Q, DEFAULT_TAU_TWO_QUBIT, SCHEME_SR, GateSpec,
                     PulseSchedule, apply_rabi_error, build_schedule, rabi_scale)

# The (g, f) corners of a stack of Fock blocks 0 and 2, (2, 3, 3).
_QUBIT = np.ix_([0, 1], [model.G, model.F], [model.G, model.F])


def two_qubit_target(gate: GateSpec) -> np.ndarray:
    """U2 = diag(U1, I) on the ordered basis (|0g>, |0f>, |2g>, |2f>)."""
    u = np.eye(4, dtype=complex)
    u[:2, :2] = gate.target_unitary()
    return u


def _two_qubit_schedule(gate: GateSpec, scheme: str, tau: Optional[float]) -> PulseSchedule:
    """Qutrit schedule of a two-qubit gate, at the scheme's default
    two-qubit duration unless tau is given; there is no dynamical variant."""
    if scheme not in DEFAULT_TAU_TWO_QUBIT:
        raise ValueError(f"scheme must be one of {tuple(DEFAULT_TAU_TWO_QUBIT)}")
    return build_schedule(gate, scheme, DEFAULT_TAU_TWO_QUBIT[scheme] if tau is None else tau)


def _selective_drive(gate: GateSpec, scheme: str, tau: Optional[float],
                     epsilon: float, params: DispersiveSystemParams
                     ) -> tuple[PulseSchedule, evolve.DrivenHamiltonian]:
    """(schedule, Fock-block Hamiltonian) of the two-qubit gate.

    H0 is the stack of dispersive shifts, (n_fock, 3, 3), and the
    schedule's qutrit drive acts on every Fock block alike.
    """
    schedule = _two_qubit_schedule(gate, scheme, tau)
    if epsilon != 0.0:
        schedule = apply_rabi_error(schedule, epsilon)
    return schedule, replace(evolve.schedule_hamiltonian(schedule),
                             h0=model.dispersive_shift_hamiltonian(params))


@dataclass(frozen=True)
class TwoQubitGateResult:
    """The gate on (|0g>, |0f>, |2g>, |2f>) and its worst-case leakage."""

    block: np.ndarray = field(repr=False)
    leakage: float


def build_two_qubit_gate(gate: GateSpec, scheme: str = SCHEME_SR,
                         tau: Optional[float] = None,
                         params: Optional[DispersiveSystemParams] = None,
                         step: float = DEFAULT_STEP_2Q) -> TwoQubitGateResult:
    """Propagate the photonic-qubit Fock blocks 0 and 2 and strip their
    deterministic frame phases.

    The drive and the dispersive shift keep the photon number, so the
    gate on the computational states is the (g, f) corner of those two
    blocks, each a qutrit propagator (evolve.segment_finals).  Three
    pure frame changes, which an experiment folds into its phase
    references and which move no population, align the phases so the
    ideal gate reads diag(U1, I):
      - exp(i H0_n tau) undoes the dispersive (ZZ) phase of block n;
      - the driven n = 0 block comes out of the loop as
        e^{i gamma/2} U1, so its photon frame is shifted by -gamma/2;
      - the off-resonant drive imprints Stark phases on the spectator
        levels |2g> and |2f>, read off the ZZ-corrected diagonal and
        conjugated away.

    Leakage is the worst-case probability of leaving the four-state
    computational subspace; above 1% the weak-drive selectivity
    assumption is breaking down and a warning is emitted.
    """
    params = DispersiveSystemParams.from_mhz() if params is None else params
    schedule, ham = _selective_drive(gate, scheme, tau, 0.0, params)
    h0 = ham.h0[[0, 2]]
    finals = evolve.segment_finals(schedule, step, (1.0,), h0)[:, 0]
    zz = np.exp(1j * np.diagonal(h0, axis1=1, axis2=2) * schedule.tau)
    corner = (zz[:, :, None] * finals)[_QUBIT]
    stark = np.array([np.conj(d) / abs(d) if abs(d) > 1e-12 else 1.0
                      for d in np.diagonal(corner[1])])
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = np.exp(-1j * gate.gamma / 2) * corner[0]
    block[2:, 2:] = stark[:, None] * corner[1]
    # 1 - the least norm a (g, f) column keeps on (g, f); no frame phase
    # changes a column norm, so the raw finals give it.
    leakage = float(1.0 - np.min(np.sum(np.abs(finals[_QUBIT]) ** 2, axis=1)))
    if leakage > 0.01:
        warnings.warn(f"leakage {leakage:.3f} out of the computational subspace "
                      "exceeds 1%; drive is not photon-number selective",
                      RuntimeWarning, stacklevel=2)
    return TwoQubitGateResult(block=block, leakage=leakage)


CNOT_GATE = GateSpec(np.pi / 2, 0.0, np.pi)


@dataclass(frozen=True)
class RobustnessRow:
    epsilon: float
    p_g: float
    p_e: float
    p_f: float


def cnot_robustness(epsilons: Sequence[float], scheme: str = SCHEME_SR,
                    tau: Optional[float] = None,
                    step: float = DEFAULT_STEP_2Q) -> list[RobustnessRow]:
    """Transmon populations after CNOT on |0f> as the drive is mis-scaled.

    The ideal gate returns the transmon to g; residual e/f population
    tracks the Rabi-error sensitivity of the scheme.  |0f> never leaves
    the n = 0 Fock block, where the dispersive shift is zero: there the
    gate is the qutrit schedule alone, and a Rabi error scales its whole
    Hamiltonian, so one segment product gives every error
    (evolve.segment_finals).  The frame phases of build_two_qubit_gate
    move no population, so they are not applied.
    """
    epsilons = [float(eps) for eps in epsilons]
    scales = [rabi_scale(eps) for eps in epsilons]
    schedule = _two_qubit_schedule(CNOT_GATE, scheme, tau)
    finals = evolve.segment_finals(schedule, step, scales, np.zeros((3, 3), dtype=complex))
    populations = np.abs(finals[:, :, model.F]) ** 2
    return [RobustnessRow(eps, *map(float, p)) for eps, p in zip(epsilons, populations)]


def cnot_state_fidelity(params: Optional[DispersiveSystemParams] = None,
                        transmon_noise: Optional[NoiseModel] = None,
                        cavity_t1_us: float = model.DEVICE["cavity_t1_us"],
                        scheme: str = SCHEME_SR,
                        tau: Optional[float] = None,
                        step: float = DEFAULT_STEP_2Q) -> float:
    """Decoherence-limited CNOT figure of merit.

    Mean of the two characteristic population transfers: |0f> -> |0g>
    (controlled flip active) and |2g> -> |2g> (spectator), under the
    transmon collapse operators and cavity decay sqrt(g1) a, g1 =
    1/cavity_t1_us, read out in the ZZ-corrected frame, which moves no
    population.  Each transfer is one qutrit channel.  The drive and the
    transmon operators keep the photon number, so a state that starts in
    Fock block n keeps rho block diagonal, and its (n, n) block sees the
    dispersive shift of block n as H0 (zero for n = 0) and cavity decay
    -n g1 rho, fed only from block n + 1, which stays empty.  So the block
    is exp(-n g1 tau) times the qutrit Lindblad channel of that H0,
    exactly.  Cavity dephasing on a^dag a leaves a diagonal block alone
    (n rho n - {n^2, rho}/2 = 0), so the cavity's T2* takes no part.
    The two channels come from evolve.segment_channel, and one entry of
    each is read.
    """
    params = DispersiveSystemParams.from_mhz() if params is None else params
    if transmon_noise is None:
        transmon_noise = NoiseModel.from_coherence_times()
    schedule, ham = _selective_drive(CNOT_GATE, scheme, tau, transmon_noise.epsilon, params)
    g1 = 1.0 / (cavity_t1_us * model.US_TO_NS)  # the rate of sqrt(g1) a
    # (Fock block n, start, goal): P(|n, goal>) at tau from |n, start>.
    transfers = ((0, model.F, model.G), (2, model.G, model.G))
    channels = evolve.segment_channel(schedule, step, model.collapse_operators(transmon_noise),
                                      ham.h0[[n for n, _, _ in transfers]])
    return float(np.mean([channel[4 * goal, 4 * start].real * np.exp(-n * g1 * schedule.tau)
                          for channel, (n, start, goal) in zip(channels, transfers)]))


def robustness_to_csv(rows: Sequence[RobustnessRow]) -> str:
    return qmath.csv_text(["epsilon", "P_g", "P_e", "P_f"], "%.6g,%.10g,%.10g,%.10g",
                          [(r.epsilon, r.p_g, r.p_e, r.p_f) for r in rows])

