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

H0 is constant, so when every segment boundary lies on the time grid
(_grid_pieces), every closed or open CNOT quantity is the product, in
schedule order, of the propagators or channels of the schedule's
segments, and a segment that repeats is computed once (_piece_product);
otherwise the whole schedule is one run on the chain.  On block 0 the
dispersive shift is zero and each segment drives at one phase, so a
segment's propagator is one exponential of its summed drive at every
scale.  The robustness grid starts in |0f>, which never leaves block 0,
so it is two such exponentials per scale for sr-nhqc and one for nhqc
(cnot_robustness).  The gate on the photonic qubit is the same product
on blocks 0 and 2, and only block 2 is chained, once per distinct
segment (build_two_qubit_gate); the twoqubit command reads its leakage
for the selectivity warning.  Under noise each transfer of the
CNOT fidelity stays in its own Fock block too, so the open-system
figure reads two qutrit Lindblad channels, each the product of its
distinct segments' channels (cnot_state_fidelity).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

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
    blocks.  Each block is a qutrit propagator, the product in schedule
    order of its distinct segments' propagators (_piece_product of
    _closed_final): one exponential of the summed drive per segment on
    block 0, where the dispersive shift is zero, and a chain per
    distinct segment on block 2.  Three pure frame changes, which an
    experiment folds into its phase references and which move no
    population, align the phases so the ideal gate reads diag(U1, I):
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
    pieces = _grid_pieces(schedule, step)
    finals = np.stack([
        _piece_product(pieces, functools.partial(_closed_final, replace(ham, h0=shift),
                                                  (1.0,)))[0]
        for shift in h0])
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
    Hamiltonian, so one piece product (_closed_final) gives every
    error.  The frame phases of build_two_qubit_gate move no
    population, so they are not applied.
    """
    epsilons = [float(eps) for eps in epsilons]
    scales = [rabi_scale(eps) for eps in epsilons]
    schedule = _two_qubit_schedule(CNOT_GATE, scheme, tau)
    finals = _piece_product(_grid_pieces(schedule, step), functools.partial(
        _closed_final, evolve.schedule_hamiltonian(schedule), scales))
    populations = np.abs(finals[:, :, model.F]) ** 2
    return [RobustnessRow(eps, *map(float, p)) for eps, p in zip(epsilons, populations)]


def _grid_pieces(schedule: PulseSchedule, step: float) -> list[tuple[PulseSchedule, float]]:
    """(piece, step) runs whose propagators or channels, multiplied in
    order, make the schedule's on the grid of evolve._time_grid(tau, step).

    If every segment spans a whole number of grid steps, so that every
    boundary lies on the grid, each segment is a piece: a one-segment
    schedule on its own grid steps.  Equal segments are equal pieces, so
    a caller integrates each distinct one once (_piece_product).  If a
    boundary falls between grid points, or the schedule has no segments,
    the schedule is the one piece.
    """
    durations = np.array([seg.duration for seg in schedule.segments])
    steps = durations / evolve._time_grid(schedule.tau, step)[1]
    if not len(steps) or not np.allclose(steps, np.round(steps), rtol=0, atol=1e-9):
        return [(schedule, step)]
    return [(replace(schedule, tau=seg.duration, segments=(seg,)), seg.duration / m)
            for seg, m in zip(schedule.segments, np.round(steps))]


def _piece_product(pieces: list[tuple[PulseSchedule, float]],
                   piece_map: Callable[[PulseSchedule, float], np.ndarray]) -> np.ndarray:
    """The product in schedule order of piece_map(piece, step) over the
    (piece, step) runs of _grid_pieces, each distinct run mapped once.

    piece_map returns a matrix, or a stack of them with the matrix axes
    last, such as one propagator per scale.
    """
    maps = {}
    for piece in pieces:
        if piece not in maps:
            maps[piece] = piece_map(*piece)
    return functools.reduce(lambda total, later: later @ total, [maps[p] for p in pieces])


def _closed_final(ham: evolve.DrivenHamiltonian, scales: Sequence[float],
                  piece: PulseSchedule, step: float) -> np.ndarray:
    """The final propagators of s H at every scale s, (scales, 3, 3),
    for the piece's drive on ham.

    Where h0 is zero, a one-segment piece drives at one phase, so
    H(t) = Omega(t) M_phi commutes with itself and the product of its
    midpoint steps is exactly exp(-i s Theta M_phi), Theta = sum of
    Omega(t_mid) dt over the piece's grid (the first Magnus term).  That
    is one step of the constant drive Theta / tau e^{i phi1} over the
    piece, without the chain's round-off.  Any other piece runs on the
    chain of evolve.scaled_final_unitaries.
    """
    drive = piece.drive
    if len(piece.segments) == 1 and not ham.h0.any():
        times = evolve._time_grid(piece.tau, step)
        omega, phi1 = piece.drive(0.5 * (times[:-1] + times[1:]))
        theta = np.sum(omega) * (times[1] - times[0])
        drive = lambda t: (np.full(np.shape(t), theta / piece.tau), np.full(np.shape(t), phi1[0]))
        step = piece.tau
    return evolve.scaled_final_unitaries(replace(ham, drive=drive), piece.tau, step, scales)[1]


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
    The Lindblad generator depends on time through the drive alone, so
    equal segments have equal channels, and the channel of the schedule
    is the product of its segments' channels.  When every segment
    boundary lies on the time grid (_grid_pieces), each distinct segment
    is integrated once and the channels are multiplied in schedule
    order: at the default grid, 690 and 1 380 RK4 steps per block for
    sr-nhqc, whose CNOT repeats two segment shapes, instead of 5 520.
    Otherwise the schedule is one run, as a whole.  Either way the
    block's channel is checked to be trace preserving and completely
    positive (evolve._check_cptp), and one entry of it is read.
    """
    params = DispersiveSystemParams.from_mhz() if params is None else params
    if transmon_noise is None:
        transmon_noise = NoiseModel.from_coherence_times()
    schedule, ham = _selective_drive(CNOT_GATE, scheme, tau, transmon_noise.epsilon, params)
    pieces = _grid_pieces(schedule, step)
    c_ops = model.collapse_operators(transmon_noise)
    g1 = 1.0 / (cavity_t1_us * model.US_TO_NS)  # the rate of sqrt(g1) a

    def piece_channel(n: int, piece: PulseSchedule, piece_step: float) -> np.ndarray:
        """The 9x9 qutrit channel of one piece on Fock block n."""
        qutrit = evolve.DrivenHamiltonian(ham.h0[n], ham.a_op, piece.drive)
        finals = evolve.propagate_lindblad_h(qutrit, c_ops, piece.tau, piece_step)[2]
        # finals[3 i + j] is the image of |i><j|, column 3 i + j.
        return finals.reshape(9, 9).T

    # (Fock block n, start, goal): P(|n, goal>) at tau from |n, start>.
    transfers = ((0, model.F, model.G), (2, model.G, model.G))
    channels = np.stack([_piece_product(pieces, functools.partial(piece_channel, n))
                         for n, _, _ in transfers])
    evolve._check_cptp(channels)
    return float(np.mean([channel[4 * goal, 4 * start].real * np.exp(-n * g1 * schedule.tau)
                          for channel, (n, start, goal) in zip(channels, transfers)]))


def robustness_to_csv(rows: Sequence[RobustnessRow]) -> str:
    return qmath.csv_text(["epsilon", "P_g", "P_e", "P_f"], "%.6g,%.10g,%.10g,%.10g",
                          [(r.epsilon, r.p_g, r.p_e, r.p_f) for r in rows])

