"""Time-ordered propagation of pulse schedules.

Every Hamiltonian here is drive-linear: H(t) = H0 + a(t) A + conj(a(t)) A^dag
with a = Omega e^{i phi1}, A = 1/2 |b><e| (times the Fock identity on the
cavity) and H0 zero on the qutrit or the dispersive shift with the cavity.
A schedule fixes its own H(t): |b> is the bright state of its gate's
(theta, phi) frame, so schedule_hamiltonian needs nothing else.
Each propagation samples a(t) on its whole time grid in one call.
Closed-system evolution composes midpoint steps exp(-i s H(t+dt/2) dt)
= sum_j exp(-i s w_j dt) P_j, at one or many scales s, from one stacked
eigendecomposition and its spectral projectors P_j.  Steps with the same
drive sample share one eigendecomposition: the default cavity gate has
1 697 distinct samples among its 5 520 steps, because its six segments
share one envelope and two phases.  Chunks of at most STEP_BLOCK steps
advance side by side, one batched matmul per position, and their totals
are then chained, not one Python-level product per step.
Open-system evolution runs fixed-step RK4 on the vectorized Lindblad
equation for a stack of m initial states; its generator
L(t) = L0 + a L_A + conj(a) L_A^dag is built once as one stacked matrix.
A run returns what its callers read: every state's populations at
every grid time and the final states, never the whole history.
RK4 has two drivers that give the same states to round-off.  When the
m columns span the r integrated entries (m >= r, a gate channel), each
step's RK4 map M_k is built in batch and the maps are chained, one
product per step.  Otherwise (m < r, the two-state CNOT run) each of
the four stages per step is one product with the stacked matrix and one
weighted sum of its blocks.  Per step the maps cost r^3 work against
the stages' m r^2, so the shape of the run picks the driver.  Measured
on 2 CPUs: a default 1Q channel (r = m = 9, 2 400 steps) takes 0.04 s
on the maps against 0.16 s on the stages; the CNOT run (r = 27, m = 2,
5 520 steps) 0.41-0.62 s on the maps against 0.36-0.48 s on the stages.

Both propagators integrate only what the operators couple, read off
their sparsity pattern.  The closed one splits H into the index blocks
that H0, A and A^dag never connect (the Fock blocks of the cavity, one
block on the qutrit) and propagates them side by side; the open one
keeps the entries of vec(rho) that the generator can reach from the
support of the initial states, and every other entry stays exactly 0.
The reduction is exact: it drops only products with zeros.

Vectorization convention is row-major: vec(A rho B) =
(A kron B^T) vec(rho) with vec = ndarray.reshape(-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import model, qmath
from .model import NoiseModel
from .pulses import DEFAULT_STEP_1Q, PulseSchedule, apply_rabi_error

TRACE_DRIFT_LIMIT = 1e-5
# Most steps per chunk of the closed product chain and per block of RK4
# step maps in propagate_lindblad_h; keeps memory flat in the number of
# steps.
STEP_BLOCK = 128


@dataclass(frozen=True)
class EvolutionTrace:
    """Time-resolved propagation record.

    populations[k] are the diagonal occupations of the state that starts
    in |g>, at times[k].  Closed case: unitaries[k] = U(times[k], 0).
    """

    times: np.ndarray
    populations: np.ndarray
    unitaries: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def final_unitary(self) -> np.ndarray:
        if self.unitaries is None:
            raise ValueError("trace has no unitaries (open-system run)")
        return self.unitaries[-1]


@dataclass(frozen=True)
class DrivenHamiltonian:
    """H(t) = h0 + a(t) A + conj(a(t)) A^dag for a drive program.

    drive maps an array of times to (Omega, phi1) arrays, as
    PulseSchedule.drive does.
    """

    h0: np.ndarray = field(repr=False)
    a_op: np.ndarray = field(repr=False)
    drive: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] = field(repr=False)

    def coefficient(self, times: np.ndarray) -> np.ndarray:
        """a(t) = Omega(t) e^{i phi1(t)} at every time in one drive call."""
        omega, phi1 = self.drive(times)
        return omega * np.exp(1j * phi1)

    def hamiltonians(self, times: np.ndarray) -> np.ndarray:
        """Stack of H(t) (len(times) x d x d)."""
        return self.at_coefficient(self.coefficient(times))

    def at_coefficient(self, a: np.ndarray) -> np.ndarray:
        """H at every drive coefficient in a, shape a.shape + h0.shape.

        h0 and a_op may be stacks of blocks (..., s, s).
        """
        a = np.reshape(a, np.shape(a) + (1,) * self.h0.ndim)
        return self.h0 + a * self.a_op + np.conj(a) * qmath.dagger(self.a_op)


def schedule_hamiltonian(schedule: PulseSchedule) -> DrivenHamiltonian:
    """The three-level Hamiltonian of a drive program (H0 = 0).

    Every gate drives the bright state of its own (theta, phi) frame, so
    the schedule's gate fixes A = 1/2 |b><e|.
    """
    frame = model.bright_frame(schedule.gate.theta, schedule.gate.phi)
    return DrivenHamiltonian(np.zeros((3, 3), dtype=complex),
                             model.bright_drive_operator(frame), schedule.drive)


def _time_grid(tau: float, step: float) -> np.ndarray:
    if step <= 0:
        raise ValueError("step must be positive")
    n = max(1, int(np.ceil(tau / step - 1e-12)))
    return np.linspace(0.0, tau, n + 1)


def _reachable(pattern: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Boolean mask of the indices reachable from mask, where index i
    reads index j if pattern[i, j]."""
    size = -1
    while mask.sum() > size:
        size = mask.sum()
        mask = mask | (pattern @ mask)
    return mask


def invariant_blocks(ham: DrivenHamiltonian) -> list[np.ndarray]:
    """Index sets that H0, A and A^dag never couple, grouped by size.

    One (blocks, size) index array per block size, each block in
    ascending index order; H(t) is block diagonal on them at every t.
    """
    coupled = (ham.h0 != 0) | (ham.a_op != 0)
    pattern = coupled | coupled.T
    free = np.ones(len(pattern), dtype=bool)
    groups: dict[int, list[np.ndarray]] = {}
    while free.any():
        block = np.flatnonzero(_reachable(pattern, np.arange(len(free)) == free.argmax()))
        groups.setdefault(len(block), []).append(block)
        free[block] = False
    return [np.array(blocks) for blocks in groups.values()]


def _step_exponentials(w: np.ndarray, proj: np.ndarray, scales: np.ndarray,
                       dt: float) -> np.ndarray:
    """exp(-i s H dt) = sum_j exp(-i s w_j dt) P_j, (..., scales, size, size),
    from eigenvalues w (..., size) and the flattened spectral projectors
    P_j = v_j v_j^dag in proj (..., size, size^2): one product for all scales."""
    phases = np.exp(-1j * (scales[:, None] * w[..., None, :]) * dt)
    return (phases @ proj).reshape(*phases.shape, w.shape[-1])


def _closed_products(ham: DrivenHamiltonian, tau: float, step: float,
                     scales: np.ndarray, prefixes: bool) -> tuple[np.ndarray, np.ndarray]:
    """(times, U): U_s(t_k, 0) of s H(t), (steps + 1, scales, d, d), with
    prefixes, else only U_s(tau, 0), (scales, d, d).

    Steps with the same drive sample a(t_mid) share one
    eigendecomposition and one set of projectors: the default cavity
    gate has 1 697 distinct samples among its 5 520 steps.  Chunks of at
    most STEP_BLOCK steps advance side by side, one batched matmul per
    position, gathering each step's sample, and then their totals are
    chained.  Identity steps (w = 0, projectors e_j e_j^T) pad a ragged
    last chunk, so the last prefix and the final are the same products
    in the same order.
    """
    times = _time_grid(tau, step)
    n, dt, dim = len(times) - 1, times[1] - times[0], ham.h0.shape[-1]
    chunks = -(-n // STEP_BLOCK)
    length = -(-n // chunks)
    pad = [(0, 1)] + [(0, 0)] * 3
    a, which = np.unique(ham.coefficient(0.5 * (times[:-1] + times[1:])), return_inverse=True)
    # which[c, j] is the sample of step c * length + j; index len(a) is
    # the identity step.
    which = np.pad(which, (0, chunks * length - n), constant_values=len(a)).reshape(chunks, length)
    out = np.zeros(((n + 1,) if prefixes else ()) + (len(scales), dim, dim), dtype=complex)
    if prefixes:
        out[0] = np.eye(dim)
    for idx in invariant_blocks(ham):
        size, rows, cols = idx.shape[1], idx[:, :, None], idx[:, None, :]
        block = DrivenHamiltonian(ham.h0[rows, cols], ham.a_op[rows, cols], ham.drive)
        h = block.at_coefficient(a)
        # H at each sample on the blocks is v diag(w) v^dag, w (samples, blocks, size).
        w, v = np.linalg.eigh(h.reshape(-1, size, size))
        w = np.pad(w.reshape(h.shape[:-1]), pad[:3])
        vt = np.pad(v.reshape(h.shape).swapaxes(-1, -2), pad)
        vt[-1] = np.eye(size)
        proj = (vt[..., :, None] * vt.conj()[..., None, :]).reshape(*w.shape, size * size)
        run, kept = np.eye(size), []
        for j in range(length):
            run = _step_exponentials(w[which[:, j]], proj[which[:, j]], scales, dt) @ run
            if prefixes:
                kept.append(run)
        carried = [np.broadcast_to(np.eye(size), run.shape[1:])]
        for total in run[:-1]:
            carried.append(total @ carried[-1])
        # (..., blocks, scales, size, size) -> (..., scales, blocks, size, size)
        if prefixes:
            steps = (np.array(kept) @ np.array(carried)).swapaxes(0, 1)
            out[1:, ..., rows, cols] = steps.reshape(-1, *run.shape[1:])[:n].swapaxes(1, 2)
        else:
            out[..., rows, cols] = (run[-1] @ carried[-1]).swapaxes(0, 1)
    return times, out


def propagate_unitary_h(ham: DrivenHamiltonian, tau: float,
                        step: float) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-exponential propagators U(t_k, 0) on a uniform grid.

    Each step uses exp(-i H(t_mid) dt) built from a batched
    eigendecomposition, so every factor is unitary to round-off.  The
    invariant blocks of H are propagated side by side and assembled
    into the block-diagonal U.
    """
    times, unitaries = _closed_products(ham, tau, step, np.ones(1), prefixes=True)
    return times, unitaries[:, 0]


def scaled_final_unitaries(ham: DrivenHamiltonian, tau: float, step: float,
                           scales: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """(times, finals): the final propagator of s H(t) for every scale s.

    Shares the grid, eigendecomposition and product chain of
    propagate_unitary_h; every scale exponentiates the same projectors,
    one set per distinct drive sample, and only chunk products are kept,
    never one per step and scale.
    scales=(1.0,) gives the last unitary of propagate_unitary_h bit for
    bit, for any H0.

    s H(t) is a Rabi error s = 1 + epsilon only where H0 = 0, as for
    schedule_hamiltonian.  The cavity's H0 is the dispersive shift, so
    scaling its H is not a Rabi error; that needs one run per error.
    """
    return _closed_products(ham, tau, step, np.asarray(scales, dtype=float), prefixes=False)


def propagate_unitary(schedule: PulseSchedule,
                      step: float = DEFAULT_STEP_1Q) -> EvolutionTrace:
    """Closed-system trace of a schedule; populations track |g>."""
    times, unitaries = propagate_unitary_h(schedule_hamiltonian(schedule), schedule.tau, step)
    populations = np.abs(unitaries @ model.KET_G) ** 2
    return EvolutionTrace(times=times, populations=populations, unitaries=unitaries)


def lindblad_superoperator(h: np.ndarray, c_ops: Sequence[np.ndarray]) -> np.ndarray:
    """L such that d vec(rho)/dt = L vec(rho), row-major vectorization.

    Linear in h, which need not be Hermitian: with no c_ops it is the
    commutator map -i[h, .].
    """
    d = h.shape[0]
    eye = np.eye(d)
    lsup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c in c_ops:
        cdc = qmath.dagger(c) @ c
        lsup += np.kron(c, c.conj())
        lsup -= 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return lsup


def lindblad_generator(ham: DrivenHamiltonian, c_ops: Sequence[np.ndarray]) -> np.ndarray:
    """Stacked blocks [L0; L_A; L_A^dag] (3 d^2 x d^2) of the Lindblad generator.

    L(t) = L0 + a(t) L_A + conj(a(t)) L_A^dag equals
    lindblad_superoperator(H(t), c_ops); the dissipator sits in L0.
    """
    return np.concatenate([lindblad_superoperator(ham.h0, c_ops),
                           lindblad_superoperator(ham.a_op, ()),
                           lindblad_superoperator(qmath.dagger(ham.a_op), ())])


def _rk4_step_maps(gen: np.ndarray, nodes: np.ndarray, mids: np.ndarray,
                   dt: np.ndarray) -> np.ndarray:
    """RK4 maps M_k (steps x r x r) of y' = L(t) y, y(t_k+1) = M_k y(t_k).

    gen is the stacked (3r x r) generator, nodes the (steps + 1) and
    mids the (steps) rows of block weights at the grid points and the
    step midpoints.  M_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4) with
    K1 = L(t_k), K2 = L(t_k + h/2)(I + h/2 K1), K3 = L(t_k + h/2)(I + h/2 K2)
    and K4 = L(t_k+1)(I + h K3).
    """
    r = gen.shape[1]
    blocks = gen.reshape(3, r * r)
    l_nodes = (nodes @ blocks).reshape(-1, r, r)
    l_mids = (mids @ blocks).reshape(-1, r, r)
    h = dt[:, None, None]
    k1 = l_nodes[:-1]
    k2 = l_mids + h / 2 * (l_mids @ k1)
    k3 = l_mids + h / 2 * (l_mids @ k2)
    k4 = l_nodes[1:] + h * (l_nodes[1:] @ k3)
    return np.eye(r) + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def propagate_lindblad_h(ham: DrivenHamiltonian, c_ops: Sequence[np.ndarray],
                         tau: float, step: float, rho0: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Populations and final states of a stack of initial states rho0 (m x d x d).

    Fixed-step RK4 on d vec(rho)/dt = L(t) vec(rho) with every initial
    state as one column.  Only the r entries of vec(rho) that the union
    pattern of the generator blocks reaches from the support of rho0 are
    integrated; the others stay exactly 0, because no reachable row
    reads them.  The drive coefficient is sampled once at the grid
    points and step midpoints.  With m >= r columns (a channel) every
    step's RK4 map comes from _rk4_step_maps and the maps are chained;
    building a map is r^3 work per step.  With m < r each of the four
    stages per step applies the stacked generator of lindblad_generator,
    restricted to the reachable entries, to the m columns: m r^2 work.
    Returns (times, populations, finals): the real diagonals of every
    state at every grid time, (len(times), m, d), and the states at tau,
    (m, d, d); no run keeps the off-diagonals of its history.
    Raises if any state's trace drifts from its initial value beyond
    TRACE_DRIFT_LIMIT or is not finite.
    """
    times = _time_grid(tau, step)
    n = len(times) - 1
    m, dim = rho0.shape[0], rho0.shape[-1]
    blocks = lindblad_generator(ham, c_ops).reshape(3, dim * dim, dim * dim)
    vec0 = rho0.reshape(m, dim * dim)
    live = np.flatnonzero(_reachable((blocks != 0).any(axis=0), (vec0 != 0).any(axis=0)))
    r = len(live)
    gen = blocks[:, live[:, None], live].reshape(3 * r, r)
    # Integrated rows diag are the rho_ii of the reachable levels; the
    # populations of the other levels stay 0.
    level = np.flatnonzero(np.isin(np.arange(dim) * (dim + 1), live))
    diag = np.searchsorted(live, level * (dim + 1))
    populations = np.zeros((n + 1, m, dim))
    populations[0] = np.einsum("mii->mi", rho0).real
    dt = np.diff(times)
    a = ham.coefficient(np.concatenate([times, times[:-1] + dt / 2]))
    # Row j weighs the three generator blocks at sample j: (1, a, conj(a)).
    weights = np.stack([np.ones_like(a), a, a.conj()], axis=1)
    nodes, mids = weights[:n + 1], weights[n + 1:]

    y = vec0[:, live].T.astype(complex)
    if m >= r:
        chain = np.empty((n + 1, r, m), dtype=complex)
        chain[0] = y
        for start in range(0, n, STEP_BLOCK):
            stop = min(start + STEP_BLOCK, n)
            maps = _rk4_step_maps(gen, nodes[start:stop + 1], mids[start:stop],
                                  dt[start:stop])
            for k, step_map in enumerate(maps, start):
                np.matmul(step_map, chain[k], out=chain[k + 1])
        populations[1:, :, level] = chain[1:, diag].real.transpose(0, 2, 1)
        y = chain[-1]
    else:
        def lmul(w: np.ndarray, y: np.ndarray) -> np.ndarray:
            return (w @ (gen @ y).reshape(3, r * m)).reshape(r, m)

        for k in range(n):
            h = dt[k]
            k1 = lmul(nodes[k], y)
            k2 = lmul(mids[k], y + h / 2 * k1)
            k3 = lmul(mids[k], y + h / 2 * k2)
            k4 = lmul(nodes[k + 1], y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            populations[k + 1][:, level] = y[diag].real.T
    finals = np.zeros((m, dim * dim), dtype=complex)
    finals[:, live] = y.T

    traces = populations.sum(axis=-1)
    drift = np.max(np.abs(traces - traces[0]))
    if not drift <= TRACE_DRIFT_LIMIT:
        raise RuntimeError(f"trace drift {drift:.2e} exceeds {TRACE_DRIFT_LIMIT:g}; "
                           "reduce the integration step")
    return times, populations, finals.reshape(m, dim, dim)


def _open_system(schedule: PulseSchedule, noise: Optional[NoiseModel]
                 ) -> tuple[DrivenHamiltonian, list[np.ndarray]]:
    """Hamiltonian (Rabi error applied) and collapse operators under noise."""
    if noise is None:
        return schedule_hamiltonian(schedule), []
    if noise.epsilon != 0.0:
        schedule = apply_rabi_error(schedule, noise.epsilon)
    return schedule_hamiltonian(schedule), model.collapse_operators(noise)


def propagate_superoperator(schedule: PulseSchedule, noise: Optional[NoiseModel] = None,
                            step: float = DEFAULT_STEP_1Q
                            ) -> tuple[EvolutionTrace, np.ndarray]:
    """(|g><g| trace, process map S) of the gate from one integration.

    vec(rho(tau)) = S vec(rho(0)).  The nine basis matrices |i><j| are
    the columns of one run; the first is |g><g|, so its populations are
    the ground-state trace that a one-state run would give.  Noiseless
    if noise is None.  Raises if the channel is not completely positive
    to within TRACE_DRIFT_LIMIT (minimum Choi eigenvalue), which RK4's
    trace drift cannot reveal when the step is too coarse.
    """
    ham, c_ops = _open_system(schedule, noise)
    basis = np.eye(9, dtype=complex).reshape(9, 3, 3)
    times, populations, finals = propagate_lindblad_h(ham, c_ops, schedule.tau, step, basis)
    # Choi matrix sum_ij |i><j| kron E(|i><j|); finals[3i+j] is E(|i><j|).
    choi = finals.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(9, 9)
    choi_min = np.linalg.eigvalsh(0.5 * (choi + qmath.dagger(choi)))[0]
    if not choi_min >= -TRACE_DRIFT_LIMIT:
        raise RuntimeError(f"channel Choi eigenvalue {choi_min:.2e} is below "
                           f"-{TRACE_DRIFT_LIMIT:g}; reduce the integration step")
    # A C-ordered copy, not a transposed view, so that products with the
    # channel take the same BLAS path, and round alike, as any stored matrix.
    channel = np.ascontiguousarray(finals.reshape(9, 9).T)
    return EvolutionTrace(times=times, populations=populations[:, 0]), channel


def apply_superoperator(s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    return (s @ rho.reshape(-1)).reshape(d, d)


def gate_channel(schedule: PulseSchedule, noise: Optional[NoiseModel] = None,
                 step: float = DEFAULT_STEP_1Q) -> np.ndarray:
    """9x9 superoperator of the gate, noiseless if noise is None."""
    return propagate_superoperator(schedule, noise, step)[1]


def idle_channel(duration: float, noise: Optional[NoiseModel]) -> np.ndarray:
    """Superoperator of doing nothing for the given time under noise."""
    c_ops = [] if noise is None else model.collapse_operators(noise)
    if not c_ops:
        return np.eye(9, dtype=complex)
    import scipy.linalg  # only RB's idle gate needs it; kept off the import path
    return scipy.linalg.expm(lindblad_superoperator(np.zeros((3, 3)), c_ops) * duration)


def trace_to_csv(trace: EvolutionTrace) -> str:
    """CSV dump: t_ns plus one population column per level."""
    return qmath.csv_text(["t_ns", "P_g", "P_e", "P_f"], "%.6g,%.10g,%.10g,%.10g",
                          np.column_stack((trace.times, trace.populations)))
