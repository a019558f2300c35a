"""Reference models the tests check the package against.

The package builds every Hamiltonian from the drive-linear form
H = H0 + a A + conj(a) A^dag (evolve.DrivenHamiltonian).  The functions
here write the same Hamiltonians out element by element, and rebuild
the D_mn integrands the way a populations-only experiment measures
them, so that the tests compare two independent derivations.  They also
keep the plain loops that batched package code replaces: the per-step
product chain of the closed propagator, the per-step RK4 stage loop of
the Lindblad equation, the per-pair Clifford matching and the
per-sequence RB loop.  segment_exact_unitary propagates a segmented
schedule exactly, one matrix exponential per segment.
"""

import numpy as np
import scipy.linalg

from holonomy_lab import evolve, model, qmath, rb
from holonomy_lab.model import E, F, G
from holonomy_lab.pulses import DEFAULT_STEP_1Q


def qutrit_hamiltonian_at(omega_ge: float, omega_ef: float,
                          phi0: float, phi1: float) -> np.ndarray:
    """H = 1/2 [Omega_ge e^{i phi0} |g><e| + Omega_ef e^{i phi1} |f><e|] + h.c."""
    h = np.zeros((3, 3), dtype=complex)
    h[G, E] = 0.5 * omega_ge * np.exp(1j * phi0)
    h[F, E] = 0.5 * omega_ef * np.exp(1j * phi1)
    return h + qmath.dagger(h)


def bright_drive_hamiltonian(frame: model.BrightFrame, omega, phi1) -> np.ndarray:
    """H = 1/2 Omega e^{i phi1} |b><e| + h.c. assembled in the (g,e,f) basis.

    Equivalent to qutrit_hamiltonian_at with Omega_ge = Omega sin(theta/2),
    Omega_ef = Omega cos(theta/2), phi0 = phi1 - phi - pi.  omega and phi1
    broadcast: arrays of shape s give a stack of shape s + (3, 3).
    """
    a = np.asarray(omega) * np.exp(1j * np.asarray(phi1))
    h = a[..., None, None] * model.bright_drive_operator(frame)
    return h + qmath.dagger(h)


def dispersive_hamiltonian(p: model.DispersiveSystemParams,
                           h_drive: np.ndarray) -> np.ndarray:
    """Full 3N x 3N Hamiltonian: dispersive diagonal + drive on every Fock block.

    A stack of qutrit drives (..., 3, 3) gives a stack (..., 3N, 3N).
    """
    return model.dispersive_shift_hamiltonian(p) + qmath.tensor(np.eye(p.n_fock), h_drive)


def reconstructed_phase_integrands(schedule, step: float = DEFAULT_STEP_1Q):
    """(d11, d22, d12) on the grid of holonomy.phase_record, from populations.

    Evolves the density matrices of |b>, |e>, a1 = (|b>+|e>)/sqrt(2) and
    a2 = (|b>-i|e>)/sqrt(2) and reads d11 = Tr[rho_b H], d22 = Tr[rho_e H]
    and the cross term by polarization:
        Re d12 = Tr[rho_a1 H] - d11/2 - d22/2
        Im d12 = Tr[rho_a2 H] - d11/2 - d22/2.
    H(t) comes from bright_drive_hamiltonian, not from the propagator's
    own drive-linear stack.
    """
    frame = model.bright_frame(schedule.gate.theta, schedule.gate.phi)
    ham = evolve.schedule_hamiltonian(schedule)
    times, unitaries = evolve.propagate_unitary_h(ham, schedule.tau, step)
    h_stack = bright_drive_hamiltonian(frame, *schedule.drive(times))

    def expect(psi0: np.ndarray) -> np.ndarray:
        psi = unitaries @ psi0
        rho = psi[:, :, None] * psi[:, None, :].conj()
        return np.einsum("nij,nji->n", rho, h_stack).real

    b, e = frame.bright, model.KET_E
    d11, d22 = expect(b), expect(e)
    re12 = expect((b + e) / np.sqrt(2)) - d11 / 2 - d22 / 2
    im12 = expect((b - 1j * e) / np.sqrt(2)) - d11 / 2 - d22 / 2
    return d11, d22, re12 + 1j * im12


def sequential_unitaries(ham, tau: float, step: float):
    """(times, unitaries) of evolve.propagate_unitary_h, one product per step.

    On every invariant block, each step is v exp(-i w dt) v^dag from the
    eigendecomposition of H(t_mid), and U(t_k+1, 0) = exp(-i H dt) U(t_k, 0).
    """
    times = evolve._time_grid(tau, step)
    dt, dim = times[1] - times[0], ham.h0.shape[-1]
    a = ham.coefficient(0.5 * (times[:-1] + times[1:]))
    unitaries = np.zeros((len(times), dim, dim), dtype=complex)
    for idx in evolve.invariant_blocks(ham):
        rows, cols = idx[:, :, None], idx[:, None, :]
        h = evolve.DrivenHamiltonian(ham.h0[rows, cols], ham.a_op[rows, cols],
                                     ham.drive).at_coefficient(a)
        w, v = np.linalg.eigh(h)
        steps = np.einsum("...ij,...j,...kj->...ik", v, np.exp(-1j * w * dt), v.conj())
        chain = np.empty((len(times), *v.shape[1:]), dtype=complex)
        chain[0] = np.eye(idx.shape[1])
        for k in range(len(steps)):
            chain[k + 1] = steps[k] @ chain[k]
        unitaries[:, rows, cols] = chain
    return times, unitaries


def lindblad_stage_loop(ham, c_ops, tau: float, step: float, rho0: np.ndarray):
    """(times, states) of evolve.propagate_lindblad_h from four RK4 stages per step.

    Each stage is one product with the stacked generator, restricted to
    the reachable entries, and one weighted sum of its blocks, whatever
    the number of columns.
    """
    times = evolve._time_grid(tau, step)
    n = len(times) - 1
    m, dim = rho0.shape[0], rho0.shape[-1]
    blocks = evolve.lindblad_generator(ham, c_ops).reshape(3, dim * dim, dim * dim)
    out = np.zeros((n + 1, m, dim * dim), dtype=complex)
    out[0] = rho0.reshape(m, dim * dim)
    live = np.flatnonzero(evolve._reachable((blocks != 0).any(axis=0),
                                            (out[0] != 0).any(axis=0)))
    r = len(live)
    gen = blocks[:, live[:, None], live].reshape(3 * r, r)
    dt = np.diff(times)
    a = ham.coefficient(np.concatenate([times, times[:-1] + dt / 2]))
    weights = np.stack([np.ones_like(a), a, a.conj()], axis=1)
    nodes, mids = weights[:n + 1], weights[n + 1:]

    def lmul(w, y):
        return (w @ (gen @ y).reshape(3, r * m)).reshape(r, m)

    y = out[0][:, live].T.copy()
    for k in range(n):
        h = dt[k]
        k1 = lmul(nodes[k], y)
        k2 = lmul(mids[k], y + h / 2 * k1)
        k3 = lmul(mids[k], y + h / 2 * k2)
        k4 = lmul(nodes[k + 1], y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1][:, live] = y.T
    return times, out.reshape(n + 1, m, dim, dim)


def match_index(u: np.ndarray, table) -> int:
    """Index of the first Clifford whose unitary fidelity with u exceeds 1 - 1e-9."""
    for el in table:
        if qmath.unitary_fidelity(u, el.unitary) > 1.0 - 1e-9:
            return el.index
    raise ValueError("unitary is not in the Clifford table")


def group_tables_per_pair(table):
    """(multiplication table, inverse table, identity index), one match per pair."""
    n = len(table)
    mul = np.empty((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            mul[i, j] = match_index(table[i].unitary @ table[j].unitary, table)
    ident = match_index(np.eye(2, dtype=complex), table)
    inv = np.array([int(np.where(mul[:, i] == ident)[0][0]) for i in range(n)])
    return mul, inv, ident


def rb_per_sequence(channel_factory, m_values, n_seqs: int, interleaved=None,
                    seed: int = 0, clifford_noise=None):
    """(mean_pg, std_pg) of rb.run_rb, one sequence and one draw at a time."""
    table, mul, inv, ident = rb._clifford_group()
    cliff_channels = []
    for el in table:
        s = np.eye(9, dtype=complex)
        for tag in el.decomposition:
            s = channel_factory(tag) @ s
        cliff_channels.append(s)
    inter_channel = inter_index = None
    if interleaved is not None:
        inter_channel = channel_factory(interleaved)
        inter_index = match_index(rb.physical_gate_unitary(interleaved), table)
    rng = np.random.default_rng(seed)
    rho0_vec = qmath.projector(model.KET_G).reshape(-1)
    m_values = np.asarray(sorted(m_values), dtype=int)
    mean_pg, std_pg = np.empty(len(m_values)), np.empty(len(m_values))
    for im, m in enumerate(m_values):
        pg = np.empty(n_seqs)
        for s_idx in range(n_seqs):
            picks = rng.integers(0, len(table), size=m)
            vec = rho0_vec
            net = ident
            for c in picks:
                vec = cliff_channels[c] @ vec
                if clifford_noise is not None:
                    vec = clifford_noise @ vec
                net = mul[c, net]
                if inter_channel is not None:
                    vec = inter_channel @ vec
                    net = mul[inter_index, net]
            vec = cliff_channels[inv[net]] @ vec
            pg[s_idx] = vec.reshape(3, 3)[model.G, model.G].real
        mean_pg[im] = pg.mean()
        std_pg[im] = pg.std(ddof=1) if n_seqs > 1 else 0.0
    return mean_pg, std_pg


def segment_exact_unitary(schedule, scale: float = 1.0) -> np.ndarray:
    """Product over segments of expm(-i scale area H_seg), H_seg = H at a = e^{-i phase}.

    Within a segment the drive direction is fixed, so H(t) = Omega(t) H_seg
    commutes with itself and the segment's propagator is exact.
    """
    ham = evolve.schedule_hamiltonian(schedule)
    u = np.eye(3, dtype=complex)
    for seg in schedule.segments:
        h_seg = ham.at_coefficient(np.exp(-1j * seg.phase))
        u = scipy.linalg.expm(-1j * scale * seg.area * h_seg) @ u
    return u
