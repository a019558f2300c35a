"""Reference models the tests check the package against.

The package builds every Hamiltonian from the drive-linear form
H = H0 + a A + conj(a) A^dag (evolve.DrivenHamiltonian).  The functions
here write the same Hamiltonians out element by element, and rebuild
the D_mn integrands the way a populations-only experiment measures
them, so that the tests compare two independent derivations.  They also
keep the plain loops that batched package code replaces: the per-step
product chain of the closed propagator, the per-step RK4 stage loop of
the Lindblad equation on the complex entries of vec(rho) that a stack
of initial states reaches, with the complex stacked generator
lindblad_generator that the package's real Hermitian-basis blocks
replace, the per-pair Clifford matching, the
per-sequence RB loop and the per-pair QPT loop with the clip-and-rescale
projection it once used; nearest_density_eigenvalues is the PSD
projection of Smolin, Gambetta and Smith written out step by step.
segment_exact_unitary propagates a segmented schedule exactly, one
matrix exponential per segment.  cnot_robustness_per_error runs the
whole cavity gate once per Rabi error, the path the one scaled
propagation of the n = 0 Fock block replaces; two_qubit_gate_full
propagates the whole cavity gate and applies its frame phases on the
full space, the path the two photonic-qubit Fock blocks replace; and
cnot_state_fidelity_full runs the open-system CNOT on the whole cavity
space with the cavity collapse operators, the run the two Fock-block
qutrit channels replace; it alone keeps cavity dephasing, at the
measured T2* that the package has no key for.  All three build the dense
3N x 3N Hamiltonian of the Fock-block stack (full_space_hamiltonian),
which the package never builds, with np.kron, and index it by
state_index.  cnot_state_fidelity_whole runs each of those two
Fock-block channels over the whole schedule, the run that integrating
each distinct segment once and multiplying the channels replaces.  The
*_to_csv writers format every value on its own and write the cells
through csv.writer, the path the package's one-format-per-row writer
replaces.
"""

import csv
import io

import numpy as np
import scipy.linalg

from holonomy_lab import evolve, model, qmath, rb, tomography, twoqubit
from holonomy_lab.model import E, F, G
from holonomy_lab.pulses import DEFAULT_STEP_1Q, DEFAULT_STEP_2Q

# The storage cavity's measured T2* (us).  Cavity dephasing leaves every
# Fock block of the CNOT figure alone, so only cnot_state_fidelity_full
# reads it.
CAVITY_T2STAR_US = 243.0
LEVEL_NAMES = ("g", "e", "f")


def state_index(n: int, level: str) -> int:
    """Index of |n, level> on Fock (x) qutrit, n*3 + level."""
    return 3 * n + LEVEL_NAMES.index(level)


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

    The diagonal is -chi_ge n |e><e| - (chi_ge + chi_ef) n |f><f| on
    Fock (x) qutrit.  A stack of qutrit drives (..., 3, 3) gives a stack
    (..., 3N, 3N).
    """
    shift = np.diag([0.0, -p.chi_ge, -(p.chi_ge + p.chi_ef)])
    n_op = np.diag(np.arange(p.n_fock, dtype=float))
    return np.kron(n_op, shift) + np.kron(np.eye(p.n_fock), h_drive)


def full_space_hamiltonian(ham):
    """The 3N x 3N DrivenHamiltonian of a stack of Fock blocks (N, 3, 3):
    the blocks of H0 on the diagonal, index n*3 + level, and the qutrit
    drive A on every block."""
    n_fock = len(ham.h0)
    return evolve.DrivenHamiltonian(scipy.linalg.block_diag(*ham.h0),
                                    np.kron(np.eye(n_fock), ham.a_op), ham.drive)


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

    Each step is v exp(-i w dt) v^dag from the eigendecomposition of
    H(t_mid) on every block of h0's batch axes, and U(t_k+1, 0) =
    exp(-i H dt) U(t_k, 0): (steps + 1,) + h0.shape.
    """
    times = evolve._time_grid(tau, step)
    dt = times[1] - times[0]
    w, v = np.linalg.eigh(ham.hamiltonians(0.5 * (times[:-1] + times[1:])))
    steps = np.einsum("...ij,...j,...kj->...ik", v, np.exp(-1j * w * dt), v.conj())
    unitaries = np.empty((len(times), *v.shape[1:]), dtype=complex)
    unitaries[0] = np.eye(v.shape[-1])
    for k in range(len(steps)):
        unitaries[k + 1] = steps[k] @ unitaries[k]
    return times, unitaries


def lindblad_generator(ham, c_ops) -> np.ndarray:
    """Stacked complex blocks [L0; L_A; L_A^dag] (3 d^2 x d^2) of the
    Lindblad generator in the |i><j| basis.

    L(t) = L0 + a(t) L_A + conj(a(t)) L_A^dag equals
    evolve.lindblad_superoperator(H(t), c_ops); the dissipator sits in L0.
    """
    return np.concatenate([evolve.lindblad_superoperator(ham.h0, c_ops),
                           evolve.lindblad_superoperator(ham.a_op, ()),
                           evolve.lindblad_superoperator(qmath.dagger(ham.a_op), ())])


def lindblad_stage_loop(ham, c_ops, tau: float, step: float, rho0: np.ndarray):
    """(times, states) of a stack of initial states rho0 (m x d x d) from
    four RK4 stages per step on the complex entries of vec(rho):
    evolve.propagate_lindblad_h when rho0 is the basis of |i><j|, which
    runs in the real Hermitian basis instead.

    Only the r entries of vec(rho) that the union pattern of the
    generator blocks reaches from the support of rho0 are integrated;
    the others stay exactly 0, because no reachable row reads them.  Each
    stage is one product with the stacked generator on those entries and
    one weighted sum of its blocks.
    """
    times = evolve._time_grid(tau, step)
    n = len(times) - 1
    m, dim = rho0.shape[0], rho0.shape[-1]
    blocks = lindblad_generator(ham, c_ops).reshape(3, dim * dim, dim * dim)
    out = np.zeros((n + 1, m, dim * dim), dtype=complex)
    out[0] = rho0.reshape(m, dim * dim)
    pattern, mask, size = (blocks != 0).any(axis=0), (out[0] != 0).any(axis=0), -1
    while mask.sum() > size:
        size = mask.sum()
        mask = mask | (pattern @ mask)
    live = np.flatnonzero(mask)
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


def qpt_raw_chi_per_pair(channel: np.ndarray, readout=None) -> np.ndarray:
    """Hermitized linear-inversion chi, one (input, prerotation) pair at a time.

    channel is the 9x9 row-major superoperator; it is applied to one
    input state at a time, and every pair's populations go through the
    readout model on their own.
    """
    states = tomography.input_states()
    rots = tomography.prerotations()
    basis = tomography.process_basis()
    obs = np.stack([qmath.dagger(u) @ qmath.projector(model.KET_G) @ u for u in rots])
    a_state = obs.conj().reshape(9, 9)

    rho_out = []
    for psi in states:
        rho_prime = (channel @ qmath.projector(psi).reshape(-1)).reshape(3, 3)
        meas = np.empty(9)
        for k, u in enumerate(rots):
            rho_meas = u @ rho_prime @ qmath.dagger(u)
            pops = np.real(np.diag(rho_meas))
            if readout is not None:
                pops = tomography.correct_readout(
                    tomography.apply_readout(pops, readout), readout)
            meas[k] = pops[G]
        rho = np.linalg.solve(a_state, meas.astype(complex)).reshape(3, 3)
        rho_out.append(0.5 * (rho + qmath.dagger(rho)))

    design = np.empty((9 * 9, 9 * 9), dtype=complex)
    for i, psi in enumerate(states):
        rho_i = qmath.projector(psi)
        blocks = np.einsum("mab,bc,ndc->mnad", basis, rho_i, basis.conj())
        design[i * 9:(i + 1) * 9] = blocks.transpose(2, 3, 0, 1).reshape(9, 81)
    target = np.concatenate([r.reshape(-1) for r in rho_out])
    chi = np.linalg.lstsq(design, target, rcond=None)[0].reshape(9, 9)
    return 0.5 * (chi + qmath.dagger(chi))


def orthonormal_scale() -> np.ndarray:
    """outer(norms, norms) of the process basis: chi * this is chi in the
    orthonormalized basis, where it is a Gram matrix."""
    basis = tomography.process_basis()
    norms = np.sqrt(np.einsum("mab,mab->m", basis.conj(), basis).real)
    return np.outer(norms, norms)


def clip_and_rescale(chi: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues of chi in the orthonormalized basis, then
    rescale to the original trace: the projection qpt once used."""
    scale = orthonormal_scale()
    chi_on = chi * scale
    w, v = np.linalg.eigh(chi_on)
    if np.min(w) < -1e-6:
        w = np.clip(w, 0.0, None)
        chi_on_psd = (v * w) @ qmath.dagger(v)
        tr = np.trace(chi_on).real
        if np.trace(chi_on_psd).real > 0:
            chi_on_psd *= tr / np.trace(chi_on_psd).real
        chi = chi_on_psd / scale
    return chi


def nearest_density_eigenvalues(mu: np.ndarray) -> np.ndarray:
    """Smolin, Gambetta & Smith (PRL 108, 070502 (2012)), step by step.

    mu is sorted in decreasing order; the result is the spectrum of the
    nearest PSD matrix with the same trace, in the same order.
    """
    lam = np.array(mu, dtype=float)
    i, a = len(lam), 0.0
    while lam[i - 1] + a / i < 0:
        a += lam[i - 1]
        lam[i - 1] = 0.0
        i -= 1
    lam[:i] += a / i
    return lam


def qpt_per_pair(channel: np.ndarray, readout=None) -> tomography.ChiMatrix:
    """tomography.qpt written as the plain loop over the 81 pairs."""
    chi = clip_and_rescale(qpt_raw_chi_per_pair(channel, readout))
    return tomography.ChiMatrix(full=chi, reduced=chi[:4, :4].copy())


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


def cnot_robustness_per_error(epsilons, scheme: str, tau=None,
                              step: float = DEFAULT_STEP_2Q) -> np.ndarray:
    """(P_g, P_e, P_f) rows of twoqubit.cnot_robustness, one 12x12 gate per error.

    Each row propagates the full-space dispersive Hamiltonian, as one
    dense 12x12 block, with the drive scaled by 1 + epsilon and traces
    the |0f> column over the cavity.
    """
    params = model.DispersiveSystemParams.from_mhz()
    rows = []
    for eps in epsilons:
        schedule, ham = twoqubit._selective_drive(twoqubit.CNOT_GATE, scheme, tau, eps,
                                                  params)
        u = evolve.scaled_final_unitaries(full_space_hamiltonian(ham), schedule.tau, step,
                                          (1.0,))[1][0]
        column = u[:, state_index(0, "f")]
        rows.append((np.abs(column) ** 2).reshape(-1, 3).sum(axis=0))
    return np.array(rows)


def two_qubit_gate_full(gate, scheme: str = "sr-nhqc", tau=None,
                        step: float = DEFAULT_STEP_2Q):
    """(block, leakage) of twoqubit.build_two_qubit_gate from one dense
    3N x 3N propagation of every Fock block, with the ZZ frame and
    calibration phases as 3N x 3N diagonals, then the rows and columns of
    (|0g>, |0f>, |2g>, |2f>) sliced out."""
    params = model.DispersiveSystemParams.from_mhz()
    schedule, ham = twoqubit._selective_drive(gate, scheme, tau, 0.0, params)
    full = full_space_hamiltonian(ham)
    u = evolve.scaled_final_unitaries(full, schedule.tau, step, (1.0,))[1][0]
    u = np.diag(np.exp(1j * np.diag(full.h0) * schedule.tau)) @ u
    d = np.ones(len(u), dtype=complex)
    d[:3] = np.exp(-1j * gate.gamma / 2)
    for i in (state_index(2, "g"), state_index(2, "f")):
        if abs(u[i, i]) > 1e-12:
            d[i] = np.conj(u[i, i]) / abs(u[i, i])
    u = np.diag(d) @ u
    idx = [state_index(n, level) for n in (0, 2) for level in ("g", "f")]
    block = u[np.ix_(idx, idx)]
    return block, float(1.0 - np.min(np.sum(np.abs(block) ** 2, axis=0)))


def cavity_collapse_operators(t1_us: float, t2star_us: float, n_fock: int) -> list:
    """Cavity decay sqrt(g1) a and dephasing sqrt(2 gphi) a^dag a on
    Fock (x) qutrit, g1 = 1/T1 and gphi = 1/T2* - g1/2."""
    a = np.diag(np.sqrt(np.arange(1, n_fock)), 1).astype(complex)
    ops = []
    g1 = 1.0 / (t1_us * model.US_TO_NS)
    gphi = (1.0 / t2star_us - 0.5 / t1_us) / model.US_TO_NS
    if g1 > 0:
        ops.append(np.sqrt(g1) * np.kron(a, np.eye(3)))
    if gphi > 0:
        ops.append(np.sqrt(2 * gphi) * np.kron(a.conj().T @ a, np.eye(3)))
    return ops


def cnot_state_fidelity_full(scheme: str = "sr-nhqc", epsilon: float = 0.0,
                             cavity_t1_us: float = model.DEVICE["cavity_t1_us"],
                             cavity_t2star_us: float = CAVITY_T2STAR_US, tau=None,
                             step: float = DEFAULT_STEP_2Q) -> float:
    """twoqubit.cnot_state_fidelity from one lindblad_stage_loop run of
    |0f> and |2g> on the whole Fock (x) qutrit space, with every transmon
    and cavity collapse operator, cavity dephasing included: no Fock-block
    reduction."""
    params = model.DispersiveSystemParams.from_mhz()
    noise = model.NoiseModel.from_coherence_times(epsilon=epsilon)
    schedule, ham = twoqubit._selective_drive(twoqubit.CNOT_GATE, scheme, tau, epsilon,
                                              params)
    c_ops = [np.kron(np.eye(params.n_fock), c) for c in model.collapse_operators(noise)]
    c_ops += cavity_collapse_operators(cavity_t1_us, cavity_t2star_us, params.n_fock)
    start = [state_index(0, "f"), state_index(2, "g")]
    goal = [state_index(0, "g"), state_index(2, "g")]
    dim = 3 * params.n_fock
    rho0 = np.zeros((2, dim, dim), dtype=complex)
    rho0[[0, 1], start, start] = 1.0
    _, states = lindblad_stage_loop(full_space_hamiltonian(ham), c_ops, schedule.tau, step,
                                    rho0)
    return float(np.mean(states[-1, [0, 1], goal, goal].real))


def cnot_state_fidelity_whole(scheme: str = "sr-nhqc", epsilon: float = 0.0,
                              cavity_t1_us: float = model.DEVICE["cavity_t1_us"], tau=None,
                              step: float = DEFAULT_STEP_2Q) -> float:
    """twoqubit.cnot_state_fidelity from one qutrit Lindblad run of the
    whole schedule per Fock block, 0 and 2: no segment is integrated
    apart from the others and no channel is multiplied."""
    params = model.DispersiveSystemParams.from_mhz()
    noise = model.NoiseModel.from_coherence_times(epsilon=epsilon)
    schedule, ham = twoqubit._selective_drive(twoqubit.CNOT_GATE, scheme, tau, epsilon,
                                              params)
    c_ops = model.collapse_operators(noise)
    g1 = 1.0 / (cavity_t1_us * model.US_TO_NS)
    transfers = []
    for n, start, goal in ((0, F, G), (2, G, G)):
        qutrit = evolve.DrivenHamiltonian(ham.h0[n], ham.a_op, schedule.drive)
        finals = evolve.propagate_lindblad_h(qutrit, c_ops, schedule.tau, step)[2]
        transfers.append(finals[4 * start, goal, goal].real * np.exp(-n * g1 * schedule.tau))
    return float(np.mean(transfers))


def csv_text(columns, rows) -> str:
    """CSV with one header row; cells are written as given."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    w.writerows(rows)
    return buf.getvalue()


def trace_to_csv(trace) -> str:
    return csv_text(["t_ns", "P_g", "P_e", "P_f"],
                    ([f"{t:.6g}", *(f"{p:.10g}" for p in pops)]
                     for t, pops in zip(trace.times, trace.populations)))


def phase_record_to_csv(rec) -> str:
    return csv_text(["t_ns", "d11", "d22", "Re_d12", "Im_d12"],
                    ([f"{t:.6g}", f"{a:.10g}", f"{b:.10g}",
                      f"{c.real:.10g}", f"{c.imag:.10g}"]
                     for t, a, b, c in zip(rec.times, rec.d11, rec.d22, rec.d12)))


def sweep_to_csv(rows) -> str:
    return csv_text(["epsilon", "F_sim", "F_analytic"],
                    ([f"{r.epsilon:.6g}", f"{r.f_sim:.10g}", f"{r.f_analytic:.10g}"]
                     for r in rows))


def chi_to_csv(chi) -> str:
    labels = tomography.BASIS_LABELS
    return csv_text(["basis_row", "basis_col", "re", "im"],
                    ([bi, bj, f"{chi.full[i, j].real:.10g}",
                      f"{chi.full[i, j].imag:.10g}"]
                     for i, bi in enumerate(labels)
                     for j, bj in enumerate(labels)))


def rb_to_csv(result) -> str:
    return csv_text(["m", "mean_Pg", "std_Pg", "n_seqs"],
                    ([int(m), f"{mu:.10g}", f"{sd:.10g}", result.n_seqs]
                     for m, mu, sd in zip(result.m_values, result.mean_pg,
                                          result.std_pg)))


def robustness_to_csv(rows) -> str:
    return csv_text(["epsilon", "P_g", "P_e", "P_f"],
                    ([f"{r.epsilon:.6g}", f"{r.p_g:.10g}", f"{r.p_e:.10g}",
                      f"{r.p_f:.10g}"] for r in rows))



def fit_decay_curve_fit(m_values, mean_pg) -> np.ndarray:
    """(A, p, B) of A p^m + B, each in [0, 1]: scipy's bounded curve_fit
    from p = 0.99, then six Gauss-Newton steps, the fit that the
    variable-projection rb._fit_decay replaces."""
    from scipy.optimize import curve_fit
    m_values = np.asarray(m_values, dtype=float)
    popt = curve_fit(rb._decay_model, m_values, mean_pg, p0=(0.5, 0.99, 0.5),
                     bounds=([0.0] * 3, [1.0] * 3), maxfev=20000)[0]
    for _ in range(6):
        pm = np.power(popt[1], m_values - 1.0)
        jac = np.column_stack([pm * popt[1], popt[0] * m_values * pm, np.ones(len(pm))])
        step = np.linalg.lstsq(jac, mean_pg - rb._decay_model(m_values, *popt), rcond=None)[0]
        popt = np.clip(popt + step, 0.0, 1.0)
    return popt
