"""Time-ordered propagation of pulse schedules.

Every Hamiltonian here is drive-linear: H(t) = H0 + a(t) A + conj(a(t)) A^dag
with a = Omega e^{i phi1}, A = 1/2 |b><e| and H0 zero on the qutrit or,
with the cavity, the dispersive shift of one Fock block.  The
two-qubit gate is photon-number selective: Fock block n evolves as the
driven qutrit with its own detuning, so every propagation here is of one
qutrit block, and the cavity gate runs one per Fock block it reads.
A schedule fixes its own H(t): |b> is the bright state of its gate's
(theta, phi) frame, so schedule_hamiltonian needs nothing else.
Each propagation samples a(t) on its whole time grid in one call.
Closed-system evolution composes midpoint steps exp(-i s H(t+dt/2) dt)
= sum_j exp(-i s w_j dt) P_j, at one or many scales s, from the
eigendecomposition of each drive sample and its spectral projectors
P_j.  Steps with the same drive sample share one eigendecomposition,
and all distinct samples of a run go through one stacked eigh: a
default 1Q run has at most 2 400, a segment of the default cavity gate
at most 1 380.  The eigenvalue and projector stacks are written in
place, so the setup's transient is the eigenvectors and their
transpose next to the projectors.
Open-system evolution runs fixed-step RK4 on the vectorized Lindblad
equation of the qutrit, always as the channel, and in float64 on the
real coordinates of rho.  The generator maps Hermitian matrices to
Hermitian ones, so in an orthonormal Hermitian operator basis B
(hermitian_basis: the projectors |i><i| first) it is a real matrix.
With a A + conj(a) A^dag = Re(a) X + Im(a) Y it is three real blocks,
L(t) = L0 + Re(a) L_X + Im(a) L_Y, built once (real_lindblad_generator).
The nine basis matrices of B are the columns of one run, and the basis
changes once at each end: the channel a run returns is the complex
row-major superoperator in the |i><j| basis.
A run returns what its callers read: the populations of the diagonal
inputs |i><i| at every grid time and the final images, never the whole
history.  Each run checks the trace row of every prefix, the sum of
its population rows, for all nine inputs against its start.  RK4 maps
of a trace-preserving generator keep the trace to round-off at any
step, so that check catches growth, where maps of spectral radius
above 1 amplify the round-off, not step error.  A step too coarse for
the generator shows as a negative Choi eigenvalue of the channel
instead.  _check_cptp reads both on a finished channel, a product of
channels included.

One chain, _chain, multiplies the step maps of both: the closed step
exponentials and the RK4 step maps M_k.  Up to CHAIN_WIDTH chunks, half
as many of 9x9 maps and fewer at many scales (at most CHAIN_MATRICES
matrices per product), advance side by side, one product per position.
An inclusive scan of their totals, one product per level, gives each
chunk the product of every step before it, and a fix-up in slabs
multiplies the chunk's kept rows by that product.  A run of n steps so
takes about n / chunks + log2(chunks) Python-level products: 19 + 7
for a 2 400-step qutrit run, 38 + 6 for a gate channel and 100 + 5 for
a 41-scale sweep.  The chain's stacks keep the matrix axes first and
the batch axes (chunks, scales) last.  A 3x3 product is one plain
np.einsum over the whole batch, because numpy's batched matmul spends
about 0.43 us per small complex product, 4-5x more; larger maps go
through matmul, and the fix-up of larger maps through one GEMM per
chunk and row.  A 9x9 RK4 step map costs about the arithmetic of the
four stages of the plain RK4 loop on the nine columns, but the loop
makes a Python-level product per stage and step.

A schedule on a grid is the product of its grid-aligned segments.  H0
is constant, so when every segment boundary lies on the time grid
(_grid_pieces), the propagator or channel of the schedule is the
product, in schedule order, of its segments', and a segment that
repeats is computed once (_segment_product); otherwise the whole
schedule is one run.  Each segment drives at one phase, so where H0 = 0,
H(t) = Omega(t) M_phi commutes with itself within it, the first Magnus
term is exact (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)),
and the segment's propagator is one exponential of its summed drive at
every scale.  For a stack of H0 blocks, segment_finals gives the final
propagators at every scale and segment_channel the checked channels.
The CNOT runs on both: its robustness grid is two exponentials per
scale for sr-nhqc, its gate chains only the shifted Fock block 2, and
its fidelity reads a 690- and a 1 380-step channel per block instead of
one of 5 520 steps.  The 1Q commands propagate whole schedules.
Measured on 2 CPUs (numpy 2.4, a shared host whose speed swings by up
to 1.5x; medians of warm calls): a default 1Q channel (2 400 steps)
takes 6.4-6.5 ms, the CNOT fidelity (a 690- and a 1 380-step channel
per block) 12.6-13.3 ms, the closed gate (690 and 1 380 steps on block
2) 5.0-5.4 ms and the 5-point robustness grid 0.6 ms, 15 ms as one
chain.

Vectorization convention is row-major: vec(A rho B) =
(A kron B^T) vec(rho) with vec = ndarray.reshape(-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import model, qmath
from .model import NoiseModel
from .pulses import DEFAULT_STEP_1Q, PulseSchedule, apply_rabi_error

TRACE_DRIFT_LIMIT = 1e-5
# The product chain's budget (_chain_shape): at most CHAIN_WIDTH chunks
# side by side, and at most CHAIN_MATRICES matrices in one product.
CHAIN_WIDTH = 128
CHAIN_MATRICES = 1024


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
        """Stack of H(t), (len(times),) + h0.shape."""
        return self.at_coefficient(self.coefficient(times))

    def at_coefficient(self, a: np.ndarray) -> np.ndarray:
        """H at every drive coefficient in a, shape a.shape + h0.shape.

        h0 and a_op may be stacks of blocks (..., s, s).
        """
        a = np.reshape(a, np.shape(a) + (1,) * self.h0.ndim)
        # In place: one full-size temporary fewer, the same sums in order.
        h = self.h0 + a * self.a_op
        h += np.conj(a) * qmath.dagger(self.a_op)
        return h


def schedule_hamiltonian(schedule: PulseSchedule) -> DrivenHamiltonian:
    """The three-level Hamiltonian of a drive program (H0 = 0).

    Every gate drives the bright state of its own (theta, phi) frame, so
    the schedule's gate fixes A = 1/2 |b><e|.
    """
    frame = model.bright_frame(schedule.gate.theta, schedule.gate.phi)
    return DrivenHamiltonian(np.zeros((3, 3), dtype=complex),
                             model.bright_drive_operator(frame), schedule.drive)


def _time_grid(tau: float, step: float) -> np.ndarray:
    if not (0 < tau < np.inf and 0 < step < np.inf):
        raise ValueError(f"tau ({tau}) and step ({step}) must be finite and positive")
    n = max(1, int(np.ceil(tau / step - 1e-12)))
    return np.linspace(0.0, tau, n + 1)


def _step_exponentials(w: np.ndarray, proj: np.ndarray, scales: np.ndarray,
                       dt: float) -> np.ndarray:
    """exp(-i s H dt) = sum_j exp(-i s w_j dt) P_j, (size, size, ..., scales),
    from eigenvalues w (size, ...) and the spectral projectors
    P_j = v_j v_j^dag in proj (size, size, size, ...): one einsum for all
    scales, batch axes last."""
    phases = np.exp(-1j * (w[..., None] * scales) * dt)
    return np.einsum("j...s,jik...->ik...s", phases, proj)


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the leading two axes of (rows, inner, ...) stacks whose
    batch axes come last and broadcast against each other.

    Up to 3x3 each product is one plain einsum whose C loop runs over the
    whole contiguous batch: 800 3x3 complex products take 100 us against
    matmul's 470 us.  Larger matrices go through matmul, which calls BLAS
    per matrix: 19 9x9 products take 23 us against einsum's 100 us.
    """
    if a.shape[1] <= 3:
        return np.einsum("ij...,jk...->ik...", a, b)
    return np.matmul(a, b, axes=[(0, 1), (0, 1), (0, 1)])


def _fix_up(kept: np.ndarray, before: np.ndarray) -> np.ndarray:
    """kept[:, :, c, j] @ before[:, :, c] for every chunk c and position j:
    (rows, size, chunks, length, ...) by (size, size, chunks, ...).

    Larger matrices take one GEMM per chunk, row and batch entry over all
    of the chunk's positions, not one small product per position.
    """
    if kept.shape[1] <= 3:
        return _products(kept, before[:, :, :, None])
    rows = np.moveaxis(kept, (0, 3, 1), (-3, -2, -1))
    return np.moveaxis(rows @ np.moveaxis(before, (0, 1), (-2, -1))[..., None, :, :],
                       (-3, -2, -1), (0, 3, 1))


def _chain_shape(n: int, size: int, batch: int) -> tuple[int, int]:
    """(chunks, length) of _chain over n steps of size x size maps with
    batch entries each.

    At most CHAIN_MATRICES matrices go through one product, and at most
    CHAIN_WIDTH chunks of 3x3 maps or half as many of larger ones, which
    matmul multiplies one BLAS call at a time.
    """
    width = max(1, min(CHAIN_WIDTH if size <= 3 else CHAIN_WIDTH // 2, n,
                       CHAIN_MATRICES // batch))
    length = -(-n // width)
    return -(-n // length), length


def _chain(step: Callable[[np.ndarray], np.ndarray], n: int, rows: np.ndarray,
           size: int, batch: int) -> tuple[np.ndarray, np.ndarray]:
    """(final, prefixes) of the products M_{n-1} ... M_0 of n step maps.

    step(k) returns the maps M_k, (size, size, chunks, ...) with batch
    entries each, for one step index per chunk in k, as an array that
    _chain may write to: it writes identity steps over the end of a
    ragged last chunk.  It is called once per position, in order.  The
    chunks (_chain_shape) advance side by side, one product per
    position.  An inclusive scan of the chunk totals (Hillis and Steele,
    CACM 29, 1170 (1986)), one product per level, then gives each chunk
    the product of every step before it, and a fix-up in slabs of chunks
    multiplies each chunk's kept rows by that product.  So a run of n
    steps takes about n / chunks + log2(chunks) Python-level products,
    not n.  The final is the last chunk's total times the product before
    it, the same product as the last prefix's, so the two agree bit for
    bit.  The start is the identity, so the first position takes no
    product, and the scan starts from it: the first chunk's fix-up is
    by the identity, exact.
    final is the whole product, (size, size, ...) with the batch axes of
    the maps but chunks; prefixes[:, :, c, j] are the given rows (none
    for only the final) of the product up to step c L + j + 1, L the
    chunk length: (len(rows), size, chunks, L, ...), whose padded
    entries repeat the final.
    """
    chunks, length = _chain_shape(n, size, batch)
    starts = length * np.arange(chunks)
    # The first maps start each chunk's running product.  Every chunk
    # starts below n.
    run = step(starts)
    eye = np.eye(size).reshape((size, size) + (1,) * (run.ndim - 3))
    # The rows of each chunk's running product, turned into the rows of
    # the prefixes in place once the product before the chunk is known.
    prefixes = np.empty((len(rows), size, chunks, length) + run.shape[3:], dtype=run.dtype)
    prefixes[:, :, :, 0] = run[rows]
    for j in range(1, length):
        maps = step(np.minimum(starts + j, n - 1))
        if starts[-1] + j >= n:
            maps[:, :, -1] = eye
        run = _products(maps, run)
        prefixes[:, :, :, j] = run[rows]
    # The scan of the identity and all totals but the last: after the
    # level of offset d, before[:, :, c] is the product of entries
    # max(0, c - 2 d + 1) .. c, and at the end of every step before chunk c.
    before, d = np.concatenate([np.broadcast_to(eye[:, :, None], run[:, :, :1].shape),
                                run[:, :, :-1]], axis=2), 1
    while d < chunks:
        before = np.concatenate([before[:, :, :d], _products(before[:, :, d:],
                                                             before[:, :, :-d])], axis=2)
        d *= 2
    # The fix-up in slabs of chunks with at most the entries of
    # CHAIN_MATRICES 3x3 matrices (66 kB for a gate channel).  With 26 of
    # a gate channel's 64 chunks per slab (213 kB), glibc trimmed and
    # refaulted its heap after the channel in 27 of 30 heap layouts tried.
    slab = max(1, 9 * CHAIN_MATRICES // max(1, prefixes[:, :, 0].size))
    for c in range(0, chunks, slab):
        prefixes[:, :, c:c + slab] = _fix_up(prefixes[:, :, c:c + slab], before[:, :, c:c + slab])
    return _fix_up(run[:, :, -1:, None], before[:, :, -1:])[:, :, 0, 0], prefixes


def _closed_products(ham: DrivenHamiltonian, tau: float, step: float,
                     scales: np.ndarray, prefixes: bool) -> tuple[np.ndarray, np.ndarray]:
    """(times, U): U_s(t_k, 0) of s H(t), (steps + 1, scales, size, size),
    with prefixes, else only U_s(tau, 0), (scales, size, size).

    h0 and a_op are one (size, size) matrix each; a stack of them raises.
    Steps with the same drive sample a(t_mid) share one eigendecomposition
    and one set of projectors: a default 1Q gate has at most 2 400
    distinct samples, the longest segment of the cavity gate 1 380.  All
    of them go through one stacked eigh, and the eigenvalues and
    projectors are built batch-last and C-contiguous, the conjugate
    factors written straight into the projector stack and the product
    formed there in place: no conjugate copy of the eigenvectors is made.
    _chain multiplies the step exponentials, built per chain position
    from each step's sample.  Every array of the chain is (size, size,
    chunks, scales): the matrix axes first and the batch axes last, so
    each 3x3 product is one plain einsum over the whole contiguous batch.
    """
    if ham.h0.ndim != 2 or ham.a_op.ndim != 2:
        raise ValueError(f"h0 {ham.h0.shape} and a_op {ham.a_op.shape} must each be "
                         "one square matrix, not a stack")
    times = _time_grid(tau, step)
    n, dt = len(times) - 1, times[1] - times[0]
    size = ham.h0.shape[-1]
    # which[k] is the drive sample of step k.
    a, which = np.unique(ham.coefficient(0.5 * (times[:-1] + times[1:])), return_inverse=True)
    # H at each sample is v diag(w) v^dag.  Batch last and C-contiguous, or
    # np.take copies them at every position: w (size, samples) and
    # proj[j, i, k] = v_ij conj(v_kj).
    w, v = np.linalg.eigh(ham.at_coefficient(a))
    w = np.ascontiguousarray(w.T)
    # vt[j, i] = v_ij
    vt = v.transpose(2, 1, 0).copy()
    del v
    proj = np.empty((size, size, size, len(a)), dtype=complex)
    np.conjugate(vt[:, None, :], out=proj)
    np.multiply(vt[:, :, None], proj, out=proj)
    del vt

    def step_maps(k: np.ndarray) -> np.ndarray:
        return _step_exponentials(np.take(w, which[k], axis=1),
                                  np.take(proj, which[k], axis=3), scales, dt)

    final, kept = _chain(step_maps, n, np.arange(size if prefixes else 0), size,
                         len(scales))
    if not prefixes:
        # (size, size, scales) -> (scales, size, size)
        return times, np.ascontiguousarray(final.transpose(2, 0, 1))
    # (size, size, chunks, length, scales) -> (steps, scales, size, size)
    out = np.empty((n + 1, len(scales), size, size), dtype=complex)
    out[0] = np.eye(size)
    steps = kept.transpose(2, 3, 4, 0, 1)
    out[1:] = steps.reshape(-1, *steps.shape[2:])[:n]
    return times, out


def propagate_unitary_h(ham: DrivenHamiltonian, tau: float,
                        step: float) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-exponential propagators U(t_k, 0) on a uniform grid.

    Each step uses exp(-i H(t_mid) dt) built from a batched
    eigendecomposition, so every factor is unitary to round-off.  h0 is
    one (size, size) matrix, and the propagators are (steps + 1, size,
    size); a stack of Fock blocks raises ValueError, so each block is
    its own run.
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

    finals is (scales, size, size); h0 is one matrix, as in
    propagate_unitary_h.
    s H(t) is a Rabi error s = 1 + epsilon only where H0 = 0: for
    schedule_hamiltonian, and so for the n = 0 Fock block of the cavity
    gate (twoqubit.cnot_robustness).  On the other Fock blocks H0 is the
    dispersive shift, and scaling it is not a Rabi error.
    segment_finals calls it once per distinct segment: where H0 = 0 as
    one step of the segment's summed drive, otherwise on the segment's
    own grid.
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


def hermitian_basis(dim: int) -> np.ndarray:
    """B (d^2 x d^2), unitary: column k is the row-major vec of the k-th
    matrix of an orthonormal Hermitian operator basis, Tr(E_k E_l) = delta_kl.

    The d projectors |i><i| come first, so coordinates 0..d-1 of a state,
    x = B^dag vec(rho), are its populations and their sum its trace.
    Then, for each i < j, (|i><j| + |j><i|)/sqrt 2 and
    i(|j><i| - |i><j|)/sqrt 2, whose traces are 0.  The coordinates of a
    Hermitian rho are real.
    """
    basis = np.zeros((dim * dim, dim, dim), dtype=complex)
    level = np.arange(dim)
    basis[level, level, level] = 1.0
    i, j = np.triu_indices(dim, 1)
    k = dim + 2 * np.arange(len(i))
    basis[k, i, j] = basis[k, j, i] = np.sqrt(0.5)
    basis[k + 1, j, i] = 1j * np.sqrt(0.5)
    basis[k + 1, i, j] = -1j * np.sqrt(0.5)
    return basis.reshape(dim * dim, -1).T


def real_lindblad_generator(ham: DrivenHamiltonian, c_ops: Sequence[np.ndarray]) -> np.ndarray:
    """Real blocks (3, d^2, d^2) [B^dag L0 B, B^dag L_X B, B^dag L_Y B] of the
    Lindblad generator in the Hermitian basis B (hermitian_basis).

    a A + conj(a) A^dag = Re(a) X + Im(a) Y with X = A + A^dag and
    Y = i(A - A^dag), so L(t) = L0 + Re(a) L_X + Im(a) L_Y equals
    lindblad_superoperator(H(t), c_ops); the dissipator sits in L0.  Every
    block maps Hermitian matrices to Hermitian ones, so in B it is real:
    the imaginary parts dropped are round-off.
    """
    basis = hermitian_basis(ham.h0.shape[-1])
    a_op, a_dag = ham.a_op, qmath.dagger(ham.a_op)
    blocks = np.stack([lindblad_superoperator(ham.h0, c_ops),
                       lindblad_superoperator(a_op + a_dag, ()),
                       lindblad_superoperator(1j * (a_op - a_dag), ())])
    return np.ascontiguousarray((qmath.dagger(basis) @ blocks @ basis).real)


def _rk4_step_maps(gen: np.ndarray, a: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """RK4 maps M_k (..., r, r) of y' = L(t) y, y(t_k + h) = M_k y(t_k),
    over one step of length h each.

    gen holds the three real blocks (3, r, r) of real_lindblad_generator,
    so the maps are float64.  a (..., 3) holds the complex drive
    coefficients at each step's start t_k, end and midpoint; dt (...)
    holds the step lengths.  M_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4) with
    K1 = L(t_k), K2 = L(t_k + h/2)(I + h/2 K1), K3 = L(t_k + h/2)(I + h/2 K2)
    and K4 = L(t_k + h)(I + h K3), summed in that order.
    """
    r = gen.shape[1]
    # L = L0 + Re(a) L_X + Im(a) L_Y: real weights (1, Re a, Im a) on the blocks.
    weights = np.ones(a.shape + (3,))
    weights[..., 1], weights[..., 2] = a.real, a.imag
    l_all = (weights.reshape(-1, 3) @ gen.reshape(3, r * r)).reshape(a.shape + (r, r))
    k1, l_end, l_mid = l_all[..., 0, :, :], l_all[..., 1, :, :], l_all[..., 2, :, :]
    h = dt[..., None, None]

    def stage(l: np.ndarray, k: np.ndarray, scale: np.ndarray) -> np.ndarray:
        # l + scale (l @ k), in place on the product.
        lk = l @ k
        lk *= scale
        lk += l
        return lk

    k = stage(l_mid, k1, h / 2)
    out = k1 + 2 * k
    k = stage(l_mid, k, h / 2)
    out += 2 * k
    out += stage(l_end, k, h)
    out *= h / 6
    out += np.eye(r)
    return out


def propagate_lindblad_h(ham: DrivenHamiltonian, c_ops: Sequence[np.ndarray],
                         tau: float, step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Populations and final states of the d^2 basis matrices |i><j|: the channel.

    Fixed-step RK4 on dx/dt = G(t) x, x = B^dag vec(rho) the real
    coordinates of rho in the Hermitian basis B (hermitian_basis) and
    G = B^dag L B the real generator (real_lindblad_generator), with the
    d^2 basis matrices of B as the columns: they start as the identity.
    The basis changes once at each end, and the steps run in float64.
    The drive coefficient is sampled once at the grid points and step
    midpoints.  Every step's RK4 map comes from _rk4_step_maps, d^6 work
    per step, and _chain multiplies them, keeping only rows 0..d-1 of
    every prefix, the populations.  The chain asks for one step per
    chunk at each position in turn, and those are the maps built, 64 at
    a time on a default gate channel, so no run holds a map per step.
    Returns (times, populations, finals): populations[k, i] are the
    populations at times[k] of the state that starts in |i><i|,
    (len(times), d, d), and finals[d i + j] is the image of |i><j| at
    tau, (d^2, d, d); for the qutrit (n + 1, 3, 3) and (9, 3, 3).  No run
    keeps the off-diagonals of its history.
    Raises if the trace row of any prefix (the sum of the kept rows, for
    all d^2 inputs) drifts from (1, ..., 1, 0, ..., 0) beyond
    TRACE_DRIFT_LIMIT or is not finite.
    """
    times = _time_grid(tau, step)
    n = len(times) - 1
    dim = ham.h0.shape[-1]
    r = dim * dim
    gen = real_lindblad_generator(ham, c_ops)
    dt = np.diff(times)
    a = ham.coefficient(np.concatenate([times, times[:-1] + dt / 2]))

    def step_maps(k: np.ndarray) -> np.ndarray:
        # The maps of step k of every chunk: grid points k, k + 1 and midpoint k.
        maps = _rk4_step_maps(gen, a[np.stack([k, k + 1, k + n + 1], 1)], dt[k])
        return maps.transpose(1, 2, 0)

    # Coordinates 0..d-1 are the populations, so those are the kept rows.
    y, kept = _chain(step_maps, n, np.arange(dim), r, 1)
    # The drive samples go before the populations come: a gate channel's
    # heap then stays under the trim threshold that freeing the kept rows
    # sets (twice their size).  Kept, they made glibc trim and refault the
    # heap after the channel in 13 to 25 of 30 heap layouts tried.
    del step_maps, a
    # populations[k, i, l] = kept[l, i] at step k: the diagonal inputs'.
    populations = np.empty((n + 1, dim, dim))
    populations[0] = np.eye(dim)
    populations[1:] = kept[:, :dim].transpose(2, 3, 1, 0).reshape(-1, dim, dim)[:n]
    # The trace row of every prefix, the sum of the kept rows, against
    # its start (1, ..., 1, 0, ..., 0): the traces of the basis matrices.
    # It is summed into the first kept row: with a buffer of its own,
    # glibc trimmed and refaulted the heap after the channel in 26 of 30
    # heap layouts tried.
    gap = kept[0]
    for row in kept[1:]:
        gap += row
    gap[:dim] -= 1.0
    drift = np.max(np.abs(gap, out=gap))
    del kept, gap
    if not drift <= TRACE_DRIFT_LIMIT:
        raise RuntimeError(f"trace drift {drift:.2e} exceeds {TRACE_DRIFT_LIMIT:g}; "
                           "reduce the integration step")
    # The channel in the |i><j| columns is B y B^dag, and finals its transpose.
    basis = hermitian_basis(dim)
    finals = np.ascontiguousarray((basis @ y @ qmath.dagger(basis)).T).reshape(r, dim, dim)
    return times, populations, finals


def _check_cptp(channels: np.ndarray) -> None:
    """Raise unless every 9x9 row-major superoperator in channels (..., 9, 9)
    is trace preserving and then completely positive, each to within
    TRACE_DRIFT_LIMIT.

    The trace check also covers a product of channels: the product
    amplifies each factor's trace round-off by the norm of the factors
    after it, so one that blows up shows even where every factor passed
    its own drift check.
    """
    # The trace functional tr(rho) = vec(I) . vec(rho).
    trace = np.eye(3).reshape(-1)
    drift = np.max(np.abs(trace @ channels - trace))
    if not drift <= TRACE_DRIFT_LIMIT:
        raise RuntimeError(f"trace drift {drift:.2e} exceeds {TRACE_DRIFT_LIMIT:g}; "
                           "reduce the integration step")
    # Choi matrix sum_ij |i><j| kron E(|i><j|), E(|i><j|)_kl = channel[3k+l, 3i+j].
    choi = channels.reshape(-1, 3, 3, 3, 3).transpose(0, 3, 1, 4, 2).reshape(-1, 9, 9)
    choi_min = np.min(np.linalg.eigvalsh(0.5 * (choi + qmath.dagger(choi)))[:, 0])
    if not choi_min >= -TRACE_DRIFT_LIMIT:
        raise RuntimeError(f"channel Choi eigenvalue {choi_min:.2e} is below "
                           f"-{TRACE_DRIFT_LIMIT:g}; reduce the integration step")


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
    if noise is None.  Raises if the channel is not trace preserving or
    not completely positive to within TRACE_DRIFT_LIMIT (_check_cptp).
    """
    ham, c_ops = _open_system(schedule, noise)
    times, populations, finals = propagate_lindblad_h(ham, c_ops, schedule.tau, step)
    # A C-ordered copy, not a transposed view, so that products with the
    # channel take the same BLAS path, and round alike, as any stored matrix.
    channel = np.ascontiguousarray(finals.reshape(9, 9).T)
    _check_cptp(channel)
    return EvolutionTrace(times=times, populations=populations[:, 0]), channel


def gate_channel(schedule: PulseSchedule, noise: Optional[NoiseModel] = None,
                 step: float = DEFAULT_STEP_1Q) -> np.ndarray:
    """9x9 superoperator of the gate, noiseless if noise is None."""
    return propagate_superoperator(schedule, noise, step)[1]


def _grid_pieces(schedule: PulseSchedule, step: float) -> list[tuple[PulseSchedule, float]]:
    """(piece, step) runs whose propagators or channels, multiplied in
    order, make the schedule's on the grid of _time_grid(tau, step).

    If every segment spans a whole number of grid steps, so that every
    boundary lies on the grid, each segment is a piece: a one-segment
    schedule on its own grid steps.  If a boundary falls between grid
    points, or the schedule has no segments, the schedule is the one
    piece: a grid of each segment's own would move results by step error.
    """
    steps = np.array([s.duration for s in schedule.segments]) / _time_grid(schedule.tau, step)[1]
    if not len(steps) or not np.allclose(steps, np.round(steps), rtol=0, atol=1e-9):
        return [(schedule, step)]
    return [(replace(schedule, tau=seg.duration, segments=(seg,)), seg.duration / m)
            for seg, m in zip(schedule.segments, np.round(steps))]


def _segment_product(pieces: list[tuple[PulseSchedule, float]],
                     piece_map: Callable[..., np.ndarray], block: np.ndarray) -> np.ndarray:
    """The product in schedule order of piece_map(block, piece, step) over
    the (piece, step) runs of _grid_pieces, each distinct run mapped once,
    for one 3x3 block of H0.

    piece_map returns a matrix, or a stack of them with the matrix axes
    last, such as one propagator per scale.
    """
    maps = {piece: piece_map(block, *piece) for piece in dict.fromkeys(pieces)}
    total = maps[pieces[0]]
    for piece in pieces[1:]:
        total = maps[piece] @ total
    return total


def segment_finals(schedule: PulseSchedule, step: float, scales: Sequence[float],
                   h0: np.ndarray) -> np.ndarray:
    """The final propagators of s (H0 + the schedule's drive) at every
    scale s, (..., scales, 3, 3), for each 3x3 block H0 of h0 (..., 3, 3),
    each the product of its pieces' (_segment_product).

    Where H0 is zero, a one-segment piece is one step of the constant
    drive Theta / tau e^{i phi1}, Theta = sum of Omega(t_mid) dt over the
    piece's grid: its midpoint steps commute, so that step is their
    product exactly (the first Magnus term), without the chain's
    round-off.  Any other piece runs on the chain of
    scaled_final_unitaries.
    """
    a_op, pieces = schedule_hamiltonian(schedule).a_op, _grid_pieces(schedule, step)

    def piece_final(block: np.ndarray, piece: PulseSchedule, piece_step: float) -> np.ndarray:
        drive = piece.drive
        if len(piece.segments) == 1 and not block.any():
            times = _time_grid(piece.tau, piece_step)
            omega, phi1 = piece.drive(0.5 * (times[:-1] + times[1:]))
            theta = np.sum(omega) * (times[1] - times[0])
            drive = lambda t: (np.full_like(t, theta / piece.tau), np.full_like(t, phi1[0]))
            piece_step = piece.tau
        return scaled_final_unitaries(DrivenHamiltonian(block, a_op, drive), piece.tau,
                                      piece_step, scales)[1]

    blocks = [_segment_product(pieces, piece_final, block) for block in h0.reshape(-1, 3, 3)]
    return np.reshape(blocks, h0.shape[:-2] + blocks[0].shape)


def segment_channel(schedule: PulseSchedule, step: float, c_ops: Sequence[np.ndarray],
                    h0: np.ndarray) -> np.ndarray:
    """The 9x9 channels, (blocks, 9, 9), of the schedule's drive on each
    3x3 block of h0 (blocks, 3, 3) under c_ops.

    The Lindblad generator depends on time through the drive alone, so
    equal pieces have equal channels, and each block's channel is the
    product of its pieces' (_segment_product).  The channels of all
    blocks are checked together (_check_cptp): the trace of every block
    before the complete positivity of any.
    """
    a_op, pieces = schedule_hamiltonian(schedule).a_op, _grid_pieces(schedule, step)

    def piece_channel(block: np.ndarray, piece: PulseSchedule, piece_step: float) -> np.ndarray:
        # The finals' entry 3 i + j is the image of |i><j|, column 3 i + j.
        return propagate_lindblad_h(DrivenHamiltonian(block, a_op, piece.drive), c_ops,
                                    piece.tau, piece_step)[2].reshape(9, 9).T

    channels = np.stack([_segment_product(pieces, piece_channel, block) for block in h0])
    _check_cptp(channels)
    return channels


def idle_channel(duration: float, noise: Optional[NoiseModel]) -> np.ndarray:
    """Superoperator exp(L T) of doing nothing for a time T under noise.

    L is the constant 9x9 Lindblad generator of the collapse operators;
    exactly the identity without any.  The exponential is scaled and
    squared: exp(L T) = exp(L T / 2^s)^(2^s) with |L T / 2^s|_1 <= 1/2,
    where the Taylor series to order 16 leaves a remainder below
    2^-17 / 17!, far under round-off.  The squarings act on
    R = exp(.) - I, as (I + R)^2 = I + (2 R + R^2), so that the identity
    never swamps the small decays: on |L T| = 1e4 (15 squarings) the
    result is within 2e-16 of a 40-digit exponential, where squaring
    I + R itself drifted by 2e-12.
    """
    c_ops = [] if noise is None else model.collapse_operators(noise)
    if not c_ops:
        return np.eye(9, dtype=complex)
    gen = lindblad_superoperator(np.zeros((3, 3)), c_ops) * duration
    squarings = max(0, int(np.ceil(np.log2(np.linalg.norm(gen, 1)))) + 1)
    gen /= 2.0 ** squarings
    term = rest = gen
    for k in range(2, 17):
        term = term @ gen / k
        rest = rest + term
    for _ in range(squarings):
        rest = 2 * rest + rest @ rest
    return np.eye(9) + rest


def trace_to_csv(trace: EvolutionTrace) -> str:
    """CSV dump: t_ns plus one population column per level."""
    return qmath.csv_text(["t_ns", "P_g", "P_e", "P_f"], "%.6g,%.10g,%.10g,%.10g",
                          np.column_stack((trace.times, trace.populations)))
