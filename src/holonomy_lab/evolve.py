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
exponentials and the RK4 step maps M_k.  Chunks of at most STEP_BLOCK
steps advance side by side and their totals are then chained from the
first chunk's: about 2 sqrt(n) Python-level products for n steps, not
n.  The chain's stacks keep the matrix axes first and the batch axes
(chunks, scales) last.  A 3x3 product is one plain np.einsum
over the whole batch, because numpy's batched matmul spends about
0.43 us per small complex product, 4-5x more; larger maps go through
matmul, and a product with one matrix for the whole batch through one
GEMM.  A 9x9 RK4 step map costs about the arithmetic of the four
stages of the plain RK4 loop on the nine columns, but the loop makes a
Python-level product per stage and step.  The CNOT is a product, per
Fock block, over its distinct segments (twoqubit._piece_product): the
open-system fidelity reads two qutrit channels, of Fock blocks 0 and 2,
each a product of segment channels, and the closed gate is the product
of segment propagators on each block, chained only on block 2, since
each segment of block 0 is one exponential.
Measured on 2 CPUs (numpy 2.4, a shared host whose speed swings by up
to 1.5x): a default 1Q channel (2 400 steps) takes 8-14 ms, 18-28 ms
with complex maps, the CNOT fidelity (a 690- and a 1 380-step channel
per block) 16-27 ms, 31-48 ms with complex maps, the closed gate (690
and 1 380 steps on block 2) 8-9 ms and the 5-point robustness grid
0.9 ms, 15 ms as one chain.

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
# Most steps per chunk of the product chain (_chain); propagate_lindblad_h
# builds about half as many RK4 step maps at once.
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
    if b.ndim == 2:
        # One GEMM per row of a, not one small product per batch entry:
        # a gate channel's prefix rows go 3.5x faster.
        return (a.swapaxes(1, -1) @ b).swapaxes(1, -1)
    return np.matmul(a, b, axes=[(0, 1), (0, 1), (0, 1)])


def _chain(step: Callable[[np.ndarray], np.ndarray], n: int,
           rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(final, prefixes) of the products M_{n-1} ... M_0 of n step maps.

    step(k) returns the maps M_k, (size, size, chunks, ...), for one step
    index per chunk in k, as an array that _chain may write to: it writes
    identity steps over the end of a ragged last chunk.  It is called at
    each position in turn, so it may build later positions' maps ahead.
    Chunks of at most STEP_BLOCK steps advance side by side, one product
    per position, and their totals are then chained from the first, so a
    run takes about 2 sqrt(n) Python-level products, not n; the last
    prefix and the final are the same products.  The start is the
    identity, so the first position and the first chunk take no product.
    The batch axes after chunks are whatever the maps carry: the scales
    of a closed run, none for an RK4 run.
    final is the whole product, (size, size, ...) with the batch axes of
    the maps but chunks; prefixes[:, :, c, j] are the given rows (none
    for only the final) of the product up to step c L + j + 1, L the
    chunk length: (len(rows), size, chunks, L, ...), whose padded
    entries repeat the final.
    """
    chunks = -(-n // STEP_BLOCK)
    length = -(-n // chunks)
    starts = length * np.arange(chunks)
    # The first maps start each chunk's running product, as a copy: they
    # may be the step builder's reused buffer.  Every chunk starts below n.
    run = step(starts).copy()
    size, batch = run.shape[0], run.shape[3:]
    # The rows of each chunk's running product, turned into the rows of
    # the prefixes in place once the chunk's start is known: a second
    # buffer this size makes glibc trim and refault its heap on every
    # gate channel.
    prefixes = np.empty((len(rows), size, chunks, length) + batch, dtype=run.dtype)
    prefixes[:, :, :, 0] = run[rows]
    for j in range(1, length):
        maps = step(np.minimum(starts + j, n - 1))
        if starts[-1] + j >= n:
            maps[:, :, -1] = np.eye(size).reshape((size, size) + (1,) * len(batch))
        run = _products(maps, run)
        prefixes[:, :, :, j] = run[rows]
    # y runs through the chunk ends and ends at the final; a contiguous
    # copy, so that its products take the same kernels as any product's.
    y = run[:, :, 0].copy()
    for c in range(1, chunks):
        prefixes[:, :, c] = _products(prefixes[:, :, c], y)
        y = _products(run[:, :, c], y)
    return y, prefixes


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

    final, kept = _chain(step_maps, n, np.arange(size if prefixes else 0))
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
    The closed CNOT, its robustness grid and its gate alike, calls it
    once per Fock block and distinct segment (twoqubit._closed_final):
    on block 0 as one step of the segment's summed drive, on block 2 on
    the segment's own grid.
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


def _rk4_step_maps(gen: np.ndarray, a: np.ndarray, dt: np.ndarray,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """RK4 maps M_k (..., steps, r, r) of y' = L(t) y, y(t_k+1) = M_k y(t_k),
    written into out if given.

    gen holds the three real blocks (3, r, r) of real_lindblad_generator,
    so the maps are float64.  a (..., 2 steps + 1) holds the complex
    drive coefficients of runs of consecutive steps: at their steps + 1
    grid points, then at their step midpoints; dt (..., steps) holds the
    step lengths.  M_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4) with
    K1 = L(t_k), K2 = L(t_k + h/2)(I + h/2 K1), K3 = L(t_k + h/2)(I + h/2 K2)
    and K4 = L(t_k+1)(I + h K3), summed in that order.
    """
    steps, r = dt.shape[-1], gen.shape[1]
    # L = L0 + Re(a) L_X + Im(a) L_Y: real weights (1, Re a, Im a) on the blocks.
    weights = np.ones(a.shape + (3,))
    weights[..., 1], weights[..., 2] = a.real, a.imag
    l_all = (weights.reshape(-1, 3) @ gen.reshape(3, r * r)).reshape(a.shape + (r, r))
    k1, l_end = l_all[..., :steps, :, :], l_all[..., 1:steps + 1, :, :]
    l_mids = l_all[..., steps + 1:, :, :]
    h = dt[..., None, None]

    def stage(l: np.ndarray, k: np.ndarray, scale: np.ndarray) -> np.ndarray:
        # l + scale (l @ k), in place on the product.
        lk = l @ k
        lk *= scale
        lk += l
        return lk

    k = stage(l_mids, k1, h / 2)
    out = np.add(k1, 2 * k, out=out)
    k = stage(l_mids, k, h / 2)
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
    chunk at each position in turn; the maps of the next positions are
    built with them, about STEP_BLOCK / 2 at a time into one reused
    buffer, so no run holds a map per step.
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
    maps = None

    def step_maps(k: np.ndarray) -> np.ndarray:
        # The maps of the next positions of every chunk, at most
        # STEP_BLOCK / 2 unless there are more chunks, into the buffer of
        # the last build.  A gate channel's transient, the kept rows with
        # the populations or with these maps' temporaries, then stays under
        # the heap trim threshold that freeing the kept rows sets (twice
        # their size).  With STEP_BLOCK maps at a time glibc trimmed the
        # heap after every channel of a CLI run and faulted it back in.
        nonlocal maps
        ahead = max(1, STEP_BLOCK // (2 * len(k)))
        if (j := int(k[0]) % ahead) == 0:
            # The grid points and step indices of each chunk's next steps,
            # clipped past the end, where _chain pads with the identity.
            grid = np.minimum(k[:, None] + np.arange(ahead + 1), n)
            ks = np.minimum(grid[:, :-1], n - 1)
            maps = _rk4_step_maps(gen, a[np.concatenate([grid, ks + n + 1], 1)], dt[ks], maps)
        return maps[:, j].transpose(1, 2, 0)

    # Coordinates 0..d-1 are the populations, so those are the kept rows.
    y, kept = _chain(step_maps, n, np.arange(dim))
    # The map buffer and the drive samples go before the populations
    # come, for the same trim threshold.
    del step_maps, maps, a
    # The trace row of every prefix, the sum of the kept rows, against
    # its start (1, ..., 1, 0, ..., 0): the traces of the basis matrices.
    gap = kept.sum(axis=0)
    gap[:dim] -= 1.0
    drift = np.max(np.abs(gap, out=gap))
    del gap
    if not drift <= TRACE_DRIFT_LIMIT:
        raise RuntimeError(f"trace drift {drift:.2e} exceeds {TRACE_DRIFT_LIMIT:g}; "
                           "reduce the integration step")
    # populations[k, i, l] = kept[l, i] at step k: the diagonal inputs'.
    populations = np.empty((n + 1, dim, dim))
    populations[0] = np.eye(dim)
    populations[1:] = kept[:, :dim].transpose(2, 3, 1, 0).reshape(-1, dim, dim)[:n]
    del kept
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
