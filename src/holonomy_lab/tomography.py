"""Process tomography of three-level gates and readout-error modeling.

The channel under test is the 9x9 row-major superoperator of a map on
qutrit density matrices, the form evolve.gate_channel returns.  Nine
input states and nine prerotations followed by a ground-state
projective measurement give 81 probabilities, computed as one stacked
product; the 9x9 process matrix chi is recovered from them by linear
inversion and projected to the nearest Hermitian PSD matrix.  The
reduced 4x4 block on the computational pair scores the gate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import model, qmath

# Assignment probability matrix of the three-state readout: column j is
# the distribution of declared outcomes when the prepared state is j.
ASSIGNMENT_DEFAULT = np.array([
    [0.942, 0.080, 0.076],
    [0.040, 0.908, 0.077],
    [0.018, 0.012, 0.847],
])

# Process basis on the qutrit: four operators spanning the computational
# (g,f) block, the two off-diagonal pairs that mix in |e>, and |e><e|.
BASIS_LABELS = ("I_gf", "sx_gf", "-isy_gf", "sz_gf",
                "sx_ge", "-isy_ge", "sx_ef", "-isy_ef", "I_e")

REDUCED_LABELS = ("I", "sx", "-isy", "sz")

_G, _E, _F = model.G, model.E, model.F


def _embed(op2: np.ndarray, i: int, j: int) -> np.ndarray:
    out = np.zeros((3, 3), dtype=complex)
    out[np.ix_([i, j], [i, j])] = op2
    return out


def process_basis() -> np.ndarray:
    """Stack of the nine 3x3 basis operators, ordered as BASIS_LABELS."""
    sx, sy = qmath.PAULI_X, qmath.PAULI_Y
    i2 = np.eye(2, dtype=complex)
    sz = qmath.PAULI_Z
    ops = [
        _embed(i2, _G, _F), _embed(sx, _G, _F), _embed(-1j * sy, _G, _F),
        _embed(sz, _G, _F),
        _embed(sx, _G, _E), _embed(-1j * sy, _G, _E),
        _embed(sx, _E, _F), _embed(-1j * sy, _E, _F),
        np.diag([0, 1, 0]).astype(complex),
    ]
    return np.stack(ops)


def input_states() -> list[np.ndarray]:
    """Nine tomographically complete preparation kets."""
    g, e, f = model.KET_G, model.KET_E, model.KET_F
    r2 = np.sqrt(2)
    return [g, e, f,
            (g + e) / r2, (g + 1j * e) / r2,
            (g + f) / r2, (g + 1j * f) / r2,
            (e + f) / r2, (e + 1j * f) / r2]


def prerotations() -> list[np.ndarray]:
    """Nine analysis unitaries applied before the |g> projector.

    Written as pulse products with the rightmost factor acting first.
    Together with M_I = |g><g| they probe all nine independent
    components of the output state; qpt checks completeness.
    """
    rx_ge = lambda a: qmath.pair_rotation(3, _G, _E, a, "x")
    ry_ge = lambda a: qmath.pair_rotation(3, _G, _E, a, "y")
    rx_ef = lambda a: qmath.pair_rotation(3, _E, _F, a, "x")
    ry_ef = lambda a: qmath.pair_rotation(3, _E, _F, a, "y")
    return [
        np.eye(3, dtype=complex),
        rx_ge(np.pi),
        rx_ge(np.pi) @ rx_ef(np.pi),
        rx_ge(np.pi / 2),
        ry_ge(np.pi / 2),
        rx_ge(np.pi) @ rx_ef(np.pi / 2),
        rx_ge(np.pi) @ ry_ef(np.pi / 2),
        rx_ge(np.pi / 2) @ rx_ef(np.pi),
        ry_ge(np.pi / 2) @ rx_ef(np.pi),
    ]


@dataclass(frozen=True)
class ChiMatrix:
    """Reconstructed process matrix.

    full: 9x9 in the BASIS_LABELS operator basis (unnormalized
    operators).  reduced: the 4x4 computational block, already carrying
    the 3/2 rescaling relative to the trace-normalized convention, so
    the identity channel gives reduced[0, 0] = 1.
    """

    full: np.ndarray = field(repr=False)
    reduced: np.ndarray = field(repr=False)


def validate_assignment(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("assignment matrix must be 3x3")
    if np.any(m < 0) or np.any(m > 1):
        raise ValueError("assignment probabilities must lie in [0, 1]")
    if np.max(np.abs(m.sum(axis=0) - 1.0)) > 1e-9:
        raise ValueError("assignment matrix columns must sum to 1")
    if np.linalg.cond(m) > 1e6:
        raise ValueError("assignment matrix is near-singular")
    return m


def apply_readout(p: np.ndarray, m: np.ndarray = ASSIGNMENT_DEFAULT) -> np.ndarray:
    """Declared-outcome distributions M p of true populations p.

    p is one probability vector or a stack of them along the last axis.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-12) or np.max(np.abs(p.sum(axis=-1) - 1.0)) > 1e-9:
        raise ValueError("input must be a probability vector")
    return p @ validate_assignment(m).T


def correct_readout(measured: np.ndarray,
                    m: np.ndarray = ASSIGNMENT_DEFAULT) -> np.ndarray:
    """Invert the assignment matrix: p = M^-1 P, for one P or a stack along the last axis.

    Statistical noise can push corrected entries slightly negative;
    they are preserved (with one warning per call) rather than clipped,
    since clipping would bias downstream averages.
    """
    measured = np.asarray(measured, dtype=float)
    p = np.linalg.solve(validate_assignment(m), measured[..., None])[..., 0]
    if np.any(p < -1e-12):
        warnings.warn("readout correction produced negative probabilities",
                      RuntimeWarning, stacklevel=2)
    return p


def channel_from_unitary(u3: np.ndarray) -> np.ndarray:
    """Row-major superoperator of rho -> U rho U^+."""
    return np.kron(u3, u3.conj())


def _nearest_density(w: np.ndarray) -> np.ndarray:
    """Eigenvalues of the nearest PSD matrix with the same trace.

    w is ascending, as eigh returns it.  Smolin, Gambetta & Smith, PRL
    108, 070502 (2012): going up from the most negative eigenvalue,
    zero each one that stays negative after an equal share of the mass
    zeroed so far is added to it and to every larger one; that share
    then lifts all the eigenvalues kept.
    """
    mu = w[::-1]
    share = (w.sum() - np.cumsum(mu)) / np.arange(1, len(w) + 1)
    keep = np.count_nonzero(mu + share > 0)
    return np.where(np.arange(len(w)) >= len(w) - keep, w + share[keep - 1], 0.0)


def qpt(channel: np.ndarray, readout: Optional[np.ndarray] = None) -> ChiMatrix:
    """Reconstruct chi of a qutrit channel from simulated measurements.

    channel is the 9x9 row-major superoperator, vec(rho') = channel
    vec(rho) with vec = reshape(-1), as evolve.gate_channel returns it.
    For each of the 81 (input, prerotation) pairs, the ground-state
    probability Tr[|g><g| U_k rho' U_k^+] is recorded; with a readout
    model the populations pass through M and are corrected by M^-1.
    Output states are recovered by inverting the nine projective
    observables, then chi by inverting rho' = sum chi_mn E_m rho E_n^+.
    The result is Hermitized and, if an eigenvalue is below -1e-6,
    replaced by the nearest PSD matrix of the same trace.
    """
    rho_in = np.stack([qmath.projector(psi) for psi in input_states()])
    rots = np.stack(prerotations())
    basis = process_basis()

    # Observables O_k = U_k^+ |g><g| U_k; their span must cover all
    # Hermitian 3x3 matrices for the state inversion to be unique.
    obs = qmath.dagger(rots) @ qmath.projector(model.KET_G) @ rots
    a_state = obs.conj().reshape(9, 9)
    if not np.linalg.cond(a_state) < 1e6:
        raise RuntimeError("prerotation set is not tomographically complete")

    # pops[i, k] are the populations of U_k E(rho_i) U_k^+.
    rho_prime = (rho_in.reshape(9, 9) @ channel.T).reshape(9, 3, 3)
    pops = np.einsum("kab,ibc,kac->ika", rots, rho_prime, rots.conj()).real
    if readout is not None:
        pops = correct_readout(apply_readout(pops, readout), readout)
    rho_out = np.linalg.solve(a_state, pops[..., _G].T).T.reshape(9, 3, 3)
    rho_out = 0.5 * (rho_out + qmath.dagger(rho_out))

    # Design matrix of the process-inversion problem:
    # rho'_i = sum_mn chi_mn E_m rho_i E_n^+.
    design = np.einsum("mab,ibc,ndc->iadmn", basis, rho_in, basis.conj()).reshape(81, 81)
    chi = np.linalg.solve(design, rho_out.reshape(-1)).reshape(9, 9)
    chi = 0.5 * (chi + qmath.dagger(chi))

    # PSD projection in the orthonormalized operator basis, where chi
    # is a legitimate Gram matrix.
    norms = np.sqrt(np.einsum("mab,mab->m", basis.conj(), basis).real)
    scale = np.outer(norms, norms)
    w, v = np.linalg.eigh(chi * scale)
    if np.min(w) < -1e-6:
        chi = (v * _nearest_density(w)) @ qmath.dagger(v) / scale

    return ChiMatrix(full=chi, reduced=chi[:4, :4].copy())


def _reduced_coefficients(u2: np.ndarray) -> np.ndarray:
    """Expansion of a 2x2 gate over {I, sx, -isy, sz}."""
    sx, sy, sz = qmath.PAULI_X, qmath.PAULI_Y, qmath.PAULI_Z
    ops = [np.eye(2, dtype=complex), sx, -1j * sy, sz]
    return np.array([np.trace(qmath.dagger(b) @ u2) / 2 for b in ops])


def ideal_chi_reduced(u2: np.ndarray) -> np.ndarray:
    c = _reduced_coefficients(u2)
    return np.outer(c, c.conj())


def process_fidelity(chi: ChiMatrix, ideal_gate: np.ndarray) -> float:
    """F = |Tr(chi_R chi_ideal^+)| against the ideal 2x2 gate."""
    ideal_gate = np.asarray(ideal_gate, dtype=complex)
    if ideal_gate.shape != (2, 2):
        raise ValueError("ideal gate must be 2x2 on the computational pair")
    return float(abs(np.trace(chi.reduced @ qmath.dagger(ideal_chi_reduced(ideal_gate)))))


def chi_to_json(chi: ChiMatrix) -> dict:
    return {
        "basis": list(BASIS_LABELS),
        "reduced_basis": list(REDUCED_LABELS),
        "full": qmath.matrix_to_json(chi.full),
        "reduced": qmath.matrix_to_json(chi.reduced),
    }


def chi_to_csv(chi: ChiMatrix) -> str:
    """Bar-chart data: one row per (basis_row, basis_col) entry."""
    return qmath.csv_text(["basis_row", "basis_col", "re", "im"], "%s,%s,%.10g,%.10g",
                          [(bi, bj, z.real, z.imag) for bi, row in zip(BASIS_LABELS, chi.full)
                           for bj, z in zip(BASIS_LABELS, row)])
