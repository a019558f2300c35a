"""Process tomography of three-level gates and readout-error modeling.

The channel under test maps qutrit density matrices to qutrit density
matrices.  Nine input states and nine prerotations followed by a
ground-state projective measurement give 81 probabilities, from which
the 9x9 process matrix chi is recovered by linear inversion and
projected to the nearest Hermitian PSD matrix.  The reduced 4x4 block
on the computational pair scores the gate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

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
    """Declared-outcome distribution M p of true populations p."""
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("input must be a probability vector")
    return validate_assignment(m) @ p


def correct_readout(measured: np.ndarray,
                    m: np.ndarray = ASSIGNMENT_DEFAULT) -> np.ndarray:
    """Invert the assignment matrix: p = M^-1 P.

    Statistical noise can push corrected entries slightly negative;
    they are preserved (with a warning) rather than clipped, since
    clipping would bias downstream averages.
    """
    p = np.linalg.solve(validate_assignment(m), np.asarray(measured, dtype=float))
    if np.any(p < -1e-12):
        warnings.warn("readout correction produced negative probabilities",
                      RuntimeWarning, stacklevel=2)
    return p


def channel_from_unitary(u3: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    def chan(rho: np.ndarray) -> np.ndarray:
        return u3 @ rho @ qmath.dagger(u3)
    return chan


def channel_from_superoperator(s: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    def chan(rho: np.ndarray) -> np.ndarray:
        return (s @ rho.reshape(-1)).reshape(3, 3)
    return chan


def qpt(channel: Callable[[np.ndarray], np.ndarray],
        readout: Optional[np.ndarray] = None) -> ChiMatrix:
    """Reconstruct chi of a qutrit channel from simulated measurements.

    For each of the 81 (input, prerotation) pairs, the ground-state
    probability Tr[|g><g| U_k rho' U_k^+] is recorded; with a readout
    model the populations pass through M and are corrected by M^-1.
    Output states are recovered by inverting the nine projective
    observables, then chi by inverting rho' = sum chi_mn E_m rho E_n^+.
    The result is Hermitized and projected to PSD by eigenvalue
    clipping, preserving the trace.
    """
    states = input_states()
    rots = prerotations()
    basis = process_basis()

    # Observables O_k = U_k^+ |g><g| U_k; their span must cover all
    # Hermitian 3x3 matrices for the state inversion to be unique.
    obs = np.stack([qmath.dagger(u) @ qmath.projector(model.KET_G) @ u
                    for u in rots])
    a_state = obs.conj().reshape(9, 9)
    if not np.linalg.cond(a_state) < 1e6:
        raise RuntimeError("prerotation set is not tomographically complete")

    rho_out = []
    for psi in states:
        rho_prime = channel(qmath.projector(psi))
        meas = np.empty(9)
        for k, u in enumerate(rots):
            rho_meas = u @ rho_prime @ qmath.dagger(u)
            pops = np.real(np.diag(rho_meas))
            if readout is not None:
                pops = correct_readout(apply_readout(pops, readout), readout)
            meas[k] = pops[_G]
        rho_vec = np.linalg.solve(a_state, meas.astype(complex))
        rho = rho_vec.reshape(3, 3)
        rho_out.append(0.5 * (rho + qmath.dagger(rho)))

    # Design matrix of the process-inversion problem:
    # rho'_i = sum_mn chi_mn E_m rho_i E_n^+.
    design = np.empty((9 * 9, 9 * 9), dtype=complex)
    for i, psi in enumerate(states):
        rho_i = qmath.projector(psi)
        blocks = np.einsum("mab,bc,ndc->mnad", basis, rho_i, basis.conj())
        design[i * 9:(i + 1) * 9] = blocks.transpose(2, 3, 0, 1).reshape(9, 81)
    target = np.concatenate([r.reshape(-1) for r in rho_out])
    chi_vec, *_ = np.linalg.lstsq(design, target, rcond=None)
    chi = chi_vec.reshape(9, 9)
    chi = 0.5 * (chi + qmath.dagger(chi))

    # PSD projection in the orthonormalized operator basis, where chi
    # is a legitimate Gram matrix.
    norms = np.sqrt(np.einsum("mab,mab->m", basis.conj(), basis).real)
    chi_on = chi * np.outer(norms, norms)
    w, v = np.linalg.eigh(chi_on)
    if np.min(w) < -1e-6:
        w = np.clip(w, 0.0, None)
        chi_on_psd = (v * w) @ qmath.dagger(v)
        tr = np.trace(chi_on).real
        if np.trace(chi_on_psd).real > 0:
            chi_on_psd *= tr / np.trace(chi_on_psd).real
        chi = chi_on_psd / np.outer(norms, norms)

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
