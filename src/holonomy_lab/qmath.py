"""Dense complex linear algebra used throughout the simulator, and the
JSON and CSV text its results are written as.

States are 1-D complex ndarrays, operators are square 2-D complex
ndarrays.  Everything here is pure: no function mutates its inputs, so
values can be shared freely between callers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError(f"{name} has non-finite entries")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conjugate(np.swapaxes(a, -1, -2))


def projector(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).ravel()
    return np.outer(psi, psi.conj())


def unitary_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Gate fidelity |Tr(U V^dag)| / d, invariant under global phases.

    Also meaningful when U is a (sub-unitary) truncation of a larger
    propagator onto the computational subspace.
    """
    u = _require_square(u, "U")
    v = _require_square(v, "V")
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    d = u.shape[0]
    return float(abs(np.trace(u @ dagger(v))) / d)


def pair_rotation(dim: int, i: int, j: int, angle: float,
                  axis: str = "x") -> np.ndarray:
    """exp(-i angle/2 sigma_axis) on levels (i, j) of a dim-level system."""
    pauli = {"x": PAULI_X, "y": PAULI_Y}[axis]
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    u = np.eye(dim, dtype=complex)
    # Added as (rotation - identity), which fixes the rounding of the
    # diagonal that stored tomography results were computed with.
    u[np.ix_([i, j], [i, j])] += c * np.eye(2) - 1j * s * pauli - np.eye(2)
    return u


def matrix_to_json(a: np.ndarray) -> dict:
    """Serialize to {rows, cols, re, im} with deterministic field order."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a 2-D array")
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def csv_text(columns: Sequence[str], row_format: str,
             rows: np.ndarray | Sequence[Sequence]) -> str:
    """The header line, then every row through one %-format such as "%s,%.6g,%d".

    Nothing is quoted, so no value may hold a comma or a quote."""
    if row_format.count(",") + 1 != len(columns):
        raise ValueError(f"row format {row_format!r} does not fit columns {list(columns)}")
    rows = np.asarray(rows, dtype=object)
    body = ((row_format + "\n") * len(rows)) % tuple(rows.ravel().tolist())
    return ",".join(columns) + "\n" + body
