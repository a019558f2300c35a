"""Single-qubit Clifford randomized benchmarking over noisy channels.

Each Clifford is compiled into physical gates from the set
{I, X, Y, X/2, -X/2, Y/2, -Y/2}; the 24-element table uses 45 physical
gates in total (1.875 per Clifford).  Sequences of m random Cliffords
plus a recovery gate are propagated as qutrit superoperator channels,
the ground-state return probability is fit to F = A p^m + B, and gate
fidelities follow from the standard depolarizing-parameter formulas.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import evolve, model, qmath
from .model import NoiseModel
from .pulses import (DEFAULT_STEP_1Q, DEFAULT_TAU, NAMED_GATES, SCHEME_SR, GateSpec,
                     build_sr_nhqc)

GATES_PER_CLIFFORD = 1.875

_PHYS_SPECS = {**NAMED_GATES,
               "-X/2": GateSpec(np.pi / 2, 0.0, -np.pi / 2),
               "-Y/2": GateSpec(np.pi / 2, np.pi / 2, -np.pi / 2)}

# Decompositions of the 24 single-qubit Cliffords, applied left to
# right.  Gate count: 7 singles + 13 doubles + 4 triples = 45.
CLIFFORD_DECOMPOSITIONS: tuple[tuple[str, ...], ...] = (
    ("I",),
    ("X",),
    ("Y",),
    ("Y", "X"),
    ("X/2", "Y/2"),
    ("X/2", "-Y/2"),
    ("-X/2", "Y/2"),
    ("-X/2", "-Y/2"),
    ("Y/2", "X/2"),
    ("Y/2", "-X/2"),
    ("-Y/2", "X/2"),
    ("-Y/2", "-X/2"),
    ("X/2",),
    ("-X/2",),
    ("Y/2",),
    ("-Y/2",),
    ("-X/2", "Y/2", "X/2"),
    ("-X/2", "-Y/2", "X/2"),
    ("X", "Y/2"),
    ("X", "-Y/2"),
    ("Y", "X/2"),
    ("Y", "-X/2"),
    ("X/2", "Y/2", "X/2"),
    ("-X/2", "Y/2", "-X/2"),
)


def physical_gate_spec(tag: str) -> Optional[GateSpec]:
    """GateSpec of a physical gate tag; None for the idle."""
    if tag == "I":
        return None
    return _PHYS_SPECS[tag]


def physical_gate_unitary(tag: str) -> np.ndarray:
    if tag == "I":
        return np.eye(2, dtype=complex)
    return _PHYS_SPECS[tag].target_unitary()


@dataclass(frozen=True)
class CliffordElement:
    index: int
    unitary: np.ndarray = field(repr=False)
    decomposition: tuple[str, ...] = ()


def clifford_table() -> list[CliffordElement]:
    """The 24 Cliffords with their frozen physical decompositions."""
    out = []
    for i, decomp in enumerate(CLIFFORD_DECOMPOSITIONS):
        u = np.eye(2, dtype=complex)
        for tag in decomp:
            u = physical_gate_unitary(tag) @ u
        out.append(CliffordElement(index=i, unitary=u, decomposition=decomp))
    return out


def _match_indices(products: np.ndarray, table: Sequence[CliffordElement]) -> np.ndarray:
    """Index of the first table element that equals each unitary of the
    stack products (..., 2, 2) up to a global phase: |Tr(P U_k^dag)| / 2
    above 1 - 1e-9.  Raises if some unitary has no match."""
    unitaries = np.array([el.unitary for el in table])
    overlaps = np.abs(np.einsum("...ab,kab->...k", products, unitaries.conj())) / 2
    match = overlaps > 1.0 - 1e-9
    if not match.any(axis=-1).all():
        raise ValueError("unitary is not in the Clifford table")
    return match.argmax(axis=-1)


def _group_tables(table: Sequence[CliffordElement]) -> tuple[np.ndarray, np.ndarray, int]:
    """(multiplication table, inverse table, identity index) by unitary
    matching of all 24 x 24 products at once."""
    unitaries = np.array([el.unitary for el in table])
    mul = _match_indices(np.einsum("iab,jbc->ijac", unitaries, unitaries), table)
    ident = int(_match_indices(np.eye(2, dtype=complex), table))
    inv = (mul == ident).argmax(axis=0)
    return mul, inv, ident


@functools.cache
def _clifford_group() -> tuple[tuple[CliffordElement, ...], np.ndarray, np.ndarray, int]:
    """(table, multiplication table, inverse table, identity index), built
    once per process and read-only, since every caller shares them."""
    table = tuple(clifford_table())
    mul, inv, ident = _group_tables(table)
    mul.flags.writeable = inv.flags.writeable = False
    return table, mul, inv, ident


def default_channel_factory(noise: Optional[NoiseModel],
                            tau: float = DEFAULT_TAU[SCHEME_SR],
                            step: float = DEFAULT_STEP_1Q
                            ) -> Callable[[str], np.ndarray]:
    """Physical gates as superrobust six-segment pulses under noise.

    The idle tag is a do-nothing window of one gate duration, so it
    decoheres like a real identity operation (evolve.idle_channel).
    A gate's phi enters only its bright state, through the frame
    Z = diag(e^{-i phi}, 1, 1): A(phi) = Z A(0) Z^dag, and Z maps every
    collapse operator to a phase times itself.  So the Lindblad
    generator, each RK4 step and the channel are covariant:
    S(phi) = W S(0) W^dag with W = Z kron conj(Z), diagonal.  One
    channel is integrated per (theta, gamma), at phi = 0, and Y, Y/2
    and -Y/2 are rotations of the channels of X, X/2 and -X/2; they
    match their own integrations to about 1e-15.
    """
    at_phi_zero: dict[tuple[float, float], np.ndarray] = {}
    cache: dict[str, np.ndarray] = {}

    def channel(tag: str) -> np.ndarray:
        spec = physical_gate_spec(tag)
        if spec is None:
            return evolve.idle_channel(tau, noise)
        key = (spec.theta, spec.gamma)
        if key not in at_phi_zero:
            at_phi_zero[key] = evolve.gate_channel(
                build_sr_nhqc(replace(spec, phi=0.0), tau), noise, step)
        if spec.phi == 0.0:
            return at_phi_zero[key]
        z = np.array([np.exp(-1j * spec.phi), 1.0, 1.0])
        w = np.kron(z, z.conj())
        return at_phi_zero[key] * np.outer(w, w.conj())

    def factory(tag: str) -> np.ndarray:
        if tag not in cache:
            cache[tag] = channel(tag)
        return cache[tag]

    return factory


@dataclass(frozen=True)
class RbResult:
    m_values: np.ndarray
    mean_pg: np.ndarray
    std_pg: np.ndarray
    n_seqs: int
    amplitude: float
    p: float
    offset: float
    residual_rms: float
    f_ref: Optional[float] = None
    f_gate: Optional[float] = None
    interleaved: Optional[str] = None
    degenerate: bool = False


def rb_fidelities(p_ref: float, p_gate: Optional[float] = None
                  ) -> tuple[float, Optional[float]]:
    """Average gate fidelities from the fitted depolarizing parameters.

    F_ref = 1 - (1 - p_ref)(d-1)/d / 1.875 spreads the per-Clifford
    error over the average physical-gate count; the interleaved
    fidelity is F_gate = 1 - (1 - p_gate/p_ref)(d-1)/d with d = 2.
    """
    if not 0 < p_ref <= 1:
        raise ValueError("p_ref must be in (0, 1]")
    f_ref = 1.0 - (1.0 - p_ref) * 0.5 / GATES_PER_CLIFFORD
    if p_gate is None:
        return f_ref, None
    if not 0 < p_gate <= 1 + 1e-9:
        raise ValueError("p_gate must be in (0, 1]")
    ratio = p_gate / p_ref
    if ratio > 1 + 1e-6:
        raise ValueError("p_gate exceeds p_ref beyond fit noise")
    return f_ref, 1.0 - (1.0 - min(ratio, 1.0)) * 0.5


def _fitted_fidelities(p_ref: float, p_gate: Optional[float] = None
                       ) -> tuple[float, Optional[float]]:
    """rb_fidelities of fitted p values, whose rejection is a failure of
    the fits (RuntimeError), not bad input: a p of 0, or a p_gate above
    p_ref beyond fit noise."""
    try:
        return rb_fidelities(p_ref, p_gate)
    except ValueError as exc:
        raise RuntimeError(f"RB fit rejected: {exc}") from exc


def _decay_model(m, a, p, b):
    return a * np.power(p, m) + b


def _profile(p: np.ndarray, m: np.ndarray, y: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, SSR) of the least-squares fit of A p^m + B to y with A and
    B in [0, 1], at every p of the array p.

    For a fixed p this is a two-column linear least squares on a box,
    solved exactly: the optimum is the unconstrained one if it lies in
    the box, else the best of the four edges, each a one-column least
    squares clipped to its edge.  The unconstrained one is computed on
    centered columns, which stay well conditioned as p^m flattens
    towards the constant column.
    """
    x = np.power.outer(p, m)
    x_mean, y_mean = x.mean(-1), y.mean()
    xc = x - x_mean[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        a_free = xc @ (y - y_mean) / np.einsum("pm,pm->p", xc, xc)
        a_edges = [np.clip(x @ (y - b) / np.einsum("pm,pm->p", x, x), 0.0, 1.0)
                   for b in (0.0, 1.0)]
    # The candidates (A, B): the free optimum; B = 0 or 1 with A fitted;
    # A = 0 or 1 with B fitted.
    zero, one = np.zeros_like(p), np.ones_like(p)
    a = np.stack([a_free, *a_edges, zero, one])
    b = np.stack([y_mean - a_free * x_mean, zero, one,
                  np.clip(y_mean, 0.0, 1.0) * one, np.clip(y_mean - x_mean, 0.0, 1.0)])
    ssr = np.sum((y - a[..., None] * x - b[..., None]) ** 2, axis=-1)
    # A candidate off the box, or undefined where a column vanishes
    # (p = 0) or the two coincide (p = 1), is not a fit.
    ssr[~((a >= 0) & (a <= 1) & (b >= 0) & (b <= 1))] = np.inf
    best = np.argmin(ssr, axis=0)
    pick = np.arange(len(p))
    return a[best, pick], b[best, pick], ssr[best, pick]


def _fit_decay(m_values: np.ndarray, mean_pg: np.ndarray) -> np.ndarray:
    """(A, p, B) of the least-squares fit of A p^m + B, each in [0, 1].

    Variable projection: (A, B) are linear for a fixed p, so the fit is
    a 1-D minimization of the profile residual _profile over p in
    [0, 1].  A scan of 1 001 points brackets the global minimum, which a
    local search from one start can miss when the profile has two
    basins, and eight 21-point scans of the bracket resolve p to 1e-11.
    """
    m, y = np.asarray(m_values, dtype=float), np.asarray(mean_pg, dtype=float)
    grid = np.linspace(0.0, 1.0, 1001)
    for _ in range(9):
        a, b, ssr = _profile(grid, m, y)
        i = int(np.argmin(ssr))
        popt = np.array([a[i], grid[i], b[i]])
        grid = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)], 21)
    # Gauss-Newton steps from the bracketed minimum converge about 100x
    # per step; six land on the optimum to round-off.  A parameter the
    # search put on a bound stays there: a joint step clipped back to
    # the bound would move the free ones off the constrained optimum.
    free = (popt > 0.0) & (popt < 1.0)
    for _ in range(6):
        pm = np.power(popt[1], m - 1.0)
        jac = np.column_stack([pm * popt[1], popt[0] * m * pm, np.ones(len(pm))])
        step = np.linalg.lstsq(jac[:, free], y - _decay_model(m, *popt), rcond=None)[0]
        popt[free] = np.clip(popt[free] + step, 0.0, 1.0)
    return popt


def run_rb(channel_factory: Callable[[str], np.ndarray],
           m_values: Sequence[int] = (1, 3, 6, 10, 16, 24, 36, 50, 75, 100),
           n_seqs: int = 50,
           interleaved: Optional[str] = None,
           seed: int = 0,
           clifford_noise: Optional[np.ndarray] = None) -> RbResult:
    """Reference or interleaved benchmarking over random sequences.

    channel_factory maps a physical gate tag to its 9x9 qutrit
    superoperator.  clifford_noise, when given, is an extra channel
    composed after every Clifford; a depolarizing channel there makes
    the decay analytically solvable, which the tests exploit.  Results
    are deterministic for a given seed.  Raises ValueError with n_seqs < 1
    or fewer than three distinct sequence lengths: A p^m + B has three
    parameters, so fewer lengths fit exactly or not at all, and the
    reported fidelity would be arbitrary.
    """
    if n_seqs < 1 or len(set(m_values)) < 3:
        raise ValueError(f"need n_seqs >= 1 and at least three distinct sequence lengths, "
                         f"got n_seqs={n_seqs} and m_values={list(m_values)}")
    table, mul, inv, ident = _clifford_group()

    cliff_channels = np.empty((len(table), 9, 9), dtype=complex)
    for el in table:
        s = np.eye(9, dtype=complex)
        for tag in el.decomposition:
            s = channel_factory(tag) @ s
        cliff_channels[el.index] = s

    inter_channel = None
    inter_index = None
    if interleaved is not None:
        if interleaved not in _PHYS_SPECS:
            raise ValueError(f"unknown interleaved gate {interleaved!r}")
        s = channel_factory(interleaved)
        inter_channel = s
        inter_index = int(_match_indices(physical_gate_unitary(interleaved), table))

    rng = np.random.default_rng(seed)
    rho0_vec = qmath.projector(model.KET_G).reshape(-1)
    m_values = np.asarray(sorted(m_values), dtype=int)
    mean_pg = np.empty(len(m_values))
    std_pg = np.empty(len(m_values))

    # All sequences of one length advance together; one draw of (n_seqs, m)
    # keeps the seeded stream, and a stacked matvec rounds like one matvec.
    for im, m in enumerate(m_values):
        picks = rng.integers(0, len(table), size=(n_seqs, m))
        vecs = np.broadcast_to(rho0_vec, (n_seqs, 9))[:, :, None]
        net = np.full(n_seqs, ident)
        for c in picks.T:
            vecs = cliff_channels[c] @ vecs
            if clifford_noise is not None:
                vecs = clifford_noise @ vecs
            net = mul[c, net]
            if inter_channel is not None:
                vecs = inter_channel @ vecs
                net = mul[inter_index, net]
        vecs = cliff_channels[inv[net]] @ vecs
        pg = vecs.reshape(n_seqs, 3, 3)[:, model.G, model.G].real
        mean_pg[im] = pg.mean()
        std_pg[im] = pg.std(ddof=1) if n_seqs > 1 else 0.0

    decay = mean_pg[0] - mean_pg[-1]
    if decay < 1e-9:
        # Noiseless channels: nothing to fit, report unit fidelity.
        f_ref, _ = rb_fidelities(1.0)
        return RbResult(m_values, mean_pg, std_pg, n_seqs, 0.0, 1.0,
                        float(mean_pg[-1]), 0.0,
                        f_ref=f_ref, interleaved=interleaved, degenerate=True)

    a, p, b = (float(x) for x in _fit_decay(m_values, mean_pg))
    resid = mean_pg - _decay_model(m_values, a, p, b)
    f_ref, _ = _fitted_fidelities(p)
    return RbResult(m_values, mean_pg, std_pg, n_seqs, a, p, b,
                    float(np.sqrt(np.mean(resid ** 2))),
                    f_ref=f_ref, interleaved=interleaved)


def interleaved_gate_fidelity(reference: RbResult, interleaved: RbResult) -> float:
    _, f_gate = _fitted_fidelities(reference.p, interleaved.p)
    return float(f_gate)


def rb_to_csv(result: RbResult) -> str:
    return qmath.csv_text(["m", "mean_Pg", "std_Pg", "n_seqs"], "%d,%.10g,%.10g,%d",
                          [(m, mu, sd, result.n_seqs) for m, mu, sd in
                           zip(result.m_values, result.mean_pg, result.std_pg)])


def rb_fit_payload(result: RbResult) -> dict:
    """The fit of one RB run, as rb_fit.json records it."""
    return {
        "A": result.amplitude,
        "p": result.p,
        "B": result.offset,
        "residual_rms": result.residual_rms,
        "F_ref": result.f_ref,
        "F_gate": result.f_gate,
        "interleaved": result.interleaved,
        "n_seqs": result.n_seqs,
        "degenerate": result.degenerate,
    }
