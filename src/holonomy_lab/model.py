"""Physical model of the driven three-level transmon and its environment.

Basis order is (g, e, f) throughout.  All Hamiltonians are written in
the multi-rotating frame of the two resonant drives, so the bare
transition frequencies never enter the dynamics; they live only in the
device config.  Internal units: time in ns, angular frequencies and
rates in rad/ns and 1/ns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pulses import rabi_scale

G, E, F = 0, 1, 2

KET_G = np.array([1, 0, 0], dtype=complex)
KET_E = np.array([0, 1, 0], dtype=complex)
KET_F = np.array([0, 0, 1], dtype=complex)

US_TO_NS = 1000.0

# Measured device values, keyed as in config.RunConfig: the one copy of
# the defaults of RunConfig, NoiseModel.from_coherence_times,
# DispersiveSystemParams.from_mhz and twoqubit.cnot_state_fidelity.  The
# cavity's T2* (243 us) is not here: no result reads it (see
# cnot_state_fidelity).
DEVICE = {
    "t1_ge_us": 18.9, "t1_ef_us": 12.7, "t1_gf_us": 500.0,
    "t2e_ge_us": 38.0, "t2e_ef_us": 26.0, "t2e_gf_us": 31.0,
    "chi_storage_ge_MHz": 2.87, "chi_storage_ef_MHz": 2.08,
    "cavity_t1_us": 334.0,
}
# Fock levels kept for the storage cavity (0..N_FOCK-1): the default of
# RunConfig.n_fock and DispersiveSystemParams.
N_FOCK = 4


@dataclass(frozen=True)
class BrightFrame:
    """Fixed bright/dark decomposition of the computational pair.

    bright = -sin(theta/2) e^{-i phi} |g> + cos(theta/2) |f>
    dark   =  cos(theta/2) e^{-i phi} |g> + sin(theta/2) |f>

    The dark state is annihilated by the drive Hamiltonian, so it rides
    through the gate untouched.
    """

    bright: np.ndarray = field(repr=False)
    dark: np.ndarray = field(repr=False)


def bright_frame(theta: float, phi: float) -> BrightFrame:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    ph = np.exp(-1j * phi)
    b = -s * ph * KET_G + c * KET_F
    d = c * ph * KET_G + s * KET_F
    return BrightFrame(bright=b, dark=d)


def bright_drive_operator(frame: BrightFrame) -> np.ndarray:
    """A = 1/2 |b><e|: the drive Hamiltonian is a A + conj(a) A^dag with
    the complex drive coefficient a = Omega e^{i phi1}."""
    return 0.5 * np.outer(frame.bright, KET_E.conj())


@dataclass(frozen=True)
class NoiseModel:
    """Rabi-error fraction plus relaxation/dephasing rates (1/us).

    gamma1/2/3 are the echo dephasing rates 1/T2E of the g-e, e-f and
    g-f pairs.  Pure-dephasing collapse rates are derived from them in
    collapse_operators; see that docstring.
    """

    epsilon: float = 0.0
    gamma_ge: float = 0.0
    gamma_ef: float = 0.0
    gamma_gf: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    gamma3: float = 0.0

    def __post_init__(self):
        rates = (self.gamma_ge, self.gamma_ef, self.gamma_gf,
                 self.gamma1, self.gamma2, self.gamma3)
        if not all(r >= 0 for r in rates):
            raise ValueError("noise rates must be non-negative")
        rabi_scale(self.epsilon)

    @classmethod
    def from_coherence_times(cls, t1_ge_us: float = DEVICE["t1_ge_us"],
                             t1_ef_us: float = DEVICE["t1_ef_us"],
                             t1_gf_us: float = DEVICE["t1_gf_us"],
                             t2e_ge_us: float = DEVICE["t2e_ge_us"],
                             t2e_ef_us: float = DEVICE["t2e_ef_us"],
                             t2e_gf_us: float = DEVICE["t2e_gf_us"],
                             epsilon: float = 0.0) -> "NoiseModel":
        """Default rates of the measured device (relaxation from T1,
        dephasing from echo T2E)."""
        return cls(epsilon=epsilon,
                   gamma_ge=1.0 / t1_ge_us, gamma_ef=1.0 / t1_ef_us,
                   gamma_gf=1.0 / t1_gf_us, gamma1=1.0 / t2e_ge_us,
                   gamma2=1.0 / t2e_ef_us, gamma3=1.0 / t2e_gf_us)


def collapse_operators(noise: NoiseModel) -> list[np.ndarray]:
    """Lindblad collapse operators, rates absorbed, in 1/sqrt(ns) units.

    Relaxation: sqrt(G_ge)|g><e|, sqrt(G_ef)|e><f|, sqrt(G_gf)|g><f|.
    Pure dephasing: diagonal operators sqrt(2 gph_e)|e><e| and
    sqrt(2 gph_f)|f><f| with

        gph_e = max(gamma1 - G_ge/2, 0)
        gph_f = max(gamma3 - (G_ef + G_gf)/2, 0)

    chosen so the g-e coherence decays at gamma1 and the g-f coherence
    at gamma3.  Only T2E values are measured, so this is the minimal
    diagonal-dephasing completion; downstream checks use wide
    tolerances rather than exact reproduction.
    """
    gge = noise.gamma_ge / US_TO_NS
    gef = noise.gamma_ef / US_TO_NS
    ggf = noise.gamma_gf / US_TO_NS
    g1 = noise.gamma1 / US_TO_NS
    g3 = noise.gamma3 / US_TO_NS

    ops = []
    if gge > 0:
        ops.append(np.sqrt(gge) * np.outer(KET_G, KET_E.conj()))
    if gef > 0:
        ops.append(np.sqrt(gef) * np.outer(KET_E, KET_F.conj()))
    if ggf > 0:
        ops.append(np.sqrt(ggf) * np.outer(KET_G, KET_F.conj()))
    gph_e = max(g1 - gge / 2.0, 0.0)
    gph_f = max(g3 - (gef + ggf) / 2.0, 0.0)
    if gph_e > 0:
        ops.append(np.sqrt(2 * gph_e) * np.outer(KET_E, KET_E.conj()))
    if gph_f > 0:
        ops.append(np.sqrt(2 * gph_f) * np.outer(KET_F, KET_F.conj()))
    return ops


@dataclass(frozen=True)
class DispersiveSystemParams:
    """Storage-cavity dispersive shifts (rad/ns) and Fock truncation."""

    chi_ge: float
    chi_ef: float
    n_fock: int = N_FOCK

    def __post_init__(self):
        if self.n_fock < 3:
            raise ValueError("need at least Fock levels 0..2")
        if not (np.isfinite(self.chi_ge) and np.isfinite(self.chi_ef)):
            raise ValueError("dispersive shifts must be finite")

    @classmethod
    def from_mhz(cls, chi_ge_mhz: float = DEVICE["chi_storage_ge_MHz"],
                 chi_ef_mhz: float = DEVICE["chi_storage_ef_MHz"],
                 n_fock: int = N_FOCK) -> "DispersiveSystemParams":
        to_rad_ns = 2 * np.pi * 1e-3
        return cls(chi_ge=chi_ge_mhz * to_rad_ns, chi_ef=chi_ef_mhz * to_rad_ns,
                   n_fock=n_fock)


def dispersive_shift_hamiltonian(p: DispersiveSystemParams) -> np.ndarray:
    """Fock blocks -chi_ge n |e><e| - (chi_ge+chi_ef) n |f><f|, (n_fock, 3, 3).

    Block n is the qutrit H0 of cavity photon number n: the dispersive
    shift is diagonal in n, so the cavity never couples two blocks.  Zero
    on the n = 0 block, where the drives are resonant.
    """
    shift = np.diag([0.0, -p.chi_ge, -(p.chi_ge + p.chi_ef)])
    return (np.arange(p.n_fock, dtype=float)[:, None, None] * shift).astype(complex)
