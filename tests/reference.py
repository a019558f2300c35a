"""Reference models the tests check the package against.

The package builds every Hamiltonian from the drive-linear form
H = H0 + a A + conj(a) A^dag (evolve.DrivenHamiltonian).  The functions
here write the same Hamiltonians out element by element, and rebuild
the D_mn integrands the way a populations-only experiment measures
them, so that the tests compare two independent derivations.
"""

import numpy as np

from holonomy_lab import evolve, model, qmath
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
    ham = evolve.schedule_hamiltonian(schedule, frame)
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
