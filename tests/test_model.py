import numpy as np
import pytest

from holonomy_lab import model, qmath
from reference import bright_drive_hamiltonian, dispersive_hamiltonian, qutrit_hamiltonian_at


def test_bright_frame_orthonormal():
    for theta, phi in [(0.3, 0.0), (np.pi / 2, 1.2), (2.9, -0.7)]:
        f = model.bright_frame(theta, phi)
        assert np.isclose(np.linalg.norm(f.bright), 1.0)
        assert np.isclose(np.linalg.norm(f.dark), 1.0)
        assert np.isclose(abs(np.vdot(f.bright, f.dark)), 0.0, atol=1e-12)
        # both live in the computational pair
        assert abs(f.bright[model.E]) < 1e-15
        assert abs(f.dark[model.E]) < 1e-15


def test_dark_state_decoupled_from_drive():
    f = model.bright_frame(1.1, 0.4)
    h = bright_drive_hamiltonian(f, omega=0.2, phi1=0.9)
    assert np.allclose(h @ f.dark, 0.0, atol=1e-14)
    assert np.allclose(h, qmath.dagger(h))


def test_bright_drive_matches_two_tone_form():
    theta, phi, omega, phi1 = 0.8, -0.5, 0.17, 1.3
    f = model.bright_frame(theta, phi)
    h1 = bright_drive_hamiltonian(f, omega, phi1)
    h2 = qutrit_hamiltonian_at(
        omega * np.sin(theta / 2), omega * np.cos(theta / 2),
        phi1 - phi - np.pi, phi1)
    assert np.allclose(h1, h2, atol=1e-12)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        model.NoiseModel(gamma_ge=-0.1)
    for eps in (1.5, float("nan")):
        with pytest.raises(ValueError):
            model.NoiseModel(epsilon=eps)


def test_default_rates_from_coherence_times():
    n = model.NoiseModel.from_coherence_times()
    assert np.isclose(n.gamma_ge, 1 / 18.9)
    assert np.isclose(n.gamma_ef, 1 / 12.7)
    assert np.isclose(n.gamma1, 1 / 38.0)


def test_collapse_operator_rates():
    # The measured device is relaxation dominated: both derived pure
    # dephasing rates clip at zero, leaving the three relaxation ops.
    n = model.NoiseModel.from_coherence_times()
    ops = model.collapse_operators(n)
    assert len(ops) == 3
    ge = ops[0]
    assert np.isclose(ge[model.G, model.E].real ** 2, n.gamma_ge / 1000.0)
    # all rates scale as 1/ns
    for c in ops:
        assert np.max(np.abs(c)) < 1.0


def _ge_coherence_rate(ops):
    rate = 0.0
    for c in ops:
        cdc = qmath.dagger(c) @ c
        rate += 0.5 * (cdc[model.G, model.G] + cdc[model.E, model.E]).real
        rate -= (c[model.G, model.G] * np.conj(c[model.E, model.E])).real
    return rate * 1000.0


def test_ge_coherence_decays_at_gamma1_when_dephasing_dominates():
    # With an echo rate above Gamma_ge/2 the diagonal dephasing term
    # tops up the coherence decay to exactly gamma1.
    n = model.NoiseModel(gamma_ge=1 / 18.9, gamma1=1 / 10.0)
    assert np.isclose(_ge_coherence_rate(model.collapse_operators(n)),
                      n.gamma1, rtol=1e-9)


def test_ge_coherence_floor_is_half_relaxation():
    # When gamma1 is below the relaxation floor the clip leaves the
    # coherence decaying at Gamma_ge/2.
    n = model.NoiseModel(gamma_ge=1 / 18.9, gamma1=1 / 38.0)
    assert np.isclose(_ge_coherence_rate(model.collapse_operators(n)),
                      n.gamma_ge / 2, rtol=1e-9)


def test_dispersive_hamiltonian_structure():
    p = model.DispersiveSystemParams.from_mhz()
    hd = model.dispersive_shift_hamiltonian(p)
    assert hd.shape == (4, 3, 3)
    shifts = np.diagonal(hd, axis1=1, axis2=2)
    assert np.array_equal(hd, shifts[:, :, None] * np.eye(3))
    # n = 0 block unshifted, n = 2 block shifted twice as much as n = 1
    assert np.allclose(shifts[0], 0.0)
    assert np.allclose(shifts[2], 2 * shifts[1])
    assert np.isclose(shifts[1, 1], -2.87 * 2 * np.pi * 1e-3)


def test_dispersive_drive_embeds_per_fock_block():
    p = model.DispersiveSystemParams.from_mhz(n_fock=3)
    f = model.bright_frame(np.pi / 2, 0.0)
    hd = bright_drive_hamiltonian(f, 0.05, 0.0)
    h = dispersive_hamiltonian(p, hd)
    for n in range(3):
        blk = h[3 * n:3 * n + 3, 3 * n:3 * n + 3]
        assert np.allclose(blk - np.diag(np.diag(blk)),
                           hd - np.diag(np.diag(hd)), atol=1e-14)
