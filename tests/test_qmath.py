import numpy as np
import scipy.linalg

from holonomy_lab import qmath


def test_paulis_square_to_identity():
    for p in (qmath.PAULI_X, qmath.PAULI_Y, qmath.PAULI_Z):
        assert np.allclose(p @ p, np.eye(2))


def test_dagger():
    a = np.array([[1 + 2j, 3], [4j, 5]])
    assert np.allclose(qmath.dagger(a), a.conj().T)


def test_projector():
    v = np.array([1, 1j]) / np.sqrt(2)
    p = qmath.projector(v)
    assert np.allclose(p @ p, p)
    assert np.isclose(np.trace(p).real, 1.0)
    assert np.allclose(p, qmath.dagger(p))


def test_unitary_fidelity_global_phase_invariant():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u, _ = np.linalg.qr(a)
    assert np.isclose(qmath.unitary_fidelity(u, u), 1.0)
    assert np.isclose(qmath.unitary_fidelity(u, np.exp(1j * 0.7) * u), 1.0)


def test_pair_rotation_matches_generator_exponential():
    for axis, pauli in (("x", qmath.PAULI_X), ("y", qmath.PAULI_Y)):
        gen = np.zeros((5, 5), dtype=complex)
        gen[np.ix_([1, 3], [1, 3])] = pauli
        u = qmath.pair_rotation(5, 1, 3, 0.7, axis)
        assert np.allclose(u, scipy.linalg.expm(-0.35j * gen), atol=1e-14)


def test_tensor_shape_and_values():
    a, b = np.eye(2), np.diag([1.0, 2.0, 3.0])
    t = qmath.tensor(a, b)
    assert t.shape == (6, 6)
    assert np.allclose(np.diag(t), [1, 2, 3, 1, 2, 3])


def test_matrix_to_json_fields():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    obj = qmath.matrix_to_json(m)
    assert list(obj) == ["rows", "cols", "re", "im"]
    assert (obj["rows"], obj["cols"]) == (2, 3)
    assert obj["re"] == m.real.tolist()
    assert obj["im"] == m.imag.tolist()
