import numpy as np
import pytest

from holonomy_lab import evolve, model, qmath, tomography
from holonomy_lab.model import NoiseModel
from holonomy_lab.pulses import NAMED_GATES, build_schedule
from holonomy_lab.tomography import ASSIGNMENT_DEFAULT
from reference import (clip_and_rescale, nearest_density_eigenvalues, orthonormal_scale,
                       qpt_per_pair, qpt_raw_chi_per_pair)


def test_assignment_matrix_valid():
    m = tomography.validate_assignment(ASSIGNMENT_DEFAULT)
    assert np.allclose(m.sum(axis=0), 1.0)


def test_assignment_rejects_bad_matrices():
    with pytest.raises(ValueError):
        tomography.validate_assignment(np.eye(2))
    bad = ASSIGNMENT_DEFAULT.copy()
    bad[0, 0] = 0.5
    with pytest.raises(ValueError):
        tomography.validate_assignment(bad)


def test_readout_round_trip_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.dirichlet(np.ones(3))
        measured = tomography.apply_readout(p)
        recovered = tomography.correct_readout(measured)
        assert np.max(np.abs(recovered - p)) < 1e-9


def test_readout_third_column():
    # Preparing |f> and reading through the assignment matrix gives its
    # third column.
    declared = tomography.apply_readout(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(declared, [0.076, 0.077, 0.847])


def test_correct_readout_warns_on_negative():
    with pytest.warns(RuntimeWarning):
        tomography.correct_readout(np.array([1.0, 0.0, 0.0]) * 0.9
                                   + np.array([0.2, -0.05, -0.05]))


def test_process_basis_spans_operator_space():
    basis = tomography.process_basis()
    flat = basis.reshape(9, 9)
    assert np.linalg.matrix_rank(flat) == 9


def test_input_states_tomographically_complete():
    mats = np.stack([qmath.projector(s) for s in tomography.input_states()])
    assert np.linalg.matrix_rank(mats.reshape(9, 9)) == 9


def test_qpt_identity_channel():
    # The qutrit identity decomposes as I_gf + |e><e| (basis elements 0
    # and 8), so chi is the rank-one block of ones on those indices.
    chi = tomography.qpt(tomography.channel_from_unitary(np.eye(3)))
    expected = np.zeros((9, 9))
    expected[np.ix_([0, 8], [0, 8])] = 1.0
    assert np.max(np.abs(chi.full - expected)) < 1e-8
    assert np.isclose(chi.reduced[0, 0].real, 1.0, atol=1e-8)


def test_qpt_ideal_gates_high_fidelity():
    for name, gate in NAMED_GATES.items():
        u3 = np.eye(3, dtype=complex)
        u2 = gate.target_unitary()
        u3[np.ix_([model.G, model.F], [model.G, model.F])] = u2
        chi = tomography.qpt(tomography.channel_from_unitary(u3))
        fid = tomography.process_fidelity(chi, u2)
        assert fid > 0.999, name


def test_qpt_depolarizing_oracle():
    # Depolarize the computational pair with a proper CP Kraus set; the
    # reconstructed reduced chi must match the analytic one.
    p = 0.1
    p_gf = np.diag([1.0, 0.0, 1.0]).astype(complex)
    p_e = np.diag([0.0, 1.0, 0.0]).astype(complex)
    sx, sy, sz = qmath.PAULI_X, qmath.PAULI_Y, qmath.PAULI_Z
    emb = []
    for s in (sx, sy, sz):
        m = np.zeros((3, 3), dtype=complex)
        m[np.ix_([0, 2], [0, 2])] = s
        emb.append(m)
    kraus = [np.sqrt(1 - 3 * p / 4) * p_gf + p_e] + \
        [np.sqrt(p / 4) * m for m in emb]
    assert np.allclose(sum(qmath.dagger(k) @ k for k in kraus), np.eye(3))

    chi = tomography.qpt(sum(np.kron(k, k.conj()) for k in kraus))
    fid = tomography.process_fidelity(chi, np.eye(2))
    assert np.isclose(fid, 1 - 3 * p / 4, atol=1e-8)


def test_qpt_through_readout_model_unbiased():
    # The assignment-matrix correction must undo the readout exactly,
    # so simulating through it leaves the reconstruction unchanged.
    gate = NAMED_GATES["X"]
    u3 = np.eye(3, dtype=complex)
    u3[np.ix_([model.G, model.F], [model.G, model.F])] = gate.target_unitary()
    chan = tomography.channel_from_unitary(u3)
    chi_plain = tomography.qpt(chan)
    chi_ro = tomography.qpt(chan, readout=ASSIGNMENT_DEFAULT)
    assert np.max(np.abs(chi_plain.full - chi_ro.full)) < 1e-8


def test_reduced_chi_normalization_convention():
    # chi of the reduced block carries the 3/2 rescaling so an ideal
    # gate scores exactly 1.
    gate = NAMED_GATES["Y/2"]
    ideal = tomography.ideal_chi_reduced(gate.target_unitary())
    assert np.isclose(np.trace(ideal).real, 1.0)


def test_chi_serialization():
    chi = tomography.qpt(tomography.channel_from_unitary(np.eye(3)))
    d = tomography.chi_to_json(chi)
    assert d["basis"] == list(tomography.BASIS_LABELS)
    lines = tomography.chi_to_csv(chi).splitlines()
    assert lines[0] == "basis_row,basis_col,re,im"
    assert len(lines) == 1 + 81


def test_qpt_rejects_incomplete_prerotations(monkeypatch):
    rank_deficient = [np.eye(3, dtype=complex)] * 9
    monkeypatch.setattr(tomography, "prerotations", lambda: rank_deficient)
    with pytest.raises(RuntimeError, match="complete"):
        tomography.qpt(tomography.channel_from_unitary(np.eye(3)))


@pytest.fixture(scope="module")
def noisy_channels():
    noise = NoiseModel.from_coherence_times()
    return {name: evolve.gate_channel(build_schedule(NAMED_GATES[name], "sr-nhqc"), noise)
            for name in ("X", "Y/2")}


@pytest.mark.parametrize("readout", [None, ASSIGNMENT_DEFAULT], ids=["plain", "readout"])
@pytest.mark.parametrize("name", ["X", "Y/2"])
def test_qpt_matches_per_pair_loop(noisy_channels, name, readout):
    chi = tomography.qpt(noisy_channels[name], readout)
    oracle = qpt_per_pair(noisy_channels[name], readout)
    assert np.max(np.abs(chi.full - oracle.full)) < 1e-12
    assert np.max(np.abs(chi.reduced - oracle.reduced)) < 1e-12


def test_qpt_validates_the_assignment_matrix_at_most_twice(monkeypatch, noisy_channels):
    calls = []
    validate = tomography.validate_assignment
    monkeypatch.setattr(tomography, "validate_assignment",
                        lambda m: calls.append(1) or validate(m))
    tomography.qpt(noisy_channels["X"], ASSIGNMENT_DEFAULT)
    assert 0 < len(calls) <= 2


def test_readout_functions_take_stacks():
    p = np.random.default_rng(1).dirichlet(np.ones(3), size=(4, 5))
    measured = tomography.apply_readout(p)
    assert measured.shape == (4, 5, 3)
    assert np.allclose(measured[2, 3], tomography.apply_readout(p[2, 3]), rtol=0, atol=1e-15)
    assert np.max(np.abs(tomography.correct_readout(measured) - p)) < 1e-12


TRANSPOSE = np.eye(9)[[0, 3, 6, 1, 4, 7, 2, 5, 8]]


@pytest.mark.parametrize("p", [1.0, 0.6, 0.3])
def test_qpt_projects_a_non_cp_channel_to_the_nearest_psd_chi(p):
    # The transpose map is positive but not completely positive, so its
    # chi has eigenvalues -p; mixing in a gate makes the spectrum uneven.
    rho = np.arange(9.0).reshape(3, 3)
    assert np.array_equal((TRANSPOSE @ rho.reshape(-1)).reshape(3, 3), rho.T)
    u3 = np.eye(3, dtype=complex)
    u3[np.ix_([model.G, model.F], [model.G, model.F])] = NAMED_GATES["Y/2"].target_unitary()
    channel = p * TRANSPOSE + (1 - p) * tomography.channel_from_unitary(u3)

    scale = orthonormal_scale()
    raw = qpt_raw_chi_per_pair(channel) * scale
    chi = tomography.qpt(channel).full * scale
    clipped = clip_and_rescale(raw / scale) * scale
    raw_w = np.linalg.eigvalsh(raw)
    assert raw_w[0] < -0.3 * p
    w = np.linalg.eigvalsh(chi)
    assert w[0] > -1e-12
    assert abs(np.trace(chi) - np.trace(raw)) < 1e-12
    assert np.allclose(w[::-1], nearest_density_eigenvalues(raw_w[::-1]), rtol=0, atol=1e-12)
    assert np.linalg.norm(chi - raw) <= np.linalg.norm(clipped - raw) + 1e-12
