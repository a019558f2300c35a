import numpy as np
import pytest
import scipy.linalg

import reference
from holonomy_lab import evolve, holonomy, pulses, qmath, rb, tomography, twoqubit
from holonomy_lab.model import NoiseModel
from holonomy_lab.pulses import NAMED_GATES, SCHEMES, build_schedule


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


def test_csv_text_rejects_a_format_that_does_not_fit_the_header():
    assert qmath.csv_text(["a", "b"], "%s,%.3g", [("x", 0.5)]) == "a,b\nx,0.5\n"
    with pytest.raises(ValueError):
        qmath.csv_text(["a", "b", "c"], "%s,%.3g", [("x", 0.5, 1.0)])
    with pytest.raises(ValueError):
        qmath.csv_text(["a"], "%s,%.3g", [])


EDGE = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1.25e-7, 0.1])
RB_FIT = dict(n_seqs=7, amplitude=0.5, p=0.99, offset=0.5, residual_rms=0.0)


def _complex(re, im):
    """re + i im without arithmetic, so infinities stay in their own part."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def _edge_records():
    e, r = EDGE, EDGE[::-1]
    full = _complex(np.resize(e, 81).reshape(9, 9), np.resize(r, 81).reshape(9, 9))
    return [
        ("trace_to_csv", evolve.EvolutionTrace(e, np.column_stack((r, e, np.roll(e, 3))))),
        ("phase_record_to_csv",
         holonomy.PhaseRecord(e, r, np.roll(e, 2), _complex(e, r), 0.0, 0.0, 0j, 0.0)),
        ("sweep_to_csv", [holonomy.SweepRow(a, b, a) for a, b in zip(e, r)]),
        ("chi_to_csv", tomography.ChiMatrix(full=full, reduced=full[:4, :4])),
        ("rb_to_csv", rb.RbResult(np.arange(1, len(e) + 1), e, r, **RB_FIT)),
        ("robustness_to_csv", [twoqubit.RobustnessRow(a, b, a, b) for a, b in zip(e, r)]),
    ]


def _empty_records():
    empty = np.empty(0)
    return [
        ("trace_to_csv", evolve.EvolutionTrace(empty, np.empty((0, 3)))),
        ("phase_record_to_csv",
         holonomy.PhaseRecord(empty, empty, empty, empty + 0j, 0.0, 0.0, 0j, 0.0)),
        ("sweep_to_csv", []),
        ("rb_to_csv", rb.RbResult(np.empty(0, dtype=int), empty, empty, **RB_FIT)),
        ("robustness_to_csv", []),
    ]


def _real_records(rb_result):
    pairs = [("rb_to_csv", rb_result)]
    for scheme in SCHEMES:
        schedule = build_schedule(NAMED_GATES["X"], scheme)
        pairs += [
            ("trace_to_csv", evolve.propagate_unitary(schedule)),
            ("phase_record_to_csv", holonomy.phase_record(schedule)),
            ("sweep_to_csv", holonomy.robustness_sweep(NAMED_GATES["Y/2"], scheme,
                                                       np.linspace(-0.2, 0.2, 5))),
            ("chi_to_csv", tomography.qpt(tomography.channel_from_superoperator(
                evolve.gate_channel(schedule, step=0.5)))),
            ("schedule_to_csv", schedule),
        ]
    noisy = build_schedule(NAMED_GATES["X"], "sr-nhqc")
    pairs.append(("trace_to_csv", evolve.propagate_superoperator(
        noisy, NoiseModel.from_coherence_times())[0]))
    for scheme in ("sr-nhqc", "nhqc"):
        pairs.append(("robustness_to_csv",
                      twoqubit.cnot_robustness([-0.05, 0.0, 0.1], scheme, step=2.0)))
    return pairs


WRITERS = {"trace_to_csv": evolve, "phase_record_to_csv": holonomy,
           "sweep_to_csv": holonomy, "chi_to_csv": tomography, "rb_to_csv": rb,
           "robustness_to_csv": twoqubit, "schedule_to_csv": pulses}


@pytest.mark.filterwarnings("ignore:leakage")
def test_writers_match_the_per_value_reference(rb_noisy_reference):
    real = _real_records(rb_noisy_reference)
    assert {name for name, _ in real} == set(WRITERS)
    for name, record in _edge_records() + real:
        assert getattr(WRITERS[name], name)(record) == getattr(reference, name)(record), name
    for name, record in _empty_records():
        text = getattr(WRITERS[name], name)(record)
        assert text == getattr(reference, name)(record), name
        assert text.count("\n") == 1, name
