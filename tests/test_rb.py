import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy_lab import evolve, qmath, rb
from holonomy_lab.cli import main
from holonomy_lab.model import NoiseModel
from holonomy_lab.pulses import build_sr_nhqc
from reference import fit_decay_curve_fit, group_tables_per_pair, rb_per_sequence

# The physical gates the Clifford decompositions are compiled into.
PHYSICAL_TAGS = {tag for decomposition in rb.CLIFFORD_DECOMPOSITIONS for tag in decomposition}


def test_clifford_table_counts():
    table = rb.clifford_table()
    assert len(table) == 24
    total = sum(len(el.decomposition) for el in table)
    assert total == 45
    assert total / len(table) == rb.GATES_PER_CLIFFORD
    assert PHYSICAL_TAGS == {"I", "X", "Y", "X/2", "-X/2", "Y/2", "-Y/2"}


def test_clifford_elements_distinct_and_unitary():
    table = rb.clifford_table()
    for i, a in enumerate(table):
        assert np.allclose(a.unitary @ qmath.dagger(a.unitary), np.eye(2),
                           atol=1e-12)
        for b in table[i + 1:]:
            assert qmath.unitary_fidelity(a.unitary, b.unitary) < 1 - 1e-6


def test_group_closure():
    table = rb.clifford_table()
    mul, inv, ident = rb._group_tables(table)
    # every row/column of the multiplication table is a permutation
    for i in range(24):
        assert sorted(mul[i]) == list(range(24))
        assert sorted(mul[:, i]) == list(range(24))
    for i in range(24):
        assert mul[inv[i], i] == ident


def test_group_tables_match_per_pair_reference():
    table = rb.clifford_table()
    mul, inv, ident = rb._group_tables(table)
    ref_mul, ref_inv, ref_ident = group_tables_per_pair(table)
    assert np.array_equal(mul, ref_mul)
    assert np.array_equal(inv, ref_inv)
    assert ident == ref_ident == 0


def test_unknown_unitary_has_no_clifford_match():
    table = rb.clifford_table()
    t_gate = np.diag([1.0, np.exp(1j * np.pi / 4)])
    with pytest.raises(ValueError, match="not in the Clifford table"):
        rb._match_indices(t_gate, table)


def test_noiseless_rb_is_degenerate():
    ident = {tag: np.eye(9, dtype=complex) for tag in PHYSICAL_TAGS}
    res = rb.run_rb(lambda tag: ident[tag], m_values=(1, 5, 10), n_seqs=4)
    assert res.degenerate
    assert res.f_ref == 1.0
    assert np.allclose(res.mean_pg, 1.0, atol=1e-12)


def test_run_rb_rejects_empty_runs():
    ident = {tag: np.eye(9, dtype=complex) for tag in PHYSICAL_TAGS}
    with pytest.raises(ValueError, match="n_seqs"):
        rb.run_rb(lambda tag: ident[tag], m_values=(1, 5), n_seqs=0)
    # A p^m + B has three parameters: fewer distinct lengths fit exactly
    # (or not at all) and would report an arbitrary fidelity.
    for m_values in ((), (50,), (50, 50, 50), (10, 50), (10, 50, 10)):
        with pytest.raises(ValueError, match="sequence length"):
            rb.run_rb(lambda tag: ident[tag], m_values=m_values, n_seqs=4)


def test_depolarizing_oracle_recovers_p():
    # Compose an exact qubit depolarizing channel after every Clifford;
    # the fitted decay must equal its depolarizing parameter.
    p_true = 0.99
    eye9 = np.eye(9, dtype=complex)
    dep = np.zeros((9, 9), dtype=complex)
    idx = [0, 2, 6, 8]  # (g,f) block of the vectorized qutrit
    dep[np.ix_(idx, idx)] = p_true * np.eye(4)
    dep[np.ix_(idx, idx)] += (1 - p_true) / 2 * np.outer(
        np.array([1, 0, 0, 1]), np.array([1, 0, 0, 1]))
    ident = {tag: eye9 for tag in PHYSICAL_TAGS}
    res = rb.run_rb(lambda tag: ident[tag], n_seqs=20, seed=3,
                    clifford_noise=dep)
    assert abs(res.p - p_true) < 1e-3


def test_fidelity_formulas():
    f_ref, f_gate = rb.rb_fidelities(0.99, 0.985)
    assert np.isclose(f_ref, 1 - 0.01 * 0.5 / 1.875)
    assert np.isclose(f_gate, 1 - (1 - 0.985 / 0.99) * 0.5)
    with pytest.raises(ValueError):
        rb.rb_fidelities(0.0)


def test_default_channel_factory_caches_and_shapes():
    factory = rb.default_channel_factory(None)
    s1 = factory("X")
    s2 = factory("X")
    assert s1 is s2
    assert s1.shape == (9, 9)
    assert np.allclose(factory("I"), np.eye(9))


def test_noisy_reference_decays(rb_noisy_reference):
    res = rb_noisy_reference
    assert not res.degenerate
    assert 0.9 < res.p < 1.0
    assert res.mean_pg[0] > res.mean_pg[-1]
    assert res.f_ref > 0.99


def test_interleaved_below_reference(rb_noisy_reference):
    noise = NoiseModel.from_coherence_times()
    factory = rb.default_channel_factory(noise)
    inter = rb.run_rb(factory, m_values=(1, 6, 16, 36, 75), n_seqs=12,
                      seed=1, interleaved="X")
    f_gate = rb.interleaved_gate_fidelity(rb_noisy_reference, inter)
    assert inter.p <= rb_noisy_reference.p + 1e-3
    assert 0.98 < f_gate <= 1.0


def test_rb_outputs(rb_noisy_reference):
    text = rb.rb_to_csv(rb_noisy_reference)
    assert text.splitlines()[0] == "m,mean_Pg,std_Pg,n_seqs"
    payload = rb.rb_fit_payload(rb_noisy_reference)
    assert payload["F_ref"] == rb_noisy_reference.f_ref


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), interleaved=st.sampled_from([None, "X/2"]))
def test_seed_determinism(noisy_factory, seed, interleaved):
    # Noisy physical channels make every sequence's outcome depend on
    # the Cliffords drawn, so a change in the draws would show.
    runs = [rb.run_rb(noisy_factory, m_values=(1, 3, 6, 10), n_seqs=4, seed=seed,
                      interleaved=interleaved) for _ in range(2)]
    assert rb.rb_to_csv(runs[0]) == rb.rb_to_csv(runs[1])
    assert rb.rb_fit_payload(runs[0]) == rb.rb_fit_payload(runs[1])


RB_DEFAULT_LENGTHS = inspect.signature(rb.run_rb).parameters["m_values"].default
RB_DEFAULT_SEQS = inspect.signature(rb.run_rb).parameters["n_seqs"].default


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_one_draw_per_length_keeps_the_seeded_stream(seed):
    batched, per_sequence = np.random.default_rng(seed), np.random.default_rng(seed)
    for m in RB_DEFAULT_LENGTHS:
        picks = batched.integers(0, 24, size=(RB_DEFAULT_SEQS, m))
        expected = [per_sequence.integers(0, 24, size=m) for _ in range(RB_DEFAULT_SEQS)]
        assert np.array_equal(picks, expected)


@pytest.fixture(scope="module")
def noisy_factory():
    return rb.default_channel_factory(NoiseModel.from_coherence_times())


@pytest.mark.parametrize("interleaved", [None, "X"])
@pytest.mark.parametrize("with_noise", [False, True], ids=["plain", "clifford_noise"])
def test_batched_sequences_match_per_sequence_loop(noisy_factory, interleaved, with_noise):
    dep = 0.995 * np.eye(9, dtype=complex)
    dep[0, 0] = dep[8, 8] = 1.0
    kwargs = dict(m_values=(1, 6, 16, 36, 75), n_seqs=12, seed=5, interleaved=interleaved,
                  clifford_noise=dep if with_noise else None)
    res = rb.run_rb(noisy_factory, **kwargs)
    mean_pg, std_pg = rb_per_sequence(noisy_factory, **kwargs)
    assert np.array_equal(res.mean_pg, mean_pg)
    assert np.array_equal(res.std_pg, std_pg)


def test_fit_lands_on_the_optimum_to_round_off(rb_noisy_reference):
    # A fit that stops short of the least-squares optimum moves far more
    # than round-off: curve_fit alone stopped up to about 1e-7 short, so
    # 1e-13 of jitter in the survival probabilities moved A, p and B by
    # up to about 2e-9.
    res = rb_noisy_reference
    fit = rb._fit_decay(res.m_values, res.mean_pg)
    assert np.array_equal(fit, [res.amplitude, res.p, res.offset])
    rng = np.random.default_rng(0)
    for _ in range(5):
        jitter = 1e-13 * rng.normal(size=len(res.m_values))
        assert np.max(np.abs(rb._fit_decay(res.m_values, res.mean_pg + jitter) - fit)) < 1e-11


STRONG_NOISE = NoiseModel(epsilon=0.05, gamma_ge=5.0, gamma_ef=3.0, gamma_gf=1.0,
                          gamma1=8.0, gamma2=6.0, gamma3=7.0)


@pytest.mark.parametrize("noise", [NoiseModel.from_coherence_times(), STRONG_NOISE],
                         ids=["device", "strong"])
def test_frame_rotated_channels_match_their_integrations(noise):
    factory = rb.default_channel_factory(noise)
    for tag in ("Y", "Y/2", "-Y/2"):
        direct = evolve.gate_channel(build_sr_nhqc(rb.physical_gate_spec(tag)), noise)
        assert np.max(np.abs(factory(tag) - direct)) <= 1e-13, tag


def test_rb_command_integrates_one_channel_per_theta_gamma(tmp_path, monkeypatch):
    # X, X/2 and -X/2 are integrated; Y, Y/2 and -Y/2 are their rotations.
    calls = []
    for name in ("gate_channel", "idle_channel"):
        real = getattr(evolve, name)
        monkeypatch.setattr(evolve, name, lambda *args, _name=name, _real=real:
                            calls.append(_name) or _real(*args))
    assert main(["rb", "--interleaved", "X", "--n-seqs", "2",
                 "--output-dir", str(tmp_path / "o")]) == 0
    assert sorted(calls) == ["gate_channel"] * 3 + ["idle_channel"]


def _ssr(m_values, mean_pg, fit):
    return float(np.sum((mean_pg - rb._decay_model(m_values, *fit)) ** 2))


def _synthetic_decay(p, lengths=RB_DEFAULT_LENGTHS):
    """(m, 0.6 p^m + 0.35 plus seeded Gaussian noise of 1e-3) at the lengths."""
    m_values = np.asarray(lengths, dtype=float)
    jitter = 1e-3 * np.random.default_rng(int(1000 * p)).normal(size=len(m_values))
    return m_values, 0.6 * p ** m_values + 0.35 + jitter


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_fit_matches_curve_fit_oracle_on_survival_curves(noisy_factory, seed):
    res = rb.run_rb(noisy_factory, seed=seed)
    fit = rb._fit_decay(res.m_values, res.mean_pg)
    assert np.max(np.abs(fit - fit_decay_curve_fit(res.m_values, res.mean_pg))) <= 1e-10


# The lengths reach about 1 / (1 - p), as an experiment's would, so the
# decay is resolved and the optimum lies inside the bounds.
@pytest.mark.parametrize("p, stretch", [(0.5, 1), (0.9, 1), (0.999, 10)])
def test_fit_matches_curve_fit_oracle_on_synthetic_decays(p, stretch):
    m_values, mean_pg = _synthetic_decay(p, stretch * np.asarray(RB_DEFAULT_LENGTHS))
    fit = rb._fit_decay(m_values, mean_pg)
    assert np.all((fit > 0) & (fit < 1))
    assert np.max(np.abs(fit - fit_decay_curve_fit(m_values, mean_pg))) <= 1e-10


def test_fit_holds_a_bound_the_optimum_sits_on():
    # p = 0.999 over at most 100 Cliffords decays by only 0.057, and with
    # 1e-3 of noise the optimum puts B on its bound 0.  The oracle ends
    # at A = 1, B = 0 with about 5 000 times the residual: joint
    # Gauss-Newton steps clipped back to the bounds cannot leave there.
    m_values, mean_pg = _synthetic_decay(0.999)
    fit = rb._fit_decay(m_values, mean_pg)
    assert fit[2] == 0.0 and 0 < fit[0] < 1
    best = _ssr(m_values, mean_pg, fit)
    assert best < 1e-3 * _ssr(m_values, mean_pg, fit_decay_curve_fit(m_values, mean_pg))
    # A and p, off their bounds, sit where the residual is stationary.
    for shift in ([1e-7, 0, 0], [-1e-7, 0, 0], [0, 1e-7, 0], [0, -1e-7, 0]):
        assert _ssr(m_values, mean_pg, fit + shift) > best


_COHERENCE_KEYS = ("t1_ge_us", "t1_ef_us", "t1_gf_us", "t2e_ge_us", "t2e_ef_us", "t2e_gf_us")


# Fast g-e relaxation: curve_fit, started at p = 0.99, stopped the
# interleaved fit in a local minimum (SSR 0.00742 against 0.00681).  No
# decoherence: the decay is 2-3e-8 deep, and A and B are nearly
# degenerate with p close to 1.
@pytest.mark.parametrize("times", [{"t1_ge_us": 0.05}, dict.fromkeys(_COHERENCE_KEYS, 1e9)],
                         ids=["t1_ge_50ns", "coherent"])
def test_fit_is_never_worse_than_the_oracle_when_ill_conditioned(times):
    factory = rb.default_channel_factory(NoiseModel.from_coherence_times(**times))
    for interleaved in (None, "X"):
        res = rb.run_rb(factory, interleaved=interleaved)
        assert not res.degenerate
        fit = rb._fit_decay(res.m_values, res.mean_pg)
        assert np.all((fit >= 0) & (fit <= 1))
        oracle = fit_decay_curve_fit(res.m_values, res.mean_pg)
        # Round-off aside: equal fits may differ in the last bits.
        assert (_ssr(res.m_values, res.mean_pg, fit)
                <= _ssr(res.m_values, res.mean_pg, oracle) * (1 + 1e-12)), interleaved
