import itertools

import numpy as np
import pytest

from dilatio.channels import identity_channel, power, unitary_channel
from dilatio.control import (
    apply_word,
    build_control_dilation,
    check_commuting,
    evolve_control,
    reachable_set,
    verify_control_dilation,
    verify_reachable_inclusion,
    word_shift_marginal,
)
from dilatio.errors import HorizonError, MemoryGuardError, NotCommutingError
from dilatio.fixtures import PAULI_X, PAULI_Z, haar_unitary, random_commuting_pair
from dilatio.linalg import basis_state, kron, trace_distance, trace_norm

from helpers import dense, random_density


class TestCheckCommuting:
    def test_channel_commutes_with_itself(self):
        t, _ = random_commuting_pair(2, seed=0)
        assert check_commuting(t, t)

    def test_pauli_conjugations_commute_despite_anticommuting_unitaries(self):
        # the anticommutation phase cancels under conjugation
        assert check_commuting(unitary_channel(PAULI_X), unitary_channel(PAULI_Z))

    def test_genuinely_non_commuting_pairs(self):
        hadamard = unitary_channel(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
        assert not check_commuting(hadamard, unitary_channel(PAULI_Z))
        from dilatio.fixtures import amplitude_damping

        assert not check_commuting(amplitude_damping(0.3), unitary_channel(PAULI_X))

    def test_mixtures_of_powers_commute(self):
        t, s = random_commuting_pair(2, seed=1)
        assert check_commuting(t, s)

    def test_commuting_unitary_conjugations(self):
        rng = np.random.default_rng(2)
        u = haar_unitary(2, rng)
        t = unitary_channel(u)
        s = unitary_channel(u @ u)
        assert check_commuting(t, s)


class TestReachableSet:
    def test_equal_channels_collapse_to_one_state(self):
        t, _ = random_commuting_pair(2, seed=3)
        rng = np.random.default_rng(4)
        rho = random_density(2, rng)
        states = reachable_set(t, t, rho, 5)
        assert len(states) == 1
        expected = rho
        for _ in range(5):
            from dilatio.channels import apply_channel

            expected = apply_channel(t, expected)
        assert trace_distance(states[0][1], expected) <= 1e-10

    def test_zero_steps(self):
        t, s = random_commuting_pair(2, seed=5)
        rho = np.diag([1.0, 0.0]).astype(complex)
        states = reachable_set(t, s, rho, 0)
        assert len(states) == 1 and states[0][0] == 0
        np.testing.assert_allclose(states[0][1], rho, atol=1e-12)

    def test_every_word_lands_on_the_set(self):
        t, s = random_commuting_pair(2, seed=6)
        rng = np.random.default_rng(7)
        rho = random_density(2, rng)
        states = reachable_set(t, s, rho, 4)
        for word in itertools.product("TS", repeat=4):
            out = apply_word(t, s, rho, word)
            assert min(trace_distance(out, state) for _, state in states) <= 1e-9

    def test_refuses_non_commuting_pair(self):
        hadamard = unitary_channel(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
        with pytest.raises(NotCommutingError):
            reachable_set(hadamard, unitary_channel(PAULI_Z), np.diag([1.0, 0.0]), 2)

    def test_dedup_is_order_independent(self):
        t, s = random_commuting_pair(2, seed=8)
        rng = np.random.default_rng(9)
        rho = random_density(2, rng)
        states = reachable_set(t, s, rho, 3)
        # rebuilt from scratch the set matches item for item under the metric
        again = reachable_set(t, s, rho, 3)
        assert len(states) == len(again)
        for (_, a), (_, b) in zip(states, again):
            assert trace_distance(a, b) <= 1e-12


class TestBuildControlDilation:
    def test_identity_pair_exact(self):
        t = identity_channel(2)
        bundle = build_control_dilation(t, t, 3)
        report = verify_control_dilation(bundle, t, t, tol=1e-11)
        assert report.passed

    def test_commuting_unitary_conjugations(self):
        rng = np.random.default_rng(10)
        u = haar_unitary(2, rng)
        t, s = unitary_channel(u), unitary_channel(u @ u)
        bundle = build_control_dilation(t, s, 3)
        rho = random_density(2, rng)
        for n_total in range(4):
            for k in range(n_total + 1):
                # T^k S^(N-k) == Ad(U^(2N - k))
                w = np.linalg.matrix_power(u, 2 * n_total - k)
                expected = w @ rho @ w.conj().T
                seq = "T" * k + "S" * (n_total - k)
                assert trace_distance(evolve_control(bundle, rho, seq), expected) <= 1e-9

    def test_random_commuting_pair_full_sweep(self):
        t, s = random_commuting_pair(2, seed=11)
        bundle = build_control_dilation(t, s, 4)
        assert bundle.shape == (2, 4, 5, 5)
        report = verify_control_dilation(bundle, t, s, tol=1e-9)
        assert report.passed
        assert len(report.residuals) == 15  # (N, k) pairs with N <= 4

    def test_refuses_non_commuting(self):
        hadamard = unitary_channel(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
        with pytest.raises(NotCommutingError):
            build_control_dilation(hadamard, unitary_channel(PAULI_Z), 2)

    def test_memory_guard(self):
        t, s = random_commuting_pair(2, seed=12)
        with pytest.raises(MemoryGuardError):
            build_control_dilation(t, s, 40)


class TestEvolveControl:
    def test_empty_sequence(self):
        t, s = random_commuting_pair(2, seed=13)
        bundle = build_control_dilation(t, s, 2)
        rng = np.random.default_rng(14)
        rho = random_density(2, rng)
        np.testing.assert_allclose(evolve_control(bundle, rho, ""), rho, atol=1e-12)

    def test_single_t_step(self):
        t, s = random_commuting_pair(2, seed=15)
        bundle = build_control_dilation(t, s, 2)
        rng = np.random.default_rng(16)
        rho = random_density(2, rng)
        expected = apply_word(t, s, rho, "T")
        assert trace_distance(evolve_control(bundle, rho, "T"), expected) <= 1e-10

    def test_word_order_does_not_matter(self):
        t, s = random_commuting_pair(2, seed=17)
        bundle = build_control_dilation(t, s, 3)
        rng = np.random.default_rng(18)
        rho = random_density(2, rng)
        a = evolve_control(bundle, rho, "TST")
        b = evolve_control(bundle, rho, "STT")
        assert trace_distance(a, b) <= 1e-10
        direct = apply_word(t, s, rho, "TST")
        assert trace_distance(a, direct) <= 1e-9

    def test_sequence_too_long(self):
        t, s = random_commuting_pair(2, seed=19)
        bundle = build_control_dilation(t, s, 2)
        with pytest.raises(HorizonError):
            evolve_control(bundle, np.diag([1.0, 0.0]), "TTS")

    def test_bad_alphabet(self):
        t, s = random_commuting_pair(2, seed=20)
        bundle = build_control_dilation(t, s, 2)
        with pytest.raises(ValueError):
            evolve_control(bundle, np.diag([1.0, 0.0]), "TX")


class TestWordCollapse:
    def test_exhaustive_words_collapse_to_t_count(self):
        t, s = random_commuting_pair(2, seed=21)
        rng = np.random.default_rng(22)
        rho = random_density(2, rng)
        for n_total in range(5):
            for word in itertools.product("TS", repeat=n_total):
                k = word.count("T")
                canonical = apply_word(t, s, rho, "T" * k + "S" * (n_total - k))
                assert trace_distance(apply_word(t, s, rho, word), canonical) <= 1e-9


class TestShiftMarginals:
    def test_register_cells_are_sharp(self):
        t, s = random_commuting_pair(2, seed=23)
        bundle = build_control_dilation(t, s, 3)
        rng = np.random.default_rng(24)
        rho = random_density(2, rng)
        for n_total in range(4):
            for k in range(n_total + 1):
                marginal = word_shift_marginal(bundle, rho, k, n_total)
                expected = kron(basis_state(n_total, 4), basis_state(k, 4))
                assert trace_norm(marginal - expected) <= 1e-9


class TestReachableInclusion:
    def test_single_step(self):
        t, s = random_commuting_pair(2, seed=25)
        bundle = build_control_dilation(t, s, 2)
        rng = np.random.default_rng(26)
        rho = random_density(2, rng)
        report = verify_reachable_inclusion(bundle, t, s, rho, 1)
        assert report.passed and len(report.residuals) == 2

    def test_identity_pair(self):
        t = identity_channel(2)
        bundle = build_control_dilation(t, t, 2)
        rho = np.diag([0.5, 0.5]).astype(complex)
        assert verify_reachable_inclusion(bundle, t, t, rho, 2).passed

    def test_three_steps_all_residuals_small(self):
        t, s = random_commuting_pair(2, seed=27)
        bundle = build_control_dilation(t, s, 3)
        rng = np.random.default_rng(28)
        rho = random_density(2, rng)
        report = verify_reachable_inclusion(bundle, t, s, rho, 3)
        assert report.passed
        assert len(report.residuals) == 4
        assert max(report.residuals) <= 1e-9

    def test_unitaries_of_the_dilation_need_not_commute(self):
        # only the reconstruction words are asserted; U V != V U is expected
        t, s = random_commuting_pair(2, seed=29)
        bundle = build_control_dilation(t, s, 2)
        u, v = (dense(form) for form in bundle.forms)
        commutator = u @ v - v @ u
        assert np.linalg.norm(commutator) > 1e-6


def test_powers_of_one_channel_commute_with_mixtures():
    t, s = random_commuting_pair(3, seed=30)
    assert check_commuting(t, s)
    assert check_commuting(power(t, 2), s)
