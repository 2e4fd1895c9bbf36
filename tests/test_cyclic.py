import numpy as np
import pytest

from dilatio import cyclic
from dilatio.channels import (
    KrausChannel,
    dual,
    identity_channel,
    power,
    superoperator_matrix,
    unitary_channel,
)
from dilatio.cyclic import (
    CyclePeriod,
    build_cyclic_dilation,
    detect_cycle,
    evolve_cyclic,
    find_cycle,
    reduce_power,
    reduced_exponent,
    verify_cyclic_dilation,
    wrap_count,
)
from dilatio.errors import MemoryGuardError, NotCyclicError
from dilatio.fixtures import amplitude_damping, rotation_channel
from dilatio.linalg import basis_state, kron, trace_distance, trace_norm

from helpers import dense, fro, kraus_apply, omega, random_density, random_matrix


class TestModuloFunctions:
    def test_period_two_always_reduces_to_one(self):
        for n in range(1, 30):
            assert reduced_exponent(2, n) == 1

    def test_printed_formula_values(self):
        assert reduced_exponent(3, 5) == 1
        assert wrap_count(3, 5) == 2
        assert wrap_count(4, 1) == 0
        assert reduced_exponent(4, 7) == 1

    def test_division_decomposition(self):
        # against the explicit decomposition n - 1 = j (m - 1) + r
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(2, 15))
            n = int(rng.integers(1, 500))
            j, r = divmod(n - 1, m - 1)
            assert reduced_exponent(m, n) == r + 1
            assert wrap_count(m, n) == j

    def test_reconstruction_identity_exhaustive(self):
        for m in range(2, 13):
            for n in range(1, 201):
                nu = reduced_exponent(m, n)
                mu = wrap_count(m, n)
                assert 1 <= nu <= m - 1
                assert mu >= 0
                assert n == nu + mu * (m - 1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reduced_exponent(1, 5)
        with pytest.raises(ValueError):
            reduced_exponent(3, 0)


class TestDetectCycle:
    def test_rotation_by_third_has_period_four(self):
        # conjugation by diag(1, exp(2 pi i / 3)): cube is the identity map
        period = detect_cycle(rotation_channel(4))
        assert period == CyclePeriod(4)

    def test_identity_is_idempotent(self):
        assert detect_cycle(identity_channel(2)) == CyclePeriod(2)
        assert detect_cycle(identity_channel(3)) == CyclePeriod(2)

    def test_damping_has_no_cycle(self):
        assert detect_cycle(amplitude_damping(0.3), m_max=20) is None

    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_rotation_family(self, m):
        assert detect_cycle(rotation_channel(m)) == CyclePeriod(m)


class TestFindCycle:
    def test_search_stops_where_the_guard_stops_the_build(self):
        # a qubit register of more than 4096 // 8 = 512 cells is refused,
        # so a longer search for a period would be in vain
        with pytest.raises(MemoryGuardError, match="found up to 512, the largest the guard 4096"):
            find_cycle(amplitude_damping(0.3), 10**8)
        with pytest.raises(MemoryGuardError, match="found up to 1024,"):
            find_cycle(amplitude_damping(0.3), 10**8, max_total_dim=8192)
        # a cap below 2 admits no period, so nothing is searched, not even
        # period 2, whose register the build would refuse
        with pytest.raises(MemoryGuardError, match="no cycle period fits the guard 1 at d=2; raise"):
            find_cycle(identity_channel(2), 16, max_total_dim=1)

    def test_below_the_cap_it_is_detect_cycle(self):
        with pytest.raises(NotCyclicError, match="up to m_max=20$"):
            find_cycle(amplitude_damping(0.3), 20)
        assert find_cycle(rotation_channel(4), 10**8) == CyclePeriod(4)


class TestReducePower:
    def test_below_period_is_unchanged(self):
        period = CyclePeriod(5)
        for n in range(1, 5):
            assert reduce_power(period, n) == n

    def test_formula_case(self):
        assert reduce_power(CyclePeriod(4), 7) == 1  # T^7 == T

    def test_operator_identity_for_rotation(self):
        ch = rotation_channel(4)
        period = detect_cycle(ch)
        m1 = superoperator_matrix(ch)
        for n in range(1, 31):
            lhs = np.linalg.matrix_power(m1, n)
            rhs = np.linalg.matrix_power(m1, reduce_power(period, n))
            assert fro(lhs - rhs) <= 1e-9


class TestBuildCyclicDilation:
    @pytest.mark.parametrize(
        "ch",
        [KrausChannel(2, 3, [np.eye(3, 2)]), dual(rotation_channel(3))],
        ids=["non-square", "heisenberg"],
    )
    def test_refuses_a_channel_before_the_drift(self, ch, monkeypatch):
        def drift(_):
            raise AssertionError("the drift M(T^m) - M(T) was computed")

        monkeypatch.setattr(cyclic, "superoperator_matrix", drift)
        with pytest.raises(ValueError, match="cyclic dilation needs square schroedinger channels"):
            build_cyclic_dilation(ch, CyclePeriod(3))

    def test_identity_channel_period_two(self):
        ch = identity_channel(2)
        bundle = build_cyclic_dilation(ch, CyclePeriod(2))
        rng = np.random.default_rng(1)
        rho = random_density(2, rng)
        for n in range(21):
            assert trace_distance(evolve_cyclic(bundle, rho, n), rho) <= 1e-10

    def test_rotation_period_four_long_run(self):
        ch = rotation_channel(4)
        bundle = build_cyclic_dilation(ch, CyclePeriod(4))
        assert bundle.shape == (2, 4, 4)
        report = verify_cyclic_dilation(bundle, ch, n_max=25)
        assert report.passed

    def test_intermediate_state_identity(self):
        # V^(n + wraps) (A (x) omega) ... == U_nu (A (x) omega~) U_nu^dag (x) cell(nu)
        from dilatio.stinespring import stinespring_unitary

        ch = rotation_channel(4)
        m = 4
        bundle = build_cyclic_dilation(ch, CyclePeriod(m))
        rng = np.random.default_rng(2)
        a = random_matrix(2, rng)
        inner_omega = basis_state(0, 4)
        for n in range(1, 12):
            nu = reduced_exponent(m, n)
            exponent = n + wrap_count(m, n)
            vn = np.linalg.matrix_power(dense(bundle.forms[0]), exponent)
            lhs = vn @ kron(a, omega(bundle)) @ vn.conj().T
            step = stinespring_unitary(power(ch, nu)).unitary
            rhs = kron(step @ kron(a, inner_omega) @ step.conj().T, basis_state(nu - 1, m))
            assert trace_norm(lhs - rhs) <= 1e-9

    @pytest.mark.parametrize("ch, m", [
        (rotation_channel(4), 4),
        (rotation_channel(16), 16),
        (unitary_channel(np.diag(np.exp(2j * np.pi * np.arange(3) / 15))), 16),
    ], ids=["rotation-4", "rotation-16", "qutrit-16"])
    def test_cycle_closes_on_the_stored_blocks(self, ch, m):
        # V^m is the identity: every cell returns home, carrying I
        bundle = build_cyclic_dilation(ch, detect_cycle(ch, m_max=m))
        closed = bundle.forms[0].power(m)
        np.testing.assert_array_equal(closed.src, np.arange(m))
        assert np.abs(closed.blocks - np.eye(closed.blocks.shape[1])).max() <= 1e-12

    def test_refuses_non_cyclic_channel(self):
        with pytest.raises(NotCyclicError):
            build_cyclic_dilation(amplitude_damping(0.3), CyclePeriod(4))


class TestEvolveCyclic:
    def test_zero_steps(self):
        bundle = build_cyclic_dilation(rotation_channel(3), CyclePeriod(3))
        rng = np.random.default_rng(3)
        rho = random_density(2, rng)
        np.testing.assert_allclose(evolve_cyclic(bundle, rho, 0), rho, atol=1e-12)

    def test_single_step(self):
        ch = rotation_channel(4)
        bundle = build_cyclic_dilation(ch, CyclePeriod(4))
        rng = np.random.default_rng(4)
        rho = random_density(2, rng)
        assert trace_distance(evolve_cyclic(bundle, rho, 1), kraus_apply(ch.kraus, rho)) <= 1e-10

    def test_step_seventeen_against_direct_application(self):
        ch = rotation_channel(4)
        bundle = build_cyclic_dilation(ch, CyclePeriod(4))
        rng = np.random.default_rng(5)
        rho = random_density(2, rng)
        expected = rho
        for _ in range(17):
            expected = kraus_apply(ch.kraus, expected)
        assert trace_distance(evolve_cyclic(bundle, rho, 17), expected) <= 1e-9

    def test_no_horizon(self):
        ch = rotation_channel(3)
        bundle = build_cyclic_dilation(ch, CyclePeriod(3))
        rng = np.random.default_rng(6)
        rho = random_density(2, rng)
        out = evolve_cyclic(bundle, rho, 123)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)

    def test_rejects_negative_steps(self):
        bundle = build_cyclic_dilation(rotation_channel(3), CyclePeriod(3))
        with pytest.raises(ValueError):
            evolve_cyclic(bundle, np.diag([1.0, 0.0]), -1)

    def test_power_that_overflows_is_refused_by_its_exponent(self):
        # squaring drifts off unitarity until the blocks overflow: refused,
        # naming the generator exponent n + wraps, with no numpy warning
        bundle = build_cyclic_dilation(rotation_channel(4), CyclePeriod(4))
        n = 10**40
        exponent = n + wrap_count(4, n)
        with pytest.raises(ValueError, match=f"^generator power {exponent} is not finite$"):
            evolve_cyclic(bundle, np.diag([1.0, 0.0]), n)

    def test_power_whose_columns_overflow_is_refused_by_its_exponent(self):
        # at n = 2.5 10^18 the drifted power is finite, but the squared norm
        # of its columns is not: refused before the reconstruction overflows,
        # with no numpy warning
        bundle = build_cyclic_dilation(rotation_channel(4), CyclePeriod(4))
        n = 2_500_000_000_000_000_000
        exponent = n + wrap_count(4, n)
        with pytest.raises(
            ValueError, match=f"^generator power {exponent} overflows the reconstruction$"
        ):
            evolve_cyclic(bundle, np.diag([0.5, 0.5]), n)


class TestBijectiveCyclicInverse:
    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_power_m_minus_two_inverts(self, m):
        # cyclicity of a bijective channel makes T^(m-2) its inverse
        ch = rotation_channel(m)
        m1 = superoperator_matrix(ch)
        inverse = np.linalg.matrix_power(m1, m - 2)
        assert fro(m1 @ inverse - np.eye(4)) <= 1e-9
