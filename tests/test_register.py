"""Differential tests: the column path against the dense reconstruction.

The reference is the definition itself: the word w = G_1^e_1 G_2^e_2 ...
as a dense D x D matrix, the lift A (x) omega, the sandwich
w (A (x) omega) w^dag and its partial trace.  The column path must agree
with it on every mode, on bundles that are not in register form, and on
a sabotaged bundle that must still fail verification.  The generators
written cell by cell into the register view must equal the dense
assembly (sum_c B_c (x) P_c)(id (x) shift) they replace.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatio.channels import (
    CPTP_ATOL,
    convex_combine,
    identity_channel,
    random_channel,
    superoperator_matrix,
    unitary_channel,
    unvec,
    vec,
)
from dilatio.control import _word_unitaries, build_control_dilation, verify_reachable_inclusion
from dilatio.cyclic import build_cyclic_dilation, detect_cycle, wrap_count
from dilatio.fixtures import haar_unitary, rotation_channel
from dilatio.linalg import matrix_units, partial_trace, partial_trace_state, trace_norm
from dilatio.register import RegisterDilation, power_words, reconstruct, verify_words
from dilatio.semigroup import _step_unitaries, build_semigroup_dilation, heisenberg_evolve

from helpers import random_density, random_matrix

# residuals and reconstructions sit near 1e-14; the two paths sum in
# different orders, so they agree to rounding, far inside this bound
AGREE = 1e-11

small = settings(max_examples=8, deadline=None, database=None, derandomize=True)

# (d, Kraus rank, seed), d in 1..3 and rank in 1..d^2
channel_params = st.integers(1, 3).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(1, d * d), st.integers(0, 2**16))
)


def dense_word(bundle, exponents):
    powers = [np.linalg.matrix_power(g, e) for g, e in zip(bundle.generators, exponents)]
    return reduce(np.matmul, powers)


def dense_reconstruct(bundle, exponents, a, keep=0):
    w = dense_word(bundle, exponents)
    big = w @ np.kron(a, bundle.omega) @ w.conj().T
    return partial_trace(big, list(bundle.shape), keep=keep)


def dense_residuals(bundle, words, operators=None):
    operators = matrix_units(bundle.dim) if operators is None else operators
    return [
        max(
            trace_norm(dense_reconstruct(bundle, exponents, e) - unvec(oracle @ vec(e)))
            for e in operators
        )
        for _, exponents, oracle in words
    ]


def assert_reconstructions_agree(bundle, exponents, rng, keeps=(0,)):
    a = random_matrix(bundle.dim, rng)
    for keep in keeps:
        np.testing.assert_allclose(
            reconstruct(bundle, exponents, a, keep=keep),
            dense_reconstruct(bundle, exponents, a, keep=keep),
            atol=AGREE,
        )


def assert_sweep_agrees(bundle, channels, words, operators=None):
    words = list(words)
    report = verify_words(bundle, channels, words, 1e-9, operators=operators)
    assert report.labels == tuple(label for label, _, _ in words)
    np.testing.assert_allclose(
        report.residuals, dense_residuals(bundle, words, operators), atol=AGREE
    )
    return report


def random_pure_state(dim, rng):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def control_words(t, s, horizon):
    mt, ms = superoperator_matrix(t), superoperator_matrix(s)
    return [
        (f"N={n},k={k}", (k, n - k),
         np.linalg.matrix_power(mt, k) @ np.linalg.matrix_power(ms, n - k))
        for n in range(horizon + 1)
        for k in range(n + 1)
    ]


@small
@given(channel_params, st.integers(1, 3))
def test_semigroup_columns_match_dense(params, horizon):
    d, rank, seed = params
    ch = random_channel(d, rank, seed)
    bundle = build_semigroup_dilation(ch, horizon)
    rng = np.random.default_rng(seed)
    env = bundle.ancilla_dim * bundle.shift_dim
    for n in range(horizon + 1):
        assert_reconstructions_agree(bundle, (n,), rng, keeps=(0, 2))
        b = random_matrix(d, rng)
        w = dense_word(bundle, (n,))
        dual = partial_trace_state(w.conj().T @ np.kron(b, np.eye(env)) @ w, [d, env], bundle.omega)
        np.testing.assert_allclose(heisenberg_evolve(bundle, b, n), dual, atol=AGREE)
    assert assert_sweep_agrees(bundle, [ch], power_words(ch, horizon)).passed


@small
@given(st.integers(1, 3), st.integers(2, 5), st.integers(0, 2**16))
def test_cyclic_columns_match_dense(d, order, seed):
    rng = np.random.default_rng(seed)
    q = haar_unitary(d, rng)
    phases = np.exp(2j * np.pi * rng.integers(0, order, d) / order)
    ch = unitary_channel((q * phases) @ q.conj().T)
    period = detect_cycle(ch)
    bundle = build_cyclic_dilation(ch, period)
    m = period.m
    # exponents past D / d reach the generator through one matrix power
    for n in (1, m, 3 * m + 1, bundle.unitary.shape[0]):
        assert_reconstructions_agree(bundle, (n + wrap_count(m, n),), rng, keeps=(0, 2))
    words = power_words(ch, 2 * m + 1, lambda n: n + wrap_count(m, n) if n else 0)
    assert assert_sweep_agrees(bundle, [ch], words).passed


@small
@given(channel_params, st.integers(1, 2), st.floats(0.1, 0.9))
def test_control_columns_match_dense(params, horizon, weight):
    d, rank, seed = params
    if d == 3:
        horizon = 1  # at horizon 2 (D = 243) the dense reference takes 0.5 s
    t = random_channel(d, rank, seed)
    s = convex_combine([identity_channel(d), t], [weight, 1 - weight])
    bundle = build_control_dilation(t, s, horizon)
    rng = np.random.default_rng(seed)
    for n in range(horizon + 1):
        for k in range(n + 1):
            assert_reconstructions_agree(bundle, (k, n - k), rng, keeps=(0, (2, 3)))
    assert assert_sweep_agrees(bundle, [t, s], control_words(t, s, horizon)).passed
    rho = random_density(d, rng)
    words = control_words(t, s, horizon)[-(horizon + 1):]
    inclusion = verify_reachable_inclusion(bundle, t, s, rho, horizon)
    np.testing.assert_allclose(
        inclusion.residuals, dense_residuals(bundle, words, [rho]), atol=AGREE
    )


@small
@given(channel_params, st.integers(2, 3))
def test_unitaries_outside_register_form_match_dense(params, cells):
    # Haar-random generators and a pure omega that is no basis state: the
    # column path may rely on nothing but unitarity and purity
    d, rank, seed = params
    rng = np.random.default_rng(seed)
    anc = d * d * cells
    v = haar_unitary(d * anc, rng)
    bundle = RegisterDilation("semigroup", d, d * d, (cells,), (v,), random_pure_state(anc, rng))
    ch = random_channel(d, rank, seed)
    for n in range(cells):
        assert_reconstructions_agree(bundle, (n,), rng, keeps=(0, 2))
    assert_sweep_agrees(bundle, [ch], power_words(ch, cells - 1))

    u = haar_unitary(d * anc * cells, rng)
    v = haar_unitary(d * anc * cells, rng)
    pair = RegisterDilation(
        "control", d, d * d, (cells, cells), (u, v), random_pure_state(anc * cells, rng)
    )
    for k, rest in ((0, 1), (1, 0), (1, 1), (2, 0)):
        assert_reconstructions_agree(pair, (k, rest), rng, keeps=(0, (2, 3)))
    assert_sweep_agrees(pair, [ch, ch], control_words(ch, ch, 2))


@small
@given(channel_params, st.integers(1, 3))
def test_identity_generator_still_fails(params, horizon):
    d, rank, seed = params
    ch = random_channel(d, rank, seed)
    good = build_semigroup_dilation(ch, horizon)
    eye = np.eye(good.unitary.shape[0], dtype=complex)
    sabotaged = RegisterDilation("semigroup", d, d * d, good.registers, (eye,), good.omega)
    report = assert_sweep_agrees(sabotaged, [ch], power_words(ch, horizon))
    assert report.residuals[0] <= AGREE
    # a unitary channel (rank 1 at d = 1) is the identity, which V = id reproduces
    if d > 1:
        assert not report.passed


def dense_assemble(cells, shift, block_dim):
    """(sum_c B_c (x) P_c)(id (x) shift) over (block, register projector) pairs."""
    total = block_dim * shift.shape[0]
    blocks = np.zeros((total, total), dtype=complex)
    for block, projector in cells:
        blocks += np.kron(block, projector)
    return blocks @ np.kron(np.eye(block_dim), shift)


def cell(c, length):
    p = np.zeros((length, length), dtype=complex)
    p[c, c] = 1.0
    return p


def step(length):
    """e_i -> e_(i+1 mod length)."""
    return np.roll(np.eye(length, dtype=complex), 1, axis=0)


def walk_reference(path):
    length = len(path) - 1
    cells = [(path[c + 1] @ path[c].conj().T, cell(c, length)) for c in range(length)]
    return dense_assemble(cells, step(length), path[0].shape[0])


@pytest.mark.parametrize("d, horizon", [(1, 3), (2, 1), (2, 4), (3, 2)])
def test_semigroup_generator_matches_dense_assembly(d, horizon):
    ch = random_channel(d, d * d, seed=d + horizon)
    steps = _step_unitaries(ch, horizon, CPTP_ATOL)
    bundle = build_semigroup_dilation(ch, horizon)
    # array_equal identifies -0.0 with 0.0: the product with the shift
    # may flip the sign of a zero entry, nothing else
    assert np.array_equal(bundle.unitary, walk_reference(steps[:1] + steps))


@pytest.mark.parametrize("period", [2, 3, 5])
def test_cyclic_generator_matches_dense_assembly(period):
    ch = rotation_channel(period)
    steps = _step_unitaries(ch, period - 1, CPTP_ATOL)
    bundle = build_cyclic_dilation(ch, detect_cycle(ch))
    assert bundle.period == period
    assert np.array_equal(bundle.unitary, walk_reference(steps + steps[:1]))


@pytest.mark.parametrize("d, horizon", [(1, 2), (2, 1), (2, 3)])
def test_control_generators_match_dense_assembly(d, horizon):
    t = random_channel(d, d * d, seed=d + horizon)
    s = convex_combine([identity_channel(d), t], [0.4, 0.6])
    u_word = _word_unitaries(t, s, horizon, CPTP_ATOL)
    length, b = horizon + 1, d ** 3
    eye = np.eye(length, dtype=complex)
    cells_t = [
        (u_word(m, n) @ u_word(m - 1, n - 1).conj().T, np.kron(cell(m, length), cell(n, length)))
        for m in range(length)
        for n in range(length)
    ]
    cells_s = [
        (u_word(n, 0) @ u_word(n - 1, 0).conj().T, np.kron(cell(n, length), eye))
        for n in range(length)
    ]
    bundle = build_control_dilation(t, s, horizon)
    shift_t = np.kron(step(length), step(length))
    shift_s = np.kron(step(length), eye)
    assert np.array_equal(bundle.unitary_t, dense_assemble(cells_t, shift_t, b))
    assert np.array_equal(bundle.unitary_s, dense_assemble(cells_s, shift_s, b))
