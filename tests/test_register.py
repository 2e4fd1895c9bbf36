"""Differential tests: the column path against the dense reconstruction.

The reference is the definition itself: the word w = G_1^e_1 G_2^e_2 ...
as a dense D x D matrix, the lift A (x) omega, the sandwich
w (A (x) omega) w^dag and its partial trace.  The column path must agree
with it on every mode, on bundles that are not in register form, and on
a sabotaged bundle that must still fail verification.  The generators
written cell by cell into the register view must equal the dense
assembly (sum_c B_c (x) P_c)(id (x) shift) they replace.  The block
permutation form must give the dense Gram residual, the dense unitarity
decision and the dense powers, and keep D x D arrays out of a cyclic
evolve.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatio.channels import (
    compose,
    convex_combine,
    identity_channel,
    power,
    random_channel,
    superoperator_matrix,
    unitary_channel,
    unvec,
    vec,
)
from dilatio.control import build_control_dilation, verify_reachable_inclusion
from dilatio.cyclic import build_cyclic_dilation, detect_cycle, wrap_count
from dilatio.cyclic import evolve_cyclic
from dilatio.fixtures import haar_unitary, rotation_channel
from dilatio.linalg import (
    is_pure_state,
    is_unitary,
    matrix_units,
    partial_trace,
    partial_trace_state,
    pure_state_vector,
    trace_norm,
    unitarity_residual,
)
from dilatio.register import (
    BlockPermutation,
    RegisterDilation,
    power_words,
    reconstruct,
    verify_words,
)
from dilatio.semigroup import build_semigroup_dilation, heisenberg_evolve
from dilatio.serialize import load_bundle, save_bundle
from dilatio.stinespring import stinespring_unitary

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


def step_unitaries(ch, count):
    """Dilation unitaries of T^0 .. T^count on the common H (x) K~ space."""
    steps = [np.eye(ch.dim_in ** 3, dtype=complex)]
    for n in range(1, count + 1):
        steps.append(stinespring_unitary(power(ch, n)).unitary)
    return steps


def control_word_unitaries(t, s, horizon):
    """u(M, k), the dilation unitary of T^k S^(M-k) for 1 <= M <= horizon,
    0 <= k <= M, and the identity at every other (M, k)."""
    table = {
        (total, k): stinespring_unitary(compose(power(t, k), power(s, total - k))).unitary
        for total in range(1, horizon + 1)
        for k in range(total + 1)
    }
    eye = np.eye(t.dim_in ** 3, dtype=complex)
    return lambda total, k: table.get((total, k), eye)


def walk_reference(path):
    length = len(path) - 1
    cells = [(path[c + 1] @ path[c].conj().T, cell(c, length)) for c in range(length)]
    return dense_assemble(cells, step(length), path[0].shape[0])


@pytest.mark.parametrize("d, horizon", [(1, 3), (2, 1), (2, 4), (3, 2)])
def test_semigroup_generator_matches_dense_assembly(d, horizon):
    ch = random_channel(d, d * d, seed=d + horizon)
    steps = step_unitaries(ch, horizon)
    bundle = build_semigroup_dilation(ch, horizon)
    # array_equal identifies -0.0 with 0.0: the product with the shift
    # may flip the sign of a zero entry, nothing else
    assert np.array_equal(bundle.unitary, walk_reference(steps[:1] + steps))


@pytest.mark.parametrize("period", [2, 3, 5])
def test_cyclic_generator_matches_dense_assembly(period):
    ch = rotation_channel(period)
    steps = step_unitaries(ch, period - 1)
    bundle = build_cyclic_dilation(ch, detect_cycle(ch))
    assert bundle.period == period
    assert np.array_equal(bundle.unitary, walk_reference(steps + steps[:1]))


@pytest.mark.parametrize("d, horizon", [(1, 2), (2, 1), (2, 3)])
def test_control_generators_match_dense_assembly(d, horizon):
    t = random_channel(d, d * d, seed=d + horizon)
    s = convex_combine([identity_channel(d), t], [0.4, 0.6])
    u_word = control_word_unitaries(t, s, horizon)
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


def built_bundle(mode):
    if mode == "semigroup":
        return build_semigroup_dilation(random_channel(2, 4, seed=5), 4)
    if mode == "cyclic":
        ch = rotation_channel(5)
        return build_cyclic_dilation(ch, detect_cycle(ch))
    t = random_channel(2, 4, seed=6)
    return build_control_dilation(t, convex_combine([identity_channel(2), t], [0.3, 0.7]), 2)


def dense_gram_residual(g):
    return float(np.linalg.norm(g.conj().T @ g - np.eye(g.shape[0])))


def rebuilt(bundle, generators):
    return RegisterDilation(
        bundle.mode, bundle.dim, bundle.ancilla_dim, bundle.registers, generators, bundle.omega
    )


@pytest.mark.parametrize("mode", ["semigroup", "cyclic", "control"])
def test_block_residual_matches_dense_gram(mode):
    bundle = built_bundle(mode)
    cells = int(np.prod(bundle.registers))
    for form, g in zip(bundle.forms, bundle.generators):
        # register form: one d^3 x d^3 block per cell, not the one-cell fallback
        assert form.blocks.shape == (cells, bundle.dim ** 3, bundle.dim ** 3)
        assert abs(unitarity_residual(form.blocks) - dense_gram_residual(g)) <= 1e-14
        np.testing.assert_array_equal(BlockPermutation.from_dense(g, cells).dense(), g)
        # a non-unitary perturbation of one block: residuals of order one
        off = form.blocks.copy()
        off[1] *= 1.5
        far = BlockPermutation(form.src, off)
        assert unitarity_residual(far.blocks) == pytest.approx(
            dense_gram_residual(far.dense()), rel=1e-12
        )


@pytest.mark.parametrize("mode", ["semigroup", "cyclic", "control"])
@pytest.mark.parametrize("target", [0.9e-10, 1.1e-10])
def test_block_check_decides_as_the_dense_check(mode, target):
    # scaling one block by 1 + t / (2 sqrt(b)) puts ||G^dag G - I||_F at
    # about t, just inside or just outside the 1e-10 bound
    bundle = built_bundle(mode)
    form = bundle.forms[0]
    blocks = form.blocks.copy()
    blocks[0] *= 1 + target / (2 * np.sqrt(blocks.shape[1]))
    g = BlockPermutation(form.src, blocks).dense()
    dense_accepts = is_unitary(g)
    assert dense_accepts is (target < 1e-10)
    for generator in (g, BlockPermutation(form.src, blocks)):
        if dense_accepts:
            rebuilt(bundle, (generator,) + bundle.generators[1:])
        else:
            with pytest.raises(ValueError, match="not unitary"):
                rebuilt(bundle, (generator,) + bundle.generators[1:])


def test_two_cells_reading_one_source_are_not_unitary():
    bundle = built_bundle("semigroup")
    form = bundle.forms[0]
    src = form.src.copy()
    src[1] = src[0]  # every block unitary, but one source cell is never read
    with pytest.raises(ValueError, match="not a permutation"):
        BlockPermutation(src, form.blocks)
    cells, b = form.blocks.shape[:2]
    g = np.zeros((b * cells, b * cells), dtype=complex)
    view = g.reshape(b, cells, b, cells)
    for c in range(cells):
        view[:, c, :, src[c]] = form.blocks[c]
    assert BlockPermutation.from_dense(g, cells).blocks.shape == (1, b * cells, b * cells)
    with pytest.raises(ValueError, match="not unitary"):
        rebuilt(bundle, (g,))


def test_blocks_are_copies():
    # a view of the caller's blocks, taken before, must not reach the form
    blocks = np.stack([np.eye(2, dtype=complex)] * 3)
    view = blocks[:]
    form = BlockPermutation([2, 0, 1], blocks)
    view[0, 0, 0] = 5.0
    assert form.blocks[0, 0, 0] == 1.0
    assert blocks.flags.writeable
    # a dense generator is read into fresh blocks and left as it was
    bundle = built_bundle("semigroup")
    v = bundle.unitary
    again = rebuilt(bundle, (v,))
    v[0, 0] += 1.0
    assert np.array_equal(again.unitary, bundle.unitary)


def test_block_powers_match_matrix_power():
    bundle = built_bundle("cyclic")
    v, form = bundle.unitary, bundle.forms[0]
    for e in (1, 2, 3, 4, 5, 6, 7, 63, 64, 65, 100, 511, 999, 1000):
        np.testing.assert_allclose(form.power(e).dense(), np.linalg.matrix_power(v, e), atol=1e-12)


def test_block_product_matches_dense_product():
    # the register shifts all commute; random cell permutations do not
    rng = np.random.default_rng(8)
    a, b = (
        BlockPermutation(rng.permutation(5), [haar_unitary(3, rng) for _ in range(5)])
        for _ in range(2)
    )
    np.testing.assert_allclose((a @ b).dense(), a.dense() @ b.dense(), atol=1e-14)
    np.testing.assert_allclose((b @ a).dense(), b.dense() @ a.dense(), atol=1e-14)
    columns = random_matrix(2, rng, rows=15)
    cell_major = columns.reshape(3, 5, 2).transpose(1, 0, 2)
    np.testing.assert_allclose(
        a.apply(cell_major).transpose(1, 0, 2).reshape(15, 2), a.dense() @ columns, atol=1e-14
    )


def test_haar_generators_take_the_one_cell_form():
    rng = np.random.default_rng(7)
    v = haar_unitary(2 * 4 * 3, rng)
    bundle = RegisterDilation("semigroup", 2, 4, (3,), (v,), random_pure_state(12, rng))
    assert bundle.forms[0].blocks.shape == (1, 24, 24)
    np.testing.assert_array_equal(bundle.unitary, v)


def test_load_and_large_cyclic_evolve_form_no_dense_square(tmp_path, monkeypatch):
    ch = rotation_channel(6)
    path = tmp_path / "rot.bundle"
    save_bundle(path, build_cyclic_dilation(ch, detect_cycle(ch)))
    shapes = {"matrix_power": [], "is_unitary": []}

    def counting(name, fn):
        def wrapper(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "matrix_power", counting("matrix_power", np.linalg.matrix_power))
    monkeypatch.setattr(
        "dilatio.register.is_unitary", counting("is_unitary", is_unitary)
    )
    bundle = load_bundle(path)
    evolve_cyclic(bundle, np.diag([1.0, 0.0]), 10**12)
    total = bundle.dim * bundle.ancilla_dim * bundle.period
    assert shapes["is_unitary"] == [(6, 8, 8)]
    assert all(s[-2:] != (total, total) for s in shapes["matrix_power"])


@pytest.mark.parametrize("mode", ["semigroup", "cyclic", "control"])
def test_built_state_is_a_basis_vector(mode):
    # psi = e_0 (x) e_origin, and omega the dense kron it replaces, bit for bit
    bundle = built_bundle(mode)
    origin = bundle.registers[0] - 1 if mode == "cyclic" else 0
    cells = int(np.prod(bundle.registers))
    expected = np.kron(np.eye(bundle.ancilla_dim)[0], np.eye(cells)[origin])
    np.testing.assert_array_equal(bundle.psi, expected)
    assert not bundle.psi.flags.writeable
    np.testing.assert_array_equal(bundle.omega, np.outer(expected, expected).astype(complex))


def test_state_vector_and_dense_omega_give_one_bundle():
    rng = np.random.default_rng(47)
    d, cells = 2, 3
    anc = d * d * cells
    v = haar_unitary(d * anc, rng)
    psi = rng.standard_normal(anc) + 1j * rng.standard_normal(anc)
    psi /= np.linalg.norm(psi)
    omega = np.outer(psi, psi.conj())
    from_psi = RegisterDilation("semigroup", d, d * d, (cells,), (v,), psi)
    from_omega = RegisterDilation("semigroup", d, d * d, (cells,), (v,), omega)
    np.testing.assert_array_equal(from_psi.psi, psi)
    # the reduction keeps psi up to a global phase, which omega cancels
    np.testing.assert_allclose(from_psi.omega, omega, atol=1e-15)
    np.testing.assert_allclose(from_omega.omega, omega, atol=1e-15)
    for n in range(cells):
        for a in matrix_units(d) + [random_density(d, rng)]:
            for keep in (0, 2):
                np.testing.assert_allclose(
                    reconstruct(from_psi, (n,), a, keep), reconstruct(from_omega, (n,), a, keep),
                    atol=1e-14,
                )


@pytest.mark.parametrize("defect, message", [
    ("mixed", "not pure"),
    ("non-hermitian", "not Hermitian"),
    ("trace", "trace"),
    ("norm", "norm"),
    ("shape", "shape"),
])
def test_impure_or_unnormalised_states_are_refused(defect, message):
    rng = np.random.default_rng(48)
    bundle = built_bundle("semigroup")
    anc = bundle.ancilla_dim * bundle.shift_dim
    psi = rng.standard_normal(anc) + 1j * rng.standard_normal(anc)
    psi /= np.linalg.norm(psi)
    phi = np.roll(psi, 1)
    phi -= np.vdot(psi, phi) * psi
    phi /= np.linalg.norm(phi)
    state = {
        "mixed": 0.999 * np.outer(psi, psi.conj()) + 0.001 * np.outer(phi, phi.conj()),
        "non-hermitian": np.outer(psi, psi.conj()) + 1e-6j * np.outer(psi, phi.conj()),
        "trace": 1.001 * np.outer(psi, psi.conj()),
        "norm": 1.001 * psi,
        "shape": psi[1:],
    }[defect]
    with pytest.raises(ValueError, match=message):
        RegisterDilation("semigroup", bundle.dim, bundle.ancilla_dim, bundle.registers,
                         bundle.forms, state)


@pytest.mark.parametrize("weight", [0.0, 1e-12, 0.5e-10, 2e-10, 1e-6, 0.3])
def test_dense_state_check_is_no_weaker_than_the_spectrum(weight):
    # (1 - w)|a><a| + w|b><b|: wherever the norm checks accept, the
    # eigenvalue test accepts too (Weyl's inequality)
    q, _ = np.linalg.qr(random_matrix(12, np.random.default_rng(49)))
    rho = q @ np.diag([1 - weight, weight] + [0.0] * 10) @ q.conj().T
    try:
        pure_state_vector(rho, 12)
    except ValueError:
        assert weight > 0
    else:
        assert is_pure_state(rho)


def test_guard_build_composes_once_per_power_and_decomposes_no_wide_matrix(monkeypatch):
    # the d = 3 N = 150 guard build (D = 4077): one composition per power
    # T^2 .. T^150, and no eigendecomposition wider than a 9 x 9 Choi matrix
    from dilatio import channels, register

    calls, widths = [], []
    original = channels.compose

    def counting(t1, t2):
        calls.append(1)
        return original(t1, t2)

    def recording(fn):
        def wrapper(a, *args, **kwargs):
            widths.append(np.shape(a)[-1])
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(channels, "compose", counting)
    monkeypatch.setattr(register, "compose", counting)
    monkeypatch.setattr(np.linalg, "eigh", recording(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
    bundle = build_semigroup_dilation(random_channel(3, 9, 1), 150)
    assert bundle.forms[0].dim == 4077
    assert len(calls) == 149
    assert widths and max(widths) <= 9
