"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear; every criterion checks its stated tolerance (and runtime budget)
against brute-force superoperator oracles at qubit/qutrit scale.
"""

import itertools
import json
import time

import numpy as np
import pytest

from dilatio.channels import (
    apply_channel,
    compose,
    convex_combine,
    detect_unitary_conjugation,
    dual,
    identity_channel,
    random_channel,
    superoperator_matrix,
    unitary_channel,
    verify_cptp,
)
from dilatio.cli import main
from dilatio.control import apply_word, build_control_dilation, verify_control_dilation
from dilatio.cyclic import (
    CyclePeriod,
    build_cyclic_dilation,
    detect_cycle,
    reduced_exponent,
    verify_cyclic_dilation,
    wrap_count,
)
from dilatio.fixtures import (
    haar_unitary,
    random_commuting_pair,
    rotation_channel,
)
from dilatio.linalg import (
    basis_state,
    kron,
    matrix_units,
    trace_norm,
)
from dilatio.semigroup import (
    build_semigroup_dilation,
    heisenberg_evolve,
    shift_marginal,
    verify_dilation,
)
from dilatio.stinespring import stinespring_unitary

from helpers import (
    fro,
    kraus_apply,
    kraus_apply_dual,
    partial_trace,
    random_density,
    random_matrix,
)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def semigroup_corpus():
    """20 random channels with their bundles: 10 qubit (N=6), 10 qutrit (N=4)."""
    corpus = []
    for seed in range(10):
        ch = random_channel(2, rank=1 + seed % 4, seed=seed)
        corpus.append((ch, build_semigroup_dilation(ch, 6)))
    for seed in range(10):
        ch = random_channel(3, rank=1 + seed % 9, seed=100 + seed)
        corpus.append((ch, build_semigroup_dilation(ch, 4)))
    return corpus


def test_criterion_01_stinespring_reconstruction():
    started = time.perf_counter()
    worst = 0.0
    for index in range(50):
        dim = 2 if index % 2 == 0 else 3
        ch = random_channel(dim, rank=1 + index % (dim * dim), seed=1000 + index)
        dilation = stinespring_unitary(ch)
        for e in matrix_units(dim):
            residual = trace_norm(dilation.apply(e) - kraus_apply(ch.kraus, e))
            worst = max(worst, residual)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 5.0
    report(1, "stinespring reconstruction", ok, f"max residual {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_02_semigroup_dilation(semigroup_corpus):
    started = time.perf_counter()
    worst = 0.0
    for ch, bundle in semigroup_corpus:
        result = verify_dilation(bundle, ch, tol=1e-9)
        worst = max(worst, result.max_residual)
        assert len(result.residuals) == bundle.horizon + 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 60.0
    report(2, "semigroup dilation identity", ok, f"max residual {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_03_shift_support_identity(semigroup_corpus):
    rng = np.random.default_rng(77)
    worst = 0.0
    for ch, bundle in semigroup_corpus:
        rho = random_density(bundle.dim, rng)
        for n in range(bundle.horizon + 1):
            marginal = shift_marginal(bundle, rho, n)
            worst = max(worst, trace_norm(marginal - basis_state(n, bundle.shift_dim)))
    ok = worst <= 1e-9
    report(3, "shift-register support identity", ok, f"max residual {worst:.2e}")
    assert ok


def test_criterion_04_cyclic_dilation():
    started = time.perf_counter()
    worst = 0.0
    cases = [(identity_channel(2), 2)] + [(rotation_channel(m), m) for m in (3, 4, 6)]
    for ch, m in cases:
        period = detect_cycle(ch)
        assert period == CyclePeriod(m)
        bundle = build_cyclic_dilation(ch, period)
        result = verify_cyclic_dilation(bundle, ch, n_max=50, tol=1e-9)
        worst = max(worst, result.max_residual)

    violations = 0
    for m in range(2, 13):
        for n in range(1, 201):
            nu = reduced_exponent(m, n)
            mu = wrap_count(m, n)
            if not (1 <= nu <= m - 1 and mu >= 0 and n == nu + mu * (m - 1)):
                violations += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and violations == 0 and elapsed < 30.0
    report(
        4, "cyclic dilation + modulo identities", ok,
        f"max residual {worst:.2e}, {violations} integer violations, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_05_cycle_reduction_lemma():
    worst = 0.0
    for m in (3, 4, 6):
        ch = rotation_channel(m)
        matrix = superoperator_matrix(ch)
        for n in range(1, 51):
            lhs = np.linalg.matrix_power(matrix, n)
            rhs = np.linalg.matrix_power(matrix, reduced_exponent(m, n))
            worst = max(worst, fro(lhs - rhs))
    ok = worst <= 1e-9
    report(5, "cycle power reduction lemma", ok, f"max Frobenius gap {worst:.2e}")
    assert ok


def test_criterion_06_control_dilation():
    started = time.perf_counter()
    worst_dilation = 0.0
    worst_collapse = 0.0
    rng = np.random.default_rng(42)
    for seed in range(10):
        t, s = random_commuting_pair(2, seed=2000 + seed)
        bundle = build_control_dilation(t, s, 4)
        result = verify_control_dilation(bundle, t, s, tol=1e-9)
        worst_dilation = max(worst_dilation, result.max_residual)

        rho = random_density(2, rng)
        for word in itertools.product("TS", repeat=4):
            k = word.count("T")
            canonical = apply_word(t, s, rho, "T" * k + "S" * (4 - k))
            gap = trace_norm(apply_word(t, s, rho, word) - canonical)
            worst_collapse = max(worst_collapse, gap)
    elapsed = time.perf_counter() - started
    ok = worst_dilation <= 1e-9 and worst_collapse <= 1e-9 and elapsed < 60.0
    report(
        6, "control dilation + word collapse", ok,
        f"dilation {worst_dilation:.2e}, collapse {worst_collapse:.2e}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_07_duality():
    rng = np.random.default_rng(7)
    worst_pairing = 0.0
    for index in range(50):
        dim = 2 if index % 2 == 0 else 3
        ch = random_channel(dim, rank=1 + index % dim, seed=3000 + index)
        a, b = random_matrix(dim, rng), random_matrix(dim, rng)
        lhs = np.trace(b @ apply_channel(ch, a))
        rhs = np.trace(apply_channel(dual(ch), b) @ a)
        worst_pairing = max(worst_pairing, abs(lhs - rhs))

    worst_unital = 0.0
    worst_power = 0.0
    for seed in range(5):
        ch = random_channel(2, rank=2 + seed % 3, seed=3100 + seed)
        bundle = build_semigroup_dilation(ch, 4)
        b = random_matrix(2, rng)
        expected = b
        for n in range(5):
            unital_gap = trace_norm(
                heisenberg_evolve(bundle, np.eye(2, dtype=complex), n) - np.eye(2)
            )
            power_gap = trace_norm(heisenberg_evolve(bundle, b, n) - expected)
            worst_unital = max(worst_unital, unital_gap)
            worst_power = max(worst_power, power_gap)
            expected = kraus_apply_dual(ch.kraus, expected)
    ok = worst_pairing <= 1e-11 and worst_unital <= 1e-10 and worst_power <= 1e-9
    report(
        7, "duality pairing + heisenberg dilation", ok,
        f"pairing {worst_pairing:.2e}, unitality {worst_unital:.2e}, powers {worst_power:.2e}",
    )
    assert ok


def test_criterion_08_dilation_axioms():
    rng = np.random.default_rng(8)
    anc = 4

    worst_embed = 0.0
    for dim in (2, 3):
        big_omega = basis_state(0, dim * dim)
        for e in matrix_units(dim):
            back = partial_trace(kron(e, big_omega), [dim, dim * dim], keep=0)
            worst_embed = max(worst_embed, trace_norm(back - e))

    worst_hom = 0.0
    for _ in range(20):
        b = random_matrix(2, rng)
        a_big = random_matrix(2 * anc, rng)
        lhs = partial_trace(kron(b, np.eye(anc)) @ a_big, [2, anc], keep=0)
        rhs = b @ partial_trace(a_big, [2, anc], keep=0)
        worst_hom = max(worst_hom, trace_norm(lhs - rhs))

    worst_cond = 0.0
    for _ in range(20):
        a = random_matrix(2, rng)
        b_big = random_matrix(2 * anc, rng)
        lhs = partial_trace(kron(a, np.eye(anc)) @ b_big, [2, anc], keep=0)
        rhs = a @ partial_trace(b_big, [2, anc], keep=0)
        worst_cond = max(worst_cond, trace_norm(lhs - rhs))

    ok = worst_embed <= 1e-12 and worst_hom <= 1e-10 and worst_cond <= 1e-10
    report(
        8, "dilation axioms", ok,
        f"EoJ {worst_embed:.2e}, module identity {worst_hom:.2e}, "
        f"conditional expectation {worst_cond:.2e}",
    )
    assert ok


def test_criterion_09_unitary_detection():
    rng = np.random.default_rng(9)
    worst = 0.0
    for index in range(50):
        dim = 2 if index % 2 == 0 else 3
        u = haar_unitary(dim, rng)
        found = detect_unitary_conjugation(unitary_channel(u))
        assert found is not None
        phase = np.vdot(found.ravel(), u.ravel())
        phase /= abs(phase)
        worst = max(worst, fro(found * phase - u))

    false_positives = 0
    for index in range(50):
        dim = 2 if index % 2 == 0 else 3
        rank = 2 + index % (dim * dim - 1)
        ch = random_channel(dim, rank=rank, seed=4000 + index)
        if detect_unitary_conjugation(ch) is not None:
            false_positives += 1
    ok = worst <= 1e-9 and false_positives == 0
    report(
        9, "unitary conjugation detection", ok,
        f"max recovery gap {worst:.2e}, {false_positives} false positives",
    )
    assert ok


def test_criterion_10_semigroup_closure():
    worst = 0.0
    for index in range(100):
        dim = 2 if index % 2 == 0 else 3
        t = random_channel(dim, rank=1 + index % dim, seed=5000 + index)
        s = random_channel(dim, rank=1 + (index + 1) % (dim * dim), seed=6000 + index)
        worst = max(worst, verify_cptp(compose(t, s)).max_violation)
        worst = max(worst, verify_cptp(convex_combine([t, s], [0.3, 0.7])).max_violation)
    ok = worst <= 1e-10
    report(10, "semigroup closure and convexity", ok, f"max violation {worst:.2e}")
    assert ok


def test_criterion_11_cli_end_to_end(tmp_path, capsys):
    gamma, steps = 0.5, 6
    fixtures_dir = tmp_path / "fx"
    assert main(["fixtures", "--out", str(fixtures_dir)]) == 0
    channel_file = fixtures_dir / f"channel_amplitude_damping_{gamma}.json"

    bundle_a = tmp_path / "a.bundle"
    bundle_b = tmp_path / "b.bundle"
    for out in (bundle_a, bundle_b):
        assert main([
            "dilate", str(channel_file), "--mode", "semigroup",
            "--steps", str(steps), "--out", str(out),
        ]) == 0
    identical = bundle_a.read_bytes() == bundle_b.read_bytes()

    assert main(["verify", str(bundle_a), str(channel_file)]) == 0
    capsys.readouterr()

    worst = 0.0
    for n in range(steps + 1):
        assert main([
            "evolve", str(bundle_a), str(fixtures_dir / "state_excited.json"),
            "--steps", str(n),
        ]) == 0
        state = json.loads(capsys.readouterr().out)
        population = state["matrix"][3][0]
        worst = max(worst, abs(population - (1 - gamma) ** n))

    ok = identical and worst <= 1e-9
    with capsys.disabled():
        report(
            11, "cli end-to-end pipeline", ok,
            f"byte identical {identical}, population gap {worst:.2e}",
        )
    assert ok
