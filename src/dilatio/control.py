"""Two commuting channels driven by a control sequence, and their dilation.

Because T and S commute, every length-N control word collapses to
T^k S^(N-k) with k the number of T steps, so the reachable set after N
steps is the string of states {T^k S^(N-k) rho0 | k = 0..N}.  The
dilation carries two unitaries U, V on H (x) K~ (x) Z_L (x) Z_L with

    T^k S^(N-k)(A) == tr_K(U^k V^(N-k) (A (x) omega) (V^dag)^(N-k) (U^dag)^k)

for N <= horizon.  U and V need not commute; only these reconstruction
words are claimed.

U and V are the two-channel register build: cell (M, k) carries the
Stinespring unitary u(M, k) of T^k S^(M-k), and a generator with shift
vector delta the block u(x) u(x - delta)^dag at x = c * delta.  U has
delta = (1, 1); V has delta = (1, 0), so its blocks are u(M, 0) u(M-1, 0)^dag.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .channels import (
    KrausChannel,
    apply_channel,
    require_certified,
    require_square,
    superoperator_matrix,
)
from .errors import HorizonError, NotCommutingError
from .linalg import check_density_matrix, hermitize, trace_distance
from .register import (
    DILATION_ATOL,
    GUARDS,
    RegisterDilation,
    VerificationReport,
    build_register_dilation,
    check_horizon,
    check_system_state,
    reconstruct,
    require_mode,
    verify_words,
)

COMMUTATION_ATOL = 1e-9
# reachable_set lists a state unless it lies within this trace distance of a listed one.
DEDUP_ATOL = 1e-9


def check_commuting(t: KrausChannel, s: KrausChannel) -> bool:
    """True iff the superoperator commutator vanishes within COMMUTATION_ATOL
    (Frobenius); certifies nothing (a product that overflows does not commute)."""
    if not (t.is_square and s.is_square and (t.dim_in, t.picture) == (s.dim_in, s.picture)):
        raise ValueError("commutation check needs square channels of equal dimension and picture")
    with np.errstate(over="ignore", invalid="ignore"):
        mt, ms = superoperator_matrix(t), superoperator_matrix(s)
        return float(np.linalg.norm(mt @ ms - ms @ mt)) <= COMMUTATION_ATOL


def _require_commuting_pair(t: KrausChannel, s: KrausChannel) -> None:
    if not check_commuting(t, s):
        raise NotCommutingError("the control channels do not commute within tolerance")


def reachable_set(
    t: KrausChannel, s: KrausChannel, rho0, n_steps: int
) -> list[tuple[int, np.ndarray]]:
    """States T^k S^(N-k)(rho0), k = 0..N, deduplicated by trace distance
    (DEDUP_ATOL): T^k after S^(N-k)(rho0), one S step past the last, as
    ``apply_word`` runs S^(N-k) T^k, so N(N+3)/2 channel steps in all.

    Every length-N word over {T, S} lands on one of these because the
    generators commute; non-commuting input is refused since the collapse
    would be wrong.  The pair's shapes and dimensions are checked first,
    then it is certified in one batch, and then tested for commutation."""
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    require_square("a control system", [t, s])
    require_certified([t, s])
    _require_commuting_pair(t, s)
    walk = [check_density_matrix(rho0)]
    for _ in range(n_steps):
        walk.append(apply_channel(s, walk[-1]))
    states: list[tuple[int, np.ndarray]] = []
    for k, out in enumerate(reversed(walk)):
        for _ in range(k):
            out = apply_channel(t, out)
        out = hermitize(out)
        if all(trace_distance(out, seen) > DEDUP_ATOL for _, seen in states):
            states.append((k, out))
    return states


def build_control_dilation(
    t: KrausChannel, s: KrausChannel, n_steps: int, max_total_dim: int = GUARDS["control"]
) -> RegisterDilation:
    """Assemble U and V over Z_L (x) Z_L, L = N + 1.

    U shifts both registers and applies the diagonal blocks
    U_(m,n) U_(m-1,n-1)^dag; V shifts only the first register with
    blocks U_(n,0) U_(n-1,0)^dag.  Nonnegative words starting from cell
    (0, 0) stay inside the L x L window, so the cyclic truncation is
    exact up to the horizon.
    """
    bundle = build_register_dilation("control", [t, s], n_steps, max_total_dim)
    _require_commuting_pair(t, s)  # on the channels the build's pass certified
    return bundle


def normalize_sequence(sequence: str | Iterable[str]) -> list[str]:
    """The steps of a control word, refused unless every one is T or S."""
    steps = list(sequence)
    if any(step not in ("T", "S") for step in steps):
        raise ValueError(f"control sequence must use the alphabet T/S, got {steps!r}")
    return steps


def evolve_control(bundle: RegisterDilation, rho0, sequence: str | Iterable[str]) -> np.ndarray:
    """Run a control word through the dilation.

    Only the number of T steps matters (the generators commute), so the
    word U^k V^(N-k) reproduces any ordering of the same letters.
    """
    steps = normalize_sequence(sequence)
    n_total = len(steps)
    check_horizon(bundle, n_total)
    rho = check_system_state(bundle, rho0)
    k = steps.count("T")
    return hermitize(reconstruct(bundle, (k, n_total - k), rho))


def _word_oracles(t: KrausChannel, s: KrausChannel, totals: Iterable[int]):
    """(label, exponents, oracle) triples for T^k S^(N-k), k = 0..N, for
    each N in ``totals``; the word U^k V^(N-k) reproduces the oracle."""
    mt, ms = superoperator_matrix(t), superoperator_matrix(s)
    for n_total in totals:
        for k in range(n_total + 1):
            oracle = np.linalg.matrix_power(mt, k) @ np.linalg.matrix_power(ms, n_total - k)
            yield f"N={n_total},k={k}", (k, n_total - k), oracle


def verify_control_dilation(
    bundle: RegisterDilation,
    t: KrausChannel,
    s: KrausChannel,
    tol: float = DILATION_ATOL,
) -> VerificationReport:
    """Residuals of the word reconstruction for every (N, k) with
    N <= horizon, k <= N, over a full operator basis."""
    require_mode(bundle, "control")
    return verify_words(bundle, (t, s), _word_oracles(t, s, range(bundle.horizon + 1)), tol)


def word_shift_marginal(bundle: RegisterDilation, rho0, k: int, n_total: int) -> np.ndarray:
    """Marginal of the dilated word state on the two shift registers;
    the construction pins it to |e_N><e_N| (x) |e_k><e_k|."""
    require_mode(bundle, "control")
    if not 0 <= k <= n_total <= bundle.horizon:
        raise HorizonError(f"word (N={n_total}, k={k}) outside the horizon {bundle.horizon}")
    rho = check_system_state(bundle, rho0)
    return reconstruct(bundle, (k, n_total - k), rho, keep=(2, 3))


def verify_reachable_inclusion(
    bundle: RegisterDilation,
    t: KrausChannel,
    s: KrausChannel,
    rho0,
    n_steps: int,
) -> VerificationReport:
    """Check R_N(rho0) against the projected closed-system words, within DILATION_ATOL.

    For each k, T^k S^(N-k)(rho0) must match the partial trace of
    U^k V^(N-k) applied to rho0 (x) omega.  Only this inclusion direction
    holds; the closed system reaches strictly more for N > 1.
    """
    check_horizon(bundle, n_steps)
    rho = check_system_state(bundle, rho0)
    # k from N down, so that each V^(N-k) J is one V step past the last
    words = reversed(list(_word_oracles(t, s, [n_steps])))
    report = verify_words(bundle, (t, s), words, DILATION_ATOL, operators=[rho])
    return VerificationReport(DILATION_ATOL, report.residuals[::-1], report.labels[::-1])


def apply_word(t: KrausChannel, s: KrausChannel, rho0, sequence: Sequence[str]) -> np.ndarray:
    """Sequential application of a control word directly to a state
    (the brute-force oracle for the dilation path)."""
    steps = normalize_sequence(sequence)
    out = check_density_matrix(rho0)
    for step in steps:
        out = apply_channel(t if step == "T" else s, out)
    return hermitize(out)
