"""Two commuting channels driven by a control sequence, and their dilation.

Because T and S commute, every length-N control word collapses to
T^k S^(N-k) with k the number of T steps, so the reachable set after N
steps is the string of states {T^k S^(N-k) rho0 | k = 0..N}.  The
dilation carries two unitaries U, V on H (x) K~ (x) Z_L (x) Z_L with

    T^k S^(N-k)(A) == tr_K(U^k V^(N-k) (A (x) omega) (V^dag)^(N-k) (U^dag)^k)

for N <= horizon.  U and V need not commute; only these reconstruction
words are claimed.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .channels import (
    CPTP_ATOL,
    SCHROEDINGER,
    KrausChannel,
    apply_channel,
    compose,
    power,
    require_accepted,
    superoperator_matrix,
)
from .errors import HorizonError, NotCommutingError
from .linalg import (
    basis_state,
    check_density_matrix,
    hermitize,
    kron,
    trace_distance,
)
from .register import (
    DILATION_ATOL,
    BlockPermutation,
    RegisterDilation,
    VerificationReport,
    check_horizon,
    check_system_state,
    guard_total_dim,
    reconstruct,
    verify_words,
)
from .stinespring import stinespring_unitary

# Control dilations live on L^2 shift cells; guard the total dimension.
DEFAULT_MAX_TOTAL_DIM = 8192
COMMUTATION_ATOL = 1e-9


def check_commuting(t: KrausChannel, s: KrausChannel, tol: float = COMMUTATION_ATOL) -> bool:
    """True iff the superoperator commutator vanishes within tol (Frobenius)."""
    if t.dim_in != s.dim_in or t.dim_out != s.dim_out or t.picture != s.picture:
        raise ValueError("commutation check needs channels of equal shape and picture")
    require_accepted(t)
    require_accepted(s)
    mt = superoperator_matrix(t)
    ms = superoperator_matrix(s)
    return float(np.linalg.norm(mt @ ms - ms @ mt)) <= tol


def _require_commuting_pair(t: KrausChannel, s: KrausChannel, tol: float) -> None:
    if t.picture != SCHROEDINGER or not t.is_square:
        raise ValueError("control systems need square schroedinger channels")
    if not check_commuting(t, s, tol):
        raise NotCommutingError("the control channels do not commute within tolerance")


def reachable_set(
    t: KrausChannel,
    s: KrausChannel,
    rho0,
    n_steps: int,
    commute_tol: float = COMMUTATION_ATOL,
    dedup_tol: float = 1e-9,
) -> list[tuple[int, np.ndarray]]:
    """States T^k S^(N-k)(rho0), k = 0..N, deduplicated by trace distance.

    Every length-N word over {T, S} lands on one of these because the
    generators commute; non-commuting input is refused since the collapse
    would be wrong.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    _require_commuting_pair(t, s, commute_tol)
    rho = check_density_matrix(rho0)
    states: list[tuple[int, np.ndarray]] = []
    for k in range(n_steps + 1):
        out = rho
        for _ in range(n_steps - k):
            out = apply_channel(s, out)
        for _ in range(k):
            out = apply_channel(t, out)
        out = hermitize(out)
        if all(trace_distance(out, seen) > dedup_tol for _, seen in states):
            states.append((k, out))
    return states


def ControlDilation(
    dim: int, ancilla_dim: int, shift_dim: int, unitary_t, unitary_s, omega, horizon: int
) -> RegisterDilation:
    """Unitaries U (for T) and V (for S) over two shift registers."""
    if horizon != shift_dim - 1:
        raise ValueError("horizon must equal shift_dim - 1")
    return RegisterDilation(
        "control", dim, ancilla_dim, (shift_dim, shift_dim), (unitary_t, unitary_s), omega
    )


def _word_unitaries(t: KrausChannel, s: KrausChannel, n_steps: int, tol: float):
    """U_(M,k) dilating T^k S^(M-k) for 1 <= M <= N, 0 <= k <= M; the
    underlying construction sets every out-of-range index to the identity."""
    d = t.dim_in
    eye = np.eye(d * d * d, dtype=np.complex128)
    powers_t = [power(t, n) for n in range(n_steps + 1)]
    powers_s = [power(s, n) for n in range(n_steps + 1)]
    table: dict[tuple[int, int], np.ndarray] = {}
    for total in range(1, n_steps + 1):
        for k in range(total + 1):
            word = compose(powers_t[k], powers_s[total - k])
            table[(total, k)] = stinespring_unitary(word, tol).unitary

    def u_word(total: int, k: int) -> np.ndarray:
        if total < 1 or k < 0 or k > total:
            return eye
        return table[(total, k)]

    return u_word


def build_control_dilation(
    t: KrausChannel,
    s: KrausChannel,
    n_steps: int,
    tol: float = CPTP_ATOL,
    commute_tol: float = COMMUTATION_ATOL,
    max_total_dim: int = DEFAULT_MAX_TOTAL_DIM,
) -> RegisterDilation:
    """Assemble U and V over Z_L (x) Z_L, L = N + 1.

    U shifts both registers and applies the diagonal blocks
    U_(m,n) U_(m-1,n-1)^dag; V shifts only the first register with
    blocks U_(n,0) U_(n-1,0)^dag.  Nonnegative words starting from cell
    (0, 0) stay inside the L x L window, so the cyclic truncation is
    exact up to the horizon.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    _require_commuting_pair(t, s, commute_tol)
    require_accepted(t, tol)
    require_accepted(s, tol)

    d = t.dim_in
    shift_dim = n_steps + 1
    guard_total_dim(d * d * d * shift_dim * shift_dim, max_total_dim)

    u_word = _word_unitaries(t, s, n_steps, tol)
    # cell (m, n) of Z_L (x) Z_L is register index m * L + n
    L = shift_dim
    cells = [divmod(c, L) for c in range(L * L)]
    u = BlockPermutation(
        [(m - 1) % L * L + (n - 1) % L for m, n in cells],
        [u_word(m, n) @ u_word(m - 1, n - 1).conj().T for m, n in cells],
    )
    blocks_s = [u_word(n, 0) @ u_word(n - 1, 0).conj().T for n in range(L)]
    v = BlockPermutation([(m - 1) % L * L + n for m, n in cells], [blocks_s[m] for m, _ in cells])
    omega = kron(basis_state(0, d * d), kron(basis_state(0, shift_dim), basis_state(0, shift_dim)))
    return RegisterDilation("control", d, d * d, (shift_dim, shift_dim), (u, v), omega)


def _normalize_sequence(sequence: str | Iterable[str]) -> list[str]:
    steps = list(sequence)
    if any(step not in ("T", "S") for step in steps):
        raise ValueError(f"control sequence must use the alphabet T/S, got {steps!r}")
    return steps


def evolve_control(bundle: RegisterDilation, rho0, sequence: str | Iterable[str]) -> np.ndarray:
    """Run a control word through the dilation.

    Only the number of T steps matters (the generators commute), so the
    word U^k V^(N-k) reproduces any ordering of the same letters.
    """
    steps = _normalize_sequence(sequence)
    n_total = len(steps)
    check_horizon(bundle, n_total)
    rho = check_system_state(bundle, rho0)
    k = steps.count("T")
    return hermitize(reconstruct(bundle, (k, n_total - k), rho))


def _word_oracles(t: KrausChannel, s: KrausChannel, totals: Iterable[int]):
    """(label, exponents, oracle) triples for T^k S^(N-k), k = 0..N, for
    each N in ``totals``; the word U^k V^(N-k) reproduces the oracle."""
    mt = superoperator_matrix(t)
    ms = superoperator_matrix(s)
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
    return verify_words(bundle, (t, s), _word_oracles(t, s, range(bundle.horizon + 1)), tol)


def word_shift_marginal(bundle: RegisterDilation, rho0, k: int, n_total: int) -> np.ndarray:
    """Marginal of the dilated word state on the two shift registers;
    the construction pins it to |e_N><e_N| (x) |e_k><e_k|."""
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
    tol: float = DILATION_ATOL,
) -> VerificationReport:
    """Check R_N(rho0) against the projected closed-system words.

    For each k, T^k S^(N-k)(rho0) must match the partial trace of
    U^k V^(N-k) applied to rho0 (x) omega.  Only this inclusion direction
    holds; the closed system reaches strictly more for N > 1.
    """
    check_horizon(bundle, n_steps)
    rho = check_system_state(bundle, rho0)
    return verify_words(bundle, (t, s), _word_oracles(t, s, [n_steps]), tol, operators=[rho])


def apply_word(t: KrausChannel, s: KrausChannel, rho0, sequence: Sequence[str]) -> np.ndarray:
    """Sequential application of a control word directly to a state
    (the brute-force oracle for the dilation path)."""
    steps = _normalize_sequence(sequence)
    out = check_density_matrix(rho0)
    for step in steps:
        out = apply_channel(t if step == "T" else s, out)
    return hermitize(out)
