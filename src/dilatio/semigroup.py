"""One unitary V reproducing every power of a channel up to a horizon.

V acts on H (x) K~ (x) Z_L where K~ is the d^2 stinespring ancilla and
Z_L a cyclic shift register of length L = N + 1.  For 0 <= n <= N,

    T^n(A) == tr_K(V^n (A (x) omega) (V^dag)^n),

with omega = |psi><psi| pure on K~ (x) Z_L, held as the vector psi
(psi = e_0 (x) e_0 for a built bundle).  The bi-infinite shift of the
underlying construction is truncated to the cyclic group Z_L; powers up
to the horizon never wrap, so the truncation is exact there, and
anything past the horizon is refused instead of silently wrapping.

V is the one-channel register build: cell n carries the Stinespring
unitary u(n) of T^n (the identity at cell 0) and V the block
u(n) u(n-1)^dag, shift vector (1,).  V is held as those blocks and the
shift (``register.BlockPermutation``), never as a D x D matrix.
"""

from __future__ import annotations

import numpy as np

from .channels import KrausChannel, apply_channel, dual
from .linalg import hermitize
from .linalg import kron  # noqa: F401  bench/test_smoke.py instruments semigroup.kron
from .register import (
    DILATION_ATOL,
    GUARDS,
    RegisterDilation,
    VerificationReport,
    build_register_dilation,
    check_horizon,
    check_system_state,
    power_words,
    reconstruct,
    require_mode,
    verify_words,
    word_channel,
    word_columns,
)


def build_semigroup_dilation(
    ch: KrausChannel, n_steps: int, max_total_dim: int = GUARDS["semigroup"]
) -> RegisterDilation:
    """Assemble V = U W for the first n_steps powers of an accepted channel.

    U carries the per-power blocks U_n U_(n-1)^dag on the shift cells
    1..N (identity on cell 0), W shifts the register cyclically, and
    omega sits at shift cell 0, so V^n walks the register to cell n while
    accumulating exactly the dilation of T^n.
    """
    return build_register_dilation("semigroup", [ch], n_steps, max_total_dim)


def evolve(bundle: RegisterDilation, rho0, n: int) -> np.ndarray:
    """tr_K(V^n (rho0 (x) omega) (V^dag)^n) for 0 <= n <= horizon."""
    check_horizon(bundle, n)
    return hermitize(reconstruct(bundle, (n,), check_system_state(bundle, rho0)))


def heisenberg_evolve(bundle: RegisterDilation, b, n: int) -> np.ndarray:
    """tr_omega((V^dag)^n (B (x) id) V^n), the dual of the channel of V^n
    applied to B: the dual power S^n(B)."""
    check_horizon(bundle, n)
    return apply_channel(dual(word_channel(bundle, word_columns(bundle, (n,)))), b)


def verify_dilation(
    bundle: RegisterDilation, ch: KrausChannel, tol: float = DILATION_ATOL
) -> VerificationReport:
    """Residual table of the reconstruction identity over a full operator
    basis, per power n = 0..horizon, against superoperator matrix powers."""
    require_mode(bundle, "semigroup")
    return verify_words(bundle, [ch], power_words(ch, bundle.horizon), tol)


def shift_marginal(bundle: RegisterDilation, rho0, n: int) -> np.ndarray:
    """Marginal of V^n (rho0 (x) omega) (V^dag)^n on the shift register.

    The construction keeps the walker sharp: the marginal is |e_n><e_n|
    for every n up to the horizon.
    """
    check_horizon(bundle, n)
    return reconstruct(bundle, (n,), check_system_state(bundle, rho0), keep=2)
