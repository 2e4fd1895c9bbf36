"""Cyclic channels (T^m == T) and their fully finite dilations.

The exponent of a cyclic channel reduces modulo the cycle: with

    reduced_exponent(m, n) = (n - 1) mod (m - 1) + 1
    wrap_count(m, n)       = (n - reduced_exponent(m, n)) / (m - 1)

one has n == reduced + wraps * (m - 1) and T^n == T^reduced.  The shift
register of the semigroup construction then closes into the cycle: a
single unitary V on H (x) K~ (x) C^m reproduces

    T^n(A) == tr_K(V^(n + wrap_count(m, n)) (A (x) omega) (V^dag)^(...))

for every n >= 1, with no horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, superoperator_matrix
from .errors import MemoryGuardError, NotCyclicError
from .linalg import hermitize
from .register import (
    DILATION_ATOL,
    GUARDS,
    RegisterDilation,
    VerificationReport,
    build_register_dilation,
    check_system_state,
    guard_cells,
    power_words,
    reconstruct,
    require_mode,
    verify_words,
)

# Frobenius tolerance for detecting T^m == T on superoperators.
CYCLE_DETECTION_ATOL = 1e-8


@dataclass(frozen=True)
class CyclePeriod:
    """A period m >= 2 with T^m == T within detection tolerance."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("a cycle period must be at least 2")


def reduced_exponent(m: int, n: int) -> int:
    """(n - 1) mod (m - 1) + 1, the surviving exponent in range 1..m-1."""
    m, n = int(m), int(n)
    if m < 2 or n < 1:
        raise ValueError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    return (n - 1) % (m - 1) + 1


def wrap_count(m: int, n: int) -> int:
    """How many times the cycle is unwound: (n - reduced_exponent) / (m - 1)."""
    return (n - reduced_exponent(m, n)) // (m - 1)


def detect_cycle(ch: KrausChannel, m_max: int = 16) -> CyclePeriod | None:
    """Smallest m in 2..m_max with ||M(T^m) - M(T)||_F <= CYCLE_DETECTION_ATOL, else
    None; certifies nothing (a power that overflows matches no period)."""
    if m_max < 2:
        raise ValueError(f"m_max must be at least 2, got {m_max}")
    if not ch.is_square:
        raise ValueError("cycle detection needs a square channel")
    with np.errstate(over="ignore", invalid="ignore"):
        m1 = superoperator_matrix(ch)
        accumulated = m1.copy()
        for m in range(2, m_max + 1):
            accumulated = accumulated @ m1
            if np.linalg.norm(accumulated - m1) <= CYCLE_DETECTION_ATOL:
                return CyclePeriod(m)
    return None


def find_cycle(
    ch: KrausChannel, m_max: int, max_total_dim: int = GUARDS["cyclic"]
) -> CyclePeriod:
    """``detect_cycle`` up to m_max, but no further than the largest period the
    build's guard admits (``register.guard_cells``).  Raises NotCyclicError if
    none is found, MemoryGuardError naming the guard if it cut the search short
    or admits no period, before any superoperator is formed."""
    reach = min(m_max, guard_cells(ch.dim_in, max_total_dim))
    if reach < 2 <= m_max:
        raise MemoryGuardError(f"no cycle period fits the guard {max_total_dim} at "
                               f"d={ch.dim_in}; raise the limit to search up to m_max={m_max}")
    period = detect_cycle(ch, m_max=reach)
    if period is None and reach < m_max:
        raise MemoryGuardError(f"no cycle period found up to {reach}, the largest the guard "
                               f"{max_total_dim} admits at d={ch.dim_in}; raise the limit to "
                               f"search up to m_max={m_max}")
    if period is None:
        raise NotCyclicError(f"no cycle period found up to m_max={m_max}")
    return period


def reduce_power(period: CyclePeriod, n: int) -> int:
    """The equivalent exponent: T^n == T^reduced for a channel of this period."""
    return reduced_exponent(period.m, n)


def build_cyclic_dilation(
    ch: KrausChannel, period: CyclePeriod, max_total_dim: int = GUARDS["cyclic"]
) -> RegisterDilation:
    """Assemble the finite dilation of a cyclic channel.

    The cycle basis e_1..e_m of the underlying construction maps to
    zero-based register cells 0..m-1.  Cell i-1 carries the block
    U_i U_(i-1)^dag with U_0 = U_m = id, the register shifts cyclically
    with the wrap e_m -> e_1, and omega sits at cell m-1 so the first
    shift lands on the dilation of T^1.
    """
    m = period.m
    # the steps U_1 .. U_(m-1) of the semigroup table, closed by U_m := id;
    # the period is tested on the channel the build's pass certified
    bundle = build_register_dilation("cyclic", [ch], m - 1, max_total_dim)
    m1 = superoperator_matrix(ch)
    drift = np.linalg.norm(np.linalg.matrix_power(m1, m) - m1)
    if drift > CYCLE_DETECTION_ATOL:
        raise NotCyclicError(
            f"channel is not cyclic with period {m}: ||M(T^{m}) - M(T)||_F = {drift:.3e}"
        )
    return bundle


def evolve_cyclic(bundle: RegisterDilation, rho0, n: int) -> np.ndarray:
    """T^n(rho0) through the dilation with exponent n + wrap_count; any n >= 0.

    n == 0 returns the state unchanged (the dilation axiom E o J == id),
    matching the construction whose exponent formula starts at n == 1.
    """
    require_mode(bundle, "cyclic")
    if n < 0:
        raise ValueError("n must be nonnegative")
    rho = check_system_state(bundle, rho0)
    if n == 0:
        return rho
    exponent = n + wrap_count(bundle.period, n)
    return hermitize(reconstruct(bundle, (exponent,), rho))


def verify_cyclic_dilation(
    bundle: RegisterDilation,
    ch: KrausChannel,
    n_max: int = 50,
    tol: float = DILATION_ATOL,
) -> VerificationReport:
    """Residuals of the unbounded reconstruction for n = 0..n_max over a
    full operator basis, against superoperator matrix powers."""
    require_mode(bundle, "cyclic")
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    m = bundle.period
    words = power_words(ch, n_max, lambda n: n + wrap_count(m, n) if n else 0)
    return verify_words(bundle, [ch], words, tol)
