"""Independent oracle: superoperator powers in plain numpy.

Built only from the generated Kraus lists, never from dilatio.  A channel
with Kraus list {K} has the column-stacking matrix M = sum conj(K) (x) K,
so T^n(rho) = unvec(M^n vec(rho)).  The cyclic channel is a conjugation
with U^15 == id, so its powers are taken from U's eigenphases.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9


def superoperator(kraus: list[np.ndarray]) -> np.ndarray:
    return sum(np.kron(k.conj(), k) for k in kraus)


def _apply(m: np.ndarray, rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    return (m @ rho.reshape(-1, order="F")).reshape(d, d, order="F")


def channel_power(m: np.ndarray, n: int, rho: np.ndarray) -> np.ndarray:
    """T^n(rho) from the superoperator matrix M of T."""
    return _apply(np.linalg.matrix_power(m, n), rho)


def control_word(mt: np.ndarray, ms: np.ndarray, k: int, n: int, rho: np.ndarray) -> np.ndarray:
    """T^k S^(n-k)(rho) for a commuting pair."""
    word = np.linalg.matrix_power(mt, k) @ np.linalg.matrix_power(ms, n - k)
    return _apply(word, rho)


def cyclic_power(q: np.ndarray, phases: np.ndarray, order: int, n: int, rho: np.ndarray):
    """U^n rho U^-n with U = Q diag(phases) Q^dag and U^order == id."""
    r = n % order
    u_r = (q * phases ** r) @ q.conj().T
    return u_r @ rho @ u_r.conj().T


def trace_norm(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False).sum())


def state_defects(rho: np.ndarray, tol: float = TOL) -> list[str]:
    """Which of Hermitian / PSD / unit trace the matrix violates."""
    defects = []
    if np.linalg.norm(rho - rho.conj().T) > tol:
        defects.append("not Hermitian")
    elif np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -tol:
        defects.append("not PSD")
    if abs(np.trace(rho) - 1.0) > tol:
        defects.append(f"trace {np.trace(rho).real:.12g}")
    return defects


def amplitude_damping(gamma: float) -> list[np.ndarray]:
    k0 = np.diag([1.0, math.sqrt(1.0 - gamma)]).astype(np.complex128)
    k1 = np.zeros((2, 2), dtype=np.complex128)
    k1[0, 1] = math.sqrt(gamma)
    return [k0, k1]


def damping_self_check(gamma: float = 0.3, powers=(1, 2, 7, 40)) -> float:
    """Largest deviation of M(T_g)^n from the closed form M(T_(1-(1-g)^n)).

    Guards the oracle's vectorisation and power convention before any
    program output is compared against it."""
    m = superoperator(amplitude_damping(gamma))
    return max(
        float(np.abs(
            np.linalg.matrix_power(m, n) - superoperator(amplitude_damping(1.0 - (1.0 - gamma) ** n))
        ).max())
        for n in powers
    )
