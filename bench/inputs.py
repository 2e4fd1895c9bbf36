"""Seeded benchmark inputs, generated in plain numpy.

Nothing here imports dilatio: the program under test only ever receives
the files written below, in its dilatio/channel-v1 and dilatio/state-v1
formats.  Every Kraus list returned here is the exact list written to
disk, so the oracle and the program see the same numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# The cyclic channel's Haar factor Q comes from this fixed seed, not from
# --seed: its large-n evolves fail through a known fault, and a failing
# operation is kept only on inputs that no seed can change.
CYCLIC_CHANNEL_SEED = 15
# Period of the cyclic channel: U^15 == id, so T^16 == T.
CYCLIC_ORDER = 15


def random_kraus(rng: np.random.Generator, dim: int, rank: int) -> list[np.ndarray]:
    """Kraus list of a random channel: a Gaussian (dim*rank) x dim matrix,
    orthonormalised by QR and cut into ``rank`` stacked blocks."""
    g = rng.standard_normal((dim * rank, dim)) + 1j * rng.standard_normal((dim * rank, dim))
    q, _ = np.linalg.qr(g)
    return [q[i * dim:(i + 1) * dim, :].copy() for i in range(rank)]


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A full-rank mixed state G G^dag / tr(G G^dag)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def kraus_power(kraus: list[np.ndarray], n: int) -> list[np.ndarray]:
    """Kraus list of the n-th iterate: every product of n factors."""
    out = [np.eye(kraus[0].shape[0], dtype=np.complex128)]
    for _ in range(n):
        out = [k @ p for k in kraus for p in out]
    return out


def minimal_kraus(kraus: list[np.ndarray]) -> list[np.ndarray]:
    """An equivalent Kraus list of at most d^2 operators, read off the
    eigenvectors of the Choi matrix (row-major vectorisation)."""
    d_out, d_in = kraus[0].shape
    rows = np.stack([k.reshape(-1) for k in kraus])
    choi = rows.T @ rows.conj()
    choi = 0.5 * (choi + choi.conj().T)
    values, vectors = np.linalg.eigh(choi)
    keep = values > 1e-13 * values.max()
    return [
        np.sqrt(values[i]) * vectors[:, i].reshape(d_out, d_in)
        for i in reversed(np.flatnonzero(keep))
    ]


def commuting_pair(rng: np.random.Generator, dim: int, degree: int = 3):
    """Two mixtures of the powers 0..degree of one random rank-2 channel.

    Polynomials in one map commute, so the pair commutes up to rounding."""
    base = random_kraus(rng, dim, 2)
    powers = [kraus_power(base, i) for i in range(degree + 1)]

    def mixture() -> list[np.ndarray]:
        w = rng.random(degree + 1)
        w /= w.sum()
        mixed = [np.sqrt(wi) * k for wi, ks in zip(w, powers) for k in ks]
        return minimal_kraus(mixed)

    return mixture(), mixture()


def cyclic_inputs(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q, phases, rho): U = Q diag(phases) Q^dag with U^CYCLIC_ORDER == id,
    and the fixed state the large-n evolves start from.

    The eigenphases exp(2 pi i k / 15), k = 0..dim-1, differ by steps of
    1/15, so the conjugation has period exactly 15 and T^16 == T."""
    rng = np.random.default_rng(CYCLIC_CHANNEL_SEED)
    q = haar_unitary(rng, dim)
    phases = np.exp(2j * np.pi * np.arange(dim) / CYCLIC_ORDER)
    return q, phases, random_state(rng, dim)


def _pairs(m: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m).reshape(-1)]


def write_channel(path: Path, kraus: list[np.ndarray]) -> Path:
    d_out, d_in = kraus[0].shape
    doc = {
        "format": "dilatio/channel-v1",
        "dim_in": d_in,
        "dim_out": d_out,
        "picture": "schroedinger",
        "kraus": [_pairs(k) for k in kraus],
    }
    path.write_text(json.dumps(doc, sort_keys=True), encoding="ascii")
    return path


def write_state(path: Path, rho: np.ndarray) -> Path:
    doc = {"format": "dilatio/state-v1", "dim": int(rho.shape[0]), "matrix": _pairs(rho)}
    path.write_text(json.dumps(doc, sort_keys=True), encoding="ascii")
    return path


def read_matrix(pairs: list, dim: int) -> np.ndarray:
    flat = np.array(pairs, dtype=np.float64)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(dim, dim)
