"""Shared test utilities and independent brute-force oracles.

The oracles here deliberately avoid the package's code paths for the
operations they check: Kraus sandwiches are spelled out with plain numpy,
superoperator powers use numpy matrix powers, and pairings evaluate both
sides of the defining identities directly.  The one dense D x D
reference of a register bundle (``dense``, ``omega``, ``partial_trace``)
lives here too: the library holds no dense generator or state.  A bundle
reaches a parsed v1 document and back only through the files that
``save_bundle`` writes and ``load_bundle`` reads (``bundle_document``,
``load_document``).
"""

import json

import numpy as np

from dilatio.serialize import load_bundle, save_bundle


def random_matrix(dim, rng, rows=None):
    rows = dim if rows is None else rows
    return rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))


def random_hermitian(dim, rng):
    g = random_matrix(dim, rng)
    return 0.5 * (g + g.conj().T)


def random_density(dim, rng):
    g = random_matrix(dim, rng)
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_isometry(rows, cols, rng):
    q, _ = np.linalg.qr(random_matrix(cols, rng, rows=rows))
    return q


def kraus_apply(kraus, a, coefficients=None):
    """Direct Schroedinger sandwich sum_i c_i K_i a K_i^dag."""
    coefficients = coefficients or [1.0] * len(kraus)
    return sum(c * (k @ a @ k.conj().T) for c, k in zip(coefficients, kraus))


def kraus_apply_dual(kraus, b, coefficients=None):
    """Direct Heisenberg sandwich sum_i c_i K_i^dag b K_i."""
    coefficients = coefficients or [1.0] * len(kraus)
    return sum(c * (k.conj().T @ b @ k) for c, k in zip(coefficients, kraus))


def channel_matrix_oracle(kraus, coefficients=None):
    """Column-stacking superoperator assembled entry by entry from the
    action on matrix units (never via the kron identity the package uses)."""
    d_out, d_in = kraus[0].shape
    m = np.zeros((d_out * d_out, d_in * d_in), dtype=np.complex128)
    col = 0
    for j in range(d_in):
        for i in range(d_in):
            e = np.zeros((d_in, d_in), dtype=np.complex128)
            e[i, j] = 1.0
            m[:, col] = kraus_apply(kraus, e, coefficients).flatten(order="F")
            col += 1
    return m


def fro(a):
    return float(np.linalg.norm(a))


def tn(a):
    """Trace norm via singular values, local to the tests."""
    return float(np.linalg.svd(a, compute_uv=False).sum())


def dense(form):
    """The D x D matrix of a block permutation: its entries scattered into zeros."""
    index, values = form.entries()
    g = np.zeros(form.dim * form.dim, dtype=np.complex128)
    g[index] = values
    return g.reshape(form.dim, form.dim)


def omega(bundle):
    """The dense ancilla state |psi><psi| of a register bundle."""
    return np.outer(bundle.psi, bundle.psi.conj())


def partial_trace(a, dims, keep):
    """Trace out every factor of the big-endian product ``dims`` that
    ``keep`` (one index or several) does not list; the kept factors stay
    in their order."""
    keep = sorted({keep} if isinstance(keep, int) else set(keep))
    n = len(dims)
    columns = [n + i if i in keep else i for i in range(n)]
    out = np.einsum(np.reshape(a, list(dims) * 2), list(range(n)) + columns,
                    keep + [n + i for i in keep])
    size = int(np.prod([dims[i] for i in keep]))
    return out.reshape(size, size)


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` for the test: each call appends its positional
    arguments to the returned list, then runs the original."""
    calls, original = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def bundle_document(bundle, tmp_path, inputs=None):
    """The parsed JSON document of the file save_bundle writes."""
    path = tmp_path / "saved.bundle"
    save_bundle(path, bundle, inputs)
    return json.loads(path.read_text(encoding="ascii"))


def load_document(doc, tmp_path):
    """load_bundle of a bundle document dumped to a file."""
    path = tmp_path / "document.bundle"
    path.write_text(json.dumps(doc), encoding="ascii")
    return load_bundle(path)
