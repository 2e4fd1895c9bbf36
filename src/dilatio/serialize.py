"""File formats: channel and state JSON, dilation bundles, reports.

Complex matrices travel as row-major arrays of [re, im] pairs in the
human-readable documents, and as base64 little-endian float64
interleaved re/im blobs inside bundle files.  All documents are dumped
with sorted keys and fixed separators so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ChannelFormatError
from .linalg import as_complex_matrix, check_density_matrix
from .channels import HEISENBERG, SCHROEDINGER, KrausChannel
from .register import RegisterDilation

FORMAT_CHANNEL = "dilatio/channel-v1"
FORMAT_STATE = "dilatio/state-v1"
FORMAT_BUNDLE = "dilatio/bundle-v1"

# Per bundle mode: the scalar field that sizes the registers, and the blob
# field of each generator, in RegisterDilation.forms order.
BUNDLE_FIELDS = {
    "semigroup": ("horizon", ("V",)),
    "cyclic": ("period", ("V",)),
    "control": ("horizon", ("U", "V")),
}


def matrix_to_pairs(a) -> list[list[float]]:
    m = as_complex_matrix(a)
    flat = m.reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def _json_number(value, field: str, idx: int) -> float:
    """A JSON number (an int or a float, not a bool) as a float; anything
    else, a numeric string included, is a ChannelFormatError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ChannelFormatError(
            f"field '{field}': entry {idx} must be a number, got {type(value).__name__}"
        )
    try:
        return float(value)
    except OverflowError as exc:
        raise ChannelFormatError(f"field '{field}': entry {idx} is out of range") from exc


def pairs_to_matrix(pairs, rows: int, cols: int, field: str) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != rows * cols:
        raise ChannelFormatError(
            f"field '{field}': expected {rows * cols} [re, im] pairs, got "
            f"{len(pairs) if isinstance(pairs, list) else type(pairs).__name__}"
        )
    out = np.empty(rows * cols, dtype=np.complex128)
    for idx, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ChannelFormatError(f"field '{field}': entry {idx} is not a [re, im] pair")
        out[idx] = complex(_json_number(pair[0], field, idx), _json_number(pair[1], field, idx))
    if not np.all(np.isfinite(out)):
        raise ChannelFormatError(f"field '{field}': non-finite entries")
    return out.reshape(rows, cols)


def matrix_to_blob(a) -> str:
    # a little-endian complex128 buffer already interleaves re/im float64 pairs
    m = np.ascontiguousarray(as_complex_matrix(a), dtype="<c16")
    return base64.b64encode(m).decode("ascii")


def blob_to_matrix(blob: str, rows: int, cols: int, field: str) -> np.ndarray:
    try:
        raw = base64.b64decode(blob.encode("ascii"), validate=True)
    except Exception as exc:
        raise ChannelFormatError(f"field '{field}': invalid base64 blob") from exc
    expected = rows * cols * 2 * 8
    if len(raw) != expected:
        raise ChannelFormatError(
            f"field '{field}': blob of {len(raw)} bytes, expected {expected}"
        )
    # a read-only view of the decoded bytes: every reader copies what it keeps
    return np.frombuffer(raw, dtype="<c16").reshape(rows, cols)


_JSON_LAYOUT = {"sort_keys": True, "separators": (",", ":")}


def dump_document(obj) -> str:
    return json.dumps(obj, **_JSON_LAYOUT) + "\n"


def write_json_atomic(path: str | Path, obj) -> None:
    """Write dump_document(obj) to path through a temporary file in the same
    directory, streamed so that no second copy of the document is built."""
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="ascii") as handle:
            json.dump(obj, handle, **_JSON_LAYOUT)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            # name the output, not the temporary file it was written through
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _require(doc: dict, field: str, kind, where: str):
    if field not in doc:
        raise ChannelFormatError(f"{where} is missing field '{field}'")
    value = doc[field]
    if kind is int and isinstance(value, bool):
        raise ChannelFormatError(f"{where} field '{field}' must be an integer")
    if not isinstance(value, kind):
        raise ChannelFormatError(
            f"{where} field '{field}' has type {type(value).__name__}"
        )
    return value


# ---------------------------------------------------------------- channels

def channel_to_dict(ch: KrausChannel) -> dict:
    doc = {
        "format": FORMAT_CHANNEL,
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "picture": ch.picture,
        "kraus": [matrix_to_pairs(k) for k in ch.kraus],
    }
    if ch.coefficients is not None:
        doc["coefficients"] = [float(c) for c in ch.coefficients]
    return doc


def channel_from_dict(doc: dict) -> KrausChannel:
    where = "channel document"
    if not isinstance(doc, dict):
        raise ChannelFormatError(f"{where} must be a JSON object")
    dim_in = _require(doc, "dim_in", int, where)
    dim_out = _require(doc, "dim_out", int, where)
    picture = _require(doc, "picture", str, where)
    if picture not in (SCHROEDINGER, HEISENBERG):
        raise ChannelFormatError(f"{where} field 'picture' must be schroedinger|heisenberg")
    kraus_doc = _require(doc, "kraus", list, where)
    if not kraus_doc:
        raise ChannelFormatError(f"{where} field 'kraus' is empty")
    kraus = tuple(
        pairs_to_matrix(entry, dim_out, dim_in, f"kraus[{i}]")
        for i, entry in enumerate(kraus_doc)
    )
    coefficients = None
    if "coefficients" in doc:
        raw = _require(doc, "coefficients", list, where)
        coefficients = tuple(_json_number(c, "coefficients", i) for i, c in enumerate(raw))
    try:
        return KrausChannel(dim_in, dim_out, kraus, picture=picture, coefficients=coefficients)
    except ValueError as exc:
        raise ChannelFormatError(f"{where}: {exc}") from exc


def save_channel(path: str | Path, ch: KrausChannel) -> None:
    write_json_atomic(path, channel_to_dict(ch))


def load_channel(path: str | Path) -> KrausChannel:
    return channel_from_dict(_load_json(path))


# ------------------------------------------------------------------ states

def state_to_dict(rho) -> dict:
    m = check_density_matrix(rho)
    return {"format": FORMAT_STATE, "dim": m.shape[0], "matrix": matrix_to_pairs(m)}


def state_from_dict(doc: dict) -> np.ndarray:
    where = "state document"
    if not isinstance(doc, dict):
        raise ChannelFormatError(f"{where} must be a JSON object")
    dim = _require(doc, "dim", int, where)
    matrix = pairs_to_matrix(_require(doc, "matrix", list, where), dim, dim, "matrix")
    try:
        return check_density_matrix(matrix)
    except ValueError as exc:
        raise ChannelFormatError(f"{where}: {exc}") from exc


def save_state(path: str | Path, rho) -> None:
    write_json_atomic(path, state_to_dict(rho))


def load_state(path: str | Path) -> np.ndarray:
    return state_from_dict(_load_json(path))


# ----------------------------------------------------------------- bundles

def _matrix_entry(a) -> dict:
    m = as_complex_matrix(a)
    return {"rows": m.shape[0], "cols": m.shape[1], "blob": matrix_to_blob(m)}


def _entry_matrix(doc: dict, field: str) -> np.ndarray:
    where = "bundle document"
    entry = _require(doc, field, dict, where)
    rows = _require(entry, "rows", int, f"{where} '{field}'")
    cols = _require(entry, "cols", int, f"{where} '{field}'")
    blob = _require(entry, "blob", str, f"{where} '{field}'")
    return blob_to_matrix(blob, rows, cols, field)


def bundle_to_dict(bundle: RegisterDilation, inputs: dict | None = None) -> dict:
    scalar, blobs = BUNDLE_FIELDS[bundle.mode]
    doc = {
        "format": FORMAT_BUNDLE,
        "inputs": inputs or {},
        "mode": bundle.mode,
        "shape": list(bundle.shape),
        scalar: getattr(bundle, scalar),
        "omega": _matrix_entry(bundle.omega),
    }
    for name, form in zip(blobs, bundle.forms):
        doc[name] = _matrix_entry(form.dense())
    return doc


def bundle_from_dict(doc: dict) -> RegisterDilation:
    where = "bundle document"
    if not isinstance(doc, dict):
        raise ChannelFormatError(f"{where} must be a JSON object")
    mode = _require(doc, "mode", str, where)
    shape = _require(doc, "shape", list, where)
    if not all(isinstance(d, int) and d > 0 for d in shape):
        raise ChannelFormatError(f"{where} field 'shape' must list positive integers")
    if mode not in BUNDLE_FIELDS:
        raise ChannelFormatError(f"{where} field 'mode' must be semigroup|cyclic|control")
    scalar, blobs = BUNDLE_FIELDS[mode]
    value = _require(doc, scalar, int, where)
    if len(shape) < 3:
        raise ChannelFormatError(f"{where} field 'shape' must have at least 3 factors")
    try:
        bundle = RegisterDilation(
            mode=mode,
            dim=shape[0],
            ancilla_dim=shape[1],
            registers=tuple(shape[2:]),
            generators=tuple(_entry_matrix(doc, name) for name in blobs),
            state=_entry_matrix(doc, "omega"),
        )
    except ValueError as exc:
        raise ChannelFormatError(f"{where}: {exc}") from exc
    if getattr(bundle, scalar) != value:
        raise ChannelFormatError(f"{where} field 'shape' {shape} does not match {scalar} {value}")
    return bundle


def save_bundle(path: str | Path, bundle: RegisterDilation, inputs: dict | None = None) -> None:
    write_json_atomic(path, bundle_to_dict(bundle, inputs))


def load_bundle(path: str | Path) -> RegisterDilation:
    return bundle_from_dict(_load_json(path))


def _load_json(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ChannelFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChannelFormatError(f"invalid JSON in {path}: {exc}") from exc
