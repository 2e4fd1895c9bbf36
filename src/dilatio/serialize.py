"""File formats: channel and state JSON, dilation bundles, reports.

Complex matrices travel as row-major arrays of [re, im] pairs in the
human-readable documents, and as base64 little-endian float64
interleaved re/im blobs inside bundle files.  All documents are dumped
with sorted keys and fixed separators so identical inputs produce
byte-identical files.

A bundle's blobs are the dense matrices of the v1 format, but no dense
matrix is built to write or to read them: both sides work on the sparse
(flat index, value) entries of a blob.  Base64 turns every 48 bytes of a
blob into its own 64 characters, and 48 zero bytes into 64 A's.  The
writer takes a generator's entries from its blocks
(``BlockPermutation.entries``) and omega's from row chunks of psi psi^dag,
writes 64 A's for each group that holds no entry, encodes the others, and
streams the text into the file between the pieces of the JSON document.
The reader streams the file once, skips the groups of 64 A's and keeps
the entries of the others, from which it reads the blocks
(``BlockPermutation.from_entries``) and psi.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import os
import re
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ChannelFormatError
from .linalg import (
    as_complex_matrix,
    check_density_matrix,
    pure_state_vector,
    stored_entries,
)
from .channels import HEISENBERG, SCHROEDINGER, KrausChannel

if TYPE_CHECKING:  # the writer only reads a bundle's attributes; see _bundle_from_doc
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


_JSON_LAYOUT = {"sort_keys": True, "separators": (",", ":")}


def dump_document(obj) -> str:
    return json.dumps(obj, **_JSON_LAYOUT) + "\n"


def _write_atomic(path: str | Path, write) -> None:
    """Call write(handle) on a binary temporary file in path's directory
    and move it over path.  On any failure the temporary file is removed,
    path is left as it was, and an OSError names path, not the temporary
    file it was written through."""
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def write_json_atomic(path: str | Path, obj) -> None:
    """Write dump_document(obj) to path through a temporary file."""
    _write_atomic(path, lambda handle: handle.write(dump_document(obj).encode("ascii")))


def file_digest(path: str | Path) -> str:
    """The sha256 of a file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


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


def _size(doc: dict, field: str, where: str) -> int:
    """A positive integer field, refused by name before any array is shaped."""
    value = _require(doc, field, int, where)
    if value <= 0:
        raise ChannelFormatError(f"{where} field '{field}' must be positive, got {value}")
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
    dim_in = _size(doc, "dim_in", where)
    dim_out = _size(doc, "dim_out", where)
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
    dim = _size(doc, "dim", where)
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

# Raw bytes per written piece of a blob and per omega chunk, a multiple of
# 48: every piece but the last of a blob encodes whole base64 groups.
_PIECE = 3 << 15
# Base64 maps each 48 raw bytes (3 complex entries), counted from the start
# of a blob, to its own group of 64 characters, and 48 zero bytes to 64 A's.
_RAW_GROUP, _GROUP = 48, 64
_ZERO_GROUP = 0x4141414141414141  # eight A's, as a little-endian uint64
# Bytes per read of a bundle file.
_CHUNK = 1 << 20

# The alphabet and padding checks of b64decode(validate=True), which
# a2b_base64 does not make: it skips bytes outside the alphabet.
_BASE64 = re.compile(rb"[A-Za-z0-9+/]*={0,2}")


def _a2b(text: bytes) -> bytes:
    if not _BASE64.fullmatch(text):
        raise binascii.Error("non-base64 data")
    return binascii.a2b_base64(text)


def _blob_pieces(index, values, count: int):
    """The base64 of the ``count``-entry little-endian complex128 vector
    that holds ``values`` at the ascending flat ``index`` and 0 elsewhere,
    one piece of whole groups at a time: 64 A's for each group that holds
    no entry, one b2a_base64 call over the groups that do, and the last,
    partial group encoded on its own."""
    whole = count // 3  # the groups of three entries
    group = index // 3
    step = _PIECE // _RAW_GROUP
    for start in range(0, whole, step):
        stop = min(start + step, whole)
        lo, hi = np.searchsorted(group, (start, stop))
        text = np.full((stop - start, _GROUP), ord("A"), dtype=np.uint8)
        if hi > lo:
            live, slot = np.unique(group[lo:hi], return_inverse=True)
            raw = np.zeros((live.size, 3), dtype="<c16")
            raw[slot, index[lo:hi] % 3] = values[lo:hi]
            encoded = binascii.b2a_base64(raw, newline=False)
            text[live - start] = np.frombuffer(encoded, dtype=np.uint8).reshape(-1, _GROUP)
        yield text.tobytes()
    if count % 3:
        lo = np.searchsorted(index, 3 * whole)
        raw = np.zeros(count % 3, dtype="<c16")
        raw[index[lo:] - 3 * whole] = values[lo:]
        yield binascii.b2a_base64(raw, newline=False)


def _state_pieces(psi: np.ndarray):
    """The base64 pieces of omega = psi psi^dag, from the stored entries of
    the product itself, so that every zero keeps its sign, in chunks of a
    multiple of 3 rows, about _PIECE bytes each: every chunk but the last
    then ends on a group boundary."""
    step = 3 * max(1, _PIECE // (48 * psi.size))
    conj = psi.conj()
    for start in range(0, psi.size, step):
        rows = np.outer(psi[start:start + step], conj)
        yield from _blob_pieces(*stored_entries(rows), rows.size)


class _BlobEntries:
    """The entries of one base64 blob, fed in pieces.  A group of 64 A's
    (48 zero bytes) is skipped; every other group is decoded strictly, three
    complex entries each.  The last group, the only one that may carry
    padding, waits for ``entries`` and is decoded on its own.  A decoding
    error is kept, not raised, until the blob's field is known."""

    def __init__(self):
        self.pending = b""  # the undecoded end of the blob, at most one group
        self.groups = 0  # whole groups decoded or skipped
        self.index, self.values = [], []
        self.error = None

    def feed(self, text) -> None:
        if self.error is not None:
            return
        if len(self.pending) + len(text) <= _GROUP:
            self.pending += bytes(text)
            return
        try:
            if self.pending:
                head = _GROUP - len(self.pending)
                self._decode(self.pending + bytes(text[:head]))
                text = text[head:]
            cut = (len(text) - 1) // _GROUP * _GROUP
            self._decode(text[:cut])
            self.pending = bytes(text[cut:])
        except binascii.Error as exc:
            self.error = exc

    def _decode(self, text) -> None:
        count = len(text) // _GROUP
        words = np.frombuffer(text, dtype="<u8").reshape(count, _GROUP // 8)
        live = np.flatnonzero((words != _ZERO_GROUP).any(axis=1))
        if live.size:
            chars = np.frombuffer(text, dtype=np.uint8).reshape(count, _GROUP)
            raw = _a2b(chars[live].tobytes())
            if len(raw) != _RAW_GROUP * live.size:
                raise binascii.Error("padding inside the blob")
            index, values = _stored(3 * (self.groups + live), 3, raw)
            self.index.append(index)
            self.values.append(values)
        self.groups += count

    def entries(self, rows: int, cols: int, field: str):
        """(flat index, value) of the decoded entries of a rows x cols matrix."""
        try:
            if self.error is not None:
                raise self.error
            tail = _a2b(self.pending)
        except binascii.Error as exc:
            raise ChannelFormatError(f"field '{field}': invalid base64 blob") from exc
        size = _RAW_GROUP * self.groups + len(tail)
        if size != rows * cols * 16:
            raise ChannelFormatError(
                f"field '{field}': blob of {size} bytes, expected {rows * cols * 16}"
            )
        index, values = _stored(np.array([3 * self.groups]), len(tail) // 16, tail)
        return np.concatenate([*self.index, index]), np.concatenate([*self.values, values])


def _stored(first: np.ndarray, count: int, raw: bytes):
    """(flat index, value) of the stored entries of decoded groups of
    ``count`` entries, the groups starting at flat indices ``first``."""
    local, values = stored_entries(np.frombuffer(raw, dtype="<c16"))
    return first[local // count] + local % count, values


def _pure_state_of_entries(index, values, dim: int) -> np.ndarray:
    """pure_state_vector of the dim x dim omega holding ``values`` at the flat
    ``index``, run on the dense block of the rows and columns holding one."""
    row, col = np.divmod(index, dim)
    support = np.union1d(row, col)
    block = np.zeros((support.size, support.size), dtype=np.complex128)
    block[np.searchsorted(support, row), np.searchsorted(support, col)] = values
    psi = np.zeros(dim, dtype=np.complex128)
    psi[support] = pure_state_vector(block, support.size)
    return psi


def _bundle_document(bundle: RegisterDilation, inputs: dict | None):
    """The bundle document, in which the value of each "blob" key is None,
    and the base64 pieces of each blob, in the sorted order of their fields,
    which is the order of the "blob" keys in the dumped document."""
    scalar, names = BUNDLE_FIELDS[bundle.mode]
    doc = {
        "format": FORMAT_BUNDLE,
        "inputs": inputs or {},
        "mode": bundle.mode,
        "shape": list(bundle.shape),
        scalar: getattr(bundle, scalar),
    }
    sides = {"omega": bundle.psi.size}
    blobs = {"omega": _state_pieces(bundle.psi)}
    for name, form in zip(names, bundle.forms):
        sides[name] = form.dim
        blobs[name] = _blob_pieces(*form.entries(), form.dim ** 2)
    for name, side in sides.items():
        doc[name] = {"rows": side, "cols": side, "blob": None}
    return doc, [blobs[name] for name in sorted(blobs)]


def _bundle_from_doc(doc, blobs: list[_BlobEntries], path: str | Path) -> RegisterDilation:
    """The bundle of the parsed header of the file at path, in which the
    value of each "blob" key is one of blobs (see _split_bundle); each of
    blobs must be claimed by one entry."""
    # imported here, the one place that builds a bundle, so that the calls
    # that never read one (check, reachable) do not load the dilation core
    from .register import BlockPermutation, RegisterDilation

    where = "bundle document"
    if not isinstance(doc, dict):
        raise ChannelFormatError(f"{where} must be a JSON object")
    mode = _require(doc, "mode", str, where)
    shape = _require(doc, "shape", list, where)
    if not all(type(d) is int and d > 0 for d in shape):  # a bool is no size
        raise ChannelFormatError(f"{where} field 'shape' must list positive integers")
    if mode not in BUNDLE_FIELDS:
        raise ChannelFormatError(f"{where} field 'mode' must be semigroup|cyclic|control")
    scalar, names = BUNDLE_FIELDS[mode]
    value = _require(doc, scalar, int, where)
    if len(shape) < 3:
        raise ChannelFormatError(f"{where} field 'shape' must have at least 3 factors")
    cells = int(np.prod(shape[2:]))
    anc = shape[1] * cells
    total = shape[0] * anc

    def entries(field: str, side: int):
        entry = _require(doc, field, dict, where)
        rows = _require(entry, "rows", int, f"{where} '{field}'")
        cols = _require(entry, "cols", int, f"{where} '{field}'")
        blob = _require(entry, "blob", _BlobEntries, f"{where} '{field}'")
        index, values = blob.entries(rows, cols, field)
        if (rows, cols) != (side, side):
            kind = "unitary" if field != "omega" else "ancilla state"
            raise ChannelFormatError(
                f"{where}: {kind} of shape {(rows, cols)}, expected {(side, side)}"
            )
        return index, values

    try:
        forms = [
            BlockPermutation.from_entries(*entries(name, total), total, cells) for name in names
        ]
        bundle = RegisterDilation(
            mode=mode,
            dim=shape[0],
            ancilla_dim=shape[1],
            registers=tuple(shape[2:]),
            forms=forms,
            psi=_pure_state_of_entries(*entries("omega", anc), anc),
        )
    except ChannelFormatError:
        raise
    except ValueError as exc:
        raise ChannelFormatError(f"{where}: {exc}") from exc
    if getattr(bundle, scalar) != value:
        raise ChannelFormatError(f"{where} field 'shape' {shape} does not match {scalar} {value}")
    # each blob sits at one "blob" key, so the entries hold distinct blobs and
    # any further blob went unclaimed
    if len(blobs) != len(names) + 1:
        raise ChannelFormatError(f"bundle file {path}: a \"blob\" key outside a bundle entry")
    return bundle


def save_bundle(path: str | Path, bundle: RegisterDilation, inputs: dict | None = None) -> None:
    """Write the v1 bundle file of bundle to path: the JSON document with
    sorted keys and fixed separators (see dump_document) whose blob fields
    hold omega and the dense generators.  The header is dumped with null
    blobs, and each blob is streamed from psi or the blocks into the file
    in place of the null at its "blob" key."""
    doc, blobs = _bundle_document(bundle, inputs)
    header = dump_document(doc)
    # a quote after "{" or "," opens a key: inside a string it is escaped, and
    # '"blob":' follows no closing quote; so these count the "blob" keys at any
    # depth, and each entry's, its first key, is at '{"blob":null'
    if header.count('{"blob":') + header.count(',"blob":') != len(blobs):
        raise ValueError('bundle inputs hold a "blob" key, which load_bundle refuses')
    parts = header.split('{"blob":null')

    def write(handle):
        handle.write(parts[0].encode("ascii"))
        for pieces, text in zip(blobs, parts[1:]):
            handle.write(b'{"blob":"')
            for piece in pieces:
                handle.write(piece)
            handle.write(b'"' + text.encode("ascii"))

    _write_atomic(path, write)


def _split_bundle(handle, digest):
    """One pass over a bundle file: the JSON header, in which null stands
    for the string value of every "blob" key, and the _BlobEntries of each
    blob, in file order.  Only the header is scanned a byte at a time; a
    blob runs to the next quote, which a valid blob cannot hold."""
    header = bytearray()
    blobs = []
    blob = None  # the blob being read
    in_string = escaped = False
    start = 0  # where the current string token starts in the header
    expect = None  # after the key "blob": the colon, then the opening quote
    buffer = bytearray(_CHUNK)
    view = memoryview(buffer)
    while size := handle.readinto(buffer):
        if digest is not None:
            digest.update(view[:size])
        pos = 0
        while pos < size:
            if blob is not None:
                end = buffer.find(b'"', pos, size)
                blob.feed(view[pos:size if end < 0 else end])
                if end < 0:
                    break
                blob, pos = None, end + 1
                continue
            char = buffer[pos]
            pos += 1
            if in_string:
                header.append(char)
                if escaped:
                    escaped = False
                elif char == ord("\\"):
                    escaped = True
                elif char == ord('"'):
                    in_string = False
                    expect = ":" if header[start:] == b'"blob"' else None
            elif char in b" \t\n\r":
                header.append(char)
            elif expect == ":" and char == ord(":"):
                header.append(char)
                expect = '"'
            elif expect == '"' and char == ord('"'):
                header += b"null"
                blob, expect = _BlobEntries(), None
                blobs.append(blob)
            else:
                header.append(char)
                expect = None
                if char == ord('"'):
                    in_string, start = True, len(header) - 1
    return bytes(header), blobs


def load_bundle(path: str | Path, digest=None) -> RegisterDilation:
    """The bundle in a v1 file, read once in bounded chunks: no dense matrix
    and no blob string is built, only the entries of the base64 groups that
    are not all zero.  ``digest``, a hashlib object, is updated with every
    byte of the file."""
    try:
        with open(path, "rb", buffering=0) as handle:
            header, blobs = _split_bundle(handle, digest)
    except OSError as exc:
        raise ChannelFormatError(f"cannot read {path}: {exc}") from exc
    left = iter(blobs)

    def claim(pairs):
        # objects complete inner-first: a "blob" key outside an entry can
        # shift the order, but then leaves a blob unclaimed
        for at, (key, value) in enumerate(pairs):
            if key == "blob":
                blob = next(left, None) if value is None else None
                if blob is None:
                    raise ChannelFormatError(
                        f"bundle file {path}: a blob is not a plain base64 string"
                    )
                pairs[at] = key, blob
        return dict(pairs)

    return _bundle_from_doc(_parse_json(header, path, claim), blobs, path)


def _load_json(path: str | Path) -> dict:
    try:
        text = Path(path).read_bytes()
    except OSError as exc:
        raise ChannelFormatError(f"cannot read {path}: {exc}") from exc
    return _parse_json(text, path)


def _parse_json(text: bytes, path: str | Path, object_pairs_hook=None):
    try:
        return json.loads(text.decode("utf-8"), object_pairs_hook=object_pairs_hook)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ChannelFormatError(f"invalid JSON in {path}: {exc}") from exc
