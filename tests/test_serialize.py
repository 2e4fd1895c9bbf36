import base64
import errno
import hashlib
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatio.channels import (
    KrausChannel,
    dual,
    random_channel,
    superoperator_matrix,
    verify_cptp,
)
from dilatio.cli import main
from dilatio.control import build_control_dilation, verify_control_dilation
from dilatio.cyclic import CyclePeriod, build_cyclic_dilation, verify_cyclic_dilation
from dilatio.errors import ChannelFormatError
from dilatio.fixtures import (
    amplitude_damping,
    haar_unitary,
    random_commuting_pair,
    rotation_channel,
    transpose_channel,
)
from dilatio.linalg import stored_entries
from dilatio.register import BlockPermutation, RegisterDilation
from dilatio.semigroup import build_semigroup_dilation, verify_dilation
from dilatio.serialize import (
    _BlobEntries,
    channel_from_dict,
    channel_to_dict,
    dump_document,
    file_digest,
    load_bundle,
    load_channel,
    load_state,
    matrix_to_blob,
    save_bundle,
    save_channel,
    save_state,
    state_from_dict,
    state_to_dict,
    write_json_atomic,
)

from helpers import (
    bundle_document,
    dense,
    fro,
    load_document,
    omega,
    random_density,
    random_matrix,
)

DATA = Path(__file__).parent / "data"


class TestMatrixEncodings:
    def test_pairs_roundtrip_through_channel_dict(self):
        ch = random_channel(3, rank=2, seed=0)
        again = channel_from_dict(channel_to_dict(ch))
        for a, b in zip(ch.kraus, again.kraus):
            np.testing.assert_array_equal(a, b)

    def test_blob_is_the_interleaved_float64_encoding(self):
        rng = np.random.default_rng(2)
        m = random_matrix(4, rng, rows=3)
        m[0, 0] = complex(-0.0, 0.5)
        m[1, 2] = complex(0.25, -0.0)
        m[2, 3] = complex(-0.0, -0.0)
        interleaved = np.empty(m.shape + (2,), dtype="<f8")
        interleaved[..., 0] = m.real
        interleaved[..., 1] = m.imag
        assert matrix_to_blob(m) == base64.b64encode(interleaved.tobytes()).decode("ascii")

    def test_blob_roundtrip_keeps_every_bit(self):
        rng = np.random.default_rng(3)
        m = random_matrix(3, rng, rows=4)
        m[0, 1] = complex(-0.0, -0.0)
        m[3, 2] = complex(5e-324, -1e308)
        blob = matrix_to_blob(m).encode("ascii")
        # the bundle reader's decoder, fed across group boundaries
        entries = _BlobEntries()
        for start in range(0, len(blob), 50):
            entries.feed(blob[start:start + 50])
        index, values = entries.entries(4, 3, "x")
        again = np.zeros(12, dtype=np.complex128)
        again[index] = values
        assert again.tobytes() == m.tobytes()

    def test_signed_coefficients_roundtrip(self):
        ch = transpose_channel()
        again = channel_from_dict(channel_to_dict(ch))
        assert again.coefficients == ch.coefficients
        assert not verify_cptp(again).cp

    def test_picture_survives(self):
        s = dual(amplitude_damping(0.2))
        again = channel_from_dict(channel_to_dict(s))
        assert again.picture == "heisenberg"


class TestChannelFiles:
    def test_save_load(self, tmp_path):
        path = tmp_path / "ch.json"
        ch = random_channel(2, rank=3, seed=2)
        save_channel(path, ch)
        again = load_channel(path)
        assert fro(superoperator_matrix(again) - superoperator_matrix(ch)) == 0.0

    def test_missing_field_is_named(self):
        doc = channel_to_dict(amplitude_damping(0.1))
        del doc["kraus"]
        with pytest.raises(ChannelFormatError, match="kraus"):
            channel_from_dict(doc)

    def test_wrong_pair_count_is_named(self):
        doc = channel_to_dict(amplitude_damping(0.1))
        doc["kraus"][0] = doc["kraus"][0][:-1]
        with pytest.raises(ChannelFormatError, match=r"kraus\[0\]"):
            channel_from_dict(doc)

    @pytest.mark.parametrize("dim_in, dim_out, field", [
        (-1, -1, "dim_in"), (2, -1, "dim_out"), (0, 2, "dim_in"), (2, 0, "dim_out"),
    ])
    def test_nonpositive_dimensions_are_named(self, dim_in, dim_out, field):
        doc = channel_to_dict(amplitude_damping(0.1))
        doc["dim_in"], doc["dim_out"] = dim_in, dim_out
        doc["kraus"] = [[[1.0, 0.0]] * abs(dim_in * dim_out)]
        with pytest.raises(ChannelFormatError, match=f"field '{field}' must be positive"):
            channel_from_dict(doc)

    def test_bad_picture(self):
        doc = channel_to_dict(amplitude_damping(0.1))
        doc["picture"] = "interaction"
        with pytest.raises(ChannelFormatError, match="picture"):
            channel_from_dict(doc)

    def test_truncated_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim_in": 2, "dim_out"')
        with pytest.raises(ChannelFormatError, match="invalid JSON"):
            load_channel(path)


    @pytest.mark.parametrize("pair, kind", [
        ([None, 0.0], "NoneType"),
        ([[1.0], 0.0], "list"),
        (["1", "0"], "str"),
        ([True, 0.0], "bool"),
        ([0.0, False], "bool"),
    ])
    def test_pair_entries_must_be_numbers(self, pair, kind):
        doc = channel_to_dict(amplitude_damping(0.1))
        doc["kraus"][1][2] = pair
        with pytest.raises(ChannelFormatError,
                           match=rf"field 'kraus\[1\]': entry 2 must be a number, got {kind}"):
            channel_from_dict(doc)

    def test_integer_entries_are_numbers(self):
        doc = channel_to_dict(transpose_channel())
        doc["kraus"] = [[[int(re), int(im)] for re, im in k] for k in doc["kraus"]]
        doc["coefficients"] = [1, 1, -1, 1]
        again = channel_from_dict(doc)
        assert again.coefficients == (1.0, 1.0, -1.0, 1.0)
        np.testing.assert_array_equal(again.stack, transpose_channel().stack)

    @pytest.mark.parametrize("value, kind", [(None, "NoneType"), ("0.5", "str"), (True, "bool")])
    def test_coefficients_must_be_numbers(self, value, kind):
        doc = channel_to_dict(transpose_channel())
        doc["coefficients"][3] = value
        with pytest.raises(ChannelFormatError,
                           match=f"field 'coefficients': entry 3 must be a number, got {kind}"):
            channel_from_dict(doc)

    def test_integer_out_of_float_range_is_named(self):
        doc = channel_to_dict(amplitude_damping(0.1))
        doc["kraus"][0][0] = [10 ** 400, 0]
        with pytest.raises(ChannelFormatError, match=r"entry 0 is out of range"):
            channel_from_dict(doc)


class TestStateFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        rho = random_density(3, rng)
        path = tmp_path / "state.json"
        save_state(path, rho)
        np.testing.assert_allclose(load_state(path), rho, atol=1e-15)

    def test_rejects_non_state(self):
        with pytest.raises(ChannelFormatError):
            state_from_dict({"format": "dilatio/state-v1", "dim": 2,
                             "matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]})

    def test_trace_check(self):
        doc = state_to_dict(np.diag([1.0, 0.0]))
        doc["matrix"][0] = [0.7, 0.0]
        with pytest.raises(ChannelFormatError):
            state_from_dict(doc)


    @pytest.mark.parametrize("dim, matrix", [(0, []), (-1, [[1.0, 0.0]])])
    def test_nonpositive_dim_is_named(self, dim, matrix):
        doc = {"format": "dilatio/state-v1", "dim": dim, "matrix": matrix}
        with pytest.raises(ChannelFormatError, match="field 'dim' must be positive"):
            state_from_dict(doc)

    @pytest.mark.parametrize("pair", [[None, 0], ["1", "0"], [True, 0]])
    def test_state_entries_must_be_numbers(self, pair):
        doc = state_to_dict(np.diag([1.0, 0.0]))
        doc["matrix"][3] = pair
        with pytest.raises(ChannelFormatError, match="field 'matrix': entry 3 must be a number"):
            state_from_dict(doc)


class TestBundleFiles:
    def test_semigroup_roundtrip_verifies_identically(self, tmp_path):
        ch = amplitude_damping(0.5)
        bundle = build_semigroup_dilation(ch, 4)
        path = tmp_path / "b.json"
        save_bundle(path, bundle, {"channel": "x"})
        again = load_bundle(path)
        direct = verify_dilation(bundle, ch)
        loaded = verify_dilation(again, ch)
        assert direct.residuals == loaded.residuals
        assert loaded.passed

    def test_cyclic_roundtrip(self, tmp_path):
        ch = rotation_channel(4)
        bundle = build_cyclic_dilation(ch, CyclePeriod(4))
        path = tmp_path / "b.json"
        save_bundle(path, bundle)
        again = load_bundle(path)
        assert again.period == 4
        assert verify_cyclic_dilation(again, ch, n_max=10).passed

    def test_control_roundtrip(self, tmp_path):
        t, s = random_commuting_pair(2, seed=4)
        bundle = build_control_dilation(t, s, 2)
        path = tmp_path / "b.json"
        save_bundle(path, bundle)
        again = load_bundle(path)
        assert verify_control_dilation(again, t, s).passed

    def test_dump_is_deterministic(self, tmp_path):
        bundle = build_semigroup_dilation(amplitude_damping(0.3), 2)
        save_bundle(tmp_path / "a.bundle", bundle, {"channel": "d"})
        save_bundle(tmp_path / "b.bundle", bundle, {"channel": "d"})
        assert (tmp_path / "a.bundle").read_bytes() == (tmp_path / "b.bundle").read_bytes()

    def test_corrupted_blob_is_rejected(self, tmp_path):
        bundle = build_semigroup_dilation(amplitude_damping(0.3), 2)
        doc = bundle_document(bundle, tmp_path)
        doc["V"]["blob"] = doc["V"]["blob"][:-8]
        with pytest.raises(ChannelFormatError):
            load_document(doc, tmp_path)

    def test_unknown_mode_rejected(self, tmp_path):
        bundle = build_semigroup_dilation(amplitude_damping(0.3), 2)
        doc = bundle_document(bundle, tmp_path)
        doc["mode"] = "lindblad"
        with pytest.raises(ChannelFormatError, match="mode"):
            load_document(doc, tmp_path)

    def test_cyclic_shape_must_match_period(self, tmp_path):
        doc = bundle_document(build_cyclic_dilation(rotation_channel(4), CyclePeriod(4)), tmp_path)
        assert doc["shape"] == [2, 4, 4]
        doc["shape"] = [2, 4, 99]
        with pytest.raises(ChannelFormatError):
            load_document(doc, tmp_path)
        doc["shape"], doc["period"] = [2, 4, 4], 5
        with pytest.raises(ChannelFormatError, match="period"):
            load_document(doc, tmp_path)

    def test_control_shape_must_match_horizon(self, tmp_path):
        t, s = random_commuting_pair(2, seed=4)
        doc = bundle_document(build_control_dilation(t, s, 2), tmp_path)
        assert doc["shape"] == [2, 4, 3, 3]
        doc["shape"] = [2, 4, 3, 77]
        with pytest.raises(ChannelFormatError):
            load_document(doc, tmp_path)

    @pytest.mark.parametrize("shape", [[True, True, 3], [1, True, 3]])
    def test_shape_sizes_are_positive_integers(self, tmp_path, shape):
        # the one-dimensional channel's bundle has shape [1, 1, 3]: a bool
        # equals 1 and would otherwise give a bundle whose dim is True
        bundle = build_semigroup_dilation(KrausChannel(1, 1, (np.eye(1),)), 2)
        doc = bundle_document(bundle, tmp_path)
        assert doc["shape"] == [1, 1, 3]
        doc["shape"] = shape
        with pytest.raises(ChannelFormatError, match="field 'shape' must list positive integers"):
            load_document(doc, tmp_path)

    def test_non_unitary_payload_rejected(self, tmp_path):
        bundle = build_semigroup_dilation(amplitude_damping(0.3), 2)
        doc = bundle_document(bundle, tmp_path)
        m = np.frombuffer(base64.b64decode(doc["V"]["blob"]), "<c16")
        doc["V"]["blob"] = matrix_to_blob(m.reshape(doc["V"]["rows"], doc["V"]["cols"]) * 1.5)
        with pytest.raises(ChannelFormatError):
            load_document(doc, tmp_path)


def test_atomic_write_is_the_dumped_document(tmp_path):
    bundle = build_semigroup_dilation(amplitude_damping(0.3), 3)
    doc = bundle_document(bundle, tmp_path, {"channel": "d"})
    path = tmp_path / "b.bundle"
    write_json_atomic(path, doc)
    assert path.read_text(encoding="ascii") == dump_document(doc)


def test_failed_encode_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(TypeError):
        write_json_atomic(path, {"a": 1, "b": object()})
    assert list(tmp_path.iterdir()) == []


def test_file_digest_changes_with_content(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.write_text("one")
    b.write_text("two")
    assert file_digest(a) != file_digest(b)
    assert len(file_digest(a)) == 64


# ---------------------------------------------------------- streamed writer

def _with_negated_first_block(bundle):
    """The bundle with its first cell's block negated in every generator:
    the zeros of an identity block become -0.0."""
    forms = []
    for form in bundle.forms:
        blocks = form.blocks.copy()
        blocks[0] *= -1
        forms.append(BlockPermutation(form.src, blocks))
    return RegisterDilation(bundle.mode, bundle.dim, bundle.ancilla_dim, bundle.registers,
                            forms, bundle.psi)


def _writer_bundle(mode, length):
    """A bundle whose registers have ``length`` cells each."""
    if mode == "semigroup":
        return build_semigroup_dilation(random_channel(2, 3, length), length - 1)
    if mode == "cyclic":
        return build_cyclic_dilation(rotation_channel(length), CyclePeriod(length))
    if mode == "control":
        t, s = random_commuting_pair(2, seed=length)
        return build_control_dilation(t, s, length - 1)
    if mode == "signed-psi":
        # psi with exact +0 and -0 parts: omega's products of them are signed zeros
        bundle = _writer_bundle("semigroup", length)
        rng = np.random.default_rng(length)
        psi = rng.standard_normal(bundle.psi.size) + 1j * rng.standard_normal(bundle.psi.size)
        psi[::3] = 0.0
        psi[1::4] = complex(-0.0, -0.0)
        psi[2::5] = complex(-0.0, 0.5)
        return RegisterDilation(bundle.mode, bundle.dim, bundle.ancilla_dim, bundle.registers,
                                bundle.forms, psi / np.linalg.norm(psi))
    # one register cell (horizon 0) whose one block is a Haar unitary, so
    # the blob holds no zero group; psi is no basis state
    rng = np.random.default_rng(length)
    anc = 4 * length
    psi = rng.standard_normal(anc) + 1j * rng.standard_normal(anc)
    v = BlockPermutation([0], haar_unitary(2 * anc, rng)[np.newaxis])
    return RegisterDilation("semigroup", 2, anc, (1,), (v,), psi / np.linalg.norm(psi))


WRITER_CASES = [
    (mode, length)
    for mode in ("semigroup", "cyclic", "control", "one-cell")
    for length in (2, 3, 4, 5)
] + [("semigroup", 32), ("signed-psi", 20)]  # blobs, and omega, span several pieces


@pytest.mark.parametrize("mode, length", WRITER_CASES)
def test_streamed_bundle_is_the_dumped_document(tmp_path, mode, length):
    # 16 L D = 16 b L^2 bytes per slab: L = 2, 4, 5 leave 1 or 2 bytes to carry
    bundle = _with_negated_first_block(_writer_bundle(mode, length))
    if mode != "one-cell":
        assert all((np.signbit(f.blocks.real) & (f.blocks.real == 0)).any() for f in bundle.forms)
    path = tmp_path / "b.bundle"
    save_bundle(path, bundle, {"channel": "digest"})
    doc = json.loads(path.read_text(encoding="ascii"))
    assert path.read_bytes() == dump_document(doc).encode("ascii")
    blobs = [matrix_to_blob(omega(bundle))] + [matrix_to_blob(dense(f)) for f in bundle.forms]
    names = ["omega"] + ["U", "V"][-len(bundle.forms):]
    assert [doc[name]["blob"] for name in names] == blobs


# sha256 of what the dilate commands of tests/data/README.md write now: the
# word pass gives every word the canonical Choi gauge, so the bytes differ
# from the committed files, which an earlier version wrote
WRITTEN = {
    "damp": "89bd52425094daaedd3120d8d22d641c083ded98e108132cd274a11e9ab5227d",
    "rot": "f5d81b2a9d74b818d6fe5e01d6a8e9542bd344c4e9934309c0ccf77b707ce12c",
    "ctl1": "63fd3574dc784b5db06e861bbe461ebb35445151a1c71ce3e1693183f84b853f",
}


@pytest.mark.parametrize("name, argv", [
    ("damp", ("channel_amplitude_damping_0.5.json", "--mode", "semigroup", "--steps", "6")),
    ("rot", ("channel_rotation_m4.json", "--mode", "cyclic")),
    ("ctl1", ("channel_commuting_a.json", "--mode", "control", "--steps", "1",
              "--second", "channel_commuting_b.json")),
])
def test_writer_reproduces_the_committed_v1_files(tmp_path, name, argv):
    # each committed bundle, read and written again with its header's
    # inputs, comes back byte for byte; its dilate command writes a bundle
    # of the same size, pinned by sha256
    committed = DATA / f"{name}.bundle"
    again = tmp_path / "again.bundle"
    save_bundle(again, load_bundle(committed), json.loads(committed.read_text())["inputs"])
    assert again.read_bytes() == committed.read_bytes()
    out = tmp_path / f"{name}.bundle"
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    assert main(["dilate", *argv, "--out", str(out)]) == 0
    assert out.stat().st_size == committed.stat().st_size
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WRITTEN[name]


def test_save_bundle_builds_no_dense_matrix(tmp_path, monkeypatch):
    bundle = build_control_dilation(*random_commuting_pair(2, seed=4), 2)
    save_bundle(tmp_path / "a.bundle", bundle)
    square = bundle.forms[0].dim ** 2

    def refusing(fn):
        # the ways a dense generator or omega would be built
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out.size >= square:
                raise AssertionError("a dense D x D matrix was built")
            return out
        return wrapper

    for name in ("zeros", "outer"):
        monkeypatch.setattr(np, name, refusing(getattr(np, name)))
    save_bundle(tmp_path / "b.bundle", bundle)
    assert (tmp_path / "b.bundle").read_bytes() == (tmp_path / "a.bundle").read_bytes()


def test_save_bundle_memory_stays_below_a_dense_generator(tmp_path):
    bundle = build_semigroup_dilation(random_channel(2, 4, 5), 127)
    dense_bytes = 16 * bundle.forms[0].dim ** 2
    assert dense_bytes == 16 << 20  # D = 1024
    tracemalloc.start()
    try:
        save_bundle(tmp_path / "b.bundle", bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # half of one zero-filled (L, b, L) slab of a block row's dense rows
    assert peak < 1 << 20


@pytest.mark.parametrize("mode, length", WRITER_CASES)
def test_entries_invert_from_entries(mode, length):
    bundle = _with_negated_first_block(_writer_bundle(mode, length))
    for form in bundle.forms:
        cells, b = form.blocks.shape[:2]
        index, values = form.entries()
        assert (np.diff(index) > 0).all()
        again = BlockPermutation.from_entries(index, values, form.dim, cells)
        np.testing.assert_array_equal(again.src, form.src)
        assert again.blocks.tobytes() == form.blocks.tobytes()
        # B_c[i, j] at row i L + c, column j L + src(c)
        layout = np.zeros((b, cells, b, cells), dtype=np.complex128)
        layout[:, np.arange(cells), :, form.src] = form.blocks
        assert dense(form).tobytes() == layout.tobytes()


def test_signed_psi_case_has_signed_zeros_off_the_support():
    # a writer that took omega only over psi's support would write +0 there
    bundle = _writer_bundle("signed-psi", 20)
    support = bundle.psi != 0
    off = ~np.outer(support, support)
    w = omega(bundle)
    assert any((np.signbit(part) & (part == 0) & off).any() for part in (w.real, w.imag))


@pytest.mark.parametrize("mode, length",
                         [("semigroup", 32), ("control", 5), ("cyclic", 6), ("signed-psi", 20)])
def test_only_groups_holding_entries_are_encoded(tmp_path, monkeypatch, mode, length):
    import binascii

    bundle = _writer_bundle(mode, length)
    encoded = []
    original = binascii.b2a_base64

    def counting(data, *args, **kwargs):
        text = original(data, *args, **kwargs)
        encoded.append(len(text))
        return text

    monkeypatch.setattr(binascii, "b2a_base64", counting)
    save_bundle(tmp_path / "b.bundle", bundle)
    blobs = [(stored_entries(omega(bundle))[0], bundle.psi.size ** 2)]
    blobs += [(form.entries()[0], form.dim ** 2) for form in bundle.forms]
    expected = 0
    for index, count in blobs:
        whole = count // 3  # the last, partial group is encoded on its own
        expected += 64 * np.unique(index[index < 3 * whole] // 3).size
        expected += 4 * -(-16 * (count % 3) // 3)
    assert sum(encoded) == expected


class _DiskFull:
    """A binary file that takes ``room`` bytes and then fails as a full disk does."""

    def __init__(self, handle, room):
        self.handle, self.room = handle, room

    def write(self, data):
        size = memoryview(data).nbytes
        if size > self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= size
        return self.handle.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()


def test_failed_stream_keeps_the_old_file_and_names_the_output(tmp_path, monkeypatch):
    path = tmp_path / "b.bundle"
    path.write_text("old bundle")
    bundle = build_semigroup_dilation(amplitude_damping(0.3), 3)
    fdopen = os.fdopen
    written = []

    def full_disk(fd, mode):
        written.append(_DiskFull(fdopen(fd, mode), 4096))
        return written[-1]

    monkeypatch.setattr(os, "fdopen", full_disk)
    with pytest.raises(OSError, match="b.bundle") as failure:
        save_bundle(path, bundle)
    assert failure.value.errno == errno.ENOSPC
    assert failure.value.filename == str(path)
    # the header is written and the V blob is under way when the disk fills
    assert 0 < written[0].room < 4096
    assert path.read_text() == "old bundle"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.bundle"]


def test_placeholder_text_in_the_inputs_round_trips(tmp_path):
    # a blob is the null at its "blob" key, so no string of the header
    # stands for one: this text is plain text
    bundle = build_semigroup_dilation(amplitude_damping(0.3), 2)
    path = tmp_path / "b.bundle"
    save_bundle(path, bundle, {"channel": "\0blob:V\0"})
    assert json.loads(path.read_text())["inputs"] == {"channel": "\0blob:V\0"}
    assert load_bundle(path).forms[0].blocks.tobytes() == bundle.forms[0].blocks.tobytes()


def test_file_digest_reads_past_one_chunk(tmp_path):
    path = tmp_path / "big"
    data = np.random.default_rng(0).bytes((5 << 20) // 2)
    path.write_bytes(data)
    assert file_digest(path) == hashlib.sha256(data).hexdigest()


# ------------------------------------------------------------ sparse reader

def _dense_decode(path):
    """Each blob of a bundle file decoded whole, as the dense v1 reader did."""
    doc = json.loads(path.read_text(encoding="ascii"))
    return {
        name: np.frombuffer(base64.b64decode(entry["blob"], validate=True), dtype="<c16")
        .reshape(entry["rows"], entry["cols"])
        for name, entry in doc.items()
        if isinstance(entry, dict) and "blob" in entry
    }


@pytest.mark.parametrize("mode, length", WRITER_CASES)
def test_loaded_forms_and_psi_are_the_dense_decode(tmp_path, mode, length):
    bundle = _with_negated_first_block(_writer_bundle(mode, length))
    path = tmp_path / "b.bundle"
    save_bundle(path, bundle, {"channel": "digest"})
    dense = _dense_decode(path)
    names = ["U", "V"][-len(bundle.forms):]
    loaded = load_bundle(path)
    for name, form, written in zip(names, loaded.forms, bundle.forms):
        cells, b = written.blocks.shape[:2]
        view = dense[name].reshape(b, cells, b, cells)
        np.testing.assert_array_equal(form.src, written.src)
        expected = view[:, np.arange(cells), :, written.src]
        assert form.blocks.tobytes() == expected.tobytes() == written.blocks.tobytes()
    omega = dense["omega"]
    j = int(np.argmax(omega.diagonal().real))
    assert loaded.psi.tobytes() == (omega[:, j] / np.sqrt(omega[j, j].real)).tobytes()


def _bundle_text(tmp_path):
    bundle = build_semigroup_dilation(random_channel(2, 4, 3), 4)
    path = tmp_path / "b.bundle"
    save_bundle(path, bundle)
    text = path.read_text(encoding="ascii")
    start = text.index('"V":{"blob":"') + len('"V":{"blob":"')
    return path, text, start, text.index('"', start)


def _replace(text, at, old, new):
    assert text[at:at + len(old)] == old
    return text[:at] + new + text[at + len(old):]


@pytest.mark.parametrize("char", ["-", " ", "\\n", "é", "\\u0041"])
def test_non_alphabet_text_inside_a_run_of_zero_groups_is_refused(tmp_path, char):
    path, text, start, end = _bundle_text(tmp_path)
    run_at = text.index("A" * 256, start)
    assert run_at < end
    # inside the second whole group of the run of A's
    at = run_at + (-(run_at - start) % 64) + 64 + 17
    path.write_text(_replace(text, at, "A", char), encoding="utf-8")
    with pytest.raises(ChannelFormatError, match="field 'V': invalid base64 blob"):
        load_bundle(path)


def test_escaped_slash_inside_a_blob_is_refused(tmp_path):
    # "\/" is JSON for "/": a JSON reader sees the very same blob
    path, text, start, end = _bundle_text(tmp_path)
    at = text.index("/", start)
    assert at < end
    escaped = _replace(text, at, "/", "\\/")
    assert json.loads(escaped) == json.loads(text)
    path.write_text(escaped, encoding="ascii")
    with pytest.raises(ChannelFormatError, match="field 'V': invalid base64 blob"):
        load_bundle(path)


@pytest.mark.parametrize("padding", ["=", "==", "A="])
def test_padding_in_mid_blob_is_refused(tmp_path, padding):
    path, text, start, end = _bundle_text(tmp_path)
    groups = [text[at:at + 64] for at in range(start, end - 64, 64)]
    zero = groups.index("A" * 64, 1)
    live = next(k for k, group in enumerate(groups) if k and group != "A" * 64)
    for group in (zero, live):  # a skipped group and a decoded one, neither the last
        at = start + 64 * group + 64 - len(padding)
        path.write_text(_replace(text, at, text[at:at + len(padding)], padding), encoding="ascii")
        with pytest.raises(ChannelFormatError, match="field 'V': invalid base64 blob"):
            load_bundle(path)


@pytest.mark.parametrize("cut", [1, 4, 64, 68])
def test_truncated_blob_is_refused(tmp_path, cut):
    path, text, start, end = _bundle_text(tmp_path)
    middle = start + (end - start) // 2
    path.write_text(text[:middle] + text[middle + cut:], encoding="ascii")
    with pytest.raises(ChannelFormatError, match="field 'V'"):
        load_bundle(path)


def test_blob_key_outside_a_bundle_entry_is_refused(tmp_path):
    path, text, start, end = _bundle_text(tmp_path)
    stray = _replace(text, text.index('"inputs":{}'), '"inputs":{}', '"inputs":{"blob":"AAAA"}')
    path.write_text(stray, encoding="ascii")
    with pytest.raises(ChannelFormatError, match='"blob" key outside a bundle entry'):
        load_bundle(path)
    # nor does the writer make such a file
    bundle = build_semigroup_dilation(amplitude_damping(0.3), 2)
    with pytest.raises(ValueError, match='"blob" key'):
        save_bundle(tmp_path / "c.bundle", bundle, {"blob": "AAAA"})
    assert not (tmp_path / "c.bundle").exists()


@pytest.mark.parametrize("inputs, refused", [
    ({'a"blob': 1}, False),  # dumps as "a\\"blob":1, no "blob" key
    ({'a"blob': None}, False),
    ({"x": ['{"blob":null', ',"blob":1']}, False),
    ({"blob": 1}, True),
    ({"x": {"blob": 1}}, True),
    ({"x": [{"a": 1, "blob": None}]}, True),
])
def test_the_writer_refuses_exactly_the_blob_keys_the_reader_refuses(tmp_path, inputs, refused):
    bundle = build_semigroup_dilation(amplitude_damping(0.3), 2)
    path = tmp_path / "b.bundle"
    if refused:
        with pytest.raises(ValueError, match='^bundle inputs hold a "blob" key, which '
                                             'load_bundle refuses$'):
            save_bundle(path, bundle, inputs)
        assert not path.exists()
        return
    save_bundle(path, bundle, inputs)
    assert json.loads(path.read_text())["inputs"] == inputs
    assert load_bundle(path).forms[0].blocks.tobytes() == bundle.forms[0].blocks.tobytes()


def test_escaped_blob_key_is_refused(tmp_path):
    path, text, start, end = _bundle_text(tmp_path)
    escaped = _replace(text, start - len('"blob":"'), '"blob"', '"\\u0062lob"')
    assert json.loads(escaped) == json.loads(text)
    path.write_text(escaped, encoding="ascii")
    with pytest.raises(ChannelFormatError, match="not a plain base64 string"):
        load_bundle(path)


def test_escaped_blob_key_with_a_forged_placeholder_is_refused(tmp_path):
    # V's blob moves under a real "blob" key in inputs, and V's escaped key
    # carries the text that once stood for blob 0: a "blob" key whose value
    # is a string
    path, text, start, end = _bundle_text(tmp_path)
    key_at = start - len('"blob":"')
    forged = text[:key_at] + '"bl\\u006fb":"\\u0000blob:0\\u0000"' + text[end + 1:]
    forged = _replace(forged, forged.index('"inputs":{}'), '"inputs":{}',
                      '"inputs":{"blob":' + text[start - 1:end + 1] + "}")
    path.write_text(forged, encoding="ascii")
    with pytest.raises(ChannelFormatError, match="not a plain base64 string"):
        load_bundle(path)


def test_nul_characters_in_inputs_round_trip(tmp_path):
    bundle = build_semigroup_dilation(amplitude_damping(0.3), 2)
    path = tmp_path / "c.bundle"
    # a NUL, and an escaped backslash before u0000
    for note in ("a\0b", "a\\u0000b"):
        save_bundle(path, bundle, {"note": note})
        assert json.loads(path.read_text())["inputs"] == {"note": note}
        assert load_bundle(path).forms[0].blocks.tobytes() == bundle.forms[0].blocks.tobytes()


@pytest.fixture(scope="module")
def clean_bundles(tmp_path_factory):
    """A small saved semigroup bundle and a small saved control bundle: the
    text of each file and the bytes of the forms and psi it loads to."""
    out = tmp_path_factory.mktemp("clean")
    t, s = random_commuting_pair(2, seed=4)
    bundles = {
        "semigroup": build_semigroup_dilation(amplitude_damping(0.3), 2),
        "control": build_control_dilation(t, s, 1),
    }
    clean = {}
    for mode, bundle in bundles.items():
        path = out / f"{mode}.bundle"
        save_bundle(path, bundle, {"channel": "x"})
        clean[mode] = path.read_text(encoding="ascii"), _loaded_bytes(load_bundle(path))
    return out, clean


def _loaded_bytes(bundle):
    return [f.src.tobytes() + f.blocks.tobytes() for f in bundle.forms], bundle.psi.tobytes()


_STRAY_VALUES = ["null", "0", "true", '"AAAA"']


@st.composite
def _header_mutations(draw, text):
    """One mutation of a bundle file's header, and whether load_bundle must
    still read the file as it was."""
    keys = [at for at in range(len(text)) if text.startswith('"blob":"', at)]
    key = draw(st.sampled_from(keys))
    end = text.index('"', key + len('"blob":"'))  # the blob's closing quote
    fields = [at + len(name) + 4 for at, name in
              ((text.find(f'"{name}":{{'), name) for name in ("U", "V", "omega")) if at >= 0]
    into = text.index('"inputs":{') + len('"inputs":{')
    kind = draw(st.sampled_from(["escape", "stray", "duplicate", "null", "space", "nul"]))
    if kind == "escape":
        at = key + 1 + draw(st.integers(0, 3))
        return text[:at] + "\\u%04x" % ord(text[at]) + text[at + 1:], False
    if kind == "stray":
        pair = '"blob":' + draw(st.sampled_from(_STRAY_VALUES))
        at = draw(st.sampled_from([into, *fields]))
        if draw(st.booleans()):
            pair = '"x":{' + pair + "}"
        return text[:at] + pair + "," + text[at:], False
    if kind == "duplicate":
        pair = text[key:end + 1]
        return text[:key] + pair + "," + text[key:], False
    if kind == "null":
        return text[:key] + '"blob":null' + text[end + 1:], False
    if kind == "space":
        colons = [at for at in range(len(text)) if text[at] == ":"]
        at = draw(st.sampled_from(colons))
        return text[:at] + " : " + text[at + 1:], True
    note = draw(st.sampled_from(["\\u0000", "\\u0000blob:0\\u0000"]))
    return text.replace('"channel":"x"', f'"channel":"x{note}"'), True


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(data=st.data(), mode=st.sampled_from(["semigroup", "control"]))
def test_a_mutated_header_reads_as_before_or_is_refused(clean_bundles, data, mode):
    # the one rule: a blob is the null at its "blob" key, in document order
    out, clean = clean_bundles
    text, expected = clean[mode]
    mutated, same = data.draw(_header_mutations(text))
    json.loads(mutated)  # still a JSON document: only the blob rule can refuse it
    path = out / "mutated.bundle"
    path.write_text(mutated, encoding="ascii")
    try:
        loaded = _loaded_bytes(load_bundle(path))
    except ChannelFormatError:
        assert not same
    else:
        assert same and loaded == expected


def test_blob_keys_may_be_spaced(tmp_path):
    bundle = build_semigroup_dilation(amplitude_damping(0.3), 3)
    path = tmp_path / "b.json"
    path.write_text(json.dumps(bundle_document(bundle, tmp_path), indent=1))
    again = load_bundle(path)
    assert again.forms[0].blocks.tobytes() == bundle.forms[0].blocks.tobytes()


def test_load_bundle_memory_stays_near_the_blocks(tmp_path):
    bundle = build_semigroup_dilation(random_channel(2, 4, 5), 127)
    path = tmp_path / "b.bundle"
    save_bundle(path, bundle)
    block_bytes = bundle.forms[0].blocks.nbytes
    tracemalloc.start()
    try:
        again = load_bundle(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again.forms[0].blocks.tobytes() == bundle.forms[0].blocks.tobytes()
    assert peak < (4 << 20) + block_bytes
    assert path.stat().st_size > 5 * peak


@pytest.mark.parametrize("mode, length", [("semigroup", 32), ("control", 5), ("cyclic", 6)])
def test_only_groups_holding_entries_are_decoded(tmp_path, monkeypatch, mode, length):
    import binascii

    bundle = _writer_bundle(mode, length)
    path = tmp_path / "b.bundle"
    save_bundle(path, bundle)
    dense = _dense_decode(path)
    decoded = []
    original = binascii.a2b_base64

    def counting(text, *args, **kwargs):
        decoded.append(len(text))
        return original(text, *args, **kwargs)

    monkeypatch.setattr(binascii, "a2b_base64", counting)
    load_bundle(path)
    expected = 0
    for name, matrix in dense.items():
        raw = matrix.tobytes()
        whole = (len(raw) - 1) // 48  # the last group is decoded on its own
        live = np.frombuffer(raw[:48 * whole], dtype=np.uint8).reshape(whole, 48).any(axis=1)
        tail = 4 * -(-(len(raw) - 48 * whole) // 3)
        expected += 64 * int(live.sum()) + tail
        if name != "omega":
            cells, b = bundle.forms[0].blocks.shape[:2]
            # at most one group per block entry, plus the last group
            assert 64 * int(live.sum()) <= 64 * cells * b * b
    assert sum(decoded) == expected
    assert sum(decoded) < sum(4 * m.nbytes // 3 for m in dense.values()) / 3
