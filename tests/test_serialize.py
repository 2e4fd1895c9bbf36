import base64
import json

import numpy as np
import pytest

from dilatio.channels import dual, random_channel, superoperator_matrix, verify_cptp
from dilatio.control import build_control_dilation, verify_control_dilation
from dilatio.cyclic import CyclePeriod, build_cyclic_dilation, verify_cyclic_dilation
from dilatio.errors import ChannelFormatError
from dilatio.fixtures import (
    amplitude_damping,
    random_commuting_pair,
    rotation_channel,
    transpose_channel,
)
from dilatio.semigroup import build_semigroup_dilation, verify_dilation
from dilatio.serialize import (
    blob_to_matrix,
    bundle_from_dict,
    bundle_to_dict,
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

from helpers import fro, random_density, random_matrix


class TestMatrixEncodings:
    def test_pairs_roundtrip_through_channel_dict(self):
        ch = random_channel(3, rank=2, seed=0)
        again = channel_from_dict(channel_to_dict(ch))
        for a, b in zip(ch.kraus, again.kraus):
            np.testing.assert_array_equal(a, b)

    def test_blob_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(1)
        m = random_matrix(5, rng, rows=7)
        np.testing.assert_array_equal(blob_to_matrix(matrix_to_blob(m), 7, 5, "x"), m)

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
        again = blob_to_matrix(matrix_to_blob(m), 4, 3, "x")
        # a read-only view of the decoded bytes, not a copy
        assert again.dtype == np.complex128 and not again.flags.writeable
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

    def test_dump_is_deterministic(self):
        bundle = build_semigroup_dilation(amplitude_damping(0.3), 2)
        a = dump_document(bundle_to_dict(bundle, {"channel": "d"}))
        b = dump_document(bundle_to_dict(bundle, {"channel": "d"}))
        assert a == b

    def test_corrupted_blob_is_rejected(self, tmp_path):
        bundle = build_semigroup_dilation(amplitude_damping(0.3), 2)
        doc = bundle_to_dict(bundle)
        doc["V"]["blob"] = doc["V"]["blob"][:-8]
        path = tmp_path / "b.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ChannelFormatError):
            load_bundle(path)

    def test_unknown_mode_rejected(self):
        bundle = build_semigroup_dilation(amplitude_damping(0.3), 2)
        doc = bundle_to_dict(bundle)
        doc["mode"] = "lindblad"
        with pytest.raises(ChannelFormatError, match="mode"):
            bundle_from_dict(doc)

    def test_cyclic_shape_must_match_period(self):
        doc = bundle_to_dict(build_cyclic_dilation(rotation_channel(4), CyclePeriod(4)))
        assert doc["shape"] == [2, 4, 4]
        doc["shape"] = [2, 4, 99]
        with pytest.raises(ChannelFormatError):
            bundle_from_dict(doc)
        doc["shape"], doc["period"] = [2, 4, 4], 5
        with pytest.raises(ChannelFormatError, match="period"):
            bundle_from_dict(doc)

    def test_control_shape_must_match_horizon(self):
        t, s = random_commuting_pair(2, seed=4)
        doc = bundle_to_dict(build_control_dilation(t, s, 2))
        assert doc["shape"] == [2, 4, 3, 3]
        doc["shape"] = [2, 4, 3, 77]
        with pytest.raises(ChannelFormatError):
            bundle_from_dict(doc)

    def test_non_unitary_payload_rejected(self):
        bundle = build_semigroup_dilation(amplitude_damping(0.3), 2)
        doc = bundle_to_dict(bundle)
        m = blob_to_matrix(doc["V"]["blob"], doc["V"]["rows"], doc["V"]["cols"], "V")
        doc["V"] = {"rows": m.shape[0], "cols": m.shape[1],
                    "blob": matrix_to_blob(m * 1.5)}
        with pytest.raises(ChannelFormatError):
            bundle_from_dict(doc)


def test_atomic_write_is_the_dumped_document(tmp_path):
    bundle = build_semigroup_dilation(amplitude_damping(0.3), 3)
    doc = bundle_to_dict(bundle, {"channel": "d"})
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
