import json
import math

import numpy as np
import pytest

from dilatio.channels import KrausChannel
from dilatio.cli import main
from dilatio.fixtures import write_fixture_corpus
from dilatio.serialize import load_state, save_channel


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    write_fixture_corpus(out)
    return out


@pytest.fixture(scope="module")
def damp_bundle5(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("bundles") / "damp5.bundle"
    assert main([
        "dilate", str(corpus / "channel_amplitude_damping_0.5.json"),
        "--mode", "semigroup", "--steps", "5", "--out", str(out),
    ]) == 0
    return out


@pytest.fixture(scope="module")
def damp_bundle6(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("bundles") / "damp6.bundle"
    assert main([
        "dilate", str(corpus / "channel_amplitude_damping_0.5.json"),
        "--mode", "semigroup", "--steps", "6", "--out", str(out),
    ]) == 0
    return out


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_accepts_damping(self, corpus, capsys):
        code, out, _ = run(capsys, "check", corpus / "channel_amplitude_damping_0.3.json")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["residuals"][0] <= 1e-10
        assert report["tolerance"] == 1e-10

    def test_rejects_transpose(self, corpus, capsys):
        code, out, _ = run(capsys, "check", corpus / "channel_transpose.json")
        assert code == 2
        report = json.loads(out)
        assert report["cp"] is False and report["tp_or_unital"] is True

    def test_truncated_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim_in": 2,')
        code, _, err = run(capsys, "check", bad)
        assert code == 1
        assert "input error" in err

    def test_missing_field_names_it(self, tmp_path, corpus, capsys):
        doc = json.loads((corpus / "channel_identity.json").read_text())
        del doc["picture"]
        bad = tmp_path / "nopicture.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", bad)
        assert code == 1 and "picture" in err

    def test_report_to_file(self, corpus, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "check", corpus / "channel_identity.json", "--out", out_path)
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["pass"] is True

    def test_unwritable_report_is_input_error(self, corpus, tmp_path, capsys):
        out_path = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "check", corpus / "channel_identity.json", "--out", out_path)
        assert code == 1 and out == ""
        assert err.startswith("input error:") and err.count("\n") == 1

    def test_heisenberg_picture_file(self, tmp_path, capsys):
        from dilatio.channels import dual
        from dilatio.fixtures import amplitude_damping

        path = tmp_path / "dual.json"
        save_channel(path, dual(amplitude_damping(0.3)))
        code, out, _ = run(capsys, "check", path)
        assert code == 0
        assert json.loads(out)["pass"] is True


class TestCertificationBoundary:
    """K = sqrt(1 + eps) I_2 misses trace preservation by ||K^dag K - I||_F =
    sqrt(2) eps, just inside or just outside CPTP_ATOL = 1e-10."""

    @staticmethod
    def channel(tmp_path, violation):
        path = tmp_path / "scaled_identity.json"
        k = np.sqrt(1 + violation / np.sqrt(2)) * np.eye(2)
        save_channel(path, KrausChannel(2, 2, [k]))
        return path

    def test_inside_the_tolerance(self, tmp_path, capsys):
        path = self.channel(tmp_path, 0.9e-10)
        code, out, _ = run(capsys, "check", path)
        assert code == 0
        assert json.loads(out)["residuals"][0] == pytest.approx(9.0e-11, rel=1e-3)
        dilate = ("dilate", path, "--mode", "semigroup", "--out", tmp_path / "x.bundle")
        assert run(capsys, *dilate, "--steps", "1")[0] == 0
        # T^2 misses by twice as much: the build refuses it rather than hide it
        code, _, err = run(capsys, *dilate, "--steps", "2")
        assert code == 3
        assert "channel rejected: cp=True, tp_or_unital=False, max_violation=1.800e-10" in err

    @pytest.mark.parametrize("steps, calls", [(1, 2), (2, 3)])
    def test_each_channel_is_certified_once_per_build(self, corpus, tmp_path, capsys,
                                                      monkeypatch, steps, calls):
        # the load-time check, the build's, and one per power past T itself
        from dilatio import channels, cli

        seen = []
        certify = channels.verify_cptp

        def spy(ch, *tol):
            seen.append(ch)
            return certify(ch, *tol)

        monkeypatch.setattr(channels, "verify_cptp", spy)
        monkeypatch.setattr(cli, "verify_cptp", spy)
        code, _, _ = run(capsys, "dilate", corpus / "channel_amplitude_damping_0.5.json",
                         "--mode", "semigroup", "--steps", steps, "--out", tmp_path / "x.bundle")
        assert code == 0
        assert len(seen) == calls

    def test_outside_the_tolerance(self, tmp_path, capsys):
        path = self.channel(tmp_path, 1.1e-10)
        assert run(capsys, "check", path)[0] == 2
        dilate = ("dilate", path, "--mode", "semigroup", "--out", tmp_path / "x.bundle")
        assert run(capsys, *dilate, "--steps", "1")[0] == 3
        assert not (tmp_path / "x.bundle").exists()


    @pytest.mark.parametrize("coefficient", [1e200, 1e308])
    def test_overflowing_channel_fails_certification(self, tmp_path, capsys, coefficient):
        # the Kraus sum of c I_2 overflows its norm at 1e200, the Choi
        # matrix its hermitization at 1e308; a numpy warning is an error here
        path = tmp_path / "huge.json"
        save_channel(path, KrausChannel(2, 2, [np.eye(2)], coefficients=[coefficient]))
        code, out, err = run(capsys, "check", path)
        assert (code, err) == (2, "")
        report = json.loads(out)
        assert report["residuals"] == [math.inf] and report["tp_or_unital"] is False
        code, _, err = run(capsys, "dilate", path, "--mode", "semigroup",
                           "--out", tmp_path / "x.bundle")
        assert (code, err) == (3, f"precondition failed: channel file {path} failed CPTP "
                                  "certification\n")


class TestDilate:
    def test_semigroup_bundle_shape(self, corpus, tmp_path, capsys):
        out = tmp_path / "damp.bundle"
        code, _, _ = run(
            capsys, "dilate", corpus / "channel_amplitude_damping_0.5.json",
            "--mode", "semigroup", "--steps", "6", "--out", out,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["shape"] == [2, 4, 7]
        assert doc["V"]["rows"] == 56  # d * d^2 * (N + 1)

    def test_repeated_runs_are_byte_identical(self, corpus, tmp_path, capsys):
        a, b = tmp_path / "a.bundle", tmp_path / "b.bundle"
        for out in (a, b):
            code, _, _ = run(
                capsys, "dilate", corpus / "channel_amplitude_damping_0.3.json",
                "--mode", "semigroup", "--steps", "4", "--out", out,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cyclic_bundle_shape(self, corpus, tmp_path, capsys):
        out = tmp_path / "rot.bundle"
        code, _, _ = run(
            capsys, "dilate", corpus / "channel_rotation_m4.json",
            "--mode", "cyclic", "--out", out,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["shape"] == [2, 4, 4]
        assert doc["V"]["rows"] == 32

    def test_cyclic_mode_refuses_damping(self, corpus, tmp_path, capsys):
        code, _, err = run(
            capsys, "dilate", corpus / "channel_amplitude_damping_0.3.json",
            "--mode", "cyclic", "--out", tmp_path / "x.bundle",
        )
        assert code == 3 and "precondition" in err

    def test_control_bundle_shape(self, corpus, tmp_path, capsys):
        out = tmp_path / "ctl.bundle"
        code, _, _ = run(
            capsys, "dilate", corpus / "channel_commuting_a.json",
            "--mode", "control", "--steps", "3",
            "--second", corpus / "channel_commuting_b.json", "--out", out,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["shape"] == [2, 4, 4, 4]
        assert doc["U"]["rows"] == 128

    def test_control_refuses_non_commuting(self, corpus, tmp_path, capsys):
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        from dilatio.channels import unitary_channel

        save_channel(tmp_path / "h.json", unitary_channel(hadamard))
        code, _, _ = run(
            capsys, "dilate", tmp_path / "h.json",
            "--mode", "control", "--steps", "2",
            "--second", corpus / "channel_pauli_z.json", "--out", tmp_path / "x.bundle",
        )
        assert code == 3

    def test_memory_guard_exit_code(self, corpus, tmp_path, capsys):
        code, _, err = run(
            capsys, "dilate", corpus / "channel_identity.json",
            "--mode", "semigroup", "--steps", "600", "--out", tmp_path / "x.bundle",
        )
        assert code == 4 and "resource guard" in err

    def test_env_var_overrides_guard_both_ways(self, corpus, tmp_path, capsys, monkeypatch):
        # steps=6 needs total dimension 56: refuse under a tightened guard,
        # proceed once the override is loose enough
        monkeypatch.setenv("DILATIO_MAX_DIM", "40")
        code, _, _ = run(
            capsys, "dilate", corpus / "channel_identity.json",
            "--mode", "semigroup", "--steps", "6", "--out", tmp_path / "x.bundle",
        )
        assert code == 4
        monkeypatch.setenv("DILATIO_MAX_DIM", "100")
        code, _, _ = run(
            capsys, "dilate", corpus / "channel_identity.json",
            "--mode", "semigroup", "--steps", "6", "--out", tmp_path / "ok.bundle",
        )
        assert code == 0

    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_non_positive_guard_is_input_error(self, corpus, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("DILATIO_MAX_DIM", value)
        code, _, err = run(
            capsys, "dilate", corpus / "channel_identity.json",
            "--mode", "semigroup", "--steps", "2", "--out", tmp_path / "x.bundle",
        )
        assert code == 1 and "DILATIO_MAX_DIM" in err

    def test_unwritable_bundle_is_input_error(self, corpus, tmp_path, capsys):
        out = tmp_path / "missing" / "x.bundle"
        code, _, err = run(
            capsys, "dilate", corpus / "channel_identity.json",
            "--mode", "semigroup", "--steps", "2", "--out", out,
        )
        assert code == 1 and not out.exists()
        assert err.startswith("input error:") and err.count("\n") == 1

    def test_unwritable_bundle_error_names_the_output(self, corpus, tmp_path, capsys):
        out = tmp_path / "missing" / "x.bundle"
        code, _, err = run(
            capsys, "dilate", corpus / "channel_identity.json",
            "--mode", "semigroup", "--steps", "2", "--out", out,
        )
        assert code == 1
        assert f"'{out}'" in err and ".tmp" not in err

    def test_out_of_memory_is_resource_guard(self, corpus, tmp_path, capsys, monkeypatch):
        from dilatio import semigroup

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(semigroup, "build_semigroup_dilation", exhausted)
        code, _, err = run(
            capsys, "dilate", corpus / "channel_identity.json",
            "--mode", "semigroup", "--steps", "2", "--out", tmp_path / "x.bundle",
        )
        assert code == 4
        assert err.startswith("resource guard:") and err.count("\n") == 1

    def test_rejected_channel_is_precondition_failure(self, corpus, tmp_path, capsys):
        code, _, _ = run(
            capsys, "dilate", corpus / "channel_transpose.json",
            "--mode", "semigroup", "--steps", "2", "--out", tmp_path / "x.bundle",
        )
        assert code == 3

    @pytest.mark.parametrize("command", ["dilate", "reachable"])
    def test_no_verify_is_a_usage_error(self, command, corpus, tmp_path, capsys):
        # the builders and reachable_set certify every channel themselves,
        # so only verify offers to skip the certification at load
        argv = {
            "dilate": ("dilate", corpus / "channel_amplitude_damping_0.5.json",
                       "--mode", "semigroup", "--out", tmp_path / "x.bundle"),
            "reachable": ("reachable", corpus / "channel_commuting_a.json",
                          corpus / "channel_commuting_b.json", corpus / "state_ground.json",
                          "--steps", "2"),
        }[command]
        code, out, err = run(capsys, *argv, "--no-verify")
        assert code == 1 and out == ""
        assert err.startswith("input error:") and "--no-verify" in err
        assert not (tmp_path / "x.bundle").exists()

    def test_cyclic_negative_m_max_is_input_error(self, corpus, tmp_path, capsys):
        code, out, err = run(
            capsys, "dilate", corpus / "channel_rotation_m4.json", "--mode", "cyclic",
            "--m-max", "-3", "--out", tmp_path / "rot.bundle",
        )
        assert code == 1 and out == ""
        assert err.startswith("input error:") and "m_max" in err
        assert not (tmp_path / "rot.bundle").exists()


class TestVerify:
    def test_fresh_bundle_passes(self, corpus, damp_bundle5, capsys):
        code, out, _ = run(
            capsys, "verify", damp_bundle5, corpus / "channel_amplitude_damping_0.5.json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["horizon"] == 5
        assert report["tolerance"] == 1e-9
        assert len(report["residuals"]) == 6
        assert all(r <= 1e-9 for r in report["residuals"])

    def test_bundle_digest_comes_from_the_one_read(self, corpus, damp_bundle5, capsys,
                                                  monkeypatch):
        import hashlib

        from dilatio import cli

        channel = corpus / "channel_amplitude_damping_0.5.json"
        digested = []
        original = cli.file_digest

        def recording(path):
            digested.append(str(path))
            return original(path)

        monkeypatch.setattr(cli, "file_digest", recording)
        code, out, _ = run(capsys, "verify", damp_bundle5, channel)
        assert code == 0
        assert digested == [str(channel)]
        inputs = json.loads(out)["inputs"]
        assert inputs["bundle"] == hashlib.sha256(damp_bundle5.read_bytes()).hexdigest()
        assert inputs["channel"] == original(channel)

    def test_wrong_channel_fails(self, corpus, damp_bundle5, capsys):
        code, out, _ = run(
            capsys, "verify", damp_bundle5, corpus / "channel_amplitude_damping_0.1.json"
        )
        assert code == 2
        assert json.loads(out)["pass"] is False

    def test_zero_tolerance_fails(self, corpus, damp_bundle5, capsys):
        code, out, _ = run(
            capsys, "verify", damp_bundle5,
            corpus / "channel_amplitude_damping_0.5.json", "--tol", "0",
        )
        assert code == 2

    def test_shape_mismatch_is_input_error(self, damp_bundle5, tmp_path, capsys):
        from dilatio.channels import identity_channel

        save_channel(tmp_path / "qutrit.json", identity_channel(3))
        code, _, _ = run(capsys, "verify", damp_bundle5, tmp_path / "qutrit.json")
        assert code == 1

    @pytest.mark.parametrize("defect, message", [
        ("shape", "bundle document: unitary of shape (32, 32), expected (792, 792)"),
        ("rows", "bundle document 'V' is missing field 'rows'"),
    ])
    def test_bundle_error_is_prefixed_once(self, corpus, tmp_path, capsys, defect, message):
        bundle = tmp_path / "rot.bundle"
        run(capsys, "dilate", corpus / "channel_rotation_m4.json", "--mode", "cyclic",
            "--out", bundle)
        doc = json.loads(bundle.read_text())
        if defect == "shape":
            doc["shape"] = [2, 4, 99]
        else:
            del doc["V"]["rows"]
        bundle.write_text(json.dumps(doc))
        for argv in (("verify", bundle, corpus / "channel_rotation_m4.json"),
                     ("evolve", bundle, corpus / "state_plus.json", "--steps", "1")):
            assert run(capsys, *argv) == (1, "", f"input error: {message}\n")

    def test_cyclic_verify(self, corpus, tmp_path, capsys):
        bundle = tmp_path / "rot.bundle"
        run(capsys, "dilate", corpus / "channel_rotation_m6.json", "--mode", "cyclic",
            "--out", bundle)
        code, out, _ = run(
            capsys, "verify", bundle, corpus / "channel_rotation_m6.json", "--n-max", "20"
        )
        assert code == 0
        report = json.loads(out)
        assert report["period"] == 6 and len(report["residuals"]) == 21

    def test_cyclic_negative_n_max_is_input_error(self, corpus, tmp_path, capsys):
        bundle = tmp_path / "rot.bundle"
        run(capsys, "dilate", corpus / "channel_rotation_m4.json", "--mode", "cyclic",
            "--out", bundle)
        code, out, err = run(
            capsys, "verify", bundle, corpus / "channel_rotation_m4.json", "--n-max", "-3"
        )
        assert code == 1 and out == ""
        assert err.startswith("input error:") and "n_max" in err

    def test_no_verify_skips_the_ingestion_gate(self, corpus, damp_bundle5, tmp_path, capsys):
        # a mildly non-CPTP channel is refused at load, but --no-verify lets
        # the verification itself report the mismatch
        doc = json.loads((corpus / "channel_amplitude_damping_0.5.json").read_text())
        doc["kraus"][0][0][0] += 1e-6
        perturbed = tmp_path / "perturbed.json"
        perturbed.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "verify", damp_bundle5, perturbed)
        assert code == 3
        code, out, _ = run(capsys, "verify", damp_bundle5, perturbed, "--no-verify")
        assert code == 2
        assert json.loads(out)["pass"] is False

    def test_control_verify_needs_second(self, corpus, tmp_path, capsys):
        bundle = tmp_path / "ctl.bundle"
        run(capsys, "dilate", corpus / "channel_commuting_a.json", "--mode", "control",
            "--steps", "2", "--second", corpus / "channel_commuting_b.json", "--out", bundle)
        code, _, _ = run(capsys, "verify", bundle, corpus / "channel_commuting_a.json")
        assert code == 1
        code, out, _ = run(
            capsys, "verify", bundle,
            corpus / "channel_commuting_a.json", corpus / "channel_commuting_b.json",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("kind", ["semigroup", "control"])
    def test_n_max_of_a_non_cyclic_bundle_is_input_error(self, kind, corpus, damp_bundle5,
                                                        tmp_path, capsys):
        # --n-max sizes the cyclic sweep only; another sweep would ignore it
        channels = [corpus / "channel_amplitude_damping_0.5.json"]
        bundle = damp_bundle5
        if kind == "control":
            channels = [corpus / "channel_commuting_a.json", corpus / "channel_commuting_b.json"]
            bundle = tmp_path / "ctl.bundle"
            assert run(capsys, "dilate", channels[0], "--mode", "control", "--steps", "2",
                       "--second", channels[1], "--out", bundle)[0] == 0
        code, out, err = run(capsys, "verify", bundle, *channels, "--n-max", "10")
        assert code == 1 and out == ""
        assert err.splitlines() == [f"input error: --n-max applies to cyclic bundles, not {kind}"]

    def test_second_channel_of_semigroup_bundle_is_input_error(self, corpus, damp_bundle5,
                                                                tmp_path, capsys):
        # the extra file would be neither read nor recorded in the report
        damp = corpus / "channel_amplitude_damping_0.5.json"
        out = tmp_path / "report.json"
        code, stdout, err = run(capsys, "verify", damp_bundle5, damp, damp, "--out", out)
        assert code == 1 and stdout == "" and not out.exists()
        assert err.splitlines() == ["input error: a semigroup bundle is verified against "
                                    "one channel file"]


@pytest.mark.parametrize("mode", ["semigroup", "cyclic"])
def test_second_channel_outside_control_mode_is_input_error(mode, corpus, tmp_path, capsys):
    out = tmp_path / "unused.bundle"
    rotation = corpus / "channel_rotation_m4.json"
    code, _, err = run(capsys, "dilate", rotation, "--mode", mode, "--second", rotation,
                       "--out", out)
    assert code == 1 and not out.exists()
    assert err.splitlines() == [f"input error: --second applies to control mode, not {mode}"]


@pytest.mark.parametrize("mode, flags, message", [
    ("cyclic", ("--steps", "50"), "--steps applies to semigroup and control modes, not cyclic"),
    ("semigroup", ("--m-max", "8"), "--m-max applies to cyclic mode, not semigroup"),
    ("control", ("--m-max", "8"), "--m-max applies to cyclic mode, not control"),
])
def test_option_of_another_mode_is_refused_before_any_read(mode, flags, message, corpus,
                                                          tmp_path, capsys, monkeypatch):
    # the option would be silently ignored by the mode's build
    from dilatio import cli

    def refuse(*args, **kwargs):
        raise AssertionError("a file was read before the arguments were checked")

    monkeypatch.setattr(cli, "load_channel", refuse)
    out = tmp_path / "unused.bundle"
    code, stdout, err = run(capsys, "dilate", corpus / "channel_rotation_m4.json",
                            "--mode", mode, *flags, "--out", out)
    assert code == 1 and stdout == "" and not out.exists()
    assert err.splitlines() == [f"input error: {message}"]


@pytest.mark.parametrize("argv, message", [
    (["evolve", "B", "S", "--steps", "abc"],
     "dilatio evolve: argument --steps: invalid int value: 'abc'"),
    (["check", "x.json", "--bogus"], "dilatio: unrecognized arguments: --bogus"),
    ([], "dilatio: the following arguments are required: command"),
])
def test_usage_error_is_input_error(argv, message, capsys):
    # argparse's own exit 2 is reserved for verification failures
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"input error: {message}"]


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: dilatio" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["check", "verify"])
def test_unusable_tolerance_is_input_error_before_any_read(command, tol, tmp_path, capsys):
    # NaN passes no comparison and inf passes every one; neither may reach
    # a report, and the files (missing here) are never opened
    missing = tmp_path / "missing.json"
    argv = [command, missing] + ([missing] if command == "verify" else []) + ["--tol", tol]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"input error: --tol must be a finite nonnegative number, "
                                f"got {float(tol)!r}"]


class TestEvolve:
    def test_zero_steps_echo(self, corpus, damp_bundle6, tmp_path, capsys):
        code, out, _ = run(
            capsys, "evolve", damp_bundle6, corpus / "state_excited.json", "--steps", "0"
        )
        assert code == 0
        state = json.loads(out)
        assert state["matrix"][3] == [1.0, 0.0]

    def test_damping_population_decay(self, corpus, damp_bundle6, capsys):
        code, out, _ = run(
            capsys, "evolve", damp_bundle6, corpus / "state_excited.json", "--steps", "3"
        )
        assert code == 0
        state = json.loads(out)
        assert state["matrix"][3][0] == pytest.approx(0.125, abs=1e-9)

    def test_output_state_is_normalized(self, corpus, damp_bundle6, tmp_path, capsys):
        code, out, _ = run(
            capsys, "evolve", damp_bundle6, corpus / "state_plus.json", "--steps", "4"
        )
        state = json.loads(out)
        trace = state["matrix"][0][0] + state["matrix"][3][0]
        assert trace == pytest.approx(1.0, abs=1e-10)

    def test_horizon_exceeded(self, corpus, damp_bundle6, capsys):
        code, _, err = run(
            capsys, "evolve", damp_bundle6, corpus / "state_excited.json", "--steps", "7"
        )
        assert code == 3
        assert "horizon exceeded: rebuild with larger --steps" in err

    @pytest.mark.parametrize("mode", ["semigroup", "cyclic"])
    def test_negative_steps_is_input_error(self, corpus, tmp_path, capsys, mode):
        # not "horizon exceeded": no larger --steps at build time would help
        bundle = tmp_path / f"{mode}.bundle"
        channel = "amplitude_damping_0.5" if mode == "semigroup" else "rotation_m4"
        run(capsys, "dilate", corpus / f"channel_{channel}.json", "--mode", mode,
            "--steps", "3", "--out", bundle)
        code, out, err = run(
            capsys, "evolve", bundle, corpus / "state_excited.json", "--steps", "-1"
        )
        assert code == 1 and out == ""
        assert err == "input error: --steps must be nonnegative, got -1\n"

    @pytest.mark.parametrize("flags, message", [
        (("--steps", "1", "--sequence", "T"), "provide exactly one of --steps or --sequence"),
        ((), "provide exactly one of --steps or --sequence"),
        (("--steps", "-2"), "--steps must be nonnegative, got -2"),
        (("--sequence", "TSX"), "control sequence must use the alphabet T/S, got ['T', 'S', 'X']"),
    ])
    def test_usage_errors_read_no_file(self, corpus, damp_bundle6, capsys, monkeypatch,
                                       flags, message):
        from dilatio import cli

        def refuse(*args, **kwargs):
            raise AssertionError("a file was read before the arguments were checked")

        monkeypatch.setattr(cli, "load_bundle", refuse)
        monkeypatch.setattr(cli, "load_state", refuse)
        code, out, err = run(capsys, "evolve", damp_bundle6, corpus / "state_excited.json", *flags)
        assert code == 1 and out == ""
        assert err == f"input error: {message}\n"

    def test_sequences_collapse_on_control_bundle(self, corpus, tmp_path, capsys):
        bundle = tmp_path / "ctl.bundle"
        run(capsys, "dilate", corpus / "channel_commuting_a.json", "--mode", "control",
            "--steps", "3", "--second", corpus / "channel_commuting_b.json", "--out", bundle)
        code1, out1, _ = run(capsys, "evolve", bundle, corpus / "state_plus.json",
                             "--sequence", "TST")
        code2, out2, _ = run(capsys, "evolve", bundle, corpus / "state_plus.json",
                             "--sequence", "STT")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_sequence_on_semigroup_bundle_is_input_error(self, corpus, damp_bundle6, capsys):
        code, _, _ = run(
            capsys, "evolve", damp_bundle6, corpus / "state_excited.json", "--sequence", "TS"
        )
        assert code == 1

    def test_steps_and_sequence_conflict(self, corpus, damp_bundle6, capsys):
        code, _, _ = run(
            capsys, "evolve", damp_bundle6, corpus / "state_excited.json",
            "--steps", "1", "--sequence", "T",
        )
        assert code == 1


class TestReachable:
    def test_equal_channels_single_state(self, corpus, capsys):
        code, out, _ = run(
            capsys, "reachable", corpus / "channel_commuting_a.json",
            corpus / "channel_commuting_a.json", corpus / "state_ground.json",
            "--steps", "3",
        )
        assert code == 0
        states = json.loads(out)
        assert len(states) == 1

    def test_zero_steps_echoes_input(self, corpus, capsys):
        code, out, _ = run(
            capsys, "reachable", corpus / "channel_commuting_a.json",
            corpus / "channel_commuting_b.json", corpus / "state_ground.json",
            "--steps", "0",
        )
        states = json.loads(out)
        assert len(states) == 1 and states[0]["k"] == 0
        assert states[0]["matrix"][0] == [1.0, 0.0]

    def test_four_steps_k_labels(self, corpus, capsys):
        code, out, _ = run(
            capsys, "reachable", corpus / "channel_commuting_a.json",
            corpus / "channel_commuting_b.json", corpus / "state_ground.json",
            "--steps", "4",
        )
        assert code == 0
        states = json.loads(out)
        assert len(states) <= 5
        assert all(0 <= s["k"] <= 4 for s in states)

    def test_non_commuting_pair_exit_three(self, corpus, tmp_path, capsys):
        from dilatio.channels import unitary_channel

        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        save_channel(tmp_path / "h.json", unitary_channel(hadamard))
        code, _, _ = run(
            capsys, "reachable", tmp_path / "h.json", corpus / "channel_pauli_z.json",
            corpus / "state_ground.json", "--steps", "2",
        )
        assert code == 3


class TestFixtures:
    def test_regeneration_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "fx1", tmp_path / "fx2"
        assert run(capsys, "fixtures", "--out", a)[0] == 0
        assert run(capsys, "fixtures", "--out", b)[0] == 0
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_corpus_classification(self, corpus, capsys):
        channel_files = sorted(corpus.glob("channel_*.json"))
        assert len(channel_files) == 13
        for path in channel_files:
            code, _, _ = run(capsys, "check", path)
            if "transpose" in path.name:
                assert code == 2
            else:
                assert code == 0

    def test_damping_family_parameterized(self, corpus):
        for gamma in ("0.1", "0.3", "0.5"):
            assert (corpus / f"channel_amplitude_damping_{gamma}.json").exists()

    def test_states_load(self, corpus):
        for name in ("ground", "excited", "plus"):
            rho = load_state(corpus / f"state_{name}.json")
            assert np.trace(rho).real == pytest.approx(1.0)


def test_round_trip_matches_in_memory_verification(corpus, tmp_path, capsys):
    from dilatio.fixtures import amplitude_damping
    from dilatio.semigroup import build_semigroup_dilation, verify_dilation
    from dilatio.serialize import load_bundle

    ch = amplitude_damping(0.5)
    bundle = build_semigroup_dilation(ch, 4)
    in_memory = verify_dilation(bundle, ch)

    out = tmp_path / "b.bundle"
    run(capsys, "dilate", corpus / "channel_amplitude_damping_0.5.json",
        "--mode", "semigroup", "--steps", "4", "--out", out)
    reloaded = load_bundle(out)
    from_disk = verify_dilation(reloaded, ch)
    assert from_disk.residuals == in_memory.residuals


@pytest.mark.parametrize("command", ["verify", "evolve"])
def test_generator_outside_the_register_form_is_input_error(command, corpus, damp_bundle5,
                                                              tmp_path, capsys):
    # a v1 file whose V is a Haar unitary: no block permutation of the cells
    from dilatio.fixtures import haar_unitary
    from dilatio.serialize import matrix_to_blob

    doc = json.loads(damp_bundle5.read_text())
    doc["V"]["blob"] = matrix_to_blob(haar_unitary(doc["V"]["rows"], np.random.default_rng(3)))
    path = tmp_path / "haar.bundle"
    path.write_text(json.dumps(doc))
    argv = {
        "verify": (corpus / "channel_amplitude_damping_0.5.json",),
        "evolve": (corpus / "state_excited.json", "--steps", "1"),
    }[command]
    code, out, err = run(capsys, command, path, *argv)
    assert code == 1 and out == ""
    assert "no block permutation of its 6 register cells" in err
