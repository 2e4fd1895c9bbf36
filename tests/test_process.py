"""The CLI as a process: the modules each call loads, and the contract
each call keeps through ``cli.run`` (exit code, complete stdout, one
stderr line), as opposed to ``cli.main`` called in-process.

Every child runs without PYTHONUNBUFFERED: with it set, each write
reaches the pipe at once, and a report that ``run`` failed to flush
before ``os._exit`` would still arrive.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dilatio
from dilatio.cli import main
from dilatio.fixtures import write_fixture_corpus

SRC = Path(dilatio.__file__).resolve().parent.parent

# Prints, as one JSON line, the dilatio modules loaded after `import
# dilatio` and after each (name, argv) call of cli.main, in one process.
LOADS = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("dilatio."))

import dilatio
after = {"import": loaded()}
from dilatio import cli
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, name
    after[name] = loaded()
print(json.dumps(after))
"""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def child(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          env=child_env(), timeout=120)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    write_fixture_corpus(out)
    return out


@pytest.fixture(scope="module")
def damp_bundle(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("bundles") / "damp.bundle"
    assert main(["dilate", str(corpus / "channel_amplitude_damping_0.5.json"),
                 "--mode", "semigroup", "--steps", "4", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def loaded(corpus, damp_bundle):
    damp = str(corpus / "channel_amplitude_damping_0.5.json")
    calls = [
        ("check", ["check", damp]),
        ("verify", ["verify", str(damp_bundle), damp]),
        ("evolve", ["evolve", str(damp_bundle), str(corpus / "state_excited.json"),
                    "--steps", "3"]),
    ]
    proc = child("-c", LOADS, json.dumps(calls))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestLoads:
    def test_import_loads_no_submodule(self, loaded):
        assert loaded["import"] == []

    def test_check_loads_no_dilation_module(self, loaded):
        assert loaded["check"] == [f"dilatio.{m}" for m in
                                   ("channels", "cli", "errors", "linalg", "serialize")]

    @pytest.mark.parametrize("call", ["verify", "evolve"])
    def test_semigroup_bundle_calls_skip_stinespring_and_fixtures(self, loaded, call):
        assert "dilatio.register" in loaded[call]
        assert not {"dilatio.stinespring", "dilatio.fixtures"} & set(loaded[call])


class TestPackageNames:
    def test_each_name_is_its_modules_object(self):
        for module, names in dilatio._EXPORTS.items():
            source = importlib.import_module(f"dilatio.{module}")
            for name in names:
                assert getattr(dilatio, name) is getattr(source, name), name
        assert sorted(dilatio.__all__) == sorted(
            name for names in dilatio._EXPORTS.values() for name in names)

    def test_dir_and_star_import_list_every_name(self):
        assert set(dilatio.__all__) <= set(dir(dilatio))
        namespace = {}
        exec("from dilatio import *", namespace)
        assert set(dilatio.__all__) <= set(namespace)

    def test_submodules_stay_attributes(self):
        assert dilatio.cyclic is importlib.import_module("dilatio.cyclic")

    def test_only_the_verifiers_take_a_tolerance(self):
        # every other check runs at its module's constant
        taken = {
            (name, param)
            for name in dilatio.__all__
            if inspect.isfunction(getattr(dilatio, name))
            for param in inspect.signature(getattr(dilatio, name)).parameters
            if param.endswith("tol")
        }
        assert taken == {
            (name, "tol") for name in ("verify_cptp", "kraus_from_choi", "verify_dilation",
                                       "verify_cyclic_dilation", "verify_control_dilation")
        }

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            dilatio.no_such_name  # noqa: B018


# One call per exit code: (expected code, argv with {fx}, {bundle}, {tmp}).
EXIT_CALLS = [
    (0, ("verify", "{bundle}", "{fx}/channel_amplitude_damping_0.5.json")),
    (1, ("check", "{fx}/missing.json")),
    (2, ("check", "{fx}/channel_transpose.json")),
    (3, ("dilate", "{fx}/channel_transpose.json", "--mode", "semigroup", "--steps", "2",
         "--out", "{tmp}/x.bundle")),
    (4, ("dilate", "{fx}/channel_identity.json", "--mode", "semigroup", "--steps", "600",
         "--out", "{tmp}/x.bundle")),
]


@pytest.mark.parametrize("code, argv", EXIT_CALLS, ids=[f"exit{c}" for c, _ in EXIT_CALLS])
def test_process_matches_main(code, argv, corpus, damp_bundle, tmp_path, capsys):
    argv = [a.format(fx=corpus, bundle=damp_bundle, tmp=tmp_path) for a in argv]
    proc = child("-m", "dilatio.cli", *argv)
    assert proc.returncode == code, proc.stderr
    assert main(argv) == code
    expected = capsys.readouterr()
    assert (proc.stdout, proc.stderr) == (expected.out, expected.err)
    if code in (0, 2):  # a report: one complete JSON document
        assert proc.stdout.endswith("}\n")
        assert json.loads(proc.stdout)["pass"] is (code == 0)
    else:
        assert proc.stdout == "" and proc.stderr.count("\n") == 1


def test_reader_closing_the_pipe_is_one_input_error(corpus):
    argv = [sys.executable, "-m", "dilatio.cli", "check",
            str(corpus / "channel_amplitude_damping_0.3.json")]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=child_env()) as proc:
        proc.stdout.close()  # long before the child, still importing numpy, writes
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == "input error: [Errno 32] Broken pipe\n"
