"""The command line's exit-code contract under mutated channel files.

Every call returns 0-4 and raises nothing, records no warning, leaves one
stderr line with a known prefix when it exits 1, 3 or 4, and writes
nothing or one JSON document to stdout (README, "Command line").  Each
example mutates one channel file of tests/data and hands it to one of
nine calls: check, dilate in every mode, verify of every bundle kind and
reachable.
"""

import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatio.cli import main

DATA = Path(__file__).parent / "data"
DAMP, ROT = "channel_amplitude_damping_0.5.json", "channel_rotation_m4.json"
A, B = "channel_commuting_a.json", "channel_commuting_b.json"
PREFIXES = ("input error: ", "precondition failed: ", "horizon exceeded: ", "resource guard: ")
# JSON numbers that Python's reader accepts, NaN and the infinities among them
VALUES = [1e308, -1e308, 1e200, 1e-320, 0.0, math.nan, math.inf, -math.inf]

# each call: its argv, F the mutated file and OUT a bundle path, and the
# file of tests/data that F mutates
CALLS = {
    "check": (("check", "F"), DAMP),
    "dilate-semigroup": (("dilate", "F", "--mode", "semigroup", "--steps", "2", "--out", "OUT"),
                         DAMP),
    "dilate-cyclic": (("dilate", "F", "--mode", "cyclic", "--out", "OUT"), ROT),
    "dilate-control": (("dilate", A, "--mode", "control", "--second", "F", "--out", "OUT"), B),
    "verify-semigroup": (("verify", "damp.bundle", "F"), DAMP),
    "verify-cyclic": (("verify", "rot.bundle", "F", "--n-max", "8"), ROT),
    "verify-control": (("verify", "ctl1.bundle", "F", B), A),
    "reachable-first": (("reachable", "F", B, "state_plus.json", "--steps", "2"), A),
    "reachable-second": (("reachable", A, "F", "state_plus.json", "--steps", "2"), B),
}


def mutate(doc, kind, value, op, entry, part, shift):
    """Mutate a channel document in place by one change of this kind."""
    kraus = doc["kraus"]
    if kind == "entry":
        kraus[op % len(kraus)][entry][part] = value
    elif kind == "coefficient":
        doc["coefficients"] = [1.0] * len(kraus)
        doc["coefficients"][op % len(kraus)] = value
    elif kind == "heisenberg":
        doc["picture"] = "heisenberg"
    elif kind == "dim_out":
        doc["dim_out"] += shift
    else:  # two operators of entries whose squares sum past float64
        doc["kraus"] = [[[1e154, 0.0]] * len(kraus[0])] * 2


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(CALLS)),
       kind=st.sampled_from(["entry", "coefficient", "heisenberg", "dim_out", "huge pair"]),
       value=st.sampled_from(VALUES), op=st.integers(0, 15), entry=st.integers(0, 3),
       part=st.integers(0, 1), shift=st.sampled_from([-1, 1]))
def test_mutated_channel_file_keeps_the_exit_contract(name, kind, value, op, entry, part, shift,
                                                      scratch):
    template, base = CALLS[name]
    doc = json.loads((DATA / base).read_text())
    mutate(doc, kind, value, op, entry, part, shift)
    mutated, out = scratch / "mutated.json", scratch / "out.bundle"
    mutated.write_text(json.dumps(doc))
    out.unlink(missing_ok=True)
    files = {"F": mutated, "OUT": out}
    argv = [str(files.get(a, DATA / a if a.endswith((".json", ".bundle")) else a))
            for a in template]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv)
    stdout, stderr = stdout.getvalue(), stderr.getvalue()
    assert [str(w.message) for w in caught] == []
    assert code in range(5)
    if code in (1, 3, 4):
        assert len(stderr.splitlines()) == 1 and stderr.startswith(PREFIXES)
    if stdout:
        json.loads(stdout)
