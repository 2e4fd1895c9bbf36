"""Smoke test of the benchmark harness.

    python3 -m pytest bench/test_smoke.py

Every workload runs at toy size in both modes and reports exactly the
metrics BENCHMARK.json lists; the recorder and the oracle are checked on
cases with known answers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import oracle  # noqa: E402
from spans import FUNCTIONS, Recorder, aggregate  # noqa: E402


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_workload_reports_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    # only the cyclic evolves at n >= 10^6 fail: 3 of the 7 calls per round
    expected = 3 / 7 if workload == "cyclic-longrun" else 0.0
    assert result["failed"] / result["attempted"] == pytest.approx(expected)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "cyclic-longrun", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_recorder_self_time_and_counts():
    recorder = Recorder()
    leaf = recorder.wrap("leaf", lambda: time.sleep(0.01))
    outer = recorder.wrap("outer", lambda: (leaf(), leaf()))
    outer()
    outer()
    self_s, calls, covered = aggregate(recorder.spans)
    assert calls == {"outer": 2, "leaf": 4}
    assert self_s["leaf"] >= 0.04
    assert self_s["outer"] < self_s["leaf"] / 4
    assert covered == pytest.approx(self_s["outer"] + self_s["leaf"])
    # a window over the second call alone sees exactly one call's spans
    assert aggregate(recorder.spans, 3)[1] == {"outer": 1, "leaf": 2}


def test_instrument_wraps_every_binding_and_restores_it(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from dilatio import cli, linalg, semigroup, stinespring

    channel = inputs.write_channel(tmp_path / "ch.json", oracle.amplitude_damping(0.4))
    bundle = tmp_path / "b.bundle"
    originals = (linalg.kron, semigroup.kron, stinespring.kron)
    recorder = Recorder()
    counts = []
    with recorder.instrument():
        assert semigroup.kron is stinespring.kron is not originals[0]
        for _ in range(2):
            begin = len(recorder.spans)
            assert cli.main(["dilate", str(channel), "--mode", "semigroup", "--steps", "3",
                             "--out", str(bundle)]) == 0
            counts.append(aggregate(recorder.spans, begin)[1])
    assert (linalg.kron, semigroup.kron, stinespring.kron) == originals
    assert counts[0] == counts[1]
    assert set(counts[0]) <= set(FUNCTIONS)
    assert counts[0]["semigroup.build_semigroup_dilation"] == 1
    assert counts[0]["channels.power"] == 3


def test_oracle_matches_the_damping_closed_form():
    assert oracle.damping_self_check() < 1e-12
    m = oracle.superoperator(oracle.amplitude_damping(0.25))
    excited = np.diag([0.0, 1.0]).astype(np.complex128)
    # T^n |1><1| keeps weight (1 - gamma)^n on |1>
    assert oracle.channel_power(m, 3, excited)[1, 1].real == pytest.approx(0.75 ** 3)
