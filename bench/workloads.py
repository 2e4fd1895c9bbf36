"""The four workloads: the CLI calls of one round and how each is checked.

A workload writes its seeded inputs into a work directory and returns a
Plan: the channel files certified in set-up, and the operations of one
round.  Each operation is one `dilatio` call; its check compares the
call's output with the oracle (returning the trace-norm miss) and with
properties the method must have (returning the defects found).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracle

# Faults of the program that some operations are known to hit.  A failed
# operation that names one is attributed to it; any other failure is
# unexpected.
KNOWN_FAULTS = {
    "cyclic-exponent-drift": (
        "evolve_cyclic raises V to n + wrap_count(m, n) instead of reducing the "
        "exponent mod m, so rounding drift grows linearly in n until the output "
        "trace leaves 1 +- 1e-10 and `dilatio evolve` exits 1"
    ),
}

Check = Callable[[str], "tuple[float, list[str]]"]


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``kind`` routes its time: dilate, verify and evolve
    (reachable counts as evolve) feed the end-to-end metrics, prepare
    feeds none."""

    kind: str
    label: str
    argv: tuple[str, ...]
    check: Check
    bundle: Path | None = None
    known_fault: str | None = None
    group: str | None = None  # ops sharing a group must print the same state


@dataclass(frozen=True)
class Plan:
    channels: tuple[Path, ...]
    ops: tuple[Op, ...]


def read_state(text: str) -> np.ndarray:
    doc = json.loads(text)
    return inputs.read_matrix(doc["matrix"], doc["dim"])


def state_check(expected: np.ndarray) -> Check:
    def check(text: str):
        out = read_state(text)
        return oracle.trace_norm(out - expected), oracle.state_defects(out)
    return check


def verify_check(items: int) -> Check:
    def check(text: str):
        doc = json.loads(text)
        defects = []
        if doc.get("pass") is not True:
            defects.append("report does not pass")
        if len(doc.get("items", ())) != items:
            defects.append(f"{len(doc.get('items', ()))} items, expected {items}")
        return 0.0, defects
    return check


def bundle_check(path: Path, mode: str, shape: list[int], **fields) -> Check:
    def check(text: str):
        doc = json.loads(path.read_text(encoding="utf-8"))
        defects = []
        if doc.get("format") != "dilatio/bundle-v1" or doc.get("mode") != mode:
            defects.append(f"bundle is {doc.get('format')}/{doc.get('mode')}, expected {mode}")
        if doc.get("shape") != shape:
            defects.append(f"bundle shape {doc.get('shape')}, expected {shape}")
        for key, value in fields.items():
            if doc.get(key) != value:
                defects.append(f"bundle {key}={doc.get(key)}, expected {value}")
        return 0.0, defects
    return check


def reachable_check(expected: dict[int, np.ndarray]) -> Check:
    """Every listed state must match its oracle word; every k must be
    listed or lie within the dedup tolerance of a listed state."""
    def check(text: str):
        listed = {e["k"]: inputs.read_matrix(e["matrix"], e["dim"]) for e in json.loads(text)}
        miss = max((oracle.trace_norm(s - expected[k]) for k, s in listed.items()), default=0.0)
        defects = [f"k={k}: {d}" for k, s in listed.items() for d in oracle.state_defects(s)]
        for k, want in expected.items():
            if min(0.5 * oracle.trace_norm(want - s) for s in listed.values()) > 1e-9:
                defects.append(f"k={k} reachable but not listed")
        return miss, defects
    return check


def _dilate(channel: Path, bundle: Path, flags: list[str], check: Check, kind="dilate") -> Op:
    return Op(kind, f"dilate {bundle.stem}", ("dilate", str(channel), *flags, "--out", str(bundle)),
              check, bundle=bundle)


def semigroup_verify(work: Path, rng: np.random.Generator, toy: bool) -> Plan:
    """Random qutrit channel of full Kraus rank 9, horizon N=16 (D=459)."""
    dim, rank, horizon, steps = (2, 4, 3, (1, 3)) if toy else (3, 9, 16, (1, 16))
    kraus = inputs.random_kraus(rng, dim, rank)
    channel = inputs.write_channel(work / "channel.json", kraus)
    m = oracle.superoperator(kraus)
    bundle = work / "semigroup.bundle"
    ops = [
        _dilate(channel, bundle, ["--mode", "semigroup", "--steps", str(horizon)],
                bundle_check(bundle, "semigroup", [dim, dim * dim, horizon + 1], horizon=horizon)),
        Op("verify", "verify", ("verify", str(bundle), str(channel)), verify_check(horizon + 1)),
    ]
    for n in steps:
        rho = inputs.random_state(rng, dim)
        state = inputs.write_state(work / f"state_{n}.json", rho)
        ops.append(Op("evolve", f"evolve n={n}", ("evolve", str(bundle), str(state), "--steps", str(n)),
                      state_check(oracle.channel_power(m, n, rho))))
    return Plan((channel,), tuple(ops))


def semigroup_build(work: Path, rng: np.random.Generator, toy: bool) -> Plan:
    """Random qubit channel of rank 4, horizon N=95 (D=768).

    Verifying this bundle would outweigh the rest of the round many times
    over, so the verify call runs on a companion bundle of the same channel
    with horizon 16 (D=136): verify_s stays a small, honest measurement
    while dilate and evolve carry the load."""
    dim, rank, horizon, steps, small = (2, 4, 6, (1, 6), 2) if toy else (2, 4, 95, (1, 95), 16)
    kraus = inputs.random_kraus(rng, dim, rank)
    channel = inputs.write_channel(work / "channel.json", kraus)
    m = oracle.superoperator(kraus)
    bundle = work / "semigroup.bundle"
    companion = work / "companion.bundle"
    ops = [
        _dilate(channel, bundle, ["--mode", "semigroup", "--steps", str(horizon)],
                bundle_check(bundle, "semigroup", [dim, dim * dim, horizon + 1], horizon=horizon)),
        _dilate(channel, companion, ["--mode", "semigroup", "--steps", str(small)],
                bundle_check(companion, "semigroup", [dim, dim * dim, small + 1], horizon=small),
                kind="prepare"),
        Op("verify", "verify companion", ("verify", str(companion), str(channel)), verify_check(small + 1)),
    ]
    for n in steps:
        rho = inputs.random_state(rng, dim)
        state = inputs.write_state(work / f"state_{n}.json", rho)
        ops.append(Op("evolve", f"evolve n={n}", ("evolve", str(bundle), str(state), "--steps", str(n)),
                      state_check(oracle.channel_power(m, n, rho))))
    return Plan((channel,), tuple(ops))


def control_verify(work: Path, rng: np.random.Generator, toy: bool) -> Plan:
    """Seeded commuting qubit pair, horizon N=6 (D=392 on two registers).

    Words sharing their letter counts are permutations of one another and
    must print the same state."""
    dim = 2
    horizon, words = (2, ("TS", "ST", "T")) if toy else (
        6, ("TTTSSS", "STSTST", "SSSTTT", "TTTTTT", "TSS"))
    t_kraus, s_kraus = inputs.commuting_pair(rng, dim)
    t_file = inputs.write_channel(work / "channel_t.json", t_kraus)
    s_file = inputs.write_channel(work / "channel_s.json", s_kraus)
    mt, ms = oracle.superoperator(t_kraus), oracle.superoperator(s_kraus)
    rho = inputs.random_state(rng, dim)
    state = inputs.write_state(work / "state.json", rho)
    bundle = work / "control.bundle"
    ops = [
        _dilate(t_file, bundle, ["--mode", "control", "--steps", str(horizon), "--second", str(s_file)],
                bundle_check(bundle, "control", [dim, dim * dim, horizon + 1, horizon + 1], horizon=horizon)),
        Op("verify", "verify", ("verify", str(bundle), str(t_file), str(s_file)),
           verify_check((horizon + 1) * (horizon + 2) // 2)),
    ]
    for word in words:
        k = word.count("T")
        ops.append(Op("evolve", f"evolve {word}", ("evolve", str(bundle), str(state), "--sequence", word),
                      state_check(oracle.control_word(mt, ms, k, len(word), rho)),
                      group=f"N={len(word)},k={k}"))
    reachable = {k: oracle.control_word(mt, ms, k, horizon, rho) for k in range(horizon + 1)}
    ops.append(Op("evolve", "reachable", ("reachable", str(t_file), str(s_file), str(state),
                                          "--steps", str(horizon)),
                  reachable_check(reachable)))
    return Plan((t_file, s_file), tuple(ops))


def cyclic_longrun(work: Path, rng: np.random.Generator, toy: bool) -> Plan:
    """Qutrit conjugation by U = Q diag(exp(2 pi i k / 15)) Q^dag: period
    m=16 (D=432), evolved at n up to 10^12.

    The calls at n >= 10^6 hit the cyclic-exponent-drift fault on inputs
    that do not depend on the seed: the channel and their start state come
    from a fixed seed.  n=10^5 already fails on this channel, but its
    margin depends on the state, so it is left out."""
    dim, n_max = 3, (3 if toy else 10)
    q, phases, fixed_rho = inputs.cyclic_inputs(dim)
    channel = inputs.write_channel(work / "channel.json", [(q * phases) @ q.conj().T])
    fixed_state = inputs.write_state(work / "state_fixed.json", fixed_rho)
    bundle = work / "cyclic.bundle"
    m = inputs.CYCLIC_ORDER + 1
    ops = [
        _dilate(channel, bundle, ["--mode", "cyclic"],
                bundle_check(bundle, "cyclic", [dim, dim * dim, m], period=m)),
        Op("verify", "verify", ("verify", str(bundle), str(channel), "--n-max", str(n_max)),
           verify_check(n_max + 1)),
    ]
    for exponent in (1, 3, 6, 9, 12):
        n = 10 ** exponent
        fault = "cyclic-exponent-drift" if n >= 10 ** 6 else None
        if fault:
            rho, state = fixed_rho, fixed_state
        else:
            rho = inputs.random_state(rng, dim)
            state = inputs.write_state(work / f"state_{n}.json", rho)
        ops.append(Op("evolve", f"evolve n=1e{exponent}", ("evolve", str(bundle), str(state), "--steps", str(n)),
                      state_check(oracle.cyclic_power(q, phases, inputs.CYCLIC_ORDER, n, rho)),
                      known_fault=fault))
    return Plan((channel,), tuple(ops))


WORKLOADS = {
    "semigroup-verify": semigroup_verify,
    "semigroup-build": semigroup_build,
    "control-verify": control_verify,
    "cyclic-longrun": cyclic_longrun,
}


def make_plan(name: str, work: Path, seed: int, toy: bool = False) -> Plan:
    """Write the workload's inputs for this seed and return its plan."""
    rng = np.random.default_rng([list(WORKLOADS).index(name), seed])
    return WORKLOADS[name](work, rng, toy)
