"""Memory guards of the command line: dilate, verify and evolve one large
bundle, each as a child process that must peak below PEAK_MB of RSS, and
check the reports the calls print.

Run it from an empty directory, with the `dilatio` console script on the
PATH, naming one guard:

    python .github/guard.py semigroup   # d=3, horizon 150, D = 4077
    python .github/guard.py cyclic      # d=3, period 151, D = 4077

It exits nonzero with every failure on one line, and deletes the bundle.
"""

import contextlib
import json
import os
import subprocess
import sys
import time

import numpy as np

from dilatio.channels import random_channel, unitary_channel
from dilatio.serialize import save_channel, save_state

PEAK_MB = 150


def semigroup():
    save_channel("guard_channel.json", random_channel(3, 9, 1))
    save_state("guard_state.json", np.diag([0.5, 0.3, 0.2]))

    def evolved(rho):
        if rho.shape != (3, 3) or abs(np.trace(rho) - 1) > 1e-9:
            return f"evolved state of shape {rho.shape}, trace {np.trace(rho)}"

    return {
        "bundle": "guard.bundle",
        "calls": (
            ["dilate", "guard_channel.json", "--mode", "semigroup", "--steps", "150",
             "--out", "guard.bundle"],
            ["verify", "guard.bundle", "guard_channel.json"],
            ["evolve", "guard.bundle", "guard_state.json", "--steps", "150"],
        ),
        "items": 151,
        # 5.6e-14 at the guard: precision lost there must not pass on the 1e-9 tolerance alone
        "residual": 1e-12,
        "evolved": evolved,
    }


def cyclic():
    # U^150 = I, so T^151 = T: period 151, D = 3 * 9 * 151 = 4077
    u = np.diag(np.exp(2j * np.pi * np.arange(3) / 150))
    rho = np.full((3, 3), 1 / 3)
    save_channel("cyclic_channel.json", unitary_channel(u))
    save_state("cyclic_state.json", rho)

    def evolved(out):
        un = np.linalg.matrix_power(u, 1000)
        # 1.5e-13 at this size
        miss = np.linalg.svd(out - un @ rho @ un.conj().T, compute_uv=False).sum()
        if not miss < 1e-11:
            return (f"evolved state misses U^n rho U^-n by {miss:.3g} in trace norm, "
                    f"expected below 1e-11")

    return {
        "bundle": "cyclic.bundle",
        "calls": (
            ["dilate", "cyclic_channel.json", "--mode", "cyclic", "--m-max", "151",
             "--out", "cyclic.bundle"],
            ["verify", "cyclic.bundle", "cyclic_channel.json", "--n-max", "300"],
            ["evolve", "cyclic.bundle", "cyclic_state.json", "--steps", "1000"],
        ),
        "items": 301,
        # 6.7e-14 at this size
        "residual": 1e-12,
        "evolved": evolved,
    }


GUARDS = {"semigroup": semigroup, "cyclic": cyclic}


def run(name: str) -> list[str]:
    """The failures of one guard; empty when it passes."""
    guard = GUARDS[name]()
    failures = []
    for argv in guard["calls"]:
        start = time.perf_counter()
        with open(f"{argv[0]}.out", "wb") as out:
            child = subprocess.Popen(["dilatio", *argv], stdout=out)
            _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        peak_mb = usage.ru_maxrss / 1024
        print(f"dilatio {argv[0]} at the {name} guard: {wall:.2f} s, peak RSS {peak_mb:.0f} MB")
        if os.waitstatus_to_exitcode(status) != 0:
            failures.append(f"dilatio {argv[0]} exited {os.waitstatus_to_exitcode(status)}")
        if peak_mb >= PEAK_MB:
            failures.append(
                f"dilatio {argv[0]} peak RSS {peak_mb:.0f} MB is not below {PEAK_MB} MB"
            )
    # the two reports must arrive whole: a lost flush would cut them short
    try:
        report = json.load(open("verify.out"))
        items = guard["items"]
        if report["pass"] is not True or len(report["items"]) != items:
            failures.append(f"verify report: pass {report['pass']}, {len(report['items'])} items, "
                            f"expected true and {items}")
        if not max(report["residuals"]) < guard["residual"]:
            failures.append(f"verify report: largest residual {max(report['residuals']):.3g}, "
                            f"expected below {guard['residual']:g}")
    except (ValueError, KeyError, TypeError) as exc:
        failures.append(f"verify report unreadable: {exc!r}")
    try:
        state = json.load(open("evolve.out"))
        pairs = np.array(state["matrix"], dtype=float)
        rho = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(state["dim"], state["dim"])
        failure = guard["evolved"](rho)
        if failure:
            failures.append(failure)
    except (ValueError, KeyError, TypeError) as exc:
        failures.append(f"evolved state unreadable: {exc!r}")
    with contextlib.suppress(FileNotFoundError):
        os.remove(guard["bundle"])
    return failures


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in GUARDS:
        sys.exit(f"usage: python {sys.argv[0]} {{{','.join(GUARDS)}}}")
    failures = run(sys.argv[1])
    if failures:
        sys.exit("; ".join(failures))
