"""v1 bundles written by an earlier version read back as they did then.

tests/data holds three bundles, their inputs and the stdout of ``dilatio
verify`` and ``dilatio evolve`` on each, all written by that version (see
tests/data/README.md); the reader must reproduce every byte of it.
"""

from pathlib import Path

import pytest

from dilatio.cli import main

DATA = Path(__file__).parent / "data"

CALLS = {
    "damp.verify": ("verify", "damp.bundle", "channel_amplitude_damping_0.5.json"),
    "damp.evolve": ("evolve", "damp.bundle", "state_excited.json", "--steps", "3"),
    "rot.verify": ("verify", "rot.bundle", "channel_rotation_m4.json"),
    "rot.evolve": ("evolve", "rot.bundle", "state_plus.json", "--steps", "10"),
    "ctl1.verify": (
        "verify", "ctl1.bundle", "channel_commuting_a.json", "channel_commuting_b.json"
    ),
    "ctl1.evolve": ("evolve", "ctl1.bundle", "state_plus.json", "--sequence", "T"),
}


@pytest.mark.parametrize("name", CALLS)
def test_stdout_is_byte_identical(name, capsysbinary):
    command, *files = CALLS[name]
    argv = [command] + [str(DATA / a) if a.endswith((".bundle", ".json")) else a for a in files]
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == (DATA / f"{name}.stdout").read_bytes()
