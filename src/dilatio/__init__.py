"""Unitary dilations of discrete-time quantum channel semigroups.

Core pipeline: certify a channel (channels.verify_cptp), dilate it
(stinespring / semigroup / cyclic / control), evolve states through the
enlarged closed system, and verify every reconstruction identity against
brute-force superoperator powers.

The names below are imported from their modules on first access
(PEP 562), so ``import dilatio`` loads no submodule and each CLI call
loads only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "channels": (
        "CertificationReport",
        "ChoiMatrix",
        "KrausChannel",
        "apply_channel",
        "choi",
        "compose",
        "convex_combine",
        "detect_unitary_conjugation",
        "dual",
        "identity_channel",
        "kraus_from_choi",
        "power",
        "random_channel",
        "superoperator_matrix",
        "unitary_channel",
        "verify_cptp",
    ),
    "control": (
        "build_control_dilation",
        "check_commuting",
        "evolve_control",
        "reachable_set",
        "verify_control_dilation",
        "verify_reachable_inclusion",
    ),
    "cyclic": (
        "CyclePeriod",
        "build_cyclic_dilation",
        "detect_cycle",
        "evolve_cyclic",
        "reduce_power",
        "reduced_exponent",
        "verify_cyclic_dilation",
        "wrap_count",
    ),
    "errors": (
        "ChannelFormatError",
        "HorizonError",
        "MemoryGuardError",
        "NotCommutingError",
        "NotCyclicError",
        "RejectedChannelError",
    ),
    "linalg": (
        "complete_isometry_to_unitary",
        "is_psd",
        "kron",
        "trace",
        "trace_distance",
        "trace_norm",
    ),
    "register": ("RegisterDilation", "VerificationReport"),
    "semigroup": (
        "build_semigroup_dilation",
        "evolve",
        "heisenberg_evolve",
        "verify_dilation",
    ),
    "stinespring": (
        "GeneralDilation",
        "UnitaryDilation",
        "general_stinespring",
        "heisenberg_dilation",
        "stinespring_unitary",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
        globals()[name] = value  # later lookups skip this function
        return value
    if name in _EXPORTS:  # a submodule not imported yet, as `dilatio.channels`
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
