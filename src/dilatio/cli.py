"""Command-line front door.

Exit codes: 0 pass, 1 input error, 2 verification failure,
3 precondition failure, 4 resource guard.  Reports go to stdout (or
--out where available), diagnostics to stderr.  The environment variable
DILATIO_MAX_DIM overrides the memory guard's limit, which is otherwise
the mode's default in ``register.GUARDS``.

Each handler imports the dilation modules it dispatches to, so that a
call loads only the modules its subcommand runs (``check`` loads no
dilation module at all).  ``run`` is the process entry point.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys

from .channels import CPTP_ATOL, verify_cptp
from .errors import (
    ChannelFormatError,
    HorizonError,
    MemoryGuardError,
    NotCommutingError,
    NotCyclicError,
    RejectedChannelError,
)
from .serialize import (
    dump_document,
    file_digest,
    load_bundle,
    load_channel,
    load_state,
    matrix_to_pairs,
    save_bundle,
    state_to_dict,
    write_json_atomic,
)

EXIT_PASS = 0
EXIT_INPUT = 1
EXIT_FAIL = 2
EXIT_PRECONDITION = 3
EXIT_GUARD = 4

# Defaults of the options that apply to some modes only; each option is
# None unless given, so that one given to another mode is refused.
DEFAULT_STEPS = 1
DEFAULT_M_MAX = 16
DEFAULT_N_MAX = 50


def _emit(report: dict, out_path: str | None) -> None:
    if out_path:
        write_json_atomic(out_path, report)
    else:
        sys.stdout.write(dump_document(report))


def _guard_limit(mode: str) -> int:
    """DILATIO_MAX_DIM if it is set, else the mode's default guard."""
    from .register import GUARDS

    env = os.environ.get("DILATIO_MAX_DIM")
    if env is None:
        return GUARDS[mode]
    if not env.isdecimal() or int(env) <= 0:
        raise ChannelFormatError(f"DILATIO_MAX_DIM must be a positive integer, got {env!r}")
    return int(env)


def _check_tol(tol: float) -> None:
    """Refuse a tolerance that is negative or not finite (NaN passes no
    comparison and inf passes every one), before any file is read."""
    if not math.isfinite(tol) or tol < 0:
        raise ChannelFormatError(f"--tol must be a finite nonnegative number, got {tol!r}")


def cmd_check(args) -> int:
    _check_tol(args.tol)
    ch = load_channel(args.channel)
    report = verify_cptp(ch, args.tol)
    _emit(
        {
            "command": "check",
            "inputs": {"channel": file_digest(args.channel)},
            "pass": report.accepted,
            "tolerance": args.tol,
            "residuals": [report.max_violation],
            "cp": report.cp,
            "tp_or_unital": report.tp_or_unital,
        },
        args.out,
    )
    return EXIT_PASS if report.accepted else EXIT_FAIL


def cmd_dilate(args) -> int:
    from . import control, cyclic, semigroup

    # usage errors first, before any file is read
    if args.second is not None and args.mode != "control":
        raise ChannelFormatError(f"--second applies to control mode, not {args.mode}")
    if args.steps is not None and args.mode == "cyclic":
        raise ChannelFormatError("--steps applies to semigroup and control modes, not cyclic")
    if args.m_max is not None and args.mode != "cyclic":
        raise ChannelFormatError(f"--m-max applies to cyclic mode, not {args.mode}")
    steps = DEFAULT_STEPS if args.steps is None else args.steps
    m_max = DEFAULT_M_MAX if args.m_max is None else args.m_max
    limit = _guard_limit(args.mode)
    # the build certifies each channel, as its word of total 1, after its guard
    ch = load_channel(args.channel)
    inputs = {"channel": file_digest(args.channel)}
    if args.mode == "semigroup":
        bundle = semigroup.build_semigroup_dilation(ch, steps, max_total_dim=limit)
    elif args.mode == "cyclic":
        period = cyclic.find_cycle(ch, m_max, max_total_dim=limit)
        bundle = cyclic.build_cyclic_dilation(ch, period, max_total_dim=limit)
    else:
        if not args.second:
            raise ChannelFormatError("control mode requires --second CHANNEL")
        second = load_channel(args.second)
        inputs["second"] = file_digest(args.second)
        bundle = control.build_control_dilation(ch, second, steps, max_total_dim=limit)
    save_bundle(args.out, bundle, inputs)
    print(f"wrote {args.mode} bundle to {args.out}", file=sys.stderr)
    return EXIT_PASS


def cmd_verify(args) -> int:
    from . import control, cyclic, semigroup
    from .register import DILATION_ATOL

    # the default is read here, so that `check` does not load register
    tol = DILATION_ATOL if args.tol is None else args.tol
    _check_tol(tol)
    digest = hashlib.sha256()  # of the bytes the reader streams: the file is read once
    bundle = load_bundle(args.bundle, digest)
    if args.second is not None and bundle.mode != "control":
        raise ChannelFormatError(f"a {bundle.mode} bundle is verified against one channel file")
    if args.n_max is not None and bundle.mode != "cyclic":
        raise ChannelFormatError(f"--n-max applies to cyclic bundles, not {bundle.mode}")
    if bundle.mode == "control" and not args.second:
        raise ChannelFormatError("a control bundle requires a second channel file")
    paths = {"channel": args.channel}
    if args.second:
        paths["second"] = args.second
    inputs = {"bundle": digest.hexdigest(), **{k: file_digest(p) for k, p in paths.items()}}
    # the verifier checks each channel's dimension and shape, then certifies them
    channels = [load_channel(path) for path in paths.values()]
    report_doc = {
        "command": "verify",
        "inputs": inputs,
        "tolerance": tol,
    }
    if bundle.mode == "cyclic":
        n_max = DEFAULT_N_MAX if args.n_max is None else args.n_max
        report = cyclic.verify_cyclic_dilation(bundle, channels[0], n_max=n_max, tol=tol)
        report_doc["period"] = bundle.period
    elif bundle.mode == "control":
        report = control.verify_control_dilation(bundle, *channels, tol)
        report_doc["horizon"] = bundle.horizon
    else:
        report = semigroup.verify_dilation(bundle, channels[0], tol)
        report_doc["horizon"] = bundle.horizon
    report_doc["pass"] = report.passed
    report_doc["residuals"] = list(report.residuals)
    report_doc["items"] = list(report.labels)
    _emit(report_doc, args.out)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_evolve(args) -> int:
    from . import control, cyclic, semigroup

    # usage errors first, before any file is read
    if (args.steps is None) == (args.sequence is None):
        raise ChannelFormatError("provide exactly one of --steps or --sequence")
    if args.steps is not None and args.steps < 0:
        raise ChannelFormatError(f"--steps must be nonnegative, got {args.steps}")
    if args.sequence is not None:
        control.normalize_sequence(args.sequence)
    bundle = load_bundle(args.bundle)
    rho = load_state(args.state)
    if (args.sequence is not None) != (bundle.mode == "control"):
        raise ChannelFormatError("--sequence applies to control bundles, --steps to the others")
    if bundle.mode == "control":
        out = control.evolve_control(bundle, rho, args.sequence)
    elif bundle.mode == "semigroup":
        out = semigroup.evolve(bundle, rho, args.steps)
    else:
        out = cyclic.evolve_cyclic(bundle, rho, args.steps)
    sys.stdout.write(dump_document(state_to_dict(out)))
    return EXIT_PASS


def cmd_reachable(args) -> int:
    from . import control

    # reachable_set checks the pair's shapes, then certifies it
    t, s = load_channel(args.channel_a), load_channel(args.channel_b)
    rho = load_state(args.state)
    states = control.reachable_set(t, s, rho, args.steps)
    doc = [
        {"k": k, "dim": int(state.shape[0]), "matrix": matrix_to_pairs(state)}
        for k, state in states
    ]
    sys.stdout.write(dump_document(doc))
    return EXIT_PASS


def cmd_fixtures(args) -> int:
    from .fixtures import write_fixture_corpus

    written = write_fixture_corpus(args.out)
    for path in written:
        print(path, file=sys.stderr)
    return EXIT_PASS


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error (exit 1); argparse's own
    exit 2 would read as a verification failure."""

    def error(self, message):
        raise ChannelFormatError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dilatio",
        description="Construct and verify unitary dilations of quantum channel semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify a channel file as CPTP")
    p.add_argument("channel")
    p.add_argument("--tol", type=float, default=CPTP_ATOL)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("dilate", help="build a dilation bundle")
    p.add_argument("channel")
    p.add_argument("--mode", choices=("semigroup", "cyclic", "control"), required=True)
    p.add_argument("--steps", type=int, default=None,
                   help=f"horizon N (semigroup/control; default {DEFAULT_STEPS})")
    p.add_argument("--second", default=None, help="second channel file (control mode)")
    p.add_argument("--m-max", type=int, default=None,
                   help=f"cycle search bound (cyclic mode; default {DEFAULT_M_MAX})")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_dilate)

    p = sub.add_parser("verify", help="verify a bundle against its channel(s)")
    p.add_argument("bundle")
    p.add_argument("channel")
    p.add_argument("second", nargs="?", default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--n-max", type=int, default=None,
                   help=f"powers to check (cyclic bundles; default {DEFAULT_N_MAX})")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("evolve", help="evolve a state through a bundle")
    p.add_argument("bundle")
    p.add_argument("state")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--sequence", default=None, help="control word over T/S")
    p.set_defaults(handler=cmd_evolve)

    p = sub.add_parser("reachable", help="reachable states of a commuting pair")
    p.add_argument("channel_a")
    p.add_argument("channel_b")
    p.add_argument("state")
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(handler=cmd_reachable)

    p = sub.add_parser("fixtures", help="write the canonical fixture corpus")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except HorizonError as exc:
        print(f"horizon exceeded: rebuild with larger --steps: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (NotCyclicError, NotCommutingError, RejectedChannelError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError:
        print("resource guard: out of memory", file=sys.stderr)
        return EXIT_GUARD
    except (ChannelFormatError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    """The process entry point, of the ``dilatio`` console script and of
    ``python -m dilatio.cli``: main(), then flush stdout and stderr and end
    the process with os._exit(code).

    Tearing the interpreter down after main returns (clearing every module
    and collecting numpy's objects) took 25-30 ms per call on a 2-core VM
    and does nothing a call needs: every file it writes is closed by then.  So
    nothing registered with atexit runs, and no stream but stdout and
    stderr is flushed; code that adds one (a logging handler, say) must
    flush it here, before os._exit.  A report that cannot be flushed (the
    reader closed the pipe) is an input error, as a failed write in main
    is.  In-process callers use main(), which returns the exit code.
    """
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = EXIT_INPUT
        try:
            print(f"input error: {exc}", file=sys.stderr)
        except OSError:
            pass
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
