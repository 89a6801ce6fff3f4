"""Command-line interface: `magiclab <suite> [subcommand] [flags]`.

Each module name runs its check suite when given no subcommand; a
subcommand reports what no suite report holds (a state, the degree sweep,
per-shot and per-instance records, the gate search's survivors, an exact
dimension).  Both are report functions in `suites`, and every command runs
through `suites.run_suite`: its reports print as one JSON array (JSON lines
with --jsonl), or go to the --out file.  A command reads the computation
flags its signature declares (`flags_read`), the output flags and its own
arguments, and any other common flag exits 2; its help lists only the flags
it reads, with their defaults.  Exit codes: 0 all checks pass, 1 a check
failed, 2 unknown suite or invalid parameters; `suites.exit_code` maps a
failure to its code and error line.
"""

import argparse
import os
import sys

from . import statevec as sv
from .suites import (
    SUITES,
    agsp_sweep,
    check_params,
    exit_code,
    flag_defaults,
    glue_run,
    modular_lpu_search,
    modular_verlinde,
    prep_adaptive,
    prep_bell,
    run_suite,
    zxcat_build,
)


# The flags every suite and subcommand parser accepts.  They default to
# absent, so a flag that was not given leaves no attribute behind.  A
# command reads the computation flags its signature declares and every
# output flag.
_COMMON = {
    "--n": {"type": int, "help": "problem size"},
    "--seed": {"type": int, "help": "RNG seed"},
    "--tol": {"type": float, "help": "tolerance override"},
    "--trials": {"type": int, "help": "randomized trials"},
    "--out": {"help": "write JSON to this path"},
    "--jsonl": {"action": "store_true", "help": "one JSON object per line"},
    "--max-n": {"type": int, "help": "override the dense-simulation qubit cap"},
}
_OUTPUT = ("--out", "--jsonl", "--max-n")
_DUMP = ("--dump-state", {"dest": "dump", "help": "write a state snapshot to this path"})

# Each subcommand: its report function, whose keyword parameters with a
# default are the computation flags it reads, and its own arguments, each
# passed to the function under its dest.
SUBCOMMANDS = {
    "zxcat": {
        "build": (
            zxcat_build, ("--variant", {"default": "plus", "choices": ("plus", "minus", "i")}), _DUMP,
        ),
    },
    "agsp": {
        "sweep": (
            agsp_sweep, ("--n-list", {"default": "16,64,256"}), ("--m-list", {"default": "1,2,4,8"}),
        ),
    },
    "prep": {"adaptive": (prep_adaptive, _DUMP), "bell": (prep_bell, _DUMP)},
    "modular": {
        "lpu-search": (
            modular_lpu_search, ("--data", {"help": "modular data as JSON (default built in)"}),
        ),
        "verlinde": (modular_verlinde, ("--genus", {"type": int, "default": 2})),
    },
    "glue": {"run": (glue_run, ("--dims", {"default": "1,1,1,1,1,1"}))},
}


def flags_read(suite: str, action=None) -> dict:
    """The flags a command reads, each mapped to its default (None: none).

    A command reads the computation flags of its signature, every output
    flag and, for a subcommand, its own arguments; `all` reads what any
    suite reads, each suite at its own default.
    """
    own = ()
    if action is not None:
        func, *own = SUBCOMMANDS[suite][action]
        params = flag_defaults(func)
    elif suite == "all":
        params = dict.fromkeys(flag for f in SUITES.values() for flag in flag_defaults(f))
    else:
        params = flag_defaults(SUITES[suite])
    own = {flag: kwargs.get("default") for flag, kwargs in own}
    return {**params, **dict.fromkeys(_OUTPUT), **own}


def _help(kwargs: dict, default) -> str:
    """A flag's help text, ending in its default when it has one."""
    text = kwargs.get("help", "")
    return text if default is None else f"{text} (default {default})".lstrip()


def _add_flags(parser: argparse.ArgumentParser, reads: dict, own=()) -> None:
    """The common flags, with help for those in `reads` only, then `own`.

    A common flag the command does not read still parses, hidden from the
    help, so `main` can name it in its exit-2 message.
    """
    for flag, kwargs in _COMMON.items():
        text = _help(kwargs, reads[flag]) if flag in reads else argparse.SUPPRESS
        parser.add_argument(flag, default=argparse.SUPPRESS, **{**kwargs, "help": text})
    for flag, kwargs in own:
        parser.add_argument(flag, **{**kwargs, "help": _help(kwargs, kwargs.get("default"))})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magiclab",
        description="Check suites and constructions for the ZX-cat state family.",
    )
    top = parser.add_subparsers(dest="suite", metavar="suite")
    for name in ("all", *SUITES):
        sub = top.add_parser(name, help=f"run the {name} suite")
        _add_flags(sub, flags_read(name))
        sub.set_defaults(action=None)
        if name not in SUBCOMMANDS:
            continue
        actions = sub.add_subparsers(dest="action", metavar="subcommand")
        for label, (_, *own) in SUBCOMMANDS[name].items():
            _add_flags(actions.add_parser(label), flags_read(name, label), own)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    own = vars(parser.parse_args(argv))
    suite, action = own.pop("suite"), own.pop("action", None)
    if suite is None:
        parser.print_help()
        return 2
    # what is left after the common flags given are the subcommand's own arguments
    given = {}
    for flag in _COMMON:
        if (dest := flag[2:].replace("-", "_")) in own:
            given[flag] = own.pop(dest)
    params = {flag[2:]: value for flag, value in given.items() if flag not in _OUTPUT}
    reads = flags_read(suite, action)
    label, command = suite, None
    if action is not None:
        label, command = f"{suite} {action}", SUBCOMMANDS[suite][action][0]

    def run() -> int:
        unread = [flag for flag in given if flag not in reads]
        if unread:
            raise ValueError(f"takes no {', '.join(unread)}; it reads {', '.join(reads)}")
        check_params(params)
        if given.get("--max-n", 1) < 1:
            raise ValueError(f"--max-n must be at least 1, got {given['--max-n']}")
        sv.max_qubits()  # a bad MAGICLAB_MAX_N fails before any check runs
        out, jsonl = given.get("--out"), given.get("--jsonl", False)
        return run_suite(label, out=out, jsonl=jsonl, command=command, **params, **own)

    seed = given.get("--seed", reads["--seed"]) if "--seed" in reads else None
    # --max-n holds for this call only; the caller's environment is restored
    saved_max_n = os.environ.get("MAGICLAB_MAX_N")
    if "--max-n" in given:
        os.environ["MAGICLAB_MAX_N"] = str(given["--max-n"])
    try:
        return exit_code(label, seed, run)
    finally:
        if saved_max_n is None:
            os.environ.pop("MAGICLAB_MAX_N", None)
        else:
            os.environ["MAGICLAB_MAX_N"] = saved_max_n


if __name__ == "__main__":
    sys.exit(main())
