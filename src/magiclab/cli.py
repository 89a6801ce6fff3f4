"""Command-line interface: `magiclab <suite> [subcommand] [flags]`.

Each module name runs its check suite when given no subcommand and
serializes CheckReports as JSON; the subcommands print what no suite
report holds (a state, the degree sweep, per-shot and per-instance records,
the gate search's survivors, an exact dimension).  One that reports a suite
check (prep adaptive and bell, glue run, modular lpu-search) builds it with
the suite's function; zxcat build's record has no bound.  A command reads the
computation flags its signature declares (`flags_read`), and any other
common flag exits 2; its help lists only the flags it reads, with their
defaults.  Exit codes: 0 all checks pass, 1 a check failed, 2 unknown
suite or invalid parameters; `suites.exit_code` maps a failure to its
code and error line for suites and subcommands alike.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import glue, modular, prep, statevec as sv, zxcat
from .reports import CheckReport, dump_state, render_csv, sanitize, write_csv, write_json
from .suites import (
    SUITES,
    agsp_sweep,
    check_params,
    conclusions_check,
    exit_code,
    flag_defaults,
    identity_only_check,
    kept_fidelity_check,
    run_suite,
)


def _emit(args, report, state=None, **extra) -> int:
    """Print (or write with --out) one report record followed by `extra`.

    A given `state` goes to the --dump-state path, when there is one, and
    the record names that path under "dumped".  Returns the exit code of
    the report's verdict.
    """
    if state is not None:
        extra["dumped"] = args.dump_state
        if extra["dumped"]:
            dump_state(extra["dumped"], state)
    payload = {**report.to_dict(), **extra}
    out = getattr(args, "out", None)
    if out:
        write_json(out, payload)
        print(f"wrote {out}")
    else:
        print(json.dumps(sanitize(payload), indent=2))
    return 0 if report.passed else 1


def _int_list(text: str, flag: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated integers, got {text!r}") from None


def _zxcat_build(args, n=8) -> int:
    state = zxcat.build(n, args.variant)
    observed = {"norm": float(np.linalg.norm(state.amps))}
    report = CheckReport("build", {"n": n, "variant": args.variant}, observed, None)
    return _emit(args, report, state)


def _agsp_sweep(args) -> int:
    rows = agsp_sweep(_int_list(args.n_list, "--n-list"), _int_list(args.m_list, "--m-list"))
    fields = ("n", "m", "sup_error", "bound", "coeff_sum", "p_minus_n")
    if args.csv:
        write_csv(args.csv, rows, fields)
        print(f"wrote {args.csv} ({len(rows)} rows)")
    else:
        print(render_csv(rows, fields), end="")
    return 0


def _prep_adaptive(args, n=6, seed=0, trials=50) -> int:
    params = {"n": n, "trials": trials, "seed": seed}
    shots = prep.adaptive_shots(**params)
    runs = [
        {
            "outcomes": list(record.outcomes),
            "parity": record.parity,
            "accepted": record.accepted,
            "target_overlap": overlap,
        }
        for record, overlap in shots
    ]
    params["accepted"] = sum(record.accepted for record, _ in shots)
    overlaps = [overlap for _, overlap in shots]
    report = kept_fidelity_check("adaptive-collapse-fidelity", params, overlaps)
    return _emit(args, report, shots[-1][0].post_state, runs=runs)


def _prep_bell(args, n=4, seed=0, trials=50) -> int:
    params = {"n": n, "trials": trials, "seed": seed}
    shots = prep.bell_shots(**params)
    runs = [
        {"accepted": True, "target_overlap": overlap} if accepted else {"accepted": False}
        for accepted, _, overlap in shots
    ]
    overlaps = [overlap for accepted, _, overlap in shots if accepted]
    params["accepted"] = len(overlaps)
    report = kept_fidelity_check("bell-accepted-fidelity", params, overlaps)
    return _emit(args, report, shots[-1][1], runs=runs)


def _modular_lpu(args) -> int:
    if args.data:
        with open(args.data) as handle:
            data = modular.ModularData.from_json(handle.read())
        source = args.data
    else:
        data = modular.double_fibonacci()
        source = "double-fibonacci"
    survivors = modular.lpu_search(data)
    params = {"labels": data.k, "source": source, "survivors": len(survivors)}
    listed = [
        {"permutation": list(c.permutation), "phases": list(c.phases)} for c in survivors
    ]
    return _emit(args, identity_only_check(params, survivors), survivors=listed)


def _modular_verlinde(args) -> int:
    """Genus-g dimension of double Fibonacci, against its exact conditions.

    Double Fibonacci is Fibonacci times its mirror, so its dimension is the
    square of Fibonacci's (dims 1, phi): 4, 25, 225, ... are 2^2, 5^2,
    15^2, ....  The report observes how many of three conditions fail,
    against 0: b = 0, a is a positive integer, and a equals that square.
    The value (None beyond float range) and its exact pair go into params.
    """
    data = modular.double_fibonacci()
    value = modular.verlinde_dim(data.dims, args.genus)
    single = modular.verlinde_dim((1, modular.GoldenNumber.phi()), args.genus)
    failed = (
        value.b != 0,
        not (value.a.denominator == 1 and value.a > 0),
        value != single * single,
    )
    try:
        approx = float(value)
    except OverflowError:  # beyond float range only the exact pair is reported
        approx = None
    params = {
        "genus": args.genus, "value": approx,
        "golden": {"a": str(value.a), "b": str(value.b)},
    }
    return _emit(args, CheckReport("verlinde-dimension", params, float(sum(failed)), 0))


def _glue_run(args, seed=0, trials=10) -> int:
    sizes = tuple(_int_list(args.dims, "--dims"))
    records = []
    for t in range(trials):
        inst = glue.generate_gluable_instance(sizes, seed=seed + t)
        _, residuals = glue.merge(inst)
        records.append(
            {"seed": seed + t, "premises": inst.residuals, "conclusions": residuals}
        )
    params = {"dims": list(sizes), "trials": trials, "seed": seed}
    report = conclusions_check(params, [r["conclusions"] for r in records])
    return _emit(args, report, instances=records)


# The flags every suite and subcommand parser accepts.  They default to
# absent, so a flag that was not given leaves no attribute behind.  A
# command reads the computation flags its signature declares, and the
# output flags: all of them for a suite, those SUBCOMMANDS lists otherwise.
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
_DUMP = ("--dump-state", {"dest": "dump_state"})

# Each subcommand: its handler, whose keyword parameters are the computation
# flags it reads, the output flags it reads, and its own arguments.
SUBCOMMANDS = {
    "zxcat": {
        "build": (
            _zxcat_build, "--out --max-n",
            ("--variant", {"default": "plus", "choices": ("plus", "minus", "i")}), _DUMP,
        ),
    },
    "agsp": {
        "sweep": (
            _agsp_sweep, "",
            ("--n-list", {"dest": "n_list", "default": "16,64,256"}),
            ("--m-list", {"dest": "m_list", "default": "1,2,4,8"}),
            ("--csv", {"help": "write CSV to this path"}),
        ),
    },
    "prep": {
        "adaptive": (_prep_adaptive, "--out --max-n", _DUMP),
        "bell": (_prep_bell, "--out --max-n", _DUMP),
    },
    "modular": {
        "lpu-search": (
            _modular_lpu, "--out",
            ("--data", {"help": "modular data as JSON (default built in)"}),
        ),
        "verlinde": (_modular_verlinde, "--out", ("--genus", {"type": int, "default": 2})),
    },
    "glue": {
        "run": (_glue_run, "--out --max-n", ("--dims", {"default": "1,1,1,1,1,1"})),
    },
}


def flags_read(suite: str, action=None) -> dict:
    """The flags a command reads, each mapped to its default (None: none).

    A suite reads the computation flags of its signature and every output
    flag; `all` reads what any suite reads, each suite at its own default.
    A subcommand reads the computation flags of its handler's signature, the
    output flags SUBCOMMANDS lists and its own arguments.
    """
    if action is not None:
        func, outputs, *own = SUBCOMMANDS[suite][action]
        own = {flag: kwargs.get("default") for flag, kwargs in own}
        return {**flag_defaults(func), **dict.fromkeys(outputs.split()), **own}
    if suite == "all":
        params = dict.fromkeys(flag for f in SUITES.values() for flag in flag_defaults(f))
    else:
        params = flag_defaults(SUITES[suite])
    return {**params, **dict.fromkeys(_OUTPUT)}


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
        for label, (func, _, *own) in SUBCOMMANDS[name].items():
            action = actions.add_parser(label)
            _add_flags(action, flags_read(name, label), own)
            action.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.suite is None:
        parser.print_help()
        return 2
    flags = {"--" + name.replace("_", "-"): value for name, value in vars(args).items()}
    given = {flag: value for flag, value in flags.items() if flag in _COMMON}
    params = {flag[2:]: value for flag, value in given.items() if flag not in _OUTPUT}
    reads = flags_read(args.suite, args.action)

    def run() -> int:
        unread = [flag for flag in given if flag not in reads]
        if unread:
            raise ValueError(f"takes no {', '.join(unread)}; it reads {', '.join(reads)}")
        check_params(params)
        if given.get("--max-n", 1) < 1:
            raise ValueError(f"--max-n must be at least 1, got {given['--max-n']}")
        sv.max_qubits()  # a bad MAGICLAB_MAX_N fails before any check runs
        if args.action is None:
            out, jsonl = given.get("--out"), given.get("--jsonl", False)
            return run_suite(args.suite, out=out, jsonl=jsonl, **params)
        return args.func(args, **params)

    label = args.suite if args.action is None else f"{args.suite} {args.action}"
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
