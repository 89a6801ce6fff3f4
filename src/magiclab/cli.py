"""Command-line interface: `magiclab <suite> [subcommand] [flags]`.

Each module name runs its check suite when given no subcommand and
serializes CheckReports as JSON; the subcommands expose the individual
constructions (state builders, witnesses, sweeps, the gate search) with
machine-readable output.  A subcommand that reports a suite check prints
that check's record, built by the same function the suite uses; the
constructions print a record with no bound.  A subcommand reads only the
common flags SUBCOMMANDS lists for it, and any other one exits 2.  Exit
codes: 0 all checks pass, 1 a check failed, 2 unknown suite or invalid
parameters.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import glue, modular, prep, zxcat
from .reports import CheckReport, dump_state, render_csv, sanitize, write_csv, write_json
from .suites import (
    PREP_TOL,
    SUITES,
    agsp_sweep,
    check_params,
    conclusions_check,
    identity_only_check,
    kept_fidelity_check,
    overlap_check,
    run_suite,
)


def _get(args, name, default=None):
    return getattr(args, name, default)


def _emit(args, report, state=None, **extra) -> int:
    """Print (or write with --out) one report record followed by `extra`.

    A given `state` goes to the --dump-state path, when there is one, and
    the record names that path under "dumped".  Returns the exit code of
    the report's verdict.
    """
    if state is not None:
        extra["dumped"] = _get(args, "dump_state")
        if extra["dumped"]:
            dump_state(extra["dumped"], state)
    payload = {**report.to_dict(), **extra}
    out = _get(args, "out")
    if out:
        write_json(out, payload)
        print(f"wrote {out}")
    else:
        print(json.dumps(sanitize(payload), indent=2))
    return 0 if report.passed else 1


def _int_list(text: str) -> list:
    return [int(part) for part in text.split(",") if part.strip()]


def _suite_cmd(args) -> int:
    return run_suite(
        args.suite,
        n=_get(args, "n"),
        seed=_get(args, "seed", 0),
        tol=_get(args, "tol"),
        trials=_get(args, "trials"),
        out=_get(args, "out"),
        jsonl=_get(args, "jsonl", False),
    )


def _zxcat_mi(args) -> int:
    n = _get(args, "n", 10)
    value = zxcat.mi_numeric(n)
    params = {"n": n, "mi": value, "asymptote": zxcat.mi_asymptote()}
    # a violation count: the information must be positive
    violations = 0.0 if value > 0.0 else 1.0
    return _emit(args, CheckReport("mi-numeric", params, violations, 0.0))


def _zxcat_witness_cu(args) -> int:
    return _emit(args, zxcat.cu_correlation_witness(_get(args, "n", 10)))


def _zxcat_witness_uc(args) -> int:
    return _emit(args, zxcat.uc_sign_witness(_get(args, "n", 10)))


def _zxcat_build(args) -> int:
    n = _get(args, "n", 8)
    state = zxcat.build(n, args.variant)
    observed = {"norm": float(np.linalg.norm(state.amps))}
    report = CheckReport("build", {"n": n, "variant": args.variant}, observed, None)
    return _emit(args, report, state)


def _agsp_sweep(args) -> int:
    rows = agsp_sweep(_int_list(args.n_list), _int_list(args.m_list))
    fields = ("n", "m", "sup_error", "bound", "coeff_sum", "p_minus_n")
    if args.csv:
        write_csv(args.csv, rows, fields)
        print(f"wrote {args.csv} ({len(rows)} rows)")
    else:
        print(render_csv(rows, fields), end="")
    return 0


def _prep_sandwich(args) -> int:
    n = _get(args, "n", 8)
    state = prep.prepare_sandwich(n)
    tol = _get(args, "tol", PREP_TOL)
    report = overlap_check("sandwich-overlap", {"n": n}, [state], zxcat.build(n, "i"), tol)
    return _emit(args, report, state)


def _prep_mps(args) -> int:
    n = _get(args, "n", 10)
    state = prep.mps_contract(n, boundary=args.boundary)
    params = {"n": n, "boundary": args.boundary}
    tol = _get(args, "tol", PREP_TOL)
    report = overlap_check("mps-overlap", params, [state], zxcat.build(n, "plus"), tol)
    return _emit(args, report, state)


def _prep_adaptive(args) -> int:
    params = {"n": _get(args, "n", 6), "trials": _get(args, "trials", 50)}
    params["seed"] = _get(args, "seed", 0)
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


def _prep_bell(args) -> int:
    params = {"n": _get(args, "n", 4), "trials": _get(args, "trials", 50)}
    params["seed"] = _get(args, "seed", 0)
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
    data = modular.double_fibonacci()
    value = modular.verlinde_dim(data.dims, args.genus)
    try:
        approx = float(value)
    except OverflowError:  # beyond float range only the exact pair is reported
        approx = None
    observed = {"value": approx, "golden": {"a": str(value.a), "b": str(value.b)}}
    params = {"genus": args.genus}
    return _emit(args, CheckReport("verlinde-dimension", params, observed, None))


def _glue_run(args) -> int:
    sizes = tuple(_int_list(args.dims))
    trials = _get(args, "trials", 10)
    seed = _get(args, "seed", 0)
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
# absent, so a flag that was not given leaves no attribute behind.
_COMMON = {
    "--n": {"type": int, "help": "problem size"},
    "--seed": {"type": int, "help": "RNG seed (default 0)"},
    "--tol": {"type": float, "help": "tolerance override"},
    "--trials": {"type": int, "help": "randomized trials"},
    "--out": {"help": "write JSON to this path"},
    "--jsonl": {"action": "store_true", "help": "one JSON object per line"},
    "--max-n": {"type": int, "help": "override the dense-simulation qubit cap"},
}
_DUMP = ("--dump-state", {"dest": "dump_state"})

# Each subcommand: its handler, the common flags it reads, and its own
# arguments.  main rejects any other common flag, before or after the name.
SUBCOMMANDS = {
    "zxcat": {
        "mi": (_zxcat_mi, "--n --out --max-n"),
        "witness-cu": (_zxcat_witness_cu, "--n --out --max-n"),
        "witness-uc": (_zxcat_witness_uc, "--n --out --max-n"),
        "build": (
            _zxcat_build, "--n --out --max-n",
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
        "sandwich": (_prep_sandwich, "--n --tol --out --max-n", _DUMP),
        "adaptive": (_prep_adaptive, "--n --seed --trials --out --max-n", _DUMP),
        "bell": (_prep_bell, "--n --seed --trials --out --max-n", _DUMP),
        "mps": (
            _prep_mps, "--n --tol --out --max-n",
            ("--boundary", {"default": "open", "choices": ("open", "periodic")}), _DUMP,
        ),
    },
    "modular": {
        "lpu-search": (
            _modular_lpu, "--out",
            ("--data", {"help": "modular data as JSON (default built in)"}),
        ),
        "verlinde": (_modular_verlinde, "--out", ("--genus", {"type": int, "default": 2})),
    },
    "glue": {
        "run": (
            _glue_run, "--seed --trials --out --max-n",
            ("--dims", {"default": "1,1,1,1,1,1"}),
        ),
    },
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in _COMMON.items():
        common.add_argument(flag, default=argparse.SUPPRESS, **kwargs)
    parser = argparse.ArgumentParser(
        prog="magiclab",
        description="Check suites and constructions for the ZX-cat state family.",
    )
    top = parser.add_subparsers(dest="suite", metavar="suite")
    for name in ("all", *SUITES):
        sub = top.add_parser(name, parents=[common], help=f"run the {name} suite")
        sub.set_defaults(func=_suite_cmd, suite=name, reads=_COMMON)
        if name not in SUBCOMMANDS:
            continue
        actions = sub.add_subparsers(dest="action", metavar="subcommand")
        for label, (func, reads, *own) in SUBCOMMANDS[name].items():
            action = actions.add_parser(label, parents=[common])
            for flag, kwargs in own:
                action.add_argument(flag, **kwargs)
            action.set_defaults(func=func, reads=[*reads.split(), *(f for f, _ in own)])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    func = _get(args, "func")
    if func is None:
        parser.print_help()
        return 2
    # a suite reads every common flag, a subcommand only those it lists
    given = ("--" + name.replace("_", "-") for name in vars(args))
    unread = [flag for flag in given if flag in _COMMON and flag not in args.reads]
    if unread:
        print(
            f"error: {args.suite} {args.action} takes no {', '.join(unread)}; "
            f"it reads {', '.join(args.reads) or 'no flag'}",
            file=sys.stderr,
        )
        return 2
    # --max-n holds for this call only; the caller's environment is restored
    saved_max_n = os.environ.get("MAGICLAB_MAX_N")
    if _get(args, "max_n") is not None:
        os.environ["MAGICLAB_MAX_N"] = str(args.max_n)
    try:
        if func is not _suite_cmd:  # a suite checks its own, naming itself and the seed
            check_params(_get(args, "tol"), _get(args, "trials"))
        return func(args)
    except glue.PremiseViolation as exc:
        seed = _get(args, "seed", 0)
        print(f"check failed: {args.suite} seed {seed}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if saved_max_n is None:
            os.environ.pop("MAGICLAB_MAX_N", None)
        else:
            os.environ["MAGICLAB_MAX_N"] = saved_max_n


if __name__ == "__main__":
    sys.exit(main())
