"""Command-line interface: `magiclab <suite> [subcommand] [flags]`.

Each module name runs its check suite when given no subcommand and
serializes CheckReports as JSON; the subcommands expose the individual
constructions (state builders, witnesses, sweeps, the gate search) with
machine-readable output.  Exit codes: 0 all checks pass, 1 a check
failed, 2 unknown suite or invalid parameters.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import agsp, glue, modular, prep, statevec as sv, zxcat
from .reports import CheckReport, dump_state, render_csv, sanitize, write_csv, write_json
from .suites import SUITES, agsp_sweep, run_suite


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
    observed = {"mi": value, "asymptote": zxcat.mi_asymptote()}
    report = CheckReport("mi-numeric", {"n": n}, observed, {"positive": 0.0}, value > 0.0)
    return _emit(args, report)


def _zxcat_witness_cu(args) -> int:
    return _emit(args, zxcat.cu_correlation_witness(_get(args, "n", 10)))


def _zxcat_witness_uc(args) -> int:
    return _emit(args, zxcat.uc_sign_witness(_get(args, "n", 10)))


def _zxcat_build(args) -> int:
    n = _get(args, "n", 8)
    state = zxcat.build(n, args.variant)
    observed = {"norm": float(np.linalg.norm(state.amps))}
    report = CheckReport("build", {"n": n, "variant": args.variant}, observed, None, True)
    return _emit(args, report, state)


def _agsp_sweep(args) -> int:
    # its parsers accept the suite flags, but the sweep uses none of them
    stray = sorted(set(vars(args)) - {"suite", "action", "func", "n_list", "m_list", "csv"})
    if stray:
        flags = ", ".join("--" + name.replace("_", "-") for name in stray)
        raise ValueError(f"agsp sweep takes no {flags}; write CSV with --csv PATH")
    rows = agsp_sweep(_int_list(args.n_list), _int_list(args.m_list))
    fields = ("n", "m", "sup_error", "bound", "coeff_sum", "p_minus_n")
    if args.csv:
        write_csv(args.csv, rows, fields)
        print(f"wrote {args.csv} ({len(rows)} rows)")
    else:
        print(render_csv(rows, fields), end="")
    return 0


def _overlap_report(args, check, params, state, target) -> int:
    dev = 1.0 - sv.pure_overlap(state, target)
    bound = {"overlap_deviation": 1e-12}
    report = CheckReport(check, params, {"overlap_deviation": dev}, bound, dev <= 1e-12)
    return _emit(args, report, state)


def _prep_sandwich(args) -> int:
    n = _get(args, "n", 8)
    state = prep.prepare_sandwich(n)
    return _overlap_report(args, "sandwich", {"n": n}, state, zxcat.build(n, "i"))


def _prep_mps(args) -> int:
    n = _get(args, "n", 10)
    state = prep.mps_contract(n, boundary=args.boundary)
    params = {"n": n, "boundary": args.boundary}
    return _overlap_report(args, "mps-contract", params, state, zxcat.build(n, "plus"))


def _prep_adaptive(args) -> int:
    n = _get(args, "n", 6)
    params = {"n": n, "trials": _get(args, "trials", 50), "seed": _get(args, "seed", 0)}
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
    worst = max(1.0 - overlap for _, overlap in shots)
    observed = {
        "accept_rate": sum(record.accepted for record, _ in shots) / len(shots),
        "expected_rate": prep.adaptive_success_probability(n),
        "worst_overlap_deviation": worst,
    }
    bound = {"worst_overlap_deviation": 1e-10}
    report = CheckReport("adaptive-runs", params, observed, bound, worst <= 1e-10)
    return _emit(args, report, shots[-1][0].post_state, runs=runs)


def _prep_bell(args) -> int:
    n = _get(args, "n", 4)
    params = {"n": n, "trials": _get(args, "trials", 50), "seed": _get(args, "seed", 0)}
    shots = prep.bell_shots(**params)
    runs = [
        {"accepted": True, "target_overlap": overlap} if accepted else {"accepted": False}
        for accepted, _, overlap in shots
    ]
    worst = max([0.0] + [1.0 - overlap for accepted, _, overlap in shots if accepted])
    observed = {
        "accept_rate": sum(accepted for accepted, _, _ in shots) / len(shots),
        "worst_accepted_deviation": worst,
    }
    bound = {"worst_accepted_deviation": 1e-10}
    report = CheckReport("bell-runs", params, observed, bound, worst <= 1e-10)
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
    only_identity = modular.identity_only_misses(survivors) == 0
    observed = {
        "survivors": [
            {"permutation": list(c.permutation), "phases": list(c.phases)}
            for c in survivors
        ]
    }
    params = {"labels": data.k, "source": source}
    return _emit(args, CheckReport("lpu-search", params, observed, None, only_identity))


def _modular_verlinde(args) -> int:
    data = modular.double_fibonacci()
    value = modular.verlinde_dim(data.dims, args.genus)
    try:
        approx = float(value)
    except OverflowError:  # beyond float range only the exact pair is reported
        approx = None
    observed = {"value": approx, "golden": {"a": str(value.a), "b": str(value.b)}}
    params = {"genus": args.genus}
    return _emit(args, CheckReport("verlinde-dimension", params, observed, None, True))


def _glue_run(args) -> int:
    sizes = tuple(_int_list(args.dims))
    trials = _get(args, "trials", 10)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    seed = _get(args, "seed", 0)
    records = []
    for t in range(trials):
        inst = glue.generate_gluable_instance(sizes, seed=seed + t)
        _, residuals = glue.merge(inst)
        records.append(
            {"seed": seed + t, "premises": inst.residuals, "conclusions": residuals}
        )
    # np.max, not max: a NaN conclusion must fail the report
    worst = float(np.max([v for r in records for v in r["conclusions"].values()]))
    params = {"dims": list(sizes), "trials": trials, "seed": seed}
    observed, bound = {"worst_conclusion": worst}, {"worst_conclusion": 1e-8}
    report = CheckReport("glue-run", params, observed, bound, worst <= 1e-8)
    return _emit(args, report, instances=records)


def _common_flags() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    sup = argparse.SUPPRESS
    parent.add_argument("--n", type=int, default=sup, help="problem size")
    parent.add_argument("--seed", type=int, default=sup, help="RNG seed (default 0)")
    parent.add_argument("--tol", type=float, default=sup, help="tolerance override")
    parent.add_argument("--trials", type=int, default=sup, help="randomized trials")
    parent.add_argument("--out", default=sup, help="write JSON to this path")
    parent.add_argument(
        "--jsonl", action="store_true", default=sup, help="one JSON object per line"
    )
    parent.add_argument(
        "--max-n", type=int, dest="max_n", default=sup,
        help="override the dense-simulation qubit cap",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="magiclab",
        description="Check suites and constructions for the ZX-cat state family.",
    )
    top = parser.add_subparsers(dest="suite", metavar="suite")

    for name in ("all", *SUITES):
        sub = top.add_parser(name, parents=[common], help=f"run the {name} suite")
        sub.set_defaults(func=_suite_cmd, suite=name)
        if name == "zxcat":
            actions = sub.add_subparsers(dest="action", metavar="subcommand")
            actions.add_parser("mi", parents=[common]).set_defaults(func=_zxcat_mi)
            actions.add_parser("witness-cu", parents=[common]).set_defaults(
                func=_zxcat_witness_cu
            )
            actions.add_parser("witness-uc", parents=[common]).set_defaults(
                func=_zxcat_witness_uc
            )
            build = actions.add_parser("build", parents=[common])
            build.add_argument(
                "--variant", default="plus", choices=("plus", "minus", "i")
            )
            build.add_argument("--dump-state", dest="dump_state")
            build.set_defaults(func=_zxcat_build)
        elif name == "agsp":
            actions = sub.add_subparsers(dest="action", metavar="subcommand")
            sweep = actions.add_parser("sweep", parents=[common])
            sweep.add_argument("--n-list", dest="n_list", default="16,64,256")
            sweep.add_argument("--m-list", dest="m_list", default="1,2,4,8")
            sweep.add_argument("--csv", help="write CSV to this path")
            sweep.set_defaults(func=_agsp_sweep)
        elif name == "prep":
            actions = sub.add_subparsers(dest="action", metavar="subcommand")
            for label, func in (
                ("sandwich", _prep_sandwich),
                ("adaptive", _prep_adaptive),
                ("bell", _prep_bell),
            ):
                action = actions.add_parser(label, parents=[common])
                action.add_argument("--dump-state", dest="dump_state")
                action.set_defaults(func=func)
            mps = actions.add_parser("mps", parents=[common])
            mps.add_argument(
                "--boundary", default="open", choices=("open", "periodic")
            )
            mps.add_argument("--dump-state", dest="dump_state")
            mps.set_defaults(func=_prep_mps)
        elif name == "modular":
            actions = sub.add_subparsers(dest="action", metavar="subcommand")
            lpu = actions.add_parser("lpu-search", parents=[common])
            lpu.add_argument("--data", help="modular data as JSON (default built in)")
            lpu.set_defaults(func=_modular_lpu)
            verlinde = actions.add_parser("verlinde", parents=[common])
            verlinde.add_argument("--genus", type=int, default=2)
            verlinde.set_defaults(func=_modular_verlinde)
        elif name == "glue":
            actions = sub.add_subparsers(dest="action", metavar="subcommand")
            run = actions.add_parser("run", parents=[common])
            run.add_argument("--dims", default="1,1,1,1,1,1")
            run.set_defaults(func=_glue_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    func = _get(args, "func")
    if func is None:
        parser.print_help()
        return 2
    # --max-n holds for this call only; the caller's environment is restored
    saved_max_n = os.environ.get("MAGICLAB_MAX_N")
    if _get(args, "max_n") is not None:
        os.environ["MAGICLAB_MAX_N"] = str(args.max_n)
    try:
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
