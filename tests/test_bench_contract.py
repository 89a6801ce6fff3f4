"""The benchmark's contract with the package, checked where a change to it is made.

bench/checks.py's SUITE_CHECKS names the checks each suite must report, in
order, and bench/workloads.py warms up with `SUITES[name](seed=..., trials=2)`.
A change that renames, adds or drops a check, or drops a suite parameter,
would otherwise only show up as a refused benchmark run (outputs_incorrect);
it needs a change to bench/ first.
"""

import inspect
import json
import os
import sys

from magiclab.cli import main
from magiclab.suites import SUITES

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
from checks import SUITE_CHECKS  # noqa: E402

NEEDS_BENCH = "this change to the suites needs a change to bench/ first"


def test_all_emits_the_checks_the_benchmark_expects(capsys):
    assert main(["all", "--seed", "0"]) == 0
    emitted = [r["check"] for r in json.loads(capsys.readouterr().out)]
    assert list(SUITE_CHECKS) == list(SUITES), NEEDS_BENCH
    expected = [check for suite in SUITE_CHECKS for check in SUITE_CHECKS[suite]]
    assert emitted == expected, NEEDS_BENCH


def test_every_suite_takes_the_benchmarks_warm_up_call():
    for name, suite in SUITES.items():
        assert {"seed", "trials"} <= set(inspect.signature(suite).parameters), (name, NEEDS_BENCH)
        names = tuple(r.check for r in suite(seed=2**31 - 1, trials=2))
        assert names == SUITE_CHECKS[name], (name, NEEDS_BENCH)
