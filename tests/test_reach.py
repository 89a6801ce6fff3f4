"""Every function in src/magiclab feeds a report, or is named here with its reason.

One profiled interpreter imports the CLI and runs `magiclab all --seed 0`,
every subcommand at its defaults, and each output and input flag
(--out, --jsonl, --dump-state, --csv, --data).  The functions it never
enters must be exactly the allow-list below: unreached code can neither
grow back unnoticed nor linger in the list after it is deleted.
"""

import json
import os
import subprocess
import sys

# unreached function -> why it stays
ALLOWED = {
    "glue.glue_states": "bench/ reads it: the glue-petz workload glues with it",
    "agsp.AgspPolynomial.evaluate": "bench/ reads it: the tracer counts its calls",
    "statevec.measure": (
        "the README documents it, and it is the per-shot oracle that the "
        "measure_shots tests compare against"
    ),
    "statevec.pauli_matrix": "the dense cross-check of verify_global_clifford at n <= 6",
    "statevec.random_brickwork": "reached once the suite draws non-trivial adversaries",
    "statevec.Gate.adjoint": "reached once the suite draws non-trivial adversaries",
    "reports.load_state": "the README names it as the reader of dump_state",
    "modular.ModularData.to_json": "the writer of the --data format",
    "modular.GoldenNumber.__hash__": "an operator or protocol dunder",
    "modular.GoldenNumber.__repr__": "an operator or protocol dunder",
    "modular.GoldenNumber.__rsub__": "an operator or protocol dunder",
    "modular.GoldenNumber.__truediv__": "an operator or protocol dunder",
    "modular.GoldenNumber.__rtruediv__": "an operator or protocol dunder",
    "symplectic.PauliString.__repr__": "an operator or protocol dunder",
}

# Runs in a fresh interpreter, so no cache or patch left by another test
# can hide a call.  Prints {"codes": [...], "unreached": [...]}.
PROFILE = r"""
import contextlib, inspect, io, json, os, sys, types

tmp = sys.argv[1]
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
from magiclab import cli, modular
sys.setprofile(None)
data = os.path.join(tmp, "data.json")
with open(data, "w") as handle:
    handle.write(modular.double_fibonacci().to_json())

path = lambda name: os.path.join(tmp, name)
argvs = [["all", "--seed", "0"]]
argvs += [[suite, action] for suite, actions in cli.SUBCOMMANDS.items() for action in actions]
argvs += [
    ["zxcat", "--out", path("zxcat.jsonl"), "--jsonl"],
    ["zxcat", "build", "--out", path("build.json"), "--dump-state", path("state.json")],
    ["agsp", "sweep", "--csv", path("sweep.csv")],
    ["modular", "lpu-search", "--data", data],
]
sys.setprofile(profile)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
sys.setprofile(None)

def functions(code):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                yield const
            yield from functions(const)

package = os.path.dirname(cli.__file__)
unreached = set()
for name in sorted(os.listdir(package)):
    if name.endswith(".py"):
        source = os.path.join(package, name)
        with open(source) as handle:
            module = compile(handle.read(), source, "exec")
        for code in functions(module):
            if (source, code.co_firstlineno) not in entered:
                unreached.add(f"{name[:-3]}.{code.co_qualname}")
# a function nested in an unreached one is reported through its parent
unreached = {
    u for u in unreached
    if ".<locals>." not in u or u.rsplit(".<locals>.", 1)[0] not in unreached
}
print(json.dumps({"codes": codes, "unreached": sorted(unreached)}))
"""


def test_unreached_functions_are_exactly_the_allow_list(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", PROFILE, str(tmp_path)], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    result = json.loads(out.stdout)
    assert result["codes"] == [0] * len(result["codes"]), out.stderr
    unreached = set(result["unreached"])
    assert unreached - set(ALLOWED) == set(), "unreached and not allowed"
    assert set(ALLOWED) - unreached == set(), "allowed but reached, or gone"
