"""The three benchmark workloads.

Each workload turns the run's seed into inputs, touches every lazy path in
an untimed warm-up, and hands out rounds of items.  An item is a
(kind, run, check) triple: `kind` names the operation apart from its random
inputs and is unique within a round, `run()` is the timed call into magiclab
and returns its outputs, `check(outputs)` raises checks.CheckFailed if they
are wrong.  Every round holds the same kinds, so each run attempts whole
rounds and the mix of operations never depends on the seed or on how long
the run lasts.  `round(r)` is a pure function of (seed, r).

Items look magiclab functions up at call time (`glue.petz_glue`, not a
captured reference), so the tracer's wrappers see every call.
"""

import json

import numpy as np
from magiclab import agsp, glue, modular, reports, suites

import checks

WARM_SEED = 2**31 - 1  # no timed seed is drawn this high


def _rng(*key):
    return np.random.default_rng([*key])


class SuiteSeeds:
    """Each item is one suite at one seed with default parameters, as the CLI runs it.

    Round r runs all six suites at seeds[r % len(seeds)], so from round
    len(seeds) on every item reruns a (suite, seed) pair and must reproduce
    its reports apart from runtime_ms.
    """

    name = "suite-seeds"
    n_seeds = 3
    min_rounds = n_seeds + 1

    def __init__(self, seed: int):
        self.seeds = [int(s) for s in _rng(seed).integers(0, 2**31 - 1, size=self.n_seeds)]
        self.first = {}

    def warm_up(self) -> None:
        for name in suites.SUITES:
            reports.render_reports(suites.SUITES[name](seed=WARM_SEED, trials=2))

    def round(self, r: int) -> list:
        seed = self.seeds[r % self.n_seeds]
        return [(suite, self._runner(suite, seed), self._checker(suite, seed))
                for suite in suites.SUITES]

    @staticmethod
    def _runner(suite, seed):
        # the CLI's JSON text, parsed back: what `magiclab <suite> --seed s` prints
        return lambda: json.loads(reports.render_reports(suites.SUITES[suite](seed=seed)))

    def _checker(self, suite, seed):
        def check(out):
            checks.check_suite_reports(suite, out)
            if (suite, seed) in self.first:
                checks.check_rerun(suite, seed, self.first[(suite, seed)], out)
            else:
                self.first[(suite, seed)] = out
        return check


class GluePetz:
    """Each item generates one gluable instance, glues it, and runs the Petz map.

    Six 8-qubit and three 9-qubit partitions per round, so the median item is
    an 8-qubit one and the 9-qubit Petz maps (about five times dearer) form
    the tail that items_per_s feels.  The seed picks every instance.
    """

    name = "glue-petz"
    min_rounds = 1
    PARTITIONS = (
        (2, 1, 1, 1, 1, 2), (1, 2, 1, 1, 2, 1), (2, 2, 1, 1, 1, 1),
        (1, 1, 2, 2, 1, 1), (1, 1, 1, 1, 2, 2), (3, 1, 1, 1, 1, 1),
        (2, 1, 1, 1, 1, 3), (1, 2, 1, 2, 1, 2), (2, 1, 2, 1, 2, 1),
    )

    def __init__(self, seed: int):
        self.seed = seed

    def warm_up(self) -> None:
        for sizes in (self.PARTITIONS[0], self.PARTITIONS[-1]):
            self._runner(sizes, WARM_SEED)()

    def round(self, r: int) -> list:
        seeds = _rng(self.seed, r).integers(0, 2**31 - 1, size=len(self.PARTITIONS))
        return [
            (f"glue{sizes}", self._runner(sizes, int(s)), self._checker(sizes))
            for sizes, s in zip(self.PARTITIONS, seeds)
        ]

    @staticmethod
    def _runner(sizes, seed):
        def run():
            inst = glue.generate_gluable_instance(sizes, seed=seed)
            glued = glue.glue_states(inst)
            rho = glue.petz_glue(inst)
            return inst.psi.amps, inst.psi_prime.amps, glued.amps, rho
        return run

    @staticmethod
    def _checker(sizes):
        return lambda out: checks.check_glue(sizes, *out)


class ExactSweep:
    """Exact-arithmetic items: AGSP cells, Verlinde dimensions, the monomial-gate search.

    The work has no random input, so the seed orders each round and picks the
    points at which P is checked against mpmath.  (1024, 64) is left out: at
    about a second it would dwarf every other item.
    """

    name = "exact-sweep"
    min_rounds = 1
    CELLS = tuple(
        (n, m) for n in (128, 256, 512, 1024) for m in (8, 16, 32, 64) if (n, m) != (1024, 64)
    )
    GENERA = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377)

    def __init__(self, seed: int):
        self.seed = seed
        self.data = modular.double_fibonacci()

    def warm_up(self) -> None:
        self._cell(128, 8)()
        self._verlinde(2)()
        self._lpu()()

    def round(self, r: int) -> list:
        rng = _rng(self.seed, r)
        items = []
        for n, m in self.CELLS:
            points = (1, n, *(int(x) for x in rng.integers(2, n, size=2)))
            items.append((f"agsp({n},{m})", self._cell(n, m), self._cell_checker(n, m, points)))
        for g in self.GENERA:
            items.append((f"verlinde(g={g})", self._verlinde(g),
                          lambda out, g=g: checks.check_verlinde(g, *out)))
        items.append(("lpu_search", self._lpu(), checks.check_lpu))
        return [items[i] for i in rng.permutation(len(items))]

    @staticmethod
    def _cell(n, m):
        def run():
            poly = agsp.build_polynomial(n, m)
            sup = agsp.step_error_sup(poly)
            total, p_minus_n = agsp.coeff_sum_identity(poly)
            return poly.coeffs, sup, total, p_minus_n
        return run

    @staticmethod
    def _cell_checker(n, m, points):
        return lambda out: checks.check_agsp_cell(n, m, *out, points)

    def _verlinde(self, genus):
        def run():
            value = modular.verlinde_dim(self.data.dims, genus)
            return value.a, value.b
        return run

    def _lpu(self):
        return lambda: [(c.permutation, c.phases) for c in modular.lpu_search(self.data)]


WORKLOADS = {w.name: w for w in (SuiteSeeds, GluePetz, ExactSweep)}
