"""The three uses of the engine the benchmark measures.

Each use has a set-up (timed as ``setup_s`` when it is the workload's own),
a repetition made of timed parts, and a check of the parts' outputs against
references the code under test did not produce:

* corpus     one ``run_suite(env)`` on a freshly built ``standard_environment()``.
             References: the catalog's ``expect`` truth values, the gold
             regexes (``run_suite`` compares each automaton row with its
             own), and equal values of each ``COUNT_EQUAL`` pair at seeded
             points.
* counting   ``eval_linrep(satz22, n)`` at seeded n, which must equal n because
             ``gfunc`` is ``i<n``; then ``is_zero(subtract(l, r))`` for the
             three ``COUNT_EQUAL`` pairs, which must hold.
* synthesis  ``guess_sync`` plus ``verify_sync`` for the four ``rslogic guess``
             oracles (the guess must verify and agree with its oracle at seeded
             points); ``verify_sync`` on every accepting-bit mutant of ``rss``
             and ``rst`` (each must fail, every failed check with a witness);
             ``sync_table`` of both machines, equal to the integer sweeps
             ``partial_sums`` and ``alternating_sums``.

Timed regions hold only engine calls; every comparison runs after them.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from rslogic import cli, toolkit  # noqa: E402
from rslogic.catalog import CHECKS, COUNT_EQUAL  # noqa: E402
from rslogic.errors import EngineError  # noqa: E402
from rslogic.linrep import eval_linrep, is_zero, subtract  # noqa: E402
from rslogic.sequences import alternating_sums, partial_sums, rudin_shapiro_dfao4  # noqa: E402
from rslogic.synchronized import (  # noqa: E402
    accepting_bit_mutations,
    guess_sync,
    sync_eval,
    sync_table,
    verify_sync,
)
from rslogic.toolkit import run_suite, standard_environment  # noqa: E402

EVAL_BOUND = 2**16  # counting: n is drawn below this
EVALS_PER_REP = 256
TABLE_SIZE = 2**18  # synthesis: sync_table inputs per machine
GUESS_KEYS = ("s", "t", "sp", "nt")
SPOT_CHECKS = 8  # synthesis: seeded sync_eval points per guessed machine
SPOT_BOUND = 2**20
PAIR_POINTS = 4  # corpus: seeded points per COUNT_EQUAL pair


@dataclass
class Part:
    """One timed part of a repetition: engine calls only.

    ``run(split)`` calls ``split()`` right after each of its operations
    (the first operation starts with the part) and returns the output.
    The part's time feeds ``metric``; with ``count`` set the metric is a
    rate, count per second; with ``samples`` set each operation's time is a
    latency sample under that key.  A repetition's outputs reach ``check``
    as lists, one entry per part, keyed by metric.
    """

    metric: str
    run: Callable
    count: int = 0
    samples: str = ""


def _dependency_closure(names):
    """Catalog rows defining ``names`` and every $relation they apply, in order."""
    by_name = {check.name: check for check in CHECKS}
    needed, todo = set(), list(names)
    while todo:
        name = todo.pop()
        if name in needed or name not in by_name:
            continue
        needed.add(name)
        todo.extend(re.findall(r"\$(\w+)", by_name[name].script))
    return [check for check in CHECKS if check.name in needed]


COUNTING_ROWS = _dependency_closure([name for pair in COUNT_EQUAL for name in pair])


class Corpus:
    name = "corpus"
    fresh_state = True  # run_suite registers relations, so each replay needs a new env

    def setup(self):
        return standard_environment()

    def ops(self, env):
        return len(CHECKS) + len(COUNT_EQUAL)

    def inputs(self, rng):
        # seeded parameter points at which each COUNT_EQUAL pair must agree
        return [
            [tuple(rng.randrange(64) for _ in range(2)) for _ in range(PAIR_POINTS)]
            for _ in COUNT_EQUAL
        ]

    def parts(self, env, inputs):
        def replay(split):
            # rows seen from outside the engine: each catalog row starts with
            # its env.run_script call and each COUNT_EQUAL row with its
            # subtract call, so a row lasts until the next one starts (the
            # last catalog row also holds the instant satz22 rank row)
            started = []
            plain_script, plain_subtract = env.run_script, toolkit.subtract

            def row_starts():
                if started:
                    split()
                started.append(True)

            def run_script(text, continue_on_error=False):
                row_starts()
                return plain_script(text, continue_on_error)

            def subtract(rep1, rep2):
                row_starts()
                return plain_subtract(rep1, rep2)

            env.run_script, toolkit.subtract = run_script, subtract
            try:
                report = run_suite(env)
                split()
            finally:
                del env.run_script
                toolkit.subtract = plain_subtract
            return report

        return [Part("suite_s", replay, samples="row_s")]

    def check(self, env, inputs, outputs):
        """(attempted, failed, comparable verdicts) for one replay."""
        (report,) = outputs["suite_s"]
        rows = {row.name: row for row in report.rows}
        failed = 0
        verdicts = []
        for check in CHECKS:
            # an automaton row is ok only if its language equals its GOLDS regex
            row = rows.get(check.name)
            ok = row is not None and row.ok
            if ok and check.kind == "sentence":
                ok = row.actual == ("TRUE" if check.expect else "FALSE")
            failed += not ok
            verdicts.append((check.name, row.actual if row else None, ok))
        for (left, right), points in zip(COUNT_EQUAL, inputs):
            row = rows.get(f"{left}_matches_{right}")
            ok = row is not None and row.ok
            try:
                values = [
                    (eval_linrep(env.representations[left], _fit(env.representations[left], p)),
                     eval_linrep(env.representations[right], _fit(env.representations[right], p)))
                    for p in points
                ]
            except (KeyError, EngineError):
                values = None
            ok = ok and values is not None and all(a == b for a, b in values)
            failed += not ok
            verdicts.append((left, right, values, ok))
        return len(CHECKS) + len(COUNT_EQUAL), failed, verdicts


def _fit(rep, point):
    return point[: len(rep.systems)]


class Counting:
    name = "counting"
    fresh_state = False

    def setup(self):
        env = standard_environment()
        for check in COUNTING_ROWS:
            env.run_script(check.script)
        return env.representations

    def ops(self, reps):
        return EVALS_PER_REP + len(COUNT_EQUAL)

    def inputs(self, rng):
        return [rng.randrange(EVAL_BOUND) for _ in range(EVALS_PER_REP)]

    def parts(self, reps, inputs):
        satz22 = reps["satz22"]

        def evaluate(split):
            values = []
            for n in inputs:
                values.append(eval_linrep(satz22, n))
                split()
            return values

        def zero_tests(split):
            zeros = []
            for left, right in COUNT_EQUAL:
                zeros.append(is_zero(subtract(reps[left], reps[right])))
                split()
            return zeros

        return [
            Part("evals_per_s", evaluate, len(inputs), samples="eval_s"),
            Part("zero_test_s", zero_tests),
        ]

    def check(self, reps, inputs, outputs):
        (values,) = outputs["evals_per_s"]
        (zeros,) = outputs["zero_test_s"]
        failed = sum(v != n for v, n in zip(values, inputs)) + sum(z is not True for z in zeros)
        failed += len(values) != len(inputs)
        return len(inputs) + len(zeros), failed, (values, zeros)


@dataclass
class Machines:
    rss: object
    rst: object
    mutants: list


@lru_cache(maxsize=1)
def _sweeps():
    """Integer running sums the tables are checked against.

    Kept as tuples of ints, which the garbage collector stops tracking, so
    holding them does not slow the collections inside timed parts.
    """
    return tuple(partial_sums(TABLE_SIZE)), tuple(alternating_sums(TABLE_SIZE))


class Synthesis:
    name = "synthesis"
    fresh_state = False

    def setup(self):
        env = standard_environment()
        rss = env.relation("rss").automaton
        rst = env.relation("rst").automaton
        mutants = [(rule, m) for rule, a in (("sum", rss), ("alt", rst)) for _, m in accepting_bit_mutations(a)]
        return Machines(rss, rst, mutants)

    def ops(self, machines):
        return len(GUESS_KEYS) + len(machines.mutants) + 2

    def inputs(self, rng):
        return [rng.randrange(SPOT_BOUND) for _ in range(SPOT_CHECKS)]

    def parts(self, machines, inputs):
        def guess_and_verify(split):
            guessed = []
            for key in GUESS_KEYS:
                oracle, dfao, rule, base = cli.GUESSABLE[key]
                candidate = guess_sync(oracle, 2**14, 64, names=("n", "x"))
                guessed.append((key, candidate, verify_sync(candidate, dfao(), rule, base)))
                split()
            return guessed

        def verify_mutants(split):
            sign = rudin_shapiro_dfao4()
            outcomes = []
            for rule, mutant in machines.mutants:
                outcomes.append(verify_sync(mutant, sign, rule, 1))
                split()
            return outcomes

        def tables(split):
            out = []
            for machine in (machines.rss, machines.rst):
                out.append(sync_table(machine, TABLE_SIZE))
                split()
            return out

        return [
            Part("synth_verify_s", guess_and_verify),
            Part("mutant_verify_s", verify_mutants),
            Part("sync_values_per_s", tables, 2 * TABLE_SIZE),
        ]

    def check(self, machines, inputs, outputs):
        partial, alternating = _sweeps()
        (guessed,) = outputs["synth_verify_s"]
        (mutant_outcomes,) = outputs["mutant_verify_s"]
        (tables,) = outputs["sync_values_per_s"]
        failed = 0
        summary = []
        for key, candidate, verdict in guessed:
            oracle = cli.GUESSABLE[key][0]
            spots = [sync_eval(candidate, n, input_track="n") for n in inputs]
            ok = verdict.ok and spots == [oracle(n) for n in inputs]
            failed += not ok
            summary.append((key, candidate.to_text(), verdict.ok, spots))
        for verdict in mutant_outcomes:
            broken = verdict.failures()
            ok = not verdict.ok and bool(broken) and all(c.witness is not None for c in broken)
            failed += not ok
            summary.append([(c.name, c.passed, c.witness) for c in verdict.checks])
        for table, reference in zip(tables, (partial, alternating)):
            ok = tuple(table) == reference
            failed += not ok
            summary.append(ok)
        attempted = len(guessed) + len(mutant_outcomes) + len(tables)
        return attempted, failed, summary


WORKLOADS = {w.name: w for w in (Corpus(), Counting(), Synthesis())}
