"""Command line front end.

suite / bounds / curve / seq drive the whole-corpus toolkit; run / eval /
def execute query-language commands against the standard environment and
an optional directory of definitions (one automaton text file per name),
which run and def write back; guess synthesizes a summation machine from
an oracle and reports the inductive verification verdict.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import re
import sys
from functools import lru_cache
from pathlib import Path

from .automata import MultiTrackAutomaton, minimize
from .errors import EngineError, FormulaParseError
from .parser import NAME_PATTERN, Command
from .sequences import double_zero_sign, rudin_shapiro, running_sums
from .synchronized import GUESSABLE, guess_sync, verify_sync
from .toolkit import (
    SuiteReport,
    check_curve,
    curve_points,
    emit_csv,
    emit_svg,
    run_suite,
    standard_environment,
    verify_bounds,
)

def _load_env(args):
    env = standard_environment()
    env_dir = getattr(args, "env_dir", None)
    if not env_dir:
        return env
    # the start-up machines (rss, rst, RS4) are verified on every run; a saved
    # copy of one must be that machine and never replaces it
    verified = {f"{name}.rel.txt": rel.automaton.to_text() for name, rel in env.relations.items()}
    verified.update((f"{name}.dfao.txt", dfao.to_text()) for name, dfao in env.dfaos.items())
    directory = Path(env_dir)
    for suffix, parse, register in (
        (".rel.txt", MultiTrackAutomaton.from_text, env.register_relation),
        (".dfao.txt", MultiTrackAutomaton.from_output_text, env.register_dfao),
    ):
        for path in sorted(directory.glob(f"*{suffix}")):
            name = path.name[: -len(suffix)]
            if not re.fullmatch(NAME_PATTERN, name):
                raise EngineError(f"{path}: {name!r} is not a name a formula can spell")
            try:
                text = path.read_text()
            except (OSError, UnicodeDecodeError) as exc:
                raise EngineError(f"cannot read {path}: {exc}") from None
            try:
                machine = parse(text)
            except EngineError as exc:
                raise EngineError(f"{path}: {exc}") from None
            if path.name in verified:
                if machine.to_text() != verified[path.name]:
                    raise EngineError(f"{path} differs from the verified machine of that name")
                continue
            # every number may be read behind leading zeros, so a machine
            # they change would let one query be both TRUE and FALSE
            machine = minimize(machine)
            # states of a minimal machine differ exactly when some suffix
            # tells their outputs apart, so a leading zero changes no output
            # exactly when state 0 stays put on symbol 0
            if machine.matrix[0][0] != 0:
                raise EngineError(f"{path} is not padding-closed: a leading zero changes it")
            register(name, machine)
    return env


def _save_env(env, args):
    env_dir = getattr(args, "env_dir", None)
    if not env_dir:
        return
    directory = Path(env_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for name, relation in env.relations.items():
        (directory / f"{name}.rel.txt").write_text(relation.automaton.to_text())
    for name, dfao in env.dfaos.items():
        (directory / f"{name}.dfao.txt").write_text(dfao.to_text())


def _describe(result):
    if result.error is not None:
        return f"error: {result.error}"
    if result.truth is not None:
        return "TRUE" if result.truth else "FALSE"
    if result.automaton is not None:
        return f"automaton with {result.automaton.n_states} states"
    return f"linear representation of rank {result.representation.rank}"


def cmd_suite(args):
    rows = [r for r in run_suite().rows if fnmatch.fnmatch(r.name, args.filter)]
    if not rows:
        print(f"no checks match {args.filter!r}", file=sys.stderr)
        return 2
    report = SuiteReport(rows)
    if args.report == "json":
        payload = {
            "ok": report.ok,
            "rows": [
                {
                    "id": r.name,
                    "kind": r.kind,
                    "expected": r.expected,
                    "actual": r.actual,
                    "ok": r.ok,
                    "seconds": round(r.seconds, 6),
                }
                for r in rows
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(report.table())
        print(f"{sum(r.ok for r in rows)}/{len(rows)} checks passed")
    return 0 if report.ok else 1


def _check_count(value, flag, least):
    if value < least:
        raise EngineError(f"{flag} must be at least {least}, got {value}")


def cmd_bounds(args):
    # the sweep covers n < --to; its witness rows need n = 9 at least:
    # alternating_zeros wants the first three zeros of t, at 1, 7 and 9, and
    # pseudo_square_of_sum_tight its equalities, first at n = 1 and n = 6
    _check_count(args.to, "--to", 10)
    report = verify_bounds(args.to)
    print(report.table())
    return 0 if report.ok else 1


def cmd_curve(args):
    _check_count(args.points, "--points", 1)
    points = curve_points(args.points)
    ok = check_curve(points)
    last = points[-1]
    print(f"{args.points} points, ends at ({last.x}, {last.y})")
    print(f"segment and revisit checks: {'pass' if ok else 'FAIL'}")
    if args.svg:
        emit_svg(points, args.svg)
        print(f"wrote {args.svg}")
    if args.csv:
        emit_csv(points, args.csv)
        print(f"wrote {args.csv}")
    return 0 if ok else 1


def cmd_seq(args):
    _check_count(args.to, "--to", 0)
    # the sums and sign columns read each n in turn, so a one-entry cache computes each sign once
    a, ap = (lru_cache(maxsize=1)(sign) for sign in (rudin_shapiro, double_zero_sign))
    sums = [running_sums(sign, args.to, alternating) for sign in (a, ap) for alternating in (False, True)]
    print("n,a,s,t,ap,sp,tp")
    for n, s, t, sp, tp in zip(range(args.to), *sums):
        print(f"{n},{a(n)},{s},{t},{ap(n)},{sp},{tp}")
    return 0


def cmd_run(args):
    env = _load_env(args)
    try:
        text = Path(args.script).read_text()
    except UnicodeDecodeError as exc:
        raise EngineError(f"cannot read {args.script}: {exc}") from None
    results = env.run_script(text, continue_on_error=args.continue_on_error)
    failed = False
    for result in results:
        print(f"{result.name}: {_describe(result)}  ({1000 * result.seconds:.1f} ms)")
        failed = failed or result.error is not None
    _save_env(env, args)
    return 1 if failed else 0


def cmd_eval(args):
    env = _load_env(args)
    # an open formula is bound under a name no formula can spell, so it
    # never meets a relation of --env-dir
    result = env.run_command(Command("eval", "#eval", [], args.query))
    print(_describe(result))
    return 0


def cmd_def(args):
    if not re.fullmatch(NAME_PATTERN, args.name):
        raise FormulaParseError(f"{args.name!r} is not a relation name")
    env = _load_env(args)
    result = env.run_command(Command("def", args.name, [], args.formula))
    print(f"{args.name}: {_describe(result)}")
    _save_env(env, args)
    return 0


def cmd_guess(args):
    _check_count(args.sample_bound, "--sample-bound", 1)
    _check_count(args.state_cap, "--state-cap", 1)
    oracle, dfao, rule, base = GUESSABLE[args.sequence]
    candidate = guess_sync(
        oracle, args.sample_bound, args.state_cap, names=("n", "x")
    )
    print(f"candidate has {candidate.n_states} states")
    outcome = verify_sync(candidate, dfao(), rule, base)
    for check in outcome.checks:
        status = "proved" if check.passed else f"FAILS at {check.witness}"
        print(f"  {check.name}: {status}")
    if args.out and outcome.ok:
        Path(args.out).write_text(candidate.to_text())
        print(f"wrote {args.out}")
    elif args.out:
        print(f"nothing written to {args.out}: the candidate is not proved")
    return 0 if outcome.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rslogic",
        description="Decide statements about digit-pair counting sums and emit their curve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suite", help="run the whole check suite")
    p.add_argument("--filter", default="*", help="glob over check ids")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_suite)

    p = sub.add_parser("bounds", help="integer sweeps of the inequality families")
    p.add_argument("--to", type=int, default=2**16)
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("curve", help="check and emit the plane walk")
    p.add_argument("--points", type=int, default=1024)
    p.add_argument("--svg")
    p.add_argument("--csv")
    p.set_defaults(handler=cmd_curve)

    p = sub.add_parser("seq", help="print the sequences as CSV")
    p.add_argument("--to", type=int, default=64)
    p.set_defaults(handler=cmd_seq)

    p = sub.add_parser("run", help="run a query script file")
    p.add_argument("script")
    p.add_argument("--continue-on-error", action="store_true")
    p.add_argument("--env-dir")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("eval", help="decide one query")
    p.add_argument("query")
    p.add_argument("--env-dir")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("def", help="define one named relation")
    p.add_argument("name")
    p.add_argument("formula")
    p.add_argument("--env-dir")
    p.set_defaults(handler=cmd_def)

    p = sub.add_parser("guess", help="synthesize a summation machine and verify it")
    p.add_argument("sequence", choices=sorted(GUESSABLE))
    p.add_argument("--sample-bound", type=int, default=2**14)
    p.add_argument("--state-cap", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_guess)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (EngineError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
