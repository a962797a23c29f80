"""Whole-corpus drivers: check suite, integer bound sweeps, curve emission.

standard_environment wires the sign table and the two summation machines
shipped with the package (proved on every call before registration) into
one Environment; run_suite replays the whole catalog against it and
reports per-check outcomes with wall times.  verify_bounds sweeps the
inequality families with integer arithmetic only, in one pass that keeps
s(n) and t(n) as two integers.  curve_points builds the plane walk
(s(n), t(n)) once; check_curve, emit_svg and emit_csv take its points.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from importlib.resources import files
from itertools import pairwise

from .automata import MultiTrackAutomaton, language_equal
from .catalog import CHECKS, COUNT_EQUAL, gold_automaton
from .errors import EngineError, GuessFailedError
from .linrep import is_zero, subtract
from .logic import Environment
from .sequences import pseudo_square, rudin_shapiro, rudin_shapiro_dfao4, running_sums
from .synchronized import GUESSABLE, verify_sync

__all__ = [
    "standard_environment",
    "run_suite",
    "verify_bounds",
    "curve_points",
    "check_curve",
    "emit_svg",
    "emit_csv",
    "CurvePoint",
    "SuiteRow",
    "SuiteReport",
]


def _shipped_text(name):
    """The stored to_text() of start-up machine ``name``, from package data.

    rss.rel.txt and rst.rel.txt are what ``rslogic guess s|t --out`` writes;
    a Tier-1 test checks that guessing still reproduces them byte for byte.
    """
    return files(__package__).joinpath(f"{name}.rel.txt").read_text()


def standard_environment():
    """Environment holding the RS4 sign table and the proved rss/rst machines.

    rss and rst are read from the package's shipped text, not synthesized,
    and each is proved on every call by the recipe of its ``GUESSABLE`` row,
    s and t.  A machine that fails any check raises GuessFailedError and is
    never registered.
    """
    env = Environment()
    env.register_dfao("RS4", rudin_shapiro_dfao4())
    for name, row in (("rss", "s"), ("rst", "t")):
        candidate = MultiTrackAutomaton.from_text(_shipped_text(name), names=("n", "x"))
        _, sign, rule, base = GUESSABLE[row]
        outcome = verify_sync(candidate, sign(), rule, base)
        if not outcome:
            raise GuessFailedError(
                f"{name} candidate failed verification: {outcome.failures()}"
            )
        env.register_relation(name, candidate, ["n", "x"])
    return env


@dataclass
class SuiteRow:
    name: str
    kind: str
    expected: str
    actual: str
    ok: bool
    seconds: float


@dataclass
class SuiteReport:
    rows: list

    @property
    def ok(self):
        return all(row.ok for row in self.rows)

    def failures(self):
        return [row for row in self.rows if not row.ok]

    def row(self, name):
        return next(row for row in self.rows if row.name == name)

    def table(self):
        width = max(len(row.name) for row in self.rows)
        lines = []
        for row in self.rows:
            status = "pass" if row.ok else "FAIL"
            lines.append(
                f"{row.name:<{width}}  {status}  {1000 * row.seconds:8.1f} ms"
                f"  expected {row.expected}, got {row.actual}"
            )
        return "\n".join(lines)


def _truth_name(value):
    return {True: "TRUE", False: "FALSE"}.get(value, str(value))


# what a catalog row of each kind expects, but for sentences
_EXPECTED = {"automaton": "language matches the stated regex", "counting": "linear representation"}


def run_suite(env=None):
    """Run the whole catalog in order; failures become report rows.

    Every row is timed by ``_timed_row``: a catalog row from its script to
    its verdict, an automaton row's gold comparison included.
    """
    if env is None:
        env = standard_environment()
    rows = []
    for check in CHECKS:
        expected = _EXPECTED.get(check.kind, "defined")
        if check.kind == "sentence":
            expected = _truth_name(check.expect)
        rows.append(_timed_row(check.name, expected, partial(_catalog_row, env, check), check.kind))

    def satz22_rank():
        rep = env.representations.get("satz22")
        return rep is not None and rep.rank <= 7, "missing" if rep is None else f"rank {rep.rank}"

    def difference_is_zero(left, right):
        try:
            zero = is_zero(subtract(env.representations[left], env.representations[right]))
        except (KeyError, EngineError):
            zero = False
        return zero, "rank 0" if zero else "nonzero"

    rows.append(_timed_row("satz22_rank", "raw rank at most 7", satz22_rank, "counting"))
    for left, right in COUNT_EQUAL:
        rows.append(
            _timed_row(
                f"{left}_matches_{right}",
                "difference is the zero function",
                partial(difference_is_zero, left, right),
                "counting",
            )
        )
    return SuiteReport(rows)


def _catalog_row(env, check):
    """(ok, actual) for one catalog check: its script run once in ``env``."""
    try:
        (result,) = env.run_script(check.script)
    except EngineError as exc:
        return False, str(exc)
    if check.kind == "sentence":
        return result.truth is check.expect, _truth_name(result.truth)
    if check.kind == "automaton":
        ok = language_equal(env.relation(check.name).automaton, gold_automaton(env, check.name))
        return ok, "matches" if ok else "differs"
    if check.kind == "counting":
        return True, f"rank {env.representations[check.name].rank}"
    return True, "defined"


def _timed_row(name, expected, check, kind):
    """A report row from check(), which returns (ok, actual) and is timed."""
    start = time.perf_counter()
    ok, actual = check()
    return SuiteRow(name, kind, expected, actual, ok, time.perf_counter() - start)


def _walk(N):
    """(n, s(n), t(n)) for every n < N, as one lazy sweep."""
    s, t = running_sums(rudin_shapiro, N), running_sums(rudin_shapiro, N, alternating=True)
    return zip(range(N), s, t)


def verify_bounds(N=2**16):
    """Integer-only sweeps of the inequality families below N, in one pass.

    s(n) and t(n) are two ints, not lists.  Each row reports its first
    violation from its own start index and the seconds of the whole pass.
    """
    clean = "no violations"
    bounds = {  # name: (first n checked, violated(n, s, t))
        "square_sum_upper": (1, lambda n, s, t: s * s > 6 * n),
        "square_sum_lower": (1, lambda n, s, t: 5 * s * s < 3 * n + 7),
        "alternating_nonnegative": (0, lambda n, s, t: t < 0),
        "square_alternating_upper": (1, lambda n, s, t: t * t > 3 * n),
        "pseudo_square_window": (
            0, lambda n, s, t: not (n * n + 2 * n <= 3 * pseudo_square(n) <= 3 * n * n)),
        "pseudo_square_of_sum": (1, lambda n, s, t: not (
            3 * n + 7 <= 5 * pseudo_square(s) and pseudo_square(s) <= 3 * n + 1)),
        "pseudo_square_of_alternating": (0, lambda n, s, t: pseudo_square(t) > n + 1),
    }
    first_bad = {}
    upper, lower, zeros, zero_count = [], [], [], 0
    start = time.perf_counter()
    for n, s, t in _walk(N):
        for name, (first, violated) in bounds.items():
            if name not in first_bad and n >= first and violated(n, s, t):
                first_bad[name] = n
        if n and len(upper) < 3 and pseudo_square(s) == 3 * n + 1:
            upper.append(n)
        if n and len(lower) < 3 and 5 * pseudo_square(s) == 3 * n + 7:
            lower.append(n)
        if t == 0:
            zero_count += 1
            if len(zeros) < 3:
                zeros.append(n)
    seconds = time.perf_counter() - start
    rows = [(name, clean, f"violated at n={first_bad[name]}" if name in first_bad else clean,
             name not in first_bad) for name in bounds]
    tight = bool(upper) and bool(lower)
    # the table lists the tightness row right after pseudo_square_of_sum
    rows.insert(6, ("pseudo_square_of_sum_tight", "equality reached on both sides",
                    f"upper at n={upper}, lower at n={lower}" if tight else "not reached", tight))
    rows.append(("alternating_zeros", "value 0 recurs, first at 1, 7, 9",
                 f"{zero_count} zeros, first {zeros}", zeros == [1, 7, 9]))
    return SuiteReport([SuiteRow(name, "bound", *row, seconds) for name, *row in rows])


@dataclass(frozen=True, slots=True)
class CurvePoint:
    n: int
    x: int
    y: int


def curve_points(N):
    """The walk (s(n), t(n)) for n < N; every point satisfies x >= y."""
    points = []
    for n, x, y in _walk(N):
        if x < y:
            raise ValueError(f"point {n} has x < y: ({x}, {y})")
        points.append(CurvePoint(n, x, y))
    return points


def check_curve(points):
    """No undirected segment repeats and no lattice point is hit thrice."""
    if max(Counter((p.x, p.y) for p in points).values(), default=0) > 2:
        return False
    seen_segments = set()
    for p, q in pairwise(points):
        segment = (min((p.x, p.y), (q.x, q.y)), max((p.x, p.y), (q.x, q.y)))
        if segment in seen_segments:
            return False
        seen_segments.add(segment)
    return True


def emit_csv(points, path):
    """Write n,x,y rows; output bytes depend only on the points."""
    lines = ["n,x,y"]
    lines.extend(f"{p.n},{p.x},{p.y}" for p in points)
    data = "\n".join(lines) + "\n"
    with open(path, "w", newline="") as handle:
        handle.write(data)
    return data


SVG_SCALE = 8  # SVG user units per unit step of the curve


def emit_svg(points, path):
    """Write the curve as a polyline with rounded joins."""
    max_x = max(p.x for p in points)
    max_y = max(p.y for p in points)
    scale = pad = SVG_SCALE
    width = max_x * scale + 2 * pad
    height = max_y * scale + 2 * pad
    coords = " ".join(f"{p.x * scale},{(max_y - p.y) * scale}" for p in points)
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{-pad} {-pad} {width} {height}">\n'
        f'<polyline fill="none" stroke="#1a1a1a" stroke-width="{scale // 3 or 1}" '
        f'stroke-linejoin="round" stroke-linecap="round" points="{coords}"/>\n'
        "</svg>\n"
    )
    with open(path, "w", newline="") as handle:
        handle.write(svg)
    return svg
