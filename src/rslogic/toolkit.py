"""Whole-corpus drivers: check suite, integer bound sweeps, curve emission.

standard_environment wires the sign table and the two summation machines
shipped with the package (proved on every call before registration) into
one Environment; run_suite replays the whole catalog against it and
reports per-check outcomes with wall times.  verify_bounds sweeps the
inequality families with integer arithmetic only.  curve_points and
friends materialize the plane walk (s(n), t(n)) and emit it as SVG and
CSV.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from importlib.resources import files

from .automata import MultiTrackAutomaton, language_equal
from .catalog import CHECKS, COUNT_EQUAL, gold_automaton
from .errors import EngineError, GuessFailedError
from .linrep import is_zero, subtract
from .logic import Environment
from .sequences import alternating_sums, partial_sums, pseudo_square, rudin_shapiro_dfao4
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


def run_suite(env=None):
    """Run the whole catalog in order; failures become report rows."""
    if env is None:
        env = standard_environment()
    rows = []
    for check in CHECKS:
        start = time.perf_counter()
        error = None
        result = None
        try:
            (result,) = env.run_script(check.script)
        except EngineError as exc:
            error = exc
        seconds = time.perf_counter() - start
        if check.kind == "sentence":
            expected = _truth_name(check.expect)
            actual = str(error) if error else _truth_name(result.truth)
            ok = error is None and result.truth is check.expect
        elif check.kind == "automaton":
            expected = "language matches the stated regex"
            if error is None:
                ok = language_equal(
                    env.relation(check.name).automaton, gold_automaton(env, check.name)
                )
                actual = "matches" if ok else "differs"
            else:
                ok, actual = False, str(error)
        elif check.kind == "counting":
            expected = "linear representation"
            if error is None:
                rep = env.representations[check.name]
                actual = f"rank {rep.rank}"
                ok = True
            else:
                ok, actual = False, str(error)
        else:
            expected = "defined"
            actual = str(error) if error else "defined"
            ok = error is None
        rows.append(SuiteRow(check.name, check.kind, expected, actual, ok, seconds))

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


def _timed_row(name, expected, check, kind):
    """A report row from check(), which returns (ok, actual) and is timed."""
    start = time.perf_counter()
    ok, actual = check()
    return SuiteRow(name, kind, expected, actual, ok, time.perf_counter() - start)


def verify_bounds(N=2**16):
    """Integer-only sweeps of the inequality families below N."""
    s = partial_sums(N)
    t = alternating_sums(N)
    clean = "no violations"

    def never(violated, first=1):
        def check():
            bad = next((n for n in range(first, N) if violated(n)), None)
            return bad is None, clean if bad is None else f"violated at n={bad}"

        return check

    def tight():
        upper = [n for n in range(1, N) if pseudo_square(s[n]) == 3 * n + 1]
        lower = [n for n in range(1, N) if 5 * pseudo_square(s[n]) == 3 * n + 7]
        ok = bool(upper) and bool(lower)
        return ok, f"upper at n={upper[:3]}, lower at n={lower[:3]}" if ok else "not reached"

    def zeros():
        found = [n for n in range(N) if t[n] == 0]
        return found[:3] == [1, 7, 9], f"{len(found)} zeros, first {found[:3]}"

    rows = (
        ("square_sum_upper", clean, never(lambda n: s[n] * s[n] > 6 * n)),
        ("square_sum_lower", clean, never(lambda n: 5 * s[n] * s[n] < 3 * n + 7)),
        ("alternating_nonnegative", clean, never(lambda n: t[n] < 0, first=0)),
        ("square_alternating_upper", clean, never(lambda n: t[n] * t[n] > 3 * n)),
        ("pseudo_square_window", clean,
         never(lambda n: not (n * n + 2 * n <= 3 * pseudo_square(n) <= 3 * n * n), first=0)),
        ("pseudo_square_of_sum", clean,
         never(lambda n: not (3 * n + 7 <= 5 * pseudo_square(s[n]) and pseudo_square(s[n]) <= 3 * n + 1))),
        ("pseudo_square_of_sum_tight", "equality reached on both sides", tight),
        ("pseudo_square_of_alternating", clean, never(lambda n: pseudo_square(t[n]) > n + 1, first=0)),
        ("alternating_zeros", "value 0 recurs, first at 1, 7, 9", zeros),
    )
    return SuiteReport([_timed_row(*row, "bound") for row in rows])


@dataclass(frozen=True)
class CurvePoint:
    n: int
    x: int
    y: int


def curve_points(N):
    """The walk (s(n), t(n)) for n < N; every point satisfies x >= y."""
    s = partial_sums(N)
    t = alternating_sums(N)
    points = []
    for n in range(N):
        if s[n] < t[n]:
            raise ValueError(f"point {n} has x < y: ({s[n]}, {t[n]})")
        points.append(CurvePoint(n, s[n], t[n]))
    return points


def check_curve(N):
    """No undirected segment repeats and no lattice point is hit thrice."""
    points = curve_points(N)
    seen_segments = set()
    hits = {}
    for n in range(N):
        p = points[n]
        hits[(p.x, p.y)] = hits.get((p.x, p.y), 0) + 1
        if hits[(p.x, p.y)] > 2:
            return False
        if n + 1 == N:
            break
        q = points[n + 1]
        segment = (min((p.x, p.y), (q.x, q.y)), max((p.x, p.y), (q.x, q.y)))
        if segment in seen_segments:
            return False
        seen_segments.add(segment)
    return True


def emit_csv(N, path):
    """Write n,x,y rows; output bytes depend only on N."""
    points = curve_points(N)
    lines = ["n,x,y"]
    lines.extend(f"{p.n},{p.x},{p.y}" for p in points)
    data = "\n".join(lines) + "\n"
    with open(path, "w", newline="") as handle:
        handle.write(data)
    return data


SVG_SCALE = 8  # SVG user units per unit step of the curve


def emit_svg(N, path):
    """Write the curve as a polyline with rounded joins."""
    points = curve_points(N)
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
