"""Suite runner, integer bound sweeps, and the plane walk."""

import pytest

from rslogic import automata, synchronized, toolkit
from rslogic.automata import MultiTrackAutomaton
from rslogic.errors import GuessFailedError
from rslogic.logic import Environment
from rslogic.sequences import alternating_sums, partial_sums
from rslogic.synchronized import accepting_bit_mutations
from rslogic.toolkit import (
    CurvePoint,
    check_curve,
    curve_points,
    emit_csv,
    emit_svg,
    run_suite,
    standard_environment,
    verify_bounds,
)

from builders import count_kernel_calls


def test_suite_all_pass(corpus):
    _, report = corpus
    assert report.ok
    assert len(report.rows) == 100
    assert not report.failures()


def test_suite_covers_every_kind(corpus):
    _, report = corpus
    kinds = {row.kind for row in report.rows}
    assert kinds == {"sentence", "automaton", "counting", "reg", "def"}
    sentences = [row for row in report.rows if row.kind == "sentence"]
    assert len(sentences) == 60
    assert sum(row.expected == "FALSE" for row in sentences) == 3


def test_suite_records_times(corpus):
    _, report = corpus
    for row in report.rows:
        assert 0.0 <= row.seconds < 1.0, row.name


def test_suite_counting_rows(corpus):
    _, report = corpus
    assert report.row("satz22_rank").actual == "rank 7"
    for name in (
        "satz22_matches_gfunc",
        "counta1_matches_counta2",
        "countb1_matches_countb2",
    ):
        assert report.row(name).ok, name


def test_suite_table_mentions_every_check(corpus):
    _, report = corpus
    table = report.table()
    assert "curvecheck3" in table and "expected FALSE, got FALSE" in table
    assert table.count("\n") == len(report.rows) - 1


def test_suite_kernel_call_counts(monkeypatch):
    # one replay on a fresh environment; a change that means to alter the
    # number of kernel calls updates these and says why
    env = standard_environment()
    counts = count_kernel_calls(monkeypatch)
    run_suite(env)
    assert counts == {"minimize": 591, "project": 200, "determinize": 313, "product": 355}


def test_suite_minimize_walks_only_the_inputs_not_yet_numbered(monkeypatch):
    # a replay's minimize inputs mostly come out of product, determinize or
    # an earlier minimize, numbered as _explore numbers them; their quotient
    # is read off the refinement, and every other input is walked once
    env = standard_environment()
    refine, explore = automata._refine, automata._explore
    seen = {"calls": 0, "numbered": 0, "walks": 0}

    def counted_explore(*args):
        seen["walks"] += 1
        return explore(*args)

    def watched_refine(matrix, initial, labels):
        seen["calls"] += 1
        seen["numbered"] += automata._numbered(matrix, initial)
        monkeypatch.setattr(automata, "_explore", counted_explore)
        try:
            return refine(matrix, initial, labels)
        finally:
            monkeypatch.setattr(automata, "_explore", explore)

    monkeypatch.setattr(automata, "_refine", watched_refine)
    run_suite(env)
    assert seen["calls"] == 591
    assert seen["numbered"] >= 585
    assert seen["walks"] == seen["calls"] - seen["numbered"]


def test_suite_reports_engine_errors_as_rows():
    # without RS4, rss and rst most rows cannot compile; every error becomes a
    # failing row of its own kind and none escapes run_suite
    report = run_suite(Environment())
    assert len(report.rows) == 100
    assert {row.kind for row in report.failures()} == {"sentence", "automaton", "counting", "def"}
    for name in ("test1", "min_rss", "satz22"):
        assert report.row(name).actual == "unknown relation 'rss'", name
    assert report.row("satz22_rank").actual == "missing"
    for name in ("satz22_matches_gfunc", "counta1_matches_counta2", "countb1_matches_countb2"):
        row = report.row(name)
        assert not row.ok and row.actual == "nonzero", name


def test_mutated_machine_fails_suite():
    # an environment binds each name once, so the mutant goes into a new one
    shipped = standard_environment()
    _, mutant = next(iter(accepting_bit_mutations(shipped.relation("rss").automaton)))
    env = Environment()
    env.register_dfao("RS4", shipped.dfao("RS4"))
    env.register_relation("rss", mutant)
    env.register_relation("rst", shipped.relation("rst").automaton)
    broken = run_suite(env)
    assert not broken.ok
    names = [row.name for row in broken.failures()]
    assert "eq6" in names


def test_bounds_all_pass():
    report = verify_bounds(2**16)
    assert report.ok
    names = [row.name for row in report.rows]
    assert "square_sum_upper" in names and "pseudo_square_of_sum_tight" in names
    assert "first [1, 7, 9]" in report.row("alternating_zeros").actual


def test_bounds_small_window_still_passes():
    assert verify_bounds(2**10).ok


@pytest.mark.parametrize("wrong_from", [0, 40])
def test_bounds_report_the_first_violation(monkeypatch, wrong_from):
    # a pseudo_square far too large from argument wrong_from on breaks the
    # three rows that apply it, each first at the n where its argument
    # (n, s(n) or t(n)) reaches wrong_from, counted from the row's start
    N = 2048
    real = toolkit.pseudo_square
    monkeypatch.setattr(toolkit, "pseudo_square", lambda m: real(m) + 10**9 * (m >= wrong_from))
    s, t = partial_sums(N), alternating_sums(N)
    first_bad = {
        "pseudo_square_window": wrong_from,
        "pseudo_square_of_sum": next(n for n in range(1, N) if s[n] >= wrong_from),
        "pseudo_square_of_alternating": next(n for n in range(N) if t[n] >= wrong_from),
    }
    report = verify_bounds(N)
    for row in report.rows:
        if row.name in first_bad:
            assert (row.ok, row.actual) == (False, f"violated at n={first_bad[row.name]}")
        elif row.name == "pseudo_square_of_sum_tight":
            # equality needs pseudo_square(s(n)) near 3n, which 10**9 never
            # is below N; from 40 on, s(1) = 2 and s(6) = 3 still reach it
            assert row.ok is (wrong_from != 0)
            assert (row.actual == "not reached") is (wrong_from == 0)
        else:
            assert row.ok, row.name
    assert first_bad["pseudo_square_of_sum"] == (1 if wrong_from == 0 else 533)


def test_curve_spot_points():
    points = curve_points(8)
    assert (points[0].x, points[0].y) == (1, 1)
    assert (points[1].x, points[1].y) == (2, 0)
    assert (points[7].x, points[7].y) == (4, 0)


def test_curve_point_window():
    for p in curve_points(2**14):
        assert p.x >= p.y
        assert (p.x - p.y) % 2 == 0
        assert (p.x, p.y) != (0, 0)


def test_curve_steps_are_unit_diagonals():
    points = curve_points(2**14)
    for p, q in zip(points, points[1:]):
        dx, dy = q.x - p.x, q.y - p.y
        # both coordinates move by one: the step is never axis-aligned,
        # the walk lives on the x = y (mod 2) sublattice
        assert abs(dx) == 1 and abs(dy) == 1
    # equivalently: exactly one of the rotated coordinates (x+y)/2,
    # (x-y)/2 changes, and it changes by exactly one unit
    for p, q in zip(points, points[1:]):
        du = (q.x + q.y) // 2 - (p.x + p.y) // 2
        dv = (q.x - q.y) // 2 - (p.x - p.y) // 2
        assert sorted((abs(du), abs(dv))) == [0, 1]


def test_check_curve_passes():
    assert check_curve(curve_points(2**14))


def test_check_curve_catches_planted_repeat():
    # a walk that retraces its last segment must be rejected
    points = curve_points(16)
    bad = points[:8] + [points[6]]
    assert not check_curve(bad)


def test_check_curve_catches_planted_third_hit():
    # a walk that meets (2, 2) a third time along segments all new
    path = [(2, 2), (3, 3), (4, 2), (3, 1), (2, 2), (1, 3), (0, 2), (1, 1), (2, 2)]
    bad = [CurvePoint(n, x, y) for n, (x, y) in enumerate(path)]
    assert check_curve(bad[: len(path) - 1])
    assert not check_curve(bad[: len(path)])


def test_every_nearby_lattice_point_is_hit():
    bound = 4 * (32 + 32 + 2) ** 2
    first = {}
    for p in curve_points(bound):
        first.setdefault((p.x, p.y), p.n)
    for x in range(33):
        for y in range(x + 1):
            if x + y > 0 and (x - y) % 2 == 0:
                assert first.get((x, y), bound) < 4 * (x + y + 2) ** 2, (x, y)


def test_hit_counts_cap_at_two():
    hits = {}
    for p in curve_points(2**14):
        hits[(p.x, p.y)] = hits.get((p.x, p.y), 0) + 1
    assert max(hits.values()) == 2
    assert hits[(3, 1)] == 2
    # the start (1,1) is left for good: a later return would need the
    # running sum back at 1, which the lower bound 5*s(n)^2 >= 3n+7 forbids
    assert hits[(1, 1)] == 1


def test_csv_is_byte_stable(tmp_path):
    first = emit_csv(curve_points(1024), tmp_path / "a.csv")
    second = emit_csv(curve_points(1024), tmp_path / "b.csv")
    assert first == second
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    lines = first.splitlines()
    assert lines[0] == "n,x,y"
    assert lines[1] == "0,1,1"
    assert len(lines) == 1025


def test_svg_is_a_polyline(tmp_path):
    emit_svg(curve_points(1024), tmp_path / "curve.svg")
    text = (tmp_path / "curve.svg").read_text()
    assert text.startswith("<svg ")
    assert "<polyline" in text and "stroke-linejoin=\"round\"" in text
    assert "viewBox" in text


def test_environment_requires_verification(monkeypatch):
    # a shipped machine with one accepting bit flipped never enters the environment
    shipped = {name: toolkit._shipped_text(name) for name in ("rss", "rst")}
    mutants = 0
    for name, text in shipped.items():
        machine = MultiTrackAutomaton.from_text(text, names=("n", "x"))
        for _, mutant in accepting_bit_mutations(machine):
            served = {**shipped, name: mutant.to_text()}
            monkeypatch.setattr(toolkit, "_shipped_text", served.__getitem__)
            with pytest.raises(GuessFailedError, match=f"^{name} candidate failed"):
                standard_environment()
            mutants += 1
    assert mutants == 17


def test_environment_proves_rss_by_its_guessable_row(monkeypatch):
    # rss is a running sum, so proving it by the alternating rule must fail
    oracle, sign, _, base = synchronized.GUESSABLE["s"]
    monkeypatch.setitem(synchronized.GUESSABLE, "s", (oracle, sign, "alt", base))
    with pytest.raises(GuessFailedError, match="^rss candidate failed"):
        standard_environment()


def test_shipped_machines_round_trip(corpus):
    # cli._load_env compares saved files with these texts, so parsing and
    # printing one must give it back unchanged
    env, _ = corpus
    for name in ("rss", "rst"):
        text = toolkit._shipped_text(name)
        assert MultiTrackAutomaton.from_text(text).to_text() == text
        assert env.relations[name].automaton.to_text() == text
