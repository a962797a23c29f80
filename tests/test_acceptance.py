"""The nine acceptance criteria, one pass/fail line each under -v.

Criterion 8 is split into its independent claims so a single wrong claim
cannot hide the others.  The stated upper bound in
test_criterion_8f_alternating_upper_bound_as_stated is false at n = 2 and
at every n whose base-4 digits are all 2; the test keeps the claim as
stated and fails, listing the witnesses in its assertion message.
"""

import time

from rslogic.automata import language_equal
from rslogic.catalog import CHECKS, COUNT_EQUAL, GOLDS, gold_automaton
from rslogic.linrep import eval_linrep, minimize_schutzenberger, subtract
from rslogic.sequences import (
    alternating_sums,
    double_zero_alternating_sum_by_recurrence,
    double_zero_partial_sum_by_recurrence,
    double_zero_sign,
    double_zero_sign_dfao4,
    partial_sums,
    pseudo_square,
    rudin_shapiro_dfao4,
    running_sums,
)
from rslogic.synchronized import (
    accepting_bit_mutations,
    guess_sync,
    sync_eval,
    sync_table,
    verify_sync,
)
from rslogic.toolkit import emit_csv, emit_svg, check_curve, curve_points


def test_criterion_1_oracle_equivalence(corpus):
    env, _ = corpus
    rss = env.relations["rss"].automaton
    rst = env.relations["rst"].automaton
    start = time.perf_counter()
    assert sync_table(rss, 2**18) == partial_sums(2**18)
    assert sync_table(rst, 2**18) == alternating_sums(2**18)
    for n in (0, 12, 2**17 + 3, 2**18 - 1):
        assert sync_eval(rss, n) == partial_sums(n + 1)[-1]
        assert sync_eval(rst, n) == alternating_sums(n + 1)[-1]
    assert time.perf_counter() - start < 30


def test_criterion_2_theorem_suite(corpus):
    _, report = corpus
    sentences = [c for c in CHECKS if c.kind == "sentence"]
    assert len(sentences) == 60
    for check in sentences:
        assert report.row(check.name).actual == str(check.expect).upper(), check.name
    assert sum(row.seconds for row in report.rows) < 60


def test_criterion_3_language_golds(corpus):
    env, _ = corpus
    assert len(GOLDS) == 9
    for name, _pattern in GOLDS:
        compiled = env.relation(name).automaton
        assert language_equal(compiled, gold_automaton(env, name)), name


def test_criterion_4_counting(corpus):
    env, _ = corpus
    reps = env.representations
    assert reps["satz22"].rank <= 7
    assert minimize_schutzenberger(subtract(reps["satz22"], reps["gfunc"])).rank == 0
    for left, right in COUNT_EQUAL:
        assert minimize_schutzenberger(subtract(reps[left], reps[right])).rank == 0
    for n in range(2**12):
        assert eval_linrep(reps["satz22"], n) == n


def test_criterion_5_integer_sweeps():
    start = time.perf_counter()
    s = partial_sums(2**20)
    t = alternating_sums(2**20)
    for n in range(1, 2**20):
        sq = s[n] * s[n]
        assert 5 * sq >= 3 * n + 7
        assert sq <= 6 * n
        assert t[n] >= 0
        assert t[n] * t[n] <= 3 * n
    for n in range(2**16):
        m = pseudo_square(n)
        assert n * n + 2 * n <= 3 * m <= 3 * n * n or n == 0
    hits_upper = any(pseudo_square(s[n]) == 3 * n + 1 for n in range(1, 2**16))
    hits_lower = any(5 * pseudo_square(s[n]) == 3 * n + 7 for n in range(1, 2**16))
    assert hits_upper and hits_lower
    assert time.perf_counter() - start < 60


def test_criterion_6_mutation_suite(corpus):
    env, _ = corpus
    for name, rule in (("rss", "sum"), ("rst", "alt")):
        automaton = env.relations[name].automaton
        mutants = list(accepting_bit_mutations(automaton))
        assert len(mutants) == automaton.n_states
        for state, mutant in mutants:
            outcome = verify_sync(mutant, rudin_shapiro_dfao4(), rule, 1)
            assert not outcome, f"{name} state {state}"
            witnesses = [c.witness for c in outcome.failures()]
            assert witnesses and all(w is not None for w in witnesses)


def test_criterion_7_curve(tmp_path):
    points = curve_points(2**14)
    assert check_curve(points)
    for p, q in zip(points, points[1:]):
        # one unit step: both sums move by exactly one, so the walk steps
        # to the nearest lattice point diagonally; equivalently exactly one
        # of the rotated coordinates (x+y)/2, (x-y)/2 moves, by one
        assert abs(q.x - p.x) == 1 and abs(q.y - p.y) == 1
    first = emit_csv(curve_points(1024), tmp_path / "a.csv")
    second = emit_csv(curve_points(1024), tmp_path / "b.csv")
    assert first == second
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    emit_svg(curve_points(1024), tmp_path / "curve.svg")
    assert (tmp_path / "curve.svg").stat().st_size > 0


def test_criterion_8a_halving_recurrences():
    ap = [double_zero_sign(n) for n in range(2**14)]
    sp = list(running_sums(double_zero_sign, 2**14))
    tp = list(running_sums(double_zero_sign, 2**14, alternating=True))
    assert ap[0] == 1
    for n in range(1, 2**13):
        sign = -1 if n % 2 == 0 else 1
        assert ap[2 * n] == sign * ap[n]
        assert ap[2 * n + 1] == ap[n]
        assert sp[2 * n] == sp[n - 1] - tp[n] + 2
        assert sp[2 * n + 1] == sp[n] - tp[n] + 2
        assert tp[2 * n] == -tp[n] - sp[n - 1] + 2
        assert tp[2 * n + 1] == -tp[n] - sp[n] + 2


def test_criterion_8b_quartering_recurrences():
    # with the residual r'_n identified as the sign a'(n)
    sp = list(running_sums(double_zero_sign, 2**16))
    ap = [double_zero_sign(n) for n in range(2**14)]
    for n in range(1, 2**14):
        r = ap[n]
        assert sp[4 * n] == 2 * sp[n] - (2 - (-1) ** n) * r + 2
        assert sp[4 * n + 1] == 2 * sp[n] - 2 * r + 2
        assert sp[4 * n + 2] == 2 * sp[n] - r + 2
        assert sp[4 * n + 3] == 2 * sp[n] + 2


def test_criterion_8_guess_and_verify():
    candidate = guess_sync(double_zero_partial_sum_by_recurrence)
    assert verify_sync(candidate, double_zero_sign_dfao4(), "sum", 1)
    flipped = guess_sync(lambda n: 1 - double_zero_alternating_sum_by_recurrence(n))
    assert verify_sync(flipped, double_zero_sign_dfao4(), "neg_alt", 0)


def test_criterion_8d_sum_bounds():
    sp = list(running_sums(double_zero_sign, 2**16))
    for n in range(1, 2**16):
        sq = sp[n] * sp[n]
        assert 4 * sq >= 9 * n
        assert 7 * sq <= 75 * n


def test_criterion_8f_alternating_lower_bound():
    tp = list(running_sums(double_zero_sign, 2**16, alternating=True))
    for n in range(1, 2**16):
        assert 7 * tp[n] * tp[n] <= 24 * n or tp[n] > 0


def test_criterion_8f_alternating_upper_bound_as_stated():
    # stated: the alternating sum is never positive for n >= 1.  The small
    # values already contain counterexamples (n = 2 gives +1), so this
    # fails; kept as stated deliberately, with the witnesses in the message
    tp = list(running_sums(double_zero_sign, 2**16, alternating=True))
    positives = [n for n in range(1, 2**16) if tp[n] > 0]
    assert positives == [], f"positive at n = {positives[:8]} (values {[tp[n] for n in positives[:8]]})"


def test_criterion_9_per_check_speed(corpus):
    _, report = corpus
    for row in report.rows:
        assert row.seconds < 1.0, f"{row.name}: {row.seconds:.2f}s"
