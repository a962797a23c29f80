"""Counting representations: construction, arithmetic, minimization."""

import copy
import math
import re
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rslogic import linrep
from rslogic.automata import NumberSystem
from rslogic.catalog import COUNT_EQUAL
from rslogic.errors import CompileError, DivergenceError, EngineError
from rslogic.linrep import (
    BLOCK_CELLS,
    LinearRepresentation,
    count_representation,
    eval_linrep,
    is_zero,
    minimize_schutzenberger,
    subtract,
)
from rslogic.logic import Environment, compile_formula
from rslogic.sequences import alternating_sum_by_recurrence, partial_sum_by_recurrence
from rslogic.synchronized import guess_sync

from builders import plain_eval_linrep, plain_minimize_schutzenberger

M4 = NumberSystem(4)
M2 = NumberSystem(2)


@pytest.fixture(scope="module")
def env():
    env = Environment()
    env.register_relation(
        "rss", guess_sync(partial_sum_by_recurrence, names=("n", "x")), ["n", "x"]
    )
    env.register_relation(
        "rst", guess_sync(alternating_sum_by_recurrence, names=("n", "x")), ["n", "x"]
    )
    env.run_script(
        '''
        reg power4 msd_4 "0*10*":
        reg link42 msd_4 msd_2 "([0,0]|[1,1])*":
        eval howmany n "$rss(?msd_4 k,n)":
        eval ident n "i<n":
        def first_half k x "?msd_4 $rst(n,k) & $power4(x) & x>1 & 2*n<x":
        def first_half_claim k x "?msd_4 Ey $power4(x) & x>1 & $link42(x,y) &
           (?msd_2 (k=0 & 2*n<y)|(1<=k & k<y & n+k<y))":
        def full_block k x "?msd_4 $rst(n,k) & $power4(x) & n<x":
        def full_block_claim k x "?msd_4 Ey $power4(x) & $link42(x,y) &
           (?msd_2 (k=0 & n+1<y)|(k=y & n=0)|(1<=k & k<y & n+2*k<2*y))":
        '''
    )
    return env


def test_identity_function_rep(env):
    ident = env.representations["ident"]
    assert ident.rank == 2
    for n in range(300):
        assert eval_linrep(ident, n) == n


def test_value_count_rep_matches_brute_force(env):
    howmany = env.representations["howmany"]
    assert howmany.rank == 7
    # how many k have running sum exactly n; solutions k all lie below 4000
    counts = {}
    for k in range(4000):
        counts[partial_sum_by_recurrence(k)] = counts.get(partial_sum_by_recurrence(k), 0) + 1
    for n in range(40):
        assert eval_linrep(howmany, n) == counts.get(n, 0)


def test_value_count_equals_identity(env):
    diff = subtract(env.representations["howmany"], env.representations["ident"])
    assert diff.rank == 9
    assert minimize_schutzenberger(diff).rank == 0
    assert is_zero(diff)


def test_block_count_pairs_cancel(env):
    for raw, claim in (
        ("first_half", "first_half_claim"),
        ("full_block", "full_block_claim"),
    ):
        diff = subtract(env.representations[raw], env.representations[claim])
        assert is_zero(diff), raw


def test_two_parameter_eval(env):
    rep = env.representations["full_block"]
    # t(n) = k for n < 4^m: brute force against the oracle
    for m in (1, 2, 3):
        x = 4**m
        for k in (0, 1, 2, 2**m):
            expected = sum(
                1 for n in range(x) if alternating_sum_by_recurrence(n) == k
            )
            assert eval_linrep(rep, (k, x)) == expected


def test_subtract_requires_matching_alphabets(env):
    with pytest.raises(CompileError):
        subtract(env.representations["ident"], env.representations["full_block"])


def test_self_difference_is_zero(env):
    rep = env.representations["howmany"]
    assert is_zero(subtract(rep, rep))
    assert not is_zero(rep)


def test_minimize_is_idempotent(env):
    small = minimize_schutzenberger(env.representations["howmany"])
    again = minimize_schutzenberger(small)
    assert small.rank == again.rank
    for n in range(64):
        assert eval_linrep(small, n) == n


def test_divergent_count_detected():
    env = Environment()
    aut = compile_formula(env, "i>n")
    rep = count_representation(aut, ["n"])
    with pytest.raises(DivergenceError):
        eval_linrep(rep, 3)
    # padding flips the sign of the count, 2 * (-1)^k * (-2): no run of
    # equal values ever starts, although two late values agree in size
    alternating = LinearRepresentation([2], [[[-1]], [[-2]], [[0]]], [-2], [NumberSystem(3)])
    with pytest.raises(DivergenceError, match="does not settle"):
        eval_linrep(alternating, 0)


def test_non_integral_minimal_form_that_settles():
    rep = LinearRepresentation([-1, 2], [[[1, 0], [1, 0]], [[0, 2], [1, 0]]], [-1, 2], [M2])
    assert [eval_linrep(rep, n) for n in range(6)] == [-1, 4, -2, -2, -2, 8]
    for n in range(64):
        assert eval_linrep(rep, n) == plain_eval_linrep(rep, n)
    form = rep._reader[0]
    assert form.rank == minimize_schutzenberger(rep).rank == 2
    assert any(type(x) is Fraction for x in _entries(form))


@pytest.mark.parametrize("value", [-1, 2.5, True])
def test_eval_rejects_values_that_are_not_natural(env, value):
    message = f"^{re.escape(f'value must be an int of at least 0, got {value!r}')}$"
    with pytest.raises(CompileError, match=message):
        eval_linrep(env.representations["ident"], value)
    with pytest.raises(CompileError, match=message):
        eval_linrep(env.representations["full_block"], (1, value))


def test_empty_relation_counts_zero():
    env = Environment()
    aut = compile_formula(env, "i<n & n<i")
    rep = count_representation(aut, ["n"])
    for n in range(10):
        assert eval_linrep(rep, n) == 0
    assert is_zero(rep)


def test_unknown_parameter_rejected():
    env = Environment()
    aut = compile_formula(env, "i<n")
    with pytest.raises(CompileError):
        count_representation(aut, ["zz"])
    with pytest.raises(CompileError, match="repeat"):
        count_representation(aut, ["n", "n"])


def test_parameters_listed_out_of_track_order():
    # tracks sort as a, m, z; the count runs over the middle track m
    aut = compile_formula(Environment(), "?msd_3 m+a<z")
    rep = count_representation(aut, ["z", "a"])
    for z in range(20):
        for a in range(20):
            assert eval_linrep(rep, (z, a)) == sum(1 for m in range(20) if m + a < z)


def test_serialization_shape(env):
    rep = env.representations["ident"]
    lines = rep.to_text().splitlines()
    assert lines[0] == str(rep.rank)
    assert lines[1].split() == [str(s) for s in rep.systems]
    # one block per digit symbol after the two vectors
    blocks = rep.to_text().split("\n\n")
    assert len(blocks) - 1 == len(rep.gammas)


def test_first_half_spot_value(env):
    # one n below x/2 = 2 with alternating sum 0, namely n = 1
    assert eval_linrep(env.representations["first_half"], (0, 4)) == 1


def test_value_count_full_window(env):
    # below the window where every witness k provably fits under 4^8
    # (5n^2 >= 3k+7 at s(k)=n), brute force over k < 4^8 is the whole count
    howmany = env.representations["howmany"]
    sums = {}
    for k in range(4**8):
        v = partial_sum_by_recurrence(k)
        sums[v] = sums.get(v, 0) + 1
    premise = [n for n in range(1, 4096) if (5 * n * n - 7) // 3 < 4**8]
    assert premise[-1] == 198
    for n in premise:
        assert eval_linrep(howmany, n) == sums.get(n, 0)
    # beyond the window the brute-force count is genuinely short: witnesses
    # escape past 4^8, so the two routes must disagree there
    assert sums.get(257, 0) < eval_linrep(howmany, 257) == 257


def test_count_stabilizes_for_bounded_machine():
    env = Environment()
    aut = compile_formula(env, "k<=n")
    rep = count_representation(aut, ["n"])
    for n in range(0, 4096, 13):
        assert eval_linrep(rep, n) == n + 1 == sum(1 for k in range(2**16) if k <= n)
    # with no parameter listed, the count runs over every track
    assert eval_linrep(count_representation(compile_formula(env, "x<3"), []), ()) == 3


def _entries(rep):
    return [*rep.initial, *rep.final, *(x for g in rep.gammas for row in g for x in row)]


def test_raw_and_difference_entries_are_int(env):
    reps = list(env.representations.values())
    reps.append(subtract(env.representations["howmany"], env.representations["ident"]))
    reps.append(count_representation(compile_formula(Environment(), "i<n & n<i"), ["n"]))
    for rep in reps:
        assert all(type(x) is int for x in _entries(rep))
        minimal = minimize_schutzenberger(rep)
        assert not any(isinstance(x, float) for x in _entries(minimal))


@pytest.mark.parametrize("rank", [1, 2, 3, 5, 8])
def test_latest_settling_shift_chain(rank):
    # (Z x)_i = x_{i+1}, so from v = e_0 the padded values v Z^k w are w_k
    # for k < rank and 0 beyond: with w = e_{rank-1} the count moves at
    # padding rank-1 and settles only at rank, as late as rank allows.
    # Digit 1 doubles; with the last coordinate fixed by Z the chain settles
    # one step earlier, at 2^(ones in n).
    identity = [[int(i == j) for j in range(rank)] for i in range(rank)]
    shift = [[int(j == i + 1) for j in range(rank)] for i in range(rank)]
    fixed_end = [row[:] for row in shift]
    fixed_end[-1][-1] = 1
    double = [[2 * x for x in row] for row in identity]
    start = identity[0]
    end = identity[-1]
    nilpotent = LinearRepresentation(start, [shift, double], end, [M2])
    absorbing = LinearRepresentation(start, [fixed_end, double], end, [M2])
    for n in (0, 1, 3, 5, 7, 11, 255):
        assert eval_linrep(nilpotent, n) == 0
        assert eval_linrep(absorbing, n) == 2 ** bin(n).count("1")


def _word_values(rep, longest):
    """v * gammas(word) * w for every word up to longest, by plain products."""
    rows = [list(rep.initial)]
    values = []
    for length in range(longest + 1):
        values += [sum(a * b for a, b in zip(row, rep.final)) for row in rows]
        if length < longest:
            rows = [
                [sum(row[i] * g[i][j] for i in range(rep.rank)) for j in range(rep.rank)]
                for row in rows
                for g in rep.gammas
            ]
    return values


@st.composite
def small_representations(draw):
    rank = draw(st.integers(1, 4))
    entry = st.integers(0, 3)
    vector = st.lists(entry, min_size=rank, max_size=rank)
    matrix = st.lists(vector, min_size=rank, max_size=rank)
    return LinearRepresentation(
        draw(vector), [draw(matrix), draw(matrix)], draw(vector), [M2]
    )


@settings(max_examples=50, deadline=None)
@given(small_representations())
def test_minimization_preserves_every_short_word(rep):
    minimal = minimize_schutzenberger(rep)
    assert minimal.rank <= rep.rank
    assert _word_values(minimal, 6) == _word_values(rep, 6)
    assert is_zero(subtract(rep, rep))


def _outcome(evaluate, rep, values):
    try:
        return evaluate(rep, values)
    except EngineError as exc:
        return type(exc), str(exc)


@st.composite
def integer_representations(draw, kind=None):
    """Integer representations of rank <= 5 over one or two tracks in bases 2, 3.

    Fully random ones mostly never settle and about half of them reduce to a
    non-integral minimal form.  "settling" zero matrices send each coordinate
    to one at or below it, as leading zeros do on an automaton, so the start
    vector stops moving; "doubling" ones give the start vector eigenvalue 2,
    so a count settles only where the word's tail clears that coordinate.
    kind is drawn unless given.
    """
    rank = draw(st.integers(1, 5))
    bases = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2))
    entry = st.integers(-2, 2)
    vector = st.lists(entry, min_size=rank, max_size=rank)
    matrix = st.lists(vector, min_size=rank, max_size=rank)
    gammas = [draw(matrix) for _ in range(math.prod(bases))]
    initial = draw(vector)
    kind = kind or draw(st.sampled_from(["random", "settling", "doubling"]))
    if kind == "settling":
        targets = [draw(st.integers(0, i)) for i in range(rank)]
        gammas[0] = [[int(j == t) for j in range(rank)] for t in targets]
    elif kind == "doubling":
        gammas[0][0] = [2] + [0] * (rank - 1)
        initial = [1] + [0] * (rank - 1)
    systems = [NumberSystem(b) for b in bases]
    return LinearRepresentation(initial, gammas, draw(vector), systems)


@settings(max_examples=200, deadline=None)
@given(integer_representations(), st.data())
def test_cached_evaluator_matches_plain_evaluator(rep, data):
    # values of up to 40 bits span up to five blocks (base 2 reads up to 8
    # digits a step, other alphabets one digit tuple) and the tracks of a
    # point differ in length
    value = st.integers(0, 40).flatmap(lambda bits: st.integers(0, 2**bits))
    point = st.tuples(*[value] * len(rep.systems))
    for values in data.draw(st.lists(point, min_size=1, max_size=8)):
        assert _outcome(eval_linrep, rep, values) == _outcome(plain_eval_linrep, rep, values)


def test_reduction_runs_once_per_representation(monkeypatch, env):
    calls = []

    def counted(rep):
        calls.append(rep.rank)
        return minimize_schutzenberger(rep)

    monkeypatch.setattr(linrep, "minimize_schutzenberger", counted)
    rep = count_representation(compile_formula(Environment(), "k<=n"), ["n"])
    assert [eval_linrep(rep, n) for n in (5, 9, 0)] == [6, 10, 1]
    assert calls == [rep.rank]
    # satz22 at every 16-bit n: at most two 8-bit blocks each, through one reader
    howmany = env.representations["howmany"]
    satz22 = LinearRepresentation(howmany.initial, howmany.gammas, howmany.final, howmany.systems)
    assert all(eval_linrep(satz22, n) == n for n in range(2**16))
    assert calls == [rep.rank, satz22.rank]


def _mat_mul(a, b):
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(len(b[0]))] for row in a]


def _ints(matrices):
    return sum(len(row) for matrix in matrices for row in matrix)


def _cycle(rank):
    """A base-2 form of the given rank: 1 where n has a multiple of rank ones, else 0."""
    identity = [[int(i == j) for j in range(rank)] for i in range(rank)]
    cycle = [identity[(i + 1) % rank] for i in range(rank)]
    return LinearRepresentation(identity[0], [identity, cycle], identity[0], [M2])


def test_one_track_base_2_reads_eight_digit_blocks(env):
    form, _, _, radices, table, tails = env.representations["howmany"]._reader
    # rank 2: 2^8 * 2^2 <= BLOCK_CELLS < 2^9 * 2^2
    assert form.rank == 2 and radices == [256] and len(table) == 256
    assert _ints(table) <= BLOCK_CELLS
    # block u = d1 ... d8 in binary, d1 read first
    g = form.gammas
    for u, block in enumerate(table):
        assert block == reduce(_mat_mul, [g[u >> k & 1] for k in range(7, -1, -1)])
    assert tails == [linrep._mat_vec(block, form.final) for block in table]


def test_other_forms_read_one_digit_tuple_a_step():
    # 17 digit tuples at rank 2: 17^2 * 2^2 > BLOCK_CELLS
    wide = LinearRepresentation(
        [1, 0], [[[1 + d % 3, d % 2], [0, 1]] for d in range(17)], [0, 1], [NumberSystem(17)]
    )
    for n in (0, 16, 17**3 + 5, 17**5 - 1):
        assert eval_linrep(wide, n) == plain_eval_linrep(wide, n)
    form, _, _, radices, table, _ = wide._reader
    assert form.rank == 2 and radices == [17] and table is form.gammas
    # two base-2 tracks: no multi-track blocks
    pair = count_representation(compile_formula(Environment(), "m+a<z"), ["z", "a"])
    for z, a in ((0, 0), (5, 2), (9, 30), (77, 13)):
        assert eval_linrep(pair, (z, a)) == max(z - a, 0)
    form, _, _, radices, table, _ = pair._reader
    assert radices == [2, 2] and table is form.gammas
    # rank 20 in base 2: 2 * 20^2 <= BLOCK_CELLS < 2^2 * 20^2
    cycle = _cycle(20)
    for n in (0, 1, 2**20 - 1, 2**40 - 1, 2**45 + 7):
        assert eval_linrep(cycle, n) == plain_eval_linrep(cycle, n)
    form, _, _, radices, table, _ = cycle._reader
    assert form.rank == 20 and radices == [2] and table is form.gammas
    assert _ints(table) <= BLOCK_CELLS


BLOCK_EDGES = (0, 2**8 - 1, 2**8, 2**16 - 1, 2**16, 2**24 + 1)


def test_padding_at_block_edges_matches_plain_evaluator(env):
    # n = 0 reads one whole zero block; the others end a block or start one
    satz22 = env.representations["howmany"]
    assert satz22._reader[2]
    for n in BLOCK_EDGES:
        assert eval_linrep(satz22, n) == plain_eval_linrep(satz22, n) == n
    # no parameters: the only word is empty, read as one zero tuple
    below = count_representation(compile_formula(Environment(), "x<3"), [])
    assert eval_linrep(below, ()) == plain_eval_linrep(below, ()) == 3


@settings(max_examples=100, deadline=None)
@given(integer_representations(kind="doubling"))
def test_padding_at_block_edges_on_forms_that_do_not_settle(rep):
    # the start vector moves under padding, so the exact settle test decides
    assume(not rep._reader[2])
    for n in BLOCK_EDGES:
        values = (n,) * len(rep.systems)
        assert _outcome(eval_linrep, rep, values) == _outcome(plain_eval_linrep, rep, values)


def test_readers_hold_at_most_block_cells_ints(corpus):
    # a table of products holds at most BLOCK_CELLS ints; a table that is
    # form.gammas holds what the reduction gives
    env, _ = corpus
    reps = list(env.representations.values())
    reps += [subtract(env.representations[l], env.representations[r]) for l, r in COUNT_EQUAL]
    for rep in reps:
        form, _, _, _, table, tails = rep._reader
        assert _ints(table) <= max(BLOCK_CELLS, _ints(form.gammas))
        assert tails == [linrep._mat_vec(block, form.final) for block in table]


def test_minimal_forms_hold_integral_entries_as_ints(corpus):
    # eval_linrep reads gammas and final as minimize_schutzenberger gives them
    def check(rep):
        form = minimize_schutzenberger(rep)
        entries = [*form.final, *(x for g in form.gammas for row in g for x in row)]
        assert all(type(x) is int for x in entries if x == int(x))

    env, _ = corpus
    for rep in env.representations.values():
        check(rep)
    for left, right in COUNT_EQUAL:
        check(subtract(env.representations[left], env.representations[right]))
    settings(max_examples=100, deadline=None)(given(integer_representations())(check))()


def test_evaluation_leaves_text_and_equality_alone(env):
    rep = env.representations["howmany"]
    twin = LinearRepresentation(
        list(rep.initial), list(rep.gammas), list(rep.final), list(rep.systems)
    )
    text = twin.to_text()
    assert twin == rep
    eval_linrep(twin, 77)
    assert "_reader" in vars(twin)
    assert twin.to_text() == text
    assert twin == rep and repr(twin) == repr(rep)


def test_non_integer_count_message_unchanged():
    # the count is 1/2 at every word, so both evaluators reject it
    half = LinearRepresentation([Fraction(1, 2)], [[[1]], [[1]]], [1], [M2])
    outcome = _outcome(eval_linrep, half, 6)
    assert outcome == _outcome(plain_eval_linrep, half, 6)
    assert outcome == (DivergenceError, "non-integer count 1/2 at (6,)")


@st.composite
def reducible_representations(draw):
    """A representation of rank <= 7 over one base 2-4, or its difference with a copy or another.

    Entries are small integers, or in half the cases also small fractions,
    as in the transposed pass of the reduction.  About half of them are 0,
    as in the sparse representations automata give, so that ranks drop.
    """
    base = draw(st.sampled_from([2, 3, 4]))
    entry = st.integers(-2, 2)
    if draw(st.booleans()):
        entry = st.one_of(entry, st.fractions(-2, 2, max_denominator=4))
    entry = st.one_of(st.just(0), entry)

    def representation():
        rank = draw(st.integers(1, 7))
        vector = st.lists(entry, min_size=rank, max_size=rank)
        matrix = st.lists(vector, min_size=rank, max_size=rank)
        gammas = [draw(matrix) for _ in range(base)]
        return LinearRepresentation(draw(vector), gammas, draw(vector), [NumberSystem(base)])

    rep = representation()
    kind = draw(st.sampled_from(["alone", "copy", "other"]))
    if kind == "copy":
        return subtract(rep, copy.deepcopy(rep))
    if kind == "other":
        return subtract(rep, representation())
    return rep


@settings(max_examples=40, deadline=None)
@given(reducible_representations())
def test_integer_reduction_matches_fraction_reduction(rep):
    plain = plain_minimize_schutzenberger(rep)
    assert minimize_schutzenberger(rep).to_text() == plain.to_text()
    assert is_zero(rep) == (plain.rank == 0)
