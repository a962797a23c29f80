"""Guess-and-verify for the running-sum automata."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rslogic.automata import MultiTrackAutomaton, NumberSystem, Track, to_digits
from rslogic.errors import CompileError, EngineError, FunctionalityError, GuessFailedError
from rslogic.numeration import linear_atom
from rslogic.logic import Environment, compile_formula, decide
from rslogic.sequences import (
    alternating_sum_by_recurrence,
    double_zero_alternating_sum_by_recurrence,
    double_zero_partial_sum_by_recurrence,
    double_zero_sign,
    double_zero_sign_dfao4,
    partial_sum_by_recurrence,
    partial_sums,
    pseudo_square,
    rudin_shapiro,
    rudin_shapiro_dfao4,
    running_sums,
)
from rslogic import logic, synchronized
from rslogic.synchronized import (
    GUESSABLE,
    accepting_bit_mutations,
    guess_sync,
    sync_eval,
    sync_table,
    verify_sync,
)
from rslogic.toolkit import _shipped_text

from builders import (
    count_kernel_calls,
    define_derived_sync,
    is_padding_closed,
    plain_sync_table,
    plain_verify_sync,
    value_of_word,
)

M4 = NumberSystem(4)
M2 = NumberSystem(2)


@pytest.fixture(scope="module")
def rss():
    return guess_sync(partial_sum_by_recurrence, 2**14, 64, names=("n", "x"))


@pytest.fixture(scope="module")
def rst():
    return guess_sync(alternating_sum_by_recurrence, 2**14, 64, names=("n", "x"))


def test_guess_reproduces_the_shipped_machines(rss, rst):
    # standard_environment proves the shipped text; guessing must still give it
    assert rss.to_text() == _shipped_text("rss")
    assert rst.to_text() == _shipped_text("rst")


def test_guess_shape(rss, rst):
    assert [t.name for t in rss.tracks] == ["n", "x"]
    assert rss.tracks[0].base == 4 and rss.tracks[1].base == 2
    assert is_padding_closed(rss) and is_padding_closed(rst)
    assert rss.n_states < 16 and rst.n_states < 16


def test_guess_deterministic():
    first = guess_sync(partial_sum_by_recurrence, names=("n", "x"))
    second = guess_sync(partial_sum_by_recurrence, names=("n", "x"))
    assert first.to_text() == second.to_text()


def test_guess_state_cap():
    message = r"^more than 3 candidate states; raise sample_bound or state_cap$"
    with pytest.raises(GuessFailedError, match=message):
        guess_sync(partial_sum_by_recurrence, state_cap=3)


@pytest.mark.parametrize(
    "sample_bound, state_cap, message",
    [
        (2**14, "x", "state_cap must be an int of at least 1, got 'x'"),
        (2.5, 64, "sample_bound must be an int of at least 1, got 2.5"),
        (0, 64, "sample_bound must be an int of at least 1, got 0"),
        (16, 0, "state_cap must be an int of at least 1, got 0"),
    ],
)
def test_guess_rejects_bad_arguments(sample_bound, state_cap, message):
    with pytest.raises(CompileError, match=f"^{re.escape(message)}$"):
        guess_sync(partial_sum_by_recurrence, sample_bound, state_cap)


@pytest.mark.parametrize(
    "oracle, message",
    [
        (lambda n: -n, "oracle(1) must be an int of at least 0, got -1"),
        (lambda n: "a", "oracle(0) must be an int of at least 0, got 'a'"),
        (lambda n: 7 if n == 40 else 2.5, "oracle(0) must be an int of at least 0, got 2.5"),
        (lambda n: n if n < 40 else None, "oracle(40) must be an int of at least 0, got None"),
    ],
)
def test_guess_rejects_oracle_values_that_are_not_natural(oracle, message):
    # the sample is at fault, not the candidate
    with pytest.raises(CompileError, match=f"^{re.escape(message)}$"):
        guess_sync(oracle, 64)


@pytest.mark.parametrize(
    "names", [("n",), ("n", "y", "z"), ("", "y"), ("n", "n"), ("n", "a b"), ("n", 1), "ny", None]
)
def test_guess_rejects_names_that_are_not_two_distinct_variables(names):
    message = f"names must be two distinct variable names, got {names!r}"
    with pytest.raises(CompileError, match=f"^{re.escape(message)}$"):
        guess_sync(partial_sum_by_recurrence, 64, names=names)


def test_guess_asks_the_oracle_once_per_input():
    asked = []

    def oracle(n):
        asked.append(n)
        return partial_sum_by_recurrence(n)

    guess_sync(oracle, 2**12)
    assert asked == list(range(2**12))


def test_sync_eval_matches_oracle(rss, rst):
    for n in range(2048):
        assert sync_eval(rss, n) == partial_sum_by_recurrence(n)
        assert sync_eval(rst, n) == alternating_sum_by_recurrence(n)
    for n in (10**6, 10**9, 4**20 + 17):
        assert sync_eval(rss, n) == partial_sum_by_recurrence(n)


def test_sync_table_matches_oracle(rss, rst):
    table = sync_table(rss, 1 << 14)
    assert table == [partial_sum_by_recurrence(n) for n in range(1 << 14)]
    table = sync_table(rst, 1 << 14)
    assert table == [alternating_sum_by_recurrence(n) for n in range(1 << 14)]


def _two_track(b_in, b_out, input_first, n_states, initial, accepting, move):
    """Input track n and output track y (or a, which sorts before n).

    move(q, d_in, d_out) gives the successor of state q.
    """
    out_name = "y" if input_first else "a"
    tracks = sorted(
        [Track("n", NumberSystem(b_in)), Track(out_name, NumberSystem(b_out))],
        key=lambda t: t.name,
    )
    matrix = []
    for q in range(n_states):
        row = []
        for first in range(tracks[0].base):
            for second in range(tracks[1].base):
                d_in, d_out = (first, second) if input_first else (second, first)
                row.append(move(q, d_in, d_out))
        matrix.append(row)
    outputs = [int(q in accepting) for q in range(n_states)]
    return MultiTrackAutomaton(tracks, n_states, initial, outputs, matrix)


@st.composite
def two_track_dfas(draw):
    """Complete two-track DFAs: input base 2-4, output base 2-3.

    A quarter are unconstrained, with at most 8 states, and mostly end in
    FunctionalityError.  The rest compute y from n, so that tables exist
    and blocks are reused:

    - constant: y is one number c whatever n is, up to 12 digits, so the
      output may be much longer than the input.

    - lookahead: a Mealy machine on states 0..k-1 emits out(q, d) for input
      digit d, and y's digit at each position is what it emits at the next
      one, so the automaton guesses it and checks it one step later.  Some
      (state, digit) pairs are cut off, so inputs go missing too.
    - two branches: one input DFA with two output functions; y follows
      branch 1 where the DFA ends in S and branch 2 elsewhere.  Once the
      branches have emitted different digits, both stay in the frontier
      with a gap in y that the states do not record, which is what the
      offsets in the memo key are for.
    """
    b_in = draw(st.integers(2, 4))
    b_out = draw(st.integers(2, 3))
    input_first = draw(st.booleans())
    family = draw(st.sampled_from(["free", "constant", "lookahead", "branches"]))
    if family == "free":
        n = draw(st.integers(1, 7))
        size = n * b_in * b_out
        targets = draw(st.lists(st.integers(0, n), min_size=size, max_size=size))
        accepting = draw(st.sets(st.integers(0, n)))

        def move(q, d_in, d_out):
            return n if q == n else targets[(q * b_in + d_in) * b_out + d_out]

        initial = draw(st.integers(0, n))
        return _two_track(b_in, b_out, input_first, n + 1, initial, accepting, move)
    if family == "constant":
        length = draw(st.integers(0, 12))
        c = draw(st.integers(b_out**length // b_out, b_out**length - 1))
        digits = to_digits(c, b_out)
        sink = len(digits) + 1

        def move(q, d_in, d_out):
            # q digits of c read so far; leading zeros keep q at 0
            if q < len(digits) and d_out == digits[q]:
                return q + 1
            return 0 if q == 0 and d_out == 0 else sink

        return _two_track(b_in, b_out, input_first, sink + 1, 0, {len(digits)}, move)
    digit_out = st.integers(0, b_out - 1)
    if family == "lookahead":
        k = draw(st.integers(1, 7 // b_out))
        mealy = draw(
            st.lists(
                st.tuples(st.integers(0, k - 1), digit_out, st.booleans()),
                min_size=k * b_in,
                max_size=k * b_in,
            )
        )
        mealy[0] = (0, 0, True)  # leading zeros leave the start state (0, 0) alone
        final = draw(st.lists(digit_out, min_size=k, max_size=k))
        sink = k * b_out

        def move(q, d_in, d_out):
            if q == sink:
                return sink
            state, owed = divmod(q, b_out)
            nxt, emitted, kept = mealy[state * b_in + d_in]
            return nxt * b_out + d_out if kept and emitted == owed else sink

        accepting = {q * b_out + final[q] for q in range(k)}
        return _two_track(b_in, b_out, input_first, sink + 1, 0, accepting, move)
    # states: 3*q for both branches alive, 3*q+1 branch 1 only, 3*q+2 branch 2 only
    k = draw(st.integers(1, 2))
    step = st.tuples(st.integers(0, k - 1), digit_out, digit_out)
    steps = draw(st.lists(step, min_size=k * b_in, max_size=k * b_in))
    steps[0] = (0, 0, 0)  # leading zeros leave the start state alone
    chosen = draw(st.sets(st.integers(0, k - 1)))
    sink = 3 * k

    def move(q, d_in, d_out):
        if q == sink:
            return sink
        state, alive = divmod(q, 3)
        nxt, out1, out2 = steps[state * b_in + d_in]
        keep1 = alive != 2 and d_out == out1
        keep2 = alive != 1 and d_out == out2
        if not (keep1 or keep2):
            return sink
        return 3 * nxt + (0 if keep1 and keep2 else 1 if keep1 else 2)

    accepting = {3 * q for q in range(k)}
    accepting |= {3 * q + (1 if q in chosen else 2) for q in range(k)}
    return _two_track(b_in, b_out, input_first, sink + 1, 0, accepting, move)


def _table_or_error(table, automaton, count):
    try:
        return table(automaton, count, input_track="n")
    except FunctionalityError as exc:
        return ("FunctionalityError", str(exc))


def _evens():
    """y = n for even n; an odd input's walk ends live, on state 1, but
    accepts nothing there."""

    def move(q, d_in, d_out):
        return 2 if q == 2 or d_in != d_out else d_in

    return _two_track(2, 2, True, 3, 0, {0}, move)


@settings(max_examples=300, deadline=None)
@given(two_track_dfas(), st.integers(0, 300))
@example(_evens(), 300)
def test_sync_table_equals_plain_walk(automaton, count):
    assert _table_or_error(sync_table, automaton, count) == _table_or_error(
        plain_sync_table, automaton, count
    )


def _no_three_ones():
    """y = n in base 2 for inputs without three 1s in a row; others die.

    Input 7 is the first hole, and blocks are reused both before it, at
    inputs 4 and 5, and after it, from sources that hold holes.
    """

    def move(q, d_in, d_out):
        # q < 3 counts the trailing 1s read, 3 is dead
        if q == 3 or d_in != d_out or (d_in and q == 2):
            return 3
        return q + 1 if d_in else 0

    return _two_track(2, 2, True, 4, 0, {0, 1, 2}, move)


@settings(max_examples=60, deadline=None)
@given(two_track_dfas(), st.integers(301, 4096))
@example(_no_three_ones(), 4096)
def test_sync_table_equals_plain_walk_on_deep_blocks(automaton, count):
    # blocks of up to 12 digits below the root, reused several levels deep
    assert _table_or_error(sync_table, automaton, count) == _table_or_error(
        plain_sync_table, automaton, count
    )


def test_sync_table_names_an_ambiguous_input():
    # y is 0 or 1 whatever n is: state 0 has read only 0s of y, state 1
    # has read a final 1, state 2 is dead
    def move(q, d_in, d_out):
        return d_out if q == 0 else 2

    both = _two_track(2, 2, True, 3, 0, {0, 1}, move)
    # both readers end an input through one rule, so they name it alike
    with pytest.raises(FunctionalityError, match=r"^\[0, 1\] accepted for input 0$"):
        sync_table(both, 300, input_track="n")
    with pytest.raises(FunctionalityError, match=r"^\[0, 1\] accepted for input 0$"):
        sync_eval(both, 0, input_track="n")


def test_an_input_that_ends_on_no_accepting_state_has_no_output():
    # both readers call it a missing output
    evens = _evens()
    assert is_padding_closed(evens)
    assert sync_table(evens, 1, input_track="n") == [0]
    message = r"^no accepted output for inputs \[1, 3, 5, 7\]$"
    with pytest.raises(FunctionalityError, match=message):
        sync_table(evens, 8, input_track="n")
    with pytest.raises(FunctionalityError, match=r"^no accepted output for input 1$"):
        sync_eval(evens, 1, input_track="n")


def test_sync_table_names_the_first_missing_inputs():
    # y = n where n has no two adjacent binary 1s; other inputs die
    def move(q, d_in, d_out):
        if q == 2 or d_in != d_out or (q == 1 and d_in == 1):
            return 2
        return d_in

    fibbinary = _two_track(2, 2, True, 3, 0, {0, 1}, move)
    message = r"^no accepted output for inputs \[3, 6, 7, 11, 12\]$"
    with pytest.raises(FunctionalityError, match=message):
        sync_table(fibbinary, 300, input_track="n")
    none = linear_atom({"n": 1, "y": 1}, "<", 0, M2)  # empty
    with pytest.raises(FunctionalityError, match=r"inputs \[0, 1, 2, 3, 4\]$"):
        sync_table(none, 300, input_track="n")


def test_guess_with_input_track_sorted_last():
    # "a" sorts before "n", so the input track "n" ends up second
    machine = guess_sync(partial_sum_by_recurrence, names=("n", "a"))
    assert [t.name for t in machine.tracks] == ["a", "n"]
    assert verify_sync(machine, rudin_shapiro_dfao4(), "sum", 1, input_track="n")
    assert sync_table(machine, 2**14, input_track="n") == partial_sums(2**14)
    alternating = guess_sync(alternating_sum_by_recurrence, names=("n", "a"))
    assert verify_sync(alternating, rudin_shapiro_dfao4(), "alt", 1, input_track="n")


@settings(max_examples=150, deadline=None)
@given(two_track_dfas().filter(is_padding_closed), st.integers(0, 300))
def test_sync_eval_agrees_with_sync_table(automaton, count):
    # both read every input from one start frontier, so wherever the table
    # exists, reading one input alone finds the same value
    try:
        table = sync_table(automaton, count, input_track="n")
    except FunctionalityError:
        return
    assert [sync_eval(automaton, n, input_track="n") for n in range(count)] == table


@pytest.mark.parametrize("y", [1024, 2**20])
def test_outputs_longer_than_any_fixed_padding(y):
    # y has far more binary digits than n; decide proves the relation a
    # total function, and both readers must find y behind enough zeros
    env = Environment()
    env.register_relation("f", compile_formula(env, f"?msd_2 y={y} & n>=0"))
    assert decide(env, "?msd_2 An Ey $f(n,y)")
    assert decide(env, "?msd_2 An,x,y ($f(n,x) & $f(n,y)) => x=y")
    machine = env.relation("f").automaton
    assert sync_eval(machine, 0, input_track="p00") == y
    assert sync_eval(machine, 5, input_track="p00") == y
    assert sync_table(machine, 4, input_track="p00") == [y] * 4


def test_reading_the_output_track_as_the_input_is_no_function(rss):
    # (x, n) is no function: s(n) = 3 at n = 2, 4 and 6
    with pytest.raises(FunctionalityError, match=r"^\[2, 4, 6\] accepted for input 3$"):
        sync_eval(rss, 3, input_track="x")
    with pytest.raises(FunctionalityError):
        sync_table(rss, 64, input_track="x")


def test_track_names_are_checked(rss):
    with pytest.raises(EngineError, match="'q'"):
        sync_eval(rss, 5, input_track="q")
    # also where the table is empty
    with pytest.raises(EngineError, match="'q'"):
        sync_table(rss, 0, input_track="q")


@pytest.mark.parametrize("value", [-1, 2.5, True])
def test_sync_eval_rejects_inputs_that_are_not_natural(rss, value):
    message = f"n must be an int of at least 0, got {value!r}"
    with pytest.raises(CompileError, match=f"^{re.escape(message)}$"):
        sync_eval(rss, value)


def test_sync_table_rejects_a_count_that_is_not_an_int(rss):
    for count in (2.5, -1, True):
        message = f"count must be an int of at least 0, got {count!r}"
        with pytest.raises(CompileError, match=f"^{re.escape(message)}$"):
            sync_table(rss, count)


def test_sync_eval_rejects_relations_that_are_not_functions():
    # y >= n: the leading zeros of n already allow more outputs than there
    # are states, so some state carries two of them
    many = linear_atom({"n": 1, "y": -1}, "<=", 0, M2)
    message = "^one input reaches one state with two outputs$"
    # each call walks to the start frontier afresh, so each raises again
    for _ in range(2):
        with pytest.raises(FunctionalityError, match=message):
            sync_eval(many, 5, input_track="n")
        with pytest.raises(FunctionalityError, match=message):
            sync_table(many, 300, input_track="n")
    none = linear_atom({"n": 1, "y": 1}, "<", 0, M2)  # empty
    with pytest.raises(FunctionalityError):
        sync_eval(none, 5, input_track="n")


def test_verify_plain_sum(rss):
    outcome = verify_sync(rss, rudin_shapiro_dfao4(), "sum", 1)
    assert outcome.ok
    assert [c.name for c in outcome.checks] == [
        "total",
        "function",
        "base",
        "step_up",
        "step_down",
    ]


def test_verify_alternating_sum(rst):
    assert verify_sync(rst, rudin_shapiro_dfao4(), "alt", 1).ok


def test_verify_double_zero_family():
    cand = guess_sync(double_zero_partial_sum_by_recurrence, names=("n", "x"))
    assert verify_sync(cand, double_zero_sign_dfao4(), "sum", 1).ok
    assert cand.n_states < 24

    complement_alt = lambda n: 1 - double_zero_alternating_sum_by_recurrence(n)
    cand = guess_sync(complement_alt, names=("n", "x"))
    assert verify_sync(cand, double_zero_sign_dfao4(), "neg_alt", 0).ok


@pytest.mark.parametrize("base_value", [-1, 1.5, "1", True])
def test_verify_rejects_a_base_value_that_is_not_a_natural_number(rss, base_value):
    message = rf"^base_value must be an int of at least 0, got {re.escape(repr(base_value))}$"
    with pytest.raises(CompileError, match=message):
        verify_sync(rss, rudin_shapiro_dfao4(), "sum", base_value)


def test_verify_wrong_rule_fails(rss, rst):
    assert not verify_sync(rss, rudin_shapiro_dfao4(), "alt", 1).ok
    assert not verify_sync(rss, rudin_shapiro_dfao4(), "sum", 0).ok
    assert not verify_sync(rst, rudin_shapiro_dfao4(), "neg_alt", 1).ok
    with pytest.raises(CompileError, match=r"^rule must be one of \('sum', 'alt', 'neg_alt'\)$"):
        verify_sync(rss, rudin_shapiro_dfao4(), "bogus", 1)


@pytest.mark.parametrize("output", [0, 2])
def test_verify_refuses_a_sign_that_is_not_plus_or_minus_one(rss, output):
    # with no +1 or -1 step neither step sentence fires, so nothing past n = 0
    # would be checked and any candidate with the right base value would pass
    constant = MultiTrackAutomaton((Track("n", M4),), 1, 0, [output], [[0] * 4])
    with pytest.raises(CompileError, match=f"outputs {output}, not"):
        verify_sync(rss, constant, "sum", 1)


@pytest.mark.parametrize("rule", ["sum", "alt", "neg_alt"])
@pytest.mark.parametrize(
    "dfao, sign",
    [(rudin_shapiro_dfao4, rudin_shapiro), (double_zero_sign_dfao4, double_zero_sign)],
)
def test_signed_step_is_the_running_sum_difference(dfao, sign, rule):
    limit = 4**6
    sums = list(running_sums(sign, limit, alternating=rule != "sum"))
    steps = [b - a for a, b in zip([0] + sums, sums)]
    if rule == "neg_alt":
        steps = [-d for d in steps]
    step = synchronized._signed_step(dfao(), rule)
    assert step.bases == (4,)
    assert [value_of_word(step, to_digits(m, 4)) for m in range(limit)] == steps


def test_verify_reads_parity_in_an_odd_base():
    # the alternating sum of the constant +1 sequence is 1 at even n and 0
    # at odd n; in base 3 parity is the parity of the digit sum
    ones = MultiTrackAutomaton((Track("n", NumberSystem(3)),), 1, 0, [1], [[0] * 3])
    cand = compile_formula(Environment(), "?msd_3 (Ek n=2*k & y=1) | (Ek n=2*k+1 & y=0)")
    assert verify_sync(cand, ones, "alt", 1).ok
    assert not verify_sync(cand, ones, "sum", 1).ok
    assert not verify_sync(cand, ones, "neg_alt", 1).ok


def test_every_accepting_mutation_is_caught(rss, rst):
    dfao = rudin_shapiro_dfao4()
    for automaton, rule in ((rss, "sum"), (rst, "alt")):
        for q, mutant in accepting_bit_mutations(automaton):
            outcome = verify_sync(mutant, dfao, rule, 1)
            assert not outcome.ok, f"state {q} mutation went unnoticed"
            failures = outcome.failures()
            assert failures
            assert all(f.witness is not None for f in failures)


def test_mutation_witnesses_are_concrete(rss):
    dfao = rudin_shapiro_dfao4()
    _, mutant = next(iter(accepting_bit_mutations(rss)))
    outcome = verify_sync(mutant, dfao, "sum", 1)
    witness = outcome.failures()[0].witness
    assert isinstance(witness, dict) and "n" in witness


def _checks(outcome):
    return [(c.name, c.passed, c.witness) for c in outcome.checks]


def test_verify_equals_the_five_sentences_on_every_mutant(rss, rst):
    dfao = rudin_shapiro_dfao4()
    for automaton, rule in ((rss, "sum"), (rst, "alt")):
        for q, mutant in accepting_bit_mutations(automaton):
            expected = _checks(plain_verify_sync(mutant, dfao, rule, 1))
            assert _checks(verify_sync(mutant, dfao, rule, 1)) == expected, (rule, q)


@pytest.mark.parametrize("names, input_track", [(("n", "x"), None), (("x", "n"), "x")])
@pytest.mark.parametrize("key", sorted(GUESSABLE))
def test_verify_equals_the_five_sentences_on_the_guessed_candidates(key, names, input_track):
    # with the input track named x it sorts last, and the output is read first
    oracle, dfao, rule, base = GUESSABLE[key]
    cand = guess_sync(oracle, names=names)
    for value in (base, base + 1):
        expected = _checks(plain_verify_sync(cand, dfao(), rule, value, input_track))
        assert _checks(verify_sync(cand, dfao(), rule, value, input_track)) == expected, value


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["=", "<=", ">="]),
    st.integers(1, 3),
    st.integers(0, 20),
    st.sampled_from([2, 4]),
    st.sampled_from(["m", "y"]),
    st.integers(0, 20),
)
@example("=", 1, 5, 2, "m", 5)
@example("=", 2, 7, 4, "y", 7)
@example("<=", 3, 0, 2, "y", 0)
def test_base_case_by_membership_decides_the_base_sentence(rel, a, c, base, out, b):
    # the candidate relates the input n to out, which sorts before n ("m")
    # or after it ("y"); registration has checked that it is padding-closed
    system = NumberSystem(base)
    cand = compile_formula(Environment(), f"?{system} {out} {rel} {a}*n + {c}")
    env = Environment()
    env.register_relation("cand", cand, ["n", out])
    ones = MultiTrackAutomaton((Track("n", system),), 1, 0, [1], [[0] * base])
    check = verify_sync(cand, ones, "sum", b, input_track="n").checks[2]
    assert check.name == "base"
    assert check.passed == decide(env, f"$cand(0, {b})")
    assert check.witness == (None if check.passed else {"n": 0})


def test_verify_builds_the_candidate_at_n_plus_1_once_and_compiles_no_base_case(rss, monkeypatch):
    # plain_verify_sync's five sentences took 7 linear_atom, 15 product,
    # 24 minimize, 8 project and 5 find_counterexample calls while each
    # annotation of n+1 built its own equation
    counts = count_kernel_calls(monkeypatch, ("product", "minimize", "project"))
    counts.update(linear_atom=0, find_counterexample=0)
    for module, name in ((logic, "linear_atom"), (synchronized, "find_counterexample")):

        def counted(*args, _name=name, _original=getattr(module, name)):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    assert verify_sync(rss, rudin_shapiro_dfao4(), "sum", 1).ok
    assert counts == {"linear_atom": 4, "product": 12, "minimize": 19, "project": 6, "find_counterexample": 4}


def test_sync_eval_spot_values(rss, rst):
    assert sync_eval(rss, 12) == 5
    assert sync_eval(rst, 11) == 2
    assert sync_eval(rss, 0) == 1


def test_named_verifiers(rss, rst):
    assert verify_sync(rss, rudin_shapiro_dfao4(), "sum", 1)
    assert verify_sync(rst, rudin_shapiro_dfao4(), "alt", 1)
    assert not verify_sync(rss, rudin_shapiro_dfao4(), "alt", 1)
    _, mutant = next(iter(accepting_bit_mutations(rss)))
    outcome = verify_sync(mutant, rudin_shapiro_dfao4(), "sum", 1)
    assert not outcome
    assert outcome.failures()[0].witness is not None


def test_guess_rejects_identity():
    # closes into a small machine on the sample, but the sample sweep
    # catches the disagreement with the oracle
    message = (
        "candidate disagrees with the sample: "
        "no accepted output for inputs [512, 513, 514, 515, 516]"
    )
    with pytest.raises(GuessFailedError, match=f"^{re.escape(message)}$"):
        guess_sync(lambda n: n)


@pytest.mark.parametrize(
    "oracle, reason",
    [
        (lambda n: n // 6, "one input reaches one state with two outputs"),
        (
            lambda n: min(n, 100),
            "no accepted output for inputs [12288, 12289, 12290, 12291, 12292]",
        ),
    ],
)
def test_guess_names_why_the_candidate_fails_its_sample(oracle, reason):
    # one oracle for each way sync_table can refuse the candidate
    message = f"candidate disagrees with the sample: {reason}"
    with pytest.raises(GuessFailedError, match=f"^{re.escape(message)}$"):
        guess_sync(oracle)


def test_guess_names_the_odd_inputs_that_end_with_no_output():
    # the candidate for y = (n % 2) * n walks each odd input to a state
    # that accepts nothing, so sync_table lists them as missing outputs
    message = (
        "candidate disagrees with the sample: "
        "no accepted output for inputs [513, 515, 517, 519, 521]"
    )
    with pytest.raises(GuessFailedError, match=f"^{re.escape(message)}$"):
        guess_sync(lambda n: (n % 2) * n)


def test_underfit_sample_fails_verification():
    candidate = guess_sync(partial_sum_by_recurrence, 16)
    assert not verify_sync(candidate, rudin_shapiro_dfao4(), "sum", 1)


def _sum_environment(rss, rst):
    env = Environment()
    env.register_dfao("RS4", rudin_shapiro_dfao4())
    env.register_relation("rss", rss, ["n", "x"])
    env.register_relation("rst", rst, ["n", "x"])
    return env


LAST_TIME = '?msd_4 $rss(n,k) & At (t>n) => ~$rss(t,k)'
FIRST_TIME_ALT = '?msd_4 $rst(n,k) & At (t<n) => ~$rst(t,k)'


def test_derived_sync_last_occurrence(rss, rst):
    env = _sum_environment(rss, rst)
    relation = define_derived_sync(env, "last_time", LAST_TIME)
    assert [t.name for t in relation.automaton.tracks] == ["p00", "p01"]
    machine = relation.automaton
    assert sync_eval(machine, 1, input_track="p00") == 0
    assert sync_eval(machine, 2, input_track="p00") == 3
    assert sync_eval(machine, 3, input_track="p00") == 6
    # the value 0 is never reached, so the relation is partial there
    with pytest.raises(FunctionalityError):
        sync_eval(machine, 0, input_track="p00")


def test_derived_sync_rejects_non_function(rss, rst):
    env = _sum_environment(rss, rst)
    with pytest.raises(FunctionalityError):
        define_derived_sync(env, "anytime", "?msd_4 $rss(n,k)")
    assert "anytime" not in env.relations
    with pytest.raises(FunctionalityError):
        define_derived_sync(env, "broad", "?msd_4 Ek $rss(n,k) & $rss(m,k)")


def test_last_occurrence_recurrences(rss, rst):
    env = _sum_environment(rss, rst)
    machine = define_derived_sync(env, "last_time", LAST_TIME).automaton
    omega = lambda k: sync_eval(machine, k, input_track="p00")
    for n in range(1, 2**10):
        assert omega(2 * n) == 4 * omega(n) + 3
    for n in range(2, 2**10):
        if (n + 1) & n:  # n+1 is not a power of two
            assert omega(2 * n + 1) == 4 * omega(n + 1) + 2


def test_last_occurrence_bound_and_tightness(rss, rst):
    env = _sum_environment(rss, rst)
    machine = define_derived_sync(env, "last_time", LAST_TIME).automaton
    sums = partial_sums(2**16)
    cache = {}
    equality = []
    for n in range(2, 2**16):
        k = sums[n]
        if k not in cache:
            cache[k] = sync_eval(machine, k, input_track="p00")
        assert 3 * cache[k] <= 10 * n - 2
        if 3 * cache[k] == 10 * n - 2:
            equality.append(n)
    assert equality == [2**i for i in range(1, 16, 2)]


def test_first_alternating_is_pseudo_square_less_one(rss, rst):
    env = _sum_environment(rss, rst)
    machine = define_derived_sync(env, "first_alt", FIRST_TIME_ALT).automaton
    for k in range(1, 2**10):
        assert sync_eval(machine, k, input_track="p00") == pseudo_square(k) - 1


def test_derived_sync_first_occurrence(rss, rst):
    env = _sum_environment(rss, rst)
    machine = define_derived_sync(
        env, "first_time", "?msd_4 $rss(n,k) & At (t<n) => ~$rss(t,k)"
    ).automaton
    assert sync_eval(machine, 4, input_track="p00") == 5
