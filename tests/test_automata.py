import itertools
import math
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rslogic.automata import (
    MultiTrackAutomaton,
    NumberSystem,
    Track,
    OP_AND,
    OP_IFF,
    OP_IMPLIES,
    OP_OR,
    OP_XOR,
    complement,
    coreachable,
    decode_word,
    determinize,
    find_witness,
    from_digits,
    from_regex,
    is_empty,
    language_equal,
    minimize,
    product,
    project,
    reachable,
    reverse,
    to_digits,
)
from rslogic import automata
from rslogic.errors import AutomatonError, BaseMismatchError, CompileError, RegexError

from builders import (
    accepts_values,
    encode_values,
    is_padding_closed,
    plain_minimize,
    plain_product,
    plain_product_pairs,
    plain_project,
    plain_reverse,
    step,
    value_of_word,
)


def t2(name):
    return Track(name, NumberSystem(2))


def equality_automaton():
    # x == y over two binary tracks: state 0 all digits agree, state 1 sink
    tracks = (t2("x"), t2("y"))
    matrix = [
        [0, 1, 1, 0],  # (0,0) (0,1) (1,0) (1,1)
        [1, 1, 1, 1],
    ]
    return MultiTrackAutomaton(tracks, 2, 0, [1, 0], matrix)


def less_than_automaton():
    # x < y, msd first: 0 undecided, 1 x<y, 2 x>y
    tracks = (t2("x"), t2("y"))
    matrix = [
        [0, 1, 2, 0],
        [1, 1, 1, 1],
        [2, 2, 2, 2],
    ]
    return MultiTrackAutomaton(tracks, 3, 0, [0, 1, 0], matrix)


def languages_agree(a, box):
    """Compare value semantics over a rectangular box of value tuples."""
    aut, oracle = a
    for values in itertools.product(*(range(hi) for hi in box)):
        assert accepts_values(aut, list(values)) == oracle(*values), values


def test_digit_roundtrip():
    for base in (2, 3, 4, 10):
        for n in range(300):
            ds = to_digits(n, base)
            assert from_digits(ds, base) == n
            assert not ds or ds[0] != 0
    assert to_digits(0, 2) == []


@pytest.mark.parametrize("n", [-1, 2.5, True])
def test_to_digits_rejects_values_that_are_not_natural(n):
    # True is no 1: a bool is refused like every other non-int
    message = f"n must be an int of at least 0, got {n!r}"
    with pytest.raises(CompileError, match=f"^{re.escape(message)}$"):
        to_digits(n, 2)


def test_encode_decode_roundtrip():
    tracks = (t2("x"), Track("y", NumberSystem(4)))
    rng = random.Random(7)
    for _ in range(200):
        vals = (rng.randrange(1000), rng.randrange(1000))
        word = encode_values(tracks, vals)
        assert decode_word(tracks, word) == vals
        padded = encode_values(tracks, vals, length=len(word) + 3)
        assert decode_word(tracks, padded) == vals


def test_encode_rejects_short_length():
    with pytest.raises(ValueError):
        encode_values((t2("x"),), (9,), length=2)


def test_decode_rejects_bad_digit_tuples():
    x = t2("x")
    for word, message in (
        ([(5,)], "digit 5 out of range for base 2"),
        ([()], "digit tuple () does not have 1 digits"),
        ([(0, 1)], "digit tuple (0, 1) does not have 1 digits"),
    ):
        with pytest.raises(AutomatonError, match=re.escape(message)):
            decode_word((x,), word)
    with pytest.raises(AutomatonError, match="digit 5 out of range for base 2"):
        from_digits([5], 2)


def test_equality_automaton_semantics():
    languages_agree((equality_automaton(), lambda x, y: x == y), (40, 40))


def test_less_than_semantics():
    languages_agree((less_than_automaton(), lambda x, y: x < y), (40, 40))


def test_padding_invariance():
    for aut in (equality_automaton(), less_than_automaton()):
        assert is_padding_closed(aut)
        for x in range(20):
            for y in range(20):
                base = accepts_values(aut, (x, y))
                assert accepts_values(aut, (x, y), extra_padding=2) == base


def test_product_boolean_ops():
    eq = equality_automaton()
    lt = less_than_automaton()
    le = product(eq, lt, OP_OR)
    languages_agree((le, lambda x, y: x <= y), (30, 30))
    both = product(eq, lt, OP_AND)
    assert is_empty(minimize(both))
    neither = product(eq, lt, OP_XOR)
    languages_agree((neither, lambda x, y: x == y or x < y), (25, 25))


def test_product_matches_tracks_by_name():
    eq = equality_automaton()
    lt_yz = less_than_automaton().renamed({"x": "y", "y": "z"})
    chain = product(eq, lt_yz, OP_AND)
    assert tuple(t.name for t in chain.tracks) == ("x", "y", "z")
    languages_agree((chain, lambda x, y, z: x == y and y < z), (12, 12, 12))


def test_product_outputs_are_ints_for_every_connective():
    # a bool output would be written "True", which no reader takes back
    eq, lt = equality_automaton(), less_than_automaton()
    for op in (OP_AND, OP_OR, OP_XOR, OP_IMPLIES, OP_IFF):
        both = product(eq, lt, op)
        assert all(type(out) is int for out in both.outputs)
        back = MultiTrackAutomaton.from_text(both.to_text(), names=["x", "y"])
        assert back.to_text() == both.to_text()


def test_product_base_mismatch_rejected():
    eq = equality_automaton()
    other = MultiTrackAutomaton(
        (Track("x", NumberSystem(4)),), 1, 0, [1], [[0, 0, 0, 0]]
    )
    with pytest.raises(BaseMismatchError):
        product(eq, other, OP_AND)


def test_complement_semantics():
    ne = complement(equality_automaton())
    languages_agree((ne, lambda x, y: x != y), (30, 30))


def test_renamed_diagonal_merge():
    # identifying both tracks of x<y yields the empty language
    merged = less_than_automaton().renamed({"y": "x"})
    assert len(merged.tracks) == 1
    assert is_empty(minimize(merged))
    refl = equality_automaton().renamed({"y": "x"})
    languages_agree((refl, lambda x: True), (50,))


def test_projection_exists_greater():
    # E y: x < y holds for every x; witnesses may need an extra digit
    lt = less_than_automaton()
    some_bigger = project(lt, "y")
    assert [t.name for t in some_bigger.tracks] == ["x"]
    languages_agree((some_bigger, lambda x: True), (70,))
    assert is_padding_closed(some_bigger)


def test_projection_exists_smaller():
    # E x: x < y holds exactly for y >= 1
    lt = less_than_automaton()
    nonzero = project(lt, "x")
    assert [t.name for t in nonzero.tracks] == ["y"]
    languages_agree((nonzero, lambda y: y >= 1), (70,))
    assert is_padding_closed(nonzero)


def test_projection_to_zero_tracks():
    eq = equality_automaton()
    stage = project(eq, "x")
    closed = project(stage, "y")
    assert closed.tracks == ()
    # sentence "exists x exists y: x == y" is true
    assert accepts_values(closed, ())
    none = project(project(product(equality_automaton(), less_than_automaton(), OP_AND), "x"), "y")
    assert not accepts_values(none, ())


def test_projecting_no_track_keeps_a_padding_closed_automaton():
    for a in (
        MultiTrackAutomaton((), 1, 0, [1], [[0]]),
        MultiTrackAutomaton((), 1, 0, [0], [[0]]),
        less_than_automaton(),
        from_regex(["msd_2", "msd_3"], "[0,0]*[1,2]([0,1]|[1,0])*"),
    ):
        assert is_padding_closed(a)
        assert minimize(project(a, [])).to_text() == minimize(a).to_text()


def test_projecting_no_track_closes_under_padding():
    # the word 0 1 is accepted, the word 1 is not; the closure accepts both
    a = MultiTrackAutomaton((t2("x"),), 3, 0, [0, 0, 1], [[1, 0], [0, 2], [0, 0]])
    closed = project(a, [])
    assert is_padding_closed(closed)
    assert closed.accepts([(1,)]) and closed.accepts([(0,), (1,)])


def test_minimize_is_canonical():
    a = from_regex(["msd_2"], "0*10*")
    b = minimize(complement(complement(a)))
    c = minimize(product(a, a, OP_AND))
    assert a.to_text() == b.to_text()
    assert a.to_text() == c.to_text()
    assert minimize(a).to_text() == a.to_text()


def test_minimize_drops_unreachable_and_merges():
    tracks = (t2("x"),)
    # states 2 and 3 unreachable; 0 and 1 distinguishable
    matrix = [[0, 1], [1, 0], [3, 3], [2, 2]]
    a = MultiTrackAutomaton(tracks, 4, 0, [0, 1, 0, 0], matrix)
    m = minimize(a)
    assert m.n_states == 2
    languages_agree((m, lambda x: bin(x).count("1") % 2 == 1), (64,))


def test_language_equal_and_witness():
    eq = equality_automaton()
    le = product(eq, less_than_automaton(), OP_OR)
    assert not language_equal(eq, le)
    diff = product(le, complement(eq), OP_AND)
    w = find_witness(minimize(diff))
    x, y = decode_word(eq.tracks, w)
    assert x < y
    assert language_equal(le, product(less_than_automaton(), eq, OP_OR))


def test_find_witness_empty_language():
    eq = equality_automaton()
    none = product(eq, complement(eq), OP_AND)
    assert find_witness(minimize(none)) is None
    # trivially true automaton has the empty witness
    assert find_witness(minimize(complement(none))) == []


def test_regex_powers_of_two():
    p2 = from_regex(["msd_2"], "0*10*")
    languages_agree((p2, lambda n: n > 0 and n & (n - 1) == 0), (600,))
    assert is_padding_closed(p2)


def test_regex_double_powers_of_four():
    odd = from_regex(["msd_4"], "0*20*")
    oracle = lambda n: n > 0 and any(n == 2 * 4 ** k for k in range(10))
    languages_agree((odd, oracle), (700,))


def test_regex_base4_base2_digit_link():
    link = from_regex(["msd_4", "msd_2"], "([0,0]|[1,1])*").renamed({"t0": "x", "t1": "y"})

    def oracle(x, y):
        dx = to_digits(x, 4)
        dy = to_digits(y, 2)
        if len(dx) != len(dy):
            return x == y == 0
        return all(a == b and a <= 1 for a, b in zip(dx, dy))

    languages_agree((link, oracle), (90, 90))
    assert is_padding_closed(link)


def test_regex_union_and_literal_values():
    pat = from_regex(["msd_2", "msd_2"], "[0,0]*[1,1][0,0]* | [0,1][1,0]")
    pat = pat.renamed({"t0": "x", "t1": "y"})
    expected = {(2 ** k, 2 ** k) for k in range(9)} | {(1, 2)}
    for x in range(70):
        for y in range(70):
            assert accepts_values(pat, (x, y)) == ((x, y) in expected)


def test_regex_epsilon_only():
    zero = from_regex(["msd_2"], "()")
    languages_agree((zero, lambda n: n == 0), (50,))
    assert zero.accepts([])
    assert zero.accepts([(0,), (0,)])


def test_regex_rejects_garbage():
    with pytest.raises(RegexError):
        from_regex(["msd_2"], "0*(1")
    with pytest.raises(RegexError):
        from_regex(["msd_2", "msd_2"], "01")
    with pytest.raises(RegexError):
        from_regex(["msd_2"], "[1,1]")
    with pytest.raises(RegexError):
        from_regex(["msd_2"], "0*30*")


def test_regex_nested_too_deeply_raises_regex_error():
    with pytest.raises(RegexError, match="the pattern nests too deeply to parse"):
        from_regex(["msd_2"], "(" * 300 + "1" + ")" * 300)
    assert from_regex(["msd_2"], "(" * 20 + "1" + ")" * 20).accepts([(1,)])


def test_serialization_roundtrip():
    for aut in (equality_automaton(), less_than_automaton(), from_regex(["msd_4"], "0*20*")):
        m = minimize(aut)
        back = MultiTrackAutomaton.from_text(m.to_text(), names=[t.name for t in m.tracks])
        assert language_equal(m, back)
        assert back.to_text() == m.to_text()


def test_text_keeps_an_initial_state_other_than_0():
    # state 1 starts and accepts; state 0 is a rejecting sink
    x = Track("x", NumberSystem(2))
    relation = MultiTrackAutomaton((x,), 2, 1, [0, 1], [[0, 0], [1, 1]])
    back = MultiTrackAutomaton.from_text(relation.to_text(), names=["x"])
    assert back.accepts([]) and language_equal(back, relation)
    dfao = MultiTrackAutomaton((x,), 2, 1, [0, -1], [[0, 0], [1, 1]])
    back = MultiTrackAutomaton.from_output_text(dfao.to_text())
    assert value_of_word(dfao, []) == value_of_word(back, []) == -1


def test_from_text_completes_missing_transitions_with_a_sink():
    # leave out every transition into the dead state 1: a fresh rejecting
    # sink takes their place and the language stays the same
    full = equality_automaton()
    text = full.to_text()
    partial = "".join(ln for ln in text.splitlines(keepends=True) if not ln.endswith("-> 1\n"))
    assert partial.count("->") == 2
    back = MultiTrackAutomaton.from_text(partial, names=["x", "y"])
    assert back.n_states == 3
    assert back.outputs[2] == 0 and back.matrix[2] == [2, 2, 2, 2]
    for length in range(5):
        for word in itertools.product(full.alphabet, repeat=length):
            assert back.accepts(list(word)) == full.accepts(list(word)), word


def test_determinize_subset_construction():
    nfa = from_regex(["msd_2"], "(0|1)*1(0|1)")  # second to last digit is 1
    values = {n for n in range(256) if len(to_digits(n, 2)) >= 2 and to_digits(n, 2)[-2] == 1}
    # padding closure keeps value semantics
    for n in range(256):
        assert accepts_values(nfa, [n]) == (n in values)


def test_from_regex_with_more_positions_than_a_machine_word():
    # 1 followed by 7-digit blocks of even parity: 449 positions, few states
    blocks = [format(v, "07b") for v in range(128) if bin(v).count("1") % 2 == 0]
    a = from_regex(["msd_2"], "1(" + "|".join(blocks) + ")*")
    assert a.n_states < 20
    for n in range(2**15):
        digits = bin(n)[3:]
        blocks_even = all(digits[i : i + 7].count("1") % 2 == 0 for i in range(0, len(digits), 7))
        expected = n > 0 and len(digits) % 7 == 0 and blocks_even
        assert accepts_values(a, [n]) == expected, n
    # over collections of positions, as a pattern wider than the masks
    with mock.patch.object(automata, "MASK_STATES", 0):
        assert from_regex(["msd_2"], "1(" + "|".join(blocks) + ")*").to_text() == a.to_text()


def test_machines_wider_than_the_masks_keep_collections_of_states():
    # "the 11th digit from the end is 1" takes 2048 states; projecting its
    # track puts every state in one set
    a = from_regex(["msd_2"], "(0|1)*1" + "(0|1)" * 10)
    assert a.n_states == 2048 > automata.MASK_STATES
    wide = project(a, ["t0"]), reverse(a)
    assert wide[0].to_text() == plain_project(a, ["t0"]).to_text()
    assert wide[1].to_text() == plain_reverse(a).to_text()
    assert wide[1].n_states == 13
    with mock.patch.object(automata, "MASK_STATES", a.n_states):
        assert [project(a, ["t0"]).to_text(), reverse(a).to_text()] == [m.to_text() for m in wide]


def test_walk_rejects_bad_digits():
    eq = equality_automaton()
    with pytest.raises(AutomatonError):
        step(eq, 0, (2, 0))


def test_digit_tuples_of_the_wrong_length_are_rejected():
    a = from_regex(["msd_2", "msd_2"], "[0,1]*")
    for word, message in (
        ([(1,)], "digit tuple (1,) does not have 2 digits"),
        ([(0, 1, 1)], "digit tuple (0, 1, 1) does not have 2 digits"),
    ):
        with pytest.raises(AutomatonError, match=re.escape(message)):
            a.accepts(word)
    assert a.accepts([(0, 1)])


def test_duplicate_track_names_rejected():
    with pytest.raises(AutomatonError):
        MultiTrackAutomaton((t2("x"), t2("x")), 1, 0, [1], [[0, 0, 0, 0]])


def test_output_automaton_thue_morse():
    # bit-count parity in base 2
    track = Track("n", NumberSystem(2))
    dfao = MultiTrackAutomaton((track,), 2, 0, [1, -1], [[0, 1], [1, 0]])
    for n in range(500):
        expected = -1 if bin(n).count("1") % 2 else 1
        assert value_of_word(dfao, to_digits(n, 2)) == expected
    plus = dfao.where(1)
    languages_agree((plus, lambda n: bin(n).count("1") % 2 == 0), (300,))


def test_output_automaton_minimize_and_roundtrip():
    track = Track("n", NumberSystem(2))
    # redundant copy of the parity machine: states 2,3 mirror 0,1
    dfao = MultiTrackAutomaton((track,), 4, 0, [1, -1, 1, -1], [[2, 3], [3, 2], [0, 1], [1, 0]])
    small = minimize(dfao)
    assert small.n_states == 2
    for n in range(200):
        assert value_of_word(small, to_digits(n, 2)) == value_of_word(dfao, to_digits(n, 2))
    back = MultiTrackAutomaton.from_output_text(small.to_text())
    for n in range(200):
        assert value_of_word(back, to_digits(n, 2)) == value_of_word(small, to_digits(n, 2))


def _with_line(text, index, new):
    lines = text.splitlines()
    lines[index] = new
    return "\n".join(lines) + "\n"


def test_multitrack_from_text_rejects_malformed_lines():
    text = minimize(equality_automaton()).to_text()
    lines = text.splitlines()
    first = next(i for i, ln in enumerate(lines) if "->" in ln)
    digits = lines[first].split("->")[0].strip()
    for bad, line in (
        (_with_line(text, first, f"{digits} -> 99"), f"{digits} -> 99"),
        (_with_line(text, first, "2 0 -> 0"), "2 0 -> 0"),
        (_with_line(text, first, "0 -> 0"), "0 -> 0"),
        (_with_line(text, first, "0 0 -> x"), "0 0 -> x"),
        (_with_line(text, first - 1, "0 1 2"), "0 1 2"),
        (lines[0] + "\n0 0 -> 0\n" + "\n".join(lines[1:]), "0 0 -> 0"),
    ):
        with pytest.raises(AutomatonError, match=re.escape(repr(line))):
            MultiTrackAutomaton.from_text(bad)
    with pytest.raises(AutomatonError, match="state 1 is never declared"):
        MultiTrackAutomaton.from_text("msd_2\n0 1\n2 0\n")
    for names in (["x"], ["x", "y", "z"]):
        with pytest.raises(AutomatonError, match="track names for the 2 number systems"):
            MultiTrackAutomaton.from_text(text, names=names)


def test_output_from_text_rejects_malformed_lines():
    track = Track("n", NumberSystem(2))
    text = MultiTrackAutomaton((track,), 2, 0, [1, -1], [[0, 1], [1, 0]]).to_text()
    # text: header, "0 1", "0 -> 0", "1 -> 1", "1 -1", "0 -> 1", "1 -> 0"
    missing = "\n".join(ln for i, ln in enumerate(text.splitlines()) if i != 6)
    with pytest.raises(AutomatonError, match=re.escape("'1 -1'")):
        MultiTrackAutomaton.from_output_text(missing)
    for bad, line in (
        (_with_line(text, 2, "2 -> 0"), "2 -> 0"),
        (_with_line(text, 2, "x -> 0"), "x -> 0"),
        (_with_line(text, 2, "0 -> 7"), "0 -> 7"),
    ):
        with pytest.raises(AutomatonError, match=re.escape(repr(line))):
            MultiTrackAutomaton.from_output_text(bad)
    with pytest.raises(AutomatonError):
        MultiTrackAutomaton.from_output_text("")
    with pytest.raises(AutomatonError, match="reads one number system, not 2"):
        MultiTrackAutomaton.from_output_text(minimize(equality_automaton()).to_text())


# --- properties of the kernel on random small automata ----------------------


@st.composite
def small_dfas(draw):
    """Complete DFAs with 1-2 tracks, bases 2-3 and at most 8 states."""
    bases = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2))
    tracks = tuple(Track(name, NumberSystem(b)) for name, b in zip("xy", bases))
    n = draw(st.integers(1, 8))
    state = st.integers(0, n - 1)
    width = math.prod(bases)
    matrix = draw(st.lists(st.lists(state, min_size=width, max_size=width), min_size=n, max_size=n))
    outputs = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return MultiTrackAutomaton(tracks, n, draw(state), outputs, matrix)


@st.composite
def three_track_renamings(draw):
    """A complete DFA over tracks x, y, z of one base, and a renaming of them.

    Target names come from a, b, x, y, z, so a renaming may rename, swap,
    or merge two or all three tracks.
    """
    base = draw(st.sampled_from([2, 3]))
    tracks = tuple(Track(name, NumberSystem(base)) for name in "xyz")
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    row = st.lists(state, min_size=base**3, max_size=base**3)
    matrix = draw(st.lists(row, min_size=n, max_size=n))
    outputs = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    a = MultiTrackAutomaton(tracks, n, draw(state), outputs, matrix)
    targets = draw(st.lists(st.sampled_from("abxyz"), min_size=3, max_size=3))
    return a, dict(zip("xyz", targets))


@st.composite
def dfa_pairs_with_sinks(draw):
    """Two complete DFAs of one base that may share a track, some of whose
    states are made sinks: every transition back to the state, output 0 or 1."""
    base = draw(st.sampled_from([2, 3]))

    def dfa(names):
        tracks = tuple(Track(name, NumberSystem(base)) for name in names)
        n = draw(st.integers(1, 6))
        state = st.integers(0, n - 1)
        width = base ** len(tracks)
        matrix = draw(st.lists(st.lists(state, min_size=width, max_size=width), min_size=n, max_size=n))
        outputs = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        for q in draw(st.sets(state)):
            matrix[q] = [q] * width
            outputs[q] = draw(st.integers(0, 1))
        return MultiTrackAutomaton(tracks, n, draw(state), outputs, matrix)

    return dfa(draw(st.sampled_from(["", "x", "xy"]))), dfa(draw(st.sampled_from(["", "y", "xz", "yz"])))


@settings(max_examples=150, deadline=None)
@given(dfa_pairs_with_sinks())
def test_product_merges_dead_pairs_to_the_same_minimal_automaton(pair):
    a, b = pair
    for op in (OP_AND, OP_OR, OP_XOR, OP_IMPLIES, OP_IFF):
        fast, plain = product(a, b, op), plain_product(a, b, op)
        if op is OP_AND:
            # the reachable pairs holding a rejecting sink make one state, so
            # only the minimal automata agree
            sinks = [
                {q for q, row in enumerate(m.matrix) if m.outputs[q] == 0 and set(row) == {q}}
                for m in (a, b)
            ]
            pairs = plain_product_pairs(a, b)[1]
            live = [(qa, qb) for qa, qb in pairs if qa not in sinks[0] and qb not in sinks[1]]
            assert fast.n_states == len(live) + (len(live) < len(pairs))
            fast, plain = minimize(fast), minimize(plain)
        assert fast.to_text() == plain.to_text()


@st.composite
def projections(draw):
    """A complete DFA with 2-3 tracks of bases 2-3, and the names of two of
    its tracks in the order they are removed."""
    bases = draw(st.lists(st.sampled_from([2, 3]), min_size=2, max_size=3))
    tracks = tuple(Track(name, NumberSystem(b)) for name, b in zip("xyz", bases))
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    width = math.prod(bases)
    matrix = draw(st.lists(st.lists(state, min_size=width, max_size=width), min_size=n, max_size=n))
    outputs = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    a = MultiTrackAutomaton(tracks, n, draw(state), outputs, matrix)
    return a, draw(st.permutations([t.name for t in tracks]))[:2]


@settings(max_examples=100, deadline=None)
@given(projections())
def test_projecting_a_set_of_tracks_is_projecting_them_in_turn(case):
    a, (first, second) = case
    at_once = minimize(project(a, {first, second}))
    in_turn = minimize(project(project(a, first), second))
    assert at_once.to_text() == in_turn.to_text()
    assert [t.name for t in at_once.tracks] == [
        t.name for t in a.tracks if t.name not in (first, second)
    ]


def _pairs_reached(a, p, b, q, length):
    """Pairs (state of a, state of b) that words up to ``length`` lead (p, q) to.

    Words that reach the same pair behave alike from then on, so one pair
    stands for all of them; every word of each length is covered.
    """
    level = {(p, q)}
    seen = set(level)
    for _ in range(length):
        level = {(step(a, x, sym), step(b, y, sym)) for x, y in level for sym in a.alphabet}
        seen |= level
    return seen


def _agree(a, b, pairs):
    return all(a.outputs[x] == b.outputs[y] for x, y in pairs)


def _reached(a):
    return _pairs_reached(a, a.initial, a, a.initial, a.n_states)


@settings(max_examples=80, deadline=None)
@given(small_dfas())
def test_minimize_accepts_the_same_words(a):
    m = minimize(a)
    assert _agree(a, m, _pairs_reached(a, a.initial, m, m.initial, a.n_states + m.n_states))


@settings(max_examples=80, deadline=None)
@given(small_dfas())
def test_minimize_has_one_state_per_residual(a):
    reached = sorted({x for x, _ in _reached(a)})
    # words up to n - 2 separate any two distinguishable states
    residuals = []
    for q in reached:
        if not any(_agree(a, a, _pairs_reached(a, q, a, r, a.n_states)) for r in residuals):
            residuals.append(q)
    assert minimize(a).n_states == len(residuals)


@settings(max_examples=80, deadline=None)
@given(small_dfas())
def test_minimize_is_idempotent(a):
    m = minimize(a)
    assert minimize(m).to_text() == m.to_text()


@settings(max_examples=80, deadline=None)
@given(three_track_renamings())
def test_renamed_reads_each_source_track_from_its_new_name(case):
    a, mapping = case
    r = a.renamed(mapping)
    assert [t.name for t in r.tracks] == sorted(set(mapping.values()))
    # source track i reads the digit of the renamed track it maps to
    where = [r.track_index(mapping[t.name]) for t in a.tracks]

    def source(sym):
        return tuple(sym[i] for i in where)

    # every word up to length 4, one (state of r, state of a) pair per class
    level = {(r.initial, a.initial)}
    seen = set(level)
    for _ in range(4):
        level = {(step(r, x, sym), step(a, y, source(sym))) for x, y in level for sym in r.alphabet}
        seen |= level
    assert _agree(r, a, seen)


def _exists_accepted(a, pos, word):
    """Brute force: some digits on track ``pos`` under some zero padding of word."""

    def full(sym, d):
        return sym[:pos] + (d,) + sym[pos:]

    digits = range(a.tracks[pos].base)
    zero = (0,) * (len(a.tracks) - 1)
    level = {a.initial}
    states = set(level)
    # a zero-padding path longer than n states repeats a state
    for _ in range(a.n_states):
        level = {step(a, q, full(zero, d)) for q in level for d in digits}
        states |= level
    for sym in word:
        states = {step(a, q, full(sym, d)) for q in states for d in digits}
    return not states.isdisjoint(a.accepting)


@settings(max_examples=80, deadline=None)
@given(small_dfas(), st.data())
def test_project_is_existential_over_removed_track(a, data):
    pos = data.draw(st.integers(0, len(a.tracks) - 1))
    p = project(a, a.tracks[pos].name)
    assert [t.name for t in p.tracks] == [t.name for i, t in enumerate(a.tracks) if i != pos]
    for length in range(5):
        for word in itertools.product(p.alphabet, repeat=length):
            assert p.accepts(word) == _exists_accepted(a, pos, word), word


@st.composite
def dfas_up_to_three_tracks(draw):
    """A complete DFA with 1-3 tracks of bases 2-3 and at most 6 states."""
    bases = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3))
    tracks = tuple(Track(name, NumberSystem(b)) for name, b in zip("xyz", bases))
    n = draw(st.integers(1, 6))
    state = st.integers(0, n - 1)
    width = math.prod(bases)
    matrix = draw(st.lists(st.lists(state, min_size=width, max_size=width), min_size=n, max_size=n))
    outputs = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return MultiTrackAutomaton(tracks, n, draw(state), outputs, matrix)


@settings(max_examples=80, deadline=None)
@given(dfas_up_to_three_tracks())
def test_project_and_reverse_give_the_frozenset_construction_bytes(a):
    # unminimized, so every subset and its number are compared; a limit of 0
    # keeps collections of states, as a machine wider than the masks does
    names = [t.name for t in a.tracks]
    for limit in (automata.MASK_STATES, 0):
        with mock.patch.object(automata, "MASK_STATES", limit):
            for k in range(1, len(names) + 1):
                for removed in itertools.combinations(names, k):
                    assert project(a, removed).to_text() == plain_project(a, removed).to_text(), removed
            assert reverse(a).to_text() == plain_reverse(a).to_text()


@st.composite
def small_dfaos(draw):
    base = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 8))
    state = st.integers(0, n - 1)
    matrix = draw(st.lists(st.lists(state, min_size=base, max_size=base), min_size=n, max_size=n))
    outputs = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    return MultiTrackAutomaton((Track("n", NumberSystem(base)),), n, draw(state), outputs, matrix)


@settings(max_examples=80, deadline=None)
@given(small_dfaos())
def test_output_minimized_keeps_every_short_word(dfao):
    small = minimize(dfao)
    assert small.n_states <= dfao.n_states
    for length in range(7):
        for word in itertools.product(range(dfao.bases[0]), repeat=length):
            assert value_of_word(small, word) == value_of_word(dfao, word)
    assert minimize(small).to_text() == small.to_text()
    back = MultiTrackAutomaton.from_output_text(small.to_text())
    assert back.to_text() == small.to_text()


@settings(max_examples=80, deadline=None)
@given(small_dfas())
def test_text_round_trip(a):
    back = MultiTrackAutomaton.from_text(a.to_text(), names=[t.name for t in a.tracks])
    assert back.tracks == a.tracks
    assert back.to_text() == a.to_text()
    assert language_equal(back, a)


def _retargeted_copy(text, n_states, data):
    """The text with a copy of one transition line that leads to the next state."""
    lines = text.splitlines()
    i = data.draw(st.sampled_from([i for i, ln in enumerate(lines) if "->" in ln]))
    left, right = lines[i].split("->")
    lines.insert(i + 1, f"{left}-> {(int(right) + 1) % n_states}")
    return "\n".join(lines) + "\n"


def _with_output(text, state, value):
    """The text with state's output (a relation's acceptance) set to value."""
    lines = text.splitlines()
    headers = [i for i, ln in enumerate(lines) if i and "->" not in ln]
    lines[headers[state]] = f"{state} {value}"
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(small_dfas(), st.data())
def test_text_reader_is_strict(a, data):
    names = [t.name for t in a.tracks]
    with pytest.raises(AutomatonError, match="a second transition on digits"):
        MultiTrackAutomaton.from_text(_retargeted_copy(a.to_text(), a.n_states, data), names=names)
    q = data.draw(st.integers(0, a.n_states - 1))
    for value in (2, -1):
        with pytest.raises(AutomatonError, match="acceptance must be 0 or 1"):
            MultiTrackAutomaton.from_text(_with_output(a.to_text(), q, value), names=names)


@settings(max_examples=80, deadline=None)
@given(small_dfaos(), st.data())
def test_output_text_reader_is_strict(dfao, data):
    with pytest.raises(AutomatonError, match="a second transition on digits"):
        MultiTrackAutomaton.from_output_text(_retargeted_copy(dfao.to_text(), dfao.n_states, data))
    q = data.draw(st.integers(0, dfao.n_states - 1))
    text = dfao.to_text()
    for value in (2, -1):
        back = MultiTrackAutomaton.from_output_text(_with_output(text, q, value))
        assert back.outputs[q] == value
        assert back.matrix == MultiTrackAutomaton.from_output_text(text).matrix


@settings(max_examples=80, deadline=None)
@given(small_dfas(), st.sets(st.integers(0, 7)))
def test_reachability_helpers_match_brute_force(a, drawn):
    assert set(reachable(a.matrix, a.initial)) == {x for x, _ in _reached(a)}
    targets = {q for q in drawn if q < a.n_states}
    for goal in (a.accepting, targets, set()):
        live = {
            q
            for q in range(a.n_states)
            if not goal.isdisjoint(x for x, _ in _pairs_reached(a, q, a, q, a.n_states))
        }
        assert coreachable(a.matrix, goal) == live


def _least_accepted_word(a):
    """The least accepted word in (length, lexicographic) order, or None.

    can[k] holds the states with an accepted suffix of exactly k symbols; a
    shortest accepted word has fewer than n_states symbols.  From the
    initial state, with k symbols still to read, the least word takes the
    least symbol leading into can[k - 1].
    """
    can = [set(a.accepting)]
    for _ in range(1, a.n_states):
        can.append({q for q, row in enumerate(a.matrix) if not can[-1].isdisjoint(row)})
    length = next((k for k, states in enumerate(can) if a.initial in states), None)
    if length is None:
        return None
    word, q = [], a.initial
    for k in range(length, 0, -1):
        j = next(j for j, t in enumerate(a.matrix[q]) if t in can[k - 1])
        word.append(a.alphabet[j])
        q = a.matrix[q][j]
    return word


@settings(max_examples=80, deadline=None)
@given(small_dfas())
def test_find_witness_is_the_least_accepted_word(a):
    assert find_witness(a) == _least_accepted_word(a)


def _scrambled(data, matrix, initial, labels, label):
    """A copy with up to 4 unreachable states added and all states renumbered.

    The added states get random rows and labels drawn from ``label``; no
    state of the original leads to them.  Returns (matrix, initial, labels).
    """
    width = len(matrix[0])
    extra = data.draw(st.integers(0, 4))
    total = len(matrix) + extra
    row = st.lists(st.integers(0, total - 1), min_size=width, max_size=width)
    matrix = list(matrix) + data.draw(st.lists(row, min_size=extra, max_size=extra))
    labels = list(labels) + data.draw(st.lists(label, min_size=extra, max_size=extra))
    new = data.draw(st.permutations(range(total)))
    rows, out = [None] * total, [None] * total
    for q, (targets, lab) in enumerate(zip(matrix, labels)):
        rows[new[q]] = [new[t] for t in targets]
        out[new[q]] = lab
    return rows, new[initial], out


@settings(max_examples=80, deadline=None)
@given(small_dfas(), st.data())
def test_minimize_bytes_ignore_numbering_and_unreachable_states(a, data):
    matrix, initial, outputs = _scrambled(data, a.matrix, a.initial, a.outputs, st.integers(0, 1))
    b = MultiTrackAutomaton(a.tracks, len(matrix), initial, outputs, matrix)
    assert minimize(b).to_text() == minimize(a).to_text()


@settings(max_examples=80, deadline=None)
@given(small_dfaos(), st.data())
def test_output_minimized_bytes_ignore_numbering_and_unreachable_states(dfao, data):
    matrix, initial, outputs = _scrambled(
        data, dfao.matrix, dfao.initial, dfao.outputs, st.integers(-1, 1)
    )
    b = MultiTrackAutomaton(dfao.tracks, len(matrix), initial, outputs, matrix)
    assert minimize(b).to_text() == minimize(dfao).to_text()


def _renumbered(a, order):
    """``a`` on the states that ``order`` lists, state ``order[i]`` numbered i."""
    new = {q: i for i, q in enumerate(order)}
    matrix = [[new[t] for t in a.matrix[q]] for q in order]
    return MultiTrackAutomaton(a.tracks, len(order), new[a.initial], [a.outputs[q] for q in order], matrix)


def _numberings(a, data):
    """``a`` as drawn; its reachable states numbered as ``_explore`` numbers
    them; those followed by the unreachable states; and two of them swapped."""
    reached = automata._explore(a.initial, a.matrix.__getitem__)[0]
    rest = sorted(set(range(a.n_states)) - set(reached))
    state = st.integers(0, len(reached) - 1)
    i, j = data.draw(state), data.draw(state)
    swapped = list(reached)
    swapped[i], swapped[j] = reached[j], reached[i]
    return a, _renumbered(a, reached), _renumbered(a, reached + rest), _renumbered(a, swapped)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_dfas(), small_dfaos()), st.data())
def test_minimize_gives_the_reference_bytes(a, data):
    # a numbered input has its quotient read off the refinement; the others
    # are walked first
    for b in _numberings(a, data):
        assert minimize(b).to_text() == plain_minimize(b).to_text()


def test_numbered_needs_each_state_met_in_order_before_its_row():
    assert automata._numbered([[0]], 0)
    assert automata._numbered([[1, 2], [0, 2], [2, 2]], 0)
    assert automata._numbered([[1], [0]], 0)
    assert not automata._numbered([[0], [1]], 0)  # state 1 is never met
    assert not automata._numbered([[2, 1], [1, 1], [2, 2]], 0)  # met out of order
    assert not automata._numbered([[0, 2], [1, 1], [2, 2]], 0)  # a number skipped
    assert not automata._numbered([[1], [0]], 1)


@settings(max_examples=150, deadline=None)
@given(small_dfas(), st.data())
def test_numbered_says_whether_explore_keeps_the_numbers(a, data):
    for b in _numberings(a, data):
        kept = automata._explore(b.initial, b.matrix.__getitem__)[0] == list(range(b.n_states))
        assert automata._numbered(b.matrix, b.initial) == kept


@settings(max_examples=80, deadline=None)
@given(dfa_pairs_with_sinks())
def test_kernel_outputs_are_numbered_as_explore_numbers_them(pair):
    a, b = pair
    outputs = [minimize(a), reverse(a), project(a, [t.name for t in a.tracks])]
    outputs += [project(a, t.name) for t in a.tracks]
    outputs += [product(a, b, op) for op in (OP_AND, OP_OR, OP_XOR)]
    for m in outputs:
        assert automata._numbered(m.matrix, m.initial), m


def test_regex_automata_are_numbered_as_explore_numbers_them():
    for systems, pattern in (
        (["msd_2"], "1(0|1)*"),
        (["msd_2"], "(10|01)*1*"),
        (["msd_3"], "(12|2)*0"),
        (["msd_2", "msd_2"], "[0,1]*[1,0]([1,1]|[0,0])*"),
    ):
        m = from_regex(systems, pattern)
        assert automata._numbered(m.matrix, m.initial), pattern


@settings(max_examples=80, deadline=None)
@given(small_dfas())
def test_reverse_accepts_the_mirror_words(a):
    r = reverse(a)
    assert r.tracks == a.tracks
    for length in range(5):
        for word in itertools.product(a.alphabet, repeat=length):
            assert r.accepts(word[::-1]) == a.accepts(word), word


@st.composite
def subset_rows(draw):
    """Tracks, start set, accepting set and frozenset rows on at most 4 states."""
    bases = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2))
    tracks = tuple(Track(name, NumberSystem(b)) for name, b in zip("xy", bases))
    n = draw(st.integers(1, 4))
    subset = st.frozensets(st.integers(0, n - 1))
    width = math.prod(bases)
    trans = draw(st.lists(st.lists(subset, min_size=width, max_size=width), min_size=n, max_size=n))
    return tracks, draw(subset), draw(subset), trans


@settings(max_examples=80, deadline=None)
@given(subset_rows())
def test_determinize_accepts_what_the_subset_simulation_accepts(case):
    tracks, initial, accepting, trans = case
    masks = [[sum(1 << t for t in cell) for cell in row] for row in trans]
    a = determinize(tracks, initial, accepting, masks)
    # with a limit of 0 the rows are collections of states, as in a wide machine
    with mock.patch.object(automata, "MASK_STATES", 0):
        assert determinize(tracks, initial, accepting, trans).to_text() == a.to_text()
    for length in range(4):
        for word in itertools.product(a.alphabet, repeat=length):
            current = initial
            for sym in word:
                j = a.symbol_index(sym)
                current = frozenset(t for q in current for t in trans[q][j])
            assert a.accepts(word) == bool(current & accepting), word


@st.composite
def regex_cases(draw):
    """Bases, pattern text, the same pattern as a Python regex, and its literal count.

    Patterns are trees of literals, (), concatenation, alternation and star,
    at most 4 levels deep.  In the Python regex, symbol index j is chr(97 + j).
    """
    bases = draw(st.sampled_from([(2,), (3,), (4,), (2, 2)]))
    alphabet = list(itertools.product(*(range(b) for b in bases)))

    def tree(depth):
        kind = draw(st.sampled_from(["sym", "eps"] + (["cat", "alt", "star"] if depth < 4 else [])))
        if kind == "sym":
            j = draw(st.integers(0, len(alphabet) - 1))
            return "[" + ",".join(map(str, alphabet[j])) + "]", chr(97 + j), 1
        if kind == "eps":
            return "()", "(?:)", 0
        if kind == "star":
            text, py, m = tree(depth + 1)
            return f"({text})*", f"(?:{py})*", m
        (lt, lp, lm), (rt, rp, rm) = tree(depth + 1), tree(depth + 1)
        if kind == "cat":
            return f"({lt} {rt})", f"(?:{lp}{rp})", lm + rm
        return f"({lt}|{rt})", f"(?:{lp}|{rp})", lm + rm

    return (bases, *tree(0))


@settings(max_examples=150, deadline=None)
@given(regex_cases())
def test_from_regex_matches_python_re_under_padding(case):
    bases, text, py, m = case
    a = from_regex([f"msd_{b}" for b in bases], text)
    for length in range(4):
        for word in itertools.product(a.alphabet, repeat=length):
            letters = "".join(chr(97 + a.symbol_index(sym)) for sym in word)
            stripped = letters.lstrip("a")
            # the closure accepts a word iff its digits behind some number z
            # of zero tuples match.  A least z is at most m: the pattern's
            # position automaton has m + 1 states, so reading more than m
            # zeros from its start repeats a state, and cutting that loop
            # out leaves a shorter padding that still matches.
            expected = any(re.fullmatch(py, "a" * z + stripped) for z in range(m + 1))
            assert a.accepts(word) == expected, (text, word)
