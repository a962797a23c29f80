"""Malformed input gives an EngineError, never another exception."""

from hypothesis import given, settings
from hypothesis import strategies as st

from rslogic.automata import ALPHABET_BUDGET, MultiTrackAutomaton
from rslogic.errors import EngineError
from rslogic.logic import Environment, compile_formula
from rslogic.toolkit import standard_environment

ENV = standard_environment()
RSS_TEXT = ENV.relations["rss"].automaton.to_text()
# bases 2-5, and one whose single track is already over the alphabet budget
ANNOTATIONS = ["?msd_2", "?msd_3", "?msd_4", "?msd_5", f"?msd_{ALPHABET_BUDGET + 1}"]
VARIABLES = ["x", "y", "n", "k"]
OPERATORS = ["&", "|", "=>", "<=>"]
RELATIONS = ["=", "!=", "<", "<=", ">", ">="]
VOCABULARY = (
    ANNOTATIONS + VARIABLES + OPERATORS + RELATIONS
    + ["0", "1", "7", "+", "-", "*", "~", "(", ")", ",", "[", "]", "@", "$", "E", "A", "rss", "RS4"]
)

variable = st.sampled_from(VARIABLES)
term = st.one_of(
    variable.map(lambda v: [v]),
    st.sampled_from(["0", "1", "7"]).map(lambda c: [c]),
    st.tuples(st.sampled_from(["2", "3"]), variable).map(lambda t: [t[0], "*", t[1]]),
    st.tuples(variable, st.sampled_from(["+", "-"]), variable).map(list),
)
atom = st.one_of(
    st.tuples(term, st.sampled_from(RELATIONS), term).map(lambda t: [*t[0], t[1], *t[2]]),
    st.tuples(variable, variable).map(lambda t: ["$", "rss", "(", t[0], ",", t[1], ")"]),
    st.tuples(variable, st.sampled_from(["1", "-1", "0"])).map(
        lambda t: ["RS4", "[", t[0], "]", "=", "@", *t[1]]
    ),
)


def _extend(formula):
    return st.one_of(
        formula.map(lambda f: ["~", *f]),
        st.tuples(formula, st.sampled_from(OPERATORS), formula).map(
            lambda t: ["(", *t[0], t[1], *t[2], ")"]
        ),
        st.tuples(st.sampled_from("EA"), variable, formula).map(lambda t: [t[0], t[1], *t[2]]),
    )


@st.composite
def token_formulas(draw):
    """At most 25 tokens: a well-formed formula, perhaps annotated, with a few
    tokens dropped or inserted."""
    tokens = draw(st.recursive(atom, _extend, max_leaves=4))
    if draw(st.booleans()):
        tokens = [draw(st.sampled_from(ANNOTATIONS)), *tokens]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(tokens)))
        if draw(st.booleans()) and i < len(tokens):
            del tokens[i]
        else:
            tokens.insert(i, draw(st.sampled_from(VOCABULARY)))
    return " ".join(tokens[:25])


@st.composite
def mutated_texts(draw):
    """The shipped rss text with a few lines deleted, repeated or rewritten,
    and sometimes another header: small bases, or one over the budget."""
    lines = RSS_TEXT.splitlines()
    header = draw(st.sampled_from([
        lines[0], "msd_2 msd_2", "msd_4", "msd_3 msd_2 msd_2", "", "msd_1 msd_2", "msd_four",
        f"msd_{ALPHABET_BUDGET + 1} msd_2",
    ]))
    lines[0] = header
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["delete", "repeat", "rewrite"]))
        if edit == "delete":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        else:
            lines[i] = draw(st.text(alphabet="0123 ->-9x", max_size=12))
        if not lines:
            break
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(token_formulas(), mutated_texts())
def test_malformed_input_raises_only_engine_errors(formula, text):
    readers = (
        lambda: compile_formula(ENV, formula),
        lambda: MultiTrackAutomaton.from_text(text),
        lambda: MultiTrackAutomaton.from_output_text(text),
        lambda: Environment().register_relation("r", MultiTrackAutomaton.from_text(text)),
        lambda: Environment().register_dfao("T", MultiTrackAutomaton.from_output_text(text)),
    )
    for read in readers:
        try:
            read()
        except EngineError:
            pass
