"""Every corpus check produces its recorded outcome."""

import random
import re

from rslogic.automata import from_regex, language_equal
from rslogic.catalog import CHECKS, GOLDS, gold_automaton
from rslogic.toolkit import standard_environment


def test_catalog_shape():
    assert len(CHECKS) == 96
    names = [check.name for check in CHECKS]
    assert len(set(names)) == len(names)
    kinds = {check.kind for check in CHECKS}
    assert kinds == {"sentence", "automaton", "counting", "reg", "def"}
    by_name = {check.name: check for check in CHECKS}
    assert by_name["test1"].kind == "sentence"
    assert by_name["satz22"].kind == "counting"


def test_sentence_outcomes(corpus):
    _, report = corpus
    for check in CHECKS:
        if check.kind == "sentence":
            assert report.row(check.name).actual == str(check.expect).upper(), check.name


def test_expected_false_is_exactly_the_three(corpus):
    negatives = {c.name for c in CHECKS if c.kind == "sentence" and c.expect is False}
    assert negatives == {"selfint1", "selfint2", "curvecheck3"}
    positives = [c for c in CHECKS if c.kind == "sentence" and c.expect is True]
    assert len(positives) == 57


def test_gold_languages(corpus):
    env, _ = corpus
    for name, pattern in GOLDS:
        compiled = env.relation(name).automaton
        assert language_equal(compiled, gold_automaton(env, name)), name


def test_gold_covers_every_automaton_check():
    automaton_checks = {c.name for c in CHECKS if c.kind == "automaton"}
    assert automaton_checks == {name for name, _ in GOLDS}


def test_peak_time_machine_needs_leading_value_digit(corpus):
    # the value track of the second peak-time machine starts with a digit 1:
    # the peak on each interval is a power of two with one more binary digit
    # than the quarter where it lands, so a machine whose value track is all
    # zeros describes a different language
    env, _ = corpus
    compiled = env.relation("max_rst2").automaton
    systems = [t.system for t in compiled.tracks]
    truncated = from_regex(systems, "[0,0]*[3,0][3,0][3,0]*")
    assert not language_equal(compiled, truncated)


def test_every_check_is_fast(corpus):
    _, report = corpus
    for row in report.rows:
        assert row.seconds < 1.0, f"{row.name} took {row.seconds:.2f}s"


def test_scripts_are_self_contained_data():
    for check in CHECKS:
        assert check.script.rstrip().endswith(('":', '"::'))
        assert check.name in check.script.split('"')[0]


def _dependency_shuffle(rng):
    """The checks in a random order that still puts each one after the
    checks defining the relations it applies."""
    names = {check.name for check in CHECKS}
    needs = {c.name: set(re.findall(r"\$(\w+)", c.script)) & names - {c.name} for c in CHECKS}
    done, pending, order = set(), list(CHECKS), []
    while pending:
        check = rng.choice([c for c in pending if needs[c.name] <= done])
        pending.remove(check)
        done.add(check.name)
        order.append(check)
    return order


def test_shuffled_replay_gives_the_same_bytes(corpus):
    # the compile memo holds whatever the earlier checks compiled, so another
    # history must not change a verdict or a byte
    env, report = corpus
    for seed in (1, 2):
        shuffled = standard_environment()
        order = _dependency_shuffle(random.Random(seed))
        assert [c.name for c in order] != [c.name for c in CHECKS]
        for check in order:
            (result,) = shuffled.run_script(check.script)
            if check.kind == "sentence":
                assert str(result.truth).upper() == report.row(check.name).actual, check.name
        assert shuffled.relations.keys() == env.relations.keys()
        for name, relation in env.relations.items():
            assert shuffled.relations[name].automaton.to_text() == relation.automaton.to_text(), name
        for name, representation in env.representations.items():
            assert shuffled.representations[name].to_text() == representation.to_text(), name
