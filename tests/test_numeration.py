import random

import pytest

from rslogic.automata import NumberSystem, language_equal, minimize
from rslogic.errors import AutomatonError, CompileError
from rslogic.numeration import RELATIONS, linear_atom

from builders import accepts_values, build_add, build_compare, build_const_mul, is_padding_closed

B2 = NumberSystem(2)
B3 = NumberSystem(3)
B4 = NumberSystem(4)

REL_FN = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def sweep(aut, names, oracle, hi):
    import itertools

    order = [t.name for t in aut.tracks]
    for combo in itertools.product(range(hi), repeat=len(names)):
        env = dict(zip(names, combo))
        vals = [env[n] for n in order]
        assert accepts_values(aut, vals) == oracle(**env), env


@pytest.mark.parametrize("rel", RELATIONS)
def test_atom_single_variable_against_constant(rel):
    fn = REL_FN[rel]
    for base, k in ((B2, 5), (B3, 7), (B4, 11), (B2, 0)):
        aut = linear_atom({"x": 1}, rel, k, base)
        sweep(aut, ["x"], lambda x: fn(x, k), 40)


@pytest.mark.parametrize("rel", RELATIONS)
def test_atom_two_variables(rel):
    fn = REL_FN[rel]
    aut = linear_atom({"x": 1, "y": -1}, rel, 0, B2)
    sweep(aut, ["x", "y"], lambda x, y: fn(x, y), 25)


def test_atom_weighted_combinations():
    cases = [
        ({"x": 2, "y": 3}, "<=", 17, B2, lambda x, y: 2 * x + 3 * y <= 17),
        ({"x": 1, "y": -1}, "=", 3, B2, lambda x, y: x - y == 3),
        ({"x": 3, "y": -2}, ">=", 1, B3, lambda x, y: 3 * x - 2 * y >= 1),
        ({"x": 5, "y": -3}, "<", 4, B4, lambda x, y: 5 * x - 3 * y < 4),
        ({"x": 1, "y": 1, "z": -1}, "=", 0, B2, lambda x, y, z: x + y == z),
        ({"x": 3, "y": 8, "z": -8}, "=", 0, B4, lambda x, y, z: 3 * x + 8 * y == 8 * z),
    ]
    for terms, rel, k, base, oracle in cases:
        aut = linear_atom(terms, rel, k, base)
        names = sorted(terms)
        hi = 13 if len(names) == 3 else 30
        sweep(aut, names, lambda **env: oracle(*(env[n] for n in names)), hi)
        assert is_padding_closed(aut)


def test_atom_drops_zero_coefficients():
    a = linear_atom({"x": 1, "w": 0}, "=", 2, B2)
    assert [t.name for t in a.tracks] == ["x"]


def test_atom_without_variables_is_a_truth_value():
    assert accepts_values(linear_atom({}, "=", 0, B2), ())
    assert not accepts_values(linear_atom({}, "=", 1, B2), ())
    assert accepts_values(linear_atom({}, "<=", 3, B2), ())
    assert not accepts_values(linear_atom({}, ">", 0, B2), ())
    assert accepts_values(linear_atom({"x": 0}, "!=", 5, B4), ())
    for rel in RELATIONS:
        for k in range(-3, 4):
            for base in (B2, B3):
                atom = linear_atom({}, rel, k, base)
                assert atom.tracks == () and atom.n_states == 1
                assert accepts_values(atom, ()) == REL_FN[rel](0, k), (rel, k, base)


def test_atom_large_constant():
    big = 10 ** 9
    aut = linear_atom({"x": 1}, "=", big, B2)
    assert accepts_values(aut, [big])
    assert not accepts_values(aut, [big - 1])
    assert not accepts_values(aut, [big + 1])
    # residual states shrink geometrically, so the machine stays small
    assert aut.n_states < 40


def test_atom_rejects_unknown_relation():
    with pytest.raises(CompileError):
        linear_atom({"x": 1}, "==", 0, B2)


@pytest.mark.parametrize("rel", RELATIONS)
def test_compare_matches_atom_route(rel):
    for base in (B2, B3, B4):
        direct = build_compare(rel, base)
        via_atom = linear_atom({"x": 1, "y": -1}, rel, 0, base)
        assert language_equal(direct, via_atom)
        sweep(direct, ["x", "y"], lambda x, y, fn=REL_FN[rel]: fn(x, y), 20)


def test_compare_requires_sorted_names():
    with pytest.raises(AutomatonError):
        build_compare("=", B2, ("y", "x"))


def test_adder_matches_atom_route():
    for base in (B2, B3, B4):
        carry = build_add(base)
        via_atom = linear_atom({"x": 1, "y": 1, "z": -1}, "=", 0, base)
        assert language_equal(carry, via_atom)


def test_adder_exhaustive_small_and_random_large():
    add = build_add(B2)
    for x in range(64):
        for y in range(64):
            assert accepts_values(add, (x, y, x + y))
            assert not accepts_values(add, (x, y, x + y + 1))
    rng = random.Random(20260816)
    for _ in range(4000):
        x, y = rng.randrange(4096), rng.randrange(4096)
        assert accepts_values(add, (x, y, x + y))
        z = rng.randrange(8192)
        assert accepts_values(add, (x, y, z)) == (z == x + y)


def test_adder_base3_semantics():
    add = build_add(B3)
    for x in range(30):
        for y in range(30):
            for z in range(60):
                assert accepts_values(add, (x, y, z)) == (x + y == z)


def test_const_mul_matches_atom_route():
    for c in range(9):
        for base in (B2, B4):
            chain = build_const_mul(c, base)
            via_atom = (
                linear_atom({"x": c, "y": -1}, "=", 0, base)
                if c
                else minimize(build_const_mul(0, base))
            )
            if c:
                assert language_equal(chain, via_atom), (c, base)
            for x in range(40):
                assert accepts_values(chain, (x, c * x))
                assert not accepts_values(chain, (x, c * x + 1))


def test_const_mul_reversed_roles():
    # second name may sort before the first; roles must survive the rename
    triple = build_const_mul(3, B2, ("n", "m"))
    assert [t.name for t in triple.tracks] == ["m", "n"]
    for n in range(40):
        assert accepts_values(triple, (3 * n, n))
        if n:
            assert not accepts_values(triple, (n, n))


def test_const_mul_rejects_bad_args():
    with pytest.raises(CompileError):
        build_const_mul(-2, B2)
    with pytest.raises(AutomatonError):
        build_const_mul(2, B2, ("x", "x"))
