"""Hand-built arithmetic automata: the independent route to linear_atom.

A carry adder, a digitwise comparator and a doubling chain of adders
assemble the same relations that ``rslogic.numeration.linear_atom``
compiles in one pass.  The tests compare the two routes, so these stay
deliberately separate from the compiler.
"""

from __future__ import annotations

from rslogic.automata import (
    MultiTrackAutomaton,
    NumberSystem,
    OP_AND,
    Track,
    determinize,
    minimize,
    product,
    project,
    reverse,
)
from rslogic.errors import AutomatonError, CompileError
from rslogic.numeration import RELATIONS, _trivial, linear_atom


def build_compare(rel: str, system: NumberSystem, names=("x", "y")) -> MultiTrackAutomaton:
    """Digitwise comparator x REL y, built directly in msd order."""
    if rel not in RELATIONS:
        raise CompileError(f"unknown relation {rel!r}")
    if names[0] >= names[1]:
        raise AutomatonError("comparator track names must be given in sorted order")
    tracks = (Track(names[0], system), Track(names[1], system))
    b = system.base
    # state 0: equal so far, 1: first is smaller, 2: first is larger
    matrix = []
    for q in range(3):
        row = []
        for dx in range(b):
            for dy in range(b):
                if q == 0:
                    row.append(0 if dx == dy else (1 if dx < dy else 2))
                else:
                    row.append(q)
        matrix.append(row)
    accepting = {
        "=": {0},
        "!=": {1, 2},
        "<": {1},
        "<=": {0, 1},
        ">": {2},
        ">=": {0, 2},
    }[rel]
    return minimize(MultiTrackAutomaton(tracks, 3, 0, accepting, matrix))


def build_add(system: NumberSystem, names=("x", "y", "z")) -> MultiTrackAutomaton:
    """Addition relation x + y = z from the classic carry automaton.

    The carry machine naturally reads digits least significant first, so it
    is built that way and then reversed and determinized for msd input.
    """
    if list(names) != sorted(names):
        raise AutomatonError("adder track names must be given in sorted order")
    tracks = tuple(Track(n, system) for n in names)
    b = system.base
    # states: carry 0, carry 1, dead
    matrix = []
    for q in range(3):
        row = []
        for dx in range(b):
            for dy in range(b):
                for dz in range(b):
                    if q == 2:
                        row.append(2)
                        continue
                    total = dx + dy + q
                    if total % b == dz % b and (total - dz) in (0, b):
                        row.append((total - dz) // b)
                    else:
                        row.append(2)
        matrix.append(row)
    lsd = MultiTrackAutomaton(tracks, 3, 0, {0}, matrix)
    return minimize(determinize(reverse(lsd)))


def build_const_mul(c: int, system: NumberSystem, names=("x", "y")) -> MultiTrackAutomaton:
    """Relation c * first = second, assembled by a doubling chain of adders.

    Even factors go through t = (c/2) * x and t + t = y; odd factors peel a
    single addition off.  Intermediate sums live on a scratch track that is
    projected away again at every step.
    """
    if c < 0:
        raise CompileError("constant factors are natural numbers")
    if names[0] == names[1]:
        raise AutomatonError("input and output tracks must differ")
    chain = _const_mul_chain(c, system)
    return minimize(chain.renamed({"in": names[0], "out": names[1]}))


def _const_mul_chain(c: int, system: NumberSystem) -> MultiTrackAutomaton:
    if c == 0:
        return product(
            _trivial((Track("in", system),), True),
            linear_atom({"out": 1}, "=", 0, system),
            OP_AND,
        )
    if c == 1:
        return build_compare("=", system, ("in", "out"))
    if c % 2 == 0:
        half = _const_mul_chain(c // 2, system).renamed({"out": "mid"})
        add = build_add(system, ("a", "b", "c")).renamed({"a": "mid", "b": "mid", "c": "out"})
        step = product(half, add, OP_AND)
    else:
        prev = _const_mul_chain(c - 1, system).renamed({"out": "mid"})
        add = build_add(system, ("a", "b", "c")).renamed({"a": "mid", "b": "in", "c": "out"})
        step = product(prev, add, OP_AND)
    return minimize(project(step, "mid"))
