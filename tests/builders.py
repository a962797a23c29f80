"""Independent routes the tests compare the engine against.

A carry adder, a digitwise comparator and a doubling chain of adders
assemble the same relations that ``rslogic.numeration.linear_atom``
compiles in one pass.  ``plain_sync_table`` is ``sync_table`` without its
kernel memo: it walks every input prefix from the engine's start frontier.  These stay deliberately
separate from the engine code they check.
"""

from __future__ import annotations

from rslogic.automata import (
    MultiTrackAutomaton,
    NumberSystem,
    OP_AND,
    Track,
    coreachable,
    determinize,
    minimize,
    product,
    project,
    reverse,
    to_digits,
)
from rslogic.errors import AutomatonError, CompileError, FunctionalityError
from rslogic.numeration import RELATIONS, _trivial, linear_atom
from rslogic.synchronized import _start, _track_positions


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


def plain_sync_table(automaton, count, input_track=None):
    """Outputs for every input below count, visiting every input prefix."""
    pos_in, pos_out = _track_positions(automaton, input_track)
    b_in = automaton.tracks[pos_in].base
    b_out = automaton.tracks[pos_out].base
    width = len(to_digits(count - 1, b_in)) if count > 1 else 1
    accepting = automaton.accepting
    live = coreachable(automaton.matrix, automaton.accepting)
    # move: move[q][d_in] -> list of (successor, d_out), dead ends dropped
    pair = [0, 0]
    move = []
    for q in range(automaton.n_states):
        rows = []
        for d_in in range(b_in):
            pair[pos_in] = d_in
            row = []
            for d_out in range(b_out):
                pair[pos_out] = d_out
                dest = automaton.matrix[q][automaton.symbol_index(tuple(pair))]
                if dest in live:
                    row.append((dest, d_out))
            rows.append(row)
        move.append(rows)

    values = [None] * count

    def descend(pos, prefix, frontier):
        if pos == width:
            found = {y for q, y in frontier if q in accepting}
            if len(found) != 1:
                raise FunctionalityError(
                    f"{sorted(found)} accepted for input {prefix}"
                )
            values[prefix] = found.pop()
            return
        span = b_in ** (width - pos - 1)
        for d_in in range(b_in):
            lo = (prefix * b_in + d_in) * span
            if lo >= count:
                break
            new = set()
            for q, y in frontier:
                for dest, d_out in move[q][d_in]:
                    new.add((dest, y * b_out + d_out))
            if len(new) > automaton.n_states:
                raise FunctionalityError("one input reaches one state with two outputs")
            if new:
                descend(pos + 1, prefix * b_in + d_in, new)

    if count > 0:
        descend(0, 0, _start(move, automaton.initial, b_out))
    missing = [i for i, v in enumerate(values) if v is None]
    if missing:
        raise FunctionalityError(f"no accepted output for inputs {missing[:5]}")
    return values
