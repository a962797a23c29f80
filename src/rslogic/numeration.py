"""Automata for linear arithmetic over natural numbers in a fixed base.

``linear_atom`` compiles a whole constraint sum(a_i * x_i) REL K in one
pass, tracking the still-owed residual while scanning digits least
significant first, then reversing.  The formula compiler builds every
arithmetic atom this way.  The tests check it against an independent route
(``tests/builders.py``): a hand-written carry adder, a digitwise comparator
and a doubling chain that assemble the same relations.
"""

from __future__ import annotations

import itertools

from .automata import (
    MultiTrackAutomaton,
    NumberSystem,
    Track,
    _alpha_size,
    _explore,
    complement,
    minimize,
    reverse,
)
from .errors import CompileError

__all__ = ["RELATIONS", "linear_atom"]

RELATIONS = ("=", "!=", "<", "<=", ">", ">=")


def _trivial(tracks, truth: bool) -> MultiTrackAutomaton:
    return MultiTrackAutomaton(tuple(tracks), 1, 0, [int(truth)], [[0] * _alpha_size(tracks)])


def linear_atom(terms, rel: str, constant: int, system: NumberSystem) -> MultiTrackAutomaton:
    """Minimal automaton for sum(coeff * var) REL constant.

    ``terms`` maps variable names to integer coefficients; every variable is
    read in the same ``system``.  Variables with coefficient 0 are dropped.
    The result reads tracks in sorted name order, msd first, and is padding
    closed, complete and minimal.
    """
    if rel not in RELATIONS:
        raise CompileError(f"unknown relation {rel!r}")
    terms = {name: c for name, c in terms.items() if c}
    names = sorted(terms)
    tracks = tuple(Track(n, system) for n in names)
    if not names:
        value = {"=": constant == 0, "!=": constant != 0, "<": 0 < constant,
                 "<=": 0 <= constant, ">": 0 > constant, ">=": 0 >= constant}[rel]
        return _trivial(tracks, value)
    if rel == "!=":
        return minimize(complement(linear_atom(terms, "=", constant, system)))
    coeffs = [terms[n] for n in names]
    if rel == "=":
        mode, k = "eq", constant
    elif rel == "<=":
        mode, k = "le", constant
    elif rel == "<":
        mode, k = "le", constant - 1
    elif rel == ">=":
        coeffs = [-c for c in coeffs]
        mode, k = "le", -constant
    else:  # ">"
        coeffs = [-c for c in coeffs]
        mode, k = "le", -constant - 1
    lsd = _lsd_residual(tracks, coeffs, mode, k)
    return minimize(reverse(lsd))


def _lsd_residual(tracks, coeffs, mode, start):
    """Deterministic automaton reading digits least significant first.

    State s means: the suffix still to be read (as a number per track) must
    satisfy sum(coeff * value) = s (mode "eq") or <= s (mode "le").  Reading
    one digit tuple d with value contribution sum(coeff * d_i) rewrites the
    constraint for the quotient by the base.
    """
    base = tracks[0].base
    digit_sums = [
        sum(c * d for c, d in zip(coeffs, sym))
        for sym in itertools.product(range(base), repeat=len(coeffs))
    ]
    dead = "dead"

    def successors(s):
        if s is dead:
            return [dead] * len(digit_sums)
        if mode == "eq":
            return [dead if (s - c) % base else (s - c) // base for c in digit_sums]
        return [(s - c) // base for c in digit_sums]  # floor keeps "le" exact

    order, matrix = _explore(start, successors)
    outputs = [
        int(s is not dead and ((mode == "eq" and s == 0) or (mode == "le" and s >= 0)))
        for s in order
    ]
    return MultiTrackAutomaton(tuple(tracks), len(order), 0, outputs, matrix)
