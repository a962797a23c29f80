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
    reverse,
)
from .errors import CompileError

__all__ = ["RELATIONS", "linear_atom"]

RELATIONS = ("=", "!=", "<", "<=", ">", ">=")

# every relation but "!=" as (sign, mode, offset): sum(c * x) REL K holds
# exactly when sign * sum(c * x) is equal to ("eq") or at most ("le")
# sign * K + offset; over the integers x < K is x <= K - 1, x >= K is -x <= -K
_READINGS = {"=": (1, "eq", 0), "<=": (1, "le", 0), "<": (1, "le", -1),
             ">=": (-1, "le", 0), ">": (-1, "le", -1)}


def linear_atom(terms, rel: str, constant: int, system: NumberSystem) -> MultiTrackAutomaton:
    """Minimal automaton for sum(coeff * var) REL constant.

    ``terms`` maps variable names to integer coefficients; every variable is
    read in the same ``system``.  Variables with coefficient 0 are dropped,
    and an atom left with none reads no track and is true or false.
    The result reads tracks in sorted name order, msd first, and is padding
    closed, complete and minimal: the residual automaton comes out of
    ``_explore`` with every state reachable, so its ``reverse`` is minimal.
    """
    if rel not in RELATIONS:
        raise CompileError(f"unknown relation {rel!r}")
    if rel == "!=":
        # the complement of a minimal automaton is minimal, and numbered alike
        return complement(linear_atom(terms, "=", constant, system))
    sign, mode, offset = _READINGS[rel]
    terms = {name: c for name, c in terms.items() if c}
    names = sorted(terms)
    tracks = tuple(Track(n, system) for n in names)
    coeffs = [sign * terms[n] for n in names]
    lsd = _lsd_residual(system, tracks, coeffs, mode, sign * constant + offset)
    return reverse(lsd)


def _lsd_residual(system, tracks, coeffs, mode, start):
    """Deterministic automaton reading digits least significant first.

    State s means: the suffix still to be read (as a number per track) must
    satisfy sum(coeff * value) = s (mode "eq") or <= s (mode "le").  Reading
    one digit tuple d with value contribution sum(coeff * d_i) rewrites the
    constraint for the quotient by the base.
    """
    base = system.base
    _alpha_size(tracks)  # within the budget before its tuples are listed
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
    return MultiTrackAutomaton(tracks, len(order), 0, outputs, matrix)
