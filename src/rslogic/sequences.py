"""Integer-level reference implementations of the sequences under study.

Everything here works directly on Python integers and serves as the oracle
side of the test suite; the automata built elsewhere are checked against
these functions, never the other way around.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import accumulate, cycle
from operator import mul

from .automata import MultiTrackAutomaton, NumberSystem, Track

__all__ = [
    "pair_count",
    "rudin_shapiro",
    "running_sums",
    "partial_sums",
    "alternating_sums",
    "partial_sum_by_recurrence",
    "alternating_sum_by_recurrence",
    "pseudo_square",
    "double_zero_sign",
    "double_zero_partial_sum_by_recurrence",
    "double_zero_alternating_sum_by_recurrence",
    "rudin_shapiro_dfao4",
    "double_zero_sign_dfao4",
]


def pair_count(n: int) -> int:
    """Number of (possibly overlapping) adjacent 1-pairs in binary n."""
    return bin(n & (n >> 1)).count("1")


def rudin_shapiro(n: int) -> int:
    """+1 or -1 according to the parity of adjacent 1-pairs in binary n."""
    return -1 if pair_count(n) & 1 else 1


def running_sums(sign, limit: int, alternating: bool = False) -> Iterator[int]:
    """Sum of sign(0..n) for every n < limit, as one lazy sweep.

    With alternating set, odd-indexed terms are subtracted (even indices
    positive).  C-level iterators need no memory to close, so a MemoryError
    raised while the sweep is open ends cleanly.
    """
    terms = map(sign, range(limit))
    if alternating:
        terms = map(mul, terms, cycle((1, -1)))
    return accumulate(terms)


def partial_sums(limit: int) -> list[int]:
    """s(n), the sum of rudin_shapiro(0..n), for every n < limit."""
    return list(running_sums(rudin_shapiro, limit))


def alternating_sums(limit: int) -> list[int]:
    """t(n), the alternating sum of rudin_shapiro(0..n), for every n < limit."""
    return list(running_sums(rudin_shapiro, limit, alternating=True))


@lru_cache(maxsize=None)
def partial_sum_by_recurrence(n: int) -> int:
    """Independent route to s(n) via halving recurrences."""
    if n == 0:
        return 1
    half, r = divmod(n, 2)
    if r == 0:
        return partial_sum_by_recurrence(half) + alternating_sum_by_recurrence(half - 1)
    return partial_sum_by_recurrence(half) + alternating_sum_by_recurrence(half)


@lru_cache(maxsize=None)
def alternating_sum_by_recurrence(n: int) -> int:
    if n == 0:
        return 1
    half, r = divmod(n, 2)
    if r == 0:
        return partial_sum_by_recurrence(half) - alternating_sum_by_recurrence(half - 1)
    return partial_sum_by_recurrence(half) - alternating_sum_by_recurrence(half)


def pseudo_square(n: int) -> int:
    """Binary digits of n reinterpreted as base-4 digits."""
    return int(bin(n)[2:], 4)


def double_zero_sign(n: int) -> int:
    """+1 or -1 by parity of adjacent 0-pairs in binary n, no leading zeros."""
    if n == 0:
        return 1
    # bit i of ~(n | n >> 1) marks a 0-pair at bits i, i + 1; the mask stops below the leading 1
    pairs = bin(~(n | n >> 1) & ((1 << (n.bit_length() - 1)) - 1)).count("1")
    return -1 if pairs & 1 else 1


@lru_cache(maxsize=None)
def double_zero_partial_sum_by_recurrence(n: int) -> int:
    """Sum of double_zero_sign(0..n) via halving recurrences; 0 for n < 0."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    half, r = divmod(n, 2)
    if r == 0:
        return (
            double_zero_partial_sum_by_recurrence(half - 1)
            - double_zero_alternating_sum_by_recurrence(half)
            + 2
        )
    return (
        double_zero_partial_sum_by_recurrence(half)
        - double_zero_alternating_sum_by_recurrence(half)
        + 2
    )


@lru_cache(maxsize=None)
def double_zero_alternating_sum_by_recurrence(n: int) -> int:
    if n == 0:
        return 1
    half, r = divmod(n, 2)
    if r == 0:
        return (
            -double_zero_alternating_sum_by_recurrence(half)
            - double_zero_partial_sum_by_recurrence(half - 1)
            + 2
        )
    return (
        -double_zero_alternating_sum_by_recurrence(half)
        - double_zero_partial_sum_by_recurrence(half)
        + 2
    )


def rudin_shapiro_dfao4() -> MultiTrackAutomaton:
    """Base-4 output automaton computing rudin_shapiro(n).

    A base-4 digit is two binary digits, so each step feeds the pair
    counter twice.  Padding the base-4 string pads the binary string with
    an even number of zeros, which never changes the count.
    """
    track = Track("n", NumberSystem(4))
    matrix = []
    outputs = []
    for q in range(4):
        parity, last = divmod(q, 2)
        row = []
        for digit in range(4):
            hi, lo = divmod(digit, 2)
            p = parity ^ (last & hi) ^ (hi & lo)
            row.append(2 * p + lo)
        matrix.append(row)
        outputs.append(-1 if parity else 1)
    return MultiTrackAutomaton((track,), 4, 0, outputs, matrix)


def double_zero_sign_dfao4() -> MultiTrackAutomaton:
    """Base-4 output automaton computing double_zero_sign(n).

    Zero pairs are counted on the canonical binary string, so the machine
    idles in a start state until the first 1-bit arrives; that also makes
    it insensitive to leading padding.  State 0 is the idle state, the
    others encode (parity of 0-pairs, previous bit).
    """
    track = Track("n", NumberSystem(4))
    matrix = [[]]
    outputs = [1]
    # states 1..4: 1 + 2*parity + last_bit
    for digit in range(4):
        hi, lo = divmod(digit, 2)
        if hi == 0 and lo == 0:
            matrix[0].append(0)
        else:
            # first 1-bit arrives inside this digit; a (1, lo) pair never
            # contributes a 0-pair, so parity starts at 0
            matrix[0].append(1 + lo)
    for q in range(1, 5):
        parity, last = divmod(q - 1, 2)
        row = []
        for digit in range(4):
            hi, lo = divmod(digit, 2)
            p = parity ^ (1 if last == 0 and hi == 0 else 0) ^ (1 if hi == 0 and lo == 0 else 0)
            row.append(1 + 2 * p + lo)
        matrix.append(row)
        outputs.append(-1 if parity else 1)
    return MultiTrackAutomaton((track,), 5, 0, outputs, matrix)
