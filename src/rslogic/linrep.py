"""Linear representations counting accepted completions of an automaton.

A representation (v, gammas, w) computes v * gammas(d1) * ... * gammas(dk) * w
over the digit tuples of its listed parameters.  Built from a relation
automaton, the result counts, for each valuation of the listed parameters,
how many valuations of the remaining tracks are accepted alongside it.
Raw and subtracted representations hold Python ints.  Minimization
eliminates in integers: each echelon row of its row space is an integer
combination of the inserted basis, and only the coordinates it returns
are rationals.  Evaluation reads every representation through one
reader, built in full by the first eval_linrep: the Schützenberger-minimal
form, its start vector behind r+1 leading zeros, one table of the
matrices it steps through, and each entry times the final vector.  A
k-regular sequence is also k^b-regular, its matrices the products over
b-digit blocks (Allouche & Shallit, "The ring of k-regular sequences",
1992), so a one-track form is read a block of digits per step, b as large
as a table of BLOCK_CELLS ints allows.  The least significant block is one
lookup of the entry times the final vector, every further block one
matrix-vector step.  One exact test decides whether a count settles under
padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import gcd, lcm
from operator import mul

from .automata import (
    _alpha_size, _natural, _projection_table, coreachable, reachable
)
from .errors import CompileError, DivergenceError

__all__ = [
    "LinearRepresentation",
    "count_representation",
    "eval_linrep",
    "is_zero",
    "minimize_schutzenberger",
    "subtract",
]

# A one-track table holds at most BLOCK_CELLS ints: a form of reduced rank r
# reads b digits per step, b the largest with base**b * max(r, 1)**2 <=
# BLOCK_CELLS and at least 1, so the table costs about base**b * r**3 to
# build.  Rank 2 in base 2 (satz22) reads 8 digits a step; from rank 17 in
# base 2 a form reads one digit a step and multiplies nothing.  Every other
# form reads one digit tuple per step through its gammas.  A flat 256-entry
# table also read base 2 in 8-digit steps, but the benchmark's counting
# evals_per_s then spread by an IQR of 4.8k/s over ten runs, above the
# 3.7k/s that 15 % of the digit-at-a-time reader's median allowed.  With
# this rule and tails, ten 30 s runs on a 2-vCPU VM (Python 3.11.7) gave a
# median of 128k/s and an IQR of 1.6k/s (ROADMAP, open item 7).
BLOCK_CELLS = 2**10


@dataclass
class LinearRepresentation:
    """v * gammas(d1) * ... * gammas(dk) * w over the listed parameters' digits.

    An instance is treated as immutable once evaluated: the first
    eval_linrep caches the form it reads the entries through.
    """

    initial: list  # 1 x r
    gammas: list  # one r x r matrix per digit tuple, mixed-radix order
    final: list  # r x 1
    systems: list  # number system per listed parameter

    @cached_property
    def _reader(self):
        """(form, start, settled, radices, table, tails): what eval_linrep reads.

        form is minimize_schutzenberger(self) (rank 0 when the series is
        identically 0).  With Z the zero digit's matrix of form and r its
        rank, start is v_{r+1} = initial * Z^{r+1}, its integral entries as
        ints, and settled says whether start * Z == start.  A step reads one
        block of track i below radices[i], packed into u in mixed radix, the
        first track most significant, and table[u] is the product of form's
        gammas over that block's digits.  A one-track form reads blocks of
        the b digits that fit BLOCK_CELLS, so its table holds the b-fold
        products in order, the first digit most significant; any other form
        reads one digit tuple per step, and its table is form.gammas.
        tails[u] = table[u] * form.final reads the least significant block.
        """
        form = minimize_schutzenberger(self)
        zero = _transpose(form.gammas[0])  # start * Z = _mat_vec(zero, start)
        start = form.initial
        for _ in range(form.rank + 1):
            start = _mat_vec(zero, start)
        start = [int(x) if x.denominator == 1 else x for x in start]
        radices, table = [s.base for s in self.systems], form.gammas
        if len(radices) == 1:
            columns = [_transpose(g) for g in form.gammas]
            while len(table) * radices[0] * max(form.rank, 1) ** 2 <= BLOCK_CELLS:
                table = [[_mat_vec(c, row) for row in a] for a in table for c in columns]
            radices = [len(table)]
        tails = [_mat_vec(a, form.final) for a in table]
        return form, start, _mat_vec(zero, start) == start, radices, table, tails

    @property
    def rank(self):
        return len(self.initial)

    def to_text(self):
        """Serialize: rank, systems, initial, final, one matrix per digit."""
        lines = [str(self.rank), " ".join(str(s) for s in self.systems)]
        lines.append(" ".join(str(x) for x in self.initial))
        lines.append(" ".join(str(x) for x in self.final))
        for matrix in self.gammas:
            lines.append("")
            for row in matrix:
                lines.append(" ".join(str(x) for x in row))
        return "\n".join(lines) + "\n"


def count_representation(automaton, params):
    """Representation counting accepted completions over unlisted tracks."""
    names = [t.name for t in automaton.tracks]
    missing = [p for p in params if p not in names]
    if missing:
        raise CompileError(f"listed parameters {missing} are not free variables")
    if len(set(params)) != len(params):
        raise CompileError(f"listed parameters {list(params)} repeat a name")
    listed = [automaton.tracks[names.index(p)] for p in params]
    systems = [t.system for t in listed]
    width = _alpha_size(listed)

    keep = coreachable(automaton.matrix, automaton.accepting).intersection(
        reachable(automaton.matrix, automaton.initial)
    )
    if not keep:
        return LinearRepresentation([0], [[[0]]] * width, [0], systems)
    order = sorted(keep)
    rename = {q: i for i, q in enumerate(order)}
    size = len(order)

    # every symbol adds one to the entry (q, dest) of the gamma of the
    # listed digits it carries, so unlisted digits are summed out
    gammas = [[[0] * size for _ in range(size)] for _ in range(width)]
    listed_index = _projection_table(automaton.tracks, listed)
    for q in order:
        i = rename[q]
        for g, dest in zip(listed_index, automaton.matrix[q]):
            k = rename.get(dest)
            if k is not None:
                gammas[g][i][k] += 1

    initial = [0] * size
    initial[rename[automaton.initial]] = 1
    final = [1 if q in automaton.accepting else 0 for q in order]
    return LinearRepresentation(initial, gammas, final, systems)


def _mat_vec(matrix, vec):
    return [sum(map(mul, row, vec)) for row in matrix]


def eval_linrep(rep, values):
    """Value at the given parameter values, once padding no longer changes it.

    Every value is read through the representation's one cached reader
    (LinearRepresentation._reader): t = gammas(word) * w at the reduced
    rank r, one table entry per step, and the count behind r+1 leading
    zeros is start * t.  A settled form stops there; any other form takes r more
    zero steps, one exact test of whether the count settles.
    """
    if not isinstance(values, (tuple, list)):
        values = (values,)
    if len(values) != len(rep.systems):
        raise CompileError(f"expected {len(rep.systems)} values, got {len(values)}")
    rest = [_natural(v) for v in values]

    form, start, settled, radices, table, tails = rep._reader
    # suffix product gammas(word) * w, least significant block first through
    # tails, then prepend zero symbols.  The first block is always read, so
    # the word is padded with e <= b leading zero symbols (n = 0 reads one
    # whole zero block) and start * t is u_{r+1+e} below, not u_{r+1}.
    # A settled form has start * Z = start, so e changes nothing.  Otherwise
    # the test below checks u_{r+1+e+j} for j = 1..r, and by the argument
    # there a count that settles at c is c from u_{r+1} on, and r+1 equal
    # values from any index on settle it: for any padding e, the padded and
    # unpadded word both raise, or both return the same c.
    tail = None
    while tail is None or any(rest):
        u = 0
        for i, radix in enumerate(radices):
            rest[i], block = divmod(rest[i], radix)
            u = u * radix + block
        tail = tails[u] if tail is None else _mat_vec(table[u], tail)
    value = sum(map(mul, start, tail))
    if not settled:
        # The count behind k zeros is u_k = v Z^k t, and Z's characteristic
        # polynomial p (degree r) annihilates u.  If u settles at c, then
        # u - c is annihilated by (x-1)p(x) and is eventually zero, so its
        # minimal polynomial x^m divides (x-1)p(x): x^m | p, so m <= r and
        # u_{r+1} = ... = u_{2r+1} = c.  Conversely, r+1 equal values from
        # index r+1 on give u - c r+1 zeros in a row under a recurrence of
        # order r+1, so u - c = 0 from there on.  start * Z^j * t = u_{r+1+j}.
        zero = form.gammas[0]
        for _ in range(form.rank):
            tail = _mat_vec(zero, tail)
            if sum(map(mul, start, tail)) != value:
                raise DivergenceError(f"count at {values} does not settle under padding")
    if value.denominator != 1:
        raise DivergenceError(f"non-integer count {value} at {values}")
    return int(value)


def subtract(rep1, rep2):
    """Block-diagonal difference rep1 - rep2."""
    if [s.base for s in rep1.systems] != [s.base for s in rep2.systems]:
        raise CompileError("representations read different digit alphabets")
    r1, r2 = rep1.rank, rep2.rank
    initial = list(rep1.initial) + list(rep2.initial)
    final = list(rep1.final) + [-x for x in rep2.final]
    gammas = []
    for g1, g2 in zip(rep1.gammas, rep2.gammas):
        top = [row + [0] * r2 for row in g1]
        bottom = [[0] * r1 + row for row in g2]
        gammas.append(top + bottom)
    return LinearRepresentation(initial, gammas, final, rep1.systems)


class _RowSpace:
    """Integer echelon space over an inserted basis B, answering in B's coordinates.

    Invariant: each echelon row is an integer vector E = K * B, where B is the
    inserted basis and K is an integer vector.  A candidate c is scaled once
    by the lcm of its denominators; each elimination step v <- a*v - f*E,
    k <- a*k + f*K, s <- a*s then keeps v = s*c - k*B in integers.
    """

    def __init__(self):
        self.rows = []  # (E, K, pivot of E), in insertion order

    def insert(self, vec):
        """vec's coordinates in B if it depends on B; else vec joins B, None."""
        s = lcm(*(x.denominator for x in vec))
        v = [x.numerator * (s // x.denominator) for x in vec]
        k = [0] * len(self.rows)
        for row, combo, pivot in self.rows:
            f = v[pivot]
            if f:
                g = gcd(row[pivot], f)
                a, f = row[pivot] // g, f // g
                v = [a * x - f * e for x, e in zip(v, row)]
                k = [a * x + f * c for x, c in zip_longest(k, combo, fillvalue=0)]
                s *= a
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            # integral coordinates stay ints, so later products skip Fraction
            return [Fraction(x, s) if x % s else x // s for x in k]
        combo = [-x for x in k] + [s]
        g = gcd(*v, *combo)
        self.rows.append(([x // g for x in v], [x // g for x in combo], pivot))
        return None


def _left_reduce(initial, columns, final, systems):
    """Representation on a basis of span{initial * gammas(word)}, found breadth first.

    columns[g] is gamma g transposed, so row * gamma = _mat_vec(columns[g], row).
    Row i of the result's gamma g holds the coordinates of basis[i] * gamma;
    the basis is empty when initial is zero.
    """
    space = _RowSpace()
    basis = []
    if space.insert(initial) is None:
        basis.append(initial)
    gammas = [[] for _ in columns]
    for row in basis:  # grows while it is walked
        for column, gamma in zip(columns, gammas):
            candidate = _mat_vec(column, row)
            coords = space.insert(candidate)
            if coords is None:
                coords = [0] * len(basis) + [1]
                basis.append(candidate)
            gamma.append(coords)
    rank = len(basis)
    gammas = [[coords + [0] * (rank - len(coords)) for coords in gamma] for gamma in gammas]
    initial = [int(i == 0) for i in range(rank)]
    return LinearRepresentation(initial, gammas, _mat_vec(basis, final), systems)


def _transpose(matrix):
    return [list(column) for column in zip(*matrix)]


def minimize_schutzenberger(rep):
    """Minimal-rank equivalent representation (exact two-sided reduction).

    The left reduction of the transpose reads the left-reduced gammas as
    its columns, and its result is transposed back.
    """
    left = _left_reduce(rep.initial, [_transpose(g) for g in rep.gammas], rep.final, rep.systems)
    if left.rank == 0:
        return left
    right = _left_reduce(left.final, left.gammas, left.initial, rep.systems)
    return LinearRepresentation(
        right.final, [_transpose(g) for g in right.gammas], right.initial, rep.systems
    )


def is_zero(rep):
    """Whether rep's series is identically 0: its minimal form has rank 0."""
    return minimize_schutzenberger(rep).rank == 0
