"""Linear representations counting accepted completions of an automaton.

A representation (v, gammas, w) computes v * gammas(d1) * ... * gammas(dk) * w
over the digit tuples of its listed parameters.  Built from a relation
automaton, the result counts, for each valuation of the listed parameters,
how many valuations of the remaining tracks are accepted alongside it.
Raw and subtracted representations hold Python ints; minimization works
over exact rationals, and only a minimal representation can carry
non-integer entries.  Evaluation reduces once per representation: the
first eval_linrep caches the Schützenberger-minimal form, in ints when all
its entries are integral, and every later call multiplies at that rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .automata import (
    _alpha_size, _projection_table, coreachable, reachable, to_digits
)
from .errors import CompileError, DivergenceError


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
    # (form, settled start vector or None), built by the first eval_linrep
    _reader: tuple | None = field(default=None, init=False, repr=False, compare=False)

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


def _vec_mat(vec, matrix):
    n = len(matrix[0]) if matrix else 0
    return [sum(x * row[j] for x, row in zip(vec, matrix) if x) for j in range(n)]


def _entries(rep):
    return [*rep.initial, *rep.final, *(x for g in rep.gammas for row in g for x in row)]


def _make_reader(rep):
    """(form, settled): what eval_linrep multiplies in place of rep.

    form is minimize_schutzenberger(rep) converted to ints when every entry
    is integral (rank 0 when the series is identically 0), else rep itself.
    settled is form's start vector behind r+1 zeros when more zeros no longer
    move it, else None.
    """
    minimal = minimize_schutzenberger(rep)
    if all(x.denominator == 1 for x in _entries(minimal)):
        form = LinearRepresentation(
            [int(x) for x in minimal.initial],
            [[[int(x) for x in row] for row in g] for g in minimal.gammas],
            [int(x) for x in minimal.final],
            rep.systems,
        )
    else:
        form = rep
    zero = form.gammas[0]
    start = form.initial
    for _ in range(form.rank + 1):
        start = _vec_mat(start, zero)
    # A word's count behind k zeros is v_k * gammas(word) * w with
    # v_k = initial * Z^k.  If v_{r+1} Z = v_{r+1}, then v_k = v_{r+1} for
    # every k > r, so every count has settled by r+1 leading zeros and equals
    # v_{r+1} * gammas(word) * w: no padding loop is needed for any input.
    settled = start if _vec_mat(start, zero) == start else None
    return form, settled


def eval_linrep(rep, values):
    """Value at the given parameter values, once padding no longer changes it.

    The first call caches the reduced form and its settled start vector
    (see _make_reader); the value is then one product at the reduced rank.
    When the start vector still moves after r+1 zeros, each input runs the
    padding loop of _padded_value on the reduced form instead.
    """
    if isinstance(values, int):
        values = (values,)
    if len(values) != len(rep.systems):
        raise CompileError(f"expected {len(rep.systems)} values, got {len(values)}")
    digit_rows = [to_digits(v, s.base) for v, s in zip(values, rep.systems)]
    length = max(len(row) for row in digit_rows)
    # the word's symbol indices, mixed radix with the first track most significant
    word = [0] * length
    for row, s in zip(digit_rows, rep.systems):
        word = [g * s.base + d for g, d in zip(word, [0] * (length - len(row)) + row)]

    if rep._reader is None:
        rep._reader = _make_reader(rep)
    form, settled = rep._reader
    # suffix product gammas(word) * w once, then prepend zero symbols
    tail = form.final
    for g in reversed(word):
        tail = _mat_vec(form.gammas[g], tail)
    if settled is not None:
        value = sum(map(mul, settled, tail))
    else:
        value = _padded_value(form, tail, values)
    if value.denominator != 1:
        raise DivergenceError(f"non-integer count {value} at {values}")
    return int(value)


def _padded_value(rep, tail, values):
    zero = rep.gammas[0]
    needed = rep.rank + 1
    # The padded values are u_k = v Z^k t with Z = gammas[0], r x r for
    # r = rep.rank, so its characteristic polynomial p (degree r) annihilates
    # u.  If u settles at c, then w = u - c is annihilated by (x-1)p(x) of
    # degree r+1, and as w is eventually zero its minimal polynomial is x^m
    # with m <= r+1: u_k = c for all k >= m.  The run of r+1 equal values
    # u_m..u_{m+r} is then complete by u_{2r+1}; the run is checked at the
    # top of each iteration, so 2r+2 iterations decide, and a count still
    # moving then never settles.  The reduced form computes the same u, so
    # it decides as the raw one would.
    run = 1
    value = sum(a * b for a, b in zip(rep.initial, tail) if a)
    for _ in range(2 * rep.rank + 2):
        if run >= needed:
            break
        tail = _mat_vec(zero, tail)
        nxt = sum(a * b for a, b in zip(rep.initial, tail) if a)
        run = run + 1 if nxt == value else 1
        value = nxt
    else:
        raise DivergenceError(f"count at {values} does not settle under padding")
    return value


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
    """Echelon row space that can express members in the inserted basis."""

    def __init__(self, width):
        self.width = width
        self.rows = []  # echelon rows
        self.coords = []  # coords[i]: echelon row i in terms of inserted basis
        self.pivots = []
        self.size = 0  # inserted independent vectors

    def _reduce(self, vec):
        # Fractions, because x / scale on two ints would give a float
        vec = [Fraction(x) for x in vec]
        combo = [Fraction(0)] * self.size
        for row, coord, pivot in zip(self.rows, self.coords, self.pivots):
            factor = vec[pivot]
            if factor:
                for j in range(self.width):
                    vec[j] -= factor * row[j]
                for j in range(self.size):
                    combo[j] += factor * coord[j]
        return vec, combo

    def insert(self, vec):
        """Add vec if independent; returns True when the space grew."""
        reduced, combo = self._reduce(vec)
        pivot = next((j for j, x in enumerate(reduced) if x), None)
        if pivot is None:
            return False
        scale = reduced[pivot]
        self.rows.append([x / scale for x in reduced])
        combo = [-c / scale for c in combo] + [Fraction(1) / scale]
        for coord in self.coords:
            coord.append(Fraction(0))
        self.coords.append(combo)
        self.pivots.append(pivot)
        self.size += 1
        return True

    def express(self, vec):
        """Coordinates of vec in the inserted basis (vec must lie inside)."""
        reduced, combo = self._reduce(vec)
        if any(reduced):
            raise ValueError("vector outside the spanned space")
        return combo


def _left_reduce(rep):
    # basis of span{initial * gammas(word)}; empty when initial is zero
    space = _RowSpace(rep.rank)
    basis = []
    if space.insert(rep.initial):
        basis.append(list(rep.initial))
    head = 0
    while head < len(basis):
        row = basis[head]
        head += 1
        for gamma in rep.gammas:
            candidate = _vec_mat(row, gamma)
            if space.insert(candidate):
                basis.append(candidate)
    if not basis:
        zero_sys = rep.systems
        return LinearRepresentation([], [[] for _ in rep.gammas], [], zero_sys)
    gammas = []
    for gamma in rep.gammas:
        gammas.append([space.express(_vec_mat(row, gamma)) for row in basis])
    initial = space.express(rep.initial)
    final = [sum(row[j] * rep.final[j] for j in range(rep.rank)) for row in basis]
    return LinearRepresentation(initial, gammas, final, rep.systems)


def _transposed(rep):
    gammas = [list(map(list, zip(*g))) if g else [] for g in rep.gammas]
    return LinearRepresentation(list(rep.final), gammas, list(rep.initial), rep.systems)


def minimize_schutzenberger(rep):
    """Minimal-rank equivalent representation (exact two-sided reduction)."""
    rep = _left_reduce(rep)
    if rep.rank == 0:
        return rep
    rep = _transposed(_left_reduce(_transposed(rep)))
    return rep


def is_zero(rep):
    return minimize_schutzenberger(rep).rank == 0
