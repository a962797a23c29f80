"""Independent routes the tests compare the engine against, and test-only helpers.

A carry adder, a digitwise comparator and a doubling chain of adders
assemble the same relations that ``rslogic.numeration.linear_atom``
compiles in one pass.  ``plain_sync_table`` is ``sync_table`` without its
kernel memo: it walks every input prefix from the engine's start frontier.
``plain_eval_linrep`` is ``eval_linrep`` without its cached reduced form: it
multiplies at the raw rank and pads every input until the count settles.
``plain_minimize_schutzenberger`` is the Schützenberger reduction over
Fractions: it reduces every candidate once to insert it and again to
express it in the inserted basis.  ``plain_product`` is ``product`` with
every reachable state pair its own state, also where one side is a
rejecting sink; ``plain_product_pairs`` lists those pairs.
``plain_project`` and ``plain_reverse`` are ``project`` and ``reverse`` as
subset constructions over frozensets of states, one symbol at a time.
``plain_minimize`` is ``minimize`` by Moore refinement of every state,
reachable or not, whose quotient ``_explore`` walks and numbers again.
These stay deliberately separate from the engine code they check.  The
encoder ``encode_values``, the readers ``step``, ``accepts_values`` and
``value_of_word``, the test ``is_padding_closed``, the base-2 sign table
``rudin_shapiro_dfao2``, ``define_derived_sync`` and the call counter
``count_kernel_calls`` serve only the tests.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction

from rslogic import automata
from rslogic.automata import (
    MultiTrackAutomaton,
    NumberSystem,
    OP_AND,
    Track,
    _alpha_size,
    _explore,
    _symbol_index,
    coreachable,
    minimize,
    product,
    project,
    reverse,
    to_digits,
)
from rslogic.errors import AutomatonError, CompileError, DivergenceError, FunctionalityError
from rslogic.linrep import LinearRepresentation
from rslogic.logic import compile_formula, find_counterexample
from rslogic.numeration import RELATIONS, linear_atom
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
    outputs = {
        "=": [1, 0, 0],
        "!=": [0, 1, 1],
        "<": [0, 1, 0],
        "<=": [1, 1, 0],
        ">": [0, 0, 1],
        ">=": [1, 0, 1],
    }[rel]
    return minimize(MultiTrackAutomaton(tracks, 3, 0, outputs, matrix))


def build_add(system: NumberSystem, names=("x", "y", "z")) -> MultiTrackAutomaton:
    """Addition relation x + y = z from the classic carry automaton.

    The carry machine naturally reads digits least significant first, so it
    is built that way and then reversed into a deterministic msd-first
    automaton.
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
    lsd = MultiTrackAutomaton(tracks, 3, 0, [1, 0, 0], matrix)
    return minimize(reverse(lsd))


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


def _trivial(tracks, truth: bool) -> MultiTrackAutomaton:
    """The one-state relation over ``tracks`` holding always or never."""
    return MultiTrackAutomaton(tuple(tracks), 1, 0, [int(truth)], [[0] * _alpha_size(tracks)])


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


def plain_product_pairs(a, b):
    """Tracks, reachable state pairs and rows of the synchronous product.

    Pairs are numbered breadth first, symbols in order, over the sorted
    union of the track names; every reachable pair is its own state.
    """
    systems = {t.name: t.system for t in a.tracks + b.tracks}
    tracks = tuple(Track(name, systems[name]) for name in sorted(systems))
    alphabet = list(itertools.product(*(range(t.base) for t in tracks)))
    column = {t.name: i for i, t in enumerate(tracks)}

    def symbols(m):
        # the symbol index m reads for each symbol of the product
        cols = [column[t.name] for t in m.tracks]
        return [_symbol_index(m.bases, tuple(sym[i] for i in cols)) for sym in alphabet]

    columns = list(zip(symbols(a), symbols(b)))
    start = (a.initial, b.initial)
    ids, order, matrix = {start: 0}, [start], []
    for qa, qb in order:
        row = []
        for x, y in columns:
            pair = (a.matrix[qa][x], b.matrix[qb][y])
            if pair not in ids:
                ids[pair] = len(order)
                order.append(pair)
            row.append(ids[pair])
        matrix.append(row)
    return tracks, order, matrix


def plain_product(a, b, op) -> MultiTrackAutomaton:
    """``product`` without merging the pairs that hold a rejecting sink."""
    tracks, order, matrix = plain_product_pairs(a, b)
    outputs = [int(op(a.outputs[qa], b.outputs[qb])) for qa, qb in order]
    return MultiTrackAutomaton(tracks, len(order), 0, outputs, matrix)


def _plain_determinize(tracks, initial, accepting, trans) -> MultiTrackAutomaton:
    """Subset construction over frozensets, numbered breadth first, symbols in order.

    ``trans[q][j]`` is the set of states reached from q on symbol j.
    """
    width = _alpha_size(tracks)
    start = frozenset(initial)
    ids, order, matrix = {start: 0}, [start], []
    for subset in order:
        row = []
        for j in range(width):
            succ = frozenset().union(*(trans[q][j] for q in subset))
            if succ not in ids:
                ids[succ] = len(order)
                order.append(succ)
            row.append(ids[succ])
        matrix.append(row)
    outputs = [int(not subset.isdisjoint(accepting)) for subset in order]
    return MultiTrackAutomaton(tracks, len(order), 0, outputs, matrix)


def plain_project(a, names) -> MultiTrackAutomaton:
    """``project`` of the tracks ``names``, unminimized, over frozensets of states.

    A state's set on a remaining symbol holds its successors on every full
    symbol showing those remaining digits, and the initial set holds what
    the initial state reaches on symbols whose remaining digits are all zero.
    """
    keep = [i for i, t in enumerate(a.tracks) if t.name not in names]
    rest = tuple(a.tracks[i] for i in keep)
    bases = tuple(t.base for t in rest)
    # the remaining symbol that each full symbol shows
    seen = [_symbol_index(bases, tuple(sym[i] for i in keep)) for sym in a.alphabet]
    trans = [
        [frozenset(t for t, s in zip(row, seen) if s == j) for j in range(_alpha_size(rest))]
        for row in a.matrix
    ]
    initial, todo = {a.initial}, [a.initial]
    while todo:
        for t in trans[todo.pop()][0]:
            if t not in initial:
                initial.add(t)
                todo.append(t)
    return _plain_determinize(rest, initial, a.accepting, trans)


def plain_reverse(a) -> MultiTrackAutomaton:
    """``reverse``, over frozensets of predecessors."""
    preds = [[set() for _ in range(a.alphabet_size)] for _ in range(a.n_states)]
    for q, row in enumerate(a.matrix):
        for j, t in enumerate(row):
            preds[t][j].add(q)
    return _plain_determinize(a.tracks, a.accepting, {a.initial}, preds)


def plain_minimize(a) -> MultiTrackAutomaton:
    """``minimize`` as Moore refinement followed by a walk of the quotient.

    Every state takes part, reachable or not, starting from the partition
    by output; each round gives a state the signature (class, class of each
    successor), and a round that adds no class ends it.  ``_explore`` then
    numbers the classes reachable from the initial one, reading each class's
    row off its last member.
    """
    ids: dict = {}
    cls = [ids.setdefault(out, len(ids)) for out in a.outputs]
    count = len(ids)
    while count < a.n_states:
        sigs: dict = {}
        cls = [sigs.setdefault((c, tuple(cls[t] for t in row)), len(sigs)) for c, row in zip(cls, a.matrix)]
        if len(sigs) == count:
            break
        count = len(sigs)
    rep = {c: q for q, c in enumerate(cls)}
    order, matrix = _explore(cls[a.initial], lambda c: [cls[t] for t in a.matrix[rep[c]]])
    outputs = [a.outputs[rep[c]] for c in order]
    return MultiTrackAutomaton(a.tracks, len(order), 0, outputs, matrix)


def count_kernel_calls(monkeypatch, names=("minimize", "project", "determinize", "product")):
    """Live call counts of the named ``rslogic.automata`` functions.

    Each counter is bound at the defining module and at every loaded
    ``rslogic`` module holding the same function, since modules import the
    kernel by name and call it through their own globals.
    """
    counts = dict.fromkeys(names, 0)
    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "rslogic"]
    for name in names:
        original = getattr(automata, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return counts


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
            if len(found) > 1:
                raise FunctionalityError(f"{sorted(found)} accepted for input {prefix}")
            if found:  # else the input stays None, a missing output
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


def _plain_mat_vec(matrix, vec):
    return [sum(x * v for x, v in zip(row, vec) if x) for row in matrix]


def plain_eval_linrep(rep, values):
    """Value at the given parameter values, padding until the count settles.

    Extra leading zero tuples can only reveal more completions, and the
    padded values obey a linear recurrence of order at most the rank, so
    rank+1 equal consecutive values certify convergence.
    """
    if isinstance(values, int):
        values = (values,)
    if len(values) != len(rep.systems):
        raise CompileError(f"expected {len(rep.systems)} values, got {len(values)}")
    bases = [s.base for s in rep.systems]
    digit_rows = [to_digits(v, b) for v, b in zip(values, bases)]
    length = max((len(row) for row in digit_rows), default=0)
    digit_rows = [[0] * (length - len(row)) + row for row in digit_rows]

    # suffix product gammas(word) * w once, then prepend zero symbols
    tail = rep.final
    for column in reversed(list(zip(*digit_rows))):
        tail = _plain_mat_vec(rep.gammas[_symbol_index(bases, column)], tail)
    zero = rep.gammas[0]
    needed = rep.rank + 1
    # The padded values are u_k = v Z^k t with Z = gammas[0], r x r for
    # r = rep.rank, so its characteristic polynomial p (degree r) annihilates
    # u.  If u settles at c, then w = u - c is annihilated by (x-1)p(x) of
    # degree r+1, and as w is eventually zero its minimal polynomial is x^m
    # with m <= r+1: u_k = c for all k >= m.  The run of r+1 equal values
    # u_m..u_{m+r} is then complete by u_{2r+1}; the run is checked at the
    # top of each iteration, so 2r+2 iterations decide, and a count still
    # moving then never settles.
    run = 1
    value = sum(a * b for a, b in zip(rep.initial, tail) if a)
    for _ in range(2 * rep.rank + 2):
        if run >= needed:
            break
        tail = _plain_mat_vec(zero, tail)
        nxt = sum(a * b for a, b in zip(rep.initial, tail) if a)
        run = run + 1 if nxt == value else 1
        value = nxt
    else:
        raise DivergenceError(f"count at {values} does not settle under padding")
    if value.denominator != 1:
        raise DivergenceError(f"non-integer count {value} at {values}")
    return int(value)


def _plain_vec_mat(vec, matrix):
    n = len(matrix[0]) if matrix else 0
    return [sum(x * row[j] for x, row in zip(vec, matrix) if x) for j in range(n)]


class _PlainRowSpace:
    """Echelon row space that can express members in the inserted basis."""

    def __init__(self, width):
        self.width = width
        self.rows = []  # echelon rows
        self.coords = []  # coords[i]: echelon row i in terms of inserted basis
        self.pivots = []

    def _reduce(self, vec):
        # Fractions, because x / scale on two ints would give a float
        vec = [Fraction(x) for x in vec]
        combo = [Fraction(0)] * len(self.rows)
        for row, coord, pivot in zip(self.rows, self.coords, self.pivots):
            factor = vec[pivot]
            if factor:
                for j in range(self.width):
                    vec[j] -= factor * row[j]
                for j in range(len(combo)):
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
        return True

    def express(self, vec):
        """Coordinates of vec in the inserted basis (vec must lie inside)."""
        reduced, combo = self._reduce(vec)
        if any(reduced):
            raise ValueError("vector outside the spanned space")
        return combo


def _plain_left_reduce(rep):
    # basis of span{initial * gammas(word)}; empty when initial is zero
    space = _PlainRowSpace(rep.rank)
    basis = []
    if space.insert(rep.initial):
        basis.append(list(rep.initial))
    head = 0
    while head < len(basis):
        row = basis[head]
        head += 1
        for gamma in rep.gammas:
            candidate = _plain_vec_mat(row, gamma)
            if space.insert(candidate):
                basis.append(candidate)
    if not basis:
        zero_sys = rep.systems
        return LinearRepresentation([], [[] for _ in rep.gammas], [], zero_sys)
    gammas = []
    for gamma in rep.gammas:
        gammas.append([space.express(_plain_vec_mat(row, gamma)) for row in basis])
    initial = space.express(rep.initial)
    final = [sum(row[j] * rep.final[j] for j in range(rep.rank)) for row in basis]
    return LinearRepresentation(initial, gammas, final, rep.systems)


def _plain_transposed(rep):
    gammas = [list(map(list, zip(*g))) if g else [] for g in rep.gammas]
    return LinearRepresentation(list(rep.final), gammas, list(rep.initial), rep.systems)


def plain_minimize_schutzenberger(rep):
    """Minimal-rank equivalent representation (exact two-sided reduction)."""
    rep = _plain_left_reduce(rep)
    if rep.rank == 0:
        return rep
    rep = _plain_transposed(_plain_left_reduce(_plain_transposed(rep)))
    return rep


def encode_values(tracks, values, length: int | None = None) -> list[tuple]:
    """Zero-padded tuple word encoding the given values, one per track."""
    if len(values) != len(tracks):
        raise ValueError("one value per track required")
    per = [to_digits(v, t.base) for v, t in zip(values, tracks)]
    need = max((len(p) for p in per), default=0)
    if length is None:
        length = need
    elif length < need:
        raise ValueError(f"length {length} too short, need {need}")
    padded = [[0] * (length - len(p)) + p for p in per]
    return [tuple(col) for col in zip(*padded)] if length else []


def step(automaton, state, sym):
    """The state ``automaton`` moves to from ``state`` on the digit tuple ``sym``."""
    return automaton.matrix[state][automaton.symbol_index(sym)]


def accepts_values(automaton, values, extra_padding=0):
    """Whether the automaton accepts the values, behind extra_padding zero tuples."""
    word = encode_values(automaton.tracks, values)
    if extra_padding:
        word = [tuple([0] * len(automaton.tracks))] * extra_padding + word
    return automaton.accepts(word)


def is_padding_closed(a) -> bool:
    """True iff prepending the all-zero tuple never changes the output.

    Two states of the minimal form are equal exactly when they give equal
    outputs after every suffix, so a leading zero changes no output iff
    the minimal form's initial state 0 stays put on the all-zero tuple.
    """
    return minimize(a).matrix[0][0] == 0


def value_of_word(dfao, word):
    """Output after reading word, digits or one-digit tuples, padding kept."""
    q = dfao.initial
    for d in word:
        q = dfao.matrix[q][d if isinstance(d, int) else d[0]]
    return dfao.outputs[q]


def rudin_shapiro_dfao2():
    """Base-2 output automaton computing rudin_shapiro(n).

    States are (parity of 1-pairs so far, previous bit); leading zeros are
    harmless because a zero bit never extends a 1-pair.
    """
    track = Track("n", NumberSystem(2))
    # state = 2 * parity + last_bit
    matrix = []
    outputs = []
    for q in range(4):
        parity, last = divmod(q, 2)
        row = []
        for bit in (0, 1):
            p2 = parity ^ (last & bit)
            row.append(2 * p2 + bit)
        matrix.append(row)
        outputs.append(-1 if parity else 1)
    return MultiTrackAutomaton((track,), 4, 0, outputs, matrix)


def define_derived_sync(env, name, formula):
    """Compile and register a two-track relation, then prove it functional.

    The first track is the argument, the second the value.  A relation
    mapping some argument to two values is dropped again and rejected with
    a witness.  Totality is not required: derived relations may be partial.
    """
    automaton = compile_formula(env, formula)
    if len(automaton.tracks) != 2:
        raise FunctionalityError(
            f"expected 2 free variables, found {[t.name for t in automaton.tracks]}"
        )
    env.register_relation(name, automaton)
    relation = env.relation(name)
    in_sys = relation.automaton.tracks[0].system
    out_sys = relation.automaton.tracks[1].system
    witness = find_counterexample(
        env,
        f"?{in_sys} An,x,y (${name}(n,x) & ${name}(n,y)) => (?{out_sys} x=y)",
    )
    if witness is not None:
        del env.relations[name]
        raise FunctionalityError(f"{name} maps an argument to two values: {witness}")
    return relation
