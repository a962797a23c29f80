"""Deterministic multi-track automata over tuples of base-k digits.

A word is a sequence of digit tuples, one digit per track, most significant
digit first.  A tuple of natural numbers is encoded by writing each number in
its track's base and left-padding every track with zeros to a common length;
the number 0 is the empty string.  All automata built here are kept complete
(every state has a successor on every tuple) and, once minimized, padding
closed: prepending the all-zero tuple never changes membership, so any
sufficiently long common padding encodes the same tuple of values.

One class serves relations and automata with output, as in Walnut
(Shallit, *The Logical Approach to Automatic Sequences*, LMS LN 482, 2022):
every state has an integer output, and a relation is an automaton whose
outputs are 0 and 1; it accepts the words that lead to output 1.  Automata
are stored as Walnut-style text (Mousavi, "Automatic Theorem Proving in
Walnut", arXiv:1603.06017): a header naming each track's number system,
then for each state a line "q output" and its "digits -> q" transitions.
A relation's text may leave a transition out, which goes to a rejecting
sink; an automaton with output reads one track and gives every transition.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from operator import itemgetter

from .errors import AutomatonError, BaseMismatchError, CompileError, RegexError

__all__ = [
    "NumberSystem",
    "Track",
    "MultiTrackAutomaton",
    "OP_AND",
    "OP_OR",
    "OP_XOR",
    "OP_IMPLIES",
    "OP_IFF",
    "product",
    "complement",
    "project",
    "determinize",
    "minimize",
    "reverse",
    "is_empty",
    "reachable",
    "coreachable",
    "language_equal",
    "find_witness",
    "from_regex",
    "to_digits",
    "from_digits",
    "decode_word",
]


@dataclass(frozen=True)
class NumberSystem:
    """Positional numeration in a fixed base, most significant digit first."""

    base: int

    def __post_init__(self):
        if self.base < 2:
            raise BaseMismatchError(f"base must be at least 2, got {self.base}")

    @classmethod
    def parse(cls, text: str) -> "NumberSystem":
        m = re.fullmatch(r"msd_(\d+)", text.strip())
        if not m:
            raise BaseMismatchError(f"unknown number system {text!r}")
        try:
            return cls(int(m.group(1)))
        except ValueError:  # more digits than Python converts to an int
            raise BaseMismatchError(
                f"the base of number system {text[:12]}... has {len(m.group(1))} digits, too many"
            ) from None

    def __str__(self):
        return f"msd_{self.base}"


@dataclass(frozen=True)
class Track:
    """A named component of a multi-track alphabet."""

    name: str
    system: NumberSystem

    @property
    def base(self) -> int:
        return self.system.base


def _natural(n) -> int:
    """n itself when it is a natural number, the only values with digit strings."""
    if not isinstance(n, int) or n < 0:
        raise CompileError(f"only natural numbers have digit strings, got {n!r}")
    return n


def to_digits(n: int, base: int) -> list[int]:
    """Canonical msd-first digits of n; 0 is the empty string."""
    _natural(n)
    out = []
    while n:
        n, d = divmod(n, base)
        out.append(d)
    out.reverse()
    return out


def from_digits(digits, base: int) -> int:
    n = 0
    for d in digits:
        if not 0 <= d < base:
            raise AutomatonError(f"digit {d} out of range for base {base}")
        n = n * base + d
    return n


def decode_word(tracks, word) -> tuple[int, ...]:
    """Per-track values encoded by a tuple word."""
    for sym in word:
        if len(sym) != len(tracks):
            raise AutomatonError(f"digit tuple {sym} does not have {len(tracks)} digits")
    return tuple(
        from_digits((sym[i] for sym in word), t.base) for i, t in enumerate(tracks)
    )


def _check_tracks(tracks):
    names = [t.name for t in tracks]
    if len(set(names)) != len(names):
        raise AutomatonError(f"duplicate track names in {names}")


class MultiTrackAutomaton:
    """A complete deterministic automaton over digit tuples with an output per state.

    transitions are stored densely: ``matrix[state][symbol_index]`` where
    symbol indices enumerate the tuple alphabet in lexicographic order, and
    ``outputs[state]`` is an integer.  ``accepting`` holds the states whose
    output is 1, the accepting states of a relation.  Instances are plain
    values, immutable once constructed, and keep no cache.
    """

    __slots__ = ("tracks", "n_states", "initial", "outputs", "accepting", "matrix")

    def __init__(self, tracks, n_states, initial, outputs, matrix):
        tracks = tuple(tracks)
        _check_tracks(tracks)
        self.tracks = tracks
        self.n_states = n_states
        self.initial = initial
        self.outputs = tuple(outputs)
        self.accepting = frozenset(q for q, out in enumerate(self.outputs) if out == 1)
        self.matrix = matrix
        if not 0 <= initial < n_states:
            raise AutomatonError("initial state out of range")
        if len(matrix) != n_states or len(self.outputs) != n_states:
            raise AutomatonError("one transition row and one output per state required")
        width = self.alphabet_size
        for row in matrix:
            if len(row) != width:
                raise AutomatonError("automaton must be complete")

    @property
    def bases(self) -> tuple[int, ...]:
        return tuple(t.base for t in self.tracks)

    @property
    def alphabet_size(self) -> int:
        return _alpha_size(self.tracks)

    @property
    def alphabet(self) -> tuple[tuple, ...]:
        return tuple(itertools.product(*(range(b) for b in self.bases)))

    def symbol_index(self, sym) -> int:
        return _symbol_index(self.bases, sym)

    def accepts(self, word) -> bool:
        q = self.initial
        for sym in word:
            q = self.matrix[q][self.symbol_index(sym)]
        return q in self.accepting

    def track_index(self, name: str) -> int:
        for i, t in enumerate(self.tracks):
            if t.name == name:
                return i
        raise AutomatonError(f"no track named {name!r} in {[t.name for t in self.tracks]}")

    def renamed(self, mapping) -> "MultiTrackAutomaton":
        """Rename tracks and restore sorted-by-name track order.

        Renaming two tracks to the same name intersects them with the
        diagonal: the result reads the merged track's digit on both.
        """
        parts = [Track(mapping.get(t.name, t.name), t.system) for t in self.tracks]
        out_tracks = _merge_tracks(parts)
        # a name shared by several source tracks feeds all of them the same
        # digit, which is exactly the diagonal restriction
        src_index = _projection_table(out_tracks, parts)
        matrix = [[row[j] for j in src_index] for row in self.matrix]
        return MultiTrackAutomaton(out_tracks, self.n_states, self.initial, self.outputs, matrix)

    def where(self, value: int) -> "MultiTrackAutomaton":
        """The relation of the words whose output is ``value``."""
        outputs = [int(out == value) for out in self.outputs]
        return MultiTrackAutomaton(self.tracks, self.n_states, self.initial, outputs, self.matrix)

    def to_text(self) -> str:
        """Serialize; track names are not stored, only their number systems."""
        return _write_text(self.tracks, self.outputs, self.matrix, self.initial)

    @classmethod
    def from_text(cls, text: str, names=None) -> "MultiTrackAutomaton":
        """Read a relation's ``to_text()``: outputs 0 or 1, and a missing
        transition goes to a fresh sink of output 0."""
        tracks, outputs, matrix, headers = _read_text(text, names)
        for out, line in zip(outputs, headers):
            if out not in (0, 1):
                raise AutomatonError(f"bad automaton line {line!r}: acceptance must be 0 or 1")
        if any(None in row for row in matrix):
            n = len(matrix)
            matrix = [[n if t is None else t for t in row] for row in matrix]
            matrix.append([n] * len(matrix[0]))
            outputs.append(0)
        return cls(tracks, len(matrix), 0, outputs, matrix)

    @classmethod
    def from_output_text(cls, text: str) -> "MultiTrackAutomaton":
        """Read an automaton with output: one track, and every transition given."""
        tracks, outputs, matrix, headers = _read_text(text)
        if len(tracks) != 1:
            raise AutomatonError(
                f"bad automaton line {text.splitlines()[0]!r}: "
                f"an automaton with output reads one number system, not {len(tracks)}"
            )
        for row, line in zip(matrix, headers):
            if None in row:
                raise AutomatonError(
                    f"bad automaton line {line!r}: no transition on digit {row.index(None)}"
                )
        return cls(tracks, len(matrix), 0, outputs, matrix)

    def __repr__(self):
        sig = ",".join(f"{t.name}:{t.system}" for t in self.tracks)
        return f"<MultiTrackAutomaton [{sig}] {self.n_states} states>"


def _write_text(tracks, outputs, matrix, initial) -> str:
    """The text of an automaton, as ``_read_text`` reads it back.

    A header line names the number system of each track.  Each state q
    follows with the line "q output" and one line "digits -> target" per
    digit tuple, in symbol order; the empty tuple is written "-".  The
    reader starts in state 0, so states 0 and ``initial`` swap numbers.
    """
    symbols = [
        " ".join(map(str, sym)) if sym else "-"
        for sym in itertools.product(*(range(t.base) for t in tracks))
    ]
    number = list(range(len(matrix)))
    number[0], number[initial] = initial, 0  # its own inverse
    lines = [" ".join(str(t.system) for t in tracks)]
    for q, old in enumerate(number):
        lines.append(f"{q} {outputs[old]}")
        lines.extend(f"{digits} -> {number[t]}" for digits, t in zip(symbols, matrix[old]))
    return "\n".join(lines) + "\n"


def _read_text(text: str, names=None):
    """Tracks, outputs, transition rows and header line of each state.

    Reads what ``_write_text`` writes: the first line is the header even when
    blank (no tracks), and later blank lines are skipped.  States come in
    any order but must be numbered 0..n-1; each transition leads to one of
    them, and no state has two on one digit tuple.  ``rows[q][j]`` is q's
    target on symbol index j, or None where the text gives none.  ``names``
    gives one track name per header system (default t0, t1, ...).  Each
    error about a line names it.
    """
    if not text.strip():
        raise AutomatonError("empty automaton file")
    header, *lines = text.splitlines()
    systems = [NumberSystem.parse(tok) for tok in header.split()]
    if names is None:
        names = [f"t{i}" for i in range(len(systems))]
    elif len(names) != len(systems):
        raise AutomatonError(
            f"{len(names)} track names for the {len(systems)} number systems of {header!r}"
        )
    tracks = tuple(Track(n, s) for n, s in zip(names, systems))
    bases = tuple(s.base for s in systems)
    width = _alpha_size(tracks)
    states: dict[int, tuple] = {}  # state -> (output, row, header line)
    targets = []
    row = None
    for ln in filter(str.strip, lines):
        try:
            if "->" in ln:
                if row is None:
                    raise AutomatonError("transition before any state")
                left, right = ln.split("->")
                dest = int(right)
                sym = () if left.strip() == "-" else tuple(map(int, left.split()))
                if len(sym) != len(tracks):
                    raise AutomatonError(f"expected {len(tracks)} digits")
                j = _symbol_index(bases, sym)
                if row[j] is not None:
                    raise AutomatonError(f"a second transition on digits {sym}")
                row[j] = dest
                targets.append((dest, ln))
            else:
                state, out = map(int, ln.split())
                if state < 0 or state in states:
                    raise AutomatonError(f"state {state} is negative or repeated")
                row = [None] * width
                states[state] = (out, row, ln)
        except (ValueError, AutomatonError) as exc:
            raise AutomatonError(f"bad automaton line {ln!r}: {exc}") from None
    if not states:
        raise AutomatonError("automaton text declares no states")
    for q in range(max(states) + 1):
        if q not in states:
            raise AutomatonError(f"state {q} is never declared")
    for dest, ln in targets:
        if dest not in states:
            raise AutomatonError(f"bad automaton line {ln!r}: state {dest} is never declared")
    outputs, rows, headers = zip(*(states[q] for q in range(len(states))))
    return tracks, list(outputs), list(rows), headers


# The most digit tuples an alphabet may have; every alphabet is sized by
# _alpha_size before its tuples are listed.  A state keeps one 8-byte
# reference per tuple, 512 KiB at 2**16, so past it a few hundred states
# take gigabytes.  The corpus peaks at 256 tuples, 256 times below.
ALPHABET_BUDGET = 2**16


def _alpha_size(tracks) -> int:
    """Number of digit tuples over ``tracks``; CompileError past ALPHABET_BUDGET."""
    size = 1
    for t in tracks:
        size *= t.base
    if size > ALPHABET_BUDGET:
        bases = ", ".join(str(t.base) for t in tracks)
        raise CompileError(
            f"tracks in bases {bases} have {size} digit tuples, "
            f"more than the alphabet budget of {ALPHABET_BUDGET}"
        )
    return size


def _symbol_index(bases, sym) -> int:
    """Index of a digit tuple: mixed radix, the first track most significant."""
    idx = 0
    for d, b in zip(sym, bases):
        if not 0 <= d < b:
            raise AutomatonError(f"digit tuple {sym} out of range for {bases}")
        idx = idx * b + d
    return idx


OP_AND = lambda x, y: x and y
OP_OR = lambda x, y: x or y
OP_XOR = lambda x, y: x != y
OP_IMPLIES = lambda x, y: (not x) or y
OP_IFF = lambda x, y: x == y


def _merge_tracks(tracks):
    """One track per name, in sorted name order; a name keeps one base."""
    by_name: dict[str, NumberSystem] = {}
    for t in tracks:
        if by_name.setdefault(t.name, t.system) != t.system:
            raise BaseMismatchError(
                f"track {t.name!r} used with both {by_name[t.name]} and {t.system}"
            )
    return tuple(Track(name, by_name[name]) for name in sorted(by_name))


def _projection_table(merged, part):
    """For each symbol index over ``merged``, the symbol index seen by ``part``.

    Tracks are matched by name.  A merged track that ``part`` lacks is
    ignored; a name that ``part`` repeats gives the merged track's digit to
    every one of its positions, so ``part`` only sees the diagonal of those
    positions.  This is the one map between the symbol indices of two track
    sets: products, projections, renamings, counting and function tables all
    read their alphabets through it.
    """
    # a digit on a part track adds digit * weight, summed over the positions
    # carrying its name; other tracks add nothing
    weight, w = {}, 1
    for t in reversed(part):
        weight[t.name] = weight.get(t.name, 0) + w
        w *= t.base
    table = [0]
    for t in merged:
        w = weight.get(t.name, 0)
        table = [x + d * w for x in table for d in range(t.base)]
    return table


def _explore(start, successors):
    """Breadth-first numbering of the keys reachable from ``start``.

    ``successors(key)`` lists a key's successor keys by symbol index.  Keys
    are numbered in the order they are first met, walking the numbered keys
    in turn and each one's successors in symbol order, so the numbering is
    canonical for a given successor function.  Returns ``(order, matrix)``:
    ``order[i]`` is the key numbered i and ``matrix[i]`` the numbers of its
    successors.  This is the one place where the kernel numbers states:
    products, subset constructions, quotients and the residual automata of
    ``numeration`` and ``synchronized`` all come out of it.  Most rows hold
    no new key, so they are mapped in one pass and walked only when a key
    is missing.
    """
    ids = {start: 0}
    order = [start]
    matrix = []
    for key in order:
        keys = successors(key)
        row = list(map(ids.get, keys))
        if None in row:
            for j, k in enumerate(keys):
                if row[j] is None:
                    s = ids.get(k)
                    if s is None:
                        s = ids[k] = len(order)
                        order.append(k)
                    row[j] = s
        matrix.append(row)
    return order, matrix


def product(a: MultiTrackAutomaton, b: MultiTrackAutomaton, op) -> MultiTrackAutomaton:
    """Synchronous product over the union of the two track sets.

    Tracks are matched by name; each operand ignores digits on tracks it
    does not carry.  ``op`` combines the outputs of the two parts into an
    int.  Only state pairs reachable from the initial pair are materialized.
    For ``OP_AND`` all pairs holding a rejecting sink (output 0, every
    transition back to itself) are one state; every such caller minimizes.
    """
    merged = _merge_tracks(a.tracks + b.tracks)
    _alpha_size(merged)  # within the budget before its tuples are listed
    pairs = list(zip(_projection_table(merged, a.tracks), _projection_table(merged, b.tracks)))
    # a state pair (qa, qb) is keyed by the integer qa << shift | qb, a's rows
    # shifted once so that a key is one OR; a merged sink is keyed by all ones,
    # which absorbs the other side and which no real qb fills
    shift = b.n_states.bit_length()
    mask, dead = (1 << shift) - 1, (1 << shift + a.n_states.bit_length()) - 1
    code_a, code_b = (
        [dead if op is OP_AND and not m.outputs[q] and row.count(q) == len(row) else q << s
         for q, row in enumerate(m.matrix)]
        for m, s in ((a, shift), (b, 0))
    )
    amat = [list(map(code_a.__getitem__, row)) for row in a.matrix]
    bmat = [list(map(code_b.__getitem__, row)) for row in b.matrix]

    def successors(key):
        if key == dead:
            return [dead] * len(pairs)
        rowa, rowb = amat[key >> shift], bmat[key & mask]
        return [rowa[x] | rowb[y] for x, y in pairs]

    order, matrix = _explore(code_a[a.initial] | code_b[b.initial], successors)
    out_a, out_b = a.outputs, b.outputs
    outputs = [0 if k == dead else int(op(out_a[k >> shift], out_b[k & mask])) for k in order]
    return MultiTrackAutomaton(merged, len(order), 0, outputs, matrix)


def complement(a: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """Flip acceptance; sound because every automaton here is complete."""
    outputs = [int(out != 1) for out in a.outputs]
    return MultiTrackAutomaton(a.tracks, a.n_states, a.initial, outputs, a.matrix)


def determinize(tracks, initial, accepting, trans) -> MultiTrackAutomaton:
    """Subset construction; the empty subset becomes the rejecting sink.

    ``trans[q][j]`` is the frozenset of states reached from q on symbol j,
    in the rows that ``project``, ``reverse`` and ``from_regex`` build.
    Subsets are numbered in breadth-first order from ``initial`` and accept
    when they meet ``accepting``.  A singleton subset takes its state's row
    as is; a larger one unions its states' rows column by column.
    """
    union = frozenset().union
    sink_row = [frozenset()] * _alpha_size(tracks)

    def successors(subset):
        if len(subset) == 1:
            (q,) = subset
            return trans[q]
        if subset:
            return [union(*col) for col in zip(*[trans[q] for q in subset])]
        return sink_row

    order, matrix = _explore(frozenset(initial), successors)
    outputs = [int(not accepting.isdisjoint(subset)) for subset in order]
    return MultiTrackAutomaton(tracks, len(order), 0, outputs, matrix)


def project(a: MultiTrackAutomaton, names) -> MultiTrackAutomaton:
    """Existentially remove the tracks ``names`` (one name, or a collection
    of them) in one ``determinize``, over rows that group each state's
    successors by the digits on the remaining tracks.

    Removing tracks can strand witnesses that needed more digits than the
    remaining tracks, so the initial set is closed under transitions whose
    remaining digits are all zero: the result then accepts w exactly when
    some zero-padding of w extends to an accepted full word.  That is the
    language of removing the tracks one at a time, in any order.
    """
    names = [names] if isinstance(names, str) else names
    pos = {a.track_index(name) for name in names}
    rest = tuple(t for i, t in enumerate(a.tracks) if i not in pos)
    # group the full symbol indices by the projected symbol index they map to;
    # group 0 holds the symbols whose remaining digits are all zero
    groups = [[] for _ in range(_alpha_size(rest))]
    for j, out in enumerate(_projection_table(a.tracks, rest)):
        groups[out].append(j)
    # every group holds one symbol per digit tuple of the removed tracks
    pickers = [itemgetter(*group) for group in groups]
    trans = [[frozenset(pick(row)) for pick in pickers] for row in a.matrix]
    # close the initial set under leading zero padding
    initial = reachable([pickers[0](row) for row in a.matrix], a.initial)
    return determinize(rest, initial, a.accepting, trans)


def reverse(a: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """Deterministic automaton of the mirror images of ``a``'s words.

    Subsets of ``a``'s states, fed their predecessor rows, start from its
    accepting states and accept when they hold its initial state.  When
    every state of ``a`` is reachable, the result is minimal (Brzozowski,
    "Canonical regular expressions and minimal state graphs for definite
    events", 1962) and numbered as ``minimize`` numbers it.
    """
    preds = [[set() for _ in range(a.alphabet_size)] for _ in range(a.n_states)]
    for q, row in enumerate(a.matrix):
        for j, t in enumerate(row):
            preds[t][j].add(q)
    rows = [[frozenset(cell) for cell in row] for row in preds]
    return determinize(a.tracks, a.accepting, {a.initial}, rows)


def reachable(matrix, initial) -> list[int]:
    """States reachable from ``initial``, in breadth-first order.

    ``matrix[q]`` lists the successors of q by symbol index; the order is
    ``_explore``'s numbering, so it is canonical for a given matrix.
    """
    return _explore(initial, matrix.__getitem__)[0]


def coreachable(matrix, targets) -> set[int]:
    """States from which some state in ``targets`` is reachable.

    ``_explore`` walks the predecessor lists back from one extra key, one
    past the last state, whose predecessors are the targets.
    """
    preds = [[] for _ in matrix]
    for q, row in enumerate(matrix):
        for t in set(row):
            preds[t].append(q)
    extra = len(matrix)
    preds.append(list(targets))
    return set(_explore(extra, preds.__getitem__)[0]) - {extra}


def _refine(matrix, initial, labels):
    """Minimal quotient of the states reachable from ``initial``.

    Moore signature refinement: start from the partition by label, and in
    each round give a state the signature (class, class of each successor);
    stop when a round adds no class.  Every state takes part, reachable or
    not: a class holds states of equal behaviour, and an unreachable state
    that joins a reachable class changes none of its rows.  ``_explore``
    then numbers only the classes reachable from the initial class, so
    equal behaviours always give identical matrices.  Returns the quotient
    matrix, with initial state 0, and the label of each class.

    Each round costs O(n * width) and adds at least one class, so there are
    at most n rounds.  If a workload ever shows that quadratic bound, the
    fallback is Valmari, "Fast brief practical DFA minimization" (IPL 2012).
    """
    ids: dict = {}
    cls = [ids.setdefault(label, len(ids)) for label in labels]
    count = len(ids)
    # a picker gives the classes of a row's successors (a bare class when the
    # alphabet has a single symbol, which serves as a signature just as well)
    pickers = [itemgetter(*row) for row in matrix]
    while count < len(matrix):
        sigs: dict = {}
        cls = [sigs.setdefault((c, pick(cls)), len(sigs)) for c, pick in zip(cls, pickers)]
        if len(sigs) == count:
            break
        count = len(sigs)
    rep = [0] * count
    for q, c in enumerate(cls):
        rep[c] = q
    order, out = _explore(cls[initial], lambda c: [cls[t] for t in matrix[rep[c]]])
    return out, [labels[rep[c]] for c in order]


def minimize(a: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """Unique minimal complete automaton, states renumbered canonically.

    Moore signature refinement, starting from the partition of the states
    by output, merges indistinguishable states, and ``_explore`` numbers
    the reachable classes in breadth-first order from the initial state
    (symbols in lexicographic order), dropping the others (see
    ``_refine``).  So equal languages, and equal output functions, always
    serialize to identical bytes.
    """
    matrix, outputs = _refine(a.matrix, a.initial, a.outputs)
    return MultiTrackAutomaton(a.tracks, len(matrix), 0, outputs, matrix)


def is_empty(a: MultiTrackAutomaton) -> bool:
    return a.accepting.isdisjoint(reachable(a.matrix, a.initial))


def _check_comparable(a, b):
    if len(a.tracks) != len(b.tracks) or a.bases != b.bases:
        raise BaseMismatchError(
            f"automata read different alphabets: {a.bases} vs {b.bases}"
        )


def language_equal(a: MultiTrackAutomaton, b: MultiTrackAutomaton) -> bool:
    """Equal languages, or outputs, compared positionally (track names are ignored)."""
    _check_comparable(a, b)
    if a.tracks != b.tracks:
        b = MultiTrackAutomaton(a.tracks, b.n_states, b.initial, b.outputs, b.matrix)
    return is_empty(product(a, b, OP_XOR))


def find_witness(a: MultiTrackAutomaton):
    """Shortest accepted word, least in lexicographic order among those.

    Returns None for the empty language.  ``_explore`` numbers the states
    breadth first, so the first accepting state in its order is a nearest
    one, and the first row that reaches a state, at its first symbol, is its
    parent on a least path.  On padding-closed automata a shortest witness
    never starts with the all-zero tuple unless it is empty.
    """
    order, matrix = _explore(a.initial, a.matrix.__getitem__)
    q = next((i for i, s in enumerate(order) if s in a.accepting), None)
    if q is None:
        return None
    alphabet = a.alphabet
    word = []
    while q:
        p = next(p for p, row in enumerate(matrix) if q in row)
        word.append(alphabet[matrix[p].index(q)])
        q = p
    word.reverse()
    return word


# --- regex over digit tuples ---------------------------------------------


def _positions(text: str, bases):
    """Glushkov's position automaton of a pattern, built while parsing it.

    Each tuple literal is a position, numbered 1, 2, ... from the left;
    position 0 stands for the start.  Every parse function returns
    (nullable, first, last) for the text it read: whether it matches the
    empty word, and the positions that can begin and end a match.  ``cat``
    and ``star`` record which positions may follow a last one in ``follow``.
    Returns the symbol index over ``bases`` of each position, the successors
    of each position with ``first`` as those of 0, and the accepting
    positions: ``last``, and 0 if the pattern matches the empty word
    (Glushkov 1961; Berry & Sethi, "From regular expressions to
    deterministic automata", TCS 1986).
    """
    pos = 0
    n_tracks = len(bases)
    symbols = [None]
    follow = [set()]

    def symbol(digits):
        try:
            symbols.append(_symbol_index(bases, digits))
        except AutomatonError:
            raise RegexError(f"digit tuple {digits} out of range for bases {bases}") from None
        follow.append(set())
        p = len(follow) - 1
        return False, {p}, {p}

    def peek():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        return text[pos] if pos < len(text) else ""

    def parse_alt():
        nonlocal pos
        nullable, first, last = parse_cat()
        while peek() == "|":
            pos += 1
            n2, f2, l2 = parse_cat()
            nullable, first, last = nullable or n2, first | f2, last | l2
        return nullable, first, last

    def parse_cat():
        # the empty concatenation, as in "()", matches only the empty word
        nullable, first, last = True, set(), set()
        while peek() not in ("", ")", "|"):
            n2, f2, l2 = parse_star()
            for p in last:
                follow[p] |= f2
            if nullable:
                first = first | f2
            last = last | l2 if n2 else l2
            nullable = nullable and n2
        return nullable, first, last

    def parse_star():
        nonlocal pos
        nullable, first, last = parse_atom()
        while peek() == "*":
            pos += 1
            for p in last:
                follow[p] |= first
            nullable = True
        return nullable, first, last

    def parse_atom():
        nonlocal pos
        c = peek()
        if c == "(":
            pos += 1
            node = parse_alt()
            if peek() != ")":
                raise RegexError(f"unbalanced parenthesis in {text!r}")
            pos += 1
            return node
        if c == "[":
            pos += 1
            digits = []
            while True:
                c = peek()
                if c == "]":
                    pos += 1
                    break
                if c == ",":
                    pos += 1
                    continue
                m = re.match(r"\d+", text[pos:])
                if not m:
                    raise RegexError(f"expected digit in tuple literal of {text!r}")
                try:
                    digits.append(int(m.group()))
                except ValueError:  # more digits than Python converts to an int
                    raise RegexError(
                        f"the tuple literal digit at offset {pos} has {len(m.group())} characters, too many"
                    ) from None
                pos += len(m.group())
            if len(digits) != n_tracks:
                raise RegexError(
                    f"tuple literal {digits} has {len(digits)} digits, expected {n_tracks}"
                )
            return symbol(tuple(digits))
        if c.isdigit():
            if n_tracks != 1:
                raise RegexError(
                    "bare digits are only allowed for single-track patterns; use [..] tuples"
                )
            pos += 1
            return symbol((int(c),))
        raise RegexError(f"unexpected character {c!r} in pattern {text!r}")

    nullable, follow[0], last = parse_alt()
    if peek():
        raise RegexError(f"trailing input in pattern {text!r}")
    return symbols, follow, last | {0} if nullable else last


def from_regex(systems, pattern: str) -> MultiTrackAutomaton:
    """Compile a tuple-literal regular expression, then close it under padding.

    ``systems`` lists one number system per track (objects or "msd_k"
    strings), named t0, t1, ...  The pattern's positions, read literally,
    are closed so that leading all-zero tuples may be freely added or
    removed, then determinized: the result accepts exactly the encodings of
    the values the pattern denotes, and is complete and minimal.  A pattern
    nested too deeply to parse raises ``RegexError``.
    """
    parsed = [NumberSystem.parse(s) if isinstance(s, str) else s for s in systems]
    tracks = [Track(f"t{i}", s) for i, s in enumerate(parsed)]
    try:
        symbols, follow, accepting = _positions(pattern, [t.base for t in tracks])
    except RecursionError:
        raise RegexError("the pattern nests too deeply to parse") from None
    # state 0 is the start and state p is position p, entered on its symbol
    rows = [[set() for _ in range(_alpha_size(tracks))] for _ in follow]
    for row, succ in zip(rows, follow):
        for p in succ:
            row[symbols[p]].add(p)
    # close the start under leading zero tuples (symbol index 0), as project
    # does: the start loops on zero, and every state reached from it on
    # zeros starts too
    rows[0][0].add(0)
    initial = reachable([row[0] for row in rows], 0)
    trans = [[frozenset(cell) for cell in row] for row in rows]
    return minimize(determinize(tracks, initial, accepting, trans))
