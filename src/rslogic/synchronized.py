"""Synthesis and inductive verification of synchronized function automata.

A function f is synchronized when a two-track automaton reading n and f(n)
in parallel accepts exactly the graph of f.  guess_sync builds a candidate
by exploring prefix residuals: the residual of a prefix pair (N, X) depends
only on those two values, and two prefixes are merged when probing all
suffixes up to a fixed depth cannot tell them apart.  The guess is unsound
on its own; verify_sync settles it by deciding totality, functionality, the
base case, and both inductive steps as sentences.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

from .automata import (
    MultiTrackAutomaton,
    NumberSystem,
    Track,
    _alpha_size,
    _explore,
    _projection_table,
    coreachable,
    minimize,
    product,
    to_digits,
)
from .errors import CompileError, FunctionalityError, GuessFailedError
from .logic import Environment, find_counterexample
from .parser import NAME_PATTERN
from .sequences import (
    alternating_sum_by_recurrence,
    double_zero_alternating_sum_by_recurrence,
    double_zero_partial_sum_by_recurrence,
    double_zero_sign_dfao4,
    partial_sum_by_recurrence,
    rudin_shapiro_dfao4,
)

__all__ = [
    "guess_sync",
    "sync_eval",
    "sync_table",
    "verify_sync",
    "GUESSABLE",
    "accepting_bit_mutations",
    "VerifyOutcome",
    "CheckOutcome",
]


# guess_sync reads n in base 4 and writes the value in base 2, and tells
# prefixes apart by their completions up to this many digits
GUESS_INPUT = NumberSystem(4)
GUESS_OUTPUT = NumberSystem(2)
PROBE_DEPTH = 4


def guess_sync(oracle, sample_bound=2**14, state_cap=64, *, names=("n", "y")):
    """Candidate automaton for {(n, oracle(n))}, tracks named ``names``.

    The input track ``names[0]`` reads n in GUESS_INPUT and the output track
    ``names[1]`` reads oracle(n) in GUESS_OUTPUT; the result's tracks are in
    sorted name order.  States are prefix-value pairs (N, X) identified by
    their probe signature: for every suffix length r <= PROBE_DEPTH and
    every input suffix M below sample_bound, the output suffix that would
    complete an accepted word, if any.  Equal signatures are merged, so the
    result is only a candidate until verify_sync accepts it.  The oracle is
    called once for each n below sample_bound, in increasing order, and the
    probes read that table.  A candidate that cannot even reproduce the
    sample raises GuessFailedError; growing past state_cap does too.  An
    oracle value that is not an int of at least 0, or names that are not
    two distinct variable names, raise CompileError.
    """
    for name, value in (("sample_bound", sample_bound), ("state_cap", state_cap)):
        if type(value) is not int or value < 1:
            raise CompileError(f"{name} must be an int of at least 1, got {value!r}")
    if not (
        isinstance(names, (tuple, list))
        and all(type(name) is str and re.fullmatch(NAME_PATTERN, name) for name in names)
        and len(set(names)) == len(names) == 2
    ):
        raise CompileError(f"names must be two distinct variable names, got {names!r}")
    b_in, b_out = GUESS_INPUT.base, GUESS_OUTPUT.base
    sample = list(map(oracle, range(sample_bound)))
    if set(map(type, sample)) != {int} or min(sample) < 0:
        bad = next(n for n, v in enumerate(sample) if type(v) is not int or v < 0)
        raise CompileError(f"oracle({bad}) must be an int of at least 0, got {sample[bad]!r}")

    def signature(N, X):
        rows = []
        for r in range(PROBE_DEPTH + 1):
            span = b_in**r
            first = N * span
            # the completions of X by r output digits
            low = X * b_out**r
            high = low + b_out**r
            row = [v - low if low <= v < high else None for v in sample[first : first + span]]
            row += [None] * (span - len(row))  # inputs past the sample
            rows.append(tuple(row))
        return tuple(rows)

    start = signature(0, 0)
    reps = {start: (0, 0)}  # each signature's first prefix pair

    def successors(key):
        N, X = reps[key]
        row = []
        for d_in in range(b_in):
            for d_out in range(b_out):
                child = (N * b_in + d_in, X * b_out + d_out)
                sig = signature(*child)
                reps.setdefault(sig, child)
                row.append(sig)
        if len(reps) > state_cap:
            raise GuessFailedError(
                f"more than {state_cap} candidate states; "
                "raise sample_bound or state_cap"
            )
        return row

    order, matrix = _explore(start, successors)
    outputs = [int(N < sample_bound and sample[N] == X) for N, X in map(reps.get, order)]
    in_name, out_name = names
    # the table is built with the input track first; renamed sorts the tracks
    tracks = (Track(in_name, GUESS_INPUT), Track(out_name, GUESS_OUTPUT))
    candidate = minimize(MultiTrackAutomaton(tracks, len(order), 0, outputs, matrix).renamed({}))
    # the guess must at least reproduce the sample it was built from
    try:
        found = sync_table(candidate, sample_bound, input_track=in_name)
    except FunctionalityError as exc:
        raise GuessFailedError(f"candidate disagrees with the sample: {exc}") from exc
    if found != sample:
        bad = next(n for n in range(sample_bound) if found[n] != sample[n])
        raise GuessFailedError(
            f"candidate computes {found[bad]} at {bad} but the sample says {sample[bad]}"
        )
    return candidate


def _track_positions(automaton, input_track):
    """Positions of the input and output tracks; the input defaults to the first."""
    names = [t.name for t in automaton.tracks]
    if len(names) != 2:
        raise FunctionalityError(f"expected 2 tracks, found {names}")
    pos_in = 0 if input_track is None else automaton.track_index(input_track)
    return pos_in, 1 - pos_in


def _step(move, frontier, d_in, b_out):
    """The (state, y) pairs reached from ``frontier`` on input digit d_in.

    Every state reached is live, so two pairs on one state would extend by
    one accepted suffix to one input with two outputs.  More pairs than
    states force that, and the relation is then not a function.
    """
    new = {(dest, y * b_out + d_out) for q, y in frontier for dest, d_out in move[q][d_in]}
    if len(new) > len(move):
        raise FunctionalityError("one input reaches one state with two outputs")
    return new


def _start(move, initial, b_out):
    """The frontier every input is read from: the start after leading zeros.

    An output may be longer than its input, and then the input is read
    behind zeros.  Take a padding-closed function, an input n of k digits
    and its value y of m > k digits.  Over the first m - k symbols the
    input reads 0, and the first of them carries y's leading digit.  If two
    of the m - k + 1 states along that stretch were equal, cutting out the
    loop between them would accept a shorter, hence smaller, second output
    for the same n.  So m - k < n_states, and n_states - 1 zeros are enough
    (Shallit, "Synchronized sequences", WORDS 2021; Allouche & Shallit,
    *Automatic Sequences*, ch. 6).  The walk stops early once a step leaves
    the frontier as it was: from then on every zero step repeats it, so the
    remaining zeros change nothing.  Each ``_reader`` call walks it afresh.
    """
    frontier = {(initial, 0)}
    for _ in range(len(move) - 1):
        new = _step(move, frontier, 0, b_out)
        if new == frontier:
            break
        frontier = new
    return frontier


def _reader(automaton, input_track):
    """(move, start, b_in, b_out) for reading ``input_track`` as the input.

    move[q][d_in] lists the (successor, d_out) pairs from q, dead ends
    dropped; start is ``_start``'s frontier.  Built on each call, kept nowhere.
    """
    pos_in, pos_out = _track_positions(automaton, input_track)
    tracks = automaton.tracks
    b_in, b_out = tracks[pos_in].base, tracks[pos_out].base
    d_ins = _projection_table(tracks, tracks[pos_in : pos_in + 1])
    d_outs = _projection_table(tracks, tracks[pos_out : pos_out + 1])
    live = coreachable(automaton.matrix, automaton.accepting)
    move = []
    for row in automaton.matrix:
        rows = [[] for _ in range(b_in)]
        for dest, d_in, d_out in zip(row, d_ins, d_outs):
            if dest in live:
                rows[d_in].append((dest, d_out))
        move.append(rows)
    return move, _start(move, automaton.initial, b_out), b_in, b_out


def sync_eval(automaton, n, input_track=None):
    """The unique y with (n, y) accepted; FunctionalityError otherwise."""
    move, frontier, b_in, b_out = _reader(automaton, input_track)
    for d_in in to_digits(n, b_in):
        frontier = _step(move, frontier, d_in, b_out)
    found = {y for q, y in frontier if q in automaton.accepting}
    if len(found) > 1:
        raise FunctionalityError(f"{sorted(found)} all accepted for input {n}")
    if not found:
        raise FunctionalityError(f"no accepted output for input {n}")
    return found.pop()


def sync_table(automaton, count, input_track=None):
    """Outputs for every input below count, by shared-prefix search.

    The walk descends from ``_start`` digit by digit, carrying the frontier
    of live (state, y) pairs.  What lies below a node depends only on its
    digits left and its frontier up to a common shift of y: with m the
    least y, every output in the block is m * b_out**left plus what the
    frontier of pairs (q, y - m) produces, since each later digit maps y to
    y * b_out + d_out and acceptance looks at q alone.  This is the k-kernel
    of the table (Allouche & Shallit, *Automatic Sequences*, ch. 6).  So a
    full block, one that ends at or below count, is walked once per key
    (left, {(q, y - m)}); a later block with the same key is the first
    block's slice shifted by the difference of the two shifts.  A reused
    block was walked once without raising, so errors come at the same
    input with the same message.  An input with no output is one whose
    walk empties the frontier; the walk notes when that first happens.
    From then on the table can only fail, so copies are no longer shifted
    and keep just where the None values are, and the table is searched for
    the inputs it lacks.
    """
    if not isinstance(count, int):
        raise CompileError(f"count must be an int, got {count!r}")
    if count <= 0:
        _track_positions(automaton, input_track)  # a bad track name still raises
        return []
    move, start, b_in, b_out = _reader(automaton, input_track)
    width = len(to_digits(count - 1, b_in)) if count > 1 else 1
    accepting = automaton.accepting

    values = [None] * count
    # key -> (first input of the block walked for it, its shift).  An entry
    # is two ints plus its key and never a copy of the block, which stays
    # in values; a key is stored once per fully walked internal node, so
    # there are at most as many keys as internal nodes of the plain walk.
    # A block is stored only after its walk, so a source block holds None
    # only if holed was set by then.  After the first hole values is only
    # searched for None, so a copy is then an unshifted slice.
    memo = {}
    holed = not start  # some input below count has no output

    def descend(pos, prefix, frontier):
        nonlocal holed
        if pos == width:
            found = {y for q, y in frontier if q in accepting}
            if len(found) != 1:
                raise FunctionalityError(
                    f"{sorted(found)} accepted for input {prefix}"
                )
            values[prefix] = found.pop()
            return
        left = width - pos
        block = b_in**left
        base = prefix * block
        key = None
        if base + block <= count:
            low = min(y for _, y in frontier)
            key = (left, frozenset((q, y - low) for q, y in frontier))
            shift = low * b_out**left
            seen = memo.get(key)
            if seen is not None:
                src, src_shift = seen
                delta = shift - src_shift
                source = values[src : src + block]
                if delta and not holed:
                    source = [v + delta for v in source]
                values[base : base + block] = source
                return
        span = block // b_in
        for d_in in range(b_in):
            lo = (prefix * b_in + d_in) * span
            if lo >= count:
                break
            new = _step(move, frontier, d_in, b_out)
            if new:
                descend(pos + 1, prefix * b_in + d_in, new)
            else:
                holed = True
        if key is not None:
            memo[key] = (base, shift)

    if start:
        descend(0, 0, start)
    if holed:
        missing = [i for i, v in enumerate(values) if v is None]
        raise FunctionalityError(f"no accepted output for inputs {missing[:5]}")
    return values


# -- inductive verification ---------------------------------------------------

# the weight of the step at m, by the parity of m: the sign A(m) itself,
# the alternating (-1)^m * A(m), or its negation
STEP_WEIGHTS = {"sum": (1, 1), "alt": (1, -1), "neg_alt": (-1, 1)}

# the running sums ``rslogic guess`` synthesizes, each as (oracle, sign
# table, rule, value at 0): verify_sync(candidate, sign(), rule, value)
# proves a candidate, and standard_environment proves rss by row s and rst
# by row t
GUESSABLE = {
    "s": (partial_sum_by_recurrence, rudin_shapiro_dfao4, "sum", 1),
    "t": (alternating_sum_by_recurrence, rudin_shapiro_dfao4, "alt", 1),
    "sp": (double_zero_partial_sum_by_recurrence, double_zero_sign_dfao4, "sum", 1),
    "nt": (
        lambda n: 1 - double_zero_alternating_sum_by_recurrence(n),
        double_zero_sign_dfao4,
        "neg_alt",
        0,
    ),
}


def _signed_step(sign, rule):
    """The step at m as one automaton with output: A(m) times its rule weight.

    (-1)^m * A(m) is the product, multiplying outputs, of the sign with a
    parity automaton on its first track (Allouche & Shallit, *Automatic
    Sequences*, ch. 5): state p, the parity so far, outputs the rule's weight
    and goes to (p*b + d) % 2 on digit d, the parity in any base b.  The
    result is minimal, so a step outside +1/-1 on a reachable state is refused.
    """
    if rule not in STEP_WEIGHTS:
        raise CompileError(f"rule must be one of {tuple(STEP_WEIGHTS)}")
    track = sign.tracks[:1]
    b = _alpha_size(track)
    matrix = [[(p * b + d) % 2 for d in range(b)] for p in (0, 1)]
    parity = MultiTrackAutomaton(track, 2, 0, STEP_WEIGHTS[rule], matrix)
    step = minimize(product(sign, parity, operator.mul))
    bad = sorted(set(step.outputs) - {1, -1})
    if bad:
        raise CompileError(f"the sign automaton outputs {bad[0]}, not +1 or -1")
    return step


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    witness: dict | None


@dataclass
class VerifyOutcome:
    ok: bool
    checks: list

    def __bool__(self):
        return self.ok

    def failures(self):
        return [c for c in self.checks if not c.passed]


def verify_sync(automaton, sign_dfao, rule, base_value, input_track=None):
    """Prove the candidate computes the running sum of a +/-1 sequence.

    Decides, as sentences: the relation is a total function, its value at 0
    is base_value, and it moves by exactly the signed step at every n -> n+1.
    Together these pin down the function for all n by induction.  The signed
    step is one automaton with output: the sign times the rule's parity weight.
    """
    if type(base_value) is not int or base_value < 0:
        raise CompileError(f"base_value must be a natural number, got {base_value!r}")
    env = Environment()
    env.register_dfao("STEP", _signed_step(sign_dfao, rule))
    pos_in, pos_out = _track_positions(automaton, input_track)
    arg, value = automaton.tracks[pos_in], automaton.tracks[pos_out]
    env.register_relation("cand", automaton, [arg.name, value.name])
    in_sys, out_sys = arg.system, value.system

    checks = [
        ("total", f"?{in_sys} An Ey $cand(n,y)"),
        ("function", f"?{in_sys} An,x,y ($cand(n,x) & $cand(n,y)) => (?{out_sys} x=y)"),
        ("base", f"?{in_sys} $cand(0, {base_value})"),
        ("step_up", f"?{in_sys} An,y ($cand(n,y) & STEP[n+1]=@1) => $cand(n+1, ?{out_sys} y+1)"),
        ("step_down", f"?{in_sys} An,y ($cand(n,y) & STEP[n+1]=@-1) => $cand(n+1, ?{out_sys} y-1)"),
    ]
    outcomes = []
    for name, formula in checks:
        witness = find_counterexample(env, formula)
        if witness is not None and name == "base":
            witness = {"n": 0}
        outcomes.append(CheckOutcome(name, witness is None, witness))
    return VerifyOutcome(all(c.passed for c in outcomes), outcomes)


def accepting_bit_mutations(automaton):
    """Every variant of the automaton with one accepting bit flipped."""
    for q in range(automaton.n_states):
        outputs = list(automaton.outputs)
        outputs[q] = 1 - outputs[q]
        yield q, MultiTrackAutomaton(
            automaton.tracks, automaton.n_states, automaton.initial, outputs, automaton.matrix
        )
