"""Compile parsed formulas into automata and run whole scripts.

Every compiled subformula is a complete, minimal, padding-closed automaton
whose tracks are exactly its free variables.  Connectives become synchronous
products.  An existential quantifier conjoins the compiled conjuncts of its
body and projects its variables away; a universal quantifier is the
complement of that over the conjuncts refuting its body.  Registered
relations are stored with positional parameter tracks, and an application
is the existential closure of the renamed relation and one equation per
compound argument, or the minimized renamed relation when every argument
is a variable.

An environment builds each atom (a comparison, an application or an
output test) once: an atom met again under other variable names, sorted
alike, is the stored automaton renamed.  Each name is bound once per
table (relations, automata with output, linear representations), so a
stored atom never refers to a replaced automaton.  Connectives and
quantifiers are not stored, unlike MONA's shared subformulas (Klarlund,
Møller and Schwartzbach, "MONA implementation secrets", 2002), since the
paper's formulas repeat atoms and seldom anything larger.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

from .automata import (
    MultiTrackAutomaton,
    NumberSystem,
    OP_AND,
    OP_IFF,
    OP_IMPLIES,
    OP_OR,
    _merge_tracks,
    complement,
    decode_word,
    find_witness,
    from_regex,
    minimize,
    product,
    project,
)
from .errors import BaseMismatchError, CompileError, EngineError
from .linrep import count_representation
from .numeration import linear_atom
from .parser import (
    Apply,
    BinOp,
    Command,
    Compare,
    Not,
    OutputTest,
    Quantified,
    Term,
    parse_formula,
    parse_script,
)

__all__ = [
    "Relation",
    "Environment",
    "CommandResult",
    "compile_formula",
    "decide",
    "find_counterexample",
]


def _param(i: int) -> str:
    return f"p{i:02d}"


@dataclass
class Relation:
    """A registered relation: automaton over positional parameter tracks."""

    name: str
    automaton: MultiTrackAutomaton


class Environment:
    """Named relations, automata with output, and linear representations."""

    def __init__(self):
        self.relations = {}
        self.dfaos = {}
        self.representations = {}
        self.compiled = {}  # _Compiler._atom's memo

    def _bind(self, table, kind, name, value):
        """Bind ``name`` in ``table``, once: no memo key outlives its automaton."""
        if name in table:
            raise CompileError(f"{kind} {name!r} is already defined")
        table[name] = value
        return value

    def register_relation(self, name, automaton, order=None):
        """Register; ``order`` lists the automaton's tracks in parameter order
        (default: sorted track names, the order compiled formulas use)."""
        if not set(automaton.outputs) <= {0, 1}:
            raise CompileError(f"relation {name!r} has outputs other than 0 and 1")
        names = [t.name for t in automaton.tracks]
        if order is None:
            order = names
        if sorted(order) != sorted(names):
            raise CompileError(f"parameter order {order} does not match tracks of {name}")
        stored = automaton.renamed({v: _param(i) for i, v in enumerate(order)})
        return self._bind(self.relations, "relation", name, Relation(name, stored))

    def register_dfao(self, name, dfao):
        if len(dfao.tracks) != 1:
            raise CompileError(f"automaton with output {name!r} reads {len(dfao.tracks)} tracks, not 1")
        self._bind(self.dfaos, "automaton with output", name, dfao)

    def relation(self, name) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise CompileError(f"unknown relation {name!r}") from None

    def dfao(self, name):
        try:
            return self.dfaos[name]
        except KeyError:
            raise CompileError(f"unknown automaton with output {name!r}") from None

    # -- running scripts ---------------------------------------------------

    def run_script(self, text, continue_on_error=False):
        """Execute commands in order; returns one CommandResult per command.

        Aborts on the first failing command unless continue_on_error is
        set, in which case the failure is recorded on the result row.
        """
        results = []
        for command in parse_script(text):
            try:
                results.append(self.run_command(command))
            except EngineError as exc:
                if not continue_on_error:
                    raise
                results.append(CommandResult(command, None, None, None, 0.0, exc))
        return results

    def run_command(self, command: Command) -> "CommandResult":
        start = time.perf_counter()
        truth = None
        automaton = None
        representation = None
        if command.kind == "reg":
            systems = [NumberSystem.parse(p) for p in command.params]
            automaton = from_regex(systems, command.body)
            self.register_relation(command.name, automaton)
        elif command.kind in ("def", "eval"):
            node = parse_formula(command.body)
            if command.params:
                full = compile_formula(self, node)
                representation = count_representation(full, command.params)
                self._bind(self.representations, "linear representation", command.name, representation)
            else:
                automaton = compile_formula(self, node)
                if automaton.tracks:
                    self.register_relation(command.name, automaton)
                else:
                    truth = automaton.accepts([])
        else:
            raise CompileError(f"unknown command kind {command.kind!r}")
        seconds = time.perf_counter() - start
        return CommandResult(command, truth, automaton, representation, seconds)


@dataclass
class CommandResult:
    command: Command
    truth: bool | None
    automaton: MultiTrackAutomaton | None
    representation: object | None
    seconds: float
    error: Exception | None = None

    @property
    def name(self):
        return self.command.name


_BINOPS = {"&": OP_AND, "|": OP_OR, "=>": OP_IMPLIES, "<=>": OP_IFF}


class _Compiler:
    def __init__(self, env: Environment):
        self.env = env
        self.fresh = itertools.count()

    def compile(self, node) -> MultiTrackAutomaton:
        """Automaton of ``node``.  Connectives and quantifiers compile
        straight through; each atom is built once per environment by
        ``_atom``."""
        if isinstance(node, Not):
            return complement(self.compile(node.body))
        if isinstance(node, BinOp):
            left = self.compile(node.left)
            right = self.compile(node.right)
            return minimize(product(left, right, _BINOPS[node.op]))
        if isinstance(node, Quantified):
            if node.kind == "E":
                conjuncts = [self.compile(c) for c in _flatten_and(node.body)]
                return self._exists(node.variables, conjuncts)
            return complement(self._exists(node.variables, self._refutation(node.body)))
        if isinstance(node, Compare):
            left, right = node.left, node.right
            coeffs = {v: left.coeffs.get(v, 0) - right.coeffs.get(v, 0) for v in {**left.coeffs, **right.coeffs}}
            return self._atom(
                ("cmp", node.rel, node.system), (left, right),
                lambda: linear_atom(coeffs, node.rel, right.const - left.const, node.system),
            )
        if isinstance(node, Apply):
            relation = self.env.relation(node.name).automaton
            return self._atom(("$", relation), node.args, lambda: self._apply(node.name, relation, node.args))
        if isinstance(node, OutputTest):
            dfao = self.env.dfao(node.name)
            return self._atom(("@", dfao, node.value), (node.arg,), lambda: self._apply(
                node.name, dfao.where(node.value).renamed({dfao.tracks[0].name: _param(0)}), [node.arg]
            ))
        raise CompileError(f"cannot compile node {type(node).__name__}")

    def _atom(self, head, terms, build):
        """``build()``, once per environment.  The key is ``head`` (which
        holds an applied relation or automaton with output as the object; a
        name is bound once, so no key outlives its automaton), the ``terms``
        with each variable numbered by first appearance, and the rank
        pattern of the names: a hit renamed back has the bytes of a fresh
        build, and a hit under the stored names is the stored automaton.  A
        failing build stores nothing."""
        names = {}  # variable -> number, in order of first appearance
        shape = tuple(
            (tuple((names.setdefault(v, len(names)), c) for v, c in t.coeffs.items()), t.const, t.system)
            for t in terms
        )
        key = head, shape, tuple(names[v] for v in sorted(names))
        if key not in self.env.compiled:
            self.env.compiled[key] = build(), tuple(names)
        automaton, old = self.env.compiled[key]
        return automaton if old == tuple(names) else automaton.renamed(dict(zip(old, names)))

    def _refutation(self, body):
        """Compiled conjuncts of ~body: those of L and ~R when body is L => R."""
        nodes = [Not(body)]
        if isinstance(body, BinOp) and body.op == "=>":
            nodes = _flatten_and(body.left) + [Not(body.right)]
        return [self.compile(n) for n in nodes]

    def _apply(self, name, automaton, args):
        """``automaton``, whose track ``_param(i)`` reads parameter i, applied
        to ``args``; errors call it ``name``.  Renaming can reorder or merge
        tracks, so a bare application is minimized like every other result."""
        systems = {t.name: t.system for t in automaton.tracks}
        if len(args) != len(systems):
            raise CompileError(f"{name} takes {len(systems)} arguments, got {len(args)}")
        mapping = {}
        equations = {}  # scratch track -> its argument equation
        for i, term in enumerate(args):
            system = systems[_param(i)]
            if term.system is not None and term.system != system:
                raise BaseMismatchError(
                    f"{name} reads argument {i} in {system}, but it is written in {term.system}"
                )
            if term.is_variable():
                mapping[_param(i)] = term.variable()
                continue
            # no formula can spell a name starting with '#', so a scratch
            # track never meets a variable of the formula
            scratch = f"#a{next(self.fresh)}"
            mapping[_param(i)] = scratch
            equations[scratch] = self.compile(Compare(Term({scratch: 1}), "=", term, system))
        if not equations:
            return minimize(automaton.renamed(mapping))
        return self._exists(equations, [automaton.renamed(mapping), *equations.values()])

    def _exists(self, variables, autos):
        """Conjoin the automata, cheapest pair (states x states x merged
        alphabet) first, and project each variable once a single conjunct
        holds it: one ``project`` call per conjunct removes all of them."""
        pending = set(variables)

        def project_single_holders():
            # projecting removes only the named tracks, so no other variable
            # loses a holder and one pass suffices
            single = {}  # conjunct index -> the pending variables it alone holds
            for v in list(pending):
                holders = [
                    k for k, a in enumerate(autos) if any(t.name == v for t in a.tracks)
                ]
                if len(holders) <= 1:
                    pending.discard(v)
                if len(holders) == 1:
                    single.setdefault(holders[0], []).append(v)
            for k, names in single.items():
                autos[k] = minimize(project(autos[k], names))

        def cost(pair):
            # unlike _alpha_size, no budget: a pair over it raises only if picked
            a, b = (autos[k] for k in pair)
            return a.n_states * b.n_states * math.prod(t.base for t in _merge_tracks(a.tracks + b.tracks))

        project_single_holders()
        while len(autos) > 1:
            i, j = min(itertools.combinations(range(len(autos)), 2), key=cost)
            merged = minimize(product(autos[i], autos[j], OP_AND))
            autos = [a for k, a in enumerate(autos) if k not in (i, j)]
            autos.append(merged)
            project_single_holders()
        # one automaton left: project_single_holders has emptied pending
        return autos[0]


def _flatten_and(node):
    if isinstance(node, BinOp) and node.op == "&":
        return _flatten_and(node.left) + _flatten_and(node.right)
    return [node]


def compile_formula(env: Environment, source) -> MultiTrackAutomaton:
    """Compile formula text (or a parsed node) against an environment."""
    node = parse_formula(source) if isinstance(source, str) else source
    try:
        return _Compiler(env).compile(node)
    except RecursionError:
        raise CompileError("the formula nests too deeply to compile") from None


def decide(env: Environment, source) -> bool:
    """Truth value of a sentence (a formula with no free variables)."""
    automaton = compile_formula(env, source)
    if automaton.tracks:
        names = [t.name for t in automaton.tracks]
        raise CompileError(f"not a sentence, free variables remain: {names}")
    return automaton.accepts([])


def find_counterexample(env: Environment, source):
    """Assignment falsifying a universally quantified formula, or None.

    The leading block of universal quantifiers is stripped, and the shortest
    valuation accepted by the conjunction of the body's refuting conjuncts
    (those the compiled universal quantifier would project) is decoded.
    Variables those conjuncts do not constrain are reported as 0.  For a
    sentence without a universal prefix the result is {} when it is false,
    None when true.
    """
    node = parse_formula(source) if isinstance(source, str) else source
    prefix = []
    while isinstance(node, Quantified) and node.kind == "A":
        prefix.extend(node.variables)
        node = node.body
    if not prefix:
        return None if decide(env, node) else {}
    compiler = _Compiler(env)
    try:
        negated = compiler._exists((), compiler._refutation(node))
    except RecursionError:
        raise CompileError("the formula nests too deeply to compile") from None
    word = find_witness(negated)
    if word is None:
        return None
    values = decode_word(negated.tracks, word)
    assignment = {t.name: v for t, v in zip(negated.tracks, values)}
    for v in prefix:
        assignment.setdefault(v, 0)
    return assignment
