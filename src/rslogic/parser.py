"""Parser for the query language.

A script is a sequence of commands, each ended by a colon:

    def NAME [PARAM...] "FORMULA":
    eval NAME [PARAM...] "FORMULA":
    reg NAME SYSTEM... "PATTERN":
    # comment lines are skipped

Formulas use A/E quantifier prefixes fused to the first variable name
("An,y" quantifies n and y), $name(...) for applying a registered relation,
NAME[term]=@v for testing an automaton with output, infix & | => <=> ~, and
linear comparisons over + - and constant *.  A "?msd_k" marker switches the
ambient numeration for the rest of the enclosing parenthesis group; in front
of an application argument it fixes that argument's numeration instead.

Quantifier bodies extend as far right as possible within the current group,
and names starting with A or E are reserved for quantifiers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .automata import NumberSystem
from .errors import BaseMismatchError, FormulaParseError
from .numeration import RELATIONS

__all__ = [
    "Term",
    "Compare",
    "Apply",
    "OutputTest",
    "Not",
    "BinOp",
    "Quantified",
    "Command",
    "NAME_PATTERN",
    "parse_formula",
    "parse_script",
]

DEFAULT_SYSTEM = NumberSystem(2)


@dataclass
class Term:
    """Linear combination sum(coeffs[v] * v) + const, optionally annotated."""

    coeffs: dict
    const: int = 0
    system: NumberSystem | None = None

    def is_variable(self):
        return not self.const and len(self.coeffs) == 1 and next(iter(self.coeffs.values())) == 1

    def variable(self):
        return next(iter(self.coeffs))


@dataclass
class Compare:
    left: Term
    rel: str
    right: Term
    system: NumberSystem


@dataclass
class Apply:
    name: str
    args: list


@dataclass
class OutputTest:
    name: str
    arg: Term
    value: int


@dataclass
class Not:
    body: object


@dataclass
class BinOp:
    op: str  # "&", "|", "=>", "<=>"
    left: object
    right: object


@dataclass
class Quantified:
    kind: str  # "A" or "E"
    variables: list
    body: object


@dataclass
class Command:
    kind: str  # "def", "eval", "reg"
    name: str
    params: list  # listed variables (def/eval) or number systems (reg)
    body: str  # quoted formula or pattern text


# a variable, relation or command name
NAME_PATTERN = r"[A-Za-z_][A-Za-z0-9_']*"

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<annot>\?msd_\d+)
      | (?P<name>""" + NAME_PATTERN + r""")
      | (?P<int>\d+)
      | (?P<op><=>|=>|<=|>=|!=|[-+*=<>()\[\],@$~&|])
    )""",
    re.VERBOSE,
)


def _integer(digits: str, position: int) -> int:
    """The value of a digit token; Python converts at most
    ``sys.get_int_max_str_digits()`` digits, so a longer one is an error."""
    try:
        return int(digits)
    except ValueError:
        raise FormulaParseError(f"a number of {len(digits)} digits is too long", position=position) from None


def _tokenize(text: str):
    """Tokens as (kind, text, offset), and each annotation's number system by offset."""
    tokens = []
    systems = {}
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise FormulaParseError(f"cannot read {text[pos:pos + 12]!r}", position=pos)
        kind = m.lastgroup
        value = m.group(kind)
        if kind == "annot":
            value = value[1:]
            try:
                systems[pos] = NumberSystem.parse(value)
            except BaseMismatchError as exc:
                raise FormulaParseError(str(exc), position=pos) from None
        tokens.append((kind, value, pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens, systems


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens, self.systems = _tokenize(text)
        self.i = 0
        self.ambient = DEFAULT_SYSTEM

    def peek(self, offset=0):
        return self.tokens[min(self.i + offset, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] != "end":
            self.i += 1
        return tok

    def expect(self, value):
        kind, got, pos = self.next()
        if got != value:
            raise FormulaParseError(f"expected {value!r}, found {got!r}", position=pos)

    def error(self, message):
        return FormulaParseError(message, position=self.peek()[2])

    # formula := iff, with quantifiers scoping maximally to the right
    def parse(self):
        node = self.iff()
        if self.peek()[0] != "end":
            raise self.error(f"trailing input {self.peek()[1]!r}")
        return node

    def iff(self):
        node = self.implies()
        while self.peek()[1] == "<=>":
            self.next()
            node = BinOp("<=>", node, self.implies())
        return node

    def implies(self):
        node = self.disjunction()
        if self.peek()[1] == "=>":
            self.next()
            return BinOp("=>", node, self.implies())
        return node

    def disjunction(self):
        node = self.conjunction()
        while self.peek()[1] == "|":
            self.next()
            node = BinOp("|", node, self.conjunction())
        return node

    def conjunction(self):
        node = self.unary()
        while self.peek()[1] == "&":
            self.next()
            node = BinOp("&", node, self.unary())
        return node

    def unary(self):
        kind, value, pos = self.peek()
        if kind == "annot":
            self.next()
            self.ambient = self.systems[pos]
            return self.unary()
        if value == "~":
            self.next()
            return Not(self.unary())
        if kind == "name" and value[0] in "AE" and not self._is_output_test():
            return self.quantifier()
        return self.primary()

    def _is_output_test(self):
        # NAME[...]=@v keeps its name even when it starts with A or E
        return self.peek(1)[1] == "["

    def quantifier(self):
        kind, value, pos = self.next()
        quant = value[0]
        variables = []
        if len(value) > 1:
            variables.append(value[1:])
        else:
            nkind, name, npos = self.next()
            if nkind != "name":
                raise FormulaParseError("expected variable after quantifier", position=npos)
            variables.append(name)
        while self.peek()[1] == ",":
            self.next()
            nkind, name, npos = self.next()
            if nkind != "name":
                raise FormulaParseError("expected variable after comma", position=npos)
            variables.append(name)
        # the body runs to the end of the current group
        return Quantified(quant, variables, self.iff())

    def primary(self):
        kind, value, pos = self.peek()
        if value == "(":
            self.next()
            saved = self.ambient
            node = self.iff()
            self.expect(")")
            self.ambient = saved
            return node
        if value == "$":
            self.next()
            nkind, name, npos = self.next()
            if nkind != "name":
                raise FormulaParseError("expected relation name after $", position=npos)
            self.expect("(")
            args = []
            if self.peek()[1] != ")":
                args.append(self.argument())
                while self.peek()[1] == ",":
                    self.next()
                    args.append(self.argument())
            self.expect(")")
            return Apply(name, args)
        if kind == "name" and self._is_output_test():
            self.next()
            self.expect("[")
            arg = self.term()
            arg.system = arg.system or self.ambient
            self.expect("]")
            self.expect("=")
            self.expect("@")
            sign = 1
            if self.peek()[1] == "-":
                self.next()
                sign = -1
            vkind, vval, vpos = self.next()
            if vkind != "int":
                raise FormulaParseError("expected output value after @", position=vpos)
            return OutputTest(value, arg, sign * _integer(vval, vpos))
        return self.comparison()

    def comparison(self):
        left = self.term()
        kind, rel, pos = self.next()
        if rel not in RELATIONS:
            raise FormulaParseError(f"expected comparison, found {rel!r}", position=pos)
        right = self.term()
        return Compare(left, rel, right, self.ambient)

    def argument(self):
        # [?msd_k] term  |  ( [?msd_k] term )
        system = None
        if self.peek()[0] == "annot":
            system = self.systems[self.next()[2]]
        if self.peek()[1] == "(":
            self.next()
            if self.peek()[0] == "annot":
                system = self.systems[self.next()[2]]
            term = self.term()
            self.expect(")")
        else:
            term = self.term()
        term.system = system
        return term

    def term(self):
        coeffs: dict = {}
        const = 0
        sign = 1
        while True:
            kind, value, pos = self.peek()
            if kind == "int":
                self.next()
                number = _integer(value, pos)
                if self.peek()[1] == "*":
                    self.next()
                    fkind, factor, fpos = self.next()
                    if fkind == "name":
                        coeffs[factor] = coeffs.get(factor, 0) + sign * number
                    elif fkind == "int":
                        const += sign * number * _integer(factor, fpos)
                    else:
                        raise FormulaParseError("expected factor after *", position=fpos)
                else:
                    const += sign * number
            elif kind == "name":
                self.next()
                coeffs[value] = coeffs.get(value, 0) + sign
            else:
                raise FormulaParseError(f"expected term, found {value!r}", position=pos)
            nxt = self.peek()[1]
            if nxt == "+":
                self.next()
                sign = 1
            elif nxt == "-":
                self.next()
                sign = -1
            else:
                return Term({k: v for k, v in coeffs.items() if v}, const)


def parse_formula(text: str):
    """Parse one formula; a leading ?msd_k marker sets the ambient system."""
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise FormulaParseError("the formula nests too deeply to parse") from None


def _strip_comments(text: str) -> str:
    out = []
    in_quote = False
    for line in text.splitlines():
        if not in_quote and line.lstrip().startswith("#"):
            continue
        if line.count('"') % 2:
            in_quote = not in_quote
        out.append(line)
    return "\n".join(out)


_COMMAND = re.compile(
    r"""(?P<kind>def|eval|reg)\s+
        (?P<name>""" + NAME_PATTERN + r""")
        (?P<params>(?:\s+""" + NAME_PATTERN + r""")*)\s*
        "(?P<body>[^"]*)"\s*:?""",
    re.VERBOSE,
)


def parse_script(text: str) -> list[Command]:
    """Split a script into commands; comment and blank lines are dropped."""
    cleaned = _strip_comments(text)
    commands = []
    pos = 0
    while True:
        m = _COMMAND.search(cleaned, pos)
        if not m:
            break
        leftover = cleaned[pos:m.start()].strip()
        if leftover:
            raise FormulaParseError(f"cannot read command text {leftover[:40]!r}")
        params = m.group("params").split()
        commands.append(
            Command(
                kind=m.group("kind"),
                name=m.group("name"),
                params=params,
                body=m.group("body"),
            )
        )
        pos = m.end()
    tail = cleaned[pos:].strip()
    if tail:
        raise FormulaParseError(f"cannot read command text {tail[:40]!r}")
    return commands
