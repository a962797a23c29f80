"""Parser and compiler semantics against brute-force evaluation."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rslogic import logic
from rslogic.automata import MultiTrackAutomaton, NumberSystem, Track, from_regex, minimize
from rslogic.errors import BaseMismatchError, CompileError, FormulaParseError
from rslogic.linrep import eval_linrep
from rslogic.logic import Environment, compile_formula, decide, find_counterexample
from rslogic.numeration import linear_atom
from rslogic.parser import (
    Apply,
    BinOp,
    Command,
    OutputTest,
    Quantified,
    parse_formula,
    parse_script,
)
from rslogic.sequences import rudin_shapiro, rudin_shapiro_dfao4
from rslogic.synchronized import verify_sync

from builders import (
    accepts_values,
    build_compare,
    build_const_mul,
    count_kernel_calls,
    rudin_shapiro_dfao2,
)

MSD2 = NumberSystem(2)
MSD4 = NumberSystem(4)


def sweep(automaton, oracle, bound=24):
    names = [t.name for t in automaton.tracks]
    for values in itertools.product(range(bound), repeat=len(names)):
        env = dict(zip(names, values))
        assert accepts_values(automaton, values) == bool(oracle(**env)), env


# -- parsing ----------------------------------------------------------------

def test_precedence_iff_weakest():
    node = parse_formula("x=1 <=> y=1 => z=1")
    assert isinstance(node, BinOp) and node.op == "<=>"
    assert node.right.op == "=>"


def test_implies_right_associative():
    node = parse_formula("x=1 => y=1 => z=1")
    assert node.op == "=>"
    assert isinstance(node.right, BinOp) and node.right.op == "=>"


def test_and_binds_tighter_than_or():
    node = parse_formula("x=1 | y=1 & z=1")
    assert node.op == "|"
    assert node.right.op == "&"


def test_quantifier_fused_variable():
    node = parse_formula("An,x,y x=1")
    assert isinstance(node, Quantified)
    assert node.kind == "A" and node.variables == ["n", "x", "y"]


def test_quantifier_spaced_variable():
    node = parse_formula("E k n=2*k")
    assert node.kind == "E" and node.variables == ["k"]


def test_quantifier_scope_extends_right():
    node = parse_formula("Ax x=1 => y=1")
    assert isinstance(node, Quantified)
    assert isinstance(node.body, BinOp) and node.body.op == "=>"


def test_quantifier_scope_stops_at_group():
    node = parse_formula("(Ax x=1) => y=1")
    assert isinstance(node, BinOp) and node.op == "=>"
    assert isinstance(node.left, Quantified)


def test_annotation_rebinding_inside_group():
    node = parse_formula("?msd_4 (?msd_2 x>=1) & x<y")
    assert node.op == "&"
    assert node.left.system == MSD2
    assert node.right.system == MSD4


def test_annotation_persists_to_group_end():
    node = parse_formula("?msd_4 x=1 & (?msd_2 y=1 & z=1) & w=1")
    # ambient msd_2 covers z=1 but the group restores msd_4 for w=1
    assert node.right.system == MSD4
    inner = node.left.right
    assert inner.left.system == MSD2 and inner.right.system == MSD2


def test_application_argument_annotations():
    node = parse_formula("$f(n+1, ?msd_2 y+1, (?msd_2 z))")
    assert isinstance(node, Apply)
    assert node.args[0].system is None
    assert node.args[1].system == MSD2
    assert node.args[2].system == MSD2


def test_output_test_negative_value():
    node = parse_formula("?msd_4 RS4[n-1]=@-1")
    assert isinstance(node, OutputTest)
    assert node.value == -1
    assert node.arg.coeffs == {"n": 1} and node.arg.const == -1
    assert node.arg.system == MSD4


def test_linear_terms():
    node = parse_formula("3*n+7<=5*y")
    assert node.left.coeffs == {"n": 3} and node.left.const == 7
    assert node.right.coeffs == {"y": 5}


def test_parse_error_position():
    with pytest.raises(FormulaParseError):
        parse_formula("x=1 &")


# every token kind of the formula language, some misspelled or misplaced
FORMULA_TOKENS = [
    "x", "y", "Ax", "Ey", "A", "E", "T", "0", "1", "23",
    "?msd_0", "?msd_1", "?msd_2", "?msd_4", "<=>", "=>", "<=", ">=", "!=",
    "-", "+", "*", "=", "<", ">", "(", ")", "[", "]", ",", "@", "$", "~",
    "&", "|", " ", "#", "?",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(FORMULA_TOKENS), max_size=16).map("".join))
def test_token_text_parses_or_raises_a_parse_error(text):
    try:
        parse_formula(text)
    except FormulaParseError as exc:
        assert exc.position is not None


@pytest.mark.parametrize(
    "text, offset", [("x=1 & ?msd_0 x=2", 6), ("x=1 & $f(?msd_1 x)", 9)]
)
def test_base_below_two_is_a_parse_error_at_the_marker(text, offset):
    with pytest.raises(FormulaParseError, match=rf"at least 2, got \d \(at offset {offset}\)$"):
        parse_formula(text)


def test_script_splitting():
    script = '''
    # setup
    def halves "Ek n=2*k":
    reg pow msd_2 "0*10*":
    eval claim "An Ek (n=2*k | n=2*k+1)":
    '''
    cmds = parse_script(script)
    assert [c.kind for c in cmds] == ["def", "reg", "eval"]
    assert cmds[1].params == ["msd_2"]
    assert cmds[2].name == "claim"


def test_script_multiline_body():
    script = 'def wide "An,x (x=1 &\n x=1) =>\n x=1":'
    cmds = parse_script(script)
    assert len(cmds) == 1
    parse_formula(cmds[0].body)


def test_script_rejects_garbage():
    with pytest.raises(FormulaParseError):
        parse_script('def ok "x=1": trailing junk')


# -- compiling atoms and connectives ----------------------------------------

def test_compare_compiles_to_linear_atom():
    env = Environment()
    aut = compile_formula(env, "?msd_2 3*n+7<=5*y")
    sweep(aut, lambda n, y: 3 * n + 7 <= 5 * y)


def test_integer_factor_multiplies_into_the_constant():
    env = Environment()
    aut = compile_formula(env, "?msd_4 x=2*3")
    assert [t.system for t in aut.tracks] == [MSD4]
    sweep(aut, lambda x: x == 6)


def test_connectives_against_brute_force():
    env = Environment()
    cases = [
        ("x<y & y<z", lambda x, y, z: x < y < z),
        ("x<y | y<x", lambda x, y: x != y),
        ("x=y => y=z", lambda x, y, z: not (x == y) or y == z),
        ("x=y <=> y=z", lambda x, y, z: (x == y) == (y == z)),
        ("~(x<y)", lambda x, y: x >= y),
    ]
    for text, oracle in cases:
        aut = compile_formula(env, text)
        sweep(aut, oracle, bound=9)


def test_base_mismatch_between_conjuncts():
    env = Environment()
    with pytest.raises(BaseMismatchError):
        compile_formula(env, "?msd_4 x=3 & (?msd_2 x=3)")


def test_alphabet_budget_names_the_bases():
    # 257**2 = 66049 digit tuples, over the budget of 2**16: linear_atom
    # refuses before listing them, product before listing the merged ones
    env = Environment()
    for formula in ("?msd_257 x=y", "?msd_257 x=1 & y=2"):
        with pytest.raises(CompileError, match="tracks in bases 257, 257 have 66049 digit tuples"):
            compile_formula(env, formula)
    # the cheapest pair is conjoined first, so a pair over the budget that is
    # never picked does not raise: u and v are gone before x meets y
    aut = compile_formula(env, "?msd_100 Eu,v u<x & x<u+3 & v<y & y<v+3")
    assert aut.alphabet_size == 100**2
    assert aut.accepts([(1, 1)]) and not aut.accepts([(0, 1)])


# -- quantifiers -------------------------------------------------------------

def test_exists_even_numbers():
    env = Environment()
    aut = compile_formula(env, "Ek n=2*k")
    sweep(aut, lambda n: n % 2 == 0, bound=64)


def test_exists_joint_constraints():
    env = Environment()
    aut = compile_formula(env, "Ek (n=2*k & k<5)")
    sweep(aut, lambda n: n % 2 == 0 and n < 10, bound=40)


def test_forall_totality_sentence():
    env = Environment()
    assert decide(env, "An Ek (n=2*k | n=2*k+1)") is True
    assert decide(env, "An Ek n=2*k") is False


def test_forall_implication():
    env = Environment()
    aut = compile_formula(env, "Ay y<=x => y<5")
    sweep(aut, lambda x: x < 5, bound=24)


def test_nested_alternation():
    env = Environment()
    # every n has a strictly larger multiple of 3
    assert decide(env, "An Em (m>n & Ek m=3*k)") is True
    assert decide(env, "An Em (m>n & m<n)") is False


def test_sentence_with_free_variable_rejected():
    env = Environment()
    with pytest.raises(CompileError):
        decide(env, "x=1")


# -- applications ------------------------------------------------------------

def make_env():
    env = Environment()
    env.register_relation("double", build_const_mul(2, MSD2, names=("n", "m")), ["n", "m"])
    env.register_relation("less", build_compare("<", MSD2), ["x", "y"])
    env.register_dfao("RS4", rudin_shapiro_dfao4())
    env.register_dfao("RS2", rudin_shapiro_dfao2())
    return env


def test_apply_bare_variables():
    env = make_env()
    aut = compile_formula(env, "$double(a, b)")
    sweep(aut, lambda a, b: b == 2 * a)


def test_apply_swapped_and_repeated_variables():
    env = make_env()
    sweep(compile_formula(env, "$less(y, x)"), lambda x, y: y < x)
    sweep(compile_formula(env, "$less(x, x)"), lambda x: False)


def test_apply_compound_argument():
    env = make_env()
    aut = compile_formula(env, "$double(n+3, m)")
    sweep(aut, lambda n, m: m == 2 * (n + 3), bound=40)


def test_apply_constant_argument():
    env = make_env()
    aut = compile_formula(env, "$double(3, m)")
    sweep(aut, lambda m: m == 6, bound=40)


def test_apply_subtraction_is_composition():
    # no natural number equals n-1 when n=0, so the atom is false there
    env = make_env()
    aut = compile_formula(env, "$double(n-1, m)")
    sweep(aut, lambda n, m: n >= 1 and m == 2 * (n - 1), bound=24)


@pytest.mark.parametrize(
    "applied, explicit, oracle",
    [
        (
            "$double(2*n+1, m+3)",
            "Ea,b $double(a,b) & a=2*n+1 & b=m+3",
            lambda n, m: m + 3 == 2 * (2 * n + 1),
        ),
        (
            "$less(n+1, 2*m)",
            "Ea,b $less(a,b) & a=n+1 & b=2*m",
            lambda n, m: n + 1 < 2 * m,
        ),
        (
            "$less(n+m, m-1)",
            "Ea,b $less(a,b) & a=n+m & b=m-1",
            lambda n, m: m >= 1 and n + m < m - 1,
        ),
    ],
)
def test_apply_several_compound_arguments(applied, explicit, oracle):
    # an application is the existential closure of its argument equations
    env = make_env()
    aut = compile_formula(env, applied)
    sweep(aut, oracle)
    assert aut.to_text() == compile_formula(env, explicit).to_text()


def test_scratch_tracks_never_meet_a_variable():
    # x+1 is passed through a scratch track; a variable spelled like the
    # compiler's scratch names used to be merged with it
    env = Environment()
    env.run_script('def lt "x<y":')
    assert decide(env, "Ex,b $lt(x+1,b) & b=5")
    assert decide(env, "Ex,__a0 $lt(x+1,__a0) & __a0=5")


def test_apply_arity_error():
    env = make_env()
    with pytest.raises(CompileError):
        compile_formula(env, "$double(x)")


def test_apply_argument_base_mismatch():
    env = make_env()
    with pytest.raises(BaseMismatchError):
        compile_formula(env, "$double(?msd_4 x, y)")


def test_output_automaton_test():
    env = make_env()
    aut = compile_formula(env, "?msd_4 RS4[n]=@1")
    sweep(aut, lambda n: rudin_shapiro(n) == 1, bound=256)
    aut = compile_formula(env, "?msd_4 RS4[n+1]=@-1")
    sweep(aut, lambda n: rudin_shapiro(n + 1) == -1, bound=256)


def test_mixed_base_link():
    # x in base 4 and y in base 2 share the same digit string
    env = Environment()
    link = from_regex([MSD4, MSD2], "([0,0]|[1,1])*").renamed({"t0": "x", "t1": "y"})
    env.register_relation("link", link, ["x", "y"])
    aut = compile_formula(env, "?msd_4 Ey $link(x, y)")
    sweep(aut, lambda x: all(c in "01" for c in _base4(x)), bound=64)


def _base4(n):
    digits = ""
    while n:
        digits = str(n % 4) + digits
        n //= 4
    return digits


# -- scripts and counterexamples ---------------------------------------------

def test_run_script_chain():
    env = Environment()
    results = env.run_script(
        '''
        reg pow2 msd_2 "0*10*":
        def twice "Ek n=2*k":
        eval every_pow2_even_or_one "An $pow2(n) => ($twice(n) | n=1)":
        eval wrong "An $pow2(n) => $twice(n)":
        '''
    )
    assert [r.name for r in results] == ["pow2", "twice", "every_pow2_even_or_one", "wrong"]
    assert results[2].truth is True
    assert results[3].truth is False
    assert "pow2" in env.relations and "twice" in env.relations
    sweep(env.relations["twice"].automaton.renamed({"p00": "n"}), lambda n: n % 2 == 0)


def test_eval_with_free_variables_registers():
    env = Environment()
    results = env.run_script('eval small "x<3":')
    assert results[0].truth is None
    assert results[0].automaton is not None
    assert "small" in env.relations


def test_counterexample_found():
    env = Environment()
    found = find_counterexample(env, "?msd_2 An n<=10")
    assert found == {"n": 11}
    found = find_counterexample(env, "An,m n+m>=n")
    assert found is None


def test_counterexample_unconstrained_variable():
    env = Environment()
    found = find_counterexample(env, "An,m n<=10")
    assert found == {"n": 11, "m": 0}


def test_compile_deterministic():
    env = make_env()
    first = compile_formula(env, "Em ($double(n, m) & m<=12)")
    second = compile_formula(env, "Em ($double(n, m) & m<=12)")
    assert first.to_text() == second.to_text()


def test_compile_memo_stays_within_its_environment(monkeypatch):
    counts = count_kernel_calls(monkeypatch)
    built = []  # arguments of every linear_atom call
    monkeypatch.setattr(logic, "linear_atom", lambda *args: built.append(args) or linear_atom(*args))
    formula = "Ez x<z & z<y & (x=z+1 | y!=2*z)"
    env = Environment()
    text = compile_formula(env, formula).to_text()
    first = sum(counts.values())
    assert first and len(built) == 4
    # the environment builds no atom again
    assert compile_formula(env, formula).to_text() == text
    assert len(built) == 4
    second = sum(counts.values())
    # another environment compiles it afresh, atoms and all
    assert compile_formula(Environment(), formula).to_text() == text
    assert len(built) == 8
    assert sum(counts.values()) - second == first


def test_compile_memo_holds_atoms_only():
    env = make_env()
    formula = "Ax (Ey $double(x, y) & ~(y<x | RS2[x+1]=@1)) => Ez (z=x+1 <=> $less(z, x))"
    decide(env, formula)
    # five atoms, and the equation of RS2's compound argument
    assert sorted(key[0][0] for key in env.compiled) == ["$", "$", "@", "cmp", "cmp", "cmp"]


def test_compile_memo_hit_has_the_bytes_of_a_fresh_compile():
    # a hit is renamed back only when the names sort in the same pattern,
    # and a quantifier binds by position
    env = Environment()
    for formula in (
        "y=2*x+1", "a=2*b+1", "b=2*a+1",
        "Ez y=z+x+2 & z<x", "Ez a=z+b+2 & z<b",
        "Ex x<y", "Ey x<y",
    ):
        fresh = compile_formula(Environment(), formula)
        assert compile_formula(env, formula).to_text() == fresh.to_text(), formula


# atoms over the placeholders {0} {1} {2}, each filled with a variable
MEMO_ATOMS = [
    "{0}<{1}", "{0}=2*{1}+1", "{0}+{1}!={2}", "{2}>=3",
    "$double({0}, {1})", "$less({1}+1, {0})", "RS2[{0}+{2}]=@-1",
]
MEMO_VARIABLES = ["x", "y", "z"]
MEMO_FORMULAS = st.recursive(
    st.builds(
        lambda atom, names: atom.format(*names),
        st.sampled_from(MEMO_ATOMS),
        st.lists(st.sampled_from(MEMO_VARIABLES), min_size=3, max_size=3),
    ),
    lambda inner: st.one_of(
        inner.map("~({})".format),
        st.builds("({}) {} ({})".format, inner, st.sampled_from(["&", "|", "=>"]), inner),
        st.builds("{}{} ({})".format, st.sampled_from("AE"), st.sampled_from(MEMO_VARIABLES), inner),
    ),
    max_leaves=5,
)


@settings(max_examples=200, deadline=None)
@given(MEMO_FORMULAS, st.permutations(MEMO_VARIABLES))
def test_memo_warm_compile_equals_a_fresh_compile(formula, names):
    # the formula fills the memo, which then serves its renaming
    warm = make_env()
    renamed = formula.translate(str.maketrans("xyz", "".join(names)))
    for text in (formula, renamed):
        got = compile_formula(warm, text)
        fresh = compile_formula(make_env(), text)
        assert got.tracks == fresh.tracks, text
        assert got.to_text() == fresh.to_text(), text


# atoms over the placeholders {0} {1}, each filled with a variable (the two
# may coincide or come in either order), a constant {c} and an output {v}
# that RS2 may never give
CANONICAL_ATOMS = [
    "{0}<{1}", "{0}={c}", "{0}+2*{1}<={c}", "{0}!={1}+{c}",
    "$double({0}, {1})", "$less({0}, {1})", "$less({1}+{c}, {0})",
    "RS2[{0}]=@{v}", "RS2[{0}+{1}]=@{v}",
]
CANONICAL_FORMULAS = st.recursive(
    st.builds(
        lambda atom, names, c, v: atom.format(*names, c=c, v=v),
        st.sampled_from(CANONICAL_ATOMS),
        st.lists(st.sampled_from(MEMO_VARIABLES), min_size=2, max_size=2),
        st.integers(0, 10**60 - 1),
        st.sampled_from([-1, 0, 1, 2, 5]),
    ),
    lambda inner: st.one_of(
        inner.map("~({})".format),
        st.builds("({}) {} ({})".format, inner, st.sampled_from(["&", "|", "=>"]), inner),
        st.builds("{}{} ({})".format, st.sampled_from("AE"), st.sampled_from(MEMO_VARIABLES), inner),
    ),
    max_leaves=3,
)


@settings(max_examples=200, deadline=None)
@given(CANONICAL_FORMULAS)
def test_every_compiled_formula_is_minimal(formula):
    automaton = compile_formula(make_env(), formula)
    assert automaton.to_text() == minimize(automaton).to_text(), formula


def test_compile_memo_stores_no_failure():
    env = Environment()
    formula = "Ex x<3 & $r(x)"
    for _ in range(2):
        with pytest.raises(CompileError, match="unknown relation 'r'"):
            compile_formula(env, formula)
    env.register_relation("r", from_regex(["msd_2"], "0*10"))
    assert decide(env, formula)


def test_redefinition_is_an_error():
    # each of the three tables binds a name once, through the API and scripts
    env = Environment()
    env.run_script('def twice "Ek n=2*k":\ndef c n "?msd_2 i<n":')
    twice = env.relations["twice"]
    for script in ('def twice "Ek n=2*k+1":', 'reg twice msd_2 "0*1":', 'eval twice "x<3":'):
        with pytest.raises(CompileError, match="relation 'twice' is already defined"):
            env.run_script(script)
    with pytest.raises(CompileError, match="relation 'twice' is already defined"):
        env.register_relation("twice", from_regex(["msd_2"], "0*1"))
    assert env.relations["twice"] is twice
    env.register_dfao("RS", rudin_shapiro_dfao4())
    with pytest.raises(CompileError, match="automaton with output 'RS' is already defined"):
        env.register_dfao("RS", rudin_shapiro_dfao2())
    assert env.dfaos["RS"].to_text() == rudin_shapiro_dfao4().to_text()
    for script in ('def c n "?msd_2 i<=n":', 'eval c n "?msd_2 i<n":'):
        with pytest.raises(CompileError, match="linear representation 'c' is already defined"):
            env.run_script(script)
    with pytest.raises(CompileError, match="linear representation 'c' is already defined"):
        env.run_command(Command("def", "c", ["n"], "?msd_2 i<=n"))
    assert eval_linrep(env.representations["c"], 5) == 5
    # the tables are apart: one name may be a relation and a counting definition
    env.run_script('def c "x=1":')
    assert decide(env, "$c(1)")


def test_run_script_stops_at_first_error():
    env = Environment()
    with pytest.raises(CompileError):
        env.run_script(
            '''
            def fine "Ek n=2*k":
            eval broken "An $missing(n)":
            eval never_reached "An n=n":
            '''
        )
    assert "fine" in env.relations


def test_run_script_continue_on_error():
    env = Environment()
    results = env.run_script(
        '''
        def fine "Ek n=2*k":
        eval broken "An $missing(n)":
        eval reached "An n<=n":
        ''',
        continue_on_error=True,
    )
    assert [r.name for r in results] == ["fine", "broken", "reached"]
    assert results[0].error is None
    assert isinstance(results[1].error, CompileError)
    assert results[1].truth is None
    assert results[2].truth is True


def test_registration_keeps_relations_and_automata_with_output_apart():
    env = Environment()
    # a sign table outputs -1, which no relation file can hold
    with pytest.raises(CompileError, match="'signs' has outputs other than 0 and 1"):
        env.register_relation("signs", rudin_shapiro_dfao4())
    assert "signs" not in env.relations
    # an automaton with output is applied as T[n], so it reads one track
    two_tracks = compile_formula(env, "?msd_2 x<y")
    with pytest.raises(CompileError, match="'less' reads 2 tracks, not 1"):
        env.register_dfao("less", two_tracks)
    assert "less" not in env.dfaos
    # so is a sign table, even one that outputs only +1
    tracks = (Track("m", NumberSystem(2)), Track("n", NumberSystem(2)))
    ones = MultiTrackAutomaton(tracks, 1, 0, [1], [[0] * 4])
    with pytest.raises(CompileError, match="'STEP' reads 2 tracks, not 1"):
        verify_sync(two_tracks, ones, "sum", 0)


def test_deeply_nested_formulas_raise_engine_errors():
    env = Environment()
    parens = "(" * 200 + "x=x" + ")" * 200
    conjuncts = " & ".join(["x=x"] * 1200)
    with pytest.raises(FormulaParseError, match="nests too deeply to parse"):
        decide(env, "Ax " + parens)
    with pytest.raises(FormulaParseError, match="nests too deeply to parse"):
        find_counterexample(env, "Ax " + parens)
    with pytest.raises(CompileError, match="nests too deeply to compile"):
        decide(env, "Ax " + conjuncts)
    with pytest.raises(CompileError, match="nests too deeply to compile"):
        find_counterexample(env, "Ax " + conjuncts)
    with pytest.raises(CompileError, match="nests too deeply to compile"):
        find_counterexample(env, f"Ax ({conjuncts}) => x=x")
    results = env.run_script(
        f'eval deep "Ax {parens}":\neval wide "Ax {conjuncts}":\neval fine "Ax x=x":',
        continue_on_error=True,
    )
    assert [type(r.error) for r in results] == [FormulaParseError, CompileError, type(None)]
    assert results[2].truth is True
