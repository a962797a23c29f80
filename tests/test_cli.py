"""Command line entry points."""

import argparse
import json

from rslogic import cli
from rslogic.automata import MultiTrackAutomaton, NumberSystem, Track
from rslogic.cli import main
from rslogic.toolkit import standard_environment

from builders import count_kernel_calls


def test_seq_csv(capsys):
    assert main(["seq", "--to", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n,a,s,t,ap,sp,tp"
    assert out[1] == "0,1,1,1,1,1,1"
    assert out[2] == "1,1,2,0,1,2,0"
    assert len(out) == 5


def test_eval_sentence(capsys):
    assert main(["eval", "?msd_2 Ax,y x+y=y+x"]) == 0
    assert capsys.readouterr().out.strip() == "TRUE"
    assert main(["eval", "?msd_2 Ax x>0"]) == 0
    assert capsys.readouterr().out.strip() == "FALSE"


def test_eval_uses_bootstrapped_machines(capsys):
    assert main(["eval", "?msd_4 An Ex $rss(n,x)"]) == 0
    assert capsys.readouterr().out.strip() == "TRUE"


def test_eval_unknown_name_errors(capsys):
    assert main(["eval", "An $nope(n)"]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_base_mismatch_names_what_is_applied(capsys):
    # RS4 and rss read their argument 0 in msd_4, but n is read in msd_2: by
    # default inside RS4[...], by annotation inside $rss(...)
    for query, name in (("RS4[n]=@1", "RS4"), ("Ex $rss(?msd_2 n, x)", "rss")):
        assert main(["eval", query]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} reads argument 0 in msd_4"), err
        assert "msd_2" in err and "annotated" not in err


def test_eval_over_the_alphabet_budget_exits_2(capsys):
    assert main(["eval", "?msd_257 x=y"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: tracks in bases 257, 257 have 66049 digit tuples")
    assert "Traceback" not in captured.err


def test_eval_reads_the_query_as_one_formula(capsys):
    # a quote in the query is formula text, not the end of a script command
    assert main(["eval", 'An n=n": eval other "An n=n']) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_def_rejects_a_name_that_is_not_an_identifier(tmp_path, capsys):
    assert main(["def", "a b", "?msd_2 x<b", "--env-dir", str(tmp_path)]) == 2
    assert "'a b' is not a relation name" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_def_persists_to_env_dir(tmp_path, capsys):
    env_dir = str(tmp_path / "env")
    assert main(["def", "triple", "?msd_2 y=3*x", "--env-dir", env_dir]) == 0
    assert (tmp_path / "env" / "triple.rel.txt").exists()
    assert (tmp_path / "env" / "rss.rel.txt").exists()
    capsys.readouterr()
    assert main(["eval", "Ax Ey $triple(x,y)", "--env-dir", env_dir]) == 0
    assert capsys.readouterr().out.strip() == "TRUE"


def _saved_env_dir(tmp_path, capsys):
    env_dir = tmp_path / "env"
    assert main(["def", "triple", "?msd_2 y=3*x", "--env-dir", str(env_dir)]) == 0
    capsys.readouterr()
    return env_dir


def test_env_dir_round_trips_unchanged(tmp_path, capsys):
    env_dir = _saved_env_dir(tmp_path, capsys)
    saved = {p.name: p.read_text() for p in env_dir.iterdir()}
    assert {"rss.rel.txt", "rst.rel.txt", "RS4.dfao.txt", "triple.rel.txt"} <= set(saved)
    assert main(["eval", "?msd_4 An Ex $rss(n,x)", "--env-dir", str(env_dir)]) == 0
    assert main(["eval", "Ax Ey $triple(x,y)", "--env-dir", str(env_dir)]) == 0
    assert capsys.readouterr().out.split() == ["TRUE", "TRUE"]
    assert {p.name: p.read_text() for p in env_dir.iterdir()} == saved


def test_eval_reads_env_dir_and_writes_nothing(tmp_path, capsys):
    env_dir = _saved_env_dir(tmp_path, capsys)
    saved = {p.name: p.read_text() for p in env_dir.iterdir()}
    for query in ("?msd_2 x=1", "?msd_2 $triple(x,y) & x<y"):
        assert main(["eval", query, "--env-dir", str(env_dir)]) == 0, query
    assert capsys.readouterr().out.splitlines() == ["automaton with 3 states", "automaton with 5 states"]
    assert {p.name: p.read_text() for p in env_dir.iterdir()} == saved
    assert not (env_dir / "it.rel.txt").exists()


def test_eval_after_defining_a_relation_named_it(tmp_path, capsys):
    assert main(["def", "it", "?msd_2 x=2", "--env-dir", str(tmp_path)]) == 0
    for query in ("?msd_2 x=1", "?msd_2 $it(x) & x<y"):
        assert main(["eval", query, "--env-dir", str(tmp_path)]) == 0, query
    assert capsys.readouterr().out.splitlines() == [
        "it: automaton with 4 states", "automaton with 3 states", "automaton with 6 states"
    ]


def test_env_dir_rejects_edited_verified_machine(tmp_path, capsys):
    env_dir = _saved_env_dir(tmp_path, capsys)
    for name in ("rss.rel.txt", "RS4.dfao.txt"):
        path = env_dir / name
        original = path.read_text()
        lines = original.splitlines()
        # flip the output of state 0: the file still parses, but is another machine
        state, output = lines[1].split()
        lines[1] = f"{state} {1 - int(output)}"
        path.write_text("\n".join(lines) + "\n")
        assert main(["eval", "?msd_4 An Ex $rss(n,x)", "--env-dir", str(env_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{name} differs from the verified machine" in captured.err
        assert "Traceback" not in captured.err
        path.write_text(original)


def test_env_dir_rejects_machines_that_are_not_padding_closed(tmp_path, capsys):
    env_dir = tmp_path / "env"
    env_dir.mkdir()
    # foo accepts the word 1 but not 01: $foo(1) and Ex ~$foo(x) & x=1
    # were both TRUE
    m2 = Track("t0", NumberSystem(2))
    foo = MultiTrackAutomaton((m2,), 3, 0, [0, 1, 0], [[2, 1], [2, 2], [2, 2]])
    # T[0] is 1 on the empty word and -1 on the word 0: T[0]=@1 and
    # T[0]=@-1 were both TRUE
    dfao = MultiTrackAutomaton((m2,), 2, 0, [1, -1], [[1, 1], [1, 1]])
    for name, text, query in (
        ("foo.rel.txt", foo.to_text(), "$foo(1)"),
        ("T.dfao.txt", dfao.to_text(), "T[0]=@1"),
    ):
        (env_dir / name).write_text(text)
        assert main(["eval", query, "--env-dir", str(env_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{env_dir / name}: " in captured.err
        assert "is not padding-closed" in captured.err
        assert "Traceback" not in captured.err
        (env_dir / name).unlink()


def test_env_dir_rejects_files_whose_stem_is_not_a_name(tmp_path, capsys):
    env_dir = tmp_path / "env"
    env_dir.mkdir()
    m2 = Track("t0", NumberSystem(2))
    even = MultiTrackAutomaton((m2,), 2, 0, [1, 0], [[0, 1], [0, 1]])
    # "#eval" made every open eval fail as already defined, and "a b"
    # loaded a relation no formula can name
    for stem in ("#eval", "a b"):
        for suffix in (".rel.txt", ".dfao.txt"):
            path = env_dir / f"{stem}{suffix}"
            path.write_text(even.to_text())
            assert main(["eval", "?msd_2 x<2", "--env-dir", str(env_dir)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {path}: {stem!r} is not a name a formula can spell\n"
            path.unlink()


def test_env_dir_minimizes_each_new_machine_once(tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    env_dir.mkdir()
    m2 = Track("t0", NumberSystem(2))
    # x is even, and x is a power of 2, each with a redundant state
    even = MultiTrackAutomaton((m2,), 3, 0, [1, 0, 1], [[2, 1], [0, 1], [2, 1]])
    power = MultiTrackAutomaton((m2,), 4, 0, [0, 1, 0, 1], [[0, 1], [1, 2], [2, 2], [1, 2]])
    (env_dir / "even.rel.txt").write_text(even.to_text())
    (env_dir / "power.rel.txt").write_text(power.to_text())
    env = standard_environment()
    monkeypatch.setattr(cli, "standard_environment", lambda: env)
    # counted in every module, the registration gate's included
    counts = count_kernel_calls(monkeypatch, ("minimize",))
    loaded = cli._load_env(argparse.Namespace(env_dir=str(env_dir)))
    assert counts["minimize"] == 2
    assert loaded.relations["even"].automaton.n_states == 2
    assert loaded.relations["power"].automaton.n_states == 3


def test_env_dir_rejects_malformed_relation_text(tmp_path, capsys):
    env_dir = tmp_path / "env"
    env_dir.mkdir()
    # an acceptance of -1 was read as accepting ($neg(0) TRUE), and a second
    # transition on digit 1 overwrote the first ($dup(1) FALSE); an automaton
    # with output reads one track and gives every transition
    for name, text, query, line in (
        ("neg.rel.txt", "msd_2\n0 -1\n0 -> 0\n1 -> 0\n", "$neg(0)", "'0 -1'"),
        (
            "dup.rel.txt",
            "msd_2\n0 0\n0 -> 0\n1 -> 1\n1 -> 0\n1 1\n0 -> 1\n1 -> 1\n",
            "$dup(1)",
            "'1 -> 0'",
        ),
        (
            "two.dfao.txt",
            "msd_2 msd_2\n0 1\n0 0 -> 0\n0 1 -> 0\n1 0 -> 0\n1 1 -> 0\n",
            "An n=n",
            "'msd_2 msd_2'",
        ),
        ("gap.dfao.txt", "msd_2\n0 1\n0 -> 0\n1 -> 1\n1 -1\n0 -> 1\n", "An n=n", "'1 -1'"),
    ):
        (env_dir / name).write_text(text)
        assert main(["eval", query, "--env-dir", str(env_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {env_dir / name}: ") and line in captured.err
        assert "Traceback" not in captured.err
        (env_dir / name).unlink()


def test_deeply_nested_formulas_exit_2_without_a_traceback(capsys):
    for query, stage in (
        ("(" * 200 + "x=x" + ")" * 200, "parse"),
        (" & ".join(["x=x"] * 1200), "compile"),
        ("Ex " + " & ".join(["x=x"] * 1200), "compile"),
    ):
        assert main(["eval", query]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the formula nests too deeply to {stage}\n"


def test_deeply_nested_pattern_exits_2_without_a_traceback(tmp_path, capsys):
    script = tmp_path / "script.txt"
    script.write_text('reg deep msd_2 "' + "(" * 300 + "1" + ")" * 300 + '":\n')
    assert main(["run", str(script)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the pattern nests too deeply to parse\n"


def test_digit_strings_too_long_for_int_exit_2_without_a_traceback(tmp_path, capsys):
    # Python converts at most 4300 digits to an int unless told otherwise
    digits = "9" * 5000
    commands = [["eval", query] for query in (
        f"x={digits}",  # a constant
        f"x=2*{digits}",  # a constant factor
        f"RS4[n]=@{digits}",  # an output value
        f"?msd_{digits} x=1",  # a number system annotation
    )]
    for name, line in (
        ("base.txt", f'reg r msd_{digits} "0*":\n'),  # a reg number system
        ("tuple.txt", f'reg r msd_2 "[{digits}]":\n'),  # a tuple literal digit
    ):
        (tmp_path / name).write_text(line)
        commands.append(["run", str(tmp_path / name)])
    for argv in commands:
        assert main(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert "5000" in captured.err and digits not in captured.err


def test_env_dir_rejects_unreadable_file(tmp_path, capsys):
    env_dir = tmp_path / "env"
    env_dir.mkdir()
    (env_dir / "junk.rel.txt").write_bytes(b"\xff\xfe not text")
    assert main(["eval", "An n<=n", "--env-dir", str(env_dir)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_run_script(tmp_path, capsys):
    script = tmp_path / "script.txt"
    script.write_text(
        'def half "Ek (n=2*k & m=k)":\n'
        'eval halves_below "Am,n $half(m,n) => 2*m<=n":\n'
        'eval gfunc n "i<n":\n'
    )
    assert main(["run", str(script)]) == 0
    out = capsys.readouterr().out
    assert "half: automaton" in out
    assert "halves_below: TRUE" in out
    assert "gfunc: linear representation of rank 2" in out


def test_relation_without_tracks_reads_back_from_env_dir(tmp_path, capsys):
    # its text starts with a blank header line: no number systems
    script = tmp_path / "script.txt"
    script.write_text('reg z "()":\n')
    env_dir = str(tmp_path / "env")
    assert main(["run", str(script), "--env-dir", env_dir]) == 0
    assert (tmp_path / "env" / "z.rel.txt").read_text().startswith("\n0 1\n")
    capsys.readouterr()
    assert main(["eval", "$z()", "--env-dir", env_dir]) == 0
    assert capsys.readouterr().out.strip() == "TRUE"
    assert main(["eval", "~$z()", "--env-dir", env_dir]) == 0
    assert capsys.readouterr().out.strip() == "FALSE"


def test_run_script_error_paths(tmp_path, capsys):
    script = tmp_path / "script.txt"
    script.write_text('eval broken "An $missing(n)":\neval fine "An n<=n":\n')
    assert main(["run", str(script)]) == 2
    capsys.readouterr()
    assert main(["run", str(script), "--continue-on-error"]) == 1
    out = capsys.readouterr().out
    assert "broken: error:" in out
    assert "fine: TRUE" in out


def test_run_rejects_a_script_that_is_not_utf8(tmp_path, capsys):
    script = tmp_path / "script.txt"
    script.write_bytes(b"\xff\xfe")
    assert main(["run", str(script)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {script}:")
    assert "Traceback" not in err


def test_suite_filter(capsys):
    assert main(["suite", "--filter", "eq24*"]) == 0
    out = capsys.readouterr().out
    assert "7/7 checks passed" in out


def test_suite_json(capsys):
    assert main(["suite", "--report", "json", "--filter", "curvecheck*"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    rows = {row["id"]: row for row in payload["rows"]}
    assert rows["curvecheck"]["expected"] == "TRUE"
    assert rows["curvecheck3"]["expected"] == "FALSE"


def test_suite_unknown_filter(capsys):
    assert main(["suite", "--filter", "zz*"]) == 2


def test_bounds(capsys):
    assert main(["bounds", "--to", "2048"]) == 0
    assert "alternating_zeros" in capsys.readouterr().out


def test_curve_emits_files(tmp_path, capsys):
    svg = tmp_path / "curve.svg"
    csv = tmp_path / "curve.csv"
    code = main(
        ["curve", "--points", "256", "--svg", str(svg), "--csv", str(csv)]
    )
    assert code == 0
    assert svg.read_text().startswith("<svg ")
    assert csv.read_text().splitlines()[0] == "n,x,y"


def test_curve_walks_once(tmp_path, monkeypatch, capsys):
    # the check, the summary line and both files share one walk
    from rslogic import toolkit

    real, calls = toolkit.curve_points, []

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(cli, "curve_points", counted)
    monkeypatch.setattr(toolkit, "curve_points", counted)
    svg, csv = tmp_path / "curve.svg", tmp_path / "curve.csv"
    assert main(["curve", "--points", "256", "--svg", str(svg), "--csv", str(csv)]) == 0
    assert calls == [256]


def test_memory_error_exits_2_without_traceback(monkeypatch, capsys):
    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr(cli, "curve_points", exhausted)
    assert main(["curve", "--points", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: MemoryError\n"


def test_guess_verified(tmp_path, capsys):
    out_file = tmp_path / "machine.txt"
    assert main(["guess", "s", "--out", str(out_file)]) == 0
    printed = capsys.readouterr().out
    assert "total: proved" in printed and "step_down: proved" in printed
    assert out_file.read_text().startswith("msd_4 msd_2")


def test_guess_underfit_sample_fails_verification(capsys):
    assert main(["guess", "nt", "--sample-bound", "1024"]) == 1
    assert "FAILS" in capsys.readouterr().out


def test_guess_writes_no_machine_that_fails_verification(tmp_path, capsys):
    # regenerating a shipped machine from too small a sample must not
    # overwrite it with one that start-up then refuses
    out_file = tmp_path / "machine.txt"
    out_file.write_text("kept")
    assert main(["guess", "nt", "--sample-bound", "1024", "--out", str(out_file)]) == 1
    printed = capsys.readouterr().out
    assert "FAILS" in printed and "wrote" not in printed
    assert printed.endswith(f"nothing written to {out_file}: the candidate is not proved\n")
    assert out_file.read_text() == "kept"


def test_curve_rejects_empty_walk(capsys):
    assert main(["curve", "--points", "0"]) == 2
    assert "--points must be at least 1" in capsys.readouterr().err


def test_negative_to_rejected(capsys):
    for command, least in (("seq", 0), ("bounds", 10)):
        assert main([command, "--to", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--to must be at least {least}" in captured.err


def test_bounds_rejects_range_without_witnesses(capsys):
    for to in ("0", "9"):
        assert main(["bounds", "--to", to]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--to must be at least 10" in captured.err
    assert main(["bounds", "--to", "10"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_os_errors_exit_2_without_traceback(tmp_path, capsys):
    # a path below a regular file can be neither read nor created
    blocker = tmp_path / "file"
    blocker.write_text("")
    for argv in (
        ["run", str(tmp_path / "missing.txt")],
        ["run", str(tmp_path)],
        ["curve", "--points", "8", "--svg", str(blocker / "curve.svg")],
        ["guess", "s", "--out", str(blocker / "machine.txt")],
        ["def", "triple", "?msd_2 y=3*x", "--env-dir", str(blocker / "env")],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv


def test_guess_rejects_sample_bound_below_one(capsys):
    for flag in ("--sample-bound", "--state-cap"):
        for bound in ("0", "-5"):
            assert main(["guess", "s", flag, bound]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{flag} must be at least 1, got {bound}" in captured.err
