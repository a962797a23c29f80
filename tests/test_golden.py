"""Byte-identity gate: the corpus replay and its machines hash to recorded digests.

A change that means to keep every output byte for byte (a speed-up or a
simplification) must leave all seven digests alone.  A change that means to
alter an output updates the digest of its category, and says why.
"""

import contextlib
import hashlib
import io

from rslogic.catalog import CHECKS
from rslogic.cli import main
from rslogic.linrep import minimize_schutzenberger
from rslogic.sequences import double_zero_sign_dfao4, rudin_shapiro_dfao4
from rslogic.synchronized import STEP_WEIGHTS, _signed_step, accepting_bit_mutations, verify_sync
from rslogic.toolkit import curve_points, emit_csv, emit_svg, verify_bounds

GOLDEN = {
    "suite rows": "535037e566ef8520a8146634fbd431b45bf25f4781939d7a706b2fa6bcf29f8f",
    "machine texts": "e3719a1a862bc7944af185d4ee29e8a3d3ccfd2582f5597726be4b4e4144d839",
    "representation texts": "e64c71ef8504145d1ce33c374733795d8f08c25f25d36346545cb8aa9070941a",
    "minimal representation texts": "9189d956037c1c3cbdfd6db20137771626e233e9bef7f87f7004a46980177e8f",
    "mutant witnesses": "9dded03c06ad0b61f89c2ec003da2041cfe4ba1adbcce4bc8f7ea86db8d85cc0",
    "signed steps": "00e24b4c0e17f8381aa79fe8fd9c8e2dafbf13e63dd2a81e5d2ce02f8c576f74",
    "sweep outputs": "8872af2f76d11ea7c9a96fbecf7517251cebc08468f8c980a30b72323fb7ee03",
}


def _digest(parts):
    return hashlib.sha256("\x00".join(parts).encode()).hexdigest()


def _digests(env, report, tmp_path):
    names = [check.name for check in CHECKS]
    relations = ["rss", "rst", *(n for n in names if n in env.relations)]
    reps = [n for n in names if n in env.representations]
    return {
        "suite rows": _digest(
            repr((row.name, row.kind, row.expected, row.actual, row.ok))
            for row in report.rows
        ),
        "machine texts": _digest(
            [f"{n}\n{env.relations[n].automaton.to_text()}" for n in relations]
            + [f"RS4\n{env.dfaos['RS4'].to_text()}"]
        ),
        "representation texts": _digest(
            f"{n}\n{env.representations[n].to_text()}" for n in reps
        ),
        "minimal representation texts": _digest(
            f"{n}\n{minimize_schutzenberger(env.representations[n]).to_text()}"
            for n in reps
        ),
        "mutant witnesses": _digest(_mutant_witnesses(env)),
        "signed steps": _digest(
            f"{sign.__name__} {rule}\n{_signed_step(sign(), rule).to_text()}"
            for sign in (rudin_shapiro_dfao4, double_zero_sign_dfao4)
            for rule in STEP_WEIGHTS
        ),
        "sweep outputs": _digest(_sweep_outputs(tmp_path)),
    }


def _mutant_witnesses(env):
    # every one-bit acceptance mutant of rss and rst fails verify_sync;
    # its per-check verdicts and counterexamples are outputs too
    dfao = rudin_shapiro_dfao4()
    for name, rule in (("rss", "sum"), ("rst", "alt")):
        for state, mutant in accepting_bit_mutations(env.relations[name].automaton):
            outcome = verify_sync(mutant, dfao, rule, 1)
            yield repr(
                (name, state, [(c.name, c.passed, c.witness) for c in outcome.checks])
            )


def _sweep_outputs(tmp_path):
    # the integer sweeps: seq's stdout, the bound rows, the curve's CSV and SVG
    seq = io.StringIO()
    with contextlib.redirect_stdout(seq):
        main(["seq", "--to", "65536"])
    yield seq.getvalue()
    for N in (10, 2048, 65536):
        for r in verify_bounds(N).rows:
            yield repr((N, r.name, r.kind, r.expected, r.actual, r.ok))
    points = curve_points(16384)
    yield emit_csv(points, tmp_path / "curve.csv")
    yield emit_svg(points, tmp_path / "curve.svg")


def test_corpus_outputs_are_byte_identical(corpus, tmp_path):
    actual = _digests(*corpus, tmp_path)
    changed = [category for category, digest in GOLDEN.items() if actual[category] != digest]
    assert not changed, f"outputs changed in: {', '.join(changed)}"
