"""Checks of the benchmark itself: run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# functions each workload's own use is predicted to call (README, prediction table)
PREDICTED = {
    "corpus": (
        "automata.minimize",
        "automata.project",
        "automata.determinize",
        "automata.product",
        "automata.language_equal",
        "automata.from_regex",
        "numeration.linear_atom",
        "parser.parse_formula",
        "logic.compile_formula",
        "logic.Environment.run_command",
        "linrep.minimize_schutzenberger",
        "linrep.count_representation",
        "linrep.subtract",
        "catalog.gold_automaton",
    ),
    "counting": (
        "linrep.eval_linrep",
        "linrep.minimize_schutzenberger",
        "linrep.subtract",
    ),
    "synthesis": (
        "automata.minimize",
        "automata.project",
        "automata.determinize",
        "automata.product",
        "automata.find_witness",
        "numeration.linear_atom",
        "parser.parse_formula",
        "logic.compile_formula",
        "logic.find_counterexample",
        "synchronized.guess_sync",
        "synchronized.verify_sync",
        "synchronized.sync_table",
        "sequences.partial_sum_by_recurrence",
        "sequences.alternating_sum_by_recurrence",
        "sequences.double_zero_partial_sum_by_recurrence",
        "sequences.double_zero_alternating_sum_by_recurrence",
    ),
}

# functions predicted to do no work at all on a workload
IDLE = {
    "counting": ("automata.minimize", "automata.product", "automata.project", "synchronized.sync_table"),
    "corpus": ("synchronized.guess_sync", "synchronized.verify_sync", "synchronized.sync_table"),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_counts_predicted_layers_and_keeps_outputs(name):
    own = workloads.WORKLOADS[name]
    metrics, tally, reps, agree = run.trace(own, 0, random.Random(7), min_pairs=1)
    assert agree, "traced outputs differ from untraced outputs"
    assert tally.attempted > 0 and tally.failed == 0
    for function in PREDICTED[name]:
        assert metrics[f"{function}.calls"] >= 1, function
    for function in IDLE.get(name, ()):
        assert metrics[f"{function}.calls"] == 0, function
    assert all(value >= 0 for key, value in metrics.items() if key.endswith(".self_s"))
    assert set(metrics) == {metric for metric, _, _ in spans.metric_names()}


def test_tracer_binds_every_importer_and_restores():
    from rslogic import automata, cli, linrep, logic, synchronized

    guessable = cli.GUESSABLE
    originals = (automata.minimize, logic.minimize, synchronized.minimize, linrep.minimize_schutzenberger)
    tracer = spans.Tracer()
    with tracer:
        assert logic.minimize is automata.minimize is synchronized.minimize
        assert logic.minimize is not originals[0]
        assert workloads.guess_sync is synchronized.guess_sync
        assert cli.GUESSABLE["s"][0] is not guessable["s"][0]
        assert cli.GUESSABLE["s"][0].__wrapped__ is guessable["s"][0]
        assert vars(logic.Environment)["run_command"].__wrapped__ is not None
    assert (automata.minimize, logic.minimize, synchronized.minimize, linrep.minimize_schutzenberger) == originals
    assert cli.GUESSABLE is guessable
    assert not hasattr(vars(logic.Environment)["run_command"], "__wrapped__")


def test_end_to_end_run_reports_every_metric():
    own = workloads.WORKLOADS["counting"]
    uses = list(workloads.WORKLOADS.values())
    metrics, tally, reps, calibration = run.measure(own, uses, 0, random.Random(3), min_reps=1)
    assert tally.failed == 0 and tally.attempted > 0
    assert reps == {"corpus": 1, "counting": 1, "synthesis": 1}
    assert calibration > 0
    for name, _ in run.END_TO_END:
        assert metrics[name] > 0, name


def test_stopwatch_keeps_calibration_off_the_clock(monkeypatch):
    monkeypatch.setattr(run, "SEGMENT_S", 0.0)  # calibrate after every operation

    def slow_scale():
        time.sleep(0.05)
        return 2.0

    watch = run.Stopwatch(slow_scale)
    for _ in range(3):
        watch.split()
    watch.close()
    assert len(watch.times) == 3
    assert sum(watch.times) < 0.05


@pytest.mark.parametrize("name, key, size", [("corpus", "row_s", 99), ("counting", "eval_s", workloads.EVALS_PER_REP)])
def test_latency_samples_cover_every_operation(name, key, size):
    # corpus: 96 catalog rows and the three COUNT_EQUAL rows (the rank row
    # is folded into the last catalog row); counting: every evaluation
    own = workloads.WORKLOADS[name]
    rep = run._run_rep(own, own.setup(), own.inputs(random.Random(5)), run.Tally())
    assert len(rep.samples[key]) == size
    assert all(t > 0 for t in rep.samples[key])


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["corpus", "counting", "synthesis"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.metric_names()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_without_engine_sources_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", Path(__file__).resolve().parent)
    assert run.main(["--workload", "corpus", "--seed", "1", "--seconds", "1"]) != 0
    assert "{" not in capsys.readouterr().out
