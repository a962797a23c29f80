"""rslogic benchmark: one workload per process, end-to-end or per-layer.

Usage, from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

The workloads are ``corpus``, ``counting`` and ``synthesis`` (see
workloads.py).  With ``--trace 0`` the run measures every end-to-end metric
with no tracing: the three uses take turns through the measuring window,
the named workload's own use first, so that every end-to-end metric is
reported on every workload; the workload decides ``setup_s``.  With
``--trace 1`` only the named workload's use runs, alternating untraced and
traced repetitions on the same inputs, and the per-layer metrics come from
the traced ones.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parents[1]

SETUP_REPS = 5  # own set-ups timed before measuring; setup_s is their median
MIN_REPS = 1  # rounds of the schedule run even when the window is shorter
CALIBRATION_ROUNDS = 2  # rounds of the fixed work in one calibration
REFERENCE_S = 0.020  # calibration time that end-to-end times are scaled to
SEGMENT_S = 0.1  # operations timed between two calibrations add up to at least this

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("suite_s", "s"),
    ("check_p50_ms", "ms"),
    ("check_p90_ms", "ms"),
    ("evals_per_s", "1/s"),
    ("eval_p50_us", "us"),
    ("eval_p95_us", "us"),
    ("zero_test_s", "s"),
    ("synth_verify_s", "s"),
    ("mutant_verify_s", "s"),
    ("sync_values_per_s", "1/s"),
)


class Tally:
    """Operations attempted, and those whose output missed its reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed


def _calibration_work():
    # a fixed mix of the engine's kind of Python work: partition refinement
    # over a transition table, a reachability sweep and Fraction arithmetic
    rng = random.Random(12345)
    n, width = 300, 16
    table = [[rng.randrange(n) for _ in range(width)] for _ in range(n)]
    label = [q % 7 == 0 for q in range(n)]
    blocks = 2
    while True:
        signatures = {}
        refined = [
            signatures.setdefault((label[q],) + tuple(label[t] for t in table[q]), len(signatures))
            for q in range(n)
        ]
        if len(signatures) == blocks:
            break
        label, blocks = refined, len(signatures)
    seen, frontier = {0}, [0]
    while frontier:
        for t in table[frontier.pop()]:
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, 7) * Fraction(3, i + 1)
    return blocks, len(seen), total


def calibrate():
    """Seconds the host takes, right now, for a fixed piece of Python work."""
    gc.collect()
    start = time.perf_counter()
    for _ in range(CALIBRATION_ROUNDS):
        _calibration_work()
    return time.perf_counter() - start


class Scale:
    """Each call calibrates once more and returns REFERENCE_S over the mean
    of the last two calibrations: the factor for the work between them."""

    def __init__(self):
        self.calibrations = [calibrate()]

    def __call__(self):
        self.calibrations.append(calibrate())
        return REFERENCE_S / statistics.fmean(self.calibrations[-2:])


class Stopwatch:
    """Times one part as a run of operations, each ended by ``split()``.

    Once the operations since the last calibration add up to SEGMENT_S,
    ``split`` calibrates off the clock and scales those operations by the
    calibrations before and after them, so the scale follows the host's
    speed within a long part too.  Without ``scale`` times are raw.
    """

    def __init__(self, scale):
        self.scale = scale
        self.times = []  # scaled time of each finished operation
        self._segment = []  # raw times since the last calibration
        self._last = time.perf_counter()

    def split(self):
        now = time.perf_counter()
        self._segment.append(now - self._last)
        self._last = now
        if sum(self._segment) >= SEGMENT_S:
            self.close()
            self._last = time.perf_counter()

    def close(self):
        if self._segment:
            factor = self.scale() if self.scale else 1.0
            self.times.extend(t * factor for t in self._segment)
            self._segment = []


class Rep:
    """One repetition: metric values, latency samples and checked verdicts."""

    def __init__(self):
        self.values = {}
        self.samples = {}
        self.verdicts = None
        self.seconds = 0.0  # total (scaled) time of the parts
        self.peak_rss_mb = 0.0  # process peak once the parts have run


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_rep(workload, state, inputs, tally, scale=None, tracer=None):
    """Run the parts of one repetition, then check their outputs.

    Each part's time is the sum of its operations' times on a Stopwatch
    driven by ``scale``.  Parts feeding the same metric add up: their
    times, and for a rate their counts.  With ``tracer`` the parts run
    traced.  Returns None when a part raised; all operations of the
    repetition then count as failed.
    """
    rep, outputs, counts = Rep(), {}, {}
    try:
        with tracer or contextlib.nullcontext():
            for part in workload.parts(state, inputs):
                gc.collect()
                watch = Stopwatch(scale)
                output = part.run(watch.split)
                watch.close()
                seconds = sum(watch.times)
                rep.seconds += seconds
                rep.values[part.metric] = rep.values.get(part.metric, 0.0) + seconds
                counts[part.metric] = counts.get(part.metric, 0) + part.count
                if part.samples:
                    rep.samples.setdefault(part.samples, []).extend(watch.times)
                outputs.setdefault(part.metric, []).append(output)
    except Exception as exc:  # an engine error is a failed repetition, not a crash
        print(f"  {workload.name}: repetition raised {type(exc).__name__}: {exc}", file=sys.stderr)
        tally.add(workload.ops(state), workload.ops(state))
        return None
    rep.peak_rss_mb = _peak_rss_mb()  # before the check builds its references
    for metric, count in counts.items():
        if count:
            rep.values[metric] = count / rep.values[metric]
    attempted, failed, rep.verdicts = workload.check(state, inputs, outputs)
    tally.add(attempted, failed)
    return rep


def _per_input_medians(reps, key):
    return [statistics.median(times) for times in zip(*(rep.samples[key] for rep in reps))]


def measure(own, uses, seconds, rng, min_reps=MIN_REPS):
    """End-to-end run: returns (metrics, tally, reps per use, median calibration).

    The uses take turns through the window (own, first other, second
    other, own, ...), so every use samples all of it.  The host's speed
    swings by half within seconds, so each set-up and each segment of a
    timed part is bracketed by calibrations and its time is scaled to a
    host on which ``calibrate()`` takes REFERENCE_S.
    """
    tally = Tally()
    scale = Scale()
    setup_samples, states = [], {}

    def timed_setup(w):
        gc.collect()
        start = time.perf_counter()
        state = w.setup()
        elapsed = time.perf_counter() - start
        factor = scale()
        if w is own:
            setup_samples.append(elapsed * factor)
        return state

    inputs = {w.name: w.inputs(rng) for w in uses}  # one draw per run
    for _ in range(SETUP_REPS):
        states[own.name] = timed_setup(own)
    warm = _run_rep(own, states[own.name], inputs[own.name], Tally())  # untimed warm-up
    # the own use's peak, taken before the other uses are set up: ru_maxrss only grows
    peak_rss_mb = warm.peak_rss_mb if warm else _peak_rss_mb()
    others = [w for w in uses if w is not own]
    for w in others:
        states[w.name] = w.setup()
        _run_rep(w, states[w.name], inputs[w.name], Tally())  # untimed warm-up
    scale()  # so the first timed part is bracketed by fresh calibrations

    reps = {w.name: [] for w in uses}
    schedule = [own] + others
    deadline = time.perf_counter() + seconds
    turn = 0
    while turn < len(schedule) * min_reps or time.perf_counter() < deadline:
        w = schedule[turn % len(schedule)]
        turn += 1
        state = timed_setup(w) if w.fresh_state else states[w.name]
        rep = _run_rep(w, state, inputs[w.name], tally, scale)
        if rep is not None:
            reps[w.name].append(rep)

    metrics = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }
    for done in reps.values():
        for key in done[0].values if done else ():
            metrics[key] = statistics.median(rep.values[key] for rep in done)
    # latency percentiles over a use's inputs (its 99 suite rows, its 256
    # seeded n): per input the median over the run's repetitions, which
    # leaves out the host's momentary stalls, then the highest percentile
    # that still has about ten inputs beyond it
    if reps.get("corpus"):
        per_row = _per_input_medians(reps["corpus"], "row_s")
        metrics["check_p50_ms"] = 1e3 * statistics.median(per_row)
        metrics["check_p90_ms"] = 1e3 * statistics.quantiles(per_row, n=10)[8]
    if reps.get("counting"):
        per_n = _per_input_medians(reps["counting"], "eval_s")
        metrics["eval_p50_us"] = 1e6 * statistics.median(per_n)
        metrics["eval_p95_us"] = 1e6 * statistics.quantiles(per_n, n=20)[18]
    counts = {name: len(done) for name, done in reps.items()}
    return metrics, tally, counts, statistics.median(scale.calibrations)


def trace(own, seconds, rng, min_pairs=2):
    """Per-layer run: returns (metrics, tally, traced repetitions, agreement).

    Untraced and traced repetitions alternate on the same inputs; agreement
    is whether every traced output equalled its untraced twin.
    """
    tally = Tally()
    tracer = spans.Tracer()
    setup_stats = tracer.begin()
    with tracer:
        state = own.setup()
    inputs = own.inputs(rng)
    _run_rep(own, own.setup() if own.fresh_state else state, inputs, Tally())

    scale = Scale()  # only for trace.overhead_s
    buckets, plain_s, traced_s = [], [], []
    agree = True
    deadline = time.perf_counter() + seconds
    while len(buckets) < min_pairs or time.perf_counter() < deadline:
        pair = []
        for with_tracer in (False, True):
            if with_tracer:
                buckets.append(tracer.begin())
            fresh = own.setup() if own.fresh_state else state
            scale()  # calibrate right before the first part
            pair.append(_run_rep(own, fresh, inputs, tally, scale, tracer if with_tracer else None))
        plain, traced = pair
        if plain is None or traced is None:
            agree = False
            continue
        agree = agree and traced.verdicts == plain.verdicts
        plain_s.append(plain.seconds)
        traced_s.append(traced.seconds)

    metrics = {}
    for module, attribute, _, extras in spans.TARGETS:
        name = spans.span_name(module, attribute)
        per_rep = [bucket[name] for bucket in buckets]
        for stat in ("calls", "self_s") + extras:
            if stat == "noop_ratio":  # pooled over every traced call
                calls = sum(s.calls for s in per_rep)
                value = sum(spans.stat_value(s, "noop") for s in per_rep) / calls if calls else 0.0
            else:
                values = [spans.stat_value(s, stat) for s in per_rep]
                if stat == "self_s":
                    value = statistics.median(values)
                elif stat.startswith("peak_"):
                    value = max(values)
                else:  # counts per repetition; whole when every repetition agrees
                    value = sum(values) / len(values)
                    value = int(value) if value == int(value) else value
            metrics[f"{name}.{stat}"] = value
    for name in spans.SETUP_COUNTED:
        metrics[f"setup.{name}.calls"] = setup_stats[name].calls
    metrics["trace.overhead_s"] = (
        statistics.median(traced_s) - statistics.median(plain_s) if traced_s else 0.0
    )
    if not agree:
        print("  traced outputs differ from untraced outputs", file=sys.stderr)
    return metrics, tally, len(buckets), agree


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rslogic" / "__init__.py").is_file():
        print(f"error: no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads  # imports the engine, so only after the check above

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    own = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    print(f"workload {own.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")

    if args.trace:
        metrics, tally, reps, agree = trace(own, args.seconds, rng)
        units = {name: unit for name, unit, _ in spans.metric_names()}
        print(f"  traced repetitions {reps}; traced outputs equal untraced: {agree}")
    else:
        metrics, tally, reps, calibration = measure(own, list(workloads.WORKLOADS.values()), args.seconds, rng)
        agree = True
        units = dict(END_TO_END)
        # a use whose every repetition failed has no value; correct is false then
        metrics = {name: metrics.get(name, 0.0) for name, _ in END_TO_END}
        print("  repetitions " + ", ".join(f"{name} {n}" for name, n in reps.items()))
        print(
            f"  calibration median {1000 * calibration:.2f} ms; times below are scaled"
            f" to {1000 * REFERENCE_S:.0f} ms (multiply by {calibration / REFERENCE_S:.4f} for this host)"
        )
    for name, value in metrics.items():
        print(f"  {name:<52} {value:>16.6g} {units[name]}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  checks: attempted {tally.attempted}, failed {tally.failed}, failed_ratio {ratio:.6f}")
    result = {
        "correct": agree and tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
