"""Per-layer spans timed from outside the engine.

The engine has no tracing of its own, so the traced benchmark run replaces
each measured public function with a timing wrapper.  Engine modules import
these functions by name (``from .automata import minimize``) and call each
other through module globals (``project`` calls ``determinize``), so a
wrapper is bound at the defining module and at every loaded module's
global that holds the same object, including tuples inside module-level
dicts such as ``cli.GUESSABLE``.  Everything is put back on ``remove``.

Each wrapped call is one span.  A span's self time is its duration minus
the durations of the spans it called directly.  Extra statistics (peak
state counts, alphabet widths, ranks) come from per-function observers that
look at the call's arguments and result.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field


def _automata(values):
    return [v for v in values if hasattr(v, "n_states") and hasattr(v, "alphabet_size")]


def _peak(stat, key, value):
    stat.extra[key] = max(stat.extra.get(key, 0), value)


def _observe_states_width(stat, args, result):
    _peak(stat, "peak_out_states", result.n_states)
    widths = [a.alphabet_size for a in _automata(list(args) + [result])]
    _peak(stat, "peak_width", max(widths))


def _observe_minimize(stat, args, result):
    _peak(stat, "peak_out_states", result.n_states)
    stat.extra["noop"] = stat.extra.get("noop", 0) + (result.n_states == args[0].n_states)


def _observe_in_rank(stat, args, result):
    _peak(stat, "peak_in_rank", args[0].rank)


def _observe_out_rank(stat, args, result):
    _peak(stat, "peak_rank", result.rank)


def _observe_guess(stat, args, result):
    _peak(stat, "peak_out_states", result.n_states)


def _observe_verify(stat, args, result):
    stat.extra["failed_checks"] = stat.extra.get("failed_checks", 0) + len(result.failures())


def _observe_table(stat, args, result):
    stat.extra["values"] = stat.extra.get("values", 0) + len(result)


# (module, attribute, observer, extra stats reported after calls and self_s)
TARGETS = (
    ("automata", "minimize", _observe_minimize, ("peak_out_states", "noop_ratio")),
    ("automata", "project", _observe_states_width, ("peak_out_states", "peak_width")),
    ("automata", "determinize", _observe_states_width, ("peak_out_states", "peak_width")),
    ("automata", "product", _observe_states_width, ("peak_out_states", "peak_width")),
    ("automata", "find_witness", None, ()),
    ("automata", "language_equal", None, ()),
    ("automata", "from_regex", None, ()),
    ("numeration", "linear_atom", None, ()),
    ("parser", "parse_formula", None, ()),
    ("logic", "compile_formula", None, ()),
    ("logic", "find_counterexample", None, ()),
    ("logic", "Environment.run_command", None, ()),
    ("linrep", "eval_linrep", None, ()),
    ("linrep", "minimize_schutzenberger", _observe_in_rank, ("peak_in_rank",)),
    ("linrep", "count_representation", _observe_out_rank, ("peak_rank",)),
    ("linrep", "subtract", _observe_out_rank, ("peak_rank",)),
    ("synchronized", "guess_sync", _observe_guess, ("oracle_calls", "peak_out_states")),
    ("synchronized", "verify_sync", _observe_verify, ("failed_checks",)),
    ("synchronized", "sync_table", _observe_table, ("values",)),
    ("sequences", "partial_sum_by_recurrence", None, ()),
    ("sequences", "alternating_sum_by_recurrence", None, ()),
    ("sequences", "double_zero_partial_sum_by_recurrence", None, ()),
    ("sequences", "double_zero_alternating_sum_by_recurrence", None, ()),
    ("catalog", "gold_automaton", None, ()),
)

# functions whose set-up calls are reported apart from the measured phase,
# so the counts line up with whole-process profiles that include set-up
SETUP_COUNTED = ("automata.minimize", "automata.project", "automata.determinize", "automata.product")

UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "peak_out_states": ("states", "lower"),
    "peak_width": ("symbols", "lower"),
    "noop_ratio": ("ratio", "lower"),
    "peak_in_rank": ("rank", "lower"),
    "peak_rank": ("rank", "lower"),
    "oracle_calls": ("count", "lower"),
    "failed_checks": ("count", "higher"),
    "values": ("count", "higher"),
}


def span_name(module, attribute):
    return f"{module}.{attribute}"


def metric_names():
    """Every per-layer metric the traced run reports, with unit and direction."""
    out = []
    for module, attribute, _, extras in TARGETS:
        for stat in ("calls", "self_s") + extras:
            unit, better = UNITS[stat]
            out.append((f"{span_name(module, attribute)}.{stat}", unit, better))
    for name in SETUP_COUNTED:
        out.append((f"setup.{name}.calls", "count", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    extra: dict = field(default_factory=dict)


class Tracer:
    """Wraps the TARGETS functions; stats go to the bucket set by ``begin``."""

    def __init__(self):
        self._stack = []
        self._restore = []
        self.stats = None

    def begin(self):
        """Start a fresh stats bucket and return it."""
        self.stats = {span_name(m, a): SpanStats() for m, a, _, _ in TARGETS}
        return self.stats

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def install(self):
        if self.stats is None:
            self.begin()
        for module_name, _, _, _ in TARGETS:
            importlib.import_module(f"rslogic.{module_name}")
        # every loaded module, so callers outside the package are covered too
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for module_name, attribute, observer, _ in TARGETS:
            module = sys.modules[f"rslogic.{module_name}"]
            name = span_name(module_name, attribute)
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(module, owner_name)
                original = vars(owner)[method]
                self._set(owner, method, self._wrap(name, original, observer))
                continue
            original = getattr(module, attribute)
            wrapped = self._wrap(name, original, observer)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
                    elif isinstance(value, dict) and any(
                        isinstance(v, tuple) and original in v for v in value.values()
                    ):
                        swapped = {
                            k: tuple(wrapped if x is original else x for x in v)
                            if isinstance(v, tuple) else v
                            for k, v in value.items()
                        }
                        self._set(mod, key, swapped)

    def remove(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def _set(self, owner, key, value):
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _wrap(self, name, original, observer):
        stack = self._stack
        tracer = self
        counts_oracle = name == "synchronized.guess_sync"

        def wrapper(*args, **kwargs):
            stat = tracer.stats[name]
            if counts_oracle:
                oracle = args[0]

                def counted(n):
                    stat.extra["oracle_calls"] = stat.extra.get("oracle_calls", 0) + 1
                    return oracle(n)

                args = (counted,) + args[1:]
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - children[0]
            if observer is not None:
                observer(stat, args, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper


def stat_value(stat, key):
    """calls, self_s, or an observer's count or peak (0 when never observed)."""
    if key == "calls":
        return stat.calls
    if key == "self_s":
        return stat.self_s
    return stat.extra.get(key, 0)
