"""Timing wrappers around the public functions of each pfgames layer.

The tracer patches module attributes and class methods, so calls a module
makes through ``module.func`` or ``self.method`` are caught too. Every
wrapped call becomes a span (name, parent, start, end) held in compact
in-memory arrays; a layer's self time is its span time minus the time its
child spans cover. ``remove()`` puts every original attribute back.

Only layer boundaries are wrapped, never generators or per-cell helpers such
as ``partitions.subsets`` or ``RestrictionOperator.restricted_worth``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array
from collections import Counter, defaultdict

# metric group -> (module name, owner attribute or None, function names)
LAYERS = [
    ("partitions.enumerate", "partitions", None, ["enumerate_partitions", "enumerate_embedded"]),
    ("random_partitions.distribution", "random_partitions", "RandomPartitionFamily", ["distribution"]),
    ("tux_games.build", "tux_games", "TuxGame", ["__init__", "from_function"]),
    ("tux_games.mpw", "tux_games", None, ["mpw_value"]),
    ("tux_games.p_shapley", "tux_games", None, ["p_shapley", "p_shapley_vector"]),
    ("tux_games.null_player", "tux_games", None, ["is_null_player"]),
    ("tux_games.expected_worth", "tux_games", None, ["expected_accumulated_worth"]),
    ("tu_games.shapley", "tu_games", None, ["shapley_value", "shapley_via_crp"]),
    ("tu_games.potential", "tu_games", None,
     ["potential", "potential_via_size_weights", "potential_via_random_partition"]),
    ("restriction_ops.construct", "restriction_ops", None,
     ["crp_restriction", "probability_restriction", "nullifying_restriction",
      "removal_biased_restriction"]),
    ("restriction_ops.restrict", "restriction_ops", "RestrictionOperator", ["restrict"]),
    ("restriction_ops.auxiliary_game", "restriction_ops", "RestrictionOperator", ["auxiliary_game"]),
    ("restriction_ops.potential", "restriction_ops", "RestrictionOperator", ["potential"]),
    ("restriction_ops.shapley", "restriction_ops", "RestrictionOperator", ["shapley_value"]),
    ("verify.gen", "verify", None, ["check_gen"]),
    ("verify.ci", "verify", None, ["check_ci"]),
    ("verify.pos", "verify", None, ["check_pos"]),
    ("verify.monotonicity", "verify", None, ["check_monotonicity_conditions"]),
    ("verify.restriction_axioms", "verify", None, ["check_restriction_axioms"]),
    ("verify.null_player", "verify", None, ["check_null_player_axiom"]),
    ("sampling.estimate", "sampling", None, ["estimate_payoff"]),
    ("formats.load", "formats", None, ["load_game", "load_family_table"]),
    ("formats.dump", "formats", None, ["tux_game_to_json", "tu_game_to_json", "payoff_to_json"]),
    ("cli.main", "cli", None, ["main"]),
]


class Tracer:
    """Span store plus the per-layer totals derived from it."""

    def __init__(self):
        self.names: list[str] = [group for group, *_ in LAYERS]
        self._index = {name: k for k, name in enumerate(self.names)}
        self.parent = array("l")
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        # exact work counts reported by the layers' own return values
        self.checked = 0
        self.checked_s = 0.0
        self.samples = 0
        self.sample_s = 0.0
        self._stack: list[list] = []  # [span id, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function of the imported pfgames package."""
        for group, module_name, owner_name, functions in LAYERS:
            module = importlib.import_module(f"pfgames.{module_name}")
            owner = getattr(module, owner_name) if owner_name else module
            for fn_name in functions:
                original = owner.__dict__[fn_name] if owner_name else getattr(module, fn_name)
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(group, original.__func__))
                else:
                    wrapped = self._wrap(group, original)
                self._patches.append((owner, fn_name, original))
                setattr(owner, fn_name, wrapped)

    def remove(self) -> None:
        for owner, fn_name, original in reversed(self._patches):
            setattr(owner, fn_name, original)
        self._patches.clear()

    def _wrap(self, group: str, fn):
        code = self._index[group]
        stack = self._stack
        clock = time.perf_counter
        is_verify = group.startswith("verify.")
        is_sampling = group == "sampling.estimate"
        tracer = self

        def wrapper(*args, **kwargs):
            span = len(tracer.start)
            parent = stack[-1][0] if stack else -1
            top_verify = is_verify and not any(
                tracer.names[tracer.name[s]].startswith("verify.") for s, _ in stack
            )
            frame = [span, 0.0]
            tracer.parent.append(parent)
            tracer.name.append(code)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                tracer.start[span] = t0
                tracer.end[span] = t1
                tracer.calls[group] += 1
                tracer.self_s[group] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if top_verify:
                tracer.checked += result.checked
                tracer.checked_s += duration
            elif is_sampling:
                tracer.samples += result.n_samples
                tracer.sample_s += duration
            return result

        return functools.wraps(fn)(wrapper)

    # -- results --------------------------------------------------------

    def totals(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "checked": self.checked,
            "checked_s": self.checked_s,
            "samples": self.samples,
            "sample_s": self.sample_s,
        }

    def merge(self, totals: dict) -> None:
        """Add the totals of a traced child process."""
        self.calls.update(totals["calls"])
        for group, seconds in totals["self_s"].items():
            self.self_s[group] += seconds
        self.checked += totals["checked"]
        self.checked_s += totals["checked_s"]
        self.samples += totals["samples"]
        self.sample_s += totals["sample_s"]

    def write_spans(self, path, origin: str = "") -> None:
        """Append this tracer's spans as tab-separated rows:
        origin, id, parent id (-1 for none), layer, start, end."""
        with gzip.open(path, "at") as out:
            for span in range(len(self.start)):
                out.write(
                    f"{origin}\t{span}\t{self.parent[span]}\t{self.names[self.name[span]]}"
                    f"\t{self.start[span]:.9f}\t{self.end[span]:.9f}\n"
                )
