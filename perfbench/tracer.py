"""Per-layer tracing for the benchmark, done from outside the package.

`Tracer.install()` replaces public functions and `CompiledFIS` /
`FitnessEvaluator` methods of the imported `gafuzzy` modules with timing
wrappers, and `uninstall()` puts the originals back. Every gafuzzy module
that holds a function under its name (``from .dataset import project``
copies it into `selector`) gets the wrapper, so calls are caught wherever
they are made. A function that no longer exists is skipped, and its layer
then reads 0.

Spans are kept in memory as ``[name, start, end, parent]`` lists; `layers()`
turns the spans and counts of one op into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (defining module, function, span name)
FUNCTIONS = (
    ("dataset", "project", "dataset.project"),
    ("dataset", "stratified_split", "dataset.split"),
    ("fuzzy", "uniform_partition", "fuzzy.partition"),
    ("rule_learning", "induce_rule_matrix", "rule_learning.induce"),
    ("ga", "evolve", "ga.evolve"),
    ("ga", "roulette_select", "ga.operators"),
    ("ga", "two_point_crossover", "ga.operators"),
    ("ga", "bit_mutation", "ga.operators"),
    ("selector", "holdout_evaluation", "selector.holdout"),
    ("selector", "save_result", "cli.write"),
    ("fuzzy", "save_model", "cli.write"),
    ("evaluation", "save_baseline", "cli.write"),
    ("ga", "save_trace_csv", "cli.write"),
)
# (defining module, class, method, span name)
METHODS = (
    ("fuzzy", "CompiledFIS", "__init__", "fuzzy.compile"),
    ("fuzzy", "CompiledFIS", "degree_table", "fuzzy.degree_table"),
    ("fuzzy", "CompiledFIS", "strength_matrix", "fuzzy.strength"),
    ("fuzzy", "CompiledFIS", "crisp_values", "fuzzy.defuzz"),
    ("selector", "FitnessEvaluator", "__call__", "selector.fitness"),
)

# Per-layer metric names, in print order. Counts are exact for a given
# input; times are seconds per op.
COUNT_METRICS = (
    "fuzzy.defuzz_cells",
    "fuzzy.gather_bytes",
    "fuzzy.rules_per_engine_mean",
    "fuzzy.no_fire_records",
    "rule_learning.rules_per_candidate",
    "dataset.project_calls",
    "selector.fitness_calls",
    "selector.unique_masks",
    "selector.cache_hit_ratio",
    "ga.generations",
)
TIME_METRICS = (
    "fuzzy.defuzz_s",
    "fuzzy.degree_table_s",
    "fuzzy.strength_self_s",
    "fuzzy.partition_s",
    "fuzzy.compile_s",
    "rule_learning.induce_s",
    "dataset.project_s",
    "dataset.split_s",
    "selector.fitness_miss_s",
    "selector.holdout_s",
    "ga.operators_s",
    "ga.self_s",
    "cli.write_s",
    "cli.self_s",
)
ROOT_SPAN = "op"


def _gafuzzy_modules():
    return [
        mod for name, mod in sys.modules.items()
        if name == "gafuzzy" or name.startswith("gafuzzy.")
    ]


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._seen: dict[int, set] = {}  # id(evaluator) -> masks scored

    # --- spans --------------------------------------------------------------

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_fitness(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(evaluator, mask):
            seen = tracer._seen.setdefault(id(evaluator), set())
            key = tuple(int(b) for b in mask)
            miss = key not in seen
            seen.add(key)
            span = tracer.begin("selector.fitness")
            try:
                return fn(evaluator, mask)
            finally:
                tracer.end(span)
                tracer.counts["fitness_calls"] += 1
                if miss:
                    tracer.counts["unique_masks"] += 1
                    tracer.counts["fitness_miss_s"] += span[2] - span[1]

        return wrapper

    # --- count hooks --------------------------------------------------------

    def _after_evolve(self, args, result):
        self.counts["generations"] += len(result[2]) - 1

    def _after_induce(self, args, result):
        self.counts["candidates"] += len(args[0])
        self.counts["rules"] += len(result[0])

    def _after_project(self, args, result):
        self.counts["project_calls"] += 1

    def _after_compile(self, args, result):
        self.counts["engines"] += 1
        self.counts["engine_rules"] += args[0].n_rules

    def _after_strength(self, args, result):
        engine = args[0]
        n, n_rules = result.shape
        gather = n_rules * len(engine.inputs) * n * 8
        self.counts["gather_bytes"] = max(self.counts["gather_bytes"], gather)
        if n_rules:
            self.counts["no_fire_records"] += int((result.max(axis=1) <= 0).sum())
        else:
            self.counts["no_fire_records"] += n

    def _after_defuzz(self, args, result):
        engine, strengths = args[0], args[1]
        self.counts["defuzz_cells"] += strengths.shape[0] * engine.resolution

    # --- install ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        modules = _gafuzzy_modules()
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        hooks = {
            "ga.evolve": self._after_evolve,
            "rule_learning.induce": self._after_induce,
            "dataset.project": self._after_project,
            "fuzzy.compile": self._after_compile,
            "fuzzy.strength": self._after_strength,
            "fuzzy.defuzz": self._after_defuzz,
        }
        for home, attr, span in FUNCTIONS:
            original = getattr(by_name.get(home), attr, None)
            if original is None:
                continue
            wrapped = self._wrap(original, span, hooks.get(span))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)
        for home, cls_name, attr, span in METHODS:
            cls = getattr(by_name.get(home), cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                continue
            if span == "selector.fitness":
                wrapped = self._wrap_fitness(original)
            else:
                wrapped = self._wrap(original, span, hooks.get(span))
            self._patch(cls, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- per-op results -----------------------------------------------------

    def layers(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since reset().

        A span's self time is its duration minus that of its direct
        children; `cli.self_s` is the self time of the op's root span.
        """
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        c = self.counts
        calls = c["fitness_calls"]
        return {
            "fuzzy.defuzz_s": total["fuzzy.defuzz"],
            "fuzzy.degree_table_s": total["fuzzy.degree_table"],
            "fuzzy.strength_self_s": own["fuzzy.strength"],
            "fuzzy.partition_s": total["fuzzy.partition"],
            "fuzzy.compile_s": total["fuzzy.compile"],
            "rule_learning.induce_s": total["rule_learning.induce"],
            "dataset.project_s": total["dataset.project"],
            "dataset.split_s": total["dataset.split"],
            "selector.fitness_miss_s": c["fitness_miss_s"],
            "selector.holdout_s": total["selector.holdout"],
            "ga.operators_s": total["ga.operators"],
            "ga.self_s": own["ga.evolve"],
            "cli.write_s": total["cli.write"],
            "cli.self_s": own[ROOT_SPAN],
            "fuzzy.defuzz_cells": c["defuzz_cells"],
            "fuzzy.gather_bytes": c["gather_bytes"],
            "fuzzy.rules_per_engine_mean": (
                c["engine_rules"] / c["engines"] if c["engines"] else 0.0
            ),
            "fuzzy.no_fire_records": c["no_fire_records"],
            "rule_learning.rules_per_candidate": (
                c["rules"] / c["candidates"] if c["candidates"] else 0.0
            ),
            "dataset.project_calls": c["project_calls"],
            "selector.fitness_calls": calls,
            "selector.unique_masks": c["unique_masks"],
            "selector.cache_hit_ratio": (
                1.0 - c["unique_masks"] / calls if calls else 0.0
            ),
            "ga.generations": c["generations"],
        }
