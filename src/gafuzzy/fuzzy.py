"""Mamdani fuzzy inference.

Membership functions, linguistic variables and if-then rules, evaluated
with min conjunction, clip implication, max aggregation and centroid
defuzzification over a uniform sample grid. One kernel turns degrees into
class levels for every caller: `rule_strengths` gathers each rule's weight
times the minimum of its clause degrees from a 2-D (slot, record) degree
table, and `max_by_group` takes the maximum of each class's rules. The
compiled engine runs it over chunks of records, and the fitness path over
the test rows of every CV fold at once; both hand the (N, T) class levels
to the same `CompiledFIS.labels`, the package's only decision.

Inference has one centroid, the grid's, sum(agg(x_i) * x_i) /
sum(agg(x_i)), but it is not summed point by point: output terms must be
triangular or trapezoidal with no vertical edge inside the universe, so the
aggregate is linear between a few breakpoints and each run of grid indices
between two of them is an arithmetic series (Van Leekwijck & Kerre, Defuzzification: criteria
and classification, FSS 108, 1999). On the two-class output at the
midpoint threshold the label needs no centroid: the exact grid centroid
reaches the midpoint exactly when the positive level is at least the
negative one, the single-winner rule of Ishibuchi, Nozaki & Tanaka (FSS 52,
1992), so ties are decided exactly and not by rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import ArityMismatch, ConfigError, NoRules, UnknownTerm
from .jsonio import read_json, write_json

COVERAGE_GRID = 129  # sample count for the coverage sanity check
BLOCK_BYTES = 128 * 1024  # one centroid or fold-gather temporary
# the rule strengths and degree table of one chunk of predict() or classify,
# so their memory does not grow with the record count
CHUNK_BYTES = 2 * 1024 * 1024


@dataclass(frozen=True)
class Triangular:
    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (self.a <= self.b <= self.c) or not self.a < self.c:
            raise ConfigError(f"triangular needs a <= b <= c and a < c, got {self}")

    def sample(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        rising = (
            (xs - self.a) / (self.b - self.a) if self.b > self.a
            else np.ones_like(xs)
        )
        falling = (
            (self.c - xs) / (self.c - self.b) if self.c > self.b
            else np.ones_like(xs)
        )
        out = np.clip(np.minimum(rising, falling), 0.0, 1.0)
        out[(xs < self.a) | (xs > self.c)] = 0.0
        return out


@dataclass(frozen=True)
class Trapezoidal:
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        ordered = self.a <= self.b <= self.c <= self.d
        if not ordered or not self.a < self.d:
            raise ConfigError(
                f"trapezoidal needs a <= b <= c <= d and a < d, got {self}"
            )

    def sample(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        rising = (
            (xs - self.a) / (self.b - self.a) if self.b > self.a
            else np.ones_like(xs)
        )
        falling = (
            (self.d - xs) / (self.d - self.c) if self.d > self.c
            else np.ones_like(xs)
        )
        out = np.clip(np.minimum(rising, falling), 0.0, 1.0)
        out[(xs < self.a) | (xs > self.d)] = 0.0
        return out


@dataclass(frozen=True)
class Gaussian:
    center: float
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise ConfigError(f"gaussian width must be positive, got {self.width}")

    def sample(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return np.exp(-((xs - self.center) ** 2) / (2.0 * self.width**2))


MembershipFunction = Union[Triangular, Trapezoidal, Gaussian]


@dataclass(frozen=True)
class LinguisticVariable:
    """A named variable with an ordered set of fuzzy terms over a universe."""

    name: str
    universe: tuple[float, float]
    terms: tuple[tuple[str, MembershipFunction], ...]

    def __post_init__(self):
        lo, hi = self.universe
        if not lo < hi:
            raise ConfigError(f"variable {self.name!r}: universe needs lo < hi")
        if len(self.terms) < 2:
            raise ConfigError(f"variable {self.name!r}: need at least 2 terms")
        names = [t for t, _ in self.terms]
        if len(set(names)) != len(names):
            raise ConfigError(f"variable {self.name!r}: duplicate term name")
        grid = np.linspace(lo, hi, COVERAGE_GRID)
        peak = np.zeros(COVERAGE_GRID)
        for _, mf in self.terms:
            peak = np.maximum(peak, mf.sample(grid))
        if not np.all(peak > 0):
            raise ConfigError(
                f"variable {self.name!r}: terms leave part of the universe uncovered"
            )

    @property
    def term_names(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.terms)

    def degrees(self, values: np.ndarray) -> np.ndarray:
        """Degree of every term at the values clamped to the universe, (T, N)."""
        lo, hi = self.universe
        clamped = np.clip(np.asarray(values, dtype=float), lo, hi)
        return np.stack([mf.sample(clamped) for _, mf in self.terms])

    def term(self, name: str) -> MembershipFunction:
        for t, mf in self.terms:
            if t == name:
                return mf
        raise UnknownTerm(f"variable {self.name!r} has no term {name!r}")


@dataclass(frozen=True)
class Rule:
    """Conjunction of (variable IS term) clauses implying an output term."""

    antecedent: tuple[tuple[str, str], ...]
    consequent: str
    weight: float = 1.0

    def __post_init__(self):
        if not self.antecedent:
            raise ConfigError("rule antecedent must not be empty")
        vars_ = [v for v, _ in self.antecedent]
        if len(set(vars_)) != len(vars_):
            raise ConfigError("rule repeats a variable in its antecedent")
        if not 0.0 <= self.weight <= 1.0:
            raise ConfigError(f"rule weight must lie in [0, 1], got {self.weight}")


@dataclass(frozen=True)
class FISConfig:
    """Complete Mamdani classifier: variables, rules, and decision policy."""

    inputs: tuple[LinguisticVariable, ...]
    output: LinguisticVariable
    rules: tuple[Rule, ...]
    resolution: int = 1001
    decision_threshold: float = 0.5

    def __post_init__(self):
        if self.resolution < 3:
            raise ConfigError("resolution must be at least 3")
        if not 0.0 < self.decision_threshold < 1.0:
            raise ConfigError("decision threshold must lie in (0, 1)")
        by_name = {v.name: v for v in self.inputs}
        if len(by_name) != len(self.inputs):
            raise ConfigError("duplicate input variable name")
        for rule in self.rules:
            for var, term in rule.antecedent:
                if var not in by_name:
                    raise UnknownTerm(f"rule references unknown variable {var!r}")
                by_name[var].term(term)  # raises UnknownTerm
            self.output.term(rule.consequent)
        centroid_plan(self.output)  # raises ConfigError naming the term

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.inputs)


class Inference(NamedTuple):
    crisp: float
    label: int
    strengths: tuple[float, ...]


def index_rules(
    inputs: Sequence[LinguisticVariable],
    output: LinguisticVariable,
    antecedents: np.ndarray,
    weights: np.ndarray,
    consequents: np.ndarray,
) -> tuple[Rule, ...]:
    """Named rules from the index form, the inverse of
    CompiledFIS.from_config: term index -1 leaves its input unconstrained."""
    return tuple(
        Rule(
            tuple(
                (var.name, var.term_names[t])
                for var, t in zip(inputs, map(int, row)) if t >= 0
            ),
            output.term_names[int(cls)],
            float(w),
        )
        for row, w, cls in zip(antecedents, weights, consequents)
    )


# --- compiled engine --------------------------------------------------------


class CentroidPlan(NamedTuple):
    """What the closed-form centroid of one output needs besides the clip
    levels of a row: the breakpoints every row shares, and each sloped term
    edge as its degree-0 x and its signed width to degree 1."""

    fixed: np.ndarray  # (F,) sorted, inside the universe
    edge_x0: np.ndarray  # (E,)
    edge_width: np.ndarray  # (E,)


@lru_cache(maxsize=32)
def centroid_plan(output: LinguisticVariable) -> CentroidPlan:
    """The closed-form plan of an output. A ConfigError names the term when
    the aggregate would not be continuous and piecewise linear on the
    universe: a Gaussian term, or a vertical edge inside the universe."""
    lo, hi = output.universe
    points, x0, width = [lo, hi], [], []
    for name, mf in output.terms:
        if isinstance(mf, Gaussian):
            raise ConfigError(f"output term {name!r} is gaussian, not "
                              "triangular or trapezoidal")
        a, b = mf.a, mf.b
        c, d = (mf.b, mf.c) if isinstance(mf, Triangular) else (mf.c, mf.d)
        if a == b > lo or c == d < hi:
            raise ConfigError(f"output term {name!r} has a vertical edge "
                              "inside the universe")
        points += [a, b, c, d]
        if b > a:
            x0.append(a)
            width.append(b - a)
        if d > c:
            x0.append(d)
            width.append(c - d)
    # two edges of different slopes cross once; where the aggregate does
    # not switch edges there, the extra breakpoint only splits a range
    for i in range(len(x0)):
        for j in range(i + 1, len(x0)):
            if width[i] != width[j]:
                points.append((x0[i] * width[j] - x0[j] * width[i])
                              / (width[j] - width[i]))
    plan = CentroidPlan(np.unique(np.clip(points, lo, hi)), np.array(x0),
                        np.array(width))
    for shared in plan:
        shared.flags.writeable = False
    return plan


def rule_strengths(table: np.ndarray, slots: np.ndarray,
                   weights: np.ndarray) -> np.ndarray:
    """Firing strengths, (R, N): row r is weights[r] times the minimum over
    i of table[slots[r, i]], from a 2-D (slot, record) degree table. An
    exact running minimum of whole-row gathers, so no (R, m, N) temporary."""
    weakest = table[slots[:, 0]]  # a copy
    for i in range(1, slots.shape[1]):
        np.minimum(weakest, table[slots[:, i]], out=weakest)
    # a new array, not in place: freeing the minimum after it keeps glibc
    # from trimming the heap after each classify chunk, which doubled the
    # page faults of a 20,000-record run
    return weights[:, None] * weakest


def max_by_group(strengths: np.ndarray, groups: np.ndarray,
                 levels: np.ndarray) -> None:
    """Raise each levels[g] to the maximum of the (R, N) strengths of the
    rules of group g: the clip level of a class is the maximum over its
    rules, and min and max round nothing. Each run of equal groups is one
    slice of whole rows, so rules sorted by group take one slice a group;
    at 194 rules and 1,159 records that ran 4x faster than a reduceat."""
    bounds = np.flatnonzero(np.diff(groups, prepend=-1, append=-1)).tolist()
    for start, stop in zip(bounds[:-1], bounds[1:]):
        level = levels[groups[start]]
        np.maximum(level, strengths[start:stop].max(axis=0), out=level)


class CompiledFIS:
    """Index-based engine, the package's only inference path: infer(),
    predict(), the fitness evaluator and the classify command all run here."""

    def __init__(
        self,
        inputs: Sequence[LinguisticVariable],
        output: LinguisticVariable,
        antecedents: np.ndarray,  # (R, m) term index per rule per input
        weights: np.ndarray,  # (R,)
        consequents: np.ndarray,  # (R,) output term index
        resolution: int,
        decision_threshold: float,
    ):
        self.inputs = list(inputs)
        self.output = output
        self.weights = np.asarray(weights, dtype=float).reshape(-1)
        self.antecedents = np.asarray(antecedents, dtype=np.int64).reshape(
            self.weights.shape[0], len(self.inputs)
        )
        self.consequents = np.asarray(consequents, dtype=np.int64).reshape(-1)
        self.resolution = resolution
        self.decision_threshold = decision_threshold
        self.plan = centroid_plan(output)
        lo, hi = output.universe
        # every output term on the grid, read at the ends of each index range
        self.term_samples = output.degrees(np.linspace(lo, hi, resolution))
        # the class output at its midpoint: labels compare the two levels
        self.by_levels = decision_threshold == (lo + hi) / 2.0 and [
            mf for _, mf in output.terms
        ] == [Triangular(lo, lo, hi), Triangular(lo, hi, hi)]
        self.n_rules = self.weights.shape[0]
        # rules run sorted by consequent, one max_by_group slice a class:
        # row j is rule order[j] of the file; slots index the flat table
        self.order = np.argsort(self.consequents, kind="stable")
        self.file_order = np.argsort(self.order)
        self.t_max = max((len(v.terms) for v in self.inputs), default=0)
        ant = self.antecedents[self.order]
        self.slots = (np.arange(len(self.inputs)) * (self.t_max + 1)
                      + np.where(ant >= 0, ant, self.t_max))

    @classmethod
    def from_config(cls, config: FISConfig) -> "CompiledFIS":
        # FISConfig has already checked every variable and term name. A rule
        # need not constrain every input; unconstrained inputs keep the
        # sentinel -1 and contribute degree 1
        var_index = {v.name: i for i, v in enumerate(config.inputs)}
        term_index = [
            {t: j for j, t in enumerate(v.term_names)} for v in config.inputs
        ]
        out_index = {t: j for j, t in enumerate(config.output.term_names)}
        ant = np.full((len(config.rules), len(config.inputs)), -1, dtype=np.int64)
        for r, rule in enumerate(config.rules):
            for var, term in rule.antecedent:
                i = var_index[var]
                ant[r, i] = term_index[i][term]
        return cls(
            config.inputs,
            config.output,
            ant,
            [rule.weight for rule in config.rules],
            [out_index[rule.consequent] for rule in config.rules],
            config.resolution,
            config.decision_threshold,
        )

    def to_config(self) -> FISConfig:
        """The named model this engine runs, the inverse of from_config."""
        rules = index_rules(
            self.inputs, self.output, self.antecedents, self.weights,
            self.consequents,
        )
        return FISConfig(
            tuple(self.inputs), self.output, rules, self.resolution,
            self.decision_threshold,
        )

    def degree_table(self, records: np.ndarray) -> np.ndarray:
        """Clamped membership degrees, shape (m, T_max + 1, N)."""
        return degree_table(self.inputs, records)

    def _strengths(self, records: np.ndarray) -> np.ndarray:
        """Rule firing strengths, (R, N), the rules in consequent order."""
        table = self.degree_table(records).reshape(len(self.inputs)
                                                   * (self.t_max + 1), -1)
        return rule_strengths(table, self.slots, self.weights[self.order])

    def strength_matrix(self, records: np.ndarray) -> np.ndarray:
        """Rule firing strengths, shape (N, R), the rules in file order."""
        return self._strengths(records)[self.file_order].T

    def crisp_values(self, per_term: np.ndarray) -> np.ndarray:
        """Grid centroid of the clipped-and-aggregated output, per record,
        from its (N, T) class clip levels, summed range by range instead of
        point by point; a record that fires no rule gets the midpoint.

        A row's breakpoints are the plan's fixed ones plus every edge at
        every clip level. Between two of them the aggregate is linear, so
        over the grid indices j = f .. f+n-1 in between, with end values
        v0, v1 read from the grid, 2 sum(agg) = n (v0 + v1) and
        6 sum(j agg) = n (v0 (3f + n - 2) + v1 (3f + 2n - 1)). Arrays are
        (point, row) and ranges are added in order, so no row depends on
        the rows computed with it."""
        plan, resolution = self.plan, self.resolution
        lo, hi = self.output.universe
        step = (hi - lo) / (resolution - 1)
        levels = np.ascontiguousarray(per_term.T)
        n_terms, n = levels.shape
        n_fixed, n_edges = plan.fixed.size, plan.edge_x0.size
        n_points = n_fixed + n_edges * n_terms
        rows = max(1, BLOCK_BYTES // (8 * n_points * n_terms))
        mass, moment = np.empty(n), np.empty(n)
        for start in range(0, n, rows):
            block = slice(start, min(start + rows, n))
            lv = levels[:, block]
            points = np.empty((n_points, lv.shape[1]))
            points[:n_fixed] = plan.fixed[:, None]
            at_level = points[n_fixed:].reshape(n_edges, n_terms, -1)
            np.multiply(plan.edge_width[:, None, None], lv, out=at_level)
            at_level += plan.edge_x0[:, None, None]
            np.clip(points, lo, hi, out=points)
            points.sort(axis=0)
            # range k holds the grid indices q_k .. q_k+1 - 1, q = ceil(p) in
            # grid steps from lo, at most the last index, where the last
            # range ends; points that round past it leave empty ranges
            q = np.minimum(np.ceil((points - lo) / step), resolution - 1)
            ends = np.empty((2, n_points - 1, lv.shape[1]))
            ends[0] = q[:-1]
            np.subtract(q[1:], 1.0, out=ends[1])
            ends[1, -1] = resolution - 1
            # the grid's own aggregate at both ends: min and max round nothing
            idx = ends.astype(np.intp)
            v = np.minimum(lv[0], self.term_samples[0][idx])
            for t in range(1, n_terms):
                np.maximum(v, np.minimum(lv[t], self.term_samples[t][idx]), out=v)
            v0, v1 = v
            first, count = ends[0], ends[1] - ends[0] + 1.0
            a = 3.0 * first + count
            sums = np.stack([count * (v0 + v1),
                             count * (v0 * (a - 2.0) + v1 * (a + count - 1.0))])
            mass[block], moment[block] = np.add.accumulate(sums, axis=1)[:, -1]
        crisp = np.full(n, (lo + hi) / 2.0)
        fired = mass > 0.0
        crisp[fired] = lo + step * (moment[fired] / (3.0 * mass[fired]))
        return crisp

    def labels(self, per_term: np.ndarray,
               crisp: np.ndarray | None = None) -> np.ndarray:
        """Class labels from (N, T) class clip levels in [0, 1], the
        package's only decision rule. On the class output at its midpoint
        threshold a row is positive when its positive level is at least its
        negative one: mirroring the grid about the midpoint swaps the two
        terms, so that is exactly when the exact grid centroid lies on or
        above the midpoint, ties and records that fire no rule included.
        Any other output or threshold labels crisp >= threshold, with crisp
        from crisp_values unless given."""
        if self.by_levels:
            return (per_term[:, 1] >= per_term[:, 0]).astype(np.int64)
        if crisp is None:
            crisp = self.crisp_values(per_term)
        return (crisp >= self.decision_threshold).astype(np.int64)

    def decide(self, per_term: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(crisp values, class labels) from (N, T) class clip levels."""
        crisp = self.crisp_values(per_term)
        return crisp, self.labels(per_term, crisp)

    @property
    def chunk_rows(self) -> int:
        """Records per chunk of chunks(): CHUNK_BYTES over the bytes one
        record takes in the rule strengths and in the degree table."""
        width = self.n_rules + len(self.inputs) * (self.t_max + 1)
        return max(1, CHUNK_BYTES // (8 * max(width, 1)))

    def chunks(self, records: np.ndarray):
        """(start, strengths, crisp, labels) of each chunk of chunk_rows
        records of the (N, m) table, in order, strengths as (R, n) in
        consequent order. Strengths are an exact running minimum and
        decide() does not depend on the rows decided with it, so every
        value is the unchunked one. An empty table is one empty chunk."""
        records = np.atleast_2d(np.asarray(records, dtype=float))
        rows = self.chunk_rows
        groups = self.consequents[self.order]
        for start in range(0, max(len(records), 1), rows):
            strengths = self._strengths(records[start:start + rows])
            levels = np.zeros((len(self.output.terms), strengths.shape[1]))
            max_by_group(strengths, groups, levels)
            yield (start, strengths, *self.decide(levels.T))

    def predict(self, records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        crisp, labels = zip(*(chunk[2:] for chunk in self.chunks(records)))
        return np.concatenate(crisp), np.concatenate(labels)


def degree_table(inputs: Sequence[LinguisticVariable],
                 records: np.ndarray) -> np.ndarray:
    """Degrees of every term of every input at the (N, m) records, clamped
    to each universe, shape (m, T_max + 1, N). The last slot of every input
    is a sentinel 1, the degree of an input a rule leaves unconstrained."""
    records = np.atleast_2d(np.asarray(records, dtype=float))
    if records.shape[1] != len(inputs):
        raise ArityMismatch(
            f"record has {records.shape[1]} values, expected {len(inputs)}"
        )
    t_max = max(len(v.terms) for v in inputs)
    table = np.ones((len(inputs), t_max + 1, records.shape[0]))
    for i, var in enumerate(inputs):
        table[i, : len(var.terms)] = var.degrees(records[:, i])
    return table


# --- public operations -------------------------------------------------------


def centroid(samples: np.ndarray, lo: float, hi: float) -> float:
    """Center of mass of a sampled membership on the uniform grid [lo, hi].

    Falls back to the universe midpoint when the total mass is zero. A
    standalone helper for sampled memberships: inference never calls it,
    its only centroid is the closed form of CompiledFIS.crisp_values.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 3:
        raise ConfigError("centroid needs at least 3 samples")
    total = samples.sum()
    if total <= 0.0:
        return (lo + hi) / 2.0
    grid = np.linspace(lo, hi, samples.size)
    return float(samples @ grid / total)


def infer(config: FISConfig, record: Sequence[float]) -> Inference:
    """Full pipeline for one record: fuzzify, fire rules, aggregate, defuzzify."""
    if not config.rules:
        raise NoRules("cannot infer with an empty rule base")
    engine = CompiledFIS.from_config(config)
    rec = np.asarray(record, dtype=float)[None, :]
    _, strengths, crisp, labels = next(engine.chunks(rec))
    return Inference(
        float(crisp[0]), int(labels[0]),
        tuple(float(s) for s in strengths[engine.file_order, 0]),
    )


def predict(config: FISConfig, records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch classification: (crisp values, labels) for an N x m table."""
    if not config.rules:
        raise NoRules("cannot infer with an empty rule base")
    return CompiledFIS.from_config(config).predict(records)


# --- default partition builders ----------------------------------------------


def uniform_partition(
    name: str,
    lo: float,
    hi: float,
    n_terms: int = 3,
    term_names: Sequence[str] | None = None,
) -> LinguisticVariable:
    """Evenly spaced triangular terms with peaks from lo to hi.

    Adjacent terms cross at degree 0.5; the first and last terms shoulder
    the universe edges. A degenerate range (constant column) is widened
    symmetrically so the variable stays valid.
    """
    if n_terms < 2:
        raise ConfigError("need at least 2 terms")
    if hi <= lo:
        lo, hi = lo - 0.5, lo + 0.5
    if term_names is None:
        if n_terms == 2:
            term_names = ("low", "high")
        elif n_terms == 3:
            term_names = ("low", "medium", "high")
        else:
            term_names = tuple(f"level{i + 1}" for i in range(n_terms))
    elif len(term_names) != n_terms:
        raise ConfigError("term_names length must equal n_terms")
    peaks = np.linspace(lo, hi, n_terms)
    terms = []
    for i, label in enumerate(term_names):
        a = peaks[max(i - 1, 0)]
        b = peaks[i]
        c = peaks[min(i + 1, n_terms - 1)]
        terms.append((label, Triangular(float(a), float(b), float(c))))
    return LinguisticVariable(name, (float(lo), float(hi)), tuple(terms))


def class_output_variable(
    name: str = "outcome",
    negative_term: str = "negative",
    positive_term: str = "positive",
) -> LinguisticVariable:
    """Two-term output over [0, 1]; term order follows the class ids 0, 1."""
    return uniform_partition(name, 0.0, 1.0, 2, (negative_term, positive_term))


# --- serialization -----------------------------------------------------------


def _mf_to_dict(mf: MembershipFunction) -> dict:
    if isinstance(mf, Triangular):
        return {"shape": "triangular", "params": [mf.a, mf.b, mf.c]}
    if isinstance(mf, Trapezoidal):
        return {"shape": "trapezoidal", "params": [mf.a, mf.b, mf.c, mf.d]}
    return {"shape": "gaussian", "params": [mf.center, mf.width]}


def _mf_from_dict(d: dict) -> MembershipFunction:
    shape, params = d.get("shape"), d.get("params", [])
    if shape == "triangular":
        return Triangular(*params)
    if shape == "trapezoidal":
        return Trapezoidal(*params)
    if shape == "gaussian":
        return Gaussian(*params)
    raise ConfigError(f"unknown membership shape {shape!r}")


def _variable_to_dict(var: LinguisticVariable) -> dict:
    return {
        "name": var.name,
        "universe": list(var.universe),
        "terms": [{"name": t, **_mf_to_dict(mf)} for t, mf in var.terms],
    }


def _variable_from_dict(d: dict) -> LinguisticVariable:
    terms = tuple((t["name"], _mf_from_dict(t)) for t in d["terms"])
    return LinguisticVariable(d["name"], tuple(d["universe"]), terms)


def config_to_dict(config: FISConfig) -> dict:
    return {
        "inputs": [_variable_to_dict(v) for v in config.inputs],
        "output": _variable_to_dict(config.output),
        "rules": [
            {
                "if": [[var, term] for var, term in rule.antecedent],
                "then": rule.consequent,
                "weight": rule.weight,
            }
            for rule in config.rules
        ],
        "resolution": config.resolution,
        "decision_threshold": config.decision_threshold,
    }


def config_from_dict(d: dict) -> FISConfig:
    rules = tuple(
        Rule(
            tuple((var, term) for var, term in r["if"]),
            r["then"],
            float(r.get("weight", 1.0)),
        )
        for r in d["rules"]
    )
    return FISConfig(
        tuple(_variable_from_dict(v) for v in d["inputs"]),
        _variable_from_dict(d["output"]),
        rules,
        int(d.get("resolution", FISConfig.resolution)),
        float(d.get("decision_threshold", FISConfig.decision_threshold)),
    )


def save_model(config: FISConfig, path: str | Path) -> None:
    write_json(config_to_dict(config), path)


def load_model(path: str | Path) -> FISConfig:
    return read_json(path, config_from_dict, "model")
