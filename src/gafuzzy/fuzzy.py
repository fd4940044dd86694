"""Mamdani fuzzy inference.

Membership functions, linguistic variables and if-then rules, evaluated
with min conjunction, clip implication, max aggregation and centroid
defuzzification over a uniform sample grid. One kernel turns degrees into
class levels for every caller: `rule_strengths` gathers each rule's weight
times the minimum of its clause degrees from a 2-D (slot, record) degree
table, and `max_by_group` takes the maximum of each class's rules. The
compiled engine, built from a model and nothing else (`CompiledFIS(config)`,
once per model as `config.engine`), runs it over chunks of records, and the
fitness path over the test rows of every CV fold at once; both hand the
(N, T) class levels to the same `CompiledFIS.labels`, the package's only
decision.

The engine first compiles its rule base into a tree of shared minima
(`min_tree`), the Rete idea of testing each shared condition once (Forgy,
AI 19, 1982): grid-partition rules share most clause pairs, so each level
takes the minimum of every distinct pair of adjacent columns once, as a new
table row, until each rule has at most two rows left for the kernel to
gather. min rounds nothing, so the strengths are those of the flat rules.

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

from dataclasses import astuple, dataclass, field
from functools import cached_property, lru_cache, partial
from pathlib import Path
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import ConfigError
from .jsonio import decode, encode, read_json, write_json

COVERAGE_GRID = 129  # sample count for the coverage sanity check
MAX_RESOLUTION = 1_000_000  # output samples: 16 MB of them for two terms
BLOCK_BYTES = 128 * 1024  # one centroid or fold-gather temporary
# the rule strengths and degree table of one chunk of predict() or classify,
# so their memory does not grow with the record count
CHUNK_BYTES = 2 * 1024 * 1024


def _trapezoid(xs: np.ndarray, a: float, b: float, c: float, d: float) -> np.ndarray:
    """The degrees at xs of the trapezoid of corners a <= b <= c <= d: 0 outside
    [a, d], 1 on [b, c]; a == b or c == d is a vertical edge (a shoulder)."""
    xs = np.asarray(xs, dtype=float)
    rising = (xs - a) / (b - a) if b > a else np.ones_like(xs)
    falling = (d - xs) / (d - c) if d > c else np.ones_like(xs)
    out = np.clip(np.minimum(rising, falling), 0.0, 1.0)
    out[(xs < a) | (xs > d)] = 0.0
    return out


@dataclass(frozen=True)
class Triangular:
    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (self.a <= self.b <= self.c) or not self.a < self.c:
            raise ConfigError(f"triangular needs a <= b <= c and a < c, got {self}")

    @property
    def corners(self) -> tuple[float, float, float, float]:
        return self.a, self.b, self.b, self.c

    def sample(self, xs: np.ndarray) -> np.ndarray:
        return _trapezoid(xs, *self.corners)


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

    @property
    def corners(self) -> tuple[float, float, float, float]:
        return self.a, self.b, self.c, self.d

    def sample(self, xs: np.ndarray) -> np.ndarray:
        return _trapezoid(xs, *self.corners)


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


# --- serialization -----------------------------------------------------------
# A model file is its FISConfig as jsonio writes and reads every file: each
# field under its name, a rule's antecedent and consequent under "if" and
# "then", and each term as {"name", "shape", "params"}, the shape named
# through SHAPES and the params in field order.


def save_model(config: FISConfig, path: str | Path) -> None:
    write_json(encode(config), path)


def load_model(path: str | Path) -> FISConfig:
    return read_json(path, partial(decode, FISConfig), "model")


SHAPES = {"triangular": Triangular, "trapezoidal": Trapezoidal, "gaussian": Gaussian}


@dataclass(frozen=True)
class _StoredTerm:
    """A term as a model file holds it."""

    name: str
    shape: str
    params: tuple[float, ...]


def _write_terms(terms: tuple[tuple[str, MembershipFunction], ...]) -> list[dict]:
    return [{"name": name, "shape": shape, "params": astuple(mf)}
            for name, mf in terms
            for shape, cls in SHAPES.items() if type(mf) is cls]


def _read_terms(payload) -> tuple[tuple[str, MembershipFunction], ...]:
    terms = []
    for term in decode(tuple[_StoredTerm, ...], payload):
        if term.shape not in SHAPES:
            raise ConfigError(f"unknown membership shape {term.shape!r}")
        terms.append((term.name, SHAPES[term.shape](*term.params)))
    return tuple(terms)


@dataclass(frozen=True)
class LinguisticVariable:
    """A named variable with an ordered set of fuzzy terms over a universe."""

    name: str
    universe: tuple[float, float]
    terms: tuple[tuple[str, MembershipFunction], ...] = field(
        metadata={"codec": (_write_terms, _read_terms)})

    def __post_init__(self):
        lo, hi = self.universe
        if not lo < hi:
            raise ConfigError(f"variable {self.name!r}: universe needs lo < hi")
        if len(self.terms) < 2:
            raise ConfigError(f"variable {self.name!r}: need at least 2 terms")
        names = [t for t, _ in self.terms]
        if len(set(names)) != len(names):
            raise ConfigError(f"variable {self.name!r}: duplicate term name")
        if not np.all(self.degrees(np.linspace(lo, hi, COVERAGE_GRID)).max(axis=0) > 0):
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
        raise ConfigError(f"variable {self.name!r} has no term {name!r}")


@dataclass(frozen=True)
class Rule:
    """Conjunction of (variable IS term) clauses implying an output term."""

    antecedent: tuple[tuple[str, str], ...] = field(metadata={"key": "if"})
    consequent: str = field(metadata={"key": "then"})
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
        if not 3 <= self.resolution <= MAX_RESOLUTION:
            raise ConfigError(f"resolution must lie in [3, {MAX_RESOLUTION:,}]")
        lo, hi = self.output.universe
        if not lo < self.decision_threshold < hi:
            raise ConfigError(f"decision threshold must lie in ({lo:g}, {hi:g})")
        by_name = {v.name: v for v in self.inputs}
        if len(by_name) != len(self.inputs):
            raise ConfigError("duplicate input variable name")
        for rule in self.rules:
            for var, term in rule.antecedent:
                if var not in by_name:
                    raise ConfigError(f"unknown variable {var!r}")
                by_name[var].term(term)  # raises ConfigError
            self.output.term(rule.consequent)
        centroid_plan(self.output)  # raises ConfigError naming the term

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.inputs)

    @cached_property
    def engine(self) -> "CompiledFIS":
        """The compiled engine of this model, built once per model."""
        return CompiledFIS(self)


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
    """Named rules from the (R, m) term indices, weights and output term
    indices of the rules, the form CompiledFIS compiles a model's rules to:
    term index -1 leaves its input unconstrained."""
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
        a, b, c, d = mf.corners
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
    # sorted distinct points: np.unique without return_inverse would import
    # numpy.ma into every command
    fixed = np.sort(np.clip(points, lo, hi))
    fixed = fixed[np.concatenate([[True], fixed[1:] != fixed[:-1]])]
    plan = CentroidPlan(fixed, np.array(x0), np.array(width))
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


def min_tree(slots: np.ndarray, n_rows: int
             ) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """The tree of shared minima of rules given as (R, m) slots into a table
    of n_rows rows: (levels, slots). Each level pairs adjacent columns and
    makes each distinct pair of rows one new row, the minimum of the two,
    numbered on from the rows before; an odd last column passes through.
    Levels stop at two columns or fewer, so the returned (R, <= 2) slots
    index the table extended by every level's rows, as fill_tree makes it.
    A level is (left, right), the two rows of each of its new rows. With no
    rules, or two inputs or fewer, there is no level."""
    levels = []
    if len(slots) == 0:
        return levels, slots
    while slots.shape[1] > 2:
        pairs = slots.shape[1] // 2
        codes = slots[:, 0:2 * pairs:2] * n_rows + slots[:, 1:2 * pairs:2]
        # np.unique with return_inverse does not import numpy.ma
        distinct, inverse = np.unique(codes.ravel(), return_inverse=True)
        levels.append((distinct // n_rows, distinct % n_rows))
        slots = np.hstack([n_rows + inverse.reshape(codes.shape),
                           slots[:, 2 * pairs:]])
        n_rows += len(distinct)
    return levels, slots


def fill_tree(table: np.ndarray, levels: list[tuple[np.ndarray, np.ndarray]],
              start: int) -> None:
    """Write the rows of every level of a min_tree into the (rows, N) table
    from row start on; the rows before hold the table the tree was built
    over."""
    for left, right in levels:
        stop = start + len(left)
        np.minimum(table[left], table[right], out=table[start:stop])
        start = stop


def max_by_group(strengths: np.ndarray, groups: np.ndarray,
                 levels: np.ndarray) -> None:
    """Raise each levels[g] to the maximum of the (R, N) strengths of the
    rules of group g: the clip level of a class is the maximum over its
    rules, and min and max round nothing. Each run of equal groups is one
    slice of whole rows, so rules sorted by group take one slice a group;
    at 194 rules and 1,159 records that ran 4x faster than a reduceat."""
    n = len(groups)
    edges = np.ones(n + 1, dtype=bool)  # where a group starts or all end
    np.not_equal(groups[1:], groups[:-1], out=edges[1:n])
    bounds = np.flatnonzero(edges).tolist()
    for start, stop in zip(bounds[:-1], bounds[1:]):
        level = levels[groups[start]]
        np.maximum(level, strengths[start:stop].max(axis=0), out=level)


class CompiledFIS:
    """The engine of a model, compiled from the model alone and cached as
    config.engine; the package's only inference path: infer(), predict(),
    the fitness decision and the classify command all run here."""

    def __init__(self, config: FISConfig):
        self.config = config
        self.inputs, self.output = config.inputs, config.output
        self.resolution = config.resolution
        self.decision_threshold = config.decision_threshold
        # FISConfig has already checked every variable and term name. A rule
        # need not constrain every input; unconstrained inputs keep the
        # sentinel -1 and contribute degree 1
        var_index = {v.name: i for i, v in enumerate(self.inputs)}
        term_index = [{t: j for j, t in enumerate(v.term_names)} for v in self.inputs]
        out_index = {t: j for j, t in enumerate(self.output.term_names)}
        self.antecedents = np.full((len(config.rules), len(self.inputs)), -1,
                                   dtype=np.int64)  # (R, m) term index
        for r, rule in enumerate(config.rules):
            for var, term in rule.antecedent:
                i = var_index[var]
                self.antecedents[r, i] = term_index[i][term]
        self.weights = np.array([rule.weight for rule in config.rules], dtype=float)
        self.consequents = np.array(
            [out_index[rule.consequent] for rule in config.rules], dtype=np.int64)
        self.plan = centroid_plan(self.output)
        lo, hi = self.output.universe
        # every output term on the grid, read at the ends of each index range
        self.term_samples = self.output.degrees(np.linspace(lo, hi, self.resolution))
        # the class output at its midpoint: labels compare the two levels
        self.by_levels = self.decision_threshold == (lo + hi) / 2.0 and [
            mf for _, mf in self.output.terms
        ] == [Triangular(lo, lo, hi), Triangular(lo, hi, hi)]
        self.n_rules = self.weights.shape[0]
        # rules run sorted by consequent, one max_by_group slice a class:
        # row j is rule order[j] of the file; slots index the flat table
        self.order = np.argsort(self.consequents, kind="stable")
        self.file_order = np.argsort(self.order)
        self.groups = self.consequents[self.order]
        self.t_max = max((len(v.terms) for v in self.inputs), default=0)
        ant = self.antecedents[self.order]
        self.slots = (np.arange(len(self.inputs)) * (self.t_max + 1)
                      + np.where(ant >= 0, ant, self.t_max))
        # the degree table's rows, then the tree's; tree_slots index both
        self.n_degrees = len(self.inputs) * (self.t_max + 1)
        self.levels, self.tree_slots = min_tree(self.slots, self.n_degrees)
        self.n_rows = self.n_degrees + sum(len(left) for left, _ in self.levels)

    def degree_table(self, records: np.ndarray) -> np.ndarray:
        """Clamped membership degrees, shape (m, T_max + 1, N)."""
        return degree_table(self.inputs, records)

    def _strengths(self, records: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Rule firing strengths, (R, N), the rules in consequent order,
        from the (N, m) records; table is an (n_rows, N) buffer that the
        degree table and the tree's rows are written to."""
        table[:self.n_degrees] = self.degree_table(records).reshape(
            self.n_degrees, table.shape[1])
        fill_tree(table, self.levels, self.n_degrees)
        return rule_strengths(table, self.tree_slots, self.weights[self.order])

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
        record takes in the rule strengths, the degree table and the tree."""
        width = self.n_rules + self.n_rows
        return max(1, CHUNK_BYTES // (8 * max(width, 1)))

    def chunks(self, records: np.ndarray):
        """(start, strengths, crisp, labels) of each chunk of chunk_rows
        records of the (N, m) table, in order, strengths as (R, n) in
        consequent order. Strengths are exact minima and decide() does not
        depend on the rows decided with it, so every value is the unchunked
        one. An empty table is one empty chunk."""
        records = np.atleast_2d(np.asarray(records, dtype=float))
        rows = self.chunk_rows
        # one table for every chunk, so that no chunk maps fresh pages
        table = np.empty((self.n_rows, min(rows, len(records))))
        for start in range(0, max(len(records), 1), rows):
            chunk = records[start:start + rows]
            strengths = self._strengths(chunk, table[:, :len(chunk)])
            levels = np.zeros((len(self.output.terms), strengths.shape[1]))
            max_by_group(strengths, self.groups, levels)
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
        raise ConfigError(
            f"record has {records.shape[1]} values, expected {len(inputs)}"
        )
    t_max = max(len(v.terms) for v in inputs)
    table = np.ones((len(inputs), t_max + 1, records.shape[0]))
    for i, var in enumerate(inputs):
        table[i, : len(var.terms)] = var.degrees(records[:, i])
    return table


# --- public operations -------------------------------------------------------


def infer(config: FISConfig, record: Sequence[float]) -> Inference:
    """Full pipeline for one record: fuzzify, fire rules, aggregate, defuzzify."""
    if not config.rules:
        raise ConfigError("cannot infer with an empty rule base")
    engine = config.engine
    rec = np.asarray(record, dtype=float)[None, :]
    _, strengths, crisp, labels = next(engine.chunks(rec))
    return Inference(
        float(crisp[0]), int(labels[0]),
        tuple(float(s) for s in strengths[engine.file_order, 0]),
    )


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
