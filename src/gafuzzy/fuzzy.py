"""Mamdani fuzzy inference.

Membership functions, linguistic variables and if-then rules, evaluated
with min conjunction, clip implication, max aggregation and centroid
defuzzification over a uniform sample grid. A compiled engine backs both
the single-record API and the batch classifier so the two can never
disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import ArityMismatch, ConfigError, NoRules, UnknownTerm
from .jsonio import read_json, write_json

COVERAGE_GRID = 129  # sample count for the coverage sanity check


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

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.inputs)


class Inference(NamedTuple):
    crisp: float
    label: int
    strengths: tuple[float, ...]


# --- compiled engine --------------------------------------------------------


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
        self.antecedents = np.asarray(antecedents, dtype=np.int64).reshape(
            -1, len(self.inputs)
        )
        self.weights = np.asarray(weights, dtype=float).reshape(-1)
        self.consequents = np.asarray(consequents, dtype=np.int64).reshape(-1)
        self.resolution = resolution
        self.decision_threshold = decision_threshold
        lo, hi = output.universe
        self.grid = np.linspace(lo, hi, resolution)
        self.term_samples = np.stack(
            [mf.sample(self.grid) for _, mf in output.terms]
        )
        self.n_rules = self.weights.shape[0]

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

    def degree_table(self, records: np.ndarray) -> np.ndarray:
        """Clamped membership degrees, shape (m, T_max, N)."""
        records = np.atleast_2d(np.asarray(records, dtype=float))
        if records.shape[1] != len(self.inputs):
            raise ArityMismatch(
                f"record has {records.shape[1]} values, expected {len(self.inputs)}"
            )
        n = records.shape[0]
        t_max = max(len(v.terms) for v in self.inputs)
        table = np.ones((len(self.inputs), t_max + 1, n))  # last slot: sentinel 1
        for i, var in enumerate(self.inputs):
            lo, hi = var.universe
            col = np.clip(records[:, i], lo, hi)
            for j, (_, mf) in enumerate(var.terms):
                table[i, j] = mf.sample(col)
        return table

    def strength_matrix(self, records: np.ndarray) -> np.ndarray:
        """Rule firing strengths, shape (N, R)."""
        table = self.degree_table(records)
        if self.n_rules == 0:
            return np.zeros((table.shape[2], 0))
        m = len(self.inputs)
        idx = np.where(self.antecedents >= 0, self.antecedents, table.shape[1] - 1)
        gathered = table[np.arange(m)[None, :], idx, :]  # (R, m, N)
        strengths = self.weights[:, None] * gathered.min(axis=1)
        return strengths.T

    def crisp_values(self, strengths: np.ndarray) -> np.ndarray:
        """Centroid of the clipped-and-aggregated output, per record."""
        n = strengths.shape[0]
        lo, hi = self.output.universe
        if self.n_rules == 0:
            return np.full(n, (lo + hi) / 2.0)
        n_terms = self.term_samples.shape[0]
        # max over rules then clip per term equals clip per rule then max
        per_term = np.full((n, n_terms), -np.inf)
        for t in range(n_terms):
            cols = self.consequents == t
            if np.any(cols):
                per_term[:, t] = strengths[:, cols].max(axis=1)
        agg = np.zeros((n, self.resolution))
        for t in range(n_terms):
            clipped = np.minimum(per_term[:, t][:, None], self.term_samples[t][None, :])
            np.maximum(agg, clipped, out=agg)
        # row-wise pairwise sums keep results independent of the batch size,
        # so one record through predict() equals the same record in a batch
        num = (agg * self.grid).sum(axis=1)
        den = agg.sum(axis=1)
        midpoint = (lo + hi) / 2.0
        with np.errstate(invalid="ignore", divide="ignore"):
            crisp = np.where(den > 0.0, num / den, midpoint)
        return crisp

    def predict(self, records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        strengths = self.strength_matrix(records)
        crisp = self.crisp_values(strengths)
        labels = (crisp >= self.decision_threshold).astype(np.int64)
        return crisp, labels


# --- public operations -------------------------------------------------------


def centroid(samples: np.ndarray, lo: float, hi: float) -> float:
    """Center of mass of a sampled membership on the uniform grid [lo, hi].

    Falls back to the universe midpoint when the total mass is zero.
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
    strengths = engine.strength_matrix(rec)
    crisp = float(engine.crisp_values(strengths)[0])
    label = int(crisp >= config.decision_threshold)
    return Inference(crisp, label, tuple(float(s) for s in strengths[0]))


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
        int(d.get("resolution", 1001)),
        float(d.get("decision_threshold", 0.5)),
    )


def save_model(config: FISConfig, path: str | Path) -> None:
    write_json(config_to_dict(config), path)


def load_model(path: str | Path) -> FISConfig:
    return read_json(path, config_from_dict, "model")
