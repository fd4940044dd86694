"""Building a rule base: induction from labelled data, or an expert file.

Induction follows the classic grid-partition recipe (Wang & Mendel, 1992):
every training record proposes the rule made of its maximum-degree term
per input, weighted by the product of those degrees. Conflicting proposals
for the same antecedent keep the heaviest, the earliest on ties, and the
surviving rules are ordered by the first record that proposed them.
Antecedents are integer cells, so `keep_heaviest` fuses each proposal's
cell and index into one int64 key and groups them with one sort of unique
keys, with no sort on the weights. `induce_rule_matrix` runs
`rule_proposals` and `keep_heaviest` in index form, as the compiled CV
folds do per mask with the fold id as the leading digit; `induce_rules`
names its result.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import Dataset, read_lines, reading
from .errors import ArityMismatch, ConfigError, EmptyTrainingSet, RuleParseError, UnknownTerm
from .fuzzy import FISConfig, LinguisticVariable, Rule, index_rules


@dataclass(frozen=True)
class InductionConfig:
    partitions_per_input: int = 3
    min_rule_weight: float = 0.0

    def __post_init__(self):
        if self.partitions_per_input < 2:
            raise ConfigError("partitions_per_input must be at least 2")
        if not 0.0 <= self.min_rule_weight <= 1.0:
            raise ConfigError("min_rule_weight must lie in [0, 1]")


def rule_proposals(
    records: np.ndarray, inputs: Sequence[LinguisticVariable]
) -> tuple[np.ndarray, np.ndarray]:
    """Each record's strongest term of each input (the earlier term on equal
    degrees) and its degree, both (N, m), terms of the narrowest unsigned
    type that holds them."""
    n_terms = max((len(v.terms) for v in inputs), default=0)
    terms = np.zeros(records.shape, dtype=np.min_scalar_type(n_terms))
    degrees = np.zeros(records.shape)
    for i, var in enumerate(inputs):
        table = var.degrees(records[:, i])  # (T, N)
        terms[:, i] = table.argmax(axis=0)
        degrees[:, i] = table.max(axis=0)
    return terms, degrees


def keep_heaviest(cells: Sequence[np.ndarray], radices: Sequence[int],
                  weights: np.ndarray, min_weight: float) -> np.ndarray:
    """The proposals kept as rules, as indices in order of their cell's
    first proposer. Proposal j lies in the cell of digits cells[i][j], each
    below radices[i]; each cell keeps its heaviest proposal, the earliest on
    equal weights, unless it is lighter than min_weight.
    The digits, then j, make one unique int64 key per proposal, so one sort
    leaves every cell's proposals in index order: its first proposer leads
    and the earliest heaviest is the first at its max. A digit that would
    carry the key past int64 first re-ranks the key so far to 0, 1, ...
    with np.unique, which keeps its order."""
    n = len(weights)
    shift = max(n - 1, 1).bit_length()  # bits of the proposal index
    key, bound = np.zeros(n, dtype=np.int64), 1
    for digits, radix in zip(cells, radices):
        if bound * radix > 2**63 >> shift:
            distinct, key = np.unique(key, return_inverse=True)
            bound = len(distinct)
        key *= radix
        key += digits
        bound *= radix
    ranked = np.sort((key << shift) | np.arange(n))
    order = ranked & ((1 << shift) - 1)
    ranked >>= shift
    edges = np.ones(n + 1, dtype=bool)  # where a cell starts or all end
    np.not_equal(ranked[1:], ranked[:-1], out=edges[1:n])
    bounds = np.flatnonzero(edges)
    starts = bounds[:-1]
    w = weights[order]
    heaviest = np.repeat(np.maximum.reduceat(w, starts), bounds[1:] - starts)
    at_max = np.flatnonzero(w == heaviest)
    rows = order[at_max[np.searchsorted(at_max, starts)]]
    rows = rows[np.argsort(order[starts])]
    return rows[weights[rows] >= min_weight]


def proposal_weights(degrees: np.ndarray) -> np.ndarray:
    """The weight of each proposal, the product of its (m, N) degrees in
    input order."""
    weights = degrees[0].copy()
    for row in degrees[1:]:
        weights *= row
    return weights


def induce_rule_matrix(
    records: np.ndarray,
    labels: np.ndarray,
    inputs: Sequence[LinguisticVariable],
    cfg: InductionConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate-and-filter induction in index form."""
    if len(records) == 0:
        raise EmptyTrainingSet("cannot induce rules from an empty training set")
    records = np.asarray(records, dtype=float)
    m = records.shape[1]
    if m != len(inputs):
        raise ArityMismatch(f"{m} columns for {len(inputs)} input variables")
    terms, degrees = rule_proposals(records, inputs)
    weights = proposal_weights(degrees.T)
    keep = keep_heaviest(terms.T, [len(v.terms) for v in inputs], weights,
                         cfg.min_rule_weight)
    return terms[keep], weights[keep], np.asarray(labels, dtype=np.int64)[keep]


def induce_rules(
    train: Dataset,
    inputs: Sequence[LinguisticVariable],
    output: LinguisticVariable,
    cfg: InductionConfig,
) -> tuple[Rule, ...]:
    """Induce a rule base from a labelled dataset.

    Input variables must match the dataset's feature columns in order, and
    the output variable's terms are taken in class order (term 0 for class
    0, term 1 for class 1).
    """
    names = [v.name for v in inputs]
    if names != list(train.schema.feature_names):
        raise ArityMismatch(
            f"input variables {names} do not match dataset features "
            f"{list(train.schema.feature_names)}"
        )
    return index_rules(
        inputs, output, *induce_rule_matrix(train.records, train.labels, inputs, cfg)
    )


# --- expert rule files -------------------------------------------------------

_RULE_RE = re.compile(
    r"^\s*IF\s+(?P<body>.+?)\s+THEN\s+(?P<outvar>\S+)\s+IS\s+(?P<outterm>\S+)"
    r"(?:\s+WEIGHT\s+(?P<weight>\S+))?\s*$",
    re.IGNORECASE,
)
_CLAUSE_RE = re.compile(r"^\s*(?P<var>\S+)\s+IS\s+(?P<term>\S+)\s*$", re.IGNORECASE)


def _parse_rule(line: str, line_no: int) -> tuple[str, Rule]:
    """The output variable and the rule of one line, names unchecked."""
    match = _RULE_RE.match(line)
    if not match:
        raise RuleParseError(line_no, f"cannot parse rule: {line.strip()!r}")
    clauses = []
    for part in re.split(r"\s+AND\s+", match.group("body"), flags=re.IGNORECASE):
        clause = _CLAUSE_RE.match(part)
        if not clause:
            raise RuleParseError(line_no, f"cannot parse clause: {part.strip()!r}")
        clauses.append((clause.group("var"), clause.group("term")))
    weight = 1.0
    if match.group("weight") is not None:
        try:
            weight = float(match.group("weight"))
        except ValueError:
            raise RuleParseError(line_no, "weight is not a number") from None
    try:
        return match["outvar"], Rule(tuple(clauses), match["outterm"], weight)
    except ConfigError as exc:
        raise RuleParseError(line_no, str(exc)) from exc


def parse_rule_line(line: str, line_no: int, config: FISConfig) -> Rule:
    outvar, rule = _parse_rule(line, line_no)
    if outvar != config.output.name:
        raise UnknownTerm(f"line {line_no}: unknown output variable {outvar!r}")
    by_name = {v.name: v for v in config.inputs}
    for var, term in rule.antecedent:
        if var not in by_name:
            raise UnknownTerm(f"line {line_no}: unknown variable {var!r}")
        if term not in by_name[var].term_names:
            raise UnknownTerm(f"line {line_no}: variable {var!r} has no term {term!r}")
    if rule.consequent not in config.output.term_names:
        raise UnknownTerm(f"line {line_no}: output has no term {rule.consequent!r}")
    return rule


def read_expert_rules(path: str | Path) -> list[tuple[int, str]]:
    """The numbered rules of a rule file (one rule per line, # comments and
    blanks allowed), each decoded and parsed; load_expert_rules checks
    their names against a model."""
    with reading(path):
        lines = [(no, line.strip()) for no, line in enumerate(read_lines(path), 1)]
        lines = [(no, text) for no, text in lines if text and not text.startswith("#")]
        for no, text in lines:
            _parse_rule(text, no)
    return lines


def load_expert_rules(path: str | Path, config: FISConfig,
                      lines: list[tuple[int, str]] | None = None) -> tuple[Rule, ...]:
    """The rules of a rule file checked against the variables and terms of
    config; lines is read_expert_rules(path), read here unless given."""
    lines = read_expert_rules(path) if lines is None else lines
    with reading(path):
        return tuple(parse_rule_line(text, no, config) for no, text in lines)


def format_rule(rule: Rule, output_name: str) -> str:
    body = " AND ".join(f"{var} IS {term}" for var, term in rule.antecedent)
    text = f"IF {body} THEN {output_name} IS {rule.consequent}"
    if rule.weight != 1.0:
        text += f" WEIGHT {rule.weight!r}"
    return text


def save_expert_rules(
    rules: Sequence[Rule], output_name: str, path: str | Path
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rule in rules:
            fh.write(format_rule(rule, output_name) + "\n")
