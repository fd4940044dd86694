"""Building a rule base: induction from labelled data, or an expert file.

Induction follows the classic grid-partition recipe (Wang & Mendel, 1992):
every training record proposes the rule made of its maximum-degree term
per input, weighted by the product of those degrees. Conflicting proposals
for the same antecedent keep the heaviest, the earliest on ties, and the
surviving rules are ordered by the first record that proposed them.
Antecedents are integer cells, so `keep_heaviest` fuses each proposal's
cell and index into one int64 key and groups them with one sort of unique
keys, with no sort on the weights. `selector.CompiledFolds`, the only
trainer, reads each record's proposal off one `fuzzy.degree_table` per
split and runs `keep_heaviest` per mask, with the split id as the leading
digit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import read_lines, reading
from .errors import ConfigError
from .fuzzy import FISConfig, Rule

# a split's degree table grows with records x inputs x terms: generation 0
# of the bundled table peaks at 239 MB at this many terms per input
MAX_PARTITIONS = 1_000


@dataclass(frozen=True)
class InductionConfig:
    partitions_per_input: int = 3
    min_rule_weight: float = 0.0

    def __post_init__(self):
        if self.partitions_per_input < 2:
            raise ConfigError("partitions_per_input must be at least 2")
        if self.partitions_per_input > MAX_PARTITIONS:
            raise ConfigError(
                f"partitions_per_input must be at most {MAX_PARTITIONS:,}")
        if not 0.0 <= self.min_rule_weight <= 1.0:
            raise ConfigError("min_rule_weight must lie in [0, 1]")


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


# --- expert rule files -------------------------------------------------------

_RULE_RE = re.compile(
    r"^\s*IF\s+(?P<body>.+?)\s+THEN\s+(?P<outvar>\S+)\s+IS\s+(?P<outterm>\S+)"
    r"(?:\s+WEIGHT\s+(?P<weight>\S+))?\s*$",
    re.IGNORECASE,
)
_CLAUSE_RE = re.compile(r"^\s*(?P<var>\S+)\s+IS\s+(?P<term>\S+)\s*$", re.IGNORECASE)


def _parse_rule(line: str, line_no: int) -> tuple[int, str, Rule]:
    """The line number, output variable and rule of one line, names unchecked."""
    match = _RULE_RE.match(line)
    if not match:
        raise ConfigError(f"line {line_no}: cannot parse rule: {line.strip()!r}")
    clauses = []
    for part in re.split(r"\s+AND\s+", match.group("body"), flags=re.IGNORECASE):
        clause = _CLAUSE_RE.match(part)
        if not clause:
            raise ConfigError(f"line {line_no}: cannot parse clause: {part.strip()!r}")
        clauses.append((clause.group("var"), clause.group("term")))
    weight = 1.0
    if match.group("weight") is not None:
        try:
            weight = float(match.group("weight"))
        except ValueError:
            raise ConfigError(f"line {line_no}: weight is not a number") from None
    try:
        return line_no, match["outvar"], Rule(tuple(clauses), match["outterm"], weight)
    except ConfigError as exc:
        raise ConfigError(f"line {line_no}: {exc}") from exc


def read_expert_rules(path: str | Path) -> list[tuple[int, str, Rule]]:
    """The rules of a rule file (one rule per line, # comments and blanks
    allowed, at least one rule), each decoded and parsed once, as (line
    number, output variable, rule); load_expert_rules checks their names
    against a model."""
    with reading(path):
        lines = [(no, line.strip()) for no, line in enumerate(read_lines(path), 1)]
        rules = [_parse_rule(text, no) for no, text in lines
                 if text and not text.startswith("#")]
        if not rules:
            raise ConfigError("no rule in the file")
    return rules


def load_expert_rules(path: str | Path, config: FISConfig,
                      rules: list[tuple[int, str, Rule]] | None = None
                      ) -> tuple[Rule, ...]:
    """The rules of a rule file checked against the variables and terms of
    config; rules is read_expert_rules(path), read here unless given."""
    rules = read_expert_rules(path) if rules is None else rules
    with reading(path):
        for no, outvar, rule in rules:
            try:
                if outvar != config.output.name:
                    raise ConfigError(f"unknown output variable {outvar!r}")
                replace(config, rules=(rule,))  # FISConfig checks the names
            except ConfigError as exc:
                raise ConfigError(f"line {no}: {exc}") from exc
    return tuple(rule for _, _, rule in rules)


def format_rule(rule: Rule, output_name: str) -> str:
    body = " AND ".join(f"{var} IS {term}" for var, term in rule.antecedent)
    text = f"IF {body} THEN {output_name} IS {rule.consequent}"
    if rule.weight != 1.0:
        text += f" WEIGHT {rule.weight!r}"
    return text

