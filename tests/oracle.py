"""Independent reference implementations used to cross-check the package.

Everything here is written from the definitions in plain Python: its own
triangular membership arithmetic, its own grid-partition rule induction,
its own clip/max/centroid inference and its own fitness composition. The
package types (Dataset, LinguisticVariable) are used only as containers.

A two-class centroid within TIE of the threshold is a tie up to rounding:
its label is decided again in exact rational arithmetic.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np

TIE = 1e-9


def tri_degree(x, a, b, c):
    if x < a or x > c:
        return 0.0
    if x == b:
        return 1.0
    if a < x < b:
        return (x - a) / (b - a)
    if b < x < c:
        return (c - x) / (c - b)
    return 0.0  # x == a < b, or x == c > b


def trap_degree(x, a, b, c, d):
    if x < a or x > d:
        return 0.0
    if b <= x <= c:
        return 1.0
    if x < b:
        return (x - a) / (b - a)
    return (d - x) / (d - c)


@lru_cache(maxsize=8)
def output_samples(output, resolution):
    """The grid of an output variable (read as a container) and each of
    its triangular or trapezoidal terms sampled on it, (T, resolution)."""
    lo, hi = output.universe
    grid = np.linspace(lo, hi, resolution)
    corners = [(mf.a, mf.b, mf.c, mf.d) if hasattr(mf, "d")
               else (mf.a, mf.b, mf.b, mf.c) for _, mf in output.terms]
    return grid, np.array([[trap_degree(x, *abcd) for x in grid]
                           for abcd in corners])


def grid_centroids(output, resolution, levels):
    """The centroid of every row of (N, T) clip levels, summed point by
    point over the output grid; a row of no mass gets the midpoint."""
    lo, hi = output.universe
    grid, samples = output_samples(output, resolution)
    agg = np.zeros((len(levels), resolution))
    for t in range(len(samples)):
        agg = np.maximum(agg, np.minimum(levels[:, t, None], samples[t]))
    den = agg.sum(axis=1)
    fired = den > 0
    crisp = np.full(len(levels), (lo + hi) / 2.0)
    crisp[fired] = (agg[fired] @ grid) / den[fired]
    return crisp


def build_partition_params(lo, hi, n_terms):
    """Peak positions and (a, b, c) triples of the uniform partition."""
    if hi <= lo:
        lo, hi = lo - 0.5, lo + 0.5
    peaks = np.linspace(lo, hi, n_terms)
    triples = []
    for i in range(n_terms):
        triples.append(
            (
                float(peaks[max(i - 1, 0)]),
                float(peaks[i]),
                float(peaks[min(i + 1, n_terms - 1)]),
            )
        )
    return (float(lo), float(hi)), triples


def variable_params(var):
    """Extract ((lo, hi), [(a, b, c), ...]) from a triangular variable."""
    triples = [(mf.a, mf.b, mf.c) for _, mf in var.terms]
    return var.universe, triples


def clamp(x, lo, hi):
    return min(max(x, lo), hi)


def term_degrees(x, universe, triples):
    cx = clamp(x, *universe)
    return [tri_degree(cx, a, b, c) for a, b, c in triples]


def induce(records, labels, variables):
    """Candidate-and-filter rule induction.

    variables: list of ((lo, hi), [(a, b, c), ...]).
    Returns list of (antecedent term-index tuple, weight, class), ordered by
    the first record that proposed each surviving antecedent; conflicts keep
    the heaviest proposal, first proposer on ties.
    """
    proposals = {}
    order = []
    for r in range(len(records)):
        ant = []
        weight = 1.0
        for i, (universe, triples) in enumerate(variables):
            degrees = term_degrees(records[r][i], universe, triples)
            best_term, best_deg = 0, degrees[0]
            for t in range(1, len(degrees)):
                if degrees[t] > best_deg:
                    best_term, best_deg = t, degrees[t]
            ant.append(best_term)
            weight = weight * best_deg
        key = tuple(ant)
        if key not in proposals:
            proposals[key] = (weight, int(labels[r]))
            order.append(key)
        elif weight > proposals[key][0]:
            proposals[key] = (weight, int(labels[r]))
    return [(key, proposals[key][0], proposals[key][1]) for key in order]


def keep_heaviest(cells, weights, min_weight):
    """Indices of the proposals kept as rules: per cell (a hashable key per
    proposal) the heaviest, the first proposer on ties, in order of each
    cell's first proposer, then those lighter than min_weight dropped."""
    best = {}
    for j, cell in enumerate(cells):
        if cell not in best or weights[j] > weights[best[cell]]:
            best[cell] = j
    return [j for j in best.values() if weights[j] >= min_weight]


OUTPUT_TRIPLES = [(0.0, 0.0, 1.0), (0.0, 1.0, 1.0)]  # negative, positive


def exact_label(per_class, resolution=1001, threshold=0.5):
    """The class of the grid centroid in exact rational arithmetic: grid
    point i / (n - 1), every level and threshold as the rational value of
    its float."""
    levels = [Fraction(s) for s in per_class]
    if max(levels) <= 0:  # no mass: the midpoint, with no sum to round
        return int(Fraction(1, 2) >= Fraction(threshold))
    triples = [tuple(map(Fraction, abc)) for abc in OUTPUT_TRIPLES]
    num = den = Fraction(0)
    for i in range(resolution):
        y = Fraction(i, resolution - 1)
        mu = max(min(s, tri_degree(y, *abc)) for s, abc in zip(levels, triples))
        num += y * mu
        den += mu
    return int(num / den >= Fraction(threshold))


def classify(record, variables, rules, resolution=1001, threshold=0.5):
    """One record through fuzzify -> fire -> clip/max -> centroid, the
    label decided exactly where the centroid is within TIE of the
    threshold."""
    degrees = [
        term_degrees(record[i], universe, triples)
        for i, (universe, triples) in enumerate(variables)
    ]
    per_class = [0.0, 0.0]
    for ant, weight, cls in rules:
        strength = weight * min(degrees[i][t] for i, t in enumerate(ant))
        if strength > per_class[cls]:
            per_class[cls] = strength
    grid = np.linspace(0.0, 1.0, resolution)
    num = 0.0
    den = 0.0
    for y in grid:
        mu = max(
            min(per_class[0], tri_degree(y, *OUTPUT_TRIPLES[0])),
            min(per_class[1], tri_degree(y, *OUTPUT_TRIPLES[1])),
        )
        num += y * mu
        den += mu
    crisp = num / den if den > 0 else 0.5
    if abs(crisp - threshold) <= TIE:
        return crisp, exact_label(per_class, resolution, threshold)
    return crisp, int(crisp >= threshold)


def fold_accuracy(x_train, y_train, x_test, y_test, partitions,
                  resolution=1001, threshold=0.5, min_weight=0.0):
    variables = [
        build_partition_params(
            float(x_train[:, i].min()), float(x_train[:, i].max()), partitions
        )
        for i in range(x_train.shape[1])
    ]
    rules = [r for r in induce(x_train, y_train, variables)
             if r[1] >= min_weight]
    hits = 0
    for rec, label in zip(x_test, y_test):
        _, predicted = classify(rec, variables, rules, resolution, threshold)
        hits += predicted == label
    return hits / len(y_test)


def fitness(mask, data, costs, folds, cost_weight=0.3, partitions=3,
            resolution=1001, threshold=0.5, min_weight=0.0):
    """Re-evaluation of project -> induce -> infer -> score -> penalize.

    folds: the (train, test) index pairs of the evaluation plan (shared
    context; the classifier pipeline is recomputed from scratch).
    """
    kept = [i for i, bit in enumerate(mask) if bit]
    records = data.records[:, kept]
    accs = [
        fold_accuracy(
            records[tr], data.labels[tr], records[te], data.labels[te],
            partitions, resolution, threshold, min_weight,
        )
        for tr, te in folds
    ]
    cost = sum(c for bit, (_, c) in zip(mask, costs.entries) if bit)
    return float(np.mean(accs)) - cost_weight * cost / costs.total_cost
