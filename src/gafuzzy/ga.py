"""Binary-chromosome genetic algorithm.

Generational evolution with roulette-wheel selection (fitness windowed to
keep weights non-negative), two-point crossover, per-bit mutation and
elitism. All randomness flows from one seeded generator owned by the
orchestrating loop, so a run is a pure function of its parameters.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, LengthMismatch, UnevaluatedPopulation

Mask = tuple[int, ...]

ROULETTE_EPSILON = 1e-9


def mask_to_string(mask: Mask) -> str:
    return "".join("1" if b else "0" for b in mask)


def string_to_mask(bits: str) -> Mask:
    if not bits or any(c not in "01" for c in bits):
        raise ConfigError(f"not a bitstring: {bits!r}")
    return tuple(int(c) for c in bits)


@dataclass(frozen=True)
class GAParams:
    """Knobs of the evolution loop.

    Defaults sit inside the commonly recommended ranges for this kind of
    search (population 40-60, crossover 0.3-0.9, mutation 0.01-0.2).
    """

    population_size: int = 50
    crossover_prob: float = 0.6
    mutation_prob: float = 0.05
    max_generations: int = 100
    stagnation_window: int = 25
    elite_count: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ConfigError("population_size must be at least 2")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ConfigError("crossover_prob must lie in [0, 1]")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ConfigError("mutation_prob must lie in [0, 1]")
        if self.max_generations < 0:
            raise ConfigError("max_generations must be non-negative")
        if self.stagnation_window < 1:
            raise ConfigError("stagnation_window must be at least 1")
        if not 1 <= self.elite_count < self.population_size:
            raise ConfigError("elite_count must satisfy 1 <= elites < population")


@dataclass
class Population:
    individuals: tuple[Mask, ...]
    fitnesses: tuple[float, ...] | None
    generation: int = 0


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    best_mask: Mask


EvolutionTrace = list[GenerationStats]


def _repair_zero(bits: Mask, rng: np.random.Generator) -> Mask:
    if any(bits):
        return bits
    i = int(rng.integers(0, len(bits)))
    return bits[:i] + (1,) + bits[i + 1:]


def init_population(
    params: GAParams, length: int, rng: np.random.Generator | None = None
) -> Population:
    """Uniform random masks; all-zero draws get one random bit switched on."""
    if length < 1:
        raise ConfigError("chromosome length must be at least 1")
    if rng is None:
        rng = np.random.default_rng(params.seed)
    raw = rng.integers(0, 2, size=(params.population_size, length), dtype=np.int64)
    individuals = tuple(_repair_zero(tuple(row.tolist()), rng) for row in raw)
    return Population(individuals, None, 0)


def roulette_select(
    pop: Population, count: int, rng: np.random.Generator
) -> list[Mask]:
    """Fitness-proportional sampling with min-shift windowing.

    Weights are f - min(f) + epsilon, so negative fitnesses are legal and a
    flat population degrades to uniform sampling.
    """
    if pop.fitnesses is None:
        raise UnevaluatedPopulation("population has no fitness values yet")
    if count < 1:
        raise ConfigError("count must be positive")
    fits = np.asarray(pop.fitnesses, dtype=float)
    weights = fits - fits.min() + ROULETTE_EPSILON
    probs = weights / weights.sum()
    chosen = rng.choice(len(fits), size=count, replace=True, p=probs)
    return [pop.individuals[i] for i in chosen]


def two_point_crossover(
    a: Mask, b: Mask, rng: np.random.Generator, crossover_prob: float
) -> tuple[Mask, Mask]:
    """With probability Pc, swap the segment between two random cut points.

    Cut points satisfy 1 <= p < q <= L-1 and the half-open segment [p, q)
    moves between the parents. Lengths below 3 leave no valid cut pair, so
    the parents pass through unchanged.
    """
    if len(a) != len(b):
        raise LengthMismatch("parents differ in length")
    if len(a) < 2:
        raise LengthMismatch("crossover needs length >= 2")
    length = len(a)
    if length < 3 or rng.random() >= crossover_prob:
        return a, b
    p, q = sorted((rng.choice(length - 1, size=2, replace=False) + 1).tolist())
    child_a = a[:p] + b[p:q] + a[q:]
    child_b = b[:p] + a[p:q] + b[q:]
    return child_a, child_b


def bit_mutation(
    mask: Mask, rng: np.random.Generator, mutation_prob: float
) -> Mask:
    """Independent per-bit flips; an all-zero result is repaired."""
    flips = (rng.random(len(mask)) < mutation_prob).tolist()
    return _repair_zero(tuple(int(b) ^ f for b, f in zip(mask, flips)), rng)


def _evaluate(
    fitness_fn: Callable[[Mask], float], individuals: Sequence[Mask]
) -> tuple[float, ...]:
    values = [float(fitness_fn(m)) for m in individuals]
    if not np.all(np.isfinite(values)):
        raise ConfigError("fitness function returned a non-finite value")
    return tuple(values)


def _best_index(fits: Sequence[float]) -> int:
    arr = np.asarray(fits)
    return int(np.lexsort((np.arange(arr.size), -arr))[0])


def _stats(pop: Population) -> GenerationStats:
    assert pop.fitnesses is not None
    best = _best_index(pop.fitnesses)
    return GenerationStats(
        pop.generation,
        float(pop.fitnesses[best]),
        float(np.mean(pop.fitnesses)),
        pop.individuals[best],
    )


def evolve(
    params: GAParams,
    length: int,
    fitness_fn: Callable[[Mask], float],
    on_generation: Callable[[GenerationStats], None] | None = None,
) -> tuple[Mask, float, EvolutionTrace]:
    """Run the full loop and return the best-ever mask, its fitness and the
    per-generation trace.

    The loop is: evaluate, roulette-select a full parent pool, pair parents
    in selection order, crossover then mutate, then overwrite the worst
    children with the best individuals of the previous generation
    (elitism). It stops at max_generations, or once the best fitness has
    not improved for stagnation_window consecutive generations.
    """
    rng = np.random.default_rng(params.seed)
    pop = init_population(params, length, rng=rng)
    fits = _evaluate(fitness_fn, pop.individuals)
    pop = Population(pop.individuals, fits, 0)
    trace: EvolutionTrace = [_stats(pop)]
    if on_generation:
        on_generation(trace[-1])

    best_idx = _best_index(fits)
    best_mask, best_fit = pop.individuals[best_idx], fits[best_idx]
    last_improvement = 0
    generation = 0

    while (
        generation < params.max_generations
        and generation - last_improvement < params.stagnation_window
    ):
        parents = roulette_select(pop, params.population_size, rng)
        children: list[Mask] = []
        for i in range(0, len(parents) - 1, 2):
            c1, c2 = two_point_crossover(
                parents[i], parents[i + 1], rng, params.crossover_prob
            )
            children.extend((c1, c2))
        if len(parents) % 2:
            children.append(parents[-1])
        children = [bit_mutation(c, rng, params.mutation_prob) for c in children]

        child_fits = list(_evaluate(fitness_fn, children))

        # elitism: best of the old generation replace the worst children
        old_order = np.lexsort(
            (np.arange(len(fits)), -np.asarray(fits))
        )[: params.elite_count]
        child_order = np.lexsort(
            (np.arange(len(child_fits)), np.asarray(child_fits))
        )[: params.elite_count]
        for elite_i, child_i in zip(old_order, child_order):
            children[int(child_i)] = pop.individuals[int(elite_i)]
            child_fits[int(child_i)] = fits[int(elite_i)]

        generation += 1
        pop = Population(tuple(children), tuple(child_fits), generation)
        fits = pop.fitnesses
        trace.append(_stats(pop))
        if on_generation:
            on_generation(trace[-1])

        gen_best = _best_index(fits)
        if fits[gen_best] > best_fit:
            best_fit = fits[gen_best]
            best_mask = pop.individuals[gen_best]
            last_improvement = generation

    return best_mask, float(best_fit), trace


def save_trace_csv(trace: EvolutionTrace, path: str | Path) -> None:
    """Write the trace with lossless float formatting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["generation", "best_fitness", "mean_fitness", "best_mask"])
        for row in trace:
            writer.writerow(
                [
                    row.generation,
                    repr(row.best_fitness),
                    repr(row.mean_fitness),
                    mask_to_string(row.best_mask),
                ]
            )
