"""Binary-chromosome genetic algorithm.

Generational evolution with roulette-wheel selection (fitness windowed to
keep weights non-negative), two-point crossover, per-bit mutation and
elitism. evolve takes every generation, the random first one included,
through one loop body: score, rank once, record, then stop or breed. All
randomness flows from one seeded generator owned by that loop, so a run is
a pure function of its parameters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .jsonio import check_range

Mask = tuple[int, ...]

ROULETTE_EPSILON = 1e-9
# generation 0 of the bundled table peaks at 58 MB with this many masks
MAX_POPULATION = 100_000


def mask_to_string(mask: Mask) -> str:
    return "".join("1" if b else "0" for b in mask)


def string_to_mask(bits: str) -> Mask:
    if not bits or any(c not in "01" for c in bits):
        raise ConfigError(f"not a bitstring: {bits!r}")
    return tuple(int(c) for c in bits)


# the field metadata of a mask that jsonio writes as a bitstring, "01000100"
MASK_CODEC = {"codec": (mask_to_string, string_to_mask)}


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
        if self.population_size > MAX_POPULATION:
            raise ConfigError(f"population_size must be at most {MAX_POPULATION:,}")
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


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    best_mask: Mask = field(metadata=MASK_CODEC)

    def __post_init__(self):
        check_range("generation", self.generation, 0)
        check_range("bits set in best_mask", sum(self.best_mask), 1)


EvolutionTrace = list[GenerationStats]


def _repair_zero(bits: Mask, rng: np.random.Generator) -> Mask:
    if any(bits):
        return bits
    i = int(rng.integers(0, len(bits)))
    return bits[:i] + (1,) + bits[i + 1:]


def init_population(
    params: GAParams, length: int, rng: np.random.Generator | None = None
) -> tuple[Mask, ...]:
    """Uniform random masks; all-zero draws get one random bit switched on."""
    if length < 1:
        raise ConfigError("chromosome length must be at least 1")
    if rng is None:
        rng = np.random.default_rng(params.seed)
    raw = rng.integers(0, 2, size=(params.population_size, length), dtype=np.int64)
    return tuple(_repair_zero(tuple(row.tolist()), rng) for row in raw)


def roulette_select(
    individuals: Sequence[Mask], fitnesses: Sequence[float], count: int,
    rng: np.random.Generator,
) -> list[Mask]:
    """Fitness-proportional sampling with min-shift windowing.

    Weights are f - min(f) + epsilon, so negative fitnesses are legal and a
    flat population degrades to uniform sampling.
    """
    if count < 1:
        raise ConfigError("count must be positive")
    fits = np.asarray(fitnesses, dtype=float)
    weights = fits - fits.min() + ROULETTE_EPSILON
    probs = weights / weights.sum()
    chosen = rng.choice(len(fits), size=count, replace=True, p=probs)
    return [individuals[i] for i in chosen]


def two_point_crossover(
    a: Mask, b: Mask, rng: np.random.Generator, crossover_prob: float
) -> tuple[Mask, Mask]:
    """With probability Pc, swap the segment between two random cut points.

    Cut points satisfy 1 <= p < q <= L-1 and the half-open segment [p, q)
    moves between the parents. Lengths below 3 leave no valid cut pair, so
    the parents pass through unchanged, and no number is drawn.
    """
    if len(a) != len(b):
        raise ConfigError("parents differ in length")
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


def evolve(
    params: GAParams,
    length: int,
    fitness_fn: Callable[[Mask], float],
    on_generation: Callable[[GenerationStats], None] | None = None,
) -> tuple[Mask, float, EvolutionTrace]:
    """Run the full loop and return the best-ever mask, its fitness and the
    per-generation trace.

    Every generation, the random first one included, is scored, its worst
    members replaced by the elites of the one before, ranked once (best
    first, the earlier on ties) for its recorded best and its own elites,
    and recorded. The loop stops at max_generations, once the best fitness
    has not improved for stagnation_window consecutive generations, or once
    every one of the 2**length - 1 masks has been scored; otherwise it
    roulette-selects a full parent pool, pairs the parents in selection
    order, and crosses over then mutates them into the next generation.
    """
    rng = np.random.default_rng(params.seed)
    individuals = list(init_population(params, length, rng=rng))
    elites: list[tuple[Mask, float]] = []
    trace: EvolutionTrace = []
    best_mask, best_fit, last_improvement = individuals[0], -np.inf, 0
    scored: set[Mask] = set()
    for generation in itertools.count():
        fits = [float(fitness_fn(m)) for m in individuals]
        scored.update(individuals)
        if not np.all(np.isfinite(fits)):
            raise ConfigError("fitness function returned a non-finite value")
        worst = np.lexsort((np.arange(len(fits)), fits))[: len(elites)]
        for i, (mask, fit) in zip(worst.tolist(), elites):
            individuals[i], fits[i] = mask, fit
        order = np.lexsort((np.arange(len(fits)), -np.asarray(fits))).tolist()
        best = order[0]
        trace.append(GenerationStats(generation, fits[best], float(np.mean(fits)),
                                     individuals[best]))
        if on_generation:
            on_generation(trace[-1])
        if fits[best] > best_fit:
            best_mask, best_fit, last_improvement = individuals[best], fits[best], generation
        if (generation >= params.max_generations
                or generation - last_improvement >= params.stagnation_window
                or len(scored) == 2 ** length - 1):
            return best_mask, best_fit, trace

        elites = [(individuals[i], fits[i]) for i in order[: params.elite_count]]
        parents = roulette_select(individuals, fits, params.population_size, rng)
        children: list[Mask] = []
        for i in range(0, len(parents) - 1, 2):
            children.extend(two_point_crossover(
                parents[i], parents[i + 1], rng, params.crossover_prob))
        if len(parents) % 2:
            children.append(parents[-1])
        individuals = [bit_mutation(c, rng, params.mutation_prob) for c in children]
