import hashlib
import itertools
import math

import numpy as np
import pytest

from gafuzzy.errors import ConfigError
from gafuzzy.ga import (
    GAParams,
    bit_mutation,
    evolve,
    init_population,
    mask_to_string,
    roulette_select,
    string_to_mask,
    two_point_crossover,
)

CHI2_DF2_ALPHA_01 = 9.21034  # upper 1% point of chi-square with 2 dof


# --- params / helpers ---------------------------------------------------------

def test_params_validation():
    with pytest.raises(ConfigError, match="population_size must be at least 2"):
        GAParams(population_size=1)
    with pytest.raises(ConfigError, match="crossover_prob must lie in"):
        GAParams(crossover_prob=1.5)
    with pytest.raises(ConfigError, match="mutation_prob must lie in"):
        GAParams(mutation_prob=-0.1)
    with pytest.raises(ConfigError, match="elite_count must satisfy"):
        GAParams(elite_count=50, population_size=50)


def test_mask_string_roundtrip():
    assert mask_to_string((1, 0, 1)) == "101"
    assert string_to_mask("101") == (1, 0, 1)
    with pytest.raises(ConfigError, match="not a bitstring"):
        string_to_mask("10x")


# --- init ----------------------------------------------------------------------

def test_init_deterministic():
    params = GAParams(seed=99)
    a = init_population(params, 8)
    assert a == init_population(params, 8)
    assert len(a) == params.population_size


def test_init_length_one_repairs_to_ones():
    masks = init_population(GAParams(population_size=40, seed=3), 1)
    assert all(ind == (1,) for ind in masks)


def test_init_no_all_zero_and_bit_frequency():
    params = GAParams(population_size=10_000, seed=11)
    bits = np.array(init_population(params, 8))
    assert np.all(bits.sum(axis=1) >= 1)
    freqs = bits.mean(axis=0)
    # uniform bits plus the zero-repair bias keep per-bit frequency near 0.5
    assert np.all(freqs >= 0.45) and np.all(freqs <= 0.58)


# --- roulette -------------------------------------------------------------------

def test_roulette_degenerate_wheel():
    masks = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    rng = np.random.default_rng(21)
    chosen = roulette_select(masks, (1.0, 0.0, 0.0), 10_000, rng)
    share = sum(c == masks[0] for c in chosen) / 10_000
    assert share >= 0.999


def chi_square(counts, probs):
    n = counts.sum()
    expected = probs * n
    return float(((counts - expected) ** 2 / expected).sum())


def test_roulette_uniform_when_flat():
    masks = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    rng = np.random.default_rng(33)
    chosen = roulette_select(masks, (0.7, 0.7, 0.7), 100_000, rng)
    counts = np.array([sum(c == m for c in chosen) for m in masks])
    assert chi_square(counts, np.full(3, 1 / 3)) < CHI2_DF2_ALPHA_01


def test_roulette_windowed_frequencies():
    masks = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    rng = np.random.default_rng(55)
    chosen = roulette_select(masks, (1.0, 2.0, 3.0), 100_000, rng)
    counts = np.array([sum(c == m for c in chosen) for m in masks])
    eps = 1e-9
    weights = np.array([eps, 1.0 + eps, 2.0 + eps])
    assert chi_square(counts, weights / weights.sum()) < CHI2_DF2_ALPHA_01
    assert counts[0] == 0  # the windowed-out individual is essentially dead


def test_roulette_negative_fitness_ok():
    masks = ((1,) * 4,) * 3
    chosen = roulette_select(masks, (-5.0, -1.0, -3.0), 1000, np.random.default_rng(8))
    assert len(chosen) == 1000


# --- crossover -------------------------------------------------------------------

class FakeRng:
    """Scripted stand-in for a Generator: fixed coin and fixed cut points."""

    def __init__(self, coin, cuts):
        self.coin = coin
        self.cuts = cuts

    def random(self):
        return self.coin

    def choice(self, n, size, replace):
        # draws from range(n): the crossover cuts at draw + 1
        return np.array(self.cuts) - 1


def test_crossover_worked_example():
    a = string_to_mask("11111111")
    b = string_to_mask("00000000")
    child_a, child_b = two_point_crossover(a, b, FakeRng(0.0, [2, 5]), 1.0)
    assert mask_to_string(child_a) == "11000111"
    assert mask_to_string(child_b) == "00111000"
    # unsorted cut draws are normalized
    child_a, child_b = two_point_crossover(a, b, FakeRng(0.0, [5, 2]), 1.0)
    assert mask_to_string(child_a) == "11000111"


def test_crossover_pc_zero_is_identity():
    rng = np.random.default_rng(4)
    a, b = (1, 1, 0, 1), (0, 0, 1, 0)
    for _ in range(50):
        assert two_point_crossover(a, b, rng, 0.0) == (a, b)


def test_crossover_short_masks():
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    # length 1, like length 2 below, leaves no cut pair: parents unchanged,
    # and no number is drawn
    assert two_point_crossover((1,), (0,), rng, 1.0) == ((1,), (0,))
    assert rng.bit_generator.state == state
    with pytest.raises(ConfigError, match="parents differ in length"):
        two_point_crossover((1, 0), (0,), rng, 1.0)
    # length 2 leaves no interior cut pair: parents unchanged
    assert two_point_crossover((1, 0), (0, 1), rng, 1.0) == ((1, 0), (0, 1))


def test_crossover_column_conservation():
    rng = np.random.default_rng(66)
    for _ in range(10_000):
        a = tuple(int(x) for x in rng.integers(0, 2, 8))
        b = tuple(int(x) for x in rng.integers(0, 2, 8))
        ca, cb = two_point_crossover(a, b, rng, 0.7)
        for i in range(8):
            assert ca[i] + cb[i] == a[i] + b[i]


# --- mutation ---------------------------------------------------------------------

def test_mutation_identity_and_complement():
    rng = np.random.default_rng(2)
    assert bit_mutation((1, 0, 1, 0), rng, 0.0) == (1, 0, 1, 0)
    assert bit_mutation((1, 0, 1, 0), rng, 1.0) == (0, 1, 0, 1)


def test_mutation_all_zero_repaired():
    rng = np.random.default_rng(10)
    for _ in range(500):
        out = bit_mutation((1, 1, 1, 1), rng, 1.0)  # complement would be 0000
        assert sum(out) == 1


def test_mutation_flip_rate_binomial_bound():
    rng = np.random.default_rng(77)
    trials, length, pm = 100_000, 8, 0.05
    # all-ones input: the all-zero repair path needs 8 simultaneous flips
    # (p = 0.05^8), so observed flips are effectively raw flips
    total = 0
    ones = (1,) * length
    for _ in range(trials):
        out = bit_mutation(ones, rng, pm)
        total += sum(o != 1 for o in out)
    n = trials * length
    sd = math.sqrt(n * pm * (1 - pm))
    z99 = 2.5758293035489004
    assert n * pm - z99 * sd <= total <= n * pm + z99 * sd
    mean_per_mask = total / trials
    assert 0.36 <= mean_per_mask <= 0.44  # coarse sanity band


# --- evolve -----------------------------------------------------------------------

def onemax(mask):
    return float(sum(mask))


def test_onemax_convergence():
    hits = 0
    for seed in range(100):
        best, fit, _ = evolve(GAParams(seed=seed), 8, onemax)
        hits += best == (1,) * 8
    assert hits >= 99


def test_constant_fitness_stagnates():
    params = GAParams(seed=5, stagnation_window=25, max_generations=100)
    best, fit, trace = evolve(params, 8, lambda m: 0.25)
    assert fit == 0.25
    assert trace[-1].generation == params.stagnation_window
    assert len(trace) == params.stagnation_window + 1
    assert all(t.best_fitness == 0.25 for t in trace)


def hash_fitness(mask):
    # deterministic, seed-free pseudo-random landscape
    value = int("".join(str(b) for b in mask), 2)
    return math.sin(value * 12.9898) * 43758.5453 % 1.0


def test_elitism_monotone_best():
    for seed in range(20):
        _, _, trace = evolve(GAParams(seed=seed, max_generations=40), 10, hash_fitness)
        best_values = [t.best_fitness for t in trace]
        assert best_values == sorted(best_values)


def test_population_constant_size_and_valid_masks():
    calls = []

    def spy(mask):
        calls.append(mask)
        return onemax(mask)

    params = GAParams(seed=9, max_generations=12, stagnation_window=50)
    evolve(params, 6, spy)
    generations = len(calls) // params.population_size
    assert len(calls) == generations * params.population_size  # full batches only
    assert all(len(m) == 6 for m in calls)
    assert all(sum(m) >= 1 for m in calls)


def test_evolve_deterministic():
    params = GAParams(seed=123, max_generations=30)
    runs = [evolve(params, 8, hash_fitness) for _ in range(3)]
    reference = runs[0]
    for other in runs[1:]:
        assert other[0] == reference[0]
        assert other[1] == reference[1]
        assert other[2] == reference[2]  # bit-identical trace


def test_nonfinite_fitness_rejected():
    with pytest.raises(ConfigError, match="non-finite value"):
        evolve(GAParams(seed=1, max_generations=2), 4, lambda m: float("nan"))


# SHA-256 of what evolve returns, and of its on_generation calls, over every
# valid combination of the GAParams below, each run with its own seed
EVOLVE_GRID_SHA256 = "f7a2ed94c630add70d72c95df2b72391af4f4099e37cf510b6ead4f654b62d54"


def test_evolve_on_a_parameter_grid_is_pinned():
    digest = hashlib.sha256()
    grid = itertools.product((2, 3, 7), (0, 1, 5), (1, 3), (1, 2), (0.0, 1.0),
                             (0.0, 1.0), (2, 3, 8))
    for seed, (pop, gens, window, elites, pc, pm, length) in enumerate(grid):
        if elites >= pop:
            continue
        params = GAParams(population_size=pop, crossover_prob=pc, mutation_prob=pm,
                          max_generations=gens, stagnation_window=window,
                          elite_count=elites, seed=seed)
        calls = []
        best, fit, trace = evolve(params, length, hash_fitness, calls.append)
        assert calls == trace
        rows = [(t.generation, t.best_fitness.hex(), t.mean_fitness.hex(), t.best_mask)
                for t in trace]
        digest.update(repr((best, fit.hex(), rows)).encode())
    assert digest.hexdigest() == EVOLVE_GRID_SHA256


def test_evolve_stops_once_every_mask_is_scored():
    # once all 2**length - 1 masks have been scored, no generation can find
    # a better one, so the search returns after the one that scored the last
    for length, pop in ((1, 4), (2, 3), (3, 8)):
        scored = []
        params = GAParams(population_size=pop, max_generations=100,
                          stagnation_window=50, seed=length)
        _, _, trace = evolve(params, length,
                             lambda m: scored.append(m) or hash_fitness(m))
        assert len(scored) == pop * len(trace)
        seen = [len(set(scored[: pop * (g + 1)])) for g in range(len(trace))]
        assert seen[-1] == 2 ** length - 1
        assert all(n < 2 ** length - 1 for n in seen[:-1])
