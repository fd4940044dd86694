import json
import math

import numpy as np
import pytest

from gafuzzy import fuzzy
from gafuzzy.errors import ArityMismatch, ConfigError, NoRules, UnknownTerm
from gafuzzy.fuzzy import (
    BLOCK_BYTES,
    CompiledFIS,
    FISConfig,
    Gaussian,
    LinguisticVariable,
    Rule,
    Trapezoidal,
    Triangular,
    centroid,
    centroid_plan,
    class_output_variable,
    config_from_dict,
    config_to_dict,
    infer,
    load_model,
    predict,
    save_model,
    uniform_partition,
)
from gafuzzy.rule_learning import InductionConfig, induce_rule_matrix

import oracle
from conftest import class_levels


# --- membership degrees --------------------------------------------------------

def test_triangular_examples():
    tri = Triangular(0, 5, 10)
    assert list(tri.sample([5, 2.5, -1, 10, 0])) == [1.0, 0.5, 0.0, 0.0, 0.0]


def test_triangular_shoulders():
    left = Triangular(0, 0, 10)
    # -3 lies outside the support even though the rising side is flat
    assert list(left.sample([0, 5, -3])) == [1.0, 0.5, 0.0]
    right = Triangular(0, 10, 10)
    assert list(right.sample([10, 11])) == [1.0, 0.0]


def test_trapezoidal_examples():
    trap = Trapezoidal(0, 2, 4, 6)
    assert list(trap.sample([7, 3, 1, 5])) == [0.0, 1.0, 0.5, 0.5]


def test_gaussian_formula():
    g = Gaussian(2.0, 0.5)
    xs = [-1.0, 0.0, 1.7, 2.0, 3.3]
    for x, sampled in zip(xs, g.sample(xs)):
        assert sampled == pytest.approx(
            math.exp(-((x - 2.0) ** 2) / (2 * 0.25)), abs=1e-15
        )
    assert g.sample([2.0])[0] == 1.0


def test_invalid_parameters():
    with pytest.raises(ConfigError):
        Triangular(5, 4, 10)
    with pytest.raises(ConfigError):
        Triangular(5, 5, 5)
    with pytest.raises(ConfigError):
        Trapezoidal(0, 3, 2, 6)
    with pytest.raises(ConfigError):
        Gaussian(0, 0)


def test_degree_in_unit_interval_and_matches_sample():
    rng = np.random.default_rng(11)
    a, b, c = sorted(rng.uniform(-5, 5, 3))
    ta, tb, tc, td = sorted(rng.uniform(-5, 5, 4))
    center, width = rng.uniform(-5, 5), rng.uniform(0.1, 3)
    xs = rng.uniform(-10, 10, 200)
    cases = [
        (Triangular(a, b, c), lambda x: oracle.tri_degree(x, a, b, c)),
        (
            Trapezoidal(ta, tb, tc, td),
            lambda x: max(0.0, min((x - ta) / (tb - ta), 1.0, (td - x) / (td - tc))),
        ),
        (
            Gaussian(center, width),
            lambda x: math.exp(-((x - center) ** 2) / (2 * width**2)),
        ),
    ]
    for mf, definition in cases:
        sampled = mf.sample(xs)
        assert np.all((sampled >= 0) & (sampled <= 1))
        for x, s in zip(xs, sampled):
            assert s == pytest.approx(definition(float(x)), abs=1e-12)


# --- variables -----------------------------------------------------------------

def test_variable_validation():
    with pytest.raises(ConfigError):  # one term
        LinguisticVariable("v", (0, 1), (("only", Triangular(0, 0.5, 1)),))
    with pytest.raises(ConfigError):  # coverage gap on [0.4, 0.6]
        LinguisticVariable(
            "v", (0.0, 1.0),
            (("a", Triangular(0, 0.1, 0.3)), ("b", Triangular(0.7, 0.9, 1.0))),
        )
    with pytest.raises(ConfigError):  # inverted universe
        LinguisticVariable(
            "v", (1.0, 0.0),
            (("a", Triangular(0, 0.5, 1)), ("b", Triangular(0, 0.5, 1))),
        )


def test_uniform_partition_shape():
    var = uniform_partition("x", 0.0, 10.0, 3)
    assert var.term_names == ("low", "medium", "high")
    low, medium, high = (mf for _, mf in var.terms)
    assert (low.a, low.b, low.c) == (0.0, 0.0, 5.0)
    assert (medium.a, medium.b, medium.c) == (0.0, 5.0, 10.0)
    assert (high.a, high.b, high.c) == (5.0, 10.0, 10.0)
    # adjacent terms cross at 0.5
    assert low.sample([2.5])[0] == medium.sample([2.5])[0] == 0.5
    assert medium.sample([7.5])[0] == high.sample([7.5])[0] == 0.5


def test_uniform_partition_degenerate_range():
    var = uniform_partition("x", 3.0, 3.0, 3)
    lo, hi = var.universe
    assert lo < 3.0 < hi


def test_class_output_variable():
    out = class_output_variable()
    assert out.term_names == ("negative", "positive")
    assert out.universe == (0.0, 1.0)
    assert out.term("negative").sample([0.0])[0] == 1.0
    assert out.term("positive").sample([1.0])[0] == 1.0


# --- fuzzify (degree table) / rule strength ---------------------------------------

def two_input_config():
    u = LinguisticVariable(
        "u", (0.0, 10.0),
        (("low", Triangular(0, 0, 10)), ("high", Triangular(0, 10, 10))),
    )
    v = LinguisticVariable(
        "v", (0.0, 100.0),
        (("low", Triangular(0, 0, 100)), ("high", Triangular(0, 100, 100))),
    )
    rules = (
        Rule((("u", "high"), ("v", "low")), "negative"),
        Rule((("u", "high"), ("v", "high")), "positive"),
    )
    return FISConfig((u, v), class_output_variable(), rules)


def degrees_of(config, record):
    """{variable: {term: degree}} for one record, read off the degree table."""
    table = CompiledFIS.from_config(config).degree_table([record])
    return {
        var.name: {t: table[i, j, 0] for j, t in enumerate(var.term_names)}
        for i, var in enumerate(config.inputs)
    }


def oracle_infer(config, record):
    """(crisp, label) of tests/oracle.classify for a two-class triangular
    model."""
    variables = [oracle.variable_params(v) for v in config.inputs]
    rules = [
        (
            tuple(v.term_names.index(dict(r.antecedent)[v.name])
                  for v in config.inputs),
            r.weight,
            config.output.term_names.index(r.consequent),
        )
        for r in config.rules
    ]
    return oracle.classify(record, variables, rules, config.resolution,
                           config.decision_threshold)


def test_fuzzify_peak_and_clamping():
    config = two_input_config()
    degrees = degrees_of(config, [0.0, 100.0])
    assert degrees["u"]["low"] == 1.0
    assert degrees["v"]["high"] == 1.0
    below = degrees_of(config, [-5.0, -1.0])
    at_lo = degrees_of(config, [0.0, 0.0])
    assert below == at_lo
    with pytest.raises(ArityMismatch):
        degrees_of(config, [1.0])


def test_fuzzify_hand_computed_three_inputs():
    # three 3-term partitions over [0, 200], [0, 50], [20, 80]
    vars_ = (
        uniform_partition("glucose", 0.0, 200.0, 3),
        uniform_partition("bmi", 0.0, 50.0, 3),
        uniform_partition("age", 20.0, 80.0, 3),
    )
    config = FISConfig(
        vars_, class_output_variable(),
        (Rule((("glucose", "high"),), "positive"),),
    )
    degrees = degrees_of(config, [60.0, 30.0, 35.0])
    # glucose 60 on [0,200]: low falls 1 -> 0 over [0,100]: 1 - 60/100
    assert degrees["glucose"]["low"] == pytest.approx(0.4, abs=1e-12)
    assert degrees["glucose"]["medium"] == pytest.approx(0.6, abs=1e-12)
    assert degrees["glucose"]["high"] == 0.0
    # bmi 30 on [0,50]: medium peak at 25, falling to 0 at 50
    assert degrees["bmi"]["medium"] == pytest.approx((50 - 30) / 25, abs=1e-12)
    assert degrees["bmi"]["high"] == pytest.approx((30 - 25) / 25, abs=1e-12)
    assert degrees["bmi"]["low"] == 0.0
    # age 35 on [20,80]: low falls over [20,50], medium rises over [20,50]
    assert degrees["age"]["low"] == pytest.approx((50 - 35) / 30, abs=1e-12)
    assert degrees["age"]["medium"] == pytest.approx((35 - 20) / 30, abs=1e-12)


def test_rule_strength_examples():
    # u=6 gives low/high 0.4/0.6; v=30 gives low/high 0.7/0.3
    base = two_input_config()
    rules = (
        Rule((("u", "high"), ("v", "low")), "negative"),
        Rule((("u", "high"), ("v", "high")), "positive"),
        Rule((("u", "low"), ("v", "low")), "negative", weight=0.5),
        Rule((("v", "high"),), "positive"),  # u unconstrained: degree 1
    )
    config = FISConfig(base.inputs, base.output, rules)
    strengths = CompiledFIS.from_config(config).strength_matrix(
        [[6.0, 30.0], [10.0, 0.0]]
    )
    assert strengths.shape == (2, 4)
    assert list(strengths[0]) == [0.6, 0.3, 0.2, 0.3]
    assert list(strengths[1]) == [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(UnknownTerm):
        FISConfig(base.inputs, base.output,
                  (Rule((("u", "missing"),), "positive"),))


# --- centroid ----------------------------------------------------------------------

def test_centroid_symmetry_and_scale():
    grid = np.linspace(0, 1, 1001)
    triangle = Triangular(0.3, 0.5, 0.7).sample(grid)
    assert centroid(triangle, 0, 1) == pytest.approx(0.5, abs=1e-12)
    for h in (0.2, 0.5, 1.0):
        box = np.where((grid >= 0.2) & (grid <= 0.6), h, 0.0)
        assert centroid(box, 0, 1) == pytest.approx(0.4, abs=1e-12)
    # scale invariance
    shape = np.minimum(0.7, Triangular(0.1, 0.4, 0.9).sample(grid))
    base = centroid(shape, 0, 1)
    for lam in (1e-3, 0.25, 7.0):
        assert centroid(lam * shape, 0, 1) == pytest.approx(base, abs=1e-12)


def test_centroid_zero_mass_and_minimum_samples():
    assert centroid(np.zeros(11), 0.0, 1.0) == 0.5
    assert centroid(np.zeros(11), 2.0, 4.0) == 3.0
    with pytest.raises(ConfigError):
        centroid(np.array([1.0, 1.0]), 0, 1)


def test_centroid_fine_grid_oracle():
    # random clipped-triangle aggregates: coarse grid vs 100x finer grid
    rng = np.random.default_rng(29)
    out = class_output_variable()
    for _ in range(100):
        s_neg, s_pos = rng.uniform(0, 1, 2)
        coarse_grid = np.linspace(0, 1, 1001)
        fine_grid = np.linspace(0, 1, 100_001)

        def shape(grid):
            return np.maximum(
                np.minimum(s_neg, out.term("negative").sample(grid)),
                np.minimum(s_pos, out.term("positive").sample(grid)),
            )

        coarse = centroid(shape(coarse_grid), 0, 1)
        fine = centroid(shape(fine_grid), 0, 1)
        assert abs(coarse - fine) <= 1e-3  # universe width is 1


# --- infer -----------------------------------------------------------------------

def test_infer_symmetric_consequent():
    var = LinguisticVariable(
        "x", (0.0, 1.0),
        (("lo", Triangular(0, 0, 1)), ("hi", Triangular(0, 1, 1))),
    )
    out = LinguisticVariable(
        "verdict", (0.0, 1.0),
        (
            ("no", Triangular(0, 0, 0.7)),
            ("yes", Triangular(0.6, 0.8, 1.0)),  # symmetric about 0.8
            ("edge", Triangular(0.9, 1.0, 1.0)),  # covers the endpoint, unused
        ),
    )
    config = FISConfig(
        (var,), out, (Rule((("x", "lo"),), "yes"),), decision_threshold=0.5
    )
    result = infer(config, [0.0])  # rule fires at full strength
    assert result.crisp == pytest.approx(0.8, abs=1e-9)
    assert result.label == 1


def test_infer_no_rules():
    config = two_input_config()
    empty = FISConfig(config.inputs, config.output, ())
    with pytest.raises(NoRules):
        infer(empty, [5.0, 50.0])
    with pytest.raises(NoRules):
        predict(empty, np.array([[5.0, 50.0]]))


GOLDEN_CRISP = 0.4224942528735616  # frozen from the hand computation below


def test_infer_golden_two_rules():
    """Hand-worked example: u=6, v=30 against shoulder pairs gives
    memberships 0.6/0.4 and 0.3/0.7; rule strengths min() = 0.6 and 0.3.
    The aggregate is 0.6 on [0, 0.4], (1-y) on [0.4, 0.7], 0.3 on [0.7, 1].
    """
    config = two_input_config()
    result = infer(config, [6.0, 30.0])
    assert result.strengths == (0.6, 0.3)

    num = den = 0.0
    for i in range(config.resolution):
        y = i / (config.resolution - 1)
        if y <= 0.4:
            mu = 0.6
        elif y <= 0.7:
            mu = 1.0 - y
        else:
            mu = 0.3
        num += y * mu
        den += mu
    hand = num / den
    assert abs(result.crisp - hand) <= 1e-9
    assert abs(result.crisp - GOLDEN_CRISP) <= 1e-9
    assert result.crisp == pytest.approx(0.1965 / 0.465, abs=2e-4)  # continuous limit
    assert result.label == 0


def test_infer_matches_aggregate_centroid_path():
    # records with symmetric strengths sit on the threshold (draws 2, 9, 10
    # and 23); their labels are the exact reference's too
    config = two_input_config()
    rng = np.random.default_rng(17)
    for _ in range(25):
        record = [float(rng.uniform(0, 10)), float(rng.uniform(0, 100))]
        crisp, label = oracle_infer(config, record)
        result = infer(config, record)
        assert result.crisp == pytest.approx(crisp, abs=1e-12)
        assert result.label == label


def test_infer_pure_and_clamped():
    config = two_input_config()
    a = infer(config, [6.0, 30.0])
    b = infer(config, [6.0, 30.0])
    assert a == b  # bit-identical
    assert infer(config, [123.0, -5.0]) == infer(config, [10.0, 0.0])


def test_weight_scaling_preserves_label():
    # records sitting exactly on the decision boundary (crisp == threshold
    # up to rounding) are excluded: there the label is a coin toss of the
    # last ulp and scale invariance only holds in exact arithmetic
    config = two_input_config()
    rng = np.random.default_rng(41)
    checked = 0
    for lam in (0.125, 0.5, 0.9):
        scaled = FISConfig(
            config.inputs, config.output,
            tuple(
                Rule(r.antecedent, r.consequent, r.weight * lam)
                for r in config.rules
            ),
        )
        for _ in range(20):
            record = [float(rng.uniform(0, 10)), float(rng.uniform(0, 100))]
            base = infer(config, record)
            if abs(base.crisp - config.decision_threshold) < 1e-9:
                continue
            assert base.label == infer(scaled, record).label
            checked += 1
    assert checked >= 30


def test_predict_matches_infer_loop():
    config = two_input_config()
    rng = np.random.default_rng(5)
    records = np.column_stack([rng.uniform(0, 10, 40), rng.uniform(0, 100, 40)])
    crisp, labels = predict(config, records)
    for i in range(40):
        single = infer(config, records[i])
        assert single.crisp == crisp[i]
        assert single.label == labels[i]


@pytest.mark.parametrize("rows", [1, 2, 3, 7, 64, None])
def test_predict_is_bit_identical_whatever_the_chunks(monkeypatch, rows):
    # random records, ties (v = 50 fires both rules equally) and records
    # that fire no rule (u = 0)
    config = two_input_config()
    engine = CompiledFIS.from_config(config)
    rng = np.random.default_rng(11)
    records = np.column_stack([rng.uniform(0, 10, 150), rng.uniform(0, 100, 150)])
    records[::5, 1] = 50.0
    records[::7, 0] = 0.0
    crisp, labels = engine.decide(class_levels(engine, records))
    if rows is not None:
        width = engine.n_rules + 2 * 3  # strengths, then 2 inputs x (2 terms + 1)
        monkeypatch.setattr(fuzzy, "CHUNK_BYTES", 8 * width * rows)
        assert engine.chunk_rows == rows
    got_crisp, got_labels = engine.predict(records)
    assert got_crisp.tobytes() == crisp.tobytes()
    assert got_labels.tobytes() == labels.tobytes()
    starts = [start for start, *_ in engine.chunks(records)]
    assert starts == list(range(0, 150, engine.chunk_rows))


def random_output(seed, n_terms):
    """2-5 triangular or trapezoidal terms over a universe other than
    [0, 1]: sorted peaks, feet that may reach past the neighbouring peaks
    or the universe, and shoulder terms at both ends, vertical or sloped."""
    rng = np.random.default_rng(seed)
    lo = float(rng.uniform(-20.0, 20.0))
    hi = lo + float(rng.uniform(0.5, 30.0))
    width = hi - lo
    peaks = np.concatenate([[lo], np.sort(rng.uniform(lo, hi, n_terms - 2)), [hi]])
    terms = []
    for i, b in enumerate(peaks):
        left = peaks[i - 1] if i else lo - rng.choice([0.0, 0.3]) * width
        right = peaks[i + 1] if i < n_terms - 1 else hi + rng.choice([0.0, 0.3]) * width
        a = left - rng.uniform(0.0, 0.2) * width if i else min(left, b)
        d = right + rng.uniform(0.0, 0.2) * width if i < n_terms - 1 else max(right, b)
        if rng.random() < 0.5:
            mf = Triangular(float(a), float(b), float(d))
        else:
            c = b + rng.uniform(0.0, 0.8) * (right - b)
            mf = Trapezoidal(float(a), float(b), float(c), float(d))
        terms.append((f"t{i}", mf))
    return LinguisticVariable("out", (lo, hi), tuple(terms))


def engine_for(output, resolution, threshold=0.5, n_rules=0):
    """An engine over the output whose class levels are fed directly, or,
    given rules, where rule r constrains its input x to term r mod 3 at
    weight 1 - r / 10 and concludes output term r mod T."""
    rules = np.arange(n_rules)
    return CompiledFIS(
        [uniform_partition("x", 0.0, 10.0, 3)], output, (rules % 3)[:, None],
        1.0 - rules / 10.0, rules % len(output.terms), resolution, threshold,
    )


def grid_centroids(engine, levels):
    """The grid sum of an engine's centroids, the reference of the closed
    form."""
    return oracle.grid_centroids(engine.output, engine.resolution, levels)


def level_rows(rng, n, n_terms, n_rules=6):
    """Class levels of random strengths of rules that conclude term r mod
    T, with all-zero rows, rows of equal strengths and rows where only some
    terms fire."""
    strengths = rng.uniform(0.0, 1.0, (n, n_rules))
    strengths[::4] = 0.0
    strengths[1::4] = strengths[1::4, :1]
    strengths[2::4, ::2] = 0.0
    levels = np.zeros((n, n_terms))
    for r in range(n_rules):
        t = r % n_terms
        levels[:, t] = np.maximum(levels[:, t], strengths[:, r])
    return levels


BLOCK_OUTPUTS = [
    pytest.param(1001, uniform_partition("out", 0.0, 1.0, 2), id="1001-2"),
    pytest.param(1001, uniform_partition("out", 0.0, 1.0, 3), id="1001-3"),
    pytest.param(501, uniform_partition("out", 0.0, 1.0, 2), id="501-2"),
    pytest.param(1001, random_output(11, 4), id="1001-random4"),
    pytest.param(501, random_output(12, 5), id="501-random5"),
    pytest.param(501, random_output(13, 3), id="501-random3"),
]


@pytest.mark.parametrize("resolution, output", BLOCK_OUTPUTS)
def test_blocked_centroid_equals_per_row_calls(resolution, output):
    # crisp_values works in blocks of rows; every block boundary must give
    # the bits of one-row calls, including all-zero rows (the midpoint) and
    # equal strengths
    engine = engine_for(output, resolution)
    lo, hi = output.universe
    plan = centroid_plan(output)
    n_terms = len(output.terms)
    block = BLOCK_BYTES // (
        8 * n_terms * (plan.fixed.size + plan.edge_x0.size * n_terms)
    )
    rng = np.random.default_rng(resolution + n_terms)
    for n in (0, 1, block - 1, block, block + 1, 2 * block + 5):
        levels = level_rows(rng, n, n_terms)
        whole = engine.crisp_values(levels)
        rows = [engine.crisp_values(levels[i : i + 1]) for i in range(n)]
        assert whole.shape == (n,)
        assert whole.tobytes() == np.concatenate([np.empty(0), *rows]).tobytes()
        if n:
            assert np.all(whole[::4] == (lo + hi) / 2.0)


@pytest.mark.parametrize("seed", range(12))
def test_closed_form_centroid_matches_grid(seed):
    # random outputs, resolutions and strengths: the closed form is within
    # 1e-12 of the grid sum, and thresholded gives the grid's labels
    # wherever the two cannot round to different sides
    rng = np.random.default_rng(seed)
    output = random_output(seed, int(rng.integers(2, 6)))
    resolution = (3, 501, 1001)[seed % 3]
    levels = level_rows(rng, 200, len(output.terms))
    grid = grid_centroids(engine_for(output, resolution), levels)
    lo, hi = output.universe
    at = np.flatnonzero(grid != (lo + hi) / 2.0)[:2]  # thresholds at two rows
    for threshold in (*grid[at], (lo + hi) / 2.0, lo + 0.3 * (hi - lo)):
        engine = engine_for(output, resolution, threshold)
        crisp, labels = engine.decide(levels)
        assert np.all(np.abs(crisp - grid) <= 1e-12)
        assert np.array_equal(labels, (crisp >= threshold).astype(np.int64))
        far = np.abs(grid - threshold) > 1e-9
        assert np.array_equal(labels[far], grid[far] >= threshold)


NO_CLOSED_FORM = [
    LinguisticVariable("out", (0.0, 1.0), (
        ("neg", Gaussian(0.2, 0.15)), ("pos", Triangular(0.3, 1.0, 1.0)),
    )),
    LinguisticVariable("out", (0.0, 1.0), (
        ("neg", Triangular(0.0, 0.0, 1.0)), ("pos", Trapezoidal(0.4, 0.4, 1.0, 1.0)),
    )),
    LinguisticVariable("out", (0.0, 1.0), (
        ("neg", Trapezoidal(0.0, 0.0, 0.6, 0.6)), ("pos", Triangular(0.2, 1.0, 1.0)),
    )),
]


@pytest.mark.parametrize("output, term",
                         zip(NO_CLOSED_FORM, ("neg", "pos", "neg")))
def test_outputs_without_closed_form_are_rejected(output, term):
    # a Gaussian term or a vertical edge inside the universe leaves no
    # continuous piecewise-linear aggregate, so no closed-form centroid
    rule = Rule((("x", "low"),), output.term_names[0])
    for build in (lambda: engine_for(output, 1001),
                  lambda: FISConfig((uniform_partition("x", 0.0, 10.0, 3),),
                                    output, (rule,))):
        with pytest.raises(ConfigError, match=f"term {term!r}"):
            build()


def test_class_ties_are_decided_exactly():
    # one record at the peak of x's low term fires a negative and a
    # positive rule at exactly their weights: equal class levels are
    # positive, and a negative level 1 ulp above the positive one is
    # negative, the labels of the exact grid centroid
    var = uniform_partition("x", 0.0, 10.0, 3)
    pairs = [(w, w) for w in np.linspace(0.01, 1.0, 25)]
    pairs += [(0.32000000000000006, 0.32), (0.32, 0.32000000000000006)]
    for negative, positive in pairs:
        engine = CompiledFIS([var], class_output_variable(), [[0], [0]],
                             [negative, positive], [0, 1], 1001, 0.5)
        crisp, labels = engine.predict(np.zeros((1, 1)))
        assert labels[0] == oracle.exact_label([negative, positive]), negative
        assert labels[0] == int(positive >= negative)
        assert abs(crisp[0] - 0.5) <= 1e-12


@pytest.mark.parametrize("output", [
    class_output_variable(), random_output(14, 3), random_output(15, 5),
    uniform_partition("out", 0.0, 1.0, 3), random_output(16, 2),
    random_output(17, 4),
])
def test_level_decider_equals_every_engine(output):
    # decide() of the per-term clip levels of an engine's rules, the
    # maximum of their file-order strengths with 0 for a term no rule
    # concludes, by an engine of no rules gives the engine's own crisp bits
    # and labels: with interleaved consequents on every term, on one term
    # only and with no rules, and with thresholds on a row's grid centroid
    records = np.random.default_rng(len(output.terms)).uniform(0, 10, (120, 1))
    records[::4] = 5.0  # medium only: a lone rule on low does not fire
    records[1::4] = 2.5  # low and medium are 0.5 each
    every_term = engine_for(output, 1001, n_rules=7)
    grid = grid_centroids(every_term, class_levels(every_term, records))
    for threshold in (0.5 * sum(output.universe), *grid[2:4]):
        decider = engine_for(output, 1001, threshold)
        assert decider.n_rules == 0
        for n_rules in (7, 1, 0):
            engine = engine_for(output, 1001, threshold, n_rules)
            crisp, labels = decider.decide(class_levels(engine, records))
            expected_crisp, expected_labels = engine.predict(records)
            assert crisp.tobytes() == expected_crisp.tobytes()
            assert np.array_equal(labels, expected_labels)


def test_kernel_equals_per_rule_loops():
    # rule_strengths is weight x min over the clauses, and max_by_group the
    # maximum of each group's rules whatever their order: sorted, in runs,
    # interleaved, or no rules at all
    rng = np.random.default_rng(23)
    table = rng.uniform(0.0, 1.0, (12, 40))
    for n_rules, n_groups in ((30, 4), (9, 1), (0, 3)):
        slots = rng.integers(0, 12, (n_rules, 3))
        weights = rng.uniform(0.0, 1.0, n_rules)
        strengths = fuzzy.rule_strengths(table, slots, weights)
        for r in range(n_rules):
            expected = weights[r] * np.minimum.reduce(table[slots[r]])
            assert strengths[r].tobytes() == expected.tobytes()
        for groups in (np.sort(rng.integers(0, n_groups, n_rules)),
                       rng.integers(0, n_groups, n_rules)):
            levels = np.full((n_groups, 40), 0.25)
            fuzzy.max_by_group(strengths, groups, levels)
            for g in range(n_groups):
                expected = strengths[groups == g].max(axis=0, initial=0.25)
                assert levels[g].tobytes() == expected.tobytes()


def test_decide_thresholds_crisp_values():
    config = two_input_config()
    rng = np.random.default_rng(7)
    records = np.column_stack([rng.uniform(0, 10, 40), rng.uniform(0, 100, 40)])
    for threshold in (0.35, 0.5, 0.65):
        engine = CompiledFIS.from_config(
            FISConfig(config.inputs, config.output, config.rules,
                      decision_threshold=threshold)
        )
        levels = class_levels(engine, records)
        crisp, labels = engine.decide(levels)
        assert crisp.tobytes() == engine.crisp_values(levels).tobytes()
        # the class output at its midpoint compares the two class levels
        expected = (levels[:, 1] >= levels[:, 0] if threshold == 0.5
                    else crisp >= threshold)
        assert np.array_equal(labels, expected.astype(np.int64))
        assert infer(engine.to_config(), records[0]).label == labels[0]


def test_compiled_grouping_matches_per_rule_definition():
    # several rules sharing consequents: grouped max-min must equal the
    # per-rule clip-then-max definition
    var = uniform_partition("x", 0.0, 10.0, 3)
    out = class_output_variable()
    rules = (
        Rule((("x", "low"),), "negative", 0.9),
        Rule((("x", "medium"),), "negative", 0.7),
        Rule((("x", "medium"),), "positive", 0.4),
        Rule((("x", "high"),), "positive", 1.0),
    )
    config = FISConfig((var,), out, rules)
    rng = np.random.default_rng(19)
    for _ in range(30):
        record = [float(rng.uniform(0, 10))]
        crisp, label = oracle_infer(config, record)
        assert infer(config, record).crisp == pytest.approx(crisp, abs=1e-12)
        assert infer(config, record).label == label


# --- serialization ----------------------------------------------------------------

def test_model_roundtrip(tmp_path):
    config = two_input_config()
    path = tmp_path / "model.json"
    save_model(config, path)
    loaded = load_model(path)
    assert loaded == config
    # a second save is byte-identical
    again = tmp_path / "model2.json"
    save_model(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_model_roundtrip_all_shapes():
    var = LinguisticVariable(
        "m", (0.0, 4.0),
        (
            ("t", Triangular(0.0, 1.0, 2.5)),
            ("z", Trapezoidal(0.5, 1.5, 3.0, 4.0)),
            ("g", Gaussian(2.0, 0.7)),
        ),
    )
    config = FISConfig(
        (var,), class_output_variable(),
        (Rule((("m", "g"),), "positive", 0.625),),
        resolution=501, decision_threshold=0.42,
    )
    assert config_from_dict(json.loads(json.dumps(config_to_dict(config)))) == config


def test_engine_config_roundtrip():
    # a fitted engine: partitions and rules induced from random data
    rng = np.random.default_rng(23)
    records = rng.uniform(0.0, 10.0, (60, 3))
    labels = rng.integers(0, 2, 60)
    inputs = [uniform_partition(f"x{i}", 0.0, 10.0, 3) for i in range(3)]
    ant, weights, classes = induce_rule_matrix(
        records, labels, inputs, InductionConfig()
    )
    engine = CompiledFIS(
        inputs, class_output_variable(), ant, weights, classes, 1001, 0.5
    )
    again = CompiledFIS.from_config(engine.to_config())
    assert np.array_equal(again.antecedents, engine.antecedents)
    assert np.array_equal(again.weights, engine.weights)
    assert np.array_equal(again.consequents, engine.consequents)

    # an expert model whose second rule leaves input u unconstrained (-1)
    base = two_input_config()
    config = FISConfig(
        base.inputs, base.output,
        (base.rules[0], Rule((("v", "high"),), "positive", 0.75)),
        resolution=501, decision_threshold=0.4,
    )
    compiled = CompiledFIS.from_config(config)
    assert compiled.antecedents[1].tolist() == [-1, 1]
    assert compiled.to_config() == config


def test_model_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_model(bad)
    bad.write_text('{"inputs": []}')
    with pytest.raises(ConfigError):
        load_model(bad)
