import json
import math

import numpy as np
import pytest

from gafuzzy.errors import ArityMismatch, ConfigError, NoRules, UnknownTerm
from gafuzzy.fuzzy import (
    CompiledFIS,
    FISConfig,
    Gaussian,
    LinguisticVariable,
    Rule,
    Trapezoidal,
    Triangular,
    centroid,
    class_output_variable,
    config_from_dict,
    config_to_dict,
    infer,
    load_model,
    predict,
    save_model,
    uniform_partition,
)

import oracle


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


def oracle_crisp(config, record):
    """Crisp output of tests/oracle.classify for a two-class triangular model."""
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
    crisp, _ = oracle.classify(record, variables, rules, config.resolution)
    return crisp


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
    # crisp values, not labels: a record with symmetric strengths can sit
    # on the threshold, where the last bit decides the class
    config = two_input_config()
    rng = np.random.default_rng(17)
    for _ in range(25):
        record = [float(rng.uniform(0, 10)), float(rng.uniform(0, 100))]
        assert infer(config, record).crisp == pytest.approx(
            oracle_crisp(config, record), abs=1e-12
        )


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
        assert infer(config, record).crisp == pytest.approx(
            oracle_crisp(config, record), abs=1e-12
        )


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


def test_model_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_model(bad)
    bad.write_text('{"inputs": []}')
    with pytest.raises(ConfigError):
        load_model(bad)
