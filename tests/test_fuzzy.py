import hashlib
import json
import math

import numpy as np
import pytest

from gafuzzy import fuzzy
from gafuzzy.errors import ConfigError
from gafuzzy.fuzzy import (
    BLOCK_BYTES,
    CompiledFIS,
    FISConfig,
    Gaussian,
    LinguisticVariable,
    Rule,
    Trapezoidal,
    Triangular,
    centroid_plan,
    class_output_variable,
    infer,
    load_model,
    save_model,
    uniform_partition,
)
from gafuzzy.dataset import Dataset
from gafuzzy.jsonio import decode, encode
from gafuzzy.rule_learning import InductionConfig
from gafuzzy.selector import FitnessConfig, train_final_classifier

import oracle
from conftest import class_levels, engine_of, make_schema


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


@pytest.mark.parametrize("a, b, c", [
    (0.0, 5.0, 10.0), (0.0, 0.0, 10.0), (0.0, 10.0, 10.0), (-1.3, 0.1, 0.7),
], ids=["peak", "left-shoulder", "right-shoulder", "uneven"])
def test_triangle_is_the_trapezoid_with_one_peak(a, b, c):
    # Triangular(a, b, c) and Trapezoidal(a, b, b, c) give the same bits on
    # a grid past both ends, on every corner and one ulp either side of it
    corners = np.array([a, b, c])
    xs = np.concatenate([np.linspace(a - 1.0, c + 1.0, 1001), corners,
                         np.nextafter(corners, -np.inf),
                         np.nextafter(corners, np.inf)])
    triangle = Triangular(a, b, c).sample(xs)
    assert triangle.tobytes() == Trapezoidal(a, b, b, c).sample(xs).tobytes()
    assert triangle.tolist() == [oracle.tri_degree(x, a, b, c) for x in xs.tolist()]


def test_gaussian_formula():
    g = Gaussian(2.0, 0.5)
    xs = [-1.0, 0.0, 1.7, 2.0, 3.3]
    for x, sampled in zip(xs, g.sample(xs)):
        assert sampled == pytest.approx(
            math.exp(-((x - 2.0) ** 2) / (2 * 0.25)), abs=1e-15
        )
    assert g.sample([2.0])[0] == 1.0


def test_invalid_parameters():
    with pytest.raises(ConfigError, match="triangular needs"):
        Triangular(5, 4, 10)
    with pytest.raises(ConfigError, match="triangular needs"):
        Triangular(5, 5, 5)
    with pytest.raises(ConfigError, match="trapezoidal needs"):
        Trapezoidal(0, 3, 2, 6)
    with pytest.raises(ConfigError, match="gaussian width must be positive"):
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
    with pytest.raises(ConfigError, match="need at least 2 terms"):
        LinguisticVariable("v", (0, 1), (("only", Triangular(0, 0.5, 1)),))
    with pytest.raises(ConfigError, match="uncovered"):  # gap on [0.4, 0.6]
        LinguisticVariable(
            "v", (0.0, 1.0),
            (("a", Triangular(0, 0.1, 0.3)), ("b", Triangular(0.7, 0.9, 1.0))),
        )
    with pytest.raises(ConfigError, match="universe needs lo < hi"):
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
    table = CompiledFIS(config).degree_table([record])
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
    with pytest.raises(ConfigError, match="record has 1 values, expected 2"):
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
    strengths = [infer(config, record).strengths
                 for record in ([6.0, 30.0], [10.0, 0.0])]
    assert strengths == [(0.6, 0.3, 0.2, 0.3), (1.0, 0.0, 0.0, 0.0)]
    with pytest.raises(ConfigError, match="variable 'u' has no term 'missing'"):
        FISConfig(base.inputs, base.output,
                  (Rule((("u", "missing"),), "positive"),))


# --- centroid ----------------------------------------------------------------------

def test_centroid_symmetry_and_scale():
    # an output term symmetric about c, alone in the aggregate, has its
    # centroid at c whatever its clip level
    out = LinguisticVariable("out", (0.0, 1.0), (
        ("low", Triangular(0.0, 0.0, 0.35)),
        ("peak", Triangular(0.3, 0.5, 0.7)),
        ("box", Trapezoidal(0.2, 0.3, 0.5, 0.6)),
        ("high", Triangular(0.65, 1.0, 1.0)),
    ))
    engine = engine_for(out, 1001)
    for h in (1e-3, 0.2, 0.5, 1.0):
        crisp = engine.crisp_values(np.array([[0.0, h, 0.0, 0.0],
                                              [0.0, 0.0, h, 0.0]]))
        assert crisp == pytest.approx([0.5, 0.4], abs=1e-12)


def test_centroid_zero_mass_and_minimum_samples():
    # no mass gives the universe midpoint; fewer than 3 grid points are
    # refused
    no_mass = np.zeros((1, 2))
    for output, midpoint in ((class_output_variable(), 0.5),
                             (uniform_partition("out", 2.0, 4.0, 2), 3.0)):
        assert engine_for(output, 11).crisp_values(no_mass).tolist() == [midpoint]
    base = two_input_config()
    with pytest.raises(ConfigError, match="resolution must lie in"):
        FISConfig(base.inputs, base.output, base.rules, resolution=2)


def test_centroid_fine_grid_oracle():
    # random clip levels of the class output: the engine's centroid on its
    # 1001-point grid against the grid sum on a 100x finer grid
    rng = np.random.default_rng(29)
    out = class_output_variable()
    engine = engine_for(out, 1001)
    for _ in range(100):
        levels = rng.uniform(0, 1, (1, 2))
        coarse = engine.crisp_values(levels)[0]
        fine = oracle.grid_centroids(out, 100_001, levels)[0]
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
    with pytest.raises(ConfigError, match="cannot infer with an empty rule base"):
        infer(empty, [5.0, 50.0])


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
    crisp, labels = CompiledFIS(config).predict(records)
    for i in range(40):
        single = infer(config, records[i])
        assert single.crisp == crisp[i]
        assert single.label == labels[i]


@pytest.mark.parametrize("rows", [1, 2, 3, 7, 64, None])
def test_predict_is_bit_identical_whatever_the_chunks(monkeypatch, rows):
    # random records, ties (v = 50 fires both rules equally) and records
    # that fire no rule (u = 0)
    config = two_input_config()
    engine = CompiledFIS(config)
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


def test_predict_of_eight_inputs_is_bit_identical_whatever_the_chunks(
        monkeypatch, pima_data):
    # the full-feature model of the bundled table, whose rules run through
    # the tree: its strengths and decisions do not depend on the chunks
    model = train_final_classifier(pima_data, (1,) * 8, FitnessConfig(),
                                   InductionConfig(), np.arange(0, 768, 2))
    engine = CompiledFIS(model)
    assert len(engine.levels) == 2 and engine.tree_slots.shape[1] == 2
    records = pima_data.records[1::2]
    chunks = list(engine.chunks(records))
    assert len(chunks) == 1
    _, strengths, crisp, labels = chunks[0]
    for rows in (1, 2, 7, 64):
        monkeypatch.setattr(fuzzy, "CHUNK_BYTES",
                            8 * (engine.n_rules + engine.n_rows) * rows)
        assert engine.chunk_rows == rows
        starts, *parts = zip(*engine.chunks(records))
        assert list(starts) == list(range(0, 384, rows))
        for got, expected in zip(parts, (strengths, crisp, labels)):
            assert np.concatenate(got, axis=-1).tobytes() == expected.tobytes()


@pytest.mark.parametrize("m", range(1, 10))
def test_tree_strengths_equal_the_flat_rules(m):
    # the tree gives the strengths of rule_strengths over each rule's own
    # m clause slots, bit for bit: inputs of 2-5 terms, clauses that leave
    # their input unconstrained (every rule keeps one clause), duplicate
    # rules, one class or two; the model saved and loaded gives the same
    # bits
    rng = np.random.default_rng(m)
    inputs = [uniform_partition(f"x{i}", 0.0, 10.0, int(t))
              for i, t in enumerate(rng.integers(2, 6, m))]
    records = rng.uniform(-1.0, 11.0, (200, m))
    for n_rules, n_classes in ((40, 2), (40, 1), (1, 2)):
        ant = np.column_stack([rng.integers(-1, len(v.terms), n_rules)
                               for v in inputs])
        ant[1::3] = ant[::3][: len(ant[1::3])]  # duplicate rules
        ant[(ant < 0).all(axis=1), 0] = 0  # a rule has at least one clause
        engine = engine_of(inputs, class_output_variable(), ant,
                           rng.uniform(0.0, 1.0, n_rules),
                           rng.integers(0, n_classes, n_rules))
        table = engine.degree_table(records).reshape(engine.n_degrees, -1)
        expected = fuzzy.rule_strengths(table, engine.slots,
                                        engine.weights[engine.order])
        (_, strengths, _, _), = engine.chunks(records)
        assert strengths.tobytes() == expected.tobytes()
        saved = json.loads(json.dumps(encode(engine.config)))
        (_, loaded, _, _), = CompiledFIS(decode(FISConfig, saved)).chunks(records)
        assert loaded.tobytes() == strengths.tobytes()
        assert engine.tree_slots.shape == (n_rules, min(m, 2))
        assert len(engine.levels) == {1: 0, 2: 0, 3: 1, 4: 1}.get(m, 2 + (m > 8))
        for left, right in engine.levels:  # each pair of rows once
            assert len(set(zip(left.tolist(), right.tolist()))) == len(left)


def test_zero_rule_engine_of_three_inputs_or_more():
    inputs = [uniform_partition(f"x{i}", 0.0, 10.0) for i in range(4)]
    engine = FISConfig(tuple(inputs), class_output_variable(), ()).engine
    assert engine.levels == [] and engine.n_rows == engine.n_degrees == 16
    crisp, labels = engine.predict(np.full((3, 4), 5.0))
    assert crisp.tolist() == [0.5] * 3 and labels.tolist() == [1] * 3


def test_infer_compiles_once_per_model(monkeypatch):
    config = two_input_config()
    built, compile_model = [], CompiledFIS.__init__

    def counting(engine, model):
        built.append(model)
        compile_model(engine, model)

    monkeypatch.setattr(CompiledFIS, "__init__", counting)
    records = np.random.default_rng(3).uniform(0, 10, (5, 2)) * [1, 10]
    first = [infer(config, r) for r in records]
    assert [infer(config, r) for r in records] == first
    assert built == [config]
    assert infer(two_input_config(), records[0]) == first[0]
    assert len(built) == 2


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


def engine_for(output, resolution, threshold=None, n_rules=0):
    """An engine over the output, deciding at the threshold (by default the
    universe midpoint), whose class levels are fed directly, or, given
    rules, where rule r constrains its input x to term r mod 3 at weight
    1 - r / 10 and concludes output term r mod T."""
    rules = np.arange(n_rules)
    if threshold is None:
        threshold = sum(output.universe) / 2.0
    return engine_of(
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
    # wherever the two cannot round to different sides, at thresholds
    # across the output's own universe
    rng = np.random.default_rng(seed)
    output = random_output(seed, int(rng.integers(2, 6)))
    resolution = (3, 501, 1001)[seed % 3]
    levels = level_rows(rng, 200, len(output.terms))
    grid = grid_centroids(engine_for(output, resolution), levels)
    lo, hi = output.universe
    at = np.flatnonzero(grid != (lo + hi) / 2.0)[:2]  # thresholds at two rows
    thresholds = (*grid[at], (lo + hi) / 2.0, lo + 0.3 * (hi - lo))
    for threshold in [t for t in thresholds if lo < t < hi]:
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
        engine = engine_of([var], class_output_variable(), [[0], [0]],
                           [negative, positive], [0, 1])
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
    lo, hi = output.universe
    for threshold in [t for t in (0.5 * (lo + hi), *grid[2:4]) if lo < t < hi]:
        decider = engine_for(output, 1001, threshold)
        assert decider.n_rules == 0
        for n_rules in (7, 1, 0):
            engine = engine_for(output, 1001, threshold, n_rules)
            crisp, labels = decider.decide(class_levels(engine, records))
            expected_crisp, expected_labels = engine.predict(records)
            assert crisp.tobytes() == expected_crisp.tobytes()
            assert np.array_equal(labels, expected_labels)


def test_threshold_lies_inside_the_output_universe():
    # a model whose output spans [2, 4] decides at its own threshold 3.0:
    # x = 0 fires only "low" (crisp 2.666), x = 10 only "high" (3.334) and
    # x = 5 neither (the midpoint, 3.0, on the threshold); the default 0.5
    # lies outside that universe and is refused, naming it
    x = uniform_partition("x", 0.0, 10.0, 3)
    out = uniform_partition("out", 2.0, 4.0, 2)
    rules = (Rule((("x", "low"),), "low"), Rule((("x", "high"),), "high"))
    crisp, labels = FISConfig((x,), out, rules, decision_threshold=3.0).engine.predict(
        np.array([[0.0], [10.0], [5.0]]))
    assert crisp == pytest.approx([2 + 2 / 3, 4 - 2 / 3, 3.0], abs=1e-3)
    assert labels.tolist() == [0, 1, 1]
    for threshold in (0.5, 2.0, 4.0):
        with pytest.raises(ConfigError, match=r"must lie in \(2, 4\)"):
            FISConfig((x,), out, rules, decision_threshold=threshold)


def test_kernel_equals_per_rule_loops():
    # rule_strengths is weight x min over the clauses, and max_by_group the
    # maximum of each group's rules whatever their order: sorted, in runs,
    # interleaved, or no rules at all
    rng = np.random.default_rng(23)
    table = rng.uniform(0.0, 1.0, (12, 40))
    for n_rules, n_groups in ((30, 4), (9, 1), (1, 2), (0, 3)):
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
        engine = CompiledFIS(
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
        assert infer(engine.config, records[0]).label == labels[0]


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


def all_shapes_config(c=3.0):
    """A model whose input has one term of each shape; c is the trapezoid's
    third corner."""
    var = LinguisticVariable(
        "m", (0.0, 4.0),
        (
            ("t", Triangular(0.0, 1.0, 2.5)),
            ("z", Trapezoidal(0.5, 1.5, c, 4.0)),
            ("g", Gaussian(2.0, 0.7)),
        ),
    )
    return FISConfig(
        (var,), class_output_variable(),
        (Rule((("m", "g"),), "positive", 0.625),),
        resolution=501, decision_threshold=0.42,
    )


def test_model_roundtrip_all_shapes():
    config = all_shapes_config()
    assert decode(FISConfig, json.loads(json.dumps(encode(config)))) == config


def test_model_of_every_shape_saves_to_pinned_bytes(tmp_path):
    # the shape names, the parameter order and an int parameter (3) are
    # written as they always were, and read back to the same model
    config = all_shapes_config(c=3)
    path = tmp_path / "model.json"
    save_model(config, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "7bedfd928831e600625f841f145d9362c377de44b411686c11044a4e762f7c42")
    assert load_model(path) == config


def test_engine_config_roundtrip():
    # an engine keeps the model it was compiled from, and index_rules names
    # the index form it compiles the rules to: a fitted model, partitions
    # and rules induced from random data, comes back from its engine's arrays
    rng = np.random.default_rng(23)
    data = Dataset(make_schema(3), rng.uniform(0.0, 10.0, (60, 3)),
                   rng.integers(0, 2, 60))
    model = train_final_classifier(data, (1, 1, 1), FitnessConfig(),
                                   InductionConfig(), np.arange(60))

    def from_arrays(engine):
        return engine_of(engine.inputs, engine.output, engine.antecedents,
                         engine.weights, engine.consequents, engine.resolution,
                         engine.decision_threshold)

    engine = CompiledFIS(model)
    assert engine.config is model
    again = from_arrays(engine)
    assert again.config == model
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
    compiled = CompiledFIS(config)
    assert compiled.antecedents[1].tolist() == [-1, 1]
    assert from_arrays(compiled).config == config


def test_model_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_model(bad)
    bad.write_text('{"inputs": []}')
    with pytest.raises(ConfigError, match="malformed model file"):
        load_model(bad)
