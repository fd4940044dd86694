import numpy as np
import pytest

from gafuzzy.cli import _packaged
from gafuzzy.dataset import CostTable, Dataset, FeatureSpec, Schema, load_costs, load_csv, load_schema
from gafuzzy.fuzzy import FISConfig, index_rules


@pytest.fixture(scope="session")
def pima_schema():
    return load_schema(_packaged("pima.schema"))


@pytest.fixture(scope="session")
def pima_data(pima_schema):
    return load_csv(_packaged("pima.csv"), pima_schema)


@pytest.fixture(scope="session")
def pima_costs(pima_schema):
    return load_costs(_packaged("pima.costs"), pima_schema)


def make_schema(n_features, label_index=None, names=None):
    names = names or [f"f{i}" for i in range(n_features)]
    features = tuple(FeatureSpec(names[i], i) for i in range(n_features))
    return Schema(features, "label", label_index if label_index is not None else n_features)


@pytest.fixture(scope="session")
def toy4():
    """4 features, 48 records; feature 0 alone separates the classes."""
    rng = np.random.default_rng(7)
    labels = np.array([0, 1] * 24)
    informative = labels * 2.0 + rng.normal(0.0, 0.3, 48)
    noise = rng.normal(0.0, 1.0, (48, 3))
    records = np.column_stack([informative, noise])
    return Dataset(make_schema(4), records, labels)


@pytest.fixture(scope="session")
def toy4_costs(toy4):
    return CostTable(tuple((f.name, 1.0) for f in toy4.schema.features))


def class_levels(engine, records):
    """(N, T) clip level of every output term of an engine at the records:
    the maximum of the file-order strengths of the rules that conclude it,
    0 where none does. The per-rule reference of the engine's kernel."""
    strengths = np.concatenate([s for _, s, _, _ in engine.chunks(records)],
                               axis=1)[engine.file_order].T
    return np.stack([
        strengths[:, engine.consequents == t].max(axis=1, initial=0.0)
        for t in range(len(engine.output.terms))
    ], axis=1)


def engine_of(inputs, output, antecedents, weights, consequents,
              resolution=1001, threshold=0.5):
    """The engine of the model whose rules are given in the index form an
    engine compiles them to: (R, m) term indices, -1 where a rule leaves its
    input unconstrained, (R,) weights and (R,) output term indices."""
    inputs = tuple(inputs)
    rules = index_rules(inputs, output, antecedents, weights, consequents)
    return FISConfig(inputs, output, rules, resolution, threshold).engine
