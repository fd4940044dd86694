#!/usr/bin/env python3
"""Print the exact fitness of every non-empty mask on the bundled table.

One line per (master seed, mask): `seed mask float.hex(fitness)`, each
mask scored by a fresh evaluator per seed with the default settings. Two
checkouts whose outputs compare equal under `cmp` compute bit-identical
fitness values, which is how a change to the fitness engine is checked
against the commit before it.

Run from the repository root:

    python3 tools/fitness_hex.py --seeds 1-20 > fitness.hex
"""

import argparse
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gafuzzy import dataset as ds  # noqa: E402
from gafuzzy.ga import mask_to_string  # noqa: E402
from gafuzzy.rule_learning import InductionConfig  # noqa: E402
from gafuzzy.selector import FitnessConfig, FitnessEvaluator  # noqa: E402

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "gafuzzy" / "data"


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-20"),
                        help="master seeds, as N or FIRST-LAST (default 1-20)")
    args = parser.parse_args()
    schema = ds.load_schema(DATA_DIR / "pima.schema")
    data = ds.load_csv(DATA_DIR / "pima.csv", schema)
    costs = ds.load_costs(DATA_DIR / "pima.costs", schema)
    masks = [m for m in itertools.product((0, 1), repeat=data.n_features)
             if any(m)]
    for seed in args.seeds:
        fcfg = FitnessConfig.from_master_seed(seed)
        evaluator = FitnessEvaluator(data, costs, fcfg, InductionConfig())
        for mask in masks:
            print(f"{seed} {mask_to_string(mask)} {float.hex(evaluator(mask))}")


if __name__ == "__main__":
    main()
