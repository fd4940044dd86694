"""Cost-aware feature selection: a binary genetic algorithm picks a cheap
feature subset and a Mamdani fuzzy rule classifier predicts the label.
These nine names run that pipeline (README "Library use"); every other
object is imported from its module, such as gafuzzy.fuzzy.Triangular."""

__version__ = "0.1.0"

from .dataset import load_costs, load_csv, load_schema  # noqa: F401
from .fuzzy import infer  # noqa: F401
from .ga import GAParams  # noqa: F401
from .rule_learning import InductionConfig  # noqa: F401
from .selector import FitnessConfig, derive_seed, run_selection  # noqa: F401
