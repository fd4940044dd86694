"""Cost-aware feature selection: a binary genetic algorithm picks a cheap
feature subset and a Mamdani fuzzy rule classifier predicts the label."""

__version__ = "0.1.0"

from .dataset import (  # noqa: F401
    ColumnStats,
    CostTable,
    Dataset,
    FeatureSpec,
    Schema,
    SplitPlan,
    feature_stats,
    load_costs,
    load_csv,
    load_schema,
    mask_cost,
    stratified_split,
)
from .evaluation import (  # noqa: F401
    BaselineRun,
    ComparisonReport,
    ConfusionMatrix,
    build_report,
    emit_plot_data,
    score,
)
from .fuzzy import (  # noqa: F401
    FISConfig,
    Gaussian,
    LinguisticVariable,
    Rule,
    Trapezoidal,
    Triangular,
    class_output_variable,
    infer,
    load_model,
    save_model,
    uniform_partition,
)
from .ga import (  # noqa: F401
    GAParams,
    GenerationStats,
    bit_mutation,
    evolve,
    init_population,
    roulette_select,
    two_point_crossover,
)
from .rule_learning import (  # noqa: F401
    InductionConfig,
    load_expert_rules,
)
from .selector import (  # noqa: F401
    FitnessConfig,
    FitnessEvaluator,
    SelectionResult,
    brute_force_selection,
    derive_seed,
    run_selection,
)
