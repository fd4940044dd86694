"""Command-line interface.

Commands: validate, select, classify, report. One master seed drives every
stochastic component (GA, CV folds, reporting holdout) through fixed
labelled derivations, so a run is reproducible from its flags alone.

OPTIONS declares each option once: its [section] key in a --config file,
its flag, type and help, and for a selection knob the field it fills. The
parser and CONFIG_KEYS are built from it, a flag overrides the config
file, and an option neither sets keeps the default of that field.

Exit codes: 0 success, 1 internal error, 2 user/config error.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from importlib.resources import files
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import dataset as ds
from . import evaluation as ev
from . import fuzzy, rule_learning, selector
from .errors import ConfigError, GafuzzyError
from .ga import GAParams, mask_to_string, save_trace_csv

DEFAULT_SEED = 1
DEFAULT_OUT = "gafuzzy-out"
# columns where a zero reading is physiologically impossible and means
# "measurement missing"
DEFAULT_ZERO_COLUMNS = (
    "glucose", "blood_pressure", "skin_thickness", "insulin", "bmi",
)

RESULT_FILE = "result.json"
MODEL_FILE = "model.json"
BASELINE_FILE = "baseline.json"
TRACE_FILE = "trace.csv"
REPORT_FILE = "report.json"


def _impute_mode(text: str) -> str:
    """The one check of --impute and [run] impute."""
    if text not in ("none", "median"):
        raise argparse.ArgumentTypeError(f"{text!r} is not none or median")
    return text


class Option(NamedTuple):
    """An option that a flag or [section] key of a --config file sets. The
    flag's argparse dest is the key; type parses either source; a selection
    knob fills a field of GAParams, FitnessConfig or InductionConfig, whose
    default is the knob's."""

    section: str
    key: str
    flag: str
    type: Callable[[str], object]
    help: str
    field: str | None = None
    command: str = "select"  # the command that takes it, or "all"


OPTIONS = {opt.key: opt for opt in (
    Option("paths", "data", "--data", str, "CSV data file", command="all"),
    Option("paths", "schema", "--schema", str, "schema file (INI)", command="all"),
    Option("paths", "costs", "--costs", str, "cost table file (INI)", command="all"),
    Option("run", "seed", "--seed", int, f"master seed (default {DEFAULT_SEED})",
           command="all"),
    Option("paths", "out", "--out", str, f"output directory (default {DEFAULT_OUT})",
           command="all"),
    Option("run", "impute", "--impute", _impute_mode,
           "none (default), or median to replace zero anomalies by the "
           "training-split median", command="all"),
    Option("run", "impute_columns", "--impute-columns", str,
           "comma-separated columns for --impute (default: known anomaly columns)",
           command="all"),
    Option("fitness", "lambda", "--lambda", float, "cost penalty weight", "cost_weight"),
    Option("ga", "population", "--pop", int, "population size", "population_size"),
    Option("ga", "pc", "--pc", float, "crossover probability", "crossover_prob"),
    Option("ga", "pm", "--pm", float, "per-bit mutation probability", "mutation_prob"),
    Option("ga", "generations", "--generations", int, "generation cap",
           "max_generations"),
    Option("ga", "stagnation", "--stagnation", int,
           "stop after this many generations with no improvement", "stagnation_window"),
    Option("ga", "elites", "--elites", int, "elite count", "elite_count"),
    Option("fitness", "folds", "--folds", int, "CV folds for fitness", "folds"),
    Option("fis", "threshold", "--threshold", float,
           "decision threshold on the crisp output", "decision_threshold"),
    Option("fis", "resolution", "--resolution", int, "defuzzification sample count",
           "resolution"),
    Option("induction", "partitions", "--partitions", int, "fuzzy terms per input",
           "partitions_per_input"),
    Option("induction", "min_rule_weight", "--min-rule-weight", float,
           "drop induced rules lighter than this", "min_rule_weight"),
    Option("paths", "rules", "--rules", str, "expert rule file for the final model"),
    Option("run", "workers", "--workers", int, "ignored; kept so that old scripts run"),
    Option("paths", "model", "--model", str, "model file (default <out>/model.json)",
           command="classify"),
    Option("paths", "baseline", "--baseline", str,
           "baseline file (default <out>/baseline.json)", command="report"),
    Option("paths", "result", "--result", str,
           "result file (default <out>/result.json)", command="report"),
)}

# every [section] key some command reads from a --config file, so one file
# serves every command; [run] workers is accepted and ignored, like --workers
CONFIG_KEYS = {opt.section: set() for opt in OPTIONS.values()}
for _opt in OPTIONS.values():
    CONFIG_KEYS[_opt.section].add(_opt.key)


def _packaged(name: str) -> Path:
    return Path(str(files("gafuzzy").joinpath("data", name)))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gafuzzy",
        description=(
            "Cost-aware feature selection with a genetic algorithm and a "
            "Mamdani fuzzy rule classifier."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a knob's default is that of the parameter it fills
    defaults = {
        name: param.default
        for owner in (GAParams, selector.FitnessConfig, rule_learning.InductionConfig,
                      selector.FitnessConfig.from_master_seed)
        for name, param in inspect.signature(owner).parameters.items()
    }
    for command, handler, summary in (
        ("validate", cmd_validate, "check data, schema and cost files"),
        ("select", cmd_select, "run the GA feature selection"),
        ("classify", cmd_classify, "classify records with a saved model"),
        ("report", cmd_report, "compare baseline and selection runs, emit plot data"),
    ):
        p = sub.add_parser(command, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="run configuration file (INI)")
        for opt in OPTIONS.values():
            if opt.command in ("all", command):
                default = f" (default {defaults[opt.field]})" if opt.field else ""
                p.add_argument(opt.flag, dest=opt.key, type=opt.type,
                               help=opt.help + default)
    return parser


class RunConfig:
    """Flag > config file > built-in default resolution."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.ini = None
        if not args.config:
            return
        with ds.reading(args.config):
            self.ini = ini = ds._read_ini(args.config)
            # reject a section or key no command reads, so a typo cannot fall back
            # to a default unnoticed, and [DEFAULT] keys: each key has one section
            shared = ini.defaults()
            unknown = [f"[DEFAULT] {key}" for key in shared]
            for section in ini.sections():
                if section not in CONFIG_KEYS:
                    unknown.append(f"[{section}]")
                    continue
                unknown += [f"[{section}] {key}" for key in ini.options(section)
                            if key not in CONFIG_KEYS[section] and key not in shared]
            if unknown:
                raise ConfigError(f"no command reads {', '.join(unknown)}")

    def get(self, section: str, key: str, default=None):
        """The flag's value, else the config file's, else default."""
        opt = OPTIONS[key]
        assert opt.section == section, (section, key)
        value = getattr(self.args, key, None)
        if value is not None:
            return value
        if self.ini is None or not self.ini.has_option(section, key):
            return default
        with ds.reading(self.args.config):
            try:
                return opt.type(self.ini.get(section, key))
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc

    def fields(self, *sections: str) -> dict[str, object]:
        """The knobs of these sections set by flag or config file, by the
        field each fills; every other field keeps its default."""
        given = [(opt.field, self.get(opt.section, opt.key))
                 for opt in OPTIONS.values() if opt.field and opt.section in sections]
        return {name: value for name, value in given if value is not None}


def _load_inputs(cfg: RunConfig):
    path = {key: Path(cfg.get("paths", key, _packaged(name))) for key, name in (
        ("schema", "pima.schema"), ("data", "pima.csv"), ("costs", "pima.costs"))}
    schema = ds.load_schema(path["schema"])
    return ds.load_csv(path["data"], schema), ds.load_costs(path["costs"], schema)


def _selection_configs(cfg: RunConfig):
    master = cfg.get("run", "seed", DEFAULT_SEED)
    fcfg = selector.FitnessConfig.from_master_seed(
        master, **cfg.fields("fitness", "fis"))
    params = GAParams(seed=selector.derive_seed(master, "ga"), **cfg.fields("ga"))
    icfg = rule_learning.InductionConfig(**cfg.fields("induction"))
    return master, params, fcfg, icfg


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = RunConfig(args)
    data, costs = _load_inputs(cfg)
    print(f"records: {data.n_records}")
    print(f"features: {data.n_features}")
    print(f"positive rate: {float(np.mean(data.labels)):.3f}")
    print(f"total cost: {costs.total_cost}")
    print(f"{'feature':<16} {'min':>10} {'max':>10} {'mean':>10} "
          f"{'cost':>8} {'zeros':>6}")
    counts = np.sum(data.records == 0, axis=0).tolist()
    zeros = dict(zip(data.schema.feature_names, counts))
    for stat in ds.feature_stats(data):
        print(
            f"{stat.name:<16} {stat.min:>10.3f} {stat.max:>10.3f} "
            f"{stat.mean:>10.3f} {costs.cost_of(stat.name):>8.2f} {zeros[stat.name]:>6}"
        )
    anomalies = [c for c in DEFAULT_ZERO_COLUMNS if zeros.get(c)]
    if anomalies:
        print(f"zero-value anomalies in: {', '.join(anomalies)} "
              f"(consider --impute median)")
    return 0


def _maybe_impute(cfg: RunConfig, data: ds.Dataset,
                  fcfg: selector.FitnessConfig) -> ds.Dataset:
    if cfg.get("run", "impute") != "median":
        return data
    names = data.schema.feature_names
    raw = cfg.get("run", "impute_columns")
    if raw:
        columns = [c.strip() for c in raw.split(",") if c.strip()]
        for name in columns:
            if name not in names:
                raise ConfigError(f"--impute-columns: unknown feature {name!r}")
    else:
        columns = [c for c in DEFAULT_ZERO_COLUMNS if c in names]
        if not columns:
            raise ConfigError(
                "no default anomaly columns in this schema; pass --impute-columns"
            )
    (train_idx, _), = ds.stratified_split(data, fcfg.resolved_report_plan())
    return ds.impute_zero_medians(data, columns, train_idx)


def cmd_select(args: argparse.Namespace) -> int:
    cfg = RunConfig(args)
    data, costs = _load_inputs(cfg)
    master, params, fcfg, icfg = _selection_configs(cfg)
    data = _maybe_impute(cfg, data, fcfg)
    # a rule file is parsed before the search, its names checked after it
    rules_path = cfg.get("paths", "rules")
    rule_lines = rule_learning.read_expert_rules(rules_path) if rules_path else None

    out_dir = Path(cfg.get("paths", "out", DEFAULT_OUT))
    out_dir.mkdir(parents=True, exist_ok=True)

    def log(stats, evaluator):
        # unique: distinct masks scored so far; hits: calls the cache answered
        print(
            f"gen {stats.generation}: best={stats.best_fitness:.6f} "
            f"mean={stats.mean_fitness:.6f} mask={mask_to_string(stats.best_mask)} "
            f"unique={evaluator.evaluations} hits={evaluator.hits}",
            file=sys.stderr,
        )

    result = selector.run_selection(
        data, costs, params, fcfg, icfg, on_generation=log, master_seed=master
    )

    # expert rules, when supplied, replace the induced rules of the final
    # model, and the reported accuracy is that of the model saved
    if rules_path:
        expert = rule_learning.load_expert_rules(rules_path, result.model, rule_lines)
        result.model, predicted, y_test = selector.holdout_evaluation(
            data, result.best_mask, fcfg, icfg, expert
        )
        result.accuracy = float(np.mean(predicted == y_test))

    full_mask = tuple([1] * data.n_features)
    _, base_pred, base_labels = selector.holdout_evaluation(
        data, full_mask, fcfg, icfg
    )
    base_acc, base_conf = ev.score(base_pred, base_labels)
    baseline = ev.BaselineRun(
        accuracy=base_acc,
        confusion=base_conf,
        feature_count=data.n_features,
        cost=costs.total_cost,
        dataset_fingerprint=data.fingerprint(),
        report_seed=fcfg.resolved_report_plan().seed,
    )

    selector.save_result(result, out_dir / RESULT_FILE)
    fuzzy.save_model(result.model, out_dir / MODEL_FILE)
    ev.save_baseline(baseline, out_dir / BASELINE_FILE)
    save_trace_csv(result.trace, out_dir / TRACE_FILE)

    print(f"selected features: {', '.join(result.selected_names)}")
    print(f"selected mask: {mask_to_string(result.best_mask)}")
    print(f"holdout accuracy: {result.accuracy:.4f} "
          f"(baseline {base_acc:.4f} with all {data.n_features} features)")
    print(f"cost: {result.cost:.2f} of {costs.total_cost:.2f}")
    print(f"fitness: {result.fitness:.6f}")
    print(f"outputs written to {out_dir}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    cfg = RunConfig(args)
    out_dir = Path(cfg.get("paths", "out", DEFAULT_OUT))
    model = fuzzy.load_model(Path(cfg.get("paths", "model") or out_dir / MODEL_FILE))
    data_path = cfg.get("paths", "data")
    if data_path is None:
        raise ConfigError("missing required path: --data")
    records = ds.load_records(Path(data_path), model.input_names)

    engine = fuzzy.CompiledFIS.from_config(model)
    term_names = model.output.term_names
    fired = [
        f"top_rule=[{rule_learning.format_rule(r, model.output.name)}] strength="
        for r in model.rules
    ]
    unfired = 0
    for start, strengths, crisp, labels in engine.chunks(records):
        if model.rules:
            top_strength = strengths.max(axis=0)
            # the rules run in consequent order: at ties, the first in file
            top = (strengths == top_strength)[engine.file_order].argmax(axis=0)
        else:
            top = top_strength = np.zeros(len(crisp), dtype=np.int64)
        lines = []
        for i, (c, label, t, s) in enumerate(zip(
            crisp.tolist(), labels.tolist(), top.tolist(), top_strength.tolist()
        ), start=start + 1):
            if s > 0:
                top_part = f"{fired[t]}{s:.4f}"
            else:
                top_part = "top_rule=none (no rule fired)"
                unfired += 1
            lines.append(
                f"record {i}: crisp={c:.6f} "
                f"class={term_names[label]} ({label}) {top_part}\n"
            )
        sys.stdout.write("".join(lines))
    # a record that fires no rule is not an error, but its class is only the
    # midpoint's side of the threshold, so say how many there were
    print(f"classified {len(records)} records, {unfired} fired no rule "
          f"(crisp at the output midpoint)", file=sys.stderr)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    cfg = RunConfig(args)
    out_dir = Path(cfg.get("paths", "out", DEFAULT_OUT))
    baseline = ev.load_baseline(
        Path(cfg.get("paths", "baseline") or out_dir / BASELINE_FILE)
    )
    result = selector.load_result(
        Path(cfg.get("paths", "result") or out_dir / RESULT_FILE)
    )
    report = ev.build_report(baseline, result)
    print(ev.format_report(report))
    ev.save_report(report, out_dir / REPORT_FILE)
    cost_path, trace_path = ev.emit_plot_data(report, result.trace, out_dir)
    print(f"wrote {out_dir / REPORT_FILE}, {cost_path}, {trace_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (GafuzzyError, OSError) as exc:  # OSError: an unreadable path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
