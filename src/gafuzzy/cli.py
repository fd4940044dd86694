"""Command-line interface.

Commands: validate, select, classify, report. One master seed drives every
stochastic component (GA, CV folds, reporting holdout) through fixed
labelled derivations, so a run is reproducible from its flags alone.

OPTIONS declares each option once: its [section] key in a --config file,
its flag, type and help, for a selection knob the field it fills, and the
commands that read it. The parser and CONFIG_KEYS are built from it: each
command takes only the flags it reads, one config file serves every
command, a flag overrides the config file, and an option neither sets
keeps the default of that field.

Exit codes: 0 success, 1 internal error, 2 user/config error.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from functools import partial
from importlib.resources import files
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import dataset as ds
from . import evaluation as ev
from . import fuzzy, rule_learning, selector
from .errors import ConfigError
from .ga import GAParams, mask_to_string

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
    default is the knob's. Only the commands that read it take its flag."""

    section: str
    key: str
    flag: str
    type: Callable[[str], object]
    help: str
    field: str | None = None
    commands: tuple[str, ...] = ("select",)


INPUTS = ("validate", "select")  # the commands that read the training files

OPTIONS = {opt.key: opt for opt in (
    Option("paths", "data", "--data", str, "CSV data file",
           commands=(*INPUTS, "classify")),
    Option("paths", "schema", "--schema", str, "schema file (INI)", commands=INPUTS),
    Option("paths", "costs", "--costs", str, "cost table file (INI)", commands=INPUTS),
    Option("run", "seed", "--seed", int, f"master seed (default {DEFAULT_SEED})"),
    Option("paths", "out", "--out", str, f"output directory (default {DEFAULT_OUT})",
           commands=("select", "classify", "report")),
    Option("run", "impute", "--impute", _impute_mode,
           "none (default), or median to replace zero anomalies by the "
           "training-split median", commands=INPUTS),
    Option("run", "impute_columns", "--impute-columns", str,
           "comma-separated columns for --impute (default: known anomaly columns)",
           commands=INPUTS),
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
           commands=("classify",)),
    Option("paths", "baseline", "--baseline", str,
           "baseline file (default <out>/baseline.json)", commands=("report",)),
    Option("paths", "result", "--result", str,
           "result file (default <out>/result.json)", commands=("report",)),
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
        ("report", cmd_report, "compare baseline and selection runs"),
    ):
        p = sub.add_parser(command, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="run configuration file (INI)")
        for opt in OPTIONS.values():
            if command in opt.commands:
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

    def get(self, key: str, default=None):
        """The flag's value, else the config file's, else default."""
        opt = OPTIONS[key]
        value = getattr(self.args, key, None)
        if value is not None:
            return value
        if self.ini is None or not self.ini.has_option(opt.section, key):
            return default
        with ds.reading(self.args.config):
            try:
                return opt.type(self.ini.get(opt.section, key))
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"[{opt.section}] {key}: {exc}") from exc

    def named(self, *keys: str) -> str:
        """The prefix of an error about these options' values: each as it
        was set, by its flag, else by its [section] key, after the config
        file when one was set there."""
        names = [OPTIONS[key].flag if getattr(self.args, key, None) is not None
                 else f"[{OPTIONS[key].section}] {key}" for key in keys]
        in_file = any(name.startswith("[") for name in names)
        return (f"{self.args.config}: " if in_file else "") + ", ".join(names)

    def build(self, make: Callable, *sections: str):
        """make(**fields), the fields those knobs of these sections fill
        that a flag or the config file sets; every other field keeps its
        default. A value out of range is a ConfigError naming the knobs that
        make refuses on their own, else every knob set, and the config file
        when one of them was set there."""
        given = {opt.field: (opt.key, value) for opt in OPTIONS.values()
                 if opt.field and opt.section in sections
                 and (value := self.get(opt.key)) is not None}
        try:
            return make(**{name: value for name, (_, value) in given.items()})
        except ConfigError as exc:
            blamed = [key for name, (key, value) in given.items()
                      if not _accepts(make, name, value)]
            keys = blamed or [key for key, _ in given.values()]
            raise ConfigError(f"{self.named(*keys)}: {exc}") from exc


def _accepts(make: Callable, name: str, value) -> bool:
    """Whether make takes this one field at this value, the rest at their
    defaults."""
    try:
        make(**{name: value})
    except ConfigError:
        return False
    return True


def _load_inputs(cfg: RunConfig):
    path = {key: Path(cfg.get(key, _packaged(name))) for key, name in (
        ("schema", "pima.schema"), ("data", "pima.csv"), ("costs", "pima.costs"))}
    schema = ds.load_schema(path["schema"])
    return ds.load_csv(path["data"], schema), ds.load_costs(path["costs"], schema)


def _selection_configs(cfg: RunConfig):
    master = cfg.get("seed", DEFAULT_SEED)
    fcfg = cfg.build(partial(selector.FitnessConfig.from_master_seed, master),
                     "fitness", "fis")
    # the crisp values of the class output run from its class levels (1, 0)
    # to (0, 1): a threshold outside (low, high] labels every record alike
    low, high = fuzzy.FISConfig(
        (), fuzzy.class_output_variable(), (), fcfg.resolution, fcfg.decision_threshold
    ).engine.crisp_values(np.eye(2)).tolist()
    if not low < fcfg.decision_threshold <= high:
        raise ConfigError(f"{cfg.named('threshold')}: decision threshold must lie in "
                          f"({low!r}, {high!r}], the crisp values reachable at "
                          f"resolution {fcfg.resolution}")
    params = cfg.build(partial(GAParams, seed=selector.derive_seed(master, "ga")),
                       "ga")
    icfg = cfg.build(rule_learning.InductionConfig, "induction")
    return master, params, fcfg, icfg


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = RunConfig(args)
    data, costs = _load_inputs(cfg)
    _impute_columns(cfg, data.schema.feature_names)  # refused here as by select
    print(f"records: {data.n_records}")
    print(f"features: {data.n_features}")
    print(f"positive rate: {float(np.mean(data.labels)):.3f}")
    print(f"total cost: {costs.total_cost}")
    print(f"{'feature':<16} {'min':>10} {'max':>10} {'mean':>10} "
          f"{'cost':>8} {'zeros':>6}")
    records = data.records
    lows, highs = records.min(axis=0).tolist(), records.max(axis=0).tolist()
    means, counts = records.mean(axis=0).tolist(), np.sum(records == 0, axis=0).tolist()
    # the cost entries are in the schema's feature order, as the columns are
    for j, (name, cost) in enumerate(costs.entries):
        print(f"{name:<16} {lows[j]:>10.3f} {highs[j]:>10.3f} {means[j]:>10.3f} "
              f"{cost:>8.2f} {counts[j]:>6}")
    zeros = dict(zip(data.schema.feature_names, counts))
    anomalies = [c for c in DEFAULT_ZERO_COLUMNS if zeros.get(c)]
    if anomalies:
        print(f"zero-value anomalies in: {', '.join(anomalies)} "
              f"(consider --impute median)")
    return 0


def _impute_columns(cfg: RunConfig, names: tuple[str, ...]) -> list[str] | None:
    """The columns --impute median replaces zeros in, else None. The names
    are checked whenever they are given, whether or not --impute uses them."""
    raw = cfg.get("impute_columns")
    columns = None
    if raw is not None:
        columns = [c.strip() for c in raw.split(",") if c.strip()]
        if not columns:
            raise ConfigError(f"{cfg.named('impute_columns')}: names no feature")
        for name in columns:
            if name not in names:
                raise ConfigError(f"{cfg.named('impute_columns')}: "
                                  f"unknown feature {name!r}")
    if cfg.get("impute") != "median":
        return None
    if columns is None:
        columns = [c for c in DEFAULT_ZERO_COLUMNS if c in names]
        if not columns:
            raise ConfigError(
                "no default anomaly columns in this schema; pass --impute-columns"
            )
    return columns


def cmd_select(args: argparse.Namespace) -> int:
    cfg = RunConfig(args)
    data, costs = _load_inputs(cfg)
    master, params, fcfg, icfg = _selection_configs(cfg)
    if cfg.get("folds") is not None:  # a fold count the data cannot fill
        try:
            fcfg.cv_splits(data)
        except ConfigError as exc:
            raise ConfigError(f"{cfg.named('folds')}: {exc}") from exc
    columns = _impute_columns(cfg, data.schema.feature_names)
    if columns:
        data = ds.impute_zero_medians(data, columns, fcfg.report_split(data)[0])
    # a rule file is parsed before the search, its names checked after it
    rules_path = cfg.get("rules")
    parsed_rules = rule_learning.read_expert_rules(rules_path) if rules_path else None

    out_dir = Path(cfg.get("out", DEFAULT_OUT))
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
        expert = rule_learning.load_expert_rules(rules_path, result.model, parsed_rules)
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
        report_seed=fcfg.report_plan.seed,
    )

    selector.save_result(result, out_dir / RESULT_FILE)
    fuzzy.save_model(result.model, out_dir / MODEL_FILE)
    ev.save_baseline(baseline, out_dir / BASELINE_FILE)

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
    out_dir = Path(cfg.get("out", DEFAULT_OUT))
    model = fuzzy.load_model(Path(cfg.get("model") or out_dir / MODEL_FILE))
    data_path = cfg.get("data")
    if data_path is None:
        raise ConfigError("missing required path: --data")
    records = ds.load_records(Path(data_path), model.input_names)

    engine = model.engine
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
    out_dir = Path(cfg.get("out", DEFAULT_OUT))
    baseline_path = Path(cfg.get("baseline") or out_dir / BASELINE_FILE)
    result_path = Path(cfg.get("result") or out_dir / RESULT_FILE)
    baseline = ev.load_baseline(baseline_path)
    result = selector.load_result(result_path)
    try:
        report = ev.build_report(baseline, result)
    except ConfigError as exc:
        raise ConfigError(f"{result_path} does not match {baseline_path}: {exc}") from exc
    print(ev.format_report(report))
    ev.save_report(report, out_dir / REPORT_FILE)
    print(f"wrote {out_dir / REPORT_FILE}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, OSError) as exc:  # OSError: an unreadable path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
