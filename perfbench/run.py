"""Benchmark of the gafuzzy package.

    python3 perfbench/run.py --workload select|oracle|classify \
        --seed N --seconds S --trace 0|1 [--ops K]

Run from the repository root (the package is imported from ./src). Each
workload is a closed loop: one client, one thread, the next op starts when
the previous one has finished. The workload seed draws the inputs (master
seeds, resampled records); the program sees only those inputs.

- select:   `gafuzzy select` via `cli.main` with default settings and
            `--workers 1`, one op per master seed, each into a fresh --out.
- oracle:   `selector.brute_force_selection` over all 255 masks with a
            fresh `FitnessEvaluator` per sweep.
- classify: `gafuzzy classify` via `cli.main` on a 20,000-row headered CSV
            resampled from the bundled table, with the full-feature model
            trained during set-up.

Every op runs in a fresh process, as each `gafuzzy` command does: the
process imports the package and builds the inputs untimed, times the op,
then checks its outputs (see the `check` methods) and reports one JSON
line. Within one process the allocator's state carries over from op to op
and makes later ops up to a third faster, by an amount that depends on the
ops before. An op that exits non-zero, raises or fails a check is counted
in `failed`.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the ops run in untraced/traced pairs and it carries the per-layer
metrics and the tracing overhead. The lines before it are a human-readable
table and the environment. The loop runs for about --seconds of wall time
once the ops every metric needs are done; --ops runs exactly that many ops
instead (for the smoke test).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import COUNT_METRICS, TIME_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
# Master seeds are drawn from this pool, so that which seeds a run draws
# moves its times less than the machine does.
MASTER_SEEDS = range(1, 13)
# classify uses the full-feature model of this master seed (194 rules):
# models of other seeds differ in accuracy by up to 6 points.
CLASSIFY_MODEL_SEED = 1
CLASSIFY_RECORDS = 20_000
CLASSIFY_ORACLE_SAMPLE = 40
ORACLE_TOLERANCE = 1e-9
OP_TIMEOUT = 150  # seconds before a hung op or set-up process is stopped

# name -> (unit, better); printed for every workload
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_s_p50": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "accuracy": ("ratio", "higher"),
    "cost": ("units", "lower"),
}


class _NullSink(io.TextIOBase):
    def write(self, text: str) -> int:
        return len(text)


def _check_tree() -> None:
    for path in (ROOT / "src" / "gafuzzy" / "__init__.py", ROOT / "tests" / "oracle.py"):
        if not path.is_file():
            raise SystemExit(f"perfbench: missing {path}")


def _import_package():
    """Import gafuzzy from ./src and the reference from tests/oracle.py."""
    sys.path.insert(0, str(ROOT / "src"))
    global cli, ds, fuzzy, rule_learning, selector, oracle
    from gafuzzy import cli, fuzzy, rule_learning, selector  # noqa: F401
    from gafuzzy import dataset as ds  # noqa: F401

    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle", ROOT / "tests" / "oracle.py"
    )
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Bundled:
    """The bundled 768x8 table, its schema and its costs."""

    def __init__(self):
        data_dir = ROOT / "src" / "gafuzzy" / "data"
        self.csv = data_dir / "pima.csv"
        self.schema_file = data_dir / "pima.schema"
        self.costs_file = data_dir / "pima.costs"
        self.schema = ds.load_schema(self.schema_file)
        self.data = ds.load_csv(self.csv, self.schema)
        self.costs = ds.load_costs(self.costs_file, self.schema)
        self.icfg = rule_learning.InductionConfig()

    def input_args(self) -> list[str]:
        return ["--data", str(self.csv), "--schema", str(self.schema_file),
                "--costs", str(self.costs_file)]


class Workload:
    """One op kind. `prepare` builds the inputs, `op` is the timed call and
    `check` verifies its outputs afterwards, returning (items done,
    accuracy, cost, digest of the outputs). `first` marks the run's first
    op, which also gets the slow checks against tests/oracle.py."""

    per_run = 1  # master seeds per pass in an untraced run
    traced_per_run = 1  # master seeds paired in a traced run

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def prepare(self, dest: Path) -> str:
        """Build this run's inputs under `dest` and return their digest."""
        self.bundled = Bundled()
        rng = random.Random(f"{self.name}:{self.seed}")
        self.plan = rng.sample(MASTER_SEEDS, self.per_run)
        return json.dumps(self.plan)


class Select(Workload):
    name = "select"
    per_run = 6
    traced_per_run = 3

    def op(self, master: int):
        out = self.work / "select-out"
        argv = ["select", "--seed", str(master), "--workers", "1",
                "--out", str(out), *self.bundled.input_args()]
        sink = _NullSink()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        return code, out

    def check(self, master, result, first):
        code, out = result
        if code != 0:
            raise AssertionError(f"select exited {code}")
        digest = _digest(out.iterdir())
        report = json.loads((out / cli.RESULT_FILE).read_text())
        mask = tuple(int(c) for c in report["best_mask"])
        fcfg = selector.FitnessConfig.from_master_seed(master)
        fresh = selector.FitnessEvaluator(
            self.bundled.data, self.bundled.costs, fcfg, self.bundled.icfg
        )(mask)
        if fresh != report["fitness"]:
            raise AssertionError(
                f"reported fitness {report['fitness']!r} != fresh {fresh!r}"
            )
        return 1, report["accuracy"], report["cost"], digest


class Oracle(Workload):
    name = "oracle"
    per_run = 4
    traced_per_run = 2

    def op(self, master: int):
        b = self.bundled
        fcfg = selector.FitnessConfig.from_master_seed(master)
        evaluator = selector.FitnessEvaluator(b.data, b.costs, fcfg, b.icfg)
        best = selector.brute_force_selection(
            b.data, b.costs, fcfg, b.icfg, evaluator=evaluator
        )
        return evaluator, best

    def check(self, master, result, first):
        evaluator, (best_mask, best_fit) = result
        b = self.bundled
        masks = [m for m in itertools.product((0, 1), repeat=b.data.n_features)
                 if any(m)]
        values = {m: evaluator(m) for m in masks}  # cache hits
        expected = min(
            masks, key=lambda m: (-values[m], ds.mask_cost(m, b.costs), m)
        )
        if tuple(best_mask) != expected or best_fit != values[expected]:
            raise AssertionError(f"argmax {best_mask} != recomputed {expected}")
        fcfg = selector.FitnessConfig.from_master_seed(master)
        if first:  # the pure-Python reference takes about 2 s a mask
            folds = ds.stratified_split(b.data, fcfg.evaluation)
            sampled = random.Random(f"sample:{self.seed}").choice(masks)
            for mask in {expected, sampled}:
                ref = oracle.fitness(mask, b.data, b.costs, folds)
                if abs(ref - values[mask]) > ORACLE_TOLERANCE:
                    raise AssertionError(
                        f"mask {mask}: fitness {values[mask]!r} != reference {ref!r}"
                    )
        _, predicted, labels = selector.holdout_evaluation(
            b.data, best_mask, fcfg, b.icfg
        )
        accuracy = float((predicted == labels).mean())
        digest = json.dumps([list(best_mask), best_fit, sorted(values.values())])
        return len(masks), accuracy, ds.mask_cost(best_mask, b.costs), digest


class Classify(Workload):
    name = "classify"
    LINE = re.compile(r"^record (\d+): crisp=(\S+) class=\S+ \((\d)\) ")

    def prepare(self, dest):
        import numpy as np

        self.bundled = b = Bundled()
        self.plan = [CLASSIFY_MODEL_SEED]
        fcfg = selector.FitnessConfig.from_master_seed(CLASSIFY_MODEL_SEED)
        (train_idx, _), = ds.stratified_split(b.data, fcfg.resolved_report_plan())
        full = (1,) * b.data.n_features
        self.model = selector.train_final_classifier(
            b.data, full, fcfg, b.icfg, train_idx
        )
        dest.mkdir(parents=True, exist_ok=True)
        self.model_file = dest / "model.json"
        fuzzy.save_model(self.model, self.model_file)
        rows = np.random.default_rng(self.seed).integers(
            0, b.data.n_records, CLASSIFY_RECORDS
        )
        self.records = b.data.records[rows]
        self.labels = b.data.labels[rows]
        self.records_file = dest / "records.csv"
        with open(self.records_file, "w", encoding="utf-8") as fh:
            fh.write(",".join(b.schema.feature_names) + "\n")
            for row in self.records:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
        return _digest([self.model_file, self.records_file])

    def op(self, _master):
        argv = ["classify", "--model", str(self.model_file),
                "--data", str(self.records_file)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(_NullSink()):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(self, _master, result, first):
        code, text = result
        if code != 0:
            raise AssertionError(f"classify exited {code}")
        parsed = [self.LINE.match(line) for line in text.splitlines()]
        if not all(parsed) or [int(p.group(1)) for p in parsed] != list(
            range(1, CLASSIFY_RECORDS + 1)
        ):
            raise AssertionError("output lines are not one per record in order")
        labels = [int(p.group(3)) for p in parsed]
        if first:
            self._check_reference(parsed, labels)
        accuracy = sum(
            int(a == b) for a, b in zip(labels, self.labels)
        ) / CLASSIFY_RECORDS
        cost = ds.mask_cost((1,) * len(self.model.inputs), self.bundled.costs)
        return CLASSIFY_RECORDS, accuracy, cost, hashlib.sha256(text.encode()).hexdigest()

    def _check_reference(self, parsed, labels):
        model = self.model
        variables = [oracle.variable_params(v) for v in model.inputs]
        rules = [
            (
                tuple(v.term_names.index(dict(r.antecedent)[v.name])
                      for v in model.inputs),
                r.weight,
                model.output.term_names.index(r.consequent),
            )
            for r in model.rules
        ]
        sample = random.Random(f"sample:{self.seed}").sample(
            range(CLASSIFY_RECORDS), CLASSIFY_ORACLE_SAMPLE
        )
        for i in sample:
            crisp, label = oracle.classify(
                self.records[i], variables, rules,
                model.resolution, model.decision_threshold,
            )
            if label != labels[i] or abs(crisp - float(parsed[i].group(2))) > 1e-6:
                raise AssertionError(
                    f"record {i + 1}: printed {parsed[i].group(0)!r}, "
                    f"reference crisp={crisp:.6f} class {label}"
                )


WORKLOADS = {w.name: w for w in (Select, Oracle, Classify)}


# --- one op, in its own process ----------------------------------------------


def op_process(args) -> int:
    """Build the inputs, run one op (traced if asked) and print its record."""
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        workload.prepare(work / "inputs")
        tracer = Tracer()
        record = {"ok": False}
        try:
            if args.trace:
                tracer.install()
                root = tracer.begin("op")
            start = time.perf_counter()
            result = workload.op(args.op)
            record["seconds"] = time.perf_counter() - start
            if args.trace:
                tracer.end(root)
                tracer.uninstall()
                record["layers"] = tracer.layers()
            record["items"], record["accuracy"], record["cost"], record["digest"] = (
                workload.check(args.op, result, args.first)
            )
            record["ok"] = True
        except Exception:  # noqa: BLE001 - reported as a failed op
            tracer.uninstall()
            record["error"] = traceback.format_exc()
        record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(record))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def _self_command(args, *extra) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", *extra]


def run_op(args, master: int, traced: bool, first: bool) -> dict:
    cmd = _self_command(args, "--trace", str(int(traced)), "--op", str(master))
    if first:
        cmd.append("--first")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=OP_TIMEOUT, check=False)
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        record = {"ok": False, "error": f"op process ran over {OP_TIMEOUT} s"}
    except (IndexError, json.JSONDecodeError):
        record = {"ok": False, "error": f"op process exited {proc.returncode}:\n"
                  f"{proc.stderr}"}
    record.update(arg=master, traced=traced)
    return record


def _schedule(workload_cls, plan, traced: bool):
    """(master seed, traced) per op: a prefix every metric needs, then a
    repeating cycle. Untraced runs do every master seed once and then the
    first one again, so each run compares the outputs of a repeated op;
    traced runs pair an untraced and a traced op per master seed."""
    if traced:
        pairs = [(m, t) for m in plan[: workload_cls.traced_per_run]
                 for t in (False, True)]
        return pairs, itertools.cycle(pairs)
    ops = [(m, False) for m in plan]
    return ops + ops[:1], itertools.cycle(ops)


def run_ops(args, plan, failures: list[str]) -> list[dict]:
    prefix, cycle = _schedule(WORKLOADS[args.workload], plan, bool(args.trace))
    ops: list[dict] = []
    digests: dict[int, str] = {}
    start = time.perf_counter()
    for arg, traced in itertools.chain(prefix, cycle):
        if args.ops is not None:
            if len(ops) >= args.ops:
                break
        elif len(ops) >= len(prefix):
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(ops) > args.seconds:
                break
        record = run_op(args, arg, traced, first=not ops)
        if record["ok"] and digests.setdefault(arg, record["digest"]) != record["digest"]:
            record["ok"] = False
            record["error"] = f"master seed {arg}: outputs differ from its first op"
        if not record["ok"]:
            failures.append(record["error"])
        ops.append(record)
    return ops


def setup_seconds(args, failures: list[str]) -> tuple[float, list[int]]:
    """Median wall time of SETUP_REPEATS processes that each start Python,
    import the package, build this run's inputs and exit, and the run's
    master seeds. All must build the same inputs."""
    times, outputs = [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(_self_command(args, "--setup-only"), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=OP_TIMEOUT, check=False)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed:\n{proc.stderr}")
        outputs.add(proc.stdout)
    if len(outputs) != 1:
        failures.append("set-up processes built different inputs")
    return statistics.median(times), json.loads(min(outputs))["plan"]


def setup_process(args) -> int:
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        digest = workload.prepare(work / "inputs")
        print(json.dumps({"digest": digest, "plan": workload.plan}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


# --- metrics -------------------------------------------------------------------


def _first_per_arg(ops, traced: bool):
    firsts = {}
    for o in ops:
        if o["ok"] and o["traced"] == traced:
            firsts.setdefault(o["arg"], o)
    return list(firsts.values())


def end_to_end_metrics(ops, setup_s: float) -> dict[str, float]:
    done = [o for o in ops if o["ok"]]
    firsts = _first_per_arg(ops, False)
    timed = [o["seconds"] for o in ops if "seconds" in o]
    return {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(timed) if timed else 0.0,
        "items_per_s": (
            sum(o["items"] for o in done) / sum(o["seconds"] for o in done)
            if done else 0.0
        ),
        "peak_rss_mb": max((o.get("rss_mb", 0.0) for o in ops), default=0.0),
        "accuracy": statistics.fmean(o["accuracy"] for o in firsts) if firsts else 0.0,
        "cost": statistics.fmean(o["cost"] for o in firsts) if firsts else 0.0,
    }


def per_layer_metrics(ops) -> dict[str, float]:
    traced = [o for o in ops if o["traced"] and o["ok"]]
    firsts = _first_per_arg(ops, True)
    out = {}
    for name in TIME_METRICS:
        out[name] = statistics.fmean(o["layers"][name] for o in traced) if traced else 0.0
    for name in COUNT_METRICS:
        out[name] = statistics.fmean(o["layers"][name] for o in firsts) if firsts else 0.0
    # overhead: traced minus untraced op time over each pair of ops
    deltas, bases = [], []
    for before, after in zip(ops, ops[1:]):
        if (before["ok"] and after["ok"] and not before["traced"]
                and after["traced"] and before["arg"] == after["arg"]):
            deltas.append(after["seconds"] - before["seconds"])
            bases.append(before["seconds"])
    out["trace.overhead_s"] = statistics.median(deltas) if deltas else 0.0
    out["trace.overhead_pct"] = (
        100.0 * out["trace.overhead_s"] / statistics.median(bases) if bases else 0.0
    )
    return out


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in TIME_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units["fuzzy.gather_bytes"] = "bytes"
    units["fuzzy.rules_per_engine_mean"] = "rules"
    units["rule_learning.rules_per_candidate"] = "ratio"
    units["selector.cache_hit_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


# --- environment -----------------------------------------------------------------


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _git_commit(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="run exactly this many ops")
    # used by the processes this script starts
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--op", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--first", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _check_tree()
    if args.setup_only or args.op is not None:
        _import_package()
        return setup_process(args) if args.setup_only else op_process(args)

    failures: list[str] = []
    setup_s, plan = setup_seconds(args, failures)
    ops = run_ops(args, plan, failures)
    with contextlib.suppress(OSError):
        WORK_DIR.rmdir()

    failed = sum(not o["ok"] for o in ops)
    if args.trace:
        metrics = per_layer_metrics(ops)
        units = per_layer_units()
    else:
        metrics = end_to_end_metrics(ops, setup_s)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    for failure in failures:
        print(failure, file=sys.stderr)

    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{len(ops)} ops, {failed} failed, error_rate {failed / len(ops):.4f}")
    print("# op seconds " + " ".join(
        f"{o.get('seconds', float('nan')):.3f}{'t' if o['traced'] else ''}"
        for o in ops))
    for name, value in metrics.items():
        print(f"# {name:<34} {value:>16.6f} {units[name]}")
    print("# env " + json.dumps(environment(args), sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
