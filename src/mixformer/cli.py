"""Command-line entry point: train, eval, sweep, gradcheck, gen-synthetic.

Configs are JSON with five sections (model, train, mixup, task, paths); any
leaf can be overridden with repeated --set key.path=value flags. Exit codes:
0 success, 1 verification/training failure, 2 user or input error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import difflib
import hashlib
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import get_args, get_type_hints

from . import checks, synthetic
from .data import (N_RESERVED, Dataset, LabelClasses, LabelRegression, TaskSpec, Vocabulary, build_vocab,
                   corpus_texts, load_tsv, reduce_dataset)
from .errors import InputError, NonFiniteLossError
from .mixup import BetaLambda, FixedLambda, MixupConfig
from .model import ModelConfig, load_params, save_params
from .trainer import EpochReport, TrainConfig, evaluate, run_training

DEFAULT_FRACTIONS = [i / 10 for i in range(1, 11)]


@dataclass
class RunReport:
    """One training run, serialized as run.json; reproducible from this alone."""

    run_id: str
    task: str
    fraction: float
    mixup_enabled: bool
    seed: int
    config: dict
    config_hash: str
    vocab_size: int
    metric_name: str
    final_metric: float
    best_metric: float
    epochs: list[EpochReport]


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------- config

# Config keys and the dataclass fields they set. The model's vocab_size, head,
# n_classes and seed follow from the vocabulary, the task and train.seed.
MODEL_KEYS = tuple(f.name for f in fields(ModelConfig)
                   if f.name not in ("vocab_size", "head", "n_classes", "seed"))
TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name != "mixup")
VOCAB_KEYS = ("vocab_min_count", "vocab_max_size")  # in the model section; fields of RunConfig
MIXUP_KEYS = ("enabled", "schedule")
TASK_KEYS = ("name", "input_arity", "metric")
PATH_KEYS = {"train": "train_path", "dev": "dev_path", "out": "out_dir"}
COLUMN_KEYS = {"sentence1": "sentence1_col", "label": "label_col", "sentence2": "sentence2_col"}
LABEL_KINDS = {"classes": (LabelClasses, {"n": "n"}), "regression": (LabelRegression, {"min": "lo", "max": "hi"})}
POLICY_KEYS = {FixedLambda: {"lambda": "value"}, BetaLambda: ("alpha",)}


@dataclass(frozen=True)
class RunConfig:
    """A config file, typed: the task, model and training configs, plus the keys
    outside them. `model`'s vocab_size and seed are stand-ins until
    `model_config` sets them from the built vocabulary and train.seed."""

    task: TaskSpec
    model: ModelConfig
    train: TrainConfig
    train_path: str
    dev_path: str
    out_dir: str = "mixf-out"
    fraction: float = 1.0
    vocab_min_count: int = 1
    vocab_max_size: int = 50000

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must lie in (0, 1], got {self.fraction}")
        if self.vocab_max_size <= N_RESERVED:  # no room for a word: every token would be UNK
            raise ValueError(f"model.vocab_max_size must exceed {N_RESERVED}, got {self.vocab_max_size}")
        if self.vocab_min_count < 1:
            raise ValueError(f"model.vocab_min_count must be at least 1, got {self.vocab_min_count}")

    def model_config(self, vocab_size: int) -> ModelConfig:
        return replace(self.model, vocab_size=vocab_size, seed=self.train.seed)


def _load_json_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read config {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise InputError(f"config {path} must be a JSON object")
    return cfg


def _apply_set(cfg: dict, spec: str) -> None:
    key, eq, raw = spec.partition("=")
    if not eq:
        raise InputError(f"--set expects key.path=value, got {spec!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    *parents, leaf = key.split(".")
    node = cfg
    for part in parents:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise InputError(f"--set path {key!r} crosses a non-object value at {part!r}")
    node[leaf] = value


_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _typed(path: str, value, kind):
    """`value` as `kind`: bool, int, float or str, alone or in a union with None
    or (for a schedule) a list of ints. An int takes only integral numbers."""
    arms = get_args(kind) or (kind,)
    if value is None and type(None) in arms:
        return None
    if isinstance(value, list) and tuple[int, ...] in arms:
        return tuple(_typed(f"{path}[{i}]", v, int) for i, v in enumerate(value))
    kind = arms[0]
    if isinstance(value, bool) != (kind is bool) or not (
        isinstance(value, kind)
        or kind is float and isinstance(value, int)
        or kind is int and isinstance(value, float) and value.is_integer()
    ) or kind is float and not math.isfinite(value):
        raise InputError(f"config {path} must be {_KIND_NAMES[kind]}, got {json.dumps(value)}")
    return kind(value)


def _section(parent: dict, path: str, valid) -> dict:
    """The object at `path` in `parent` ({} when absent), holding only `valid` keys."""
    node = parent.get(path.rpartition(".")[2], {}) if path else parent
    if not isinstance(node, dict):
        raise InputError(f"config {path} must be an object, got {json.dumps(node)}")
    prefix = path + "." if path else ""
    for key in node:
        if key not in valid:
            near = difflib.get_close_matches(key, valid, n=1)
            hint = f"did you mean {prefix}{near[0]}?" if near else f"expected one of {', '.join(valid)}"
            raise InputError(f"unknown config key {prefix}{key}; {hint}")
    return node


def _pairs(keys):
    return keys.items() if isinstance(keys, dict) else zip(keys, keys)


def _kwargs(node: dict, path: str, cls, keys) -> dict:
    """The values `node` gives for fields of dataclass `cls`, typed by the
    fields; `keys` maps config keys to field names (a tuple when equal). An
    absent key keeps its field's default; a field without one must be given."""
    hints, out = get_type_hints(cls), {}
    for key, name in _pairs(keys):
        if key in node:
            out[name] = _typed(f"{path}.{key}", node[key], hints[name])
        elif cls.__dataclass_fields__[name].default is MISSING:
            raise InputError(f"config is missing {path}.{key}")
    return out


def load_config(raw: dict) -> RunConfig:
    """The typed config of a resolved config dict (file, --set and --seed).

    Defaults and types come from the dataclass fields. An unknown key, a value
    of the wrong type, or one the configs reject raises InputError naming it.
    """
    _section(raw, "", ("model", "train", "mixup", "task", "paths"))
    model = _section(raw, "model", MODEL_KEYS + VOCAB_KEYS)
    train = _section(raw, "train", TRAIN_KEYS + ("fraction",))
    mix = _section(raw, "mixup", (*MIXUP_KEYS, "lambda", "alpha"))
    task = _section(raw, "task", (*TASK_KEYS, "labels", "columns"))
    kind = _section(task, "task.labels", ("kind", "n", "min", "max")).get("kind")
    if kind not in LABEL_KINDS:
        raise InputError(f"config task.labels.kind must be classes or regression, got {json.dumps(kind)}")
    label_cls, label_keys = LABEL_KINDS[kind]
    labels = _section(task, "task.labels", ("kind", *label_keys))
    if "lambda" in mix and "alpha" in mix:
        raise InputError("config mixup takes either lambda (fixed) or alpha (beta), not both")
    policy_cls = BetaLambda if "alpha" in mix else FixedLambda
    try:  # a value of the right type that a config rejects
        task_spec = TaskSpec(
            label_kind=label_cls(**_kwargs(labels, "task.labels", label_cls, label_keys)),
            **_kwargs(task, "task", TaskSpec, TASK_KEYS),
            **_kwargs(_section(task, "task.columns", tuple(COLUMN_KEYS)), "task.columns", TaskSpec, COLUMN_KEYS),
        )
        mixup = MixupConfig(
            lambda_policy=policy_cls(**_kwargs(mix, "mixup", policy_cls, POLICY_KEYS[policy_cls])),
            **_kwargs(mix, "mixup", MixupConfig, MIXUP_KEYS),
        )
        classes = task_spec.is_classification
        return RunConfig(
            task=task_spec,
            model=ModelConfig(
                vocab_size=1, head="classification" if classes else "regression",
                n_classes=task_spec.label_kind.n if classes else 2,
                **_kwargs(model, "model", ModelConfig, MODEL_KEYS),
            ),
            train=TrainConfig(mixup=mixup, **_kwargs(train, "train", TrainConfig, TRAIN_KEYS)),
            **_kwargs(model, "model", RunConfig, VOCAB_KEYS),
            **_kwargs(train, "train", RunConfig, ("fraction",)),
            **_kwargs(_section(raw, "paths", tuple(PATH_KEYS)), "paths", RunConfig, PATH_KEYS),
        )
    except ValueError as e:
        raise InputError(f"bad config: {e}") from None


def normalized_config(cfg: RunConfig) -> dict:
    """`cfg` in the file's five-section layout, every default filled in; `load_config` inverts it."""
    task, mix = cfg.task, cfg.train.mixup
    kind = "classes" if task.is_classification else "regression"

    def pick(obj, keys):
        return {key: getattr(obj, name) for key, name in _pairs(keys)}

    return {
        "model": {**pick(cfg.model, MODEL_KEYS), **pick(cfg, VOCAB_KEYS)},
        "train": {**pick(cfg.train, TRAIN_KEYS), **pick(cfg, ("fraction",))},
        "mixup": {**pick(mix, MIXUP_KEYS),
                  **pick(mix.lambda_policy, POLICY_KEYS[type(mix.lambda_policy)])},
        "task": {**pick(task, TASK_KEYS), "columns": pick(task, COLUMN_KEYS),
                 "labels": {"kind": kind, **pick(task.label_kind, LABEL_KINDS[kind][1])}},
        "paths": pick(cfg, PATH_KEYS),
    }


def _resolved_config(args) -> RunConfig:
    """The --config file with every --set and --seed applied, loaded."""
    cfg = _load_json_config(args.config)
    for spec in args.set or []:
        _apply_set(cfg, spec)
    if args.seed is not None:
        _apply_set(cfg, f"train.seed={args.seed}")
    return load_config(cfg)


def _resolve_out(args, cfg: RunConfig) -> str:
    return args.out or os.environ.get("MIXF_OUT") or cfg.out_dir


def _load_task_data(cfg: RunConfig):
    vocab = build_vocab(corpus_texts(cfg.train_path, cfg.task),
                        min_count=cfg.vocab_min_count, max_size=cfg.vocab_max_size)
    train_ds = load_tsv(cfg.train_path, cfg.task, vocab, cfg.model.max_len, "train")
    dev_ds = load_tsv(cfg.dev_path, cfg.task, vocab, cfg.model.max_len, "dev")
    return vocab, train_ds, dev_ds


# ---------------------------------------------------------------- running


def _execute_run(cfg: RunConfig, train_ds: Dataset, dev_ds: Dataset, vocab_size: int):
    """One training run of a loaded config; returns (RunReport, Parameters)."""
    task, seed, fraction = train_ds.task, cfg.train.seed, cfg.fraction
    reduced = reduce_dataset(train_ds, fraction, seed) if fraction < 1.0 else train_ds
    params, reports = run_training(cfg.model_config(vocab_size), cfg.train, reduced, dev_ds)
    arm = "mixup" if cfg.train.mixup.enabled else "baseline"
    normalized = normalized_config(cfg)
    report = RunReport(
        run_id=f"{task.name}-f{fraction:g}-{arm}-s{seed}", task=task.name, fraction=fraction,
        mixup_enabled=cfg.train.mixup.enabled, seed=seed, config=normalized, config_hash=config_hash(normalized),
        vocab_size=vocab_size, metric_name=task.metric, final_metric=reports[-1].dev_metric.value,
        best_metric=max(r.dev_metric.value for r in reports), epochs=reports,
    )
    return report, params


def cmd_train(args) -> int:
    cfg = _resolved_config(args)
    out_dir = _resolve_out(args, cfg)
    vocab, train_ds, dev_ds = _load_task_data(cfg)
    report, params = _execute_run(cfg, train_ds, dev_ds, vocab.size)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(asdict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    save_params(params, os.path.join(out_dir, "params.mixf"))
    with open(os.path.join(out_dir, "vocab.json"), "w", encoding="utf-8") as fh:
        json.dump(vocab.to_dict(), fh, sort_keys=True)
    print(f"{report.run_id}: {report.metric_name}={report.final_metric:.4f} "
          f"(best {report.best_metric:.4f}) -> {out_dir}")
    return 0


def cmd_eval(args) -> int:
    cfg = _resolved_config(args)
    try:
        with open(args.vocab, encoding="utf-8") as fh:
            vocab = Vocabulary.from_dict(json.load(fh))
    except OSError as e:
        raise InputError(f"cannot read vocab {args.vocab}: {e}") from None
    except (json.JSONDecodeError, ValueError) as e:
        raise InputError(f"bad vocab file {args.vocab}: {e}") from None
    model_cfg = cfg.model_config(vocab.size)
    params = load_params(args.params, model_cfg)
    dev_ds = load_tsv(args.dev, cfg.task, vocab, model_cfg.max_len, "dev")
    result = evaluate(params, dev_ds, cfg.task)
    print(json.dumps({"metric": result.metric_name, "value": result.value, "n": result.n}))
    return 0


# The train and dev datasets shared by every sweep cell in this process. Pool
# workers get them once, through the initializer (under fork, nothing is
# pickled); --jobs 1 sets them in-process. Cell payloads then carry only configs.
_sweep_data: tuple[Dataset, Dataset] | None = None


def _init_sweep_worker(train_ds: Dataset, dev_ds: Dataset) -> None:
    global _sweep_data
    _sweep_data = (train_ds, dev_ds)


def _run_sweep_cell(payload):
    cfg, fraction, arm, seed, vocab_size = payload
    cell = {"fraction": fraction, "arm": arm, "seed": seed}
    try:
        report, _ = _execute_run(cfg, *_sweep_data, vocab_size)
        return {**cell, "status": "ok", "metric": report.final_metric, "report": asdict(report)}
    except Exception as e:  # a failed cell must not kill the sweep
        return {**cell, "status": "error", "metric": None, "error": f"{type(e).__name__}: {e}"}


def _parse_list(flag: str, text: str, kind, what: str) -> list:
    try:
        values = [kind(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"{flag} expects comma-separated {what}, got {text!r}") from None
    for i, v in enumerate(values):
        if v in values[:i]:
            raise InputError(f"{flag} repeats the value {v}")
    return values


def cmd_sweep(args) -> int:
    cfg = _resolved_config(args)
    out_dir = _resolve_out(args, cfg)
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    fractions = (_parse_list("--fractions", args.fractions, float, "numbers")
                 if args.fractions else DEFAULT_FRACTIONS)
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise InputError(f"fractions must lie in (0, 1], got {f}")
    seeds = _parse_list("--seeds", args.seeds, int, "integers") if args.seeds else [cfg.train.seed]
    arms = ["baseline", "mixup"] if args.arms == "both" else [args.arms]

    vocab, train_ds, dev_ds = _load_task_data(cfg)
    payloads = []
    for fraction in fractions:
        for arm in arms:
            mixup = replace(cfg.train.mixup, enabled=arm == "mixup")
            for seed in seeds:
                try:
                    cell_cfg = replace(cfg, fraction=fraction, train=replace(cfg.train, seed=seed, mixup=mixup))
                except ValueError as e:
                    raise InputError(f"bad config: {e}") from None
                payloads.append((cell_cfg, fraction, arm, seed, vocab.size))

    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=args.jobs, initializer=_init_sweep_worker, initargs=(train_ds, dev_ds)
        ) as ex:
            outcomes = list(ex.map(_run_sweep_cell, payloads))
    else:
        _init_sweep_worker(train_ds, dev_ds)
        outcomes = [_run_sweep_cell(p) for p in payloads]

    os.makedirs(os.path.join(out_dir, "runs"), exist_ok=True)
    for r in outcomes:
        if r["status"] == "ok":
            with open(os.path.join(out_dir, "runs", r["report"]["run_id"] + ".json"), "w", encoding="utf-8") as fh:
                json.dump(r["report"], fh, indent=2, sort_keys=True)
        else:
            print(f"cell fraction={r['fraction']:g} arm={r['arm']} seed={r['seed']} failed: {r['error']}",
                  file=sys.stderr)

    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "fraction", "arm", "seed", "metric", "status"])
        for r in outcomes:
            metric = "" if r["metric"] is None else repr(r["metric"])
            writer.writerow([cfg.task.name, r["fraction"], r["arm"], r["seed"], metric, r["status"]])
        for fraction in fractions if set(arms) == {"baseline", "mixup"} else []:
            base, mixed = (
                [r["metric"] for r in outcomes if (r["fraction"], r["arm"], r["status"]) == (fraction, arm, "ok")]
                for arm in ("baseline", "mixup")
            )
            if base and mixed:
                delta = sum(mixed) / len(mixed) - sum(base) / len(base)
                writer.writerow([cfg.task.name, fraction, "delta", "", repr(delta), "ok"])
    n_err = sum(1 for r in outcomes if r["status"] == "error")
    print(f"sweep: {len(outcomes)} cells ({n_err} failed) -> {csv_path}")
    return 1 if n_err == len(outcomes) else 0


def cmd_gradcheck(args) -> int:
    results = checks.gradient_check_suite()
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: max rel error {r.max_rel_error:.3e} (tol {r.tolerance:g})")
    offenders = [r.name for r in results if not r.ok]
    if offenders:
        print(f"gradient check failed for: {', '.join(offenders)}", file=sys.stderr)
        return 1
    return 0


def cmd_gen_synthetic(args) -> int:
    try:
        spec = synthetic.SyntheticSpec(
            n_train=args.train_size, n_dev=args.dev_size, noise=args.noise, seed=args.seed
        )
    except ValueError as e:
        raise InputError(str(e)) from None
    train_rows, dev_rows = synthetic.generate(spec)
    os.makedirs(args.out, exist_ok=True)
    train_path, dev_path = os.path.join(args.out, "train.tsv"), os.path.join(args.out, "dev.tsv")
    config_path = os.path.join(args.out, "config.json")
    synthetic.write_tsv(train_rows, train_path)
    synthetic.write_tsv(dev_rows, dev_path)
    config = synthetic.default_config(train_path, dev_path, os.path.join(args.out, "run"), args.seed)
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {train_path} ({len(train_rows)} rows), {dev_path} ({len(dev_rows)} rows), {config_path}")
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixformer",
        description="Train and evaluate a micro-transformer text classifier with representation mixing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                       help="override a config leaf (JSON value or bare string); repeatable")
        p.add_argument("--seed", type=int, default=None, help="override train.seed")

    p_train = sub.add_parser("train", help="train one model and write run.json/params/vocab")
    add_config_args(p_train)
    p_train.add_argument("--out", default=None, help="output directory (beats MIXF_OUT and config)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate saved parameters on a dev TSV")
    add_config_args(p_eval)
    p_eval.add_argument("--params", required=True, help="parameter file from train")
    p_eval.add_argument("--vocab", required=True, help="vocab.json from train")
    p_eval.add_argument("--dev", required=True, help="dev TSV file")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="data-reduction sweep over fractions, arms, seeds")
    add_config_args(p_sweep)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--fractions", default=None,
                         help="comma-separated fractions in (0,1]; default 0.1..1.0 step 0.1")
    p_sweep.add_argument("--arms", choices=["baseline", "mixup", "both"], default="both")
    p_sweep.add_argument("--seeds", default=None, help="comma-separated seeds; default config seed")
    p_sweep.add_argument("--jobs", type=int, default=1, help="concurrent sweep cells")
    p_sweep.set_defaults(func=cmd_sweep)

    p_grad = sub.add_parser("gradcheck", help="finite-difference verification of every backward pass")
    p_grad.set_defaults(func=cmd_gradcheck)

    p_gen = sub.add_parser("gen-synthetic", help="generate the bundled keyword task + config")
    p_gen.add_argument("--out", required=True, help="directory for train.tsv/dev.tsv/config.json")
    p_gen.add_argument("--train-size", type=int, default=2000)
    p_gen.add_argument("--dev-size", type=int, default=500)
    p_gen.add_argument("--noise", type=float, default=0.1, help="train label flip probability")
    p_gen.add_argument("--seed", type=int, default=7)
    p_gen.set_defaults(func=cmd_gen_synthetic)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NonFiniteLossError as e:
        print(f"training failed: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
