"""Command-line entry point: train, eval, sweep, gradcheck, gen-synthetic.

Configs are JSON with five sections (model, train, mixup, task, paths); any
leaf can be overridden with repeated --set key.path=value flags. Exit codes:
0 success, 1 verification/training failure, 2 user or input error.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import partial
from typing import get_args, get_type_hints

from . import files
from .data import (N_RESERVED, Dataset, LabelClasses, LabelRegression, TaskSpec, Vocabulary, build_vocab,
                   corpus_texts, load_tsv, reduce_dataset)
from .errors import InputError, NonFiniteLossError
from .mixup import BetaLambda, FixedLambda, MixupConfig, epochs_before_mixing
from .model import ModelConfig, load_params, save_params
from .trainer import EpochReport, TrainConfig, TrainState, evaluate, run_training, start_state

DEFAULT_FRACTIONS = [i / 10 for i in range(1, 11)]


@dataclass
class RunReport:
    """One training run, serialized as run.json; reproducible from this alone."""

    run_id: str
    mixup_enabled: bool  # restates config and epochs, as final_metric does; perfbench/verify.py reads both
    config: dict
    config_hash: str
    vocab_size: int
    final_metric: float
    epochs: list[EpochReport]


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------- config


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


# Every config key: (section, key, the dataclass that owns it, its field), in
# the order an unknown-key hint lists them. The model's vocab_size, head,
# n_classes and seed follow from the vocabulary, the task and train.seed.
# task.labels.kind, which no field holds (its owner is None), picks the label
# rows that apply.
KEYS = (
    *(("model", f.name, ModelConfig, f.name) for f in fields(ModelConfig)
      if f.name not in ("vocab_size", "head", "n_classes", "seed")),
    ("model", "vocab_min_count", RunConfig, "vocab_min_count"),
    ("model", "vocab_max_size", RunConfig, "vocab_max_size"),
    *(("train", f.name, TrainConfig, f.name) for f in fields(TrainConfig) if f.name != "mixup"),
    ("train", "fraction", RunConfig, "fraction"),
    ("mixup", "enabled", MixupConfig, "enabled"),
    ("mixup", "schedule", MixupConfig, "schedule"),
    ("mixup", "lambda", FixedLambda, "value"),
    ("mixup", "alpha", BetaLambda, "alpha"),
    ("task", "name", TaskSpec, "name"),
    ("task", "input_arity", TaskSpec, "input_arity"),
    ("task", "metric", TaskSpec, "metric"),
    ("task.labels", "kind", None, None),
    ("task.labels", "n", LabelClasses, "n"),
    ("task.labels", "min", LabelRegression, "lo"),
    ("task.labels", "max", LabelRegression, "hi"),
    ("task.columns", "sentence1", TaskSpec, "sentence1_col"),
    ("task.columns", "label", TaskSpec, "label_col"),
    ("task.columns", "sentence2", TaskSpec, "sentence2_col"),
    ("paths", "train", RunConfig, "train_path"),
    ("paths", "dev", RunConfig, "dev_path"),
    ("paths", "out", RunConfig, "out_dir"),
)
LABEL_KINDS = {"classes": LabelClasses, "regression": LabelRegression}


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
            import difflib

            near = difflib.get_close_matches(key, valid, n=1)
            hint = f"did you mean {prefix}{near[0]}?" if near else f"expected one of {', '.join(valid)}"
            raise InputError(f"unknown config key {prefix}{key}; {hint}")
    return node


def _keys(section: str, owners=None) -> list:
    """The keys of `section`: its rows' keys (of `owners` alone, when given), then its subsections' names."""
    keys = [key for s, key, owner, _ in KEYS if s == section and (owners is None or owner in owners)]
    return list(dict.fromkeys(keys + [s.rpartition(".")[2] for s, *_ in KEYS if s.rpartition(".")[0] == section]))


def _kwargs(nodes: dict, cls) -> dict:
    """The values the config's sections `nodes` give for the fields of dataclass
    `cls`, typed by the fields. An absent key keeps its field's default; a field
    without one must be given.

    Annotations resolve in this module's globals first, because under runpy
    (`python -m cProfile -m mixformer.cli`) `sys.modules[cls.__module__]` is
    not this module."""
    hints, out = get_type_hints(cls, localns=globals()), {}
    for section, key, _, name in (row for row in KEYS if row[2] is cls):
        if key in nodes[section]:
            out[name] = _typed(f"{section}.{key}", nodes[section][key], hints[name])
        elif cls.__dataclass_fields__[name].default is MISSING:
            raise InputError(f"config is missing {section}.{key}")
    return out


def load_config(raw: dict) -> RunConfig:
    """The typed config of a resolved config dict (file, --set and --seed).

    Defaults and types come from the dataclass fields. An unknown key, a value
    of the wrong type, or one the configs reject raises InputError naming it.
    """
    nodes = {"": _section(raw, "", _keys(""))}
    for section in dict.fromkeys(s for s, *_ in KEYS):  # each after its parent
        nodes[section] = _section(nodes[section.rpartition(".")[0]], section, _keys(section))
    kind = nodes["task.labels"].get("kind")
    label_cls = LABEL_KINDS.get(kind) if isinstance(kind, str) else None  # a list or object is unhashable
    if label_cls is None:
        raise InputError(f"config task.labels.kind must be classes or regression, got {json.dumps(kind)}")
    _section(nodes["task"], "task.labels", _keys("task.labels", (None, label_cls)))
    if "lambda" in nodes["mixup"] and "alpha" in nodes["mixup"]:
        raise InputError("config mixup takes either lambda (fixed) or alpha (beta), not both")
    policy_cls = BetaLambda if "alpha" in nodes["mixup"] else FixedLambda
    try:  # a value of the right type that a config rejects
        task = TaskSpec(label_kind=label_cls(**_kwargs(nodes, label_cls)), **_kwargs(nodes, TaskSpec))
        mixup = MixupConfig(lambda_policy=policy_cls(**_kwargs(nodes, policy_cls)), **_kwargs(nodes, MixupConfig))
        classes = task.is_classification
        model = ModelConfig(vocab_size=1, head="classification" if classes else "regression",
                            n_classes=task.label_kind.n if classes else 2, **_kwargs(nodes, ModelConfig))
        train = TrainConfig(mixup=mixup, **_kwargs(nodes, TrainConfig))
        return RunConfig(task=task, model=model, train=train, **_kwargs(nodes, RunConfig))
    except ValueError as e:
        raise InputError(f"bad config: {e}") from None


def normalized_config(cfg: RunConfig) -> dict:
    """`cfg` in the file's five-section layout, every default filled in; `load_config` inverts it."""
    task, mix = cfg.task, cfg.train.mixup
    objs = {ModelConfig: cfg.model, RunConfig: cfg, TrainConfig: cfg.train, MixupConfig: mix, TaskSpec: task,
            type(mix.lambda_policy): mix.lambda_policy, type(task.label_kind): task.label_kind}
    out = {}
    for section, key, owner, name in (row for row in KEYS if row[2] in objs):
        node = out
        for part in section.split("."):
            node = node.setdefault(part, {})
        node[key] = getattr(objs[owner], name)
    out["task"]["labels"]["kind"] = "classes" if task.is_classification else "regression"
    return out


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


def _make_out_dir(path: str) -> None:
    """Create output directory `path` before any work that would write to it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise InputError(f"cannot create output directory {path}: {e}") from None


def _load_task_data(cfg: RunConfig):
    vocab = build_vocab(corpus_texts(cfg.train_path, cfg.task),
                        min_count=cfg.vocab_min_count, max_size=cfg.vocab_max_size)
    train_ds = load_tsv(cfg.train_path, cfg.task, vocab, cfg.model.max_len, "train")
    dev_ds = load_tsv(cfg.dev_path, cfg.task, vocab, cfg.model.max_len, "dev")
    return vocab, train_ds, dev_ds


# ---------------------------------------------------------------- running


def _arm(cfg: RunConfig) -> str:
    return "mixup" if cfg.train.mixup.enabled else "baseline"


def _run_id(cfg: RunConfig) -> str:
    """The run's name, and its file name under a sweep's runs/."""
    return f"{cfg.task.name}-f{cfg.fraction:g}-{_arm(cfg)}-s{cfg.train.seed}"


def _execute_run(cfg: RunConfig, train_ds: Dataset, dev_ds: Dataset, vocab_size: int,
                 state: TrainState | None = None):
    """One training run of a loaded config on its training subset `train_ds`,
    continuing `state` when given; returns (RunReport, Parameters)."""
    params, reports = run_training(cfg.model_config(vocab_size), cfg.train, train_ds, dev_ds, state)
    normalized = normalized_config(cfg)
    report = RunReport(
        run_id=_run_id(cfg), mixup_enabled=cfg.train.mixup.enabled, config=normalized,
        config_hash=config_hash(normalized), vocab_size=vocab_size, final_metric=reports[-1].dev_metric,
        epochs=reports,
    )
    return report, params


def cmd_train(args) -> int:
    cfg = _resolved_config(args)
    out_dir = _resolve_out(args, cfg)
    vocab, train_ds, dev_ds = _load_task_data(cfg)
    _make_out_dir(out_dir)
    report, params = _execute_run(cfg, reduce_dataset(train_ds, cfg.fraction, cfg.train.seed), dev_ds, vocab.size)
    files.write_json(os.path.join(out_dir, "run.json"), asdict(report))
    save_params(params, os.path.join(out_dir, "params.mixf"))
    files.write_json(os.path.join(out_dir, "vocab.json"), vocab.to_dict())
    best = max(r.dev_metric for r in report.epochs)
    print(f"{report.run_id}: {cfg.task.metric}={report.final_metric:.4f} (best {best:.4f}) -> {out_dir}")
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
    value = evaluate(params, dev_ds)
    print(json.dumps({"metric": cfg.task.metric, "value": value, "n": len(dev_ds.examples)}))
    return 0


def _failure(e: Exception) -> tuple[None, str]:
    return None, f"{type(e).__name__}: {e}"


def _run_sweep_cell(cfg: RunConfig, train_ds: Dataset, dev_ds: Dataset, vocab_size: int, runs_dir: str,
                    state: TrainState):
    """Train one cell on its subset `train_ds`, continuing `state`, and write its
    run file to `runs_dir`: (metric, None), else (None, error) and no file."""
    try:
        report, _ = _execute_run(cfg, train_ds, dev_ds, vocab_size, state)
        files.write_json(os.path.join(runs_dir, report.run_id + ".json"), asdict(report))
        return report.final_metric, None
    except Exception as e:  # a failed cell must not kill the sweep
        return _failure(e)


def _run_sweep_group(train_ds: Dataset, dev_ds: Dataset, vocab_size: int, runs_dir: str, cells: list[RunConfig]):
    """Train one unit: cells that share a fraction and a seed, and differ only
    in the arm. Yield each one's `_run_sweep_cell` outcome as it finishes.

    They train on one subset, and until the first mixing epoch of any of them
    they compute the same thing: same initial weights, shuffles and dropout
    draws, with the mixing generator not yet drawn from. Those epochs are
    trained once, on one state. The first cell continues that state and each
    other cell its own copy of it; a unit of one cell takes the same path. A
    failure there fails every cell of the unit.
    """
    first = cells[0]
    try:
        subset = reduce_dataset(train_ds, first.fraction, first.train.seed)
        model_config = first.model_config(vocab_size)
        state = start_state(model_config, first.train.seed)
        shared = min(epochs_before_mixing(c.train.epochs, c.train.mixup) for c in cells)
        run_training(model_config, first.train, subset, dev_ds, state, stop=shared)
        states = [state, *(state.copy() for _ in cells[1:])]
    except Exception as e:
        yield from [_failure(e)] * len(cells)
        return
    for cell, state in zip(cells, states):
        yield _run_sweep_cell(cell, subset, dev_ds, vocab_size, runs_dir, state)


def _sweep_units(cells: list[RunConfig], jobs: int) -> list[list[RunConfig]]:
    """The cells of each unit of work: a group per (fraction, seed), or one
    cell each when there are fewer groups than jobs, so no process idles."""
    groups: dict[tuple, list[RunConfig]] = {}
    for cell in cells:
        groups.setdefault((cell.fraction, cell.train.seed), []).append(cell)
    return list(groups.values()) if len(groups) >= jobs else [[cell] for cell in cells]


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
    seeds = _parse_list("--seeds", args.seeds, int, "integers") if args.seeds else [cfg.train.seed]
    arms = ["baseline", "mixup"] if args.arms == "both" else [args.arms]

    try:
        cells = [replace(cfg, fraction=fraction, train=replace(
                     cfg.train, seed=seed, mixup=replace(cfg.train.mixup, enabled=arm == "mixup")))
                 for fraction in fractions for arm in arms for seed in seeds]
    except ValueError as e:
        raise InputError(f"bad config: {e}") from None
    first = {}
    for cell in cells:  # fractions that print alike would share, and overwrite, one run file
        other = first.setdefault(_run_id(cell), cell)
        if other.fraction != cell.fraction:
            raise InputError(f"--fractions {other.fraction!r} and {cell.fraction!r} both name run {_run_id(cell)}")

    vocab, train_ds, dev_ds = _load_task_data(cfg)
    runs_dir = os.path.join(out_dir, "runs")
    _make_out_dir(runs_dir)
    units = _sweep_units(cells, args.jobs)
    from .pool import fork_map

    done = {}  # (metric, error) by cell: results arrive in unit order, not cell order
    # Children fork at the first result and inherit the bound data, so an item is a unit's
    # RunConfigs alone; no more processes than there are units.
    outcomes = fork_map(partial(_run_sweep_group, train_ds, dev_ds, vocab.size, runs_dir), units, args.jobs)
    try:
        results = ((cell, result) for unit, unit_results in zip(units, outcomes)
                   for cell, result in zip(unit, unit_results))
        for k, (cell, (metric, error)) in enumerate(results, 1):
            outcome = f"{cfg.task.metric}={metric:.4f}" if error is None else f"failed: {error}"
            print(f"sweep: {k}/{len(cells)} fraction={cell.fraction:g} arm={_arm(cell)} seed={cell.train.seed} "
                  f"{outcome}", file=sys.stderr)
            done[cell] = metric, error
    finally:
        outcomes.close()  # after an interrupt, units not yet started are dropped and only the running ones finish

    import csv

    table = io.StringIO()
    writer = csv.writer(table)
    writer.writerow(["task", "fraction", "arm", "seed", "metric", "status"])
    for cell in cells:
        metric, error = done[cell]
        writer.writerow([cfg.task.name, cell.fraction, _arm(cell), cell.train.seed,
                         "" if error else repr(metric), "error" if error else "ok"])
    for fraction in fractions if set(arms) == {"baseline", "mixup"} else []:
        base, mixed = (  # summed in cell order, which is seed order, so a mean keeps its bits
            [done[cell][0] for cell in cells if (cell.fraction, _arm(cell), done[cell][1]) == (fraction, arm, None)]
            for arm in ("baseline", "mixup")
        )
        if base and mixed:
            delta = sum(mixed) / len(mixed) - sum(base) / len(base)
            writer.writerow([cfg.task.name, fraction, "delta", "", repr(delta), "ok"])
    csv_path = os.path.join(out_dir, "sweep.csv")
    files.write(csv_path, table.getvalue())
    n_err = sum(error is not None for _, error in done.values())
    print(f"sweep: {len(cells)} cells ({n_err} failed) -> {csv_path}")
    return 1 if n_err == len(cells) else 0


def cmd_gradcheck(args) -> int:
    from . import checks

    results = checks.gradient_check_suite()
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: max rel error {r.max_rel_error:.3e} (tol {r.tolerance:g})")
    offenders = [r.name for r in results if not r.ok]
    if offenders:
        print(f"gradient check failed for: {', '.join(offenders)}", file=sys.stderr)
        return 1
    return 0


def cmd_gen_synthetic(args) -> int:
    from . import synthetic

    try:
        spec = synthetic.SyntheticSpec(
            n_train=args.train_size, n_dev=args.dev_size, noise=args.noise, seed=args.seed
        )
    except ValueError as e:
        raise InputError(str(e)) from None
    _make_out_dir(args.out)
    train_rows, dev_rows = synthetic.generate(spec)
    train_path, dev_path = os.path.join(args.out, "train.tsv"), os.path.join(args.out, "dev.tsv")
    config_path = os.path.join(args.out, "config.json")
    synthetic.write_tsv(train_rows, train_path)
    synthetic.write_tsv(dev_rows, dev_path)
    files.write_json(config_path, synthetic.default_config(train_path, dev_path, os.path.join(args.out, "run"), args.seed))
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


def _keep_heap() -> None:
    """Stop glibc from handing freed heap back to the OS and from mmapping
    arrays below 32 MiB, so that training steps reuse their pages instead of
    faulting them in again (110 to 145 minor faults per step on the synthetic
    config, none with this). Forked sweep children inherit the settings. Does nothing
    where libc has no mallopt (AttributeError, as on macOS) or there is no C
    library to open by None (TypeError on Windows, OSError)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError, OSError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def main(argv=None) -> int:
    _keep_heap()
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
