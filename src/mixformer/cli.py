"""Command-line entry point: train, eval, sweep, gradcheck, gen-synthetic.

Configs are JSON with five sections (model, train, mixup, task, paths); any
leaf can be overridden with repeated --set key.path=value flags. Exit codes:
0 success, 1 verification/training failure, 2 user or input error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass

from . import checks, synthetic
from .data import (
    Dataset,
    LabelClasses,
    LabelRegression,
    TaskSpec,
    Vocabulary,
    build_vocab,
    corpus_texts,
    load_tsv,
    reduce_dataset,
)
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
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise InputError(f"--set path {key!r} crosses a non-object value at {part!r}")
        node = nxt
    node[parts[-1]] = value


def _resolved_config(args) -> dict:
    cfg = _load_json_config(args.config)
    for spec in args.set or []:
        _apply_set(cfg, spec)
    if getattr(args, "seed", None) is not None:
        cfg.setdefault("train", {})["seed"] = args.seed
    return cfg


def _resolve_out(args, cfg: dict) -> str:
    if getattr(args, "out", None):
        return args.out
    env = os.environ.get("MIXF_OUT")
    if env:
        return env
    return cfg.get("paths", {}).get("out", "mixf-out")


def _build_task(section: dict) -> TaskSpec:
    try:
        labels = section["labels"]
        if labels.get("kind") == "classes":
            kind = LabelClasses(int(labels["n"]))
        elif labels.get("kind") == "regression":
            kind = LabelRegression(float(labels["min"]), float(labels["max"]))
        else:
            raise InputError(f"task labels kind must be 'classes' or 'regression', got {labels.get('kind')!r}")
        cols = section["columns"]
        return TaskSpec(
            name=str(section.get("name", "task")),
            input_arity=str(section.get("input_arity", "single")),
            label_kind=kind,
            metric=str(section.get("metric", "accuracy")),
            sentence1_col=int(cols["sentence1"]),
            label_col=int(cols["label"]),
            sentence2_col=int(cols["sentence2"]) if "sentence2" in cols else None,
        )
    except KeyError as e:
        raise InputError(f"task config is missing {e.args[0]!r}") from None
    except ValueError as e:
        raise InputError(f"bad task config: {e}") from None


def _build_mixup(section: dict) -> MixupConfig:
    try:
        if "alpha" in section and "lambda" in section:
            raise InputError("mixup config: give either 'lambda' (fixed) or 'alpha' (beta), not both")
        if "alpha" in section:
            policy = BetaLambda(float(section["alpha"]))
        else:
            policy = FixedLambda(float(section.get("lambda", 0.5)))
        schedule = section.get("schedule", "last_half")
        if isinstance(schedule, list):
            schedule = tuple(int(e) for e in schedule)
        return MixupConfig(bool(section.get("enabled", True)), policy, schedule)
    except ValueError as e:
        raise InputError(f"bad mixup config: {e}") from None


def _build_model_config(section: dict, vocab_size: int, task: TaskSpec, seed: int) -> ModelConfig:
    try:
        return ModelConfig(
            vocab_size=vocab_size,
            d_model=int(section.get("d_model", 32)),
            n_heads=int(section.get("n_heads", 2)),
            n_layers=int(section.get("n_layers", 2)),
            d_ff=int(section.get("d_ff", 64)),
            max_len=int(section.get("max_len", 128)),
            head="classification" if task.is_classification else "regression",
            n_classes=task.label_kind.n if task.is_classification else 2,
            dropout_rate=float(section.get("dropout_rate", 0.1)),
            seed=seed,
        )
    except ValueError as e:
        raise InputError(f"bad model config: {e}") from None


def _build_train_config(section: dict, mix: MixupConfig) -> TrainConfig:
    clip = section.get("grad_clip_norm", 1.0)
    try:
        return TrainConfig(
            epochs=int(section.get("epochs", 3)),
            batch_size=int(section.get("batch_size", 8)),
            learning_rate=float(section.get("learning_rate", 2e-5)),
            beta1=float(section.get("beta1", 0.9)),
            beta2=float(section.get("beta2", 0.999)),
            adam_eps=float(section.get("adam_eps", 1e-8)),
            weight_decay=float(section.get("weight_decay", 0.01)),
            grad_clip_norm=None if clip is None else float(clip),
            seed=int(section.get("seed", 0)),
            mixup=mix,
        )
    except ValueError as e:
        raise InputError(f"bad train config: {e}") from None


def _load_task_data(cfg: dict):
    task = _build_task(cfg.get("task", {}))
    paths = cfg.get("paths", {})
    for key in ("train", "dev"):
        if key not in paths:
            raise InputError(f"config paths section is missing {key!r}")
    model_section = cfg.get("model", {})
    max_len = int(model_section.get("max_len", 128))
    vocab = build_vocab(
        corpus_texts(paths["train"], task),
        min_count=int(model_section.get("vocab_min_count", 1)),
        max_size=int(model_section.get("vocab_max_size", 50000)),
    )
    train_ds = load_tsv(paths["train"], task, vocab, max_len, "train")
    dev_ds = load_tsv(paths["dev"], task, vocab, max_len, "dev")
    return task, vocab, train_ds, dev_ds


# ---------------------------------------------------------------- running


def _build_run_configs(cfg: dict, vocab_size: int, task: TaskSpec) -> tuple[ModelConfig, TrainConfig]:
    train_section = cfg.get("train", {})
    seed = int(train_section.get("seed", 0))
    mix_cfg = _build_mixup(cfg.get("mixup", {}))
    model_cfg = _build_model_config(cfg.get("model", {}), vocab_size, task, seed)
    return model_cfg, _build_train_config(train_section, mix_cfg)


def _execute_run(cfg: dict, train_ds: Dataset, dev_ds: Dataset, vocab_size: int):
    """One training run from a fully-resolved config dict; returns (RunReport, Parameters)."""
    task = train_ds.task
    fraction = float(cfg.get("train", {}).get("fraction", 1.0))
    if not 0.0 < fraction <= 1.0:
        raise InputError(f"train.fraction must lie in (0, 1], got {fraction}")
    model_cfg, train_cfg = _build_run_configs(cfg, vocab_size, task)
    seed, mix_cfg = train_cfg.seed, train_cfg.mixup
    reduced = reduce_dataset(train_ds, fraction, seed) if fraction < 1.0 else train_ds
    params, reports = run_training(model_cfg, train_cfg, reduced, dev_ds)
    arm = "mixup" if mix_cfg.enabled else "baseline"
    report = RunReport(
        run_id=f"{task.name}-f{fraction:g}-{arm}-s{seed}",
        task=task.name,
        fraction=fraction,
        mixup_enabled=mix_cfg.enabled,
        seed=seed,
        config=cfg,
        config_hash=config_hash(cfg),
        vocab_size=vocab_size,
        metric_name=task.metric,
        final_metric=reports[-1].dev_metric.value,
        best_metric=max(r.dev_metric.value for r in reports),
        epochs=reports,
    )
    return report, params


def _write_report(report: RunReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_train(args) -> int:
    cfg = _resolved_config(args)
    out_dir = _resolve_out(args, cfg)
    task, vocab, train_ds, dev_ds = _load_task_data(cfg)
    report, params = _execute_run(cfg, train_ds, dev_ds, vocab.size)
    os.makedirs(out_dir, exist_ok=True)
    _write_report(report, os.path.join(out_dir, "run.json"))
    save_params(params, os.path.join(out_dir, "params.mixf"))
    with open(os.path.join(out_dir, "vocab.json"), "w", encoding="utf-8") as fh:
        json.dump(vocab.to_dict(), fh, sort_keys=True)
    print(f"{report.run_id}: {report.metric_name}={report.final_metric:.4f} "
          f"(best {report.best_metric:.4f}) -> {out_dir}")
    return 0


def cmd_eval(args) -> int:
    cfg = _resolved_config(args)
    task = _build_task(cfg.get("task", {}))
    try:
        with open(args.vocab, encoding="utf-8") as fh:
            vocab = Vocabulary.from_dict(json.load(fh))
    except OSError as e:
        raise InputError(f"cannot read vocab {args.vocab}: {e}") from None
    except (json.JSONDecodeError, ValueError) as e:
        raise InputError(f"bad vocab file {args.vocab}: {e}") from None
    model_cfg = _build_model_config(cfg.get("model", {}), vocab.size, task, seed=0)
    params = load_params(args.params, model_cfg)
    dev_ds = load_tsv(args.dev, task, vocab, model_cfg.max_len, "dev")
    result = evaluate(params, dev_ds, task)
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
    train_ds, dev_ds = _sweep_data
    try:
        report, _ = _execute_run(cfg, train_ds, dev_ds, vocab_size)
        return {
            "fraction": fraction, "arm": arm, "seed": seed,
            "status": "ok", "metric": report.final_metric, "report": asdict(report),
        }
    except Exception as e:  # a failed cell must not kill the sweep
        return {
            "fraction": fraction, "arm": arm, "seed": seed,
            "status": "error", "metric": None, "error": f"{type(e).__name__}: {e}",
        }


def _reject_repeats(values: list, flag: str) -> None:
    for i, v in enumerate(values):
        if v in values[:i]:
            raise InputError(f"{flag} repeats the value {v}")


def cmd_sweep(args) -> int:
    cfg = _resolved_config(args)
    out_dir = _resolve_out(args, cfg)
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    if args.fractions:
        try:
            fractions = [float(x) for x in args.fractions.split(",")]
        except ValueError:
            raise InputError(f"--fractions expects comma-separated numbers, got {args.fractions!r}") from None
    else:
        fractions = list(DEFAULT_FRACTIONS)
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise InputError(f"fractions must lie in (0, 1], got {f}")
    _reject_repeats(fractions, "--fractions")
    arms = ["baseline", "mixup"] if args.arms == "both" else [args.arms]
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            raise InputError(f"--seeds expects comma-separated integers, got {args.seeds!r}") from None
        _reject_repeats(seeds, "--seeds")
    else:
        seeds = [int(cfg.get("train", {}).get("seed", 0))]

    task, vocab, train_ds, dev_ds = _load_task_data(cfg)
    # A bad value in the shared config is the user's error, not one per cell;
    # cells differ only in seed, fraction and arm, all validated above.
    _build_run_configs(cfg, vocab.size, task)
    payloads = []
    for fraction in fractions:
        for arm in arms:
            for seed in seeds:
                cell_cfg = copy.deepcopy(cfg)
                cell_cfg.setdefault("train", {})["seed"] = seed
                cell_cfg["train"]["fraction"] = fraction
                cell_cfg.setdefault("mixup", {})["enabled"] = arm == "mixup"
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
    rows = []
    for outcome in outcomes:
        if outcome["status"] == "ok":
            report = outcome["report"]
            with open(os.path.join(out_dir, "runs", report["run_id"] + ".json"), "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
        else:
            print(
                f"cell fraction={outcome['fraction']:g} arm={outcome['arm']} seed={outcome['seed']} "
                f"failed: {outcome['error']}",
                file=sys.stderr,
            )
        rows.append(outcome)

    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "fraction", "arm", "seed", "metric", "status"])
        for r in rows:
            metric = "" if r["metric"] is None else repr(r["metric"])
            writer.writerow([task.name, r["fraction"], r["arm"], r["seed"], metric, r["status"]])
        if set(arms) == {"baseline", "mixup"}:
            def ok_metrics(fraction, arm):
                return [
                    r["metric"] for r in rows
                    if r["fraction"] == fraction and r["arm"] == arm and r["status"] == "ok"
                ]

            for fraction in fractions:
                base, mixed = ok_metrics(fraction, "baseline"), ok_metrics(fraction, "mixup")
                if base and mixed:
                    delta = sum(mixed) / len(mixed) - sum(base) / len(base)
                    writer.writerow([task.name, fraction, "delta", "", repr(delta), "ok"])
    n_err = sum(1 for r in rows if r["status"] == "error")
    print(f"sweep: {len(rows)} cells ({n_err} failed) -> {csv_path}")
    return 1 if n_err == len(rows) else 0


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
    train_path = os.path.join(args.out, "train.tsv")
    dev_path = os.path.join(args.out, "dev.tsv")
    config_path = os.path.join(args.out, "config.json")
    synthetic.write_tsv(train_rows, train_path)
    synthetic.write_tsv(dev_rows, dev_path)
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(
            synthetic.default_config(train_path, dev_path, os.path.join(args.out, "run"), args.seed),
            fh, indent=2, sort_keys=True,
        )
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
