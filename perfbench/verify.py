"""Checks of the program's outputs. Each returns a list of problems; empty means correct."""

from __future__ import annotations

import csv
import glob
import json
import math
import os
import re
import sys

import numpy as np

import reference

GRADCHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+): max rel error (\S+) \(tol (\S+)\)$")


def run_report(out_dir: str, floor: float | None, schedule: str) -> tuple[list[str], dict]:
    """run.json of one `train`: finite losses, the mixing schedule, the dev floor."""
    with open(os.path.join(out_dir, "run.json"), encoding="utf-8") as fh:
        run = json.load(fh)
    problems = []
    n = len(run["epochs"])
    for e in run["epochs"]:
        if not math.isfinite(e["mean_train_loss"]):
            problems.append(f"epoch {e['epoch']}: non-finite loss {e['mean_train_loss']}")
        want = run["mixup_enabled"] and (schedule == "always" or e["epoch"] > n // 2)
        if e["mixup_active"] != want:
            problems.append(f"epoch {e['epoch']}: mixup_active {e['mixup_active']}, schedule wants {want}")
    if floor is not None and run["final_metric"] < floor:
        problems.append(f"dev accuracy {run['final_metric']} below the floor {floor}")
    return problems, run


def without_timings(run: dict) -> dict:
    return {**run, "epochs": [{k: v for k, v in e.items() if k != "wall_time_ms"} for e in run["epochs"]]}


def eval_output(stdout: str, n_rows: int) -> tuple[list[str], float | None]:
    try:
        out = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"eval printed no JSON result: {stdout!r}"], None
    if out.get("n") != n_rows or out.get("metric") != "accuracy":
        return [f"eval reported {out}, expected accuracy over {n_rows} rows"], None
    return [], out["value"]


def against_reference(src: str, work: str, out_dir: str, cfg: dict, eval_value: float) -> list[str]:
    """The reference forward pass on real tokens only must reproduce eval's accuracy
    exactly and the program's padded eval-mode logits to 1e-9."""
    if src not in sys.path:
        sys.path.insert(0, src)
    from mixformer.data import LabelClasses, TaskSpec, Vocabulary, batches, load_tsv
    from mixformer.model import ModelConfig, encode, head_forward, load_params

    m = cfg["model"]
    with open(os.path.join(out_dir, "vocab.json"), encoding="utf-8") as fh:
        vocab = json.load(fh)
    score = os.path.join(work, "score.tsv")
    with open(score, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh.readlines()[1:]]
    gold = np.array([int(label) for label, _ in rows])
    ids = [reference.token_ids(text, vocab, m["max_len"]) for _, text in rows]
    ref = reference.logits(reference.read_params(os.path.join(out_dir, "params.mixf")), ids, m["n_heads"])

    task = TaskSpec("bench", "single", LabelClasses(2), "accuracy", 1, 0)
    voc = Vocabulary.from_dict(vocab)
    config = ModelConfig(voc.size, m["d_model"], m["n_heads"], m["n_layers"], m["d_ff"], m["max_len"])
    params = load_params(os.path.join(out_dir, "params.mixf"), config)
    ds = load_tsv(score, task, voc, m["max_len"], "dev")
    prog = np.concatenate([head_forward(params, encode(params, b).output).output for b in batches(ds, 32)])

    problems = []
    err = float(np.abs(prog - ref).max())
    if not err <= 1e-9:
        problems.append(f"program logits differ from the reference by {err:.3e} (> 1e-9)")
    ref_acc = int((ref.argmax(axis=1) == gold).sum()) / len(gold)
    if ref_acc != eval_value:
        problems.append(f"eval accuracy {eval_value!r} != reference accuracy {ref_acc!r}")
    return problems


def sweep_outputs(out_dir: str, fractions: list[float], seeds: list[int], epochs: int) -> tuple[list[str], int]:
    """sweep.csv and runs/*.json: cell count, statuses, deltas, mixing per arm.

    Returns (problems, cells not ok); failures are counted from the CSV status
    column, not from the exit code.
    """
    with open(os.path.join(out_dir, "sweep.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    cells = [r for r in rows if r["arm"] in ("baseline", "mixup")]
    deltas = {float(r["fraction"]): float(r["metric"]) for r in rows if r["arm"] == "delta"}
    problems = []
    expected = len(fractions) * 2 * len(seeds)
    if len(cells) != expected:
        problems.append(f"{len(cells)} cells, expected {expected} (fractions x arms x seeds)")
    bad = sum(1 for r in cells if r["status"] != "ok")
    if bad:
        problems.append(f"{bad} cells not ok")
    for f in fractions:
        means = {}
        for arm in ("baseline", "mixup"):
            vals = [float(r["metric"]) for r in cells if float(r["fraction"]) == f and r["arm"] == arm and r["status"] == "ok"]
            means[arm] = sum(vals) / len(vals) if vals else None
        if None in means.values():
            continue
        want = means["mixup"] - means["baseline"]
        if f not in deltas or abs(deltas[f] - want) > 1e-12:
            problems.append(f"fraction {f}: delta {deltas.get(f)} != recomputed {want}")
    runs = glob.glob(os.path.join(out_dir, "runs", "*.json"))
    if len(runs) != expected - bad:
        problems.append(f"{len(runs)} run files for {expected - bad} ok cells")
    for path in runs:
        with open(path, encoding="utf-8") as fh:
            run = json.load(fh)
        for e in run["epochs"]:
            want = run["mixup_enabled"] and e["epoch"] > epochs // 2
            if e["mixup_active"] != want:
                problems.append(f"{run['run_id']} epoch {e['epoch']}: mixup_active {e['mixup_active']}, want {want}")
    return problems, bad


def sweep_cell_seconds(out_dir: str) -> list[float]:
    out = []
    for path in glob.glob(os.path.join(out_dir, "runs", "*.json")):
        with open(path, encoding="utf-8") as fh:
            out.append(sum(e["wall_time_ms"] for e in json.load(fh)["epochs"]) / 1000.0)
    return out


def gradcheck_output(stdout: str, rc: int) -> tuple[list[str], int, int]:
    """Returns (problems, checks run, checks failed)."""
    lines = [GRADCHECK_LINE.match(line) for line in stdout.splitlines() if line.strip()]
    problems = [] if rc == 0 else [f"gradcheck exited {rc}"]
    if not lines or None in lines:
        return problems + [f"unexpected gradcheck output: {stdout!r}"], max(len(lines), 1), max(len(lines), 1)
    failed = 0
    for m in lines:
        status, name, err, tol = m.groups()
        if status != "PASS" or not float(err) < float(tol):
            failed += 1
            problems.append(f"gradcheck {name}: {status}, error {err} (tol {tol})")
    return problems, len(lines), failed
