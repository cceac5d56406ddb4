"""Seeded inputs for the benchmark: a keyword-vs-filler sentence task.

The generator is the benchmark's own, so a change to the program's bundled
synthetic generator cannot change what is measured. Each row is 5 to 12
lowercase words (7 to 14 real tokens with CLS and SEP, 10.5 on average): one
or two keywords of the row's class among shared filler words, shuffled. Train
labels are flipped with probability 0.1; dev and scoring labels are clean, so
their Bayes accuracy is 1.
"""

from __future__ import annotations

import json
import os

import numpy as np

KEYWORDS = (
    ("murky", "clumsy", "stale", "grim", "hollow", "faded", "brittle", "noisy"),
    ("lively", "bright", "smooth", "brisk", "elegant", "fresh", "steady", "lucid"),
)
FILLER = (
    "our", "an", "his", "her", "fairly", "really", "mildly", "truly",
    "film", "dinner", "phone", "park", "trip", "talk", "book", "tune",
    "appeared", "sounded", "tasted", "ran", "kept", "grew", "went", "is",
    "lately", "now", "largely", "plainly", "openly", "once", "yet", "often",
    "at", "by", "for", "from",
)
MIN_WORDS, MAX_WORDS = 5, 12
TRAIN_NOISE = 0.1


def sentence(label: int, rng: np.random.Generator) -> str:
    n = int(rng.integers(MIN_WORDS, MAX_WORDS + 1))
    kws = list(rng.choice(KEYWORDS[label], size=int(rng.integers(1, 3)), replace=False))
    words = kws + list(rng.choice(FILLER, size=n - len(kws)))
    return " ".join(words[i] for i in rng.permutation(n))


def rows(n: int, seed: int, stream: int, noise: float = 0.0) -> list[tuple[int, str]]:
    """n (label, sentence) rows; labels alternate, so classes are balanced."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    out = []
    for i in range(n):
        label = i % 2
        text = sentence(label, rng)
        out.append((label ^ int(rng.random() < noise), text))
    return out


def write_tsv(path: str, data: list[tuple[int, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label\tsentence\n")
        fh.writelines(f"{label}\t{text}\n" for label, text in data)


def write_task(out_dir: str, seed: int, n_train: int, n_dev: int, n_score: int,
               max_len: int, schedule: str) -> dict:
    """Write train/dev/score TSVs and config.json; return the config dict."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, f"{name}.tsv") for name in ("train", "dev", "score")}
    write_tsv(paths["train"], rows(n_train, seed, 1, TRAIN_NOISE))
    write_tsv(paths["dev"], rows(n_dev, seed, 2))
    write_tsv(paths["score"], rows(n_score, seed, 3))
    config = {
        "model": {"d_model": 32, "n_heads": 2, "n_layers": 2, "d_ff": 64, "max_len": max_len,
                  "dropout_rate": 0.1, "vocab_min_count": 1, "vocab_max_size": 4096},
        "train": {"epochs": 3, "batch_size": 8, "learning_rate": 1e-3, "weight_decay": 0.01,
                  "grad_clip_norm": 1.0, "seed": seed},
        "mixup": {"enabled": True, "lambda": 0.5, "schedule": schedule},
        "task": {"name": "bench-keywords", "input_arity": "single",
                 "labels": {"kind": "classes", "n": 2}, "metric": "accuracy",
                 "columns": {"sentence1": 1, "label": 0}},
        "paths": {"train": paths["train"], "dev": paths["dev"], "out": os.path.join(out_dir, "run")},
    }
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    return config
