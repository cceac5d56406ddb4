"""Deterministic keyword-vs-distractor sentence generator.

Each class owns a small keyword lexicon; sentences mix one or two class
keywords into shared filler words. Label noise (train split only) flips the
written label, leaving the sentence's true signal intact, so a clean dev set
remains fully learnable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import files

CLASS_KEYWORDS = (
    ("gloomy", "dreadful", "awful", "tedious", "bleak", "sour", "broken", "dull"),
    ("radiant", "superb", "delightful", "crisp", "vivid", "graceful", "sturdy", "warm"),
)

FILLER_WORDS = (
    "the", "a", "this", "that", "quite", "rather", "somewhat", "very",
    "movie", "meal", "device", "garden", "journey", "lecture", "novel", "song",
    "seemed", "felt", "looked", "turned", "stayed", "remained", "became", "was",
    "yesterday", "today", "overall", "honestly", "frankly", "again", "still", "mostly",
    "in", "on", "with", "without",
)

MIN_WORDS = 5  # a sentence's length range, keywords included
MAX_WORDS = 12


@dataclass(frozen=True)
class SyntheticSpec:
    n_train: int = 2000
    n_dev: int = 500
    noise: float = 0.1
    seed: int = 7

    def __post_init__(self):
        if self.n_train < 2 or self.n_dev < 2:
            raise ValueError("need at least 2 train and 2 dev examples")
        if not 0.0 <= self.noise < 0.5:
            raise ValueError(f"noise must lie in [0, 0.5), got {self.noise}")


def _sentence(label: int, rng: np.random.Generator) -> str:
    length = int(rng.integers(MIN_WORDS, MAX_WORDS + 1))
    n_kw = int(rng.integers(1, 3))
    kws = list(rng.choice(CLASS_KEYWORDS[label], size=min(n_kw, length), replace=False))
    fillers = list(rng.choice(FILLER_WORDS, size=length - len(kws), replace=True))
    words = kws + fillers
    order = rng.permutation(len(words))
    return " ".join(words[i] for i in order)


def generate(spec: SyntheticSpec) -> tuple[list[tuple[int, str]], list[tuple[int, str]]]:
    """(train_rows, dev_rows) of (label, sentence); labels alternate for exact balance."""
    rng = np.random.default_rng(spec.seed)
    train = []
    for i in range(spec.n_train):
        true_label = i % 2
        sent = _sentence(true_label, rng)
        written = true_label ^ int(rng.random() < spec.noise)
        train.append((written, sent))
    dev = [(i % 2, _sentence(i % 2, rng)) for i in range(spec.n_dev)]
    return train, dev


def write_tsv(rows: list[tuple[int, str]], path) -> None:
    files.write(path, "label\tsentence\n" + "".join(f"{label}\t{sentence}\n" for label, sentence in rows))


def default_config(train_path: str, dev_path: str, out_dir: str, seed: int) -> dict:
    """Desk-scale config for the generated task: a small encoder trained from
    scratch, so the learning rate is far above fine-tuning scale."""
    return {
        "model": {
            "d_model": 32,
            "n_heads": 2,
            "n_layers": 2,
            "d_ff": 64,
            "max_len": 16,
            "dropout_rate": 0.1,
            "vocab_min_count": 1,
            "vocab_max_size": 4096,
        },
        "train": {
            "epochs": 3,
            "batch_size": 8,
            "learning_rate": 1e-3,
            "weight_decay": 0.01,
            "grad_clip_norm": 1.0,
            "seed": seed,
        },
        "mixup": {"enabled": True, "lambda": 0.5, "schedule": "last_half"},
        "task": {
            "name": "synthetic-keywords",
            "input_arity": "single",
            "labels": {"kind": "classes", "n": 2},
            "metric": "accuracy",
            "columns": {"sentence1": 1, "label": 0},
        },
        "paths": {"train": train_path, "dev": dev_path, "out": out_dir},
    }
