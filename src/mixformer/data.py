"""Vocabulary, tokenization, TSV ingestion, seeded data reduction, batching.

Tokenization is deliberately simple (lowercase, whitespace split, strip ASCII
punctuation from token edges): the training method needs a fixed-size
representation to mix, not subword quality.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InputError
from .model import EncodedBatch

PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3
N_RESERVED = 4


@dataclass(frozen=True)
class LabelClasses:
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 classes, got {self.n}")


@dataclass(frozen=True)
class LabelRegression:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"regression range [{self.lo}, {self.hi}] is empty")


LabelKind = Union[LabelClasses, LabelRegression]

METRIC_NAMES = ("accuracy", "matthews", "spearman")


@dataclass(frozen=True)
class TaskSpec:
    """Task shape: input arity, label kind, dev metric, and TSV column mapping."""

    name: str
    input_arity: str  # "single" | "pair"
    label_kind: LabelKind
    metric: str
    sentence1_col: int
    label_col: int
    sentence2_col: int | None = None

    def __post_init__(self):
        if self.input_arity not in ("single", "pair"):
            raise ValueError(f"input_arity must be 'single' or 'pair', got {self.input_arity!r}")
        if (self.input_arity == "pair") != (self.sentence2_col is not None):
            raise ValueError("sentence2 column required iff input_arity is 'pair'")
        if self.metric not in METRIC_NAMES:
            raise ValueError(f"metric must be one of {METRIC_NAMES}, got {self.metric!r}")
        if self.metric == "matthews" and not (
            isinstance(self.label_kind, LabelClasses) and self.label_kind.n == 2
        ):
            raise ValueError("matthews metric requires exactly 2 classes")
        if self.metric == "spearman" and not isinstance(self.label_kind, LabelRegression):
            raise ValueError("spearman metric requires a regression task")
        if self.metric == "accuracy" and not isinstance(self.label_kind, LabelClasses):
            raise ValueError("accuracy metric requires a classification task")

    @property
    def is_classification(self) -> bool:
        return isinstance(self.label_kind, LabelClasses)


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip ASCII punctuation from token edges."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(string.punctuation)
        if tok:
            out.append(tok)
    return out


class Vocabulary:
    """Dense token -> id map; ids 0..3 are reserved for PAD/UNK/CLS/SEP."""

    def __init__(self, token_to_id: dict[str, int]):
        for tok, i in token_to_id.items():
            if i < N_RESERVED:
                raise ValueError(f"token {tok!r} collides with reserved id {i}")
        self.token_to_id = dict(token_to_id)

    @property
    def size(self) -> int:
        return N_RESERVED + len(self.token_to_id)

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def encode_tokens(self, tokens: Iterable[str]) -> list[int]:
        return [self.id_for(t) for t in tokens]

    def to_dict(self) -> dict[str, int]:
        return dict(self.token_to_id)

    @classmethod
    def from_dict(cls, d) -> "Vocabulary":
        """Inverse of `to_dict`: the ids must be exactly N_RESERVED .. N_RESERVED + n - 1,
        each used once, as `build_vocab` assigns them."""
        if not isinstance(d, dict) or not all(type(v) is int for v in d.values()):
            raise ValueError("a vocabulary must be a JSON object mapping tokens to integer ids")
        if sorted(d.values()) != list(range(N_RESERVED, N_RESERVED + len(d))):
            raise ValueError(
                f"token ids must be exactly {N_RESERVED}..{N_RESERVED + len(d) - 1}, each used once"
            )
        return cls(d)


def build_vocab(train_corpus: Iterable[str], min_count: int = 1, max_size: int = 50000) -> Vocabulary:
    """Count tokens over the corpus; keep count >= min_count, most frequent first,
    ties broken lexicographically; capped at max_size including the 4 reserved ids."""
    counts: Counter[str] = Counter()
    n_sentences = 0
    for sentence in train_corpus:
        n_sentences += 1
        counts.update(tokenize(sentence))
    if n_sentences == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )[: max(0, max_size - N_RESERVED)]
    return Vocabulary({t: N_RESERVED + i for i, t in enumerate(kept)})


@dataclass(frozen=True)
class Example:
    """One encoded row: its real tokens only (CLS ... SEP, at most max_len), no PAD."""
    token_ids: np.ndarray  # int64 [n_real]
    label: float | int


@dataclass
class Dataset:
    task: TaskSpec
    examples: list[Example]
    split: str


def _truncate_pair(t1: list[int], t2: list[int], budget: int) -> None:
    # trim the longer sentence from its end; alternate starting with s1 on ties
    trim_first = True
    while len(t1) + len(t2) > budget:
        if len(t1) > len(t2):
            t1.pop()
        elif len(t2) > len(t1):
            t2.pop()
        elif trim_first:
            t1.pop()
            trim_first = False
        else:
            t2.pop()
            trim_first = True


def _validate_label(task: TaskSpec, label) -> float | int:
    kind = task.label_kind
    if isinstance(kind, LabelClasses):
        lab = int(label)
        if not 0 <= lab < kind.n:
            raise ValueError(f"label {label!r} outside [0, {kind.n}) for task {task.name!r}")
        return lab
    lab = float(label)
    if not kind.lo <= lab <= kind.hi:
        raise ValueError(
            f"label {label!r} outside [{kind.lo}, {kind.hi}] for task {task.name!r}"
        )
    return lab


def encode_example(
    vocab: Vocabulary,
    task: TaskSpec,
    sentence1: str,
    sentence2: str | None,
    label,
    max_len: int,
) -> Example:
    """[CLS] s1 [SEP] (s2 [SEP]) layout, truncated longer-sentence-first to max_len; no PAD."""
    pair = task.input_arity == "pair"
    if pair != (sentence2 is not None):
        raise ValueError(f"task {task.name!r} expects sentence2 iff arity is 'pair'")
    n_special = 3 if pair else 2
    if max_len < n_special:
        raise ValueError(f"max_len {max_len} cannot fit the special tokens")
    budget = max_len - n_special
    t1 = vocab.encode_tokens(tokenize(sentence1))
    if pair:
        t2 = vocab.encode_tokens(tokenize(sentence2))
        _truncate_pair(t1, t2, budget)
        ids = [CLS_ID, *t1, SEP_ID, *t2, SEP_ID]
    else:
        ids = [CLS_ID, *t1[:budget], SEP_ID]
    return Example(token_ids=np.asarray(ids, dtype=np.int64), label=_validate_label(task, label))


def _read_rows(path, task: TaskSpec) -> list[tuple[int, str, str | None, str]]:
    """Parse a header-first TSV into (lineno, sentence1, sentence2, raw_label) rows.

    Universal newlines turn CRLF and CR into a line feed, and only a line feed
    ends a row: any other line separator stays inside its field.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    if lines[-1] == "":  # the final line feed ends the last row
        lines.pop()
    if not lines:
        raise InputError(f"{path}: empty file, expected a header row")
    n_fields = len(lines[0].split("\t"))
    needed = [task.sentence1_col, task.label_col]
    if task.sentence2_col is not None:
        needed.append(task.sentence2_col)
    if max(needed) >= n_fields:
        raise InputError(
            f"{path}: header has {n_fields} columns but task {task.name!r} "
            f"needs column index {max(needed)}"
        )
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise InputError(
                f"{path}:{lineno}: expected {n_fields} tab-separated fields, found {len(fields)}"
            )
        s2 = fields[task.sentence2_col] if task.sentence2_col is not None else None
        rows.append((lineno, fields[task.sentence1_col], s2, fields[task.label_col]))
    if not rows:
        raise InputError(f"{path}: no data rows after the header")
    return rows


def corpus_texts(path, task: TaskSpec) -> list[str]:
    """All sentence strings of a TSV file, for vocabulary construction."""
    texts = []
    for _, s1, s2, _ in _read_rows(path, task):
        texts.append(s1)
        if s2 is not None:
            texts.append(s2)
    return texts


def load_tsv(path, task: TaskSpec, vocab: Vocabulary, max_len: int, split: str = "train") -> Dataset:
    """Parse and encode a TSV file in disk order; malformed rows report line numbers."""
    examples = []
    for lineno, s1, s2, raw_label in _read_rows(path, task):
        try:
            examples.append(encode_example(vocab, task, s1, s2, raw_label, max_len))
        except ValueError as e:
            raise InputError(f"{path}:{lineno}: {e}") from None
    return Dataset(task=task, examples=examples, split=split)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def reduce_dataset(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """Seeded subset of a train split, preserving original relative order.

    Classification keeps round(fraction * n) per class (at least 1 per
    non-empty class); regression keeps a uniform round(fraction * N) sample.
    fraction = 1.0 is an identity.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    if ds.split != "train":
        raise ValueError(f"reduce_dataset applies to the train split, got {ds.split!r}")
    if fraction == 1.0:
        return ds
    rng = np.random.Generator(np.random.PCG64(seed))
    if ds.task.is_classification:
        keep: list[int] = []
        for cls in range(ds.task.label_kind.n):
            idx = [i for i, ex in enumerate(ds.examples) if ex.label == cls]
            if not idx:
                continue
            k = max(1, _round_half_up(fraction * len(idx)))
            chosen = rng.permutation(len(idx))[:k]
            keep.extend(idx[j] for j in chosen)
    else:
        k = max(1, _round_half_up(fraction * len(ds.examples)))
        keep = list(rng.permutation(len(ds.examples))[:k])
    keep.sort()
    return Dataset(ds.task, [ds.examples[i] for i in keep], ds.split)


def _labels_array(task: TaskSpec, examples: Sequence[Example]) -> np.ndarray:
    if task.is_classification:
        n = task.label_kind.n
        rows = np.zeros((len(examples), n))
        for i, ex in enumerate(examples):
            rows[i, int(ex.label)] = 1.0
        return rows
    return np.asarray([[float(ex.label)] for ex in examples])


def batches(ds: Dataset, batch_size: int, shuffle_seed=None) -> list[EncodedBatch]:
    """Chunk the dataset into EncodedBatches; class labels are one-hot here.

    The one place rows are padded: each batch is PAD-filled to its longest
    row, and its mask is 1 exactly on real tokens (no vocabulary id is PAD_ID).
    shuffle_seed may be anything np.random.default_rng accepts; None keeps
    dataset order. The final short batch is kept.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(len(ds.examples))
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(ds.examples))
    out = []
    for start in range(0, len(order), batch_size):
        exs = [ds.examples[i] for i in order[start : start + batch_size]]
        ids = np.full((len(exs), max(ex.token_ids.size for ex in exs)), PAD_ID, dtype=np.int64)
        for row, ex in zip(ids, exs):
            row[: ex.token_ids.size] = ex.token_ids
        out.append(EncodedBatch(ids, (ids != PAD_ID).astype(np.int64), _labels_array(ds.task, exs)))
    return out
