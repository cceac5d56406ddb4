"""Set-up probe: `python3 perfbench/probe.py [CONFIG.json]`.

Does what a `mixformer` command does before its first unit of work, through
public functions: import the CLI (which imports every module), then, given a
config, read it, parse the train and dev TSVs, build the vocabulary and
initialise the parameters. The benchmark times this process from start to exit.
"""

import json
import sys

from mixformer import cli  # noqa: F401  (import cost of the CLI is part of set-up)
from mixformer.data import LabelClasses, TaskSpec, build_vocab, corpus_texts, load_tsv
from mixformer.model import ModelConfig, init_params

if len(sys.argv) > 1:
    with open(sys.argv[1], encoding="utf-8") as fh:
        cfg = json.load(fh)
    t, m = cfg["task"], cfg["model"]
    task = TaskSpec(t["name"], t["input_arity"], LabelClasses(t["labels"]["n"]), t["metric"],
                    t["columns"]["sentence1"], t["columns"]["label"])
    vocab = build_vocab(corpus_texts(cfg["paths"]["train"], task), m["vocab_min_count"], m["vocab_max_size"])
    for split in ("train", "dev"):
        load_tsv(cfg["paths"][split], task, vocab, m["max_len"], split)
    init_params(ModelConfig(vocab.size, m["d_model"], m["n_heads"], m["n_layers"], m["d_ff"], m["max_len"],
                            n_classes=t["labels"]["n"], dropout_rate=m["dropout_rate"], seed=cfg["train"]["seed"]))
