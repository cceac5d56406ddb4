"""Span tracing of the program's layers, done from the benchmark's side.

Run as `python3 perfbench/tracing.py SPANS.json -- <mixformer CLI arguments>`.
It wraps public functions at the module attributes through which the program
calls them (`mixformer.trainer.encode`, `mixformer.model.gelu`, ...), runs the
CLI in this process, keeps spans in memory and writes them to SPANS.json when
the CLI returns. A wrapped call that returns a DualResult gets its `backward`
closure wrapped too, as a span named `<name>.bwd`. Sweep cells run in worker
processes; their spans are not collected.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import time
from collections import Counter


class Tracer:
    """Spans (sid, parent sid, name, start, end) and counters of one traced command."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def timed(self, name, fn, *args, **kwargs):
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, fn, name):
        """`name` is a span name or a function of the call's (args, kwargs) giving one."""
        from mixformer.numerics import DualResult

        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            result = self.timed(span, fn, *args, **kwargs)
            if isinstance(result, DualResult):
                backward = result.backward
                result = DualResult(result.output, lambda *g: self.timed(span + ".bwd", backward, *g))
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans, "counts": self.counts}, fh)


def install(tr: Tracer) -> None:
    """Replace the module attributes the program calls through with traced wrappers."""
    import concurrent.futures

    from mixformer import checks, cli, model, trainer

    def patch(module, attr, name):
        setattr(module, attr, tr.wrap(getattr(module, attr), name))

    for op in ("matmul", "softmax_rows", "layer_norm", "gelu"):
        patch(model, op, "numerics." + op)
    patch(trainer, "encode", lambda a, k: "model.encode." + ("train" if k.get("train_mode", a[2:3] == (True,)) else "eval"))
    patch(trainer, "head_forward", "model.head")
    patch(trainer, "cross_entropy_soft", "numerics.loss")
    patch(trainer, "mse", "numerics.loss")
    patch(trainer, "make_plan", "mixup.plan")
    patch(trainer, "mix_representations", "mixup.mix")
    patch(trainer, "mix_labels", "mixup.mix_labels")
    patch(trainer, "train_step", lambda a, k: "trainer.train_step." + ("mix" if a[2] else "plain"))
    patch(trainer, "adam_update", "trainer.adam")
    patch(trainer, "init_params", "model.init_params")
    for metric in ("accuracy", "matthews_corr", "spearman_corr"):
        patch(trainer, metric, "metrics.metric")
    for module in (trainer, cli):
        patch(module, "evaluate", "trainer.evaluate")
    for attr in ("load_tsv", "corpus_texts", "build_vocab"):
        patch(cli, attr, "data.load")
    patch(cli, "save_params", "model.save_params")
    patch(cli, "load_params", "model.load_params")

    build_batches = tr.wrap(trainer.batches, "data.batches")

    def counted_batches(*args, **kwargs):
        out = build_batches(*args, **kwargs)
        for b in out:
            tr.counts["data.real_tokens"] += int(b.attention_mask.sum())
            tr.counts["data.token_slots"] += int(b.attention_mask.size)
        return out

    trainer.batches = counted_batches

    grad_check = checks.grad_check

    def counted_grad_check(f, inputs, *args, **kwargs):
        def counted_f(*xs):
            tr.counts["numerics.grad_check_fevals"] += 1
            return f(*xs)

        return tr.timed("numerics.grad_check", grad_check, counted_f, inputs, *args, **kwargs)

    checks.grad_check = counted_grad_check

    class PayloadCountingPool(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            items = [list(it) for it in iterables]
            for call_args in zip(*items):
                tr.counts["cli.sweep_payload_bytes"] += len(pickle.dumps(call_args))
            return super().map(fn, *items, **kwargs)

    concurrent.futures.ProcessPoolExecutor = PayloadCountingPool


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- <mixformer CLI arguments>", file=sys.stderr)
        return 2
    from mixformer import cli

    tr = Tracer(run_id=f"{os.getpid()}-{time.time_ns()}")
    install(tr)
    try:
        return tr.timed("cli.main", cli.main, argv[2:])
    finally:
        tr.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
