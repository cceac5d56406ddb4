"""Benchmark of mixformer's CLI: train + eval, sweep and gradcheck workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the repository root (any checkout holding `src/mixformer`). The
program runs as `python3 -m mixformer.cli` with `src` on PYTHONPATH and the
caller's environment otherwise untouched. Each run generates its inputs from
--seed, repeats whole rounds of the workload's commands for about --seconds,
checks every output, and prints each metric by name and unit, then one JSON
result line. --trace 1 alternates untraced and traced rounds and reports the
per-layer metrics from the traced ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import inputs
import verify
from stats import Span, self_times, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEADLINE_S = 165.0  # every process is stopped by then, so a run ends within 180 s
SETUP_REPEATS = 7
MIN_ROUNDS = 3  # the determinism check compares repeats; the median outlives one slow round


@dataclass(frozen=True)
class Workload:
    kind: str  # "train", "sweep" or "gradcheck"
    why: str
    n_train: int = 0
    n_dev: int = 0
    n_score: int = 0
    max_len: int = 16
    schedule: str = "last_half"
    floor: float | None = None  # least dev accuracy after training
    fractions: tuple[float, ...] = ()


WORKLOADS = {
    "train-short": Workload(
        "train", "max_len 16, a third of slots PAD: per-call overhead and small kernels (GELU pow, einsum, Adam loop) dominate",
        n_train=1000, n_dev=500, n_score=1000, max_len=16, floor=0.95),
    "train-padded": Workload(
        "train", "max_len 128 with mixing always: about 92% of token slots are PAD, so attention's L^2 work dominates",
        n_train=32, n_dev=32, n_score=64, max_len=128, schedule="always"),
    "sweep": Workload(
        "sweep", "sweep --jobs 2 over small fractions: cells are mostly dev evaluation, plus pool fan-out and pickled payloads",
        n_train=800, n_dev=300, fractions=(0.05, 0.1)),
    "gradcheck": Workload(
        "gradcheck", "thousands of forward passes on a 2x4 batch: fixed per-call cost is all that counts"),
}

RUN_SECONDS = 25

# name: (unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

PER_LAYER = {name: (unit, "higher" if unit in ("ratio", "examples/s", "rows/s") or name.endswith("steps") else "lower")
             for name, unit in (
    ("numerics.gelu_fwd_s", "s"), ("numerics.gelu_bwd_s", "s"), ("model.encode_self_s", "s"),
    ("data.real_token_ratio", "ratio"), ("model.encode_fwd_ms_p50", "ms"), ("model.encode_bwd_ms_p50", "ms"),
    ("model.encode_eval_ms_p50", "ms"), ("numerics.softmax_rows_s", "s"),
    ("trainer.adam_ms_p50", "ms"), ("trainer.train_step_ms_p50", "ms"), ("trainer.train_step_ms_tail", "ms"),
    ("trainer.steps", "count"), ("trainer.step_ms_p50_mix_on", "ms"), ("trainer.step_ms_p50_mix_off", "ms"),
    ("mixup.plan_s", "s"), ("mixup.mix_fwd_s", "s"), ("mixup.mix_bwd_s", "s"), ("mixup.mix_labels_s", "s"),
    ("mixup.active_steps", "count"), ("numerics.layer_norm_s", "s"), ("numerics.matmul_s", "s"),
    ("numerics.loss_s", "s"), ("model.head_s", "s"), ("trainer.evaluate_s", "s"), ("metrics.metric_s", "s"),
    ("cli.sweep_cell_s_p50", "s"), ("cli.sweep_payload_bytes", "bytes"), ("cli.cpu_s", "s"),
    ("data.load_s", "s"), ("data.batches_s", "s"), ("model.init_params_s", "s"), ("model.save_params_s", "s"),
    ("model.load_params_s", "s"), ("numerics.grad_check_s", "s"), ("numerics.grad_check_fevals", "count"),
    ("cli.train_examples_per_s", "examples/s"), ("cli.eval_examples_per_s", "rows/s"), ("trace.overhead_s", "s"),
)}


def spec() -> dict:
    """BENCHMARK.json: the fixed form of this benchmark."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": wl.why} for name, wl in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()],
    }


# ---------------------------------------------------------------- processes


def _parents() -> dict[int, int]:
    out = {}
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            try:
                with open(f"/proc/{entry.name}/stat", encoding="ascii", errors="replace") as fh:
                    out[int(entry.name)] = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                pass
    return out


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Watcher(threading.Thread):
    """Kills a process group at the deadline; with `workers`, samples the peak RSS
    of the process and its descendants (scanning /proc costs CPU, so only then)."""

    def __init__(self, pid: int, deadline: float, workers: bool):
        super().__init__(daemon=True)
        self.pid, self.deadline, self.workers = pid, deadline, workers
        self.hwm: dict[int, int] = {}
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(0.5):
            if time.monotonic() > self.deadline:
                _kill_group(self.pid)
            if not self.workers:
                continue
            tree, parents = {self.pid}, _parents()
            for pid in sorted(parents):
                if parents[pid] in tree:
                    tree.add(pid)
            for pid in tree:
                self.hwm[pid] = max(self.hwm.get(pid, 0), _hwm_kb(pid))


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class Proc:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


def run_proc(argv: list[str], env: dict, work: str, deadline: float, workers: bool = False) -> Proc:
    """Run one command to its end; wall time, CPU and peak RSS include its workers.

    Without worker processes the peak RSS is the command's own, from wait4."""
    with open(os.path.join(work, "stdout"), "w+", encoding="utf-8") as out, \
         open(os.path.join(work, "stderr"), "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT, start_new_session=True)
        watcher = Watcher(proc.pid, deadline, workers)
        watcher.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            watcher.done.set()
            watcher.join()
        wall = time.perf_counter() - start
        _kill_group(proc.pid)  # no worker outlives its command
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        rss_kb = max(usage.ru_maxrss, sum(watcher.hwm.values()))
        return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, rss_kb / 1024.0, out.read(), err.read())


# ---------------------------------------------------------------- rounds


@dataclass
class Round:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    walls: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    fingerprint: str = ""
    eval_value: float | None = None
    out: str = ""
    span_files: list = field(default_factory=list)


class Bench:
    def __init__(self, name: str, seed: int, work: str, deadline: float):
        self.wl, self.work, self.deadline = WORKLOADS[name], work, deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        self.cfg_path = os.path.join(work, "config.json")
        wl = self.wl
        self.cfg = None
        if wl.kind != "gradcheck":
            self.cfg = inputs.write_task(work, seed, wl.n_train, wl.n_dev, wl.n_score, wl.max_len, wl.schedule)
        self.epochs = self.cfg["train"]["epochs"] if self.cfg else 0
        self.cell_seeds = [seed, seed + 1]

    def proc(self, argv: list[str]) -> Proc:
        return run_proc(argv, self.env, self.work, self.deadline, workers=self.wl.kind == "sweep")

    def setup_s(self) -> float:
        argv = [sys.executable, os.path.join(HERE, "probe.py")] + ([self.cfg_path] if self.cfg else [])
        times = []
        for _ in range(SETUP_REPEATS):
            p = self.proc(argv)
            if p.rc != 0:
                raise RuntimeError(f"set-up probe failed: {p.stderr.strip()}")
            times.append(p.wall)
        return statistics.median(times)

    def commands(self, out: str) -> list[tuple[str, list[str]]]:
        wl, cfg = self.wl, self.cfg_path
        if wl.kind == "train":
            return [("train", ["train", "--config", cfg, "--out", out]),
                    ("eval", ["eval", "--config", cfg, "--params", os.path.join(out, "params.mixf"),
                              "--vocab", os.path.join(out, "vocab.json"), "--dev", os.path.join(self.work, "score.tsv")])]
        if wl.kind == "sweep":
            return [("sweep", ["sweep", "--config", cfg, "--out", out, "--fractions", ",".join(map(str, wl.fractions)),
                               "--arms", "both", "--seeds", ",".join(map(str, self.cell_seeds)), "--jobs", "2"])]
        return [("gradcheck", ["gradcheck"])]

    def round(self, k: int, traced: bool) -> Round:
        r = Round(out=os.path.join(self.work, f"out{k}"))
        procs = {}
        for label, args in self.commands(r.out):
            if traced:
                spans = os.path.join(self.work, f"spans{k}-{label}.json")
                r.span_files.append(spans)
                argv = [sys.executable, os.path.join(HERE, "tracing.py"), spans, "--", *args]
            else:
                argv = [sys.executable, "-m", "mixformer.cli", *args]
            p = procs[label] = self.proc(argv)
            r.walls[label] = p.wall
            r.wall += p.wall
            r.cpu += p.cpu
            r.rss_mb = max(r.rss_mb, p.rss_mb)
        self.check(r, procs)
        return r

    def check(self, r: Round, procs: dict[str, Proc]) -> None:
        wl = self.wl
        if wl.kind == "train":
            steps = self.epochs * math.ceil(wl.n_train / self.cfg["train"]["batch_size"])
            r.attempted = steps + wl.n_score
            train, ev = procs["train"], procs["eval"]
            if train.rc != 0:
                r.failed += steps
                r.problems.append(f"train exited {train.rc}: {train.stderr.strip()[-300:]}")
            if ev.rc != 0:
                r.failed += wl.n_score
                r.problems.append(f"eval exited {ev.rc}: {ev.stderr.strip()[-300:]}")
            if r.failed:
                return
            problems, run = verify.run_report(r.out, wl.floor, wl.schedule)
            more, r.eval_value = verify.eval_output(ev.stdout, wl.n_score)
            r.problems += problems + more
            with open(os.path.join(r.out, "params.mixf"), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            r.fingerprint = json.dumps([verify.without_timings(run), digest, ev.stdout], sort_keys=True)
        elif wl.kind == "sweep":
            cells = len(wl.fractions) * 2 * len(self.cell_seeds)
            r.attempted = cells
            p = procs["sweep"]
            if p.rc != 0:
                r.failed = cells
                r.problems.append(f"sweep exited {p.rc}: {p.stderr.strip()[-300:]}")
                return
            r.problems, r.failed = verify.sweep_outputs(r.out, list(wl.fractions), self.cell_seeds, self.epochs)
            with open(os.path.join(r.out, "sweep.csv"), encoding="utf-8") as fh:
                r.fingerprint = fh.read()
        else:
            p = procs["gradcheck"]
            r.problems, r.attempted, r.failed = verify.gradcheck_output(p.stdout, p.rc)
            r.fingerprint = p.stdout

    def final_checks(self, rounds: list[Round]) -> list[str]:
        """Per-round problems, then: every round (traced or not) repeats one seed, so
        their non-timing outputs must be identical; then the reference forward pass."""
        problems = [p for r in rounds for p in r.problems]
        if len({r.fingerprint for r in rounds}) > 1:
            problems.append("non-timing outputs differ between repeats of the same seed")
        if self.wl.kind == "train" and not problems:
            problems += verify.against_reference(SRC, self.work, rounds[0].out, self.cfg, rounds[0].eval_value)
        return problems

    def throughput(self, rounds: list[Round], setup: float) -> dict[str, float]:
        """The train and eval rates of the train workloads (train time excludes set-up)."""
        if self.wl.kind != "train":
            return {"cli.train_examples_per_s": 0.0, "cli.eval_examples_per_s": 0.0}
        train = statistics.median(r.walls["train"] for r in rounds)
        ev = statistics.median(r.walls["eval"] for r in rounds)
        return {"cli.train_examples_per_s": self.epochs * self.wl.n_train / (train - setup),
                "cli.eval_examples_per_s": self.wl.n_score / ev}


# ---------------------------------------------------------------- per-layer


def layer_metrics(bench: Bench, untraced: list[Round], traced: list[Round], setup: float) -> dict[str, float]:
    per_round = [_layer_metrics_of(bench, r) for r in traced]
    out = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    out["cli.cpu_s"] = statistics.median(r.cpu for r in untraced)
    out["trace.overhead_s"] = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in untraced)
    out.update(bench.throughput(untraced, setup))
    return out


def _layer_metrics_of(bench: Bench, r: Round) -> dict[str, float]:
    spans, counts = [], Counter()
    for path in r.span_files:
        if not os.path.exists(path):  # the command died; its failure is already a problem
            continue
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        base = len(spans)
        spans += [Span(base + s, None if p is None else base + p, n, t0, t1) for s, p, n, t0, t1 in data["spans"]]
        counts.update(data["counts"])
    selfs = self_times(spans)
    dur, self_by = defaultdict(list), defaultdict(float)
    for s in spans:
        dur[s.name].append(s.end - s.start)
        self_by[s.name] += selfs[s.sid]

    def total(*names):
        return sum(sum(dur[n]) for n in names)

    def p50_ms(*names):
        xs = [x for n in names for x in dur[n]]
        return summarize(xs).median * 1000.0 if xs else 0.0

    steps = dur["trainer.train_step.mix"] + dur["trainer.train_step.plain"]
    tail = summarize(steps) if steps else None
    cells = verify.sweep_cell_seconds(r.out) if bench.wl.kind == "sweep" else []
    slots = counts["data.token_slots"]
    return {
        "numerics.gelu_fwd_s": total("numerics.gelu"),
        "numerics.gelu_bwd_s": total("numerics.gelu.bwd"),
        "model.encode_self_s": sum(self_by[n] for n in ("model.encode.train", "model.encode.train.bwd", "model.encode.eval")),
        "data.real_token_ratio": counts["data.real_tokens"] / slots if slots else 0.0,
        "model.encode_fwd_ms_p50": p50_ms("model.encode.train"),
        "model.encode_bwd_ms_p50": p50_ms("model.encode.train.bwd"),
        "model.encode_eval_ms_p50": p50_ms("model.encode.eval"),
        "numerics.softmax_rows_s": total("numerics.softmax_rows", "numerics.softmax_rows.bwd"),
        "trainer.adam_ms_p50": p50_ms("trainer.adam"),
        "trainer.train_step_ms_p50": p50_ms("trainer.train_step.mix", "trainer.train_step.plain"),
        "trainer.train_step_ms_tail": tail.tail * 1000.0 if tail and tail.tail is not None else 0.0,
        "trainer.steps": len(steps),
        "trainer.step_ms_p50_mix_on": p50_ms("trainer.train_step.mix"),
        "trainer.step_ms_p50_mix_off": p50_ms("trainer.train_step.plain"),
        "mixup.plan_s": total("mixup.plan"),
        "mixup.mix_fwd_s": total("mixup.mix"),
        "mixup.mix_bwd_s": total("mixup.mix.bwd"),
        "mixup.mix_labels_s": total("mixup.mix_labels"),
        "mixup.active_steps": len(dur["trainer.train_step.mix"]),
        "numerics.layer_norm_s": total("numerics.layer_norm", "numerics.layer_norm.bwd"),
        "numerics.matmul_s": total("numerics.matmul", "numerics.matmul.bwd"),
        "numerics.loss_s": total("numerics.loss", "numerics.loss.bwd"),
        "model.head_s": total("model.head", "model.head.bwd"),
        "trainer.evaluate_s": total("trainer.evaluate"),
        "metrics.metric_s": total("metrics.metric"),
        "cli.sweep_cell_s_p50": statistics.median(cells) if cells else 0.0,
        "cli.sweep_payload_bytes": counts["cli.sweep_payload_bytes"],
        "data.load_s": total("data.load"),
        "data.batches_s": total("data.batches"),
        "model.init_params_s": total("model.init_params"),
        "model.save_params_s": total("model.save_params"),
        "model.load_params_s": total("model.load_params"),
        "numerics.grad_check_s": total("numerics.grad_check"),
        "numerics.grad_check_fevals": counts["numerics.grad_check_fevals"],
    }


# ---------------------------------------------------------------- machine


def machine() -> dict:
    import ctypes
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_thread_env": {k: os.environ.get(k, "unset")
                            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": None, "numpy": numpy.__version__, "python": platform.python_version(),
    }
    with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                info["blas_threads"] = int(getattr(ctypes.CDLL(lib), sym)())
                return info
            except (OSError, AttributeError):
                continue
    return info


# ---------------------------------------------------------------- main


def run_workload(name: str, seed: int, seconds: float, trace: bool, start: float) -> dict:
    work = os.path.join(ROOT, ".perfbench-work", f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        bench = Bench(name, seed, work, start + DEADLINE_S)
        setup = bench.setup_s()
        t0 = time.monotonic()
        untraced, traced = [], []
        while True:
            k = len(untraced) + len(traced)
            untraced.append(bench.round(k, False))
            if trace:
                traced.append(bench.round(k + 1, True))
            next_round = sum(statistics.median(r.wall for r in rs) for rs in (untraced, traced) if rs)
            if len(untraced) >= MIN_ROUNDS and time.monotonic() - t0 + next_round > seconds:
                break
        rounds = untraced + traced
        problems = bench.final_checks(rounds)
        if trace:
            metrics = layer_metrics(bench, untraced, traced, setup)
            table = PER_LAYER
        else:
            metrics = {"setup_s": setup,
                       "wall_s": statistics.median(r.wall for r in untraced),
                       "peak_rss_mb": statistics.median(r.rss_mb for r in untraced)}
            table = END_TO_END
            if bench.wl.kind == "train":
                for key, value in bench.throughput(untraced, setup).items():
                    print(f"{name}: {key} = {value:.6g} {PER_LAYER[key][0]} (not in the result line)")
        for key, value in metrics.items():
            print(f"{name}: {key} = {value:.6g} {table[key][0]}")
        print(f"{name}: seed {seed}, untraced round wall_s " + " ".join(f"{r.wall:.3f}" for r in untraced)
              + (", traced " + " ".join(f"{r.wall:.3f}" for r in traced) if traced else ""))
        for p in problems:
            print(f"{name}: PROBLEM {p}")
        return {"correct": not problems, "attempted": sum(r.attempted for r in rounds),
                "failed": sum(r.failed for r in rounds),
                "metrics": {k: {"value": v, "unit": table[k][0]} for k, v in metrics.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run is still using it
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-spec", metavar="PATH", help="write BENCHMARK.json to PATH and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        with open(args.write_spec, "w", encoding="utf-8") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    # SIGTERM unwinds like an error, so every started command is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "mixformer", "cli.py")):
        print(f"perfbench: no program source at {SRC}/mixformer; run from a repository checkout", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), time.monotonic()))
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({name: res for name, res in zip(names, results)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
