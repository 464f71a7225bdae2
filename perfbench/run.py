#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles the repo's src/ tree) into
.bench_build/perfbench, runs one workload and prints, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones, computed from the program's span
trace plus the binary's own standalone layer timings.
"""

import argparse
import bisect
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170

# The workloads BENCHMARK.json gates on. serve-mgbr-30k runs the same
# way but is left out of the gate: its run-to-run spread does not fit the
# bounds on a shared host (README.md, "Reference figures and spread").
WORKLOADS = ["train-harness", "serve-gbgcn-swap"]
ALL_WORKLOADS = ["train-harness", "serve-mgbr-30k", "serve-gbgcn-swap"]

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_epoch_s": "s",
    "eval_sampled_s": "s",
    "eval_full_s": "s",
    "serve_qps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "swap_s": "s",
}

PER_LAYER = {
    "data.sample_ms": "ms",
    "data.reject_ratio": "ratio",
    "graph.propagate_ms": "ms",
    "graph.spmm_bwd_ms": "ms",
    "core.mtl_forward_ms": "ms",
    "core.head_loss_ms": "ms",
    "core.mtl_flop_per_row": "FLOP",
    "core.mtl_bytes_per_row": "B",
    "core.mtl_gflops": "GFLOP/s",
    "core.score_a_all_ms": "ms",
    "core.score_b_all_ms": "ms",
    "tensor.backward_ms": "ms",
    "tensor.optim_ms": "ms",
    "tensor.arena_hit_ratio": "ratio",
    "eval.sampled_score_ms": "ms",
    "eval.full_score_ms": "ms",
    "eval.rank_ms": "ms",
    "eval.full_unique_users": "count",
    "eval.topk_us": "us",
    "serve.queue_wait_ms.p50": "ms",
    "serve.queue_wait_ms.p99": "ms",
    "serve.batch_wait_ms.p50": "ms",
    "serve.batch_wait_ms.p99": "ms",
    "serve.score_ms.p50": "ms",
    "serve.score_ms.p99": "ms",
    "serve.batch_size": "count",
    "serve.scored_per_request": "ratio",
    "serve.cache_hit_ratio": "ratio",
    "retrieval.two_stage_ratio": "ratio",
    "retrieval.search_us": "us",
    "retrieval.recall_at_10": "ratio",
    "models.quant_scored_ratio": "ratio",
    "train.checkpoint_load_ms": "ms",
    "serve.validate_ms": "ms",
    "retrieval.index_build_ms": "ms",
    "models.quant_build_ms": "ms",
    "serve.model_bytes": "B",
    "trace.overhead_pct": "%",
}


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; False on failure."""
    if not os.path.isfile(os.path.join(HERE, "CMakeLists.txt")):
        log("perfbench/CMakeLists.txt missing")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


class Spans:
    """Complete ('X') events of a Chrome trace, indexed for containment."""

    def __init__(self, path):
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        self.by_name = {}
        self.by_tid = {}
        for e in events:
            span = (e["tid"], e["ts"], e["ts"] + e["dur"], e["name"])
            self.by_name.setdefault(e["name"], []).append(span)
            self.by_tid.setdefault(e["tid"], []).append(span)
        self.starts = {}
        for tid, spans in self.by_tid.items():
            spans.sort(key=lambda s: (s[1], -s[2]))
            self.starts[tid] = [s[1] for s in spans]

    def count(self, name):
        return len(self.by_name.get(name, []))

    def total(self, names):
        return sum(s[2] - s[1] for n in names for s in self.by_name.get(n, []))

    def covered(self, parents, children):
        """Microseconds of the parent spans covered by child spans on the
        same thread (overlapping children counted once)."""
        total = 0
        for parent in parents:
            for tid, start, end, _ in self.by_name.get(parent, []):
                spans = self.by_tid[tid]
                lo = bisect.bisect_left(self.starts[tid], start)
                hi = bisect.bisect_right(self.starts[tid], end)
                cur_s, cur_e = None, None
                for _, s, e, n in spans[lo:hi]:
                    if n not in children or e > end:
                        continue
                    if cur_e is None or s > cur_e:
                        if cur_e is not None:
                            total += cur_e - cur_s
                        cur_s, cur_e = s, e
                    else:
                        cur_e = max(cur_e, e)
                if cur_e is not None:
                    total += cur_e - cur_s
        return total


def per_layer_from_trace(spans, layer):
    """Span-derived per-layer metrics (ms unless named otherwise)."""
    out = {}

    def per(parent, value_us):
        n = spans.count(parent)
        return value_us / 1e3 / n if n else 0.0

    # Each bench.epoch span is one shard's epoch; a full epoch is one of
    # every shard.
    shards = layer.get("train.epoch_shards", 1.0)

    def per_epoch(value_us):
        return shards * per("bench.epoch", value_us)

    epoch = ["bench.epoch"]
    out["data.sample_ms"] = per_epoch(
        spans.covered(epoch, {"trainer.sample_epoch"}))
    out["graph.propagate_ms"] = per(
        "trainer.refresh",
        spans.covered(["trainer.refresh"],
                      {"gcn.stack_forward", "mgbr.multi_view_forward"}))
    out["graph.spmm_bwd_ms"] = per_epoch(
        spans.covered(epoch, {"gcn.spmm_bwd"}))
    out["core.mtl_forward_ms"] = per_epoch(
        spans.covered(epoch, {"mtl.forward"}))
    losses = ["trainer.loss_a", "trainer.loss_b", "trainer.aux_loss"]
    out["core.head_loss_ms"] = per_epoch(
        spans.covered(epoch, set(losses)) -
        spans.covered(losses, {"mtl.forward"}))
    out["tensor.backward_ms"] = per_epoch(
        spans.covered(epoch, {"trainer.backward"}) -
        spans.covered(["trainer.backward"], {"gcn.spmm_bwd"}))
    out["tensor.optim_ms"] = per_epoch(
        spans.covered(epoch, {"trainer.clip_grad", "trainer.optim_step"}))
    out["eval.sampled_score_ms"] = per(
        "bench.eval_sampled",
        spans.covered(["bench.eval_sampled"],
                      {"bench.score_batch", "mgbr.score_a", "mgbr.score_b"}))
    full_score = spans.covered(["bench.eval_full"], {"bench.score_full"})
    out["eval.full_score_ms"] = per("bench.eval_full", full_score)
    out["eval.rank_ms"] = per(
        "bench.eval_full", spans.total(["bench.eval_full"]) - full_score)
    out["train.checkpoint_load_ms"] = per(
        "bench.swap", spans.covered(["bench.swap"], {"checkpoint.load"}))
    mtl_us = spans.covered(["bench.score_a_all"], {"mtl.forward"})
    rows = layer.get("core.score_a_all_rows", 0.0) * spans.count(
        "bench.score_a_all")
    flop = layer.get("core.mtl_flop_per_row", 0.0)
    out["core.mtl_gflops"] = flop * rows / (mtl_us * 1e3) if mtl_us else 0.0
    return out


def run(args):
    if not build():
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(
        OUT_DIR, "trace-%s-%d-%d.json" % (args.workload, args.seed, os.getpid()))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--trace-out", trace_path]
    env = dict(os.environ)
    env.pop("MGBR_TELEMETRY", None)  # telemetry stays off in timed runs
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 1
    if proc.returncode != 0:
        log("benchmark exited with %d" % proc.returncode)
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        log("benchmark printed no result")
        return 1
    raw = json.loads(lines[-1])
    for failure in raw["failures"]:
        log("check failed: " + failure)

    if args.trace:
        try:
            spans = Spans(trace_path)
        finally:
            if os.path.exists(trace_path):
                os.remove(trace_path)
        layer = dict(raw["layer"])
        layer.update(per_layer_from_trace(spans, layer))
        missing = [n for n in PER_LAYER if n not in layer]
        if missing:
            log("per-layer metrics missing: " + ", ".join(missing))
            return 1
        metrics = {n: {"value": layer[n], "unit": u}
                   for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": raw["metrics"][n]["value"], "unit": u}
                   for n, u in END_TO_END.items()}
    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))
    return 0


def selftest():
    """Output checks reject corrupted outputs; BENCHMARK.json agrees with
    the metric and workload lists here."""
    if not build():
        return 1
    status = subprocess.run([BINARY, "--selftest"], cwd=ROOT).returncode
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    checks = [
        ([w["name"] for w in spec["workloads"]] == WORKLOADS, "workloads"),
        ({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
         "end_to_end"),
        ({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
         "per_layer"),
    ]
    for ok, what in checks:
        print("%-44s %s" % ("BENCHMARK.json " + what, "ok" if ok else "FAILED"))
        status |= 0 if ok else 1
    return 1 if status else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=ALL_WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
