"""The repository benchmark: one command, two workloads, every metric named.

Usage (from the repository root)::

    python3 perfbench/run.py --workload decode-long --seed 1 --seconds 55 --trace 0

``--trace 0`` repeats the workload's fixed amount of work until
``--seconds`` pass and reports the end-to-end metrics; ``--trace 1`` does
the same untraced, then one traced repetition, and reports the per-layer
metrics.  A table of every metric with its unit and sample count is printed
first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Spans of the traced
repetition go to ``.perfbench_out/`` at the repository root.

See ``perfbench/README.md`` for the workloads, metrics and predictions.
"""

from __future__ import annotations

import os

# One BLAS thread: the host has few cores, shared with other tenants, and a
# second BLAS thread waiting on a busy core only adds noise.  Set before
# NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from percentiles import percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Length of the stretches :class:`FastestTimeline` compares, in seconds.
BLOCK_S = 0.01
#: How far the layers' self times may fall short of the traced wall time.
COVERAGE_SLACK = 0.05

#: ``(name, unit)`` of every end-to-end metric, as in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("output_tok_per_s", "tok/s"),
    ("sim_req_per_s", "req/s"),
    ("ttft_p50_ms", "ms"),
    ("ttft_p90_ms", "ms"),
    ("tbt_p50_ms", "ms"),
    ("tbt_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: ``(name, unit)`` of every per-layer metric, as in BENCHMARK.json.
PER_LAYER = (
    ("engine.steps", "count"),
    ("engine.step_s", "s"),
    ("engine.self_s", "s"),
    ("engine.batch_mean", "requests"),
    ("engine.queue_wait_p50_ms", "ms"),
    ("engine.preemptions", "count"),
    ("backend.execute_s", "s"),
    ("model_runner.prefill_s", "s"),
    ("model_runner.prefill_calls", "count"),
    ("model_runner.prefill_tokens", "count"),
    ("model_runner.decode_s", "s"),
    ("model_runner.decode_calls", "count"),
    ("model_runner.decode_rows", "count"),
    ("model_runner.sample_s", "s"),
    ("models.forward_batch_s", "s"),
    ("models.forward_s", "s"),
    ("core.linear_calls", "count"),
    ("core.linear_quant_s", "s"),
    ("core.linear_gemm_s", "s"),
    ("core.linear_gemm_gflop", "GFLOP"),
    ("core.kv_codec_s", "s"),
    ("paged_kv.append_s", "s"),
    ("paged_kv.gather_s", "s"),
    ("paged_kv.pages_peak", "pages"),
    ("paged_kv.gather_mb", "MB"),
    ("prefix_cache.lookups", "count"),
    ("prefix_cache.hits", "count"),
    ("prefix_cache.reused_token_frac", "fraction"),
    ("prefix_cache.acquire_s", "s"),
    ("prefix_cache.intern_s", "s"),
    ("prefix_cache.evicted_pages", "pages"),
    ("frontend.run_s", "s"),
    ("frontend.self_s", "s"),
    ("schedulers.order_s", "s"),
    ("schedulers.order_calls", "count"),
    ("schedulers.waiting_mean", "requests"),
    ("cluster.rounds", "count"),
    ("cluster.step_s", "s"),
    ("cluster.self_s", "s"),
    ("cluster.route_s", "s"),
    ("cluster.affinity_frac", "fraction"),
    ("modeled.sim_time_s", "s"),
    ("modeled.ttft_p99_s", "s"),
    ("modeled.goodput_req_per_s", "1/s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.coverage_frac", "fraction"),
)


#: End-to-end latency percentiles: ``(name, samples, quantile)``.
LATENCIES = (
    ("ttft_p50_ms", "ttft", 0.5),
    ("ttft_p90_ms", "ttft", 0.9),
    ("tbt_p50_ms", "tbt", 0.5),
    ("tbt_p99_ms", "tbt", 0.99),
)


class FastestTimeline:
    """The repetition's step intervals, stitched from its fastest stretches.

    The host's speed swings by tens of percent, from fractions of a second
    to minutes at a time, with the load of other tenants.  Repetitions of
    the same work take the same steps, so their step times can be compared
    stretch by stretch: the steps are cut into blocks of about ``BLOCK_S``
    (as timed in the first repetition), and each block keeps the intervals
    of the repetition that ran it fastest.  Blocks, not single steps, so
    that per-step jitter of microseconds does not add up to a timeline
    faster than any repetition could run.
    """

    def __init__(self, intervals: np.ndarray) -> None:
        starts = np.cumsum(intervals) - intervals
        _, self.block = np.unique((starts // BLOCK_S).astype(np.int64), return_inverse=True)
        self.intervals = intervals
        self.best = self._sums(intervals)

    def _sums(self, intervals: np.ndarray) -> np.ndarray:
        return np.bincount(self.block, weights=intervals)

    def add(self, intervals: np.ndarray) -> None:
        sums = self._sums(intervals)
        faster = sums < self.best
        self.best = np.where(faster, sums, self.best)
        self.intervals = np.where(faster[self.block], intervals, self.intervals)


def latency_percentiles(observer, ends=None) -> dict:
    """Wall-clock TTFT and token-gap percentiles of one repetition's work,
    read off ``ends`` (step-end times; by default the observed ones)."""
    samples = {"ttft": observer.ttft_ms(ends), "tbt": observer.tbt_ms(ends)}
    return {name: percentile(samples[kind], q) for name, kind, q in LATENCIES}


def end_to_end_metrics(setups, first, fastest, n_reps: int) -> dict:
    """``name -> (value, sample count)`` of the timed repetitions.

    ``first`` is the first repetition, with its observer; ``fastest`` are
    the step intervals of :class:`FastestTimeline`, whose cumulative sum is
    the least-disturbed timeline of the repetition's work.  Throughput and
    latency percentiles are read off that timeline.
    """
    ends = np.cumsum(fastest)
    wall = float(ends[-1])
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "output_tok_per_s": (first.output_tokens / wall, n_reps),
        "sim_req_per_s": (first.attempted / wall, n_reps),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    for name, p in latency_percentiles(first.observer, ends[:-1]).items():
        values[name] = (p.value, p.n)
    return values


def layer_metrics(tracer, rep, overhead: float) -> dict:
    """``name -> (value, sample count)`` of one traced repetition."""
    times = tracer.layer_times()
    count = tracer.counters

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return times.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return times.get(name, (0, 0.0, 0.0))[2]

    stats = rep.cache_stats
    prompt_tokens = count["prefix_cache.prompt_tokens"]
    kv_reused = sum(s["kv_tokens"] for s in stats)
    wait = percentile(rep.observer.queue_wait_ms(), 0.5)
    follow_ups = count["cluster.follow_ups"]
    window = total("bench.window")
    program_self = sum(t[2] for n, t in times.items() if not n.startswith("bench."))
    one = 1
    return {
        "engine.steps": (calls("engine.step"), one),
        "engine.step_s": (total("engine.step"), one),
        "engine.self_s": (own("engine.step"), one),
        "engine.batch_mean": (rep.batch_mean, one),
        "engine.queue_wait_p50_ms": (wait.value, wait.n),
        "engine.preemptions": (rep.preemptions, one),
        "backend.execute_s": (total("backend.execute"), one),
        "model_runner.prefill_s": (total("model_runner.prefill"), one),
        "model_runner.prefill_calls": (calls("model_runner.prefill"), one),
        "model_runner.prefill_tokens": (count["model_runner.prefill_tokens"], one),
        "model_runner.decode_s": (total("model_runner.decode"), one),
        "model_runner.decode_calls": (calls("model_runner.decode"), one),
        "model_runner.decode_rows": (count["model_runner.decode_rows"], one),
        "model_runner.sample_s": (own("model_runner.decode"), one),
        "models.forward_batch_s": (total("models.forward_batch"), one),
        "models.forward_s": (total("models.forward"), one),
        "core.linear_calls": (count["core.linear_calls"], one),
        "core.linear_quant_s": (total("core.linear_quant"), one),
        "core.linear_gemm_s": (total("core.linear_gemm"), one),
        "core.linear_gemm_gflop": (count["core.linear_gemm_flop"] / 1e9, one),
        "core.kv_codec_s": (total("core.kv_codec"), one),
        # append returns the gathered cache, so its own time excludes gathers.
        "paged_kv.append_s": (own("paged_kv.append"), one),
        "paged_kv.gather_s": (total("paged_kv.gather"), one),
        "paged_kv.pages_peak": (tracer.peaks.get("paged_kv.pages_peak", 0), one),
        "paged_kv.gather_mb": (count["paged_kv.gather_bytes"] / 1e6, one),
        "prefix_cache.lookups": (sum(s["lookups"] for s in stats), one),
        "prefix_cache.hits": (sum(s["hits"] for s in stats), one),
        "prefix_cache.reused_token_frac": (
            kv_reused / prompt_tokens if prompt_tokens else 0.0,
            one,
        ),
        "prefix_cache.acquire_s": (total("prefix_cache.acquire"), one),
        "prefix_cache.intern_s": (total("prefix_cache.intern"), one),
        "prefix_cache.evicted_pages": (sum(s["evicted_pages"] for s in stats), one),
        "frontend.run_s": (total("frontend.run"), one),
        "frontend.self_s": (own("frontend.run"), one),
        "schedulers.order_s": (total("schedulers.order"), one),
        "schedulers.order_calls": (calls("schedulers.order"), one),
        "schedulers.waiting_mean": (
            count["schedulers.waiting"] / max(calls("schedulers.order"), 1),
            one,
        ),
        "cluster.rounds": (calls("cluster.step"), one),
        "cluster.step_s": (total("cluster.step"), one),
        "cluster.self_s": (own("cluster.step"), one),
        "cluster.route_s": (total("cluster.route"), one),
        "cluster.affinity_frac": (
            count["cluster.affine"] / follow_ups if follow_ups else 0.0,
            one,
        ),
        "modeled.sim_time_s": (rep.modeled["sim_time_s"], one),
        "modeled.ttft_p99_s": (rep.modeled["ttft_p99_s"], one),
        "modeled.goodput_req_per_s": (rep.modeled["goodput_req_per_s"], one),
        "trace.overhead_frac": (overhead, one),
        "trace.coverage_frac": (program_self / window, one),
    }


def source_fingerprint() -> str:
    """Hash of the program's and the benchmark's sources, so stored digests
    are only ever compared between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def digest_problems(workload: str, seed: int, digests: "list[str]") -> "list[str]":
    """Modeled outputs must repeat across repetitions and across runs."""
    if not digests or not digests[0]:
        return []
    if len(set(digests)) != 1:
        return [f"modeled digest differs between repetitions: {sorted(set(digests))}"]
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload}:{seed}:{source_fingerprint()}"
    if known.setdefault(key, digests[0]) != digests[0]:
        return [f"modeled digest {digests[0]} differs from an earlier run ({known[key]})"]
    OUT.mkdir(exist_ok=True)
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return []


def measure(bench, workload, args):
    """Set-up, timed repetitions and (with ``--trace 1``) the traced one.

    Returns ``(metric values, units, repetitions incl. traced)``.
    """
    from spans import Tracer

    setups = [bench.setup() for _ in range(SETUPS)]
    bench.warm_up()
    reps, fastest, shape = [], None, None

    start = perf_counter()
    while True:
        rep = bench.rep(oracle=not reps)
        if fastest is None:
            fastest = FastestTimeline(rep.observer.intervals())
            shape = rep.observer.shape()
        elif rep.observer.shape() != shape:
            rep.problems.append(f"repetition {len(reps)} took other steps than repetition 0")
        else:
            fastest.add(rep.observer.intervals())
        if reps:
            rep.observer = None  # keep only the first one's, so memory stays flat
        reps.append(rep)
        elapsed = perf_counter() - start
        # Stop when another repetition of average length would overrun.
        if elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            break
    first = reps[0]
    if not args.trace:
        units = dict(END_TO_END)
        return end_to_end_metrics(setups, first, fastest.intervals, len(reps)), units, reps
    tracer = Tracer()
    traced = bench.rep(tracer, oracle=True)
    untraced_wall = statistics.median(r.wall_s for r in reps)
    values = layer_metrics(tracer, traced, traced.wall_s / untraced_wall - 1.0)
    tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")
    units = dict(PER_LAYER)
    return values, units, reps + [traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    from benches import AnalyticBench, NumericBench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    bench = (NumericBench if workload.numeric else AnalyticBench)(workload, args.seed)
    values, units, reps = measure(bench, workload, args)

    problems = [p for r in reps for p in r.problems]
    problems += digest_problems(workload.name, args.seed, [r.digest for r in reps])
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    finished = sum(r.finished for r in reps)
    timed = len(reps) - args.trace
    print(
        f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
        f"repetitions {timed}{' + 1 traced' if args.trace else ''}"
    )
    print(
        f"requests sent {attempted}  finished {finished}  failed {failed}  "
        f"oracle-checked {bench.oracle_checks}  digest {reps[0].digest or '-'}"
    )
    for i, rep in enumerate(reps):
        print(
            f"  repetition {i}: {rep.attempted} requests in {rep.wall_s:.3f} s"
            f"{' (traced)' if args.trace and i == timed else ''}"
        )
    for problem in problems:
        print(f"problem: {problem}")
    if args.trace:
        # The spans must account for the window's wall time; what they miss
        # is the benchmark's own driving and observing.
        coverage = values["trace.coverage_frac"][0]
        verdict = "ok" if abs(1.0 - coverage) <= COVERAGE_SLACK else "LOW"
        print(f"trace coverage {coverage:.3f}: {verdict} (within {COVERAGE_SLACK:.0%} of 1)")
    for name, unit in units.items():
        value, n = values[name]
        print(f"  {name:32s} {value:14.6g} {unit:9s} (n={n})")
    print(
        json.dumps(
            {
                "correct": not problems and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(values[name][0]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
