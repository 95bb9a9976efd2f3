"""Tests of the benchmark's own code.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from benches import AnalyticBench, NumericBench, Rep  # noqa: E402
from loadgen import Observer  # noqa: E402
from percentiles import MIN_TAIL, TooFewSamples, min_samples, percentile  # noqa: E402
from spans import Tracer, instrument_engine  # noqa: E402
from workloads import N_CLIENTS, WORKLOADS, numeric_engine  # noqa: E402

from repro.data.sharegpt import Request  # noqa: E402
from repro.serving import PagedKVCache  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _requests(workload, seed, n=12):
    """A comparable snapshot of what a workload hands the program."""
    if workload.numeric:
        return [
            (r.request_id, r.prefill_len, r.decode_len)
            for c in range(4)
            for r in itertools.islice(workload.client(seed, c), n)
        ]
    return [
        (i.interaction_id, i.tenant, i.arrival_s, i.think_s)
        + tuple((r.request_id, r.prefill_len, r.decode_len) for r in i.turns)
        for i in workload.interactions(seed)
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_pure_functions_of_the_seed(name):
    workload = WORKLOADS[name]
    assert _requests(workload, 3) == _requests(workload, 3)
    assert _requests(workload, 3) != _requests(workload, 4)


def test_every_seed_draws_the_same_lengths_in_another_order():
    workload = WORKLOADS["decode-long"]

    def lengths(seed):
        reqs = [
            r
            for c in range(N_CLIENTS)
            for r in itertools.islice(workload.client(seed, c), workload.per_client)
        ]
        return [r.prefill_len for r in reqs], [r.decode_len for r in reqs]

    one, two = lengths(1), lengths(2)
    assert all(sorted(a) == sorted(b) for a, b in zip(one, two))
    assert one != two


def test_decode_long_prompts_are_unshared():
    client = WORKLOADS["decode-long"].client
    ids = [r.request_id for c in range(N_CLIENTS) for r in itertools.islice(client(0, c), 20)]
    assert all(rid % 64 == 0 for rid in ids)  # every request opens its own conversation
    assert len(set(ids)) == len(ids)


# --------------------------------------------------------------------------- #
def test_percentiles_keep_ten_samples_beyond_them():
    assert min_samples(0.5) == 20
    assert min_samples(0.9) == 100
    assert min_samples(0.99) == 1000
    for q in (0.5, 0.9, 0.99):
        n = min_samples(q)
        assert n * (1 - q) >= MIN_TAIL - 1e-9
        p = percentile(np.arange(n), q)
        assert p.n == n and p.q == q
        with pytest.raises(TooFewSamples):
            percentile(np.arange(n - 1), q)


class _FakeRun:
    """Stand-in ``EngineRun`` whose side channels the test fills in."""

    def __init__(self):
        self.first_token_s, self.admission_log, self.terminal_log = {}, [], []

    def step(self):
        pass


def _observed(decode_lens):
    """An observer of one run serving requests 0.. one after another.

    Request ``i`` is handed after the previous one finished, admitted and
    given its first token in the next step, and finishes ``decode_len - 1``
    steps later.
    """
    obs, run = Observer(), _FakeRun()
    obs.watch_run(run)
    obs.start()
    for rid, n in enumerate(decode_lens):
        obs.hand(Request(rid * 64, 8, n))
        run.admission_log.append((rid * 64, 0.0))
        run.first_token_s[rid * 64] = 0.0
        for _ in range(n - 1):
            run.step()
        run.terminal_log.append((rid * 64, "finished"))
        run.step()
    obs.stop()
    return obs


def test_observer_reads_samples_off_any_timeline():
    obs = _observed([3, 1])
    assert len(obs.ends) == 4 and len(obs.intervals()) == 5
    assert obs.intervals().sum() == pytest.approx(obs.wall_s)
    ends = np.array([1.0, 3.0, 6.0, 10.0])
    # Request 0 is handed at 0 and gets its tokens at the ends of steps
    # 0-2; request 1 is handed after step 2 and gets its token in step 3.
    assert obs.ttft_ms(ends) == [1000.0, 4000.0]
    assert obs.queue_wait_ms(ends) == [1000.0, 4000.0]
    assert list(obs.tbt_ms(ends)) == [2000.0, 3000.0]
    assert obs.shape() == _observed([3, 1]).shape() != _observed([2, 2]).shape()


def test_fastest_timeline_keeps_each_blocks_fastest_repetition():
    b = run.BLOCK_S
    first = np.array([0.6, 0.6, 2.0, 0.5, 0.5]) * b  # blocks {0, 1}, {2}, {3, 4}
    timeline = run.FastestTimeline(first.copy())
    timeline.add(np.array([0.5, 0.6, 2.5, 0.9, 0.3]) * b)
    timeline.add(np.array([0.2, 1.5, 1.9, 0.1, 1.0]) * b)
    # Block sums 1.2 / 1.1 / 1.7, 2.0 / 2.5 / 1.9 and 1.0 / 1.2 / 1.1: each
    # block keeps the intervals of the repetition with the smallest sum.
    expected = np.array([0.5, 0.6, 1.9, 0.5, 0.5]) * b
    assert timeline.intervals == pytest.approx(expected)


def test_end_to_end_metrics_read_the_fastest_timeline():
    obs = _observed([60] * 100 + [1] * 20)
    first = Rep(obs.wall_s, obs, 120, 0, 120, 6020, 1.0, 0, [], {})
    steps = np.full(len(obs.ends) + 1, 0.001)
    values = run.end_to_end_metrics([0.1, 0.3, 0.2], first, steps, 3)
    assert values["setup_s"] == (0.2, 3)
    wall = steps.sum()
    assert values["output_tok_per_s"] == (pytest.approx(6020 / wall), 3)
    assert values["sim_req_per_s"] == (pytest.approx(120 / wall), 3)
    assert values["ttft_p90_ms"] == (pytest.approx(1.0), 120)
    assert values["tbt_p99_ms"] == (pytest.approx(1.0), 100 * 59)


def test_a_repetition_too_small_for_its_percentiles_is_refused():
    obs = _observed([60] * 99)
    with pytest.raises(TooFewSamples):
        run.latency_percentiles(obs)


# --------------------------------------------------------------------------- #
def test_metric_names_units_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        assert declared == list(ours)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for _, u in run.END_TO_END + run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


# --------------------------------------------------------------------------- #
def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, -1, None],
        ["inner", 1.0, 4.0, 0, None],
        ["inner", 5.0, 7.0, 0, None],
        ["leaf", 2.0, 3.0, 1, None],
    ]
    times = tracer.layer_times()
    assert times["outer"] == (1, 10.0, 5.0)
    assert times["inner"] == (2, 5.0, 4.0)
    assert times["leaf"] == (1, 1.0, 1.0)


def test_tracer_restores_every_wrapped_attribute():
    class Thing:
        def work(self, x):
            return x + 1

    thing = Thing()
    original_append = PagedKVCache.__dict__["append_batch"]
    tracer = Tracer()
    tracer.wrap(thing, "work", "thing.work", rid=lambda args: args[0])
    tracer.wrap(PagedKVCache, "append_batch", "paged_kv.append")
    assert thing.work(4) == 5
    assert tracer.spans[0][0] == "thing.work" and tracer.spans[0][4] == 4
    tracer.restore()
    assert "work" not in vars(thing)
    assert PagedKVCache.__dict__["append_batch"] is original_append


def test_traced_numeric_repetition_is_correct_and_fully_restored():
    bench = NumericBench(WORKLOADS["decode-long"], seed=0)
    bench.setup()
    model = bench.model
    tracer = Tracer()
    rep = bench.rep(tracer, oracle=True)
    assert rep.failed == 0 and not rep.problems and bench.oracle_checks > 0
    times = tracer.layer_times()
    for name in ("engine.step", "model_runner.decode", "models.forward_batch", "core.linear_gemm"):
        assert times[name][0] > 0
    assert "forward" not in vars(model) and "encode_decode" not in vars(model.kv_codec)
    assert all(lin.telemetry is None for lin in model.linears.values())
    values = run.layer_metrics(tracer, rep, 0.0)
    assert set(values) == {name for name, _ in run.PER_LAYER}
    assert 0.9 < values["trace.coverage_frac"][0] <= 1.0


def test_analytic_repetitions_repeat_their_modeled_digest():
    bench = AnalyticBench(WORKLOADS["sim-cluster"], seed=0)
    bench.setup()
    bench.interactions = bench.interactions[:30]
    first, second = bench.rep(), bench.rep(Tracer())
    assert first.failed == 0 and not first.problems
    assert first.digest == second.digest


def test_untraced_engine_is_left_alone():
    bench = NumericBench(WORKLOADS["decode-long"], seed=0)
    bench.setup()
    engine = numeric_engine(bench.model)
    tracer = Tracer()
    instrument_engine(tracer, engine)
    tracer.restore()
    assert "start_run" not in vars(engine)
    assert "execute_step" not in vars(engine.backend)
