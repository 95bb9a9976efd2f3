"""Set-up, one repetition, and correctness checks for each workload kind.

A repetition serves a fixed amount of work for the seed: every client's
first ``per_client`` requests (numeric), or the whole interaction list
(analytic).  The timed run repeats it until ``--seconds`` pass; the traced
run executes one more repetition under a :class:`~spans.Tracer`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from loadgen import Observer, closed_loop, open_loop
from repro.bench.serving_perf import build_serving_bench_model
from repro.serving import TERMINAL_STATES
from spans import Tracer, instrument_engine, instrument_frontend
from workloads import N_CLIENTS, numeric_engine

#: Finished requests per numeric repetition compared with ``generate``.
ORACLE_SAMPLE = 4
#: Interactions in the analytic warm-up replay.
WARMUP_INTERACTIONS = 40


@dataclass
class Rep:
    """What one repetition served, how long it took, and what went wrong."""

    wall_s: float
    observer: Observer
    attempted: int
    failed: int
    finished: int
    output_tokens: int
    batch_mean: float
    preemptions: int
    #: ``PrefixCacheStats.to_dict()`` of each prefix cache the run used.
    cache_stats: list
    modeled: dict
    problems: list = field(default_factory=list)
    digest: str = ""


def _traced(tracer, call):
    """``call()`` inside a ``bench.window`` span; wrappers removed after."""
    if tracer is None:
        return call()
    span = tracer.open("bench.window")
    try:
        return call()
    finally:
        tracer.close(span)
        tracer.restore()


class NumericBench:
    """Closed-loop clients against the Atom-W4A4 numeric engine."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.model = None
        self.oracle_checks = 0

    def setup(self) -> float:
        """Build the random-weight model, Atom-quantize it, build the engine."""
        t0 = perf_counter()
        model = build_serving_bench_model(seed=0)
        numeric_engine(model)
        elapsed = perf_counter() - t0
        self.model = model
        return elapsed

    def _clients(self):
        return [self.workload.client(self.seed, c) for c in range(N_CLIENTS)]

    def warm_up(self) -> None:
        engine = numeric_engine(self.model)
        obs = Observer()
        obs.watch_engine(engine)
        closed_loop(engine, self._clients()[:4], obs, 1)

    def rep(self, tracer: "Tracer | None" = None, *, oracle: bool = False) -> Rep:
        engine = numeric_engine(self.model)
        if tracer is not None:
            instrument_engine(tracer, engine)
        obs = Observer(tracer)
        obs.watch_engine(engine)
        run, wall = _traced(
            tracer,
            lambda: closed_loop(engine, self._clients(), obs, self.workload.per_client),
        )
        result = run.result()
        problems = _terminal_problems(obs, set(obs.handed))
        if oracle:
            problems += [
                f"request {rid} differs from the generate oracle"
                for rid in self._oracle_mismatches(engine, obs)
            ]
        failed = sum(1 for s in obs.terminal.values() if s != "finished")
        finished = [rid for rid, s in obs.terminal.items() if s == "finished"]
        ttft_sim = [
            run.first_token_s[rid] - obs.handed_sim[rid] for rid in run.first_token_s
        ]
        return Rep(
            wall_s=wall,
            observer=obs,
            attempted=len(obs.handed),
            failed=failed + len(problems),
            finished=len(finished),
            output_tokens=sum(obs.requests[r].decode_len for r in finished),
            batch_mean=result.achieved_batch,
            preemptions=result.preemptions,
            cache_stats=[engine.prefix_cache.snapshot_stats().to_dict()],
            modeled={
                "sim_time_s": run.clock,
                "ttft_p99_s": float(np.quantile(ttft_sim, 0.99)),
                "goodput_req_per_s": len(finished) / run.clock,
            },
            problems=problems,
        )

    def _oracle_mismatches(self, engine, obs: Observer) -> "list[int]":
        """Seeded sample of finished requests replayed through ``generate``."""
        finished = sorted(rid for rid, s in obs.terminal.items() if s == "finished")
        rng = np.random.default_rng([self.seed, 99])
        pick = rng.choice(len(finished), size=min(ORACLE_SAMPLE, len(finished)), replace=False)
        runner = engine.backend.runner
        bad = []
        for i in sorted(pick):
            req = obs.requests[finished[i]]
            want = runner.oracle_generate(req.request_id, req.prefill_len, req.decode_len)
            if not np.array_equal(engine.backend.generated_tokens(req.request_id), want):
                bad.append(req.request_id)
            self.oracle_checks += 1
        return bad


class AnalyticBench:
    """Open-loop replay of the workload's interactions through the front-end."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.interactions = None
        self.oracle_checks = 0

    def setup(self) -> float:
        """Generate the workload and build the engine or cluster."""
        t0 = perf_counter()
        interactions = self.workload.interactions(self.seed)
        self.workload.frontend()
        elapsed = perf_counter() - t0
        self.interactions = interactions
        return elapsed

    def warm_up(self) -> None:
        open_loop(
            self.workload.frontend(), self.interactions[:WARMUP_INTERACTIONS], Observer()
        )

    def rep(self, tracer: "Tracer | None" = None, *, oracle: bool = False) -> Rep:
        frontend = self.workload.frontend()
        if tracer is not None:
            instrument_frontend(tracer, frontend)
        obs = Observer(tracer)
        res, wall = _traced(tracer, lambda: open_loop(frontend, self.interactions, obs))
        serving = res.serving
        states = serving.terminal_states
        submitted = {s.request_id for s in res.submissions}
        problems = _terminal_problems(obs, submitted)
        if set(states) != submitted or res.submitted != len(submitted):
            problems.append(
                f"{len(set(states) ^ submitted)} requests without exactly one "
                "terminal state in the result"
            )
        failed = sum(1 for s in states.values() if s != "finished")
        engines = getattr(frontend.engine, "engines", [frontend.engine])
        modeled = {
            "sim_time_s": serving.total_time_s,
            "ttft_p99_s": res.slo.overall.ttft_p99_s,
            "goodput_req_per_s": res.slo.overall.goodput_rps,
        }
        digest = hashlib.sha256(
            json.dumps(
                [
                    modeled,
                    [(r.request_id, r.state, r.first_token_s, r.finish_s) for r in res.records],
                ]
            ).encode()
        ).hexdigest()
        return Rep(
            wall_s=wall,
            observer=obs,
            attempted=res.submitted,
            failed=failed + len(problems),
            finished=serving.completed_requests,
            output_tokens=sum(r.decode_len for r in res.records if r.state == "finished"),
            batch_mean=serving.achieved_batch,
            preemptions=serving.preemptions,
            cache_stats=[
                e.prefix_cache.snapshot_stats().to_dict()
                for e in engines
                if e.prefix_cache is not None
            ],
            modeled=modeled,
            problems=problems,
            digest=digest,
        )


def _terminal_problems(obs: Observer, submitted: set) -> "list[str]":
    """Every handed request reached exactly one known terminal state."""
    problems = []
    if obs.terminal_events != len(obs.terminal):
        problems.append(
            f"{obs.terminal_events - len(obs.terminal)} duplicate terminal events"
        )
    missing = submitted - set(obs.terminal)
    if missing:
        problems.append(f"{len(missing)} requests never reached a terminal state")
    unknown = set(obs.terminal.values()) - set(TERMINAL_STATES)
    if unknown:
        problems.append(f"unknown terminal states {sorted(unknown)}")
    return problems
