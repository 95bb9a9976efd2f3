"""Golden pins for every deterministic trace-event type.

The committed JSONL goldens (``goldens/*.jsonl``) cover only the five event
types a closed-loop single engine emits.  The digests here pin the rest: a
fault-heavy open-loop cluster run (routing, re-routes, failures, replica
health transitions, per-round cluster samples, every engine fault kind,
cancellations, deadlines, sheds, prefix-cache hits and evictions) and the
quantizer's pipeline-stage events across a checkpointed run and its resume.
Both digests were recorded before the sinks were reworked onto one ``emit``
seam; any change to them is a change in what the program records.

``batched_decode`` events carry measured wall-clock times, so that type is
pinned by its field names and per-step batch sizes instead of a digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
from collections import Counter

import numpy as np
import pytest

from repro.bench.perf import BENCH_MODEL_CONFIG, build_bench_model
from repro.bench.serving_perf import build_serving_bench_model
from repro.core import AtomConfig, AtomQuantizer
from repro.data.sharegpt import Request, ShareGPTWorkload
from repro.serving import (
    ATOM_W4A4,
    LLAMA_7B,
    RTX_4090,
    SCHEMES,
    ClusterEngine,
    FaultPlan,
    Interaction,
    NumericBackend,
    OpenLoopFrontend,
    PrefixCache,
    ReplicaCrashFault,
    ReplicaDrainFault,
    ReplicaFlapFault,
    ReplicaSlowFault,
    ServingEngine,
    TraceRecorder,
    make_router,
    sharegpt_interactions,
)
from repro.serving.faults import CancelFault, PagePoolFault, StragglerFault
from repro.serving.telemetry import BatchedDecodeSample, write_jsonl


def _digest(*traces: TraceRecorder) -> str:
    buf = io.StringIO()
    for rec in traces:
        write_jsonl(rec.events, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _counts(*traces: TraceRecorder) -> dict[str, int]:
    return dict(Counter(e.event for rec in traces for e in rec.events))


class TestClusterEventGolden:
    GOLDEN_DIGEST = (
        "c9e4d95d8722eb97daf7f441dea07145a5504089d613e87386de2f10aea58c40"
    )
    GOLDEN_COUNTS = {
        "admitted": 26, "cancelled": 2, "cluster": 5608, "failed": 5,
        "fault": 48, "finished": 18, "iteration": 2603, "pages": 596,
        "preempted": 5, "prefix_cache": 3519, "prefix_evict": 6,
        "replica_state": 7, "rerouted": 2, "routed": 32, "shed": 4,
        "timed_out": 2,
    }

    @pytest.fixture(scope="class")
    def traces(self):
        """3 small-memory affinity replicas with prefix caches, every fault
        kind, two short deadlines and one request that can never fit."""
        gpu = dataclasses.replace(RTX_4090, mem_capacity_gb=5.5)
        engines = [
            ServingEngine(
                LLAMA_7B, ATOM_W4A4, gpu=gpu, max_batch=4,
                admission="dynamic", shed_policy="drop",
                prefix_cache=PrefixCache(seed=0), telemetry=TraceRecorder(),
            )
            for _ in range(3)
        ]
        cluster_rec = TraceRecorder()
        cluster = ClusterEngine(
            engines, router=make_router("affinity"), telemetry=cluster_rec,
            retry_budget=0,
        )
        interactions = sharegpt_interactions(
            ShareGPTWorkload(seed=0, max_len=2048), 20,
            rate=40.0, seed=3, think_mean_s=0.2,
        )
        for i in (2, 7):
            interactions[i].deadline_s = 0.05
        interactions.append(
            Interaction(999, [Request(999 * 64, 200_000, 8)], arrival_s=0.05)
        )
        plan = FaultPlan(
            page_faults=(PagePoolFault(20, -100),),
            cancellations=(CancelFault(10, 3 * 64), CancelFault(30, 5 * 64)),
            stragglers=(StragglerFault(15, 3.0),),
            alloc_failure_prob=0.01,
            seed=1,
            replica_faults=(
                ReplicaSlowFault(5, 0, 2.0, duration=10),
                ReplicaCrashFault(30, 1),
                ReplicaFlapFault(100, 0, down_rounds=6),
                ReplicaDrainFault(300, 2),
            ),
        )
        OpenLoopFrontend(cluster, "fcfs").run(interactions, faults=plan)
        return [cluster_rec] + [e.telemetry for e in engines]

    def test_every_cluster_and_engine_event_type_is_emitted(self, traces):
        counts = _counts(*traces)
        for kind in (
            "routed", "rerouted", "failed", "replica_state", "cluster",
            "fault", "cancelled", "timed_out", "shed", "prefix_cache",
            "prefix_evict", "pages", "admitted", "preempted", "finished",
            "iteration",
        ):
            assert counts.get(kind, 0) > 0, kind

    def test_trace_matches_golden_digest(self, traces):
        assert _counts(*traces) == self.GOLDEN_COUNTS
        assert _digest(*traces) == self.GOLDEN_DIGEST


class TestPipelineStageGolden:
    GOLDEN_DIGEST = (
        "a3621206b57937bcd2aead3fe0df421a1b4245502eaf0bd11e81bf73736ae131"
    )
    GOLDEN_COUNTS = {"stage": 10}

    def test_checkpointed_run_and_resume_match_golden_digest(self, tmp_path):
        config = dataclasses.replace(
            BENCH_MODEL_CONFIG, name="stage-golden", dim=96, ffn_dim=160,
            n_layers=2, vocab_size=60, n_heads=4, n_kv_heads=2, n_outlier=8,
            max_seq_len=64,
        )
        model = build_bench_model(config)
        calib = np.random.default_rng(7).integers(0, config.vocab_size, (2, 16))
        cfg = AtomConfig.paper_default()
        first, resumed = TraceRecorder(), TraceRecorder()
        for rec in (first, resumed):
            AtomQuantizer(cfg).quantize(
                model, calib_tokens=calib, checkpoint_dir=tmp_path / "ck",
                telemetry=rec,
            )
        assert _counts(first, resumed) == self.GOLDEN_COUNTS
        assert _digest(first, resumed) == self.GOLDEN_DIGEST


class TestBatchedDecodeShape:
    """Wall-clock fields vary run to run; names and batch sizes do not."""

    GOLDEN_BATCHES = [4, 4, 4, 4, 3, 2, 1]

    @pytest.fixture(scope="class")
    def samples(self):
        rec = TraceRecorder()
        engine = NumericBackend.engine_for(
            build_serving_bench_model(seed=0), SCHEMES["Atom-W4A4"],
            max_batch=4, admission="reserve", telemetry=rec,
        )
        engine.run([Request(i, 8 + 2 * i, 5 + i) for i in range(4)])
        return [e for e in rec.events if isinstance(e, BatchedDecodeSample)]

    def test_field_names(self, samples):
        assert list(samples[0].to_dict()) == [
            "t", "iteration", "event", "decode_batch", "batched",
            "t_quant_s", "t_dense_s", "t_wall_s",
        ]

    def test_decode_batches_match_golden(self, samples):
        assert [s.decode_batch for s in samples] == self.GOLDEN_BATCHES
        assert all(s.batched and s.t_wall_s > 0 for s in samples)
        assert any(s.t_quant_s > 0 for s in samples)
        assert any(s.t_dense_s > 0 for s in samples)
