"""ExecutionBackend protocol + analytic-backend bit-identity pins.

The backend refactor moved the engine's inline cost-model calls into
:class:`~repro.serving.backend.AnalyticBackend`.  These tests pin that move:
regenerating the pre-refactor golden traces through the refactored engine
must produce byte-identical JSONL, and the new ``backend`` tagging must stay
invisible in analytic traces.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np
import pytest

from repro.data.sharegpt import ShareGPTWorkload
from repro.models.config import ModelConfig
from repro.serving import (
    LLAMA_7B,
    RTX_4090,
    SCHEMES,
    AnalyticBackend,
    DecodeSlot,
    ExecutionBackend,
    NumericBackend,
    PrefillChunk,
    ServingEngine,
    StepTiming,
    TraceRecorder,
    read_jsonl,
    serving_spec_for,
    write_jsonl,
)
from repro.serving.kernels import (
    attention_decode_time,
    attention_prefill_time,
    dense_layer_time,
    other_ops_time,
    quant_fusion_overhead,
)
from repro.serving.parallel import NVLINK, TPConfig, tp_dense_layer_time
from repro.serving.telemetry import IterationSample

GOLDENS = Path(__file__).parent / "goldens"

#: name -> (scheme, admission, max_batch, n_requests).  These are the exact
#: parameters the committed goldens were generated with (pre-refactor
#: engine); regenerating them through the backend-based engine must be a
#: byte-level no-op.
GOLDEN_SCENARIOS = {
    "trace_atom_reserve": ("Atom-W4A4", "reserve", 32, 48),
    "trace_fp16_dynamic": ("FP16", "dynamic", 96, 96),
}


def _regenerate(scheme: str, admission: str, max_batch: int, n_requests: int) -> str:
    reqs = ShareGPTWorkload(seed=11, max_len=2048).sample_requests(n_requests)
    rec = TraceRecorder()
    engine = ServingEngine(
        LLAMA_7B,
        SCHEMES[scheme],
        max_batch=max_batch,
        admission=admission,
        telemetry=rec,
    )
    engine.run(reqs)
    buf = io.StringIO()
    write_jsonl(rec.events, buf)
    return buf.getvalue()


class TestGoldenTraces:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_analytic_trace_byte_identical_to_golden(self, name):
        """The refactored engine reproduces pre-refactor traces exactly."""
        got = _regenerate(*GOLDEN_SCENARIOS[name])
        want = (GOLDENS / f"{name}.jsonl").read_text()
        assert got == want, f"{name}: analytic trace diverged from golden"

    def test_dynamic_golden_exercises_preemption(self):
        """The pin is only meaningful if the scenario preempts requests."""
        events = read_jsonl(GOLDENS / "trace_fp16_dynamic.jsonl")
        assert sum(1 for e in events if e.event == "preempted") > 0

    def test_goldens_parse_as_typed_events(self):
        for name in GOLDEN_SCENARIOS:
            events = read_jsonl(GOLDENS / f"{name}.jsonl")
            assert events, name
            assert any(e.event == "iteration" for e in events)


class TestOpenLoopEquivalence:
    """Open-loop FCFS with every request arriving at t=0 *is* the closed
    loop: same engine, same admission order, byte-identical trace.  This
    extends the golden pin to the front-end path — a scheduler or event-loop
    regression that perturbs the engine shows up here as a trace diff."""

    def _open_loop(self, scheme, admission, max_batch, n_requests):
        from repro.serving import OpenLoopFrontend

        reqs = ShareGPTWorkload(seed=11, max_len=2048).sample_requests(
            n_requests
        )
        rec = TraceRecorder()
        engine = ServingEngine(
            LLAMA_7B,
            SCHEMES[scheme],
            max_batch=max_batch,
            admission=admission,
            telemetry=rec,
        )
        res = OpenLoopFrontend(
            engine, "fcfs", enforce_deadlines=False
        ).run(reqs)
        buf = io.StringIO()
        write_jsonl(rec.events, buf)
        return buf.getvalue(), res

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_arrival_zero_fcfs_matches_golden_trace(self, name):
        got, _ = self._open_loop(*GOLDEN_SCENARIOS[name])
        want = (GOLDENS / f"{name}.jsonl").read_text()
        assert got == want, f"{name}: open-loop FCFS trace diverged"

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_arrival_zero_fcfs_matches_closed_loop_result(self, name):
        from dataclasses import replace

        scheme, admission, max_batch, n_requests = GOLDEN_SCENARIOS[name]
        reqs = ShareGPTWorkload(seed=11, max_len=2048).sample_requests(
            n_requests
        )
        closed = ServingEngine(
            LLAMA_7B,
            SCHEMES[scheme],
            max_batch=max_batch,
            admission=admission,
        ).run(reqs)
        _, open_res = self._open_loop(*GOLDEN_SCENARIOS[name])
        assert replace(open_res.serving, slo=None) == closed
        assert open_res.serving.slo is not None
        assert open_res.idle_advances == 0


class TestBackendTagging:
    def test_result_defaults_to_analytic(self):
        engine = ServingEngine(LLAMA_7B, SCHEMES["FP16"], max_batch=4)
        reqs = ShareGPTWorkload(seed=0, max_len=512).sample_requests(3)
        result = engine.run(reqs)
        assert result.backend == "analytic"
        assert "[analytic]" in result.summary()

    def test_engine_uses_provided_backend(self):
        backend = AnalyticBackend()
        engine = ServingEngine(LLAMA_7B, SCHEMES["FP16"], backend=backend)
        assert engine.backend is backend
        # bind() ran: the backend carries the engine's run configuration.
        assert backend.spec is LLAMA_7B
        assert backend.gpu is RTX_4090

    def test_iteration_sample_omits_default_backend(self):
        """Analytic samples serialize without a ``backend`` key, so old
        readers (and the golden traces) see unchanged bytes."""
        s = IterationSample(t=0.0, iteration=0)
        assert "backend" not in s.to_dict()
        tagged = IterationSample(t=0.0, iteration=0, backend="numeric")
        assert tagged.to_dict()["backend"] == "numeric"

    def test_iteration_sample_jsonl_round_trip(self, tmp_path):
        events = [
            IterationSample(t=0.0, iteration=0),
            IterationSample(t=1.0, iteration=1, backend="numeric"),
        ]
        p = tmp_path / "trace.jsonl"
        write_jsonl(events, p)
        back = read_jsonl(p)
        assert back[0].backend == "analytic"
        assert back[1].backend == "numeric"


class TestStepTiming:
    def test_total_sums_phases(self):
        t = StepTiming(1.0, 2.0, 3.0, 4.0)
        assert t.total == 1.0 + 2.0 + 3.0 + 4.0

    def test_scale_preserves_breakdown_ratios(self):
        t = StepTiming(1.0, 2.0, 3.0, 4.0)
        t.scale(2.5)
        assert t.t_dense == 2.5
        assert t.t_attention == 5.0
        assert t.total == 2.5 * 10.0


class TestAnalyticBackend:
    def _bound(self, scheme="Atom-W4A4"):
        b = AnalyticBackend()
        b.bind(LLAMA_7B, SCHEMES[scheme], RTX_4090, None)
        return b

    def test_decode_only_step_has_no_prefill_attention_terms(self):
        t = self._bound("FP16").execute_step([], [DecodeSlot(0, 64)])
        assert t.t_dense > 0.0
        assert t.t_attention > 0.0
        assert t.t_other > 0.0
        assert t.t_quant == 0.0  # FP16: no activation quantization

    def test_quant_phase_only_for_low_bit_activations(self):
        decode = [DecodeSlot(0, 128)]
        assert self._bound("Atom-W4A4").execute_step([], decode).t_quant > 0.0
        assert self._bound("FP16").execute_step([], decode).t_quant == 0.0

    def test_prefill_and_decode_both_contribute_attention(self):
        b = self._bound()
        prefill = [PrefillChunk(0, 0, 64, 64)]
        decode = [DecodeSlot(1, 256)]
        t_p = b.execute_step(prefill, [])
        t_d = b.execute_step([], decode)
        t_both = b.execute_step(prefill, decode)
        assert t_p.t_attention > 0.0
        assert t_d.t_attention > 0.0
        assert t_both.t_attention == pytest.approx(
            t_p.t_attention + t_d.t_attention
        )

    def test_comm_time_zero_without_tp(self):
        assert self._bound().comm_time(64) == 0.0

    def test_generated_tokens_is_none(self):
        assert self._bound().generated_tokens(0) is None

    def test_prefill_chunk_completes_property(self):
        assert PrefillChunk(0, 96, 32, 128).completes
        assert not PrefillChunk(0, 0, 32, 128).completes


def _direct_step(prefill, decode, spec, scheme, gpu, tp):
    """One step priced by calling the kernels directly, phase by phase."""
    m = sum(p.chunk for p in prefill) + len(decode)
    degree = tp.degree if tp else 1
    if degree > 1:
        t_dense = tp_dense_layer_time(m, spec, scheme, tp, gpu)
    else:
        t_dense = dense_layer_time(m, spec, scheme, gpu)
    t_attn = 0.0
    if decode:
        t_attn += attention_decode_time(
            [d.context_len for d in decode], spec, scheme.kv_bits, gpu
        ) / degree
    for p in prefill:
        t_attn += attention_prefill_time(
            p.chunk, spec, gpu, kv_bits=scheme.kv_bits, prefix_len=p.prefix_len
        ) / degree
    t_quant = (
        quant_fusion_overhead(m, spec, gpu, fused=True)
        if scheme.a_bits < 16
        else 0.0
    )
    return (t_dense, t_attn, t_quant, other_ops_time(m, spec, gpu))


class TestRooflineMemo:
    """The per-token-count memo must not change a single bit of any phase."""

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("scheme", ["Atom-W4A4", "FP16", "W8A8"])
    def test_execute_step_equals_direct_kernel_calls(self, degree, scheme):
        tp = TPConfig(degree, NVLINK) if degree > 1 else None
        backend = AnalyticBackend()
        backend.bind(LLAMA_7B, SCHEMES[scheme], RTX_4090, tp)
        rng = np.random.default_rng([degree, len(scheme)])
        for step in range(300):
            prefill = [
                PrefillChunk(i, int(rng.integers(0, 512)), int(rng.integers(1, 64)), 2048)
                for i in range(int(rng.integers(0, 3)))
            ]
            decode = [
                DecodeSlot(100 + j, int(rng.integers(1, 2048)))
                for j in range(int(rng.integers(0 if prefill else 1, 24)))
            ]
            got = backend.execute_step(prefill, decode)
            want = _direct_step(
                prefill, decode, LLAMA_7B, SCHEMES[scheme], RTX_4090, tp
            )
            assert (got.t_dense, got.t_attention, got.t_quant, got.t_other) == want, (
                f"step {step}: memoized timing differs from the kernels"
            )


class TestServingSpecFor:
    def test_derives_model_shapes(self):
        cfg = ModelConfig(
            "spec-test",
            dim=128,
            n_layers=3,
            n_heads=8,
            n_kv_heads=2,
            ffn_dim=256,
            max_seq_len=512,
        )
        spec = serving_spec_for(cfg)
        assert spec.dim == 128
        assert spec.n_layers == 3
        assert spec.n_kv_heads == 2
        assert spec.head_dim == cfg.head_dim
        assert spec.vocab_size == cfg.vocab_size
        assert spec.max_seq_len == 512

    def test_rejects_moe(self):
        cfg = ModelConfig(
            "moe-test",
            dim=64,
            n_layers=2,
            n_heads=4,
            n_kv_heads=4,
            ffn_dim=128,
            n_experts=4,
            top_k=2,
        )
        with pytest.raises(ValueError, match="MoE"):
            serving_spec_for(cfg)


class TestProtocol:
    def test_execute_step_is_abstract(self):
        with pytest.raises(TypeError):
            ExecutionBackend()  # type: ignore[abstract]

    def test_numeric_is_a_backend(self):
        assert issubclass(NumericBackend, ExecutionBackend)
        assert NumericBackend.name == "numeric"
        assert AnalyticBackend.name == "analytic"
