"""Analytic kernel cost models (roofline-based).

Every model here is ``time = max(compute_time, memory_time)`` with the
scheme's effective compute throughput and an effective memory bandwidth
(DRAM streams rarely exceed ~85% of peak).  Cost parameters come from the
:class:`~repro.serving.schemes.QuantScheme` descriptor alone —
``compute_dtype``/``gemm_efficiency`` for the compute side,
``weight_bytes_per_param`` (a fractional average for mixed-bit schemes)
and ``kv_bits`` for the memory side — so any registered scheme prices
uniformly.  Calibration anchors:

- §5.4.2 kernel ablation fixes the compute-bound efficiencies (see
  :mod:`repro.serving.schemes`);
- Fig. 11(b) fixes the attention kernel's bit-independent overhead: at
  context 1024, INT4 KV is 3.5x FP16 and 1.8x INT8, i.e. the kernel moves
  ~0.8 "bit-equivalents" of non-KV traffic per KV element
  ((16+0.8)/(4+0.8) = 3.5, (16+0.8)/(8+0.8) = 1.87);
- §4.1/§5.4.2 reorder fusion: fused reordering costs <0.5% of runtime,
  while the unfused matrix-decomposition baseline (LLM.int8()-style) adds
  full extra passes over the activation, making the fused pipeline 25-35%
  faster on layernorm+GEMM.
"""

from __future__ import annotations

import numpy as np

from repro.serving.hardware import GPUSpec, RTX_4090
from repro.serving.models import ServingModelSpec
from repro.serving.schemes import QuantScheme

__all__ = [
    "MEM_EFFICIENCY",
    "ATTN_OVERHEAD_BIT_EQUIV",
    "gemm_time",
    "gemm_tops",
    "dense_layer_time",
    "attention_decode_time",
    "attention_prefill_time",
    "quant_fusion_overhead",
    "reorder_ablation_latency",
    "other_ops_time",
]

# Fraction of peak DRAM bandwidth a well-tuned streaming kernel achieves.
MEM_EFFICIENCY = 0.85

# Bit-equivalents of KV-independent traffic per KV element in the fused
# attention kernel (queries, softmax state, outputs, dequant work).
ATTN_OVERHEAD_BIT_EQUIV = 0.8

# Activations enter/leave GEMMs in FP16 regardless of compute precision.
_IO_BYTES = 2.0


def gemm_time(
    m: int, n: int, k: int, scheme: QuantScheme, gpu: GPUSpec = RTX_4090
) -> float:
    """Seconds for one ``(m x k) @ (k x n)`` under ``scheme``.

    Weights stream at ``w_bits``; activations are read at FP16 (they are
    produced in FP16 and quantized in registers inside the fused kernel);
    output written in FP16.
    """
    if min(m, n, k) <= 0:
        raise ValueError("GEMM dims must be positive")
    ops = 2.0 * m * n * k
    compute = ops / (gpu.peak(scheme.compute_dtype) * 1e12 * scheme.gemm_efficiency)
    weight_bytes = n * k * scheme.weight_bytes_per_param
    io_bytes = (m * k + m * n) * _IO_BYTES
    memory = (weight_bytes + io_bytes) / (gpu.bytes_per_second * MEM_EFFICIENCY)
    return max(compute, memory)


def gemm_tops(
    m: int, n: int, k: int, scheme: QuantScheme, gpu: GPUSpec = RTX_4090
) -> float:
    """Achieved TOPS of the GEMM (the y-axis of Fig. 11(a))."""
    return 2.0 * m * n * k / gemm_time(m, n, k, scheme, gpu) / 1e12


def dense_layer_time(
    m: int,
    spec: ServingModelSpec,
    scheme: QuantScheme,
    gpu: GPUSpec = RTX_4090,
) -> float:
    """Seconds for all dense GEMMs of the decoder stack on ``m`` batched
    tokens (K/Q/V generation, O projection and MLP; §3's "dense layer")."""
    per_layer = sum(
        gemm_time(m, out, inp, scheme, gpu) for out, inp in spec.dense_gemm_shapes()
    )
    return per_layer * spec.n_layers


def attention_decode_time(
    context_lens: "np.ndarray | list[int] | int",
    spec: ServingModelSpec,
    kv_bits: int,
    gpu: GPUSpec = RTX_4090,
) -> float:
    """Seconds of decode self-attention for a batch of requests.

    Decode attention is memory-bound on the KV-cache (§3): each request
    streams its own ``context`` tokens of KV (no cross-request reuse), plus
    the bit-independent overhead traffic.  ``context_lens`` may also be the
    batch's total context as one integer; integer sums below 2**53 are
    exact, so both forms price identically.
    """
    if isinstance(context_lens, (int, np.integer)):
        total_ctx = float(context_lens)
    else:
        total_ctx = float(np.sum(np.asarray(context_lens, dtype=np.float64)))
    kv_elements = 2.0 * spec.n_layers * spec.kv_dim * total_ctx
    effective_bits = kv_bits + ATTN_OVERHEAD_BIT_EQUIV
    bytes_moved = kv_elements * effective_bits / 8.0
    return bytes_moved / (gpu.bytes_per_second * MEM_EFFICIENCY)


def attention_prefill_time(
    prompt_len: int,
    spec: ServingModelSpec,
    gpu: GPUSpec = RTX_4090,
    *,
    kv_bits: int = 16,
    prefix_len: int = 0,
) -> float:
    """Seconds of self-attention for one prompt (or prompt chunk) prefill.

    Prefill attention is compute-bound (FlashAttention-style): each of the
    ``prompt_len`` new queries attends to the ``prefix_len`` cached tokens
    plus (causally) the new chunk, two matmuls per position, on FP16 tensor
    cores.  KV write traffic for the new tokens is added (it is how the
    quantized cache gets populated).  ``prefix_len > 0`` models
    chunked-prefill iterations (Sarathi-style, Agrawal et al. 2024).
    """
    t = float(prompt_len)
    ctx = float(prefix_len) + t / 2.0  # average attended length per query
    flops = 2.0 * 2.0 * t * ctx * spec.dim * spec.n_layers
    compute = flops / (gpu.peak("fp16") * 1e12 * 0.6)
    kv_write = 2.0 * spec.n_layers * spec.kv_dim * t * kv_bits / 8.0
    # Chunked iterations also re-read the prefix KV once per chunk.
    kv_read = 2.0 * spec.n_layers * spec.kv_dim * prefix_len * kv_bits / 8.0
    memory = (kv_write + kv_read) / (gpu.bytes_per_second * MEM_EFFICIENCY)
    return compute + memory


def quant_fusion_overhead(
    m: int,
    spec: ServingModelSpec,
    gpu: GPUSpec = RTX_4090,
    *,
    fused: bool = True,
) -> float:
    """Seconds spent on reorder + dynamic quantization of activations.

    Fused (Atom): the reorder/quant runs inside the producing kernel while
    data is in registers; the residual cost is a fraction of one extra
    activation pass (<0.5% of runtime, §4.1).  Unfused (matrix-decomposition
    baseline of LLM.int8()): each dense input takes extra full read+write
    passes for scatter/gather and quantization.
    """
    # Four dense inputs per layer (attn_in is shared by q/k/v).
    act_bytes = 4.0 * m * spec.dim * _IO_BYTES * spec.n_layers
    if fused:
        return 0.1 * act_bytes / (gpu.bytes_per_second * MEM_EFFICIENCY)
    # Decomposition: gather outliers, scatter back, plus a quantization pass
    # => 3 extra full passes over the activation.
    return 3.0 * act_bytes / (gpu.bytes_per_second * MEM_EFFICIENCY)


def reorder_ablation_latency(
    m: int,
    *,
    n: int = 4096,
    k: int = 4096,
    n_outlier: int = 128,
    fused: bool = True,
    gpu: GPUSpec = RTX_4090,
) -> float:
    """Latency of one layernorm + one GEMM, fused vs decomposed (§5.4.2).

    The decomposition baseline (LLM.int8()-style) splits mixed precision
    into separate operators: a gather/scatter reorder pass, a standalone
    quantization pass, the INT4 body GEMM, and a separate FP16 GEMM over the
    outlier columns — each an extra kernel launch and an extra trip through
    DRAM for the activation.  Atom fuses reordering and quantization into
    the preceding layernorm and runs one mixed-precision GEMM.  The paper
    measures Atom 25-35% faster across batch 16-256.
    """
    from repro.serving.schemes import ATOM_W4A4, FP16

    bw = gpu.bytes_per_second * MEM_EFFICIENCY
    ln_bytes = 2.0 * m * k * _IO_BYTES  # read + write the hidden state
    t_ln = ln_bytes / bw
    t_gemm = gemm_time(m, n, k, ATOM_W4A4, gpu)
    if fused:
        # layernorm (+fused reorder/quant) and one fused GEMM: 2 launches.
        return t_ln + t_gemm + 2 * _LAUNCH_OVERHEAD_S
    # Decomposed: one extra reorder+quantize trip through the activation,
    # INT4 body GEMM + separate FP16 outlier GEMM, 3 launches total.
    t_extra_pass = ln_bytes / bw
    t_outlier_gemm = gemm_time(m, n, n_outlier, FP16, gpu)
    return t_ln + t_extra_pass + t_gemm + t_outlier_gemm + 3 * _LAUNCH_OVERHEAD_S


# Per-kernel launch/dispatch overhead and launches per decoder layer
# (norms, rope, residuals, elementwise ops, plus the GEMM/attention
# launches themselves).  ~10 x 4us x 32 layers ~= 1.3 ms per iteration,
# which keeps Fig. 3's "others" share under ~10% at small batch.
_LAUNCH_OVERHEAD_S = 4.0e-6
_LAUNCHES_PER_LAYER = 10


def other_ops_time(
    m: int, spec: ServingModelSpec, gpu: GPUSpec = RTX_4090
) -> float:
    """Norms, RoPE, residual adds, activations: elementwise passes plus
    fixed kernel-launch overhead (which dominates at small batch)."""
    bytes_moved = 8.0 * 2.0 * m * spec.dim * _IO_BYTES * spec.n_layers
    streaming = bytes_moved / (gpu.bytes_per_second * MEM_EFFICIENCY)
    launches = _LAUNCH_OVERHEAD_S * _LAUNCHES_PER_LAYER * spec.n_layers
    return streaming + launches
