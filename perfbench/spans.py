"""In-memory span recorder that wraps the program's public calls from outside.

The traced run replaces selected bound methods (and four
:class:`~repro.serving.PagedKVCache` methods) with wrappers that record a
span around each call: name, start, end, parent span and the request id
when the call carries one.  Everything is restored by :meth:`Tracer.restore`,
so the timed untraced runs execute the program unmodified.

Span names are ``<layer>.<op>``; a layer's self time is its spans' duration
minus the time covered by their direct children.  Spans named ``bench.*``
belong to the benchmark itself and are excluded from program coverage.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.data.sharegpt import TURN_STRIDE
from repro.serving import PagedKVCache

_START, _END, _PARENT = 1, 2, 3
_MISSING = object()


class Tracer:
    """Single-threaded span stack plus counters kept at the same boundaries."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index (-1 = root), request id]``
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording -------------------------------------------------------- #
    def open(self, name: str, rid=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, rid])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][_END] = perf_counter()

    def add_done(self, name: str, start: float, end: float) -> None:
        """Record an already finished span under the currently open one."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, None])

    def peak(self, name: str, value: float) -> None:
        if value > self.peaks.get(name, 0.0):
            self.peaks[name] = value

    def wrap(self, owner, attr: str, name: str, *, rid=None, after=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``rid(args)`` extracts the request id; ``after(args, result)``
        updates counters once the call returns.
        """
        orig = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name, rid(args) if rid is not None else None)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, result)
            return result

        self.replace(owner, attr, traced)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, saved = self._undo.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # -- analysis --------------------------------------------------------- #
    def layer_times(self) -> "dict[str, tuple[int, float, float]]":
        """``name -> (calls, total seconds, self seconds)``."""
        if not self.spans:
            return {}
        names = [s[0] for s in self.spans]
        dur = np.array([s[_END] - s[_START] for s in self.spans])
        parent = np.array([s[_PARENT] for s in self.spans])
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        own = dur - child
        out: dict[str, list] = {}
        for i, name in enumerate(names):
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += dur[i]
            acc[2] += own[i]
        return {k: (v[0], float(v[1]), float(v[2])) for k, v in out.items()}

    def write(self, path: Path) -> None:
        """One JSON span per line, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][_START] if self.spans else 0.0
        with path.open("w") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - t0,
                            "end": end - t0,
                            "parent": parent,
                            "rid": rid,
                        }
                    )
                    + "\n"
                )


class _LinearSink:
    """AtomLinear telemetry sink turning per-call phase times into spans."""

    enabled = True

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def iteration_sample(self, *, t_quant, t_dense, t_iter, **_) -> None:
        end = perf_counter()
        self.tracer.counters["core.linear_calls"] += 1
        self.tracer.add_done("core.linear_quant", end - t_iter, end - t_dense)
        self.tracer.add_done("core.linear_gemm", end - t_dense, end)


def _first(args):
    return args[0]


def _route_rid(args):
    return args[0].request_id


# --------------------------------------------------------------------------- #
# Instrumentation of each layer
# --------------------------------------------------------------------------- #
def instrument_engine(tracer: Tracer, engine) -> None:
    """Spans for one engine's steps, backend, prefix cache and (numeric) model."""
    count = tracer.counters

    def started(args, run):
        tracer.wrap(run, "step", "engine.step")

    tracer.wrap(engine, "start_run", "engine.start_run", after=started)
    tracer.wrap(engine.backend, "execute_step", "backend.execute")

    cache = engine.prefix_cache
    if cache is not None:

        def acquired(args, lease):
            count["prefix_cache.prompt_tokens"] += args[1]

        tracer.wrap(cache, "acquire", "prefix_cache.acquire", rid=_first, after=acquired)
        tracer.wrap(cache, "intern_prefill", "prefix_cache.intern", rid=_first)
        tracer.wrap(cache, "intern_finished", "prefix_cache.intern", rid=_first)

    runner = getattr(engine.backend, "runner", None)
    if runner is None:
        return

    def prefilled(args, _):
        count["model_runner.prefill_tokens"] += args[2]

    def decoded(args, _):
        count["model_runner.decode_rows"] += len(args[0])

    tracer.wrap(runner, "prefill_chunk", "model_runner.prefill", rid=_first, after=prefilled)
    tracer.wrap(runner, "decode_batch", "model_runner.decode", after=decoded)
    instrument_model(tracer, runner.model)


def instrument_model(tracer: Tracer, model) -> None:
    count = tracer.counters
    linears = [lin for lin in model.linears.values() if hasattr(lin, "telemetry")]
    # 2 * in * out multiply-adds per token row through every linear.
    flop_per_row = 2.0 * sum(lin.in_features * lin.out_features for lin in model.linears.values())

    def forwarded(args, _):
        count["core.linear_gemm_flop"] += flop_per_row * np.asarray(args[0]).size

    tracer.wrap(model, "forward", "models.forward", after=forwarded)
    tracer.wrap(model, "forward_batch", "models.forward_batch", after=forwarded)
    tracer.wrap(model.kv_codec, "encode_decode", "core.kv_codec")
    sink = _LinearSink(tracer)
    for lin in linears:
        tracer.replace(lin, "telemetry", sink)

    def gathered(args, result):
        pairs = [result] if isinstance(result, tuple) else result
        count["paged_kv.gather_bytes"] += sum(k.nbytes + v.nbytes for k, v in pairs)

    def appended(args, _):
        caches = args[0] if isinstance(args[0], list) else [args[0]]
        tracer.peak("paged_kv.pages_peak", caches[0].store.used_pages)

    # append_batch/gather_batch are classmethods: wrapping the bound method
    # on the class keeps ``PagedKVCache.append_batch(caches, ...)`` working.
    for attr, name, after in (
        ("append", "paged_kv.append", appended),
        ("append_batch", "paged_kv.append", appended),
        ("gather", "paged_kv.gather", gathered),
        ("gather_batch", "paged_kv.gather", gathered),
    ):
        tracer.wrap(PagedKVCache, attr, name, after=after)


def instrument_frontend(tracer: Tracer, frontend) -> None:
    """Spans for the front-end loop, its scheduler and (if any) its cluster."""
    count = tracer.counters

    def ordered(args, _):
        count["schedulers.waiting"] += len(args[0])

    tracer.wrap(frontend, "run", "frontend.run")
    tracer.wrap(frontend.scheduler, "order", "schedulers.order", after=ordered)
    engine = frontend.engine
    engines = getattr(engine, "engines", None)
    if engines is None:
        instrument_engine(tracer, engine)
        return
    for replica in engines:
        instrument_engine(tracer, replica)
    routes: dict[int, int] = {}

    def routed(args, replica):
        rid = args[0].request_id
        routes[rid] = replica.idx
        if rid % TURN_STRIDE:  # a follow-up turn: is it where the last one ran?
            prev = routes.get(rid - 1)
            if prev is not None:
                count["cluster.follow_ups"] += 1
                count["cluster.affine"] += prev == replica.idx

    def started(args, run):
        tracer.wrap(run, "step", "cluster.step")
        tracer.wrap(run.router, "select", "cluster.route", rid=_route_rid, after=routed)

    tracer.wrap(engine, "start_run", "cluster.start_run", after=started)
