"""Load generators and wall-clock observation of the serving program.

Load comes from this one thread.  :class:`Observer` reads each
:class:`~repro.serving.EngineRun`'s public side channels (``first_token_s``,
``admission_log``, ``terminal_log``) after every ``step()`` and stamps the
wall clock, which gives per-request wall-clock TTFT, queue wait and the
gaps between consecutive output tokens without touching the program.

Every event is kept as the index of the step it happened at, and times are
looked up in a separate array of step-end times.  A repetition of the same
work takes the same steps, so the samples can be read off any timeline of
those steps: the repetition's own, or one rebuilt from the fastest time
each step took across repetitions.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
from time import perf_counter

import numpy as np


class _Run:
    """Global indices of one run's steps, plus read cursors."""

    __slots__ = ("steps", "ft_seen", "adm", "term")

    def __init__(self) -> None:
        self.steps: list[int] = []
        self.ft_seen = self.adm = self.term = 0


class Observer:
    """Per-request timelines, read from outside the program.

    A request is *handed* when the benchmark appends it to
    ``EngineRun.pending`` (closed loop) or when the front-end submits it to
    its scheduler (open loop); it counts from the end of the last step
    before that.  Its first token is stamped at the end of the ``step()``
    that recorded it in ``first_token_s``.  Each later step of its run
    delivers exactly one more token, so the token gaps are the gaps between
    that run's step ends up to the step that finished it.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.t0 = 0.0
        self.wall_s = 0.0
        #: Wall time since :meth:`start` at the end of every observed step,
        #: in call order over all runs.
        self.ends: list[float] = []
        self.requests: dict = {}
        #: ``rid -> steps observed before it was handed``
        self.handed: dict[int, int] = {}
        self.handed_sim: dict[int, float] = {}
        #: ``rid -> index of the step after which it was seen admitted``
        self.admitted: dict[int, int] = {}
        self.first: dict[int, tuple[_Run, int]] = {}
        self.finished: dict[int, tuple[_Run, int]] = {}
        self.terminal: dict[int, str] = {}
        #: Terminal log entries seen; more than ``len(terminal)`` means some
        #: request reached two terminal states.
        self.terminal_events = 0
        self.new_terminals: list[int] = []

    # -- attachment ------------------------------------------------------- #
    def start(self) -> None:
        gc.collect()
        self.t0 = perf_counter()

    def stop(self) -> float:
        self.wall_s = perf_counter() - self.t0
        return self.wall_s

    def hand(self, request, sim_clock: "float | None" = None) -> None:
        rid = request.request_id
        self.requests[rid] = request
        self.handed[rid] = len(self.ends)
        if sim_clock is not None:
            self.handed_sim[rid] = sim_clock

    def watch_engine(self, engine) -> None:
        """Observe every run ``engine.start_run`` creates from now on."""
        start_run = engine.start_run

        def watched_start_run(*args, **kwargs):
            run = start_run(*args, **kwargs)
            self.watch_run(run)
            return run

        engine.start_run = watched_start_run

    def watch_frontend(self, frontend) -> None:
        on_submit = frontend.scheduler.on_submit

        def submitted(sub):
            self.hand(sub.request)
            on_submit(sub)

        frontend.scheduler.on_submit = submitted
        for engine in getattr(frontend.engine, "engines", [frontend.engine]):
            self.watch_engine(engine)

    def watch_run(self, run) -> None:
        cursor = _Run()
        step = run.step

        def observed_step():
            step()
            self._after_step(run, cursor)

        run.step = observed_step

    def _after_step(self, run, cur: _Run) -> None:
        now = perf_counter() - self.t0
        span = self.tracer.open("bench.observe") if self.tracer else None
        g = len(self.ends)
        self.ends.append(now)
        k = len(cur.steps)
        cur.steps.append(g)
        fts = run.first_token_s
        new = len(fts) - cur.ft_seen
        if new:
            # first_token_s only ever gains keys, newest last.
            for rid in itertools.islice(reversed(fts), new):
                self.first.setdefault(rid, (cur, k))
            cur.ft_seen = len(fts)
        log = run.admission_log
        while cur.adm < len(log):
            self.admitted.setdefault(log[cur.adm][0], g)
            cur.adm += 1
        log = run.terminal_log
        while cur.term < len(log):
            rid, state = log[cur.term]
            cur.term += 1
            self.terminal_events += 1
            self.terminal[rid] = state
            self.finished[rid] = (cur, k)
            self.new_terminals.append(rid)
        if span is not None:
            self.tracer.close(span)

    def take_terminals(self) -> "list[int]":
        out, self.new_terminals = self.new_terminals, []
        return out

    # -- timelines -------------------------------------------------------- #
    def intervals(self) -> np.ndarray:
        """Wall time of each step since the previous step end (the first
        since :meth:`start`), then the tail from the last step to
        :meth:`stop`: ``len(ends) + 1`` values summing to ``wall_s``."""
        return np.diff(np.concatenate(([0.0], self.ends, [self.wall_s])))

    def shape(self) -> str:
        """Digest of the step at which every event happened.

        Two repetitions with the same shape took the same steps in the same
        order, so their step times may be compared one by one.
        """
        events = [
            len(self.ends),
            sorted(self.handed.items()),
            sorted((rid, c.steps[k]) for rid, (c, k) in self.first.items()),
            sorted((rid, c.steps[k]) for rid, (c, k) in self.finished.items()),
            sorted(self.terminal.items()),
        ]
        return hashlib.sha256(repr(events).encode()).hexdigest()

    # -- samples ---------------------------------------------------------- #
    # ``ends`` are step-end times indexed like :attr:`ends`; by default the
    # observed ones.
    def _ends(self, ends) -> np.ndarray:
        return np.asarray(self.ends if ends is None else ends)

    @staticmethod
    def _handed_at(ends: np.ndarray, h: int) -> float:
        return float(ends[h - 1]) if h else 0.0

    def ttft_ms(self, ends=None) -> "list[float]":
        ends = self._ends(ends)
        return [
            (ends[c.steps[k]] - self._handed_at(ends, self.handed[rid])) * 1e3
            for rid, (c, k) in self.first.items()
            if rid in self.handed
        ]

    def queue_wait_ms(self, ends=None) -> "list[float]":
        ends = self._ends(ends)
        return [
            (ends[g] - self._handed_at(ends, self.handed[rid])) * 1e3
            for rid, g in self.admitted.items()
            if rid in self.handed
        ]

    def tbt_ms(self, ends=None) -> np.ndarray:
        ends = self._ends(ends)
        gaps = []
        for rid, (run, k1) in self.finished.items():
            if self.terminal[rid] != "finished" or rid not in self.requests:
                continue
            run0, k0 = self.first[rid]
            want = self.requests[rid].decode_len - 1
            if run0 is not run or k1 - k0 != want:
                raise RuntimeError(
                    f"request {rid}: {k1 - k0} steps between first token and "
                    f"finish for {want} further tokens; the one-token-per-step "
                    "reading of token gaps no longer holds"
                )
            if want:
                gaps.append(np.diff(ends[run.steps[k0 : k1 + 1]]))
        return np.concatenate(gaps) * 1e3 if gaps else np.zeros(0)


# --------------------------------------------------------------------------- #
def closed_loop(engine, clients, observer: Observer, per_client: int):
    """Drive ``clients`` (request iterators) against ``engine`` closed-loop.

    Clients join one per step, so the first requests do not arrive as one
    burst.  Each client then has one request in flight and sends its next
    when that one reaches a terminal state, ``per_client`` requests in all;
    the run then drains.  Returns ``(run, wall seconds)``.  ``engine`` must
    already be watched by ``observer``.
    """
    sent = [0] * len(clients)
    owner: dict[int, int] = {}
    idle = [0]
    joined = 1
    observer.start()
    run = engine.start_run([])
    while True:
        for c in idle:
            if sent[c] < per_client:
                req = next(clients[c])
                owner[req.request_id] = c
                sent[c] += 1
                observer.hand(req, run.clock)
                run.pending.append(req)
        if not run.active:
            break
        run.step()
        idle = [owner[rid] for rid in observer.take_terminals()]
        if joined < len(clients):
            idle.append(joined)
            joined += 1
    return run, observer.stop()


def open_loop(frontend, interactions, observer: Observer):
    """One open-loop replay; returns ``(FrontendResult, wall seconds)``."""
    observer.watch_frontend(frontend)
    observer.start()
    result = frontend.run(interactions)
    return result, observer.stop()
