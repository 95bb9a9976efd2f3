"""The benchmark workloads: traffic generators and the engines they drive.

Every generator is a pure function of the workload seed, so one seed gives
the same requests on every run and every commit.  The program only ever sees
the generated :class:`~repro.data.sharegpt.Request` objects; its own seeds
(model weights, sampling, prefix-cache derivations) stay fixed at 0.

Numeric workloads are closed loops of ``N_CLIENTS`` logical clients.  A
client is an endless request stream: the benchmark pulls its next request when
the previous one finishes.  The analytic workload is a fixed open-loop
interaction list replayed through :class:`~repro.serving.OpenLoopFrontend`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.data.sharegpt import TURN_STRIDE, Request, ShareGPTWorkload
from repro.serving import (
    SCHEMES,
    ClusterEngine,
    NumericBackend,
    OpenLoopFrontend,
    PrefixCache,
    ServingEngine,
    make_router,
    sharegpt_interactions,
)
from repro.serving.models import LLAMA_7B

SCHEME = "Atom-W4A4"

#: Closed-loop clients of the numeric workloads (also the engine's max batch).
N_CLIENTS = 16
#: Requests each ``decode-long`` client sends in one repetition.
DECODE_LONG_PER_CLIENT = 7

#: ``sim-cluster`` size, conversation rate and mean think time (simulated s):
#: ~1.9 turns per conversation keeps four replicas ~80% busy.
SIM_CLUSTER_CONVERSATIONS = 1200
SIM_CLUSTER_RATE = 20.0
SIM_CLUSTER_THINK_S = 1.0
SIM_REPLICAS = 4
TENANTS = tuple(f"tenant{i}" for i in range(4))


# --------------------------------------------------------------------------- #
# Numeric closed-loop clients
# --------------------------------------------------------------------------- #
def _stratified(seed: int, stream: int, block: int, n: int, lo: int, hi: int) -> np.ndarray:
    """``n`` whole numbers spread evenly over ``[lo, hi]``, in an order
    drawn from the seed.

    Every block of a repetition's requests then holds the same lengths and
    the seed only decides which request gets which.  Independent draws
    would change the total work from seed to seed, and with it every
    throughput and latency figure, by more than a code change should be
    judged against.
    """
    rng = np.random.default_rng([seed, stream, block])
    return rng.permutation(np.round(np.linspace(lo, hi, n)).astype(int))


def decode_long_client(seed: int, client: int) -> Iterator[Request]:
    """Unshared requests: 16-48 prompt tokens, 64-160 output tokens.

    Every request opens its own conversation id, so no two prompts share a
    prefix and the prefix cache finds nothing to reuse.  Lengths are
    stratified over each block of ``DECODE_LONG_PER_CLIENT`` requests per
    client.
    """
    per = DECODE_LONG_PER_CLIENT
    n = N_CLIENTS * per
    for block in itertools.count():
        prompts = _stratified(seed, 0, block, n, 16, 48)
        outputs = _stratified(seed, 2, block, n, 64, 160)
        for i in range(per):
            slot = client * per + i
            cid = (block * per + i) * N_CLIENTS + client
            yield Request(cid * TURN_STRIDE, int(prompts[slot]), int(outputs[slot]))


def numeric_engine(model):
    """The numeric workload's engine build."""
    return NumericBackend.engine_for(
        model,
        SCHEMES[SCHEME],
        max_batch=N_CLIENTS,
        admission="reserve",
        batched=True,
        prompts="conversation",
        prefix_cache=PrefixCache(seed=0),
    )


# --------------------------------------------------------------------------- #
# Analytic open-loop workloads
# --------------------------------------------------------------------------- #
def sim_cluster_interactions(seed: int):
    """The same ShareGPT conversations and think times for every seed,
    arriving at seed-drawn times.

    Like the stratified numeric lengths: the heavy-tailed ShareGPT lengths
    would otherwise change the total work from seed to seed.
    """
    return sharegpt_interactions(
        ShareGPTWorkload(seed=0, max_len=2048),
        SIM_CLUSTER_CONVERSATIONS,
        rate=SIM_CLUSTER_RATE,
        seed=seed,
        tenants=TENANTS,
        think_mean_s=SIM_CLUSTER_THINK_S,
    )


def _replica() -> ServingEngine:
    return ServingEngine(
        LLAMA_7B,
        SCHEMES[SCHEME],
        max_batch=64,
        shed_policy="drop",
        prefix_cache=PrefixCache(seed=0),
    )


def sim_cluster_frontend() -> OpenLoopFrontend:
    cluster = ClusterEngine(
        [_replica() for _ in range(SIM_REPLICAS)],
        router=make_router("affinity"),
    )
    return OpenLoopFrontend(cluster, "fcfs")


# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Workload:
    name: str
    #: numeric: ``client(seed, i)`` request streams; analytic: ``None``.
    client: "Callable[[int, int], Iterator[Request]] | None" = None
    #: numeric: requests each client sends in one repetition.
    per_client: int = 0
    #: analytic: ``interactions(seed)`` and a fresh ``frontend()``.
    interactions: "Callable | None" = None
    frontend: "Callable[[], OpenLoopFrontend] | None" = None

    @property
    def numeric(self) -> bool:
        return self.client is not None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "decode-long",
            client=decode_long_client,
            per_client=DECODE_LONG_PER_CLIENT,
        ),
        Workload(
            "sim-cluster",
            interactions=sim_cluster_interactions,
            frontend=sim_cluster_frontend,
        ),
    )
}
