"""Episode semantics for SFC path generation.

An episode routes one request (source, destination, ordered VNF chain)
through a topology.  Each step moves to a neighbor of the current node and
optionally processes the next pending chain entry at the arrival node.  The
episode succeeds when the whole chain has been processed in order and the
walk stands at the destination; it fails when the step budget runs out.

Total delay of a walk is the sum of traversed edge delays (with
multiplicity) plus the processing delays of the instances used.  Reward is
sparse: DEFAULT_SUCCESS_BASE - lam * total_delay on the success-terminal
step, zero everywhere else.

Moves and processing sites come from the topology's ``arcs`` and
``proc_delays``, the tables the exact solver searches: a move's edge delay
is one lookup in ``arcs[node]``, and a processing step records the
cheapest instance there as ``VnfInstance(node, type, delay)``.  The
records a step builds (``EnvState``, ``PathResult``, ``Action``) are
immutable named tuples, the cheapest immutable records to build; they
compare equal to plain tuples of their fields.

This module holds the rules alone; a recorded episode with the policy's
log-probs is a ``policy.EpisodeTrace``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .topology import Topology, TopologyError, VnfInstance

DEFAULT_SUCCESS_BASE = 10000.0
DEFAULT_CHAIN_LEN_RANGE = (1, 4)


class InvalidActionError(ValueError):
    """An action outside valid_actions was fed to step: a policy bug."""


@dataclass(frozen=True)
class SfcRequest:
    """One SFC request: route source -> destination visiting the chain in order."""

    source: int
    destination: int
    chain: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "chain", tuple(int(k) for k in self.chain))


class Action(NamedTuple):
    """Move to next_node; optionally process the pending VNF type there."""

    next_node: int
    process: bool


class PathResult(NamedTuple):
    """Edge and instance usage of a walk, with multiplicity, plus its delay."""

    edge_uses: tuple[tuple[int, int], ...]
    instance_uses: tuple[VnfInstance, ...]
    total_delay: int
    success: bool


EMPTY_PATH = PathResult(edge_uses=(), instance_uses=(), total_delay=0, success=False)


@dataclass(frozen=True)
class RewardConfig:
    # lam is the delay-penalty weight (0 rewards any success equally)
    lam: float = 0.0

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")


class EnvState(NamedTuple):
    """Immutable episode state; step() returns the successor."""

    request: SfcRequest
    current_node: int
    chain_index: int
    steps_taken: int
    path_so_far: PathResult
    done: bool
    max_steps: int

    @property
    def pending_type(self) -> int | None:
        """V_now: the next chain entry to process, or None when done with the chain."""
        if self.chain_index < len(self.request.chain):
            return self.request.chain[self.chain_index]
        return None


def validate_request(t: Topology, req: SfcRequest) -> None:
    if not 0 <= req.source < t.num_nodes:
        raise ValueError(f"request source {req.source} is not a node of the topology")
    if not 0 <= req.destination < t.num_nodes:
        raise ValueError(f"request destination {req.destination} is not a node of the topology")
    for k in req.chain:
        if not 0 <= k < t.vnf_type_count:
            raise ValueError(f"request chain entry {k} is not a VNF type (K={t.vnf_type_count})")


def default_max_steps(t: Topology, req: SfcRequest) -> int:
    """Step budget: a few graph traversals plus slack per chain entry."""
    return 3 * t.num_nodes + 2 * len(req.chain)


def reset(t: Topology, req: SfcRequest, max_steps: int | None = None) -> EnvState:
    validate_request(t, req)
    if max_steps is None:
        max_steps = default_max_steps(t, req)
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    return EnvState(req, req.source, 0, 0, EMPTY_PATH, False, max_steps)


def valid_actions(s: EnvState, t: Topology) -> tuple[Action, ...]:
    """All legal actions: every neighbor move, plus process variants where
    the neighbor hosts an instance of the pending type."""
    if s.done:
        raise InvalidActionError("valid_actions called on a finished episode")
    want = s.pending_type
    sites = t.proc_delays[want] if want is not None else None
    actions: list[Action] = []
    for v in t.arcs[s.current_node]:
        actions.append(Action(v, False))
        if sites is not None and sites[v] is not None:
            actions.append(Action(v, True))
    return tuple(actions)


def step(s: EnvState, a: Action, t: Topology, cfg: RewardConfig) -> tuple[EnvState, float, bool]:
    """Apply one action; returns (next state, reward, done).

    Success is checked after the move: at the destination with the chain
    fully processed.  Reward is DEFAULT_SUCCESS_BASE - lam * total_delay
    then, 0 on every other step including budget-exhaustion failure.
    """
    if s.done:
        raise InvalidActionError("step called on a finished episode")
    u, v = s.current_node, a.next_node
    delay = t.arcs[u].get(v)
    if delay is None:
        raise InvalidActionError(f"no edge from node {u} to node {v}")
    path = s.path_so_far
    instance_uses = path.instance_uses
    chain_index = s.chain_index
    if a.process:
        want = s.pending_type
        if want is None:
            raise InvalidActionError("process requested but the chain is fully processed")
        proc = t.proc_delays[want][v]
        if proc is None:
            raise InvalidActionError(f"node {v} hosts no instance of type {want}")
        delay += proc
        instance_uses = instance_uses + (VnfInstance(v, want, proc),)
        chain_index += 1

    total = path.total_delay + delay
    steps_taken = s.steps_taken + 1
    req = s.request
    success = v == req.destination and chain_index == len(req.chain)
    done = success or steps_taken >= s.max_steps
    path = PathResult(path.edge_uses + ((u, v),), instance_uses, total, success)
    reward = DEFAULT_SUCCESS_BASE - cfg.lam * total if success else 0.0
    return EnvState(req, v, chain_index, steps_taken, path, done, s.max_steps), reward, done


def total_delay(p: PathResult, t: Topology) -> int:
    """Recompute a walk's delay from its usage records (exact integers)."""
    acc = 0
    for u, v in p.edge_uses:
        acc += t.edge_delay(u, v)
    instances = set(t.instances)
    for inst in p.instance_uses:
        if inst not in instances:
            raise TopologyError(f"instance {inst} does not exist in the topology")
        acc += inst.proc_delay
    return acc


def generate_requests(
    t: Topology,
    count: int,
    chain_len_range: tuple[int, int],
    rng: np.random.Generator,
) -> list[SfcRequest]:
    """Uniform random requests: distinct source/destination, chain lengths
    uniform in the inclusive range, chain entries uniform over the types
    actually deployed in the topology."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if t.num_nodes < 2:
        raise ValueError("need at least 2 nodes for distinct source/destination")
    lo, hi = chain_len_range
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid chain length range ({lo}, {hi})")
    types = t.deployed_types
    if not types:
        raise ValueError("topology has no deployed VNF instances to build chains from")
    requests = []
    for _ in range(count):
        src, dst = (int(x) for x in rng.choice(t.num_nodes, size=2, replace=False))
        length = int(rng.integers(lo, hi + 1))
        chain = tuple(types[int(rng.integers(len(types)))] for _ in range(length))
        requests.append(SfcRequest(source=src, destination=dst, chain=chain))
    return requests


def generate_pool_requests(
    topologies: Sequence[Topology],
    count: int,
    chain_len_range: tuple[int, int],
    rng: np.random.Generator,
) -> list[tuple[int, SfcRequest]]:
    """(topology index, request) pairs: each draws a topology uniformly,
    then one request on it."""
    pairs = []
    for _ in range(count):
        tid = int(rng.integers(len(topologies)))
        pairs.append((tid, generate_requests(topologies[tid], 1, chain_len_range, rng)[0]))
    return pairs
