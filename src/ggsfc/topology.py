"""Graph model for VNF-bearing network topologies, plus random change strategies.

A topology is an undirected, connected, simple graph with positive integer
edge delays (milliseconds) and a set of VNF instances deployed on its nodes.
Two change strategies produce randomized variants of a base topology:

* CS1 adds random nodes (each wired with two edges) and random edges, then
  removes random edges, dismissing any removal that would disconnect the
  graph.  VNF instances stay where they are.
* CS2 applies CS1 and then relocates every VNF instance to a uniformly
  chosen node of the mutated graph.

Each topology indexes its graph once, on first use: ``arcs`` (per node, a
read-only mapping from each neighbor to its edge delay, in ascending
neighbor order) and ``proc_delays`` (per VNF type, each node's cheapest
processing delay or None).  The environment and the exact solver both read
these two tables and no other index; the solver's cost-to-go also reads
``least_walks_from(u)`` (node u's least walk of at least one step to each
node, kept once found).
"""

from __future__ import annotations

import hashlib
import heapq
import json
from collections import deque
from dataclasses import dataclass, replace
from functools import cache, cached_property
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

# Delay range (inclusive, ms) used for the bundled fixture and for edges
# created during mutation.
EDGE_DELAY_RANGE = (1, 10)

# walk costs pack (delay, steps) into one exact int, delay * B + steps, whose
# order is (delay, steps) order while steps stays below B
B = 2**32

DEFAULT_POOL_SIZE = 100

# CS1 trial counts and per-trial success probabilities
NODE_ADD_TRIALS, NODE_ADD_PROB = 12, 0.1
EDGE_ADD_TRIALS, EDGE_ADD_PROB = 15, 0.3
EDGE_REMOVE_TRIALS, EDGE_REMOVE_PROB = 30, 0.3


class TopologyError(ValueError):
    """Malformed topology document or violated structural invariant."""


class VnfInstance(NamedTuple):
    """One deployed VNF: a type hosted on a node with a processing delay.
    Instances sort by (node, vnf_type, proc_delay)."""

    node: int
    vnf_type: int
    proc_delay: int


@dataclass
class MutationStats:
    """Per-mutation trial accounting (used by statistical tests)."""

    node_add_successes: int = 0
    edge_add_successes: int = 0  # coin successes, counted before adjacency dismissals
    edge_add_applied: int = 0
    edge_remove_successes: int = 0
    edge_remove_applied: int = 0


@dataclass(frozen=True)
class Topology:
    """Undirected connected simple graph with delays and VNF instances.

    Node ids are dense integers ``0..num_nodes-1``.  Edges are canonicalized
    to ``(u, v, delay)`` with ``u < v`` and sorted, instances are sorted, so
    equal topologies compare equal field-for-field.
    """

    num_nodes: int
    edges: tuple[tuple[int, int, int], ...]
    instances: tuple[VnfInstance, ...]
    vnf_type_count: int

    def __post_init__(self) -> None:
        canon = tuple(sorted((min(u, v), max(u, v), d) for u, v, d in self.edges))
        object.__setattr__(self, "edges", canon)
        object.__setattr__(self, "instances", tuple(sorted(self.instances)))
        self._validate()
        # node -> its least_walks_from row, filled as rows are asked for
        object.__setattr__(self, "_walk_rows", {})

    def _validate(self) -> None:
        if self.num_nodes < 1:
            raise TopologyError(f"node count must be >= 1, got {self.num_nodes}")
        if self.vnf_type_count < 0:
            raise TopologyError("vnf_type_count must be >= 0")
        seen: set[tuple[int, int]] = set()
        for u, v, d in self.edges:
            if u == v:
                raise TopologyError(f"edge ({u}, {v}): self-loop")
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise TopologyError(f"edge ({u}, {v}): node out of range 0..{self.num_nodes - 1}")
            if (u, v) in seen:
                raise TopologyError(f"edge ({u}, {v}): duplicate")
            if d <= 0:
                raise TopologyError(f"edge ({u}, {v}): delay {d} is not positive")
            seen.add((u, v))
        for inst in self.instances:
            if not 0 <= inst.node < self.num_nodes:
                raise TopologyError(f"instance on node {inst.node}: node does not exist")
            if not 0 <= inst.vnf_type < self.vnf_type_count:
                raise TopologyError(
                    f"instance on node {inst.node}: type {inst.vnf_type} "
                    f"outside 0..{self.vnf_type_count - 1}"
                )
            if inst.proc_delay <= 0:
                raise TopologyError(
                    f"instance on node {inst.node}: processing delay "
                    f"{inst.proc_delay} is not positive"
                )
        unreachable = self._first_unreachable_node()
        if unreachable is not None:
            why = (f" ({len(self.edges)} edges cannot connect {self.num_nodes} nodes)"
                   if len(self.edges) < self.num_nodes - 1 else "")
            raise TopologyError(
                f"graph is disconnected: node {unreachable} unreachable from node 0{why}")

    def _first_unreachable_node(self) -> int | None:
        """The least node that node 0 does not reach, or None.  Memory grows
        with the edges, never with the declared node count."""
        # its own lists: walking self.arcs would build that lazy table at construction
        adj: dict[int, list[int]] = {}
        for u, v, _ in self.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        seen = {0}
        queue = deque([0])
        while queue:
            for v in adj.get(queue.popleft(), ()):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        if len(seen) == self.num_nodes:
            return None
        # tries at most len(seen) + 1 nodes
        return next(u for u in range(self.num_nodes) if u not in seen)

    @cached_property
    def arcs(self) -> tuple[Mapping[int, int], ...]:
        """Per node, a read-only neighbor -> edge delay mapping whose keys
        iterate in ascending neighbor order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.num_nodes)]
        for u, v, d in self.edges:
            adj[u].append((v, d))
            adj[v].append((u, d))
        return tuple(MappingProxyType(dict(sorted(a))) for a in adj)

    def edge_delay(self, u: int, v: int) -> int:
        d = self.arcs[u].get(v) if 0 <= u < self.num_nodes else None
        if d is None:
            raise TopologyError(f"edge ({u}, {v}) does not exist")
        return d

    @cached_property
    def proc_delays(self) -> tuple[tuple[int | None, ...], ...]:
        """Per VNF type, each node's best processing delay, or None where the
        node hosts no instance of it."""
        table = [[None] * self.num_nodes for _ in range(self.vnf_type_count)]
        # instances are sorted, so the first one seen per site is the cheapest
        for inst in self.instances:
            row = table[inst.vnf_type]
            if row[inst.node] is None:
                row[inst.node] = inst.proc_delay
        return tuple(tuple(row) for row in table)

    def least_walks_from(self, u: int) -> tuple[int | None, ...]:
        """Per node v, u's least (delay, steps) walk of at least one step to
        v, packed: the shortest path, or for v == u the cheapest way out and
        back (None with no neighbor).  Dijkstra over ``arcs`` with arc cost
        w * B + 1 in exact Python ints; found on first use, then kept."""
        row = self._walk_rows.get(u)
        if row is None:
            arcs = self.arcs
            cost: list[int | None] = [None] * self.num_nodes
            heap = [(w * B + 1, v) for v, w in arcs[u].items()]
            heapq.heapify(heap)
            while heap:
                c, x = heapq.heappop(heap)
                if cost[x] is None:
                    cost[x] = c
                    for y, w in arcs[x].items():
                        if cost[y] is None:
                            heapq.heappush(heap, (c + w * B + 1, y))
            row = self._walk_rows[u] = tuple(cost)
        return row

    @cached_property
    def _adjacency(self) -> np.ndarray:
        a = np.zeros((self.num_nodes, self.num_nodes))
        for u, v, _ in self.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        a.flags.writeable = False
        return a

    @cached_property
    def deployed_types(self) -> tuple[int, ...]:
        """Sorted VNF types that have at least one instance."""
        return tuple(sorted({i.vnf_type for i in self.instances}))


def adjacency_matrix(t: Topology) -> np.ndarray:
    """Symmetric binary N x N matrix with zero diagonal; built once per
    topology and read-only."""
    return t._adjacency


# ---------------------------------------------------------------------------
# serialization

def save_topology(t: Topology) -> str:
    """Serialize to a JSON document; round-trips through load_topology."""
    doc = {
        "nodes": t.num_nodes,
        "vnf_type_count": t.vnf_type_count,
        "edges": [[u, v, d] for u, v, d in t.edges],
        "instances": [[i.node, i.vnf_type, i.proc_delay] for i in t.instances],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def json_int(value) -> int:
    """An integer field of a JSON artifact: what JSON reads as an int (true
    and false too, as Python's bool is one).  Every artifact reader takes its
    integers through this, so a float or a string is refused, not truncated
    or parsed."""
    if not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


def load_topology(text: str) -> Topology:
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise TypeError("expected a JSON object")
        num_nodes = json_int(doc["nodes"])
        vnf_type_count = json_int(doc["vnf_type_count"])
        edges = tuple((json_int(u), json_int(v), json_int(d)) for u, v, d in doc["edges"])
        instances = tuple(
            VnfInstance(json_int(n), json_int(k), json_int(d)) for n, k, d in doc["instances"]
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TopologyError(f"malformed topology document: {exc}") from exc
    return Topology(num_nodes, edges, instances, vnf_type_count)


def load_topology_file(path: str | Path) -> Topology:
    try:
        return load_topology(Path(path).read_text())
    except TopologyError as exc:
        raise TopologyError(f"{path}: {exc}") from exc


def save_topology_file(t: Topology, path: str | Path) -> None:
    Path(path).write_text(save_topology(t))


# ---------------------------------------------------------------------------
# fixture

@cache
def internet2_fixture() -> Topology:
    """The bundled internet2-like 12-node fixture, loaded from package data."""
    text = resources.files("ggsfc.data").joinpath("internet2.json").read_text()
    return load_topology(text)


# ---------------------------------------------------------------------------
# change strategies

def _connected_without(
    adj: dict[int, set[int]], u: int, v: int
) -> bool:
    """True if u still reaches v after dropping edge (u, v)."""
    seen = {u}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if x == u and y == v:
                continue
            if y == v:
                return True
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return False


def mutate_cs1_stats(
    t: Topology, rng: np.random.Generator
) -> tuple[Topology, MutationStats]:
    """CS1 mutation with trial accounting; see :func:`mutate_cs1`."""
    stats = MutationStats()
    lo, hi = EDGE_DELAY_RANGE

    edges: dict[tuple[int, int], int] = {(u, v): d for u, v, d in t.edges}
    adj: dict[int, set[int]] = {u: set() for u in range(t.num_nodes)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    n = t.num_nodes

    def add_edge(u: int, v: int) -> None:
        edges[(min(u, v), max(u, v))] = int(rng.integers(lo, hi + 1))
        adj[u].add(v)
        adj[v].add(u)

    # node additions: each new node is wired to two distinct existing nodes
    for _ in range(NODE_ADD_TRIALS):
        if rng.random() < NODE_ADD_PROB:
            stats.node_add_successes += 1
            if n < 2:
                continue
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            new = n
            n += 1
            adj[new] = set()
            add_edge(new, a)
            add_edge(new, b)

    # edge additions between non-adjacent distinct pairs; an adjacent pair
    # dismisses the trial
    for _ in range(EDGE_ADD_TRIALS):
        if rng.random() < EDGE_ADD_PROB:
            stats.edge_add_successes += 1
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            if v not in adj[u]:
                add_edge(u, v)
                stats.edge_add_applied += 1

    # edge removals, dismissed whenever the removal would disconnect
    for _ in range(EDGE_REMOVE_TRIALS):
        if rng.random() < EDGE_REMOVE_PROB:
            stats.edge_remove_successes += 1
            if not edges:
                continue
            ordered = sorted(edges)
            u, v = ordered[int(rng.integers(len(ordered)))]
            if _connected_without(adj, u, v):
                del edges[(u, v)]
                adj[u].discard(v)
                adj[v].discard(u)
                stats.edge_remove_applied += 1

    mutated = Topology(
        num_nodes=n,
        edges=tuple((u, v, d) for (u, v), d in edges.items()),
        instances=t.instances,
        vnf_type_count=t.vnf_type_count,
    )
    return mutated, stats


def mutate_cs1(t: Topology, rng: np.random.Generator) -> Topology:
    """Change strategy 1: random node/edge additions then guarded edge removals.

    VNF instances are untouched.  The result is always connected and simple.
    """
    mutated, _ = mutate_cs1_stats(t, rng)
    return mutated


def relocate_instances(t: Topology, rng: np.random.Generator) -> Topology:
    """Move every VNF instance to a uniformly chosen node, keeping type/delay."""
    moved = tuple(
        inst._replace(node=int(rng.integers(0, t.num_nodes))) for inst in t.instances
    )
    return replace(t, instances=moved)


def mutate_cs2(t: Topology, rng: np.random.Generator) -> Topology:
    """Change strategy 2: CS1 followed by random relocation of all instances."""
    return relocate_instances(mutate_cs1(t, rng), rng)


# ---------------------------------------------------------------------------
# pools

STRATEGIES = {
    "cs1": mutate_cs1,
    "cs2": mutate_cs2,
}


@dataclass(frozen=True)
class TopologyPool:
    """A base topology and a batch of independently mutated variants."""

    base: Topology
    variants: tuple[Topology, ...]
    strategy: str
    seed: int


def as_topology_list(
    topologies: Topology | TopologyPool | Sequence[Topology],
) -> list[Topology]:
    """A single topology, a pool's variants, or an explicit sequence, as a list
    indexed by dataset topology ids."""
    if isinstance(topologies, Topology):
        return [topologies]
    if isinstance(topologies, TopologyPool):
        return list(topologies.variants)
    return list(topologies)


def generate_pool(
    base: Topology,
    strategy: str,
    pool_size: int = DEFAULT_POOL_SIZE,
    seed: int = 0,
) -> TopologyPool:
    """Mutate ``base`` ``pool_size`` times; deterministic for a given seed."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown change strategy {strategy!r}; "
                         f"expected {' or '.join(STRATEGIES)}")
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    mutate = STRATEGIES[strategy]
    rng = np.random.default_rng(seed)
    variants = tuple(mutate(base, rng) for _ in range(pool_size))
    return TopologyPool(base=base, variants=variants, strategy=strategy, seed=seed)


def topology_sha256(t: Topology) -> str:
    return hashlib.sha256(save_topology(t).encode()).hexdigest()


def save_pool(pool: TopologyPool, dirpath: str | Path) -> None:
    """Write a pool directory: base, numbered variants, and a manifest."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    save_topology_file(pool.base, d / "base.json")
    variant_files = []
    for i, variant in enumerate(pool.variants):
        name = f"variant_{i:03d}.json"
        save_topology_file(variant, d / name)
        variant_files.append(name)
    manifest = {
        "strategy": pool.strategy,
        "seed": pool.seed,
        "pool_size": len(pool.variants),
        "base_file": "base.json",
        "base_sha256": topology_sha256(pool.base),
        "variant_files": variant_files,
    }
    (d / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_pool(dirpath: str | Path) -> TopologyPool:
    d = Path(dirpath)
    try:
        text = (d / "manifest.json").read_text()
    except FileNotFoundError:
        raise TopologyError(f"{d} is not a pool directory (missing manifest.json)") from None
    try:
        manifest = json.loads(text)
        base_file = d / manifest["base_file"]
        variant_files = [d / name for name in manifest["variant_files"]]
        strategy, seed = manifest["strategy"], json_int(manifest["seed"])
        if not isinstance(strategy, str) or strategy not in STRATEGIES:
            raise ValueError(f"strategy {strategy!r}; expected {' or '.join(STRATEGIES)}")
        base_sha256 = manifest["base_sha256"]
        pool_size = json_int(manifest["pool_size"])
        if not variant_files:
            raise ValueError("no variant files")
        if pool_size != len(variant_files):
            raise ValueError(f"pool_size {pool_size} but {len(variant_files)} variant files")
        for path in (base_file, *variant_files):
            # is_file is False, not an error, for a name the OS cannot represent
            if path.parent != d or not path.is_file():
                raise ValueError(f"{str(path)!r} is not a file in the pool directory")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TopologyError(f"{d}: malformed pool manifest: {exc}") from exc
    base = load_topology_file(base_file)
    if topology_sha256(base) != base_sha256:
        raise TopologyError(f"{d}: base topology does not match manifest hash")
    variants = tuple(load_topology_file(path) for path in variant_files)
    return TopologyPool(base=base, variants=variants, strategy=strategy, seed=seed)
