"""Test tools kept out of the library: a finite-difference gradient check,
random GRU parameters, random VNF placement, what the suites share (the
tiny 4-node graph and its policy config, seeded random connected graphs and
small random instances, a briefly SL-trained fixture policy, and a call
counter for spies), the seeded generator the bundled internet2 fixture was
frozen from (at any size), a plain-Dijkstra reference solver, and hypothesis
strategies for random requests and for artifact documents with one fuzzed
value."""

from __future__ import annotations

import copy
import functools
import heapq
import json
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from ggsfc.environment import (
    Action,
    PathResult,
    RewardConfig,
    SfcRequest,
    generate_requests,
    reset,
    step,
    validate_request,
)
from ggsfc.nn import GradSet, ParamSet, gru_param_shapes, uniform_init
from ggsfc.oracle import INFEASIBLE, OracleResult, label_dataset
from ggsfc.policy import PolicyConfig, init_policy_params
from ggsfc.topology import (
    EDGE_DELAY_RANGE,
    Topology,
    TopologyError,
    VnfInstance,
    internet2_fixture,
)
from ggsfc.training import HyperParams, train_sl

FIXTURE_SEED = 12


def tiny_topology(instances=None):
    """0 -2- 1 -3- 2 -1- 3 with chord 0 -9- 3; by default two type-0
    instances on node 1 (processing 7 and 3) and one type-1 on node 2 (5)."""
    if instances is None:
        instances = (VnfInstance(1, 0, 7), VnfInstance(1, 0, 3), VnfInstance(2, 1, 5))
    return Topology(num_nodes=4, edges=((0, 1, 2), (1, 2, 3), (2, 3, 1), (0, 3, 9)),
                    instances=instances, vnf_type_count=2)


def tiny_cfg(t_prop=2):
    """A small policy over tiny_topology's two VNF types."""
    return PolicyConfig(hidden_dim=8, vnf_type_count=2, t_prop=t_prop)


def counted(calls: dict[str, int], key: str, fn: Callable) -> Callable:
    """fn, adding one to calls[key] on each call."""
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


@dataclass
class GradCheckReport:
    rel_err: dict[str, float]
    max_rel_err: float
    passed: bool
    tolerance: float

    def __str__(self) -> str:
        worst = max(self.rel_err, key=self.rel_err.get) if self.rel_err else "-"
        status = "PASS" if self.passed else "FAIL"
        return (
            f"grad check {status}: max rel err {self.max_rel_err:.3e} "
            f"(worst tensor {worst}, tolerance {self.tolerance:.1e})"
        )


def finite_diff_check(
    f: Callable[[ParamSet], tuple[float, GradSet]],
    params: ParamSet,
    h: float = 1e-5,
    tolerance: float = 1e-6,
    max_coords_per_tensor: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare f's analytic gradient against central differences.

    f must be deterministic and return (scalar value, analytic GradSet).
    Per tensor, the relative error is ||ga - gn||_2 / max(||ga||_2, ||gn||_2)
    over the probed coordinates (all of them unless max_coords_per_tensor
    caps the probe count, in which case a seeded uniform subset is used).
    """
    value, analytic = f(params)
    if not np.isfinite(value):
        raise ValueError(f"f(params) is not finite: {value}")
    if max_coords_per_tensor is not None and rng is None:
        rng = np.random.default_rng(0)

    rel_err: dict[str, float] = {}
    for name in params.names():
        tensor = params[name]
        flat_idx = np.arange(tensor.size)
        if max_coords_per_tensor is not None and tensor.size > max_coords_per_tensor:
            flat_idx = rng.choice(tensor.size, size=max_coords_per_tensor, replace=False)
            flat_idx.sort()
        ga = analytic[name].reshape(-1)[flat_idx]
        gn = np.empty(len(flat_idx))
        flat = tensor.reshape(-1)  # view; probes mutate in place and restore
        for j, idx in enumerate(flat_idx):
            orig = flat[idx]
            flat[idx] = orig + h
            up, _ = f(params)
            flat[idx] = orig - h
            down, _ = f(params)
            flat[idx] = orig
            gn[j] = (up - down) / (2.0 * h)
        denom = max(np.linalg.norm(ga), np.linalg.norm(gn))
        rel_err[name] = 0.0 if denom < 1e-12 else float(np.linalg.norm(ga - gn) / denom)

    worst = max(rel_err.values()) if rel_err else 0.0
    return GradCheckReport(
        rel_err=rel_err, max_rel_err=worst, passed=worst <= tolerance, tolerance=tolerance
    )


def init_gru_params(
    d_in: int, d_hidden: int, rng: np.random.Generator, prefix: str = ""
) -> dict[str, np.ndarray]:
    """One GRU's tensors: uniform +-1/sqrt(fan-in) weights, zero biases."""
    return {prefix + name: np.zeros(shape) if name.startswith("b") else uniform_init(shape, rng)
            for name, shape in gru_param_shapes(d_in, d_hidden).items()}


def deploy_vnfs(
    t: Topology,
    per_type_count: int,
    proc_delay_range: tuple[int, int],
    rng: np.random.Generator,
    vnf_type_count: int | None = None,
) -> Topology:
    """Place ``per_type_count`` instances of each VNF type on distinct nodes.

    ``t`` must not already carry instances.  Node choices are uniform and
    independent per type; processing delays are uniform in the given
    inclusive range.
    """
    if t.instances:
        raise TopologyError("topology already has VNF instances deployed")
    k = t.vnf_type_count if vnf_type_count is None else vnf_type_count
    lo, hi = proc_delay_range
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid processing delay range ({lo}, {hi})")
    if per_type_count > t.num_nodes:
        raise ValueError(
            f"cannot place {per_type_count} instances of one type on "
            f"{t.num_nodes} distinct nodes"
        )
    instances = []
    for vnf_type in range(k):
        nodes = rng.choice(t.num_nodes, size=per_type_count, replace=False)
        for node in nodes:
            instances.append(
                VnfInstance(int(node), vnf_type, int(rng.integers(lo, hi + 1)))
            )
    return replace(t, instances=tuple(instances), vnf_type_count=k)


def random_connected_graph(
    num_nodes: int, num_edges: int, rng: np.random.Generator
) -> Topology:
    lo, hi = EDGE_DELAY_RANGE
    edges: dict[tuple[int, int], int] = {}
    for v in range(1, num_nodes):
        u = int(rng.integers(0, v))
        edges[(u, v)] = int(rng.integers(lo, hi + 1))
    while len(edges) < num_edges:
        u, v = (int(x) for x in rng.choice(num_nodes, size=2, replace=False))
        key = (min(u, v), max(u, v))
        if key not in edges:
            edges[key] = int(rng.integers(lo, hi + 1))
    return Topology(
        num_nodes=num_nodes,
        edges=tuple((u, v, d) for (u, v), d in edges.items()),
        instances=(),
        vnf_type_count=0,
    )


def random_instance(rng: np.random.Generator) -> Topology:
    """A connected graph of n = 4-8 nodes with up to n - 1 extra edges, and
    one instance of each of 1-3 VNF types."""
    n = int(rng.integers(4, 9))
    extra = int(rng.integers(0, n))
    base = random_connected_graph(n, n - 1 + extra, rng)
    k = int(rng.integers(1, 4))
    return deploy_vnfs(base, per_type_count=1, proc_delay_range=(1, 10),
                       rng=rng, vnf_type_count=k)


def fixture_like_graph(num_nodes: int, sites_per_type: int, seed: int) -> Topology:
    """A random connected graph of the fixture's shape at any size: n + n // 4
    edges with delays 1..10, and five VNF types with sites_per_type
    instances each on distinct nodes, processing delays 1..10."""
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(num_nodes, num_nodes + num_nodes // 4, rng)
    graph = replace(graph, vnf_type_count=5)
    return deploy_vnfs(graph, sites_per_type, proc_delay_range=(1, 10), rng=rng)


def generate_fixture_topology(seed: int = FIXTURE_SEED) -> Topology:
    """Regenerate the bundled 12-node fixture (the frozen data file's source):
    12 nodes, 15 edges, two sites per VNF type."""
    return fixture_like_graph(12, 2, seed)


@functools.cache
def _briefly_trained() -> tuple[ParamSet, PolicyConfig]:
    fixture = internet2_fixture()
    cfg = PolicyConfig()
    labels = label_dataset(fixture, generate_requests(fixture, 40, (1, 3),
                                                      np.random.default_rng(0)))
    params, _ = train_sl(init_policy_params(cfg, seed=0), cfg, fixture, labels,
                         HyperParams(alpha_sl=0.03, sl_epochs=6, seed=0))
    return params, cfg


def briefly_trained_policy() -> tuple[ParamSet, PolicyConfig]:
    """A default-config policy SL-trained on 40 fixture labels (alpha 0.03,
    6 epochs), which walks some requests to success and fails others.  It
    is trained once per session; each caller gets its own copy."""
    params, cfg = _briefly_trained()
    return params.copy(), cfg


@st.composite
def small_requests(draw, nodes=(2, 6), delay=st.integers(1, 10)):
    """A connected graph of nodes[0]-nodes[1] nodes (a random spanning tree
    plus extra edges) with edge and processing delays drawn from `delay`,
    random instances of 1-3 types, and a request whose chain of length 0-3
    may name a type nothing hosts."""
    n = draw(st.integers(*nodes))
    edges = {(draw(st.integers(0, v - 1)), v): draw(delay) for v in range(1, n)}
    node = st.integers(0, n - 1)
    for u, v, d in draw(st.lists(st.tuples(node, node, delay), max_size=n)):
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), d)
    k = draw(st.integers(1, 3))
    vnf_type = st.integers(0, k - 1)
    instances = draw(st.lists(st.builds(VnfInstance, node, vnf_type, delay), max_size=2 * n))
    t = Topology(n, tuple((u, v, d) for (u, v), d in edges.items()), tuple(instances), k)
    length = draw(st.integers(0, 3))
    chain = draw(st.lists(vnf_type, min_size=length, max_size=length))
    return t, SfcRequest(draw(node), draw(node), tuple(chain))


@st.composite
def graph_requests(draw, nodes=(8, 48)):
    """A random connected graph of nodes[0]-nodes[1] nodes at the fixture's
    density (n + n // 4 edges), with edge and processing delays in
    1..spread for a drawn spread (a small one makes many equal-delay ties),
    five VNF types on 1-3 sites each, and a request with a chain of 0-4
    entries."""
    n = draw(st.integers(*nodes))
    spread = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = random_connected_graph(n, n + n // 4, rng)
    t = replace(t, edges=tuple((u, v, 1 + (d - 1) % spread) for u, v, d in t.edges),
                vnf_type_count=5)
    t = deploy_vnfs(t, draw(st.integers(1, 3)), (1, spread), rng)
    node = st.integers(0, n - 1)
    chain = draw(st.lists(st.integers(0, 4), max_size=4))
    return t, SfcRequest(draw(node), draw(node), tuple(chain))


def dijkstra_optimal(t: Topology, req: SfcRequest) -> OracleResult:
    """Plain Dijkstra over the layered states (layer, node), its heap keyed
    on (delay, steps, actions) with actions as (node, process) pairs, and no
    pruning or bound: the reference oracle.solve_optimal must equal result
    for result."""
    validate_request(t, req)
    if not req.chain and req.source == req.destination:
        return OracleResult(PathResult((), (), 0, True), ())
    goal = (len(req.chain), req.destination)
    heap: list = [(0, 0, (), (0, req.source))]
    settled = set()
    while heap:
        delay, steps, acts, state = heapq.heappop(heap)
        if state in settled:
            continue
        settled.add(state)
        if state == goal:
            actions = tuple(Action(v, p) for v, p in acts)
            s = reset(t, req, max_steps=len(actions))
            for a in actions:
                s, _, _ = step(s, a, t, RewardConfig())
            return OracleResult(s.path_so_far, actions)
        layer, u = state
        for v, w in t.arcs[u].items():
            heapq.heappush(heap, (delay + w, steps + 1, acts + ((v, False),), (layer, v)))
            if layer < len(req.chain):
                p = t.proc_delays[req.chain[layer]][v]
                if p is not None:
                    heapq.heappush(heap, (delay + w + p, steps + 1, acts + ((v, True),),
                                          (layer + 1, v)))
    return INFEASIBLE


# JSON text of a drawn value: an int in [-1000, 1000], 1e400 or -1e400 (read
# as +-inf), null, or a short string, list or object.  Every size stays
# bounded: a loader really allocates a node count or a hidden width it is
# given, so an unbounded one could exhaust memory.
JSON_VALUES = st.one_of(
    st.integers(-1000, 1000).map(str),
    st.sampled_from(["1e400", "-1e400", "null"]),
    st.text(max_size=3).map(json.dumps),
    st.lists(st.integers(-1000, 1000) | st.none(), max_size=3).map(json.dumps),
    st.dictionaries(st.text(max_size=3), st.integers(-1000, 1000), max_size=2).map(json.dumps),
)


# each fuzz test rewrites its one file on every example, so sharing a
# function-scoped tmp_path between examples is safe
FUZZ = settings(derandomize=True, deadline=None, max_examples=200,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def leaf_paths(doc, path: tuple = ()) -> list[tuple]:
    """The key and index path of every scalar in a parsed JSON document."""
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        return [path]
    return [leaf for key, child in children for leaf in leaf_paths(child, path + (key,))]


@st.composite
def one_leaf_replaced(draw, doc, paths: list[tuple] | None = None) -> str:
    """doc as JSON text, with the scalar at one of paths (by default, any
    scalar) replaced by a JSON_VALUES value."""
    path = draw(st.sampled_from(paths if paths is not None else leaf_paths(doc)))
    marker = "<fuzzed leaf>"
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = marker
    return json.dumps(doc).replace(json.dumps(marker), draw(JSON_VALUES))
