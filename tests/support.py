"""Test tools kept out of the library: a finite-difference gradient check,
random GRU parameters, random VNF placement, what the suites share (the
tiny 4-node graph and its policy config, seeded random connected graphs and
small random instances, a briefly SL-trained fixture policy, and a call
counter for spies), the seeded generator the bundled internet2 fixture was
frozen from (at any size), a plain-Dijkstra reference solver and the
search bound's reference rows, a row-by-row check of lockstep walks against
their own rollouts, the per-step episode backward as a byte reference, and
hypothesis strategies for random requests and for artifact documents with
one fuzzed value."""

from __future__ import annotations

import copy
import functools
import heapq
import json
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from ggsfc import evaluation, nn, policy
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
from ggsfc.policy import ActionDistribution, Lockstep, PolicyConfig, init_policy_params, rollout
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


def evaluate_greedy(params: ParamSet, cfg: PolicyConfig, pairs) -> evaluation.TestOutcome:
    """The greedy policy on each (topology, request) pair, measured as one
    test of the evaluation protocol: unservable requests excluded and
    counted, the feasible pairs walked together by ``greedy_walks``."""
    return evaluation._evaluate_tests(
        [pairs], functools.partial(evaluation.greedy_walks, params, cfg))[0]


def walk_lockstep(params: ParamSet, cfg: PolicyConfig, pairs, order=None):
    """Walk a ``Lockstep`` of pairs with one ``rollout(..., lockstep=)`` call
    per pair of order (by default pairs itself), with ``policy.decode_step``
    and ``nn.sigmoid`` spied on.  Returns the lockstep and, per call, the
    walks that call filled, in slice order, with each ``decode_step`` it
    made: its distribution and the logits of the next sigmoid call, the
    process decision's.  ``check_lockstep_rows`` maps the rows to walks."""
    lockstep = Lockstep(params, cfg, pairs)
    calls, steps = [], []
    real_decode_step, real_sigmoid = policy.decode_step, nn.sigmoid

    def decode_step(*args):
        out = real_decode_step(*args)
        steps.append([out[0], None])
        return out

    def sigmoid(x):
        if steps and steps[-1][1] is None:
            steps[-1][1] = np.array(x)
        return real_sigmoid(x)

    policy.decode_step, nn.sigmoid = decode_step, sigmoid
    try:
        for t, req in pairs if order is None else order:
            unwalked = [j for j, w in enumerate(lockstep._walks) if w is None]
            rollout(params, cfg, t, req, lockstep=lockstep)
            calls.append(([j for j in unwalked if lockstep._walks[j] is not None], steps[:]))
            steps.clear()
    finally:
        policy.decode_step, nn.sigmoid = real_decode_step, real_sigmoid
    return lockstep, calls


def check_lockstep_rows(lockstep: Lockstep, calls) -> int:
    """Check a ``walk_lockstep`` run against each walk's own greedy rollout:
    at a slice's k-th step its rows are its walks still running, in slice
    order, and each row's distribution (node probabilities, masks, process
    logits) has the bytes of step k of that walk's rollout, and its process
    decision read the bytes of the rollout's logit at the chosen node, so
    its action and log-prob are the rollout's; each walk's path is the
    rollout's.  Returns the number of rows checked."""
    rows = 0
    for filled, steps in calls:
        traces = {j: rollout(lockstep.params, lockstep.cfg, *lockstep._pairs[j]) for j in filled}
        assert len(steps) == max((len(tr.steps) for tr in traces.values()), default=0)
        for k, (dist, decided) in enumerate(steps):
            live = [j for j in filled if len(traces[j].steps) > k]
            assert len(dist.node_probs) == len(decided) == len(live), (k, live)
            for r, j in enumerate(live):
                want = traces[j].steps[k]
                for name in ActionDistribution._fields:
                    got = getattr(dist, name)[r].tobytes()
                    assert got == getattr(want.cache[4], name).tobytes(), (j, k, name)
                chosen = want.cache[4].process_logits[want.action.next_node]
                assert decided[r].tobytes() == chosen.tobytes(), (j, k, "decision")
            rows += len(live)
        for j in filled:
            assert lockstep._walks[j] == traces[j].path, j
    return rows


def grad_set(params: ParamSet, grads) -> GradSet:
    """A GradSet holding the given gradients, each added as a one-item
    stack."""
    g = GradSet(params)
    for name, value in grads.items():
        g.add_stack(name, np.array(value, dtype=np.float64)[None])
    return g


def reference_gru_cell_backward(grad_h_new, cache, params, prefix):
    """One GRU cell's backward, reading the prefixed parameters, with its
    parameter gradients as products of this cell alone, keyed with the
    prefix: np.outer for a 1-D cell, one product per 2-D slice otherwise."""
    x, h_prev, z, r, rh, hbar, _ = cache
    w = SimpleNamespace(**{name: params[prefix + name] for name in gru_param_shapes(1, 1)})
    dz = grad_h_new * (hbar - h_prev)
    dhbar = grad_h_new * z
    dh_prev = grad_h_new * (1.0 - z)
    da_h = dhbar * (1.0 - hbar * hbar)
    drh = da_h @ w.U_h.T
    dr = drh * h_prev
    dh_prev = dh_prev + drh * r
    da_z = dz * z * (1.0 - z)
    da_r = dr * r * (1.0 - r)
    dx = da_h @ w.W_h.T + da_z @ w.W_z.T + da_r @ w.W_r.T
    dh_prev = dh_prev + da_z @ w.U_z.T + da_r @ w.U_r.T
    grads = {}
    for gate, da, h in (("z", da_z, h_prev), ("r", da_r, h_prev), ("h", da_h, rh)):
        if x.ndim == 1:
            grads.update({f"W_{gate}": np.outer(x, da), f"U_{gate}": np.outer(h, da),
                          f"b_{gate}": da})
        else:
            grads.update({f"W_{gate}": np.swapaxes(x, -1, -2) @ da,
                          f"U_{gate}": np.swapaxes(h, -1, -2) @ da,
                          f"b_{gate}": da.sum(axis=-2)})
    return dx, dh_prev, {prefix + name: g for name, g in grads.items()}


def reference_encode_backward(grad_h, caches, params):
    """(grad_annotations, param grads) round by round, each parameter's
    rounds added last round first; a stack has one slice per segment."""
    grads: dict[str, np.ndarray] = {}
    dh = grad_h
    for a, gru_cache in reversed(caches):
        dmsg, dh_prev, g = reference_gru_cell_backward(dh, gru_cache, params, "enc.")
        for name, value in g.items():
            grads[name] = grads.get(name, 0.0) + value
        dh = a.T @ dmsg + dh_prev
    return dh, grads


def reference_decode_step_backward(coeff, action, cache, params, grad_hidden_out):
    """(grad_enc_h, grad_hidden_prev, grad_node_embedding, param grads) of
    coeff * log pi(action) at one decode step, every product this step's
    own."""
    enc_h, hidden, s, gru_cache, dist = cache
    i = action.next_node
    dlogits = coeff * nn.log_prob_grad(dist.node_probs, i)
    ds = np.outer(dlogits, params["score.v"])
    grads = {"score.v": s.T @ dlogits}
    if dist.process_mask[i]:
        sig = nn.sigmoid(dist.process_logits[i : i + 1])[0]
        dproc = coeff * ((1.0 - sig) if action.process else -sig)
        ds[i] += dproc * params["proc.w"]
        grads["proc.w"] = dproc * s[i]
        grads["proc.b"] = np.array([dproc])
    ds_pre = ds * (1.0 - s * s)
    grad_enc_h = ds_pre @ params["score.W_emb"].T
    grads["score.W_emb"] = enc_h.T @ ds_pre
    ds_pre_sum = ds_pre.sum(axis=0)
    grads["score.W_hid"] = np.outer(hidden, ds_pre_sum)
    dhidden = ds_pre_sum @ params["score.W_hid"].T + grad_hidden_out
    dx, dh_prev, gru_grads = reference_gru_cell_backward(dhidden, gru_cache, params, "dec.")
    grads.update(gru_grads)
    return grad_enc_h, dh_prev, dx[len(dx) - len(hidden) :], grads


def reference_episode_gradients(trace, coeffs, every_segment=False) -> GradSet:
    """The episode backward step by step: each decode step's gradients
    added as one dict, then the encoder's round by round, each reached
    segment's added as one dict in segment order, every sum starting from
    0.0.  With every_segment the encoder backward runs over the unreached
    segments too."""
    params, steps = trace.params, trace.steps
    reached = steps[-1].segment + 1
    segments = len(trace.request.chain) + 1 if every_segment else reached
    sums: dict[str, np.ndarray] = {}

    def add(grads):
        for name, value in grads.items():
            sums[name] = sums.get(name, 0.0) + value

    grad_enc = np.zeros((segments, trace.topology.num_nodes, len(params["score.v"])))
    dh = np.zeros(len(params["score.v"]))
    for step, coeff in zip(reversed(steps), reversed(np.asarray(coeffs, dtype=np.float64))):
        genc, dh, gnode, step_grads = reference_decode_step_backward(
            coeff, step.action, step.cache, params, dh)
        add(step_grads)
        grad_enc[step.segment] += genc
        grad_enc[step.segment][step.node] += gnode
    encoder = [(a, (*(c[:segments] for c in gru_cache[:6]), gru_cache[6]))
               for a, gru_cache in trace.encoder]
    _, enc_grads = reference_encode_backward(grad_enc, encoder, params)
    for seg in range(reached):
        add({name: g[seg] for name, g in enc_grads.items()})
    grads = GradSet(params)
    for name, value in sums.items():
        grads[name][...] = value
    return grads


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


def reference_delay_bound(t: Topology, req: SfcRequest) -> list[list[int]] | None:
    """oracle.delay_bound's rows by their first formula: one row per site of
    a chain type, then the per-node min() over them; the reference the
    solver's folded rows must equal."""
    if not set(req.chain).issubset(t.deployed_types):
        return None
    row = t.distances_from(req.destination)
    bound = [row]
    for k in reversed(req.chain):
        sites = [(x, p + row[x]) for x, p in enumerate(t.proc_delays[k]) if p is not None]
        rows = [[d + c for d in t.distances_from(x)] for x, c in sites]
        row = rows[0] if len(rows) == 1 else list(map(min, *rows))
        bound.append(row)
    bound.reverse()
    return bound


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
