"""Exact delay-optimal SFC path solving over the layered product graph.

A layered state pairs a node with the number of chain entries already
processed.  Transitions mirror environment actions one-for-one: a plain
move keeps the layer, a move with processing climbs one layer and is
allowed only when the arrival node hosts the pending type.  A shortest-path
search over this graph therefore returns the minimum delay reachable by any
environment walk, and the returned action sequence replays through the
environment verbatim with that exact delay.

Ties between equal-delay optima break toward fewer steps, then the
lexicographically smallest action sequence, so labels are deterministic.

The search reads the tables the environment's moves come from:
``Topology.arcs`` (each node's neighbor -> edge delay mapping, in ascending
neighbor order) and ``Topology.proc_delays`` (each node's best processing
delay per VNF type, or None), plus ``Topology.distances_from`` (the
destination's and the chain's sites' shortest edge delays).  A state is
the int ``layer * n + node`` and an action the int ``2 * node + process``,
which sorts in the same order as the (node, process) pair.

The search is A* (Hart, Nilsson & Raphael 1968): the heap key of a walk
reaching state s is (delay + h(s), steps, actions), where h (delay_bound)
is a lower bound on the delay from s to the goal.  At the last layer h is
the shortest edge delay to the destination.  Below it, h(l, u) is the least,
over the sites x hosting chain type l, of u's shortest edge delay to x plus
x's processing delay plus h(l + 1, x).  A chain type with no site makes the
request infeasible before any search.

h is consistent on both kinds of move.  A plain move u -> v of edge delay w
keeps the layer, and h(l, u) <= w + h(l, v), because each term of h(l, u)
is at most w plus the same term of h(l, v) (triangle inequality).  A
processing move to v, of edge delay w and processing delay p, climbs, and
h(l, u) <= dist(u, v) + p + h(l + 1, v) <= w + p + h(l + 1, v), because v
is one of the sites h(l, u) minimizes over.  At the goal, h = 0.

So the results are those of plain Dijkstra on (delay, steps, actions), tie
breaks included.  Consistency makes every move's reduced delay
w + h(s') - h(s) non-negative, and a walk's reduced delay is
delay + h(s) - h(source): the search is Dijkstra on reduced delays.  Ordering
two walks to one state by key and then extending both by the same move
keeps their order, and every move raises the key, since steps grows.  So
the first entry popped for a state is the least key among all walks
reaching it.  For one state h is one integer, so that entry is also its
least (delay, steps, actions) walk, exactly.  At the goal h = 0, so the
label is the least (delay, steps, actions) walk, as before.

That total order also justifies the dominance pruning.  A relaxation is
pushed only when its (delay, steps) is no worse than the best pushed for
that state so far.  A strictly worse entry could only pop after a better
one had settled its state, because the keys of one state differ by their
delays alone.  So dropping it leaves the sequence of settled states, and
the result, unchanged.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .environment import (
    Action,
    PathResult,
    RewardConfig,
    SfcRequest,
    default_max_steps,
    reset,
    step,
    valid_actions,
    validate_request,
)
from .topology import Topology, TopologyPool, as_topology_list, json_int

DEFAULT_WORK_CAP = 10_000_000


@dataclass(frozen=True)
class OracleResult:
    """Optimal walk for a request, or the infeasible marker (path=None)."""

    path: PathResult | None
    actions: tuple[Action, ...]

    @property
    def feasible(self) -> bool:
        return self.path is not None

    @property
    def optimal_delay(self) -> int:
        if self.path is None:
            raise ValueError("infeasible result has no optimal delay")
        return self.path.total_delay


INFEASIBLE = OracleResult(path=None, actions=())

# brute_force_optimal compares action sequences as tuples of
# (node, process-as-int), which orders by node sequence first and prefers
# not-processing on ties
_ActionKey = tuple[tuple[int, int], ...]


# replays read paths, not rewards, so one config serves them all
_REPLAY_REWARD = RewardConfig()


def _replay(t: Topology, req: SfcRequest, actions: Sequence[Action]) -> PathResult:
    """The environment's path after the actions, with a step budget of
    exactly their count; an action the environment refuses raises."""
    s = reset(t, req, max_steps=len(actions))
    for a in actions:
        s, _, _ = step(s, a, t, _REPLAY_REWARD)
    return s.path_so_far


def _result_from_actions(
    t: Topology, req: SfcRequest, actions: tuple[Action, ...], expected_delay: int
) -> OracleResult:
    """Build the PathResult by replaying the actions through the environment."""
    p = _replay(t, req, actions)
    if not (p.success and p.total_delay == expected_delay):
        raise AssertionError("solver emitted a walk the environment cannot replay")
    return OracleResult(path=p, actions=actions)


def delay_bound(t: Topology, req: SfcRequest) -> list[Sequence[int]] | None:
    """The search's lower bound h, as h[layer][node], on the delay still to
    come from each layered state; None when a chain type has no site."""
    if not set(req.chain).issubset(t.deployed_types):
        return None
    dist = t.distances_from
    row = dist(req.destination)
    bound = [row]
    for k in reversed(req.chain):
        # per site x of type k: processing there plus the bound beyond it
        sites = [(x, p + row[x]) for x, p in enumerate(t.proc_delays[k]) if p is not None]
        rows = [[d + c for d in dist(x)] for x, c in sites]
        row = rows[0] if len(rows) == 1 else list(map(min, *rows))
        bound.append(row)
    bound.reverse()
    return bound


def solve_optimal(t: Topology, req: SfcRequest) -> OracleResult:
    """Minimum-delay environment walk serving the request, or infeasible."""
    validate_request(t, req)
    chain = req.chain
    length = len(chain)
    if length == 0 and req.source == req.destination:
        return OracleResult(path=PathResult((), (), 0, True), actions=())
    bound = delay_bound(t, req)
    if bound is None:
        return INFEASIBLE

    n = t.num_nodes
    arcs = t.arcs
    procs = [t.proc_delays[k] for k in chain] + [None]
    goal = length * n + req.destination
    size = (length + 1) * n
    settled = bytearray(size)
    # best (delay, steps) pushed per state, packed as delay * size + steps:
    # a walk that settles a state never repeats one, so steps < size
    best: list[float] = [math.inf] * size
    # (delay + h, steps, actions, state, delay)
    heap: list[tuple[int, int, tuple[int, ...], int, int]] = [
        (bound[0][req.source], 0, (), req.source, 0)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        _, steps, acts, state, delay = pop(heap)
        if settled[state]:
            continue
        settled[state] = 1
        if state == goal:
            actions = tuple(Action(code >> 1, bool(code & 1)) for code in acts)
            return _result_from_actions(t, req, actions, delay)
        layer, node = divmod(state, n)
        proc = procs[layer]
        here = bound[layer]
        if proc is not None:
            above = bound[layer + 1]
        steps += 1
        base = state - node
        for v, w in arcs[node].items():
            d = delay + w
            key = d * size + steps
            s2 = base + v
            if key <= best[s2]:
                best[s2] = key
                push(heap, (d + here[v], steps, acts + (2 * v,), s2, d))
            if proc is not None:
                p = proc[v]
                if p is not None:
                    d += p
                    key = d * size + steps
                    s2 += n
                    if key <= best[s2]:
                        best[s2] = key
                        push(heap, (d + above[v], steps, acts + (2 * v + 1,), s2, d))
    return INFEASIBLE


# ---------------------------------------------------------------------------
# independent check: exhaustive bounded-depth search driven by the environment

def brute_force_optimal(
    t: Topology,
    req: SfcRequest,
    walk_budget: int | None = None,
    work_cap: int = DEFAULT_WORK_CAP,
) -> OracleResult:
    """Enumerate environment action sequences up to walk_budget steps.

    Transitions come from literally driving valid_actions/step, so this is a
    solver-independent ground truth.  Prefixes landing on the same
    (node, chain-progress) at the same depth are pruned to the best
    (delay, action-sequence) pair, which cannot discard any optimum because
    completions are prefix-independent.  The default budget N*(chain+1) is
    sufficient: an optimal walk never revisits a layered state (positive
    delays), so longer sequences are never optimal.
    """
    validate_request(t, req)
    length = len(req.chain)
    if length == 0 and req.source == req.destination:
        return OracleResult(path=PathResult((), (), 0, True), actions=())
    if walk_budget is None:
        walk_budget = t.num_nodes * (length + 1)
    if walk_budget < 1:
        raise ValueError("walk_budget must be >= 1")
    max_degree = max(len(a) for a in t.arcs)
    work = walk_budget * t.num_nodes * (length + 1) * max_degree * 2
    if work > work_cap:
        raise ValueError(
            f"walk budget {walk_budget} needs ~{work} expansions, over the cap {work_cap}"
        )

    cfg = RewardConfig()
    start = reset(t, req, max_steps=walk_budget)
    # frontier at exactly s steps: (node, chain_index) -> (delay, action-key, state)
    frontier = {(start.current_node, start.chain_index): (0, (), start)}
    best: tuple[int, int, _ActionKey] | None = None
    for depth in range(1, walk_budget + 1):
        nxt: dict[tuple[int, int], tuple[int, _ActionKey, object]] = {}
        for delay, acts, state in frontier.values():
            for a in valid_actions(state, t):
                s2, _, _ = step(state, a, t, cfg)
                d2 = s2.path_so_far.total_delay
                acts2 = acts + ((a.next_node, int(a.process)),)
                if s2.path_so_far.success:
                    cand = (d2, depth, acts2)
                    if best is None or cand < best:
                        best = cand
                    continue
                key = (s2.current_node, s2.chain_index)
                old = nxt.get(key)
                if old is None or (d2, acts2) < (old[0], old[1]):
                    nxt[key] = (d2, acts2, s2)
        frontier = nxt
        if not frontier:
            break
    if best is None:
        return INFEASIBLE
    delay, _, acts = best
    actions = tuple(Action(n, bool(p)) for n, p in acts)
    return _result_from_actions(t, req, actions, delay)


# ---------------------------------------------------------------------------
# labeled datasets

@dataclass(frozen=True)
class LabeledExample:
    topology_id: int
    request: SfcRequest
    actions: tuple[Action, ...]
    optimal_delay: int


@dataclass(frozen=True)
class LabeledDataset:
    examples: tuple[LabeledExample, ...]
    dropped_infeasible: int
    dropped_over_budget: int

    def __len__(self) -> int:
        return len(self.examples)


def label_dataset(
    topologies: Topology | TopologyPool | Sequence[Topology],
    requests: Iterable[SfcRequest | tuple[int, SfcRequest]],
) -> LabeledDataset:
    """Solve each request exactly and keep the replayable labels.

    ``topologies`` may be a single topology (all ids 0), an explicit list,
    or a pool (ids index its variants).  Each request is an SfcRequest or a
    (topology_id, SfcRequest) pair.  Infeasible requests are dropped and
    counted, as are optima too long to replay inside the environment's
    default step budget.  A topology id that does not index the topologies
    is refused, naming the request's position.
    """
    topo_list = as_topology_list(topologies)
    examples: list[LabeledExample] = []
    infeasible = 0
    over_budget = 0
    for i, entry in enumerate(requests):
        tid, req = entry if isinstance(entry, tuple) else (0, entry)
        if not 0 <= tid < len(topo_list):
            raise ValueError(_id_out_of_range(f"request {i}", tid, len(topo_list)))
        t = topo_list[tid]
        res = solve_optimal(t, req)
        if not res.feasible:
            infeasible += 1
            continue
        if len(res.actions) > default_max_steps(t, req):
            over_budget += 1
            continue
        examples.append(LabeledExample(tid, req, res.actions, res.optimal_delay))
    return LabeledDataset(tuple(examples), infeasible, over_budget)


def _id_out_of_range(where: str, tid: int, count: int) -> str:
    return (f"{where} (topology_id {tid}) is out of range: expected 0 <= id < {count}, "
            "the number of topologies given")


def check_topology_ids(ds: LabeledDataset, count: int, name: str) -> None:
    """Refuse an example whose topology_id does not index ``count``
    topologies; name leads the message, which gives the example's index."""
    for i, ex in enumerate(ds.examples):
        if not 0 <= ex.topology_id < count:
            raise ValueError(_id_out_of_range(f"{name}: example {i}", ex.topology_id, count))


def check_labels(
    ds: LabeledDataset,
    topologies: Topology | TopologyPool | Sequence[Topology],
    name: str,
) -> None:
    """Refuse labels that do not belong to these topologies.

    Each example's id must be in range, and it must replay, on the topology
    its id names, to a successful walk with its recorded optimal_delay.  name
    (the dataset's file) leads the error message, which also gives the
    example index and topology id.
    """
    topo_list = as_topology_list(topologies)
    check_topology_ids(ds, len(topo_list), name)
    for i, ex in enumerate(ds.examples):
        where = f"{name}: example {i} (topology_id {ex.topology_id})"
        try:
            p = _replay(topo_list[ex.topology_id], ex.request, ex.actions)
        except ValueError as exc:
            raise ValueError(f"{where} does not replay on its topology: {exc}") from None
        if not (p.success and p.total_delay == ex.optimal_delay):
            got = f"delay {p.total_delay}" if p.success else "a failed walk"
            raise ValueError(f"{where} replays to {got}, not its optimal_delay "
                             f"{ex.optimal_delay}")


def save_dataset(ds: LabeledDataset) -> str:
    doc = {
        "dropped_infeasible": ds.dropped_infeasible,
        "dropped_over_budget": ds.dropped_over_budget,
        "examples": [
            {
                "topology_id": ex.topology_id,
                "request": {
                    "source": ex.request.source,
                    "destination": ex.request.destination,
                    "chain": list(ex.request.chain),
                },
                "action_sequence": [[a.next_node, int(a.process)] for a in ex.actions],
                "optimal_delay": ex.optimal_delay,
            }
            for ex in ds.examples
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _process_flag(p) -> bool:
    # save_dataset writes 0 or 1 (JSON false/true read as the same ints);
    # bool() would read "false", [0] or 2 as True
    try:
        return {0: False, 1: True}[json_int(p)]
    except (KeyError, TypeError):
        raise ValueError(f"process flag {p!r} is not 0 or 1") from None


def load_dataset(text: str) -> LabeledDataset:
    try:
        doc = json.loads(text)
        examples = tuple(
            LabeledExample(
                topology_id=json_int(rec["topology_id"]),
                request=SfcRequest(
                    source=json_int(rec["request"]["source"]),
                    destination=json_int(rec["request"]["destination"]),
                    chain=tuple(json_int(k) for k in rec["request"]["chain"]),
                ),
                actions=tuple(Action(json_int(n), _process_flag(p))
                              for n, p in rec["action_sequence"]),
                optimal_delay=json_int(rec["optimal_delay"]),
            )
            for rec in doc["examples"]
        )
        dropped = {key: json_int(doc[key])
                   for key in ("dropped_infeasible", "dropped_over_budget")}
        for key, count in dropped.items():
            if count < 0:
                raise ValueError(f"{key} {count} is negative")
        return LabeledDataset(examples=examples, **dropped)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed dataset document: {exc}") from exc


def save_dataset_file(ds: LabeledDataset, path: str | Path) -> None:
    Path(path).write_text(save_dataset(ds))


def load_dataset_file(path: str | Path) -> LabeledDataset:
    try:
        return load_dataset(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
