"""Exact delay-optimal SFC path solving over the layered product graph.

A layered state pairs a node with the number of chain entries already
processed.  Transitions mirror environment actions one-for-one: a plain
move keeps the layer, a move with processing climbs one layer and is
allowed only when the arrival node hosts the pending type.  A shortest-path
search over this graph therefore finds the minimum delay reachable by any
environment walk.  The solver takes that walk through the environment
itself, one ``step`` per action it picks, so the returned path is the
environment's own record of the walk, checked to succeed at that delay.

Ties between equal-delay optima break toward fewer steps, then the
lexicographically smallest action sequence, so labels are deterministic.

The solver reads the tables the environment's moves come from:
``Topology.arcs`` (each node's neighbor -> edge delay mapping, in ascending
neighbor order) and ``Topology.proc_delays`` (each node's best processing
delay per VNF type, or None), plus ``Topology.least_walks_from`` (the
destination's and the chain's sites' rows of least walks).

Costs are (delay, steps) pairs packed into one exact int, delay * B + steps
(``topology.B``, 2**32).  Both parts are non-negative integers, so while
steps stays below B, int order is (delay, steps) order and a sum of packed
costs packs the sums of their parts.  A move costs w * B + 1 for edge delay
w, plus p * B when it processes at delay p.  Within one layer a least walk
takes at most n steps on n nodes (a shortest path at most n - 1, a way out
and back at most n), so every cost the solver forms for a chain of length L
holds at most (L + 1) * n steps; a request where that reaches B is refused
rather than packed inexactly.

The cost-to-go V(l, u) (cost_to_go) is the least packed cost from layered
state (l, u) to the goal (L, destination).  At the last layer it is the
least walk to the destination: 0 there, the shortest path elsewhere.
Below it, a walk from (l, u) walks in layer l to some site x of chain type
l, arrives there with processing, then goes on from (l + 1, x).  A walk
processes only on arrival, so the stretch from u to x is at least one step:
its least cost A(u, x) is the shortest path for u != x and, for u == x, the
cheapest way to leave x and come back.  So

    V(l, u) = min over sites x of type l of A(u, x) + p_x * B + V(l + 1, x),

exactly, as each term is the least cost of the walks through that
processing move.  ``least_walks_from(x)`` holds A(., x) (edges are
undirected, so A(u, x) = A(x, u)).  A chain type with no site, or a
one-node graph, where no move exists, leaves the request with no walk, so
it is infeasible before any row is read.  A layer's row starts as its first
site's terms and folds in each further site's with one comparison per node,
keeping the smaller: exact integers, so the row is the per-node minimum.

The label is read off V by descent (Bellman 1958).  From the source at
layer 0, take the first action in ascending (node, process) order whose
cost plus its successor's V equals the current state's V, until V is 0,
which holds at the goal alone.  Every such action starts a least walk from
its state, and every move costs at least one step, so the descent ends at
the goal on a least (delay, steps) walk.  All least walks have the same
length, and the completions from a state do not depend on how the walk got
there, so taking the least first action at each step gives the least
action sequence among them: the least (delay, steps, actions) walk, the
order the labels are defined by.
"""

from __future__ import annotations

import json
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
from . import topology
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


# walks are read for their paths, not rewards, so one config serves them all
_WALK_REWARD = RewardConfig()


def _replay(t: Topology, req: SfcRequest, actions: Sequence[Action]) -> PathResult:
    """The environment's path after the actions, with a step budget of
    exactly their count; an action the environment refuses raises."""
    s = reset(t, req, max_steps=len(actions))
    for a in actions:
        s, _, _ = step(s, a, t, _WALK_REWARD)
    return s.path_so_far


def cost_to_go(t: Topology, req: SfcRequest) -> list[list[int]] | None:
    """The packed cost-to-go V, as V[layer][node], from each layered state to
    the goal; None when no walk serves the request.  A request whose walks
    may take B steps or more is refused."""
    chain = req.chain
    base = topology.B
    if (len(chain) + 1) * t.num_nodes >= base:
        raise ValueError(
            f"a chain of length {len(chain)} on {t.num_nodes} nodes may need "
            f"{(len(chain) + 1) * t.num_nodes} steps, not below the packing bound B = {base}")
    if not set(chain).issubset(t.deployed_types) or (chain and t.num_nodes == 1):
        return None
    walks = t.least_walks_from
    row = list(walks(req.destination))
    row[req.destination] = 0
    rows = [row]
    for k in reversed(chain):
        # per site x of type k: processing there plus the cost beyond it
        sites = [(x, p * base + row[x]) for x, p in enumerate(t.proc_delays[k]) if p is not None]
        (x, c), rest = sites[0], sites[1:]
        row = [d + c for d in walks(x)]
        for x, c in rest:
            row = [a if a <= d + c else d + c for a, d in zip(row, walks(x))]
        rows.append(row)
    rows.reverse()
    return rows


def solve_optimal(t: Topology, req: SfcRequest) -> OracleResult:
    """Minimum-delay environment walk serving the request, or infeasible."""
    validate_request(t, req)
    chain = req.chain
    length = len(chain)
    if length == 0 and req.source == req.destination:
        return OracleResult(path=PathResult((), (), 0, True), actions=())
    rows = cost_to_go(t, req)
    if rows is None:
        return INFEASIBLE

    base = topology.B
    arcs = t.arcs
    # the last layer has no pending type and no layer above
    procs = [t.proc_delays[k] for k in chain] + [None]
    rows.append(None)
    layer, node = 0, req.source
    here, above, proc = rows[0], rows[1], procs[0]
    value = here[node]
    delay = value // base
    # a least walk takes exactly its packed steps
    s = reset(t, req, max_steps=value % base)
    actions: list[Action] = []
    while value:
        for v, w in arcs[node].items():
            c = w * base + 1
            if c + here[v] == value:
                # decoded as environment.step builds its records
                a = tuple.__new__(Action, (v, False))
                break
            if proc is not None and proc[v] is not None:
                c += proc[v] * base
                if c + above[v] == value:
                    a = tuple.__new__(Action, (v, True))
                    layer += 1
                    here, above, proc = above, rows[layer + 1], procs[layer]
                    break
        else:
            raise AssertionError("the cost-to-go has no move that attains it")
        actions.append(a)
        s, _, _ = step(s, a, t, _WALK_REWARD)
        value -= c
        node = v
    path = s.path_so_far
    if not (path.success and path.total_delay == delay):
        raise AssertionError("the descent's walk does not reach the goal at its cost-to-go")
    return OracleResult(path=path, actions=tuple(actions))


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

    start = reset(t, req, max_steps=walk_budget)
    # frontier at exactly s steps: (node, chain_index) -> (delay, actions, state);
    # action tuples order by node sequence first and prefer not-processing on ties
    frontier = {(start.current_node, start.chain_index): (0, (), start)}
    best: tuple[int, int, tuple[Action, ...], PathResult] | None = None
    for depth in range(1, walk_budget + 1):
        nxt: dict[tuple[int, int], tuple[int, tuple[Action, ...], object]] = {}
        for delay, acts, state in frontier.values():
            for a in valid_actions(state, t):
                s2, _, _ = step(state, a, t, _WALK_REWARD)
                d2 = s2.path_so_far.total_delay
                acts2 = acts + (a,)
                if s2.path_so_far.success:
                    # action sequences differ, so the path never decides
                    cand = (d2, depth, acts2, s2.path_so_far)
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
    _, _, actions, path = best
    return OracleResult(path=path, actions=actions)


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
