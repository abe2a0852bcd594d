"""Graph-encoder + recurrent-decoder policy for SFC path generation.

The encoder is a gated graph network: node annotations (VNF availability
bits, source/destination flags, a hosts-pending-type flag, zero-padded to
the hidden width) are propagated T_prop rounds, each round aggregating
neighbor states through the adjacency matrix and updating through one
shared GRU cell.  Node count is a runtime quantity, so one parameter set
runs on any topology.

The decoder is a GRU fed, per step, with the remaining chain as a
multi-hot, the pending type as a one-hot, and the current node's encoder
embedding.  Each candidate node u is scored additively,
logit(u) = v . tanh(h_u W_emb + d W_hid), masked to the current neighbors,
and softmaxed; a sigmoid head over the same joint features decides whether
to process the pending VNF at u (forced to exactly 0 where invalid).  The
hosts-pending-type annotation depends on chain progress, so each chain
index is its own encoder segment.  An episode annotates all len(chain)+1
segments up front and encodes them once, as one (S, n, H) stack; each
segment keeps the bits it would get encoded alone (see the ``nn``
docstring), including segments the episode never reaches.

Every episode is one forward pass that returns one ``EpisodeTrace``: a
``rollout`` picks its actions from the policy, ``teacher_force`` takes them
from a label.  The trace carries the params and the caches of that pass,
and ``episode_gradients(trace, coeffs)`` backpropagates sum_t c_t log pi(a_t)
through them alone; SL ascends it with c_t = 1 along a label, REINFORCE
with c_t = G_t along a rollout.  It takes the decode steps last first, in
stacks of at most BACKWARD_STACK, each in two passes: the scorer, which
needs no recurrence, over the stack, then the GRU step by step.  The
stacks keep each step's gate gradients and its scorer gradient summed over
the nodes; from these, score.W_hid is one in-order einsum over the whole
episode, and the decoder GRU's gradients are one ``nn.gru_step_grads``:
an einsum per input over the fused gate columns, and one ordered sum for
the biases.  Every other parameter's per-step products of a stack are
formed at once and added in step order, so every gradient keeps the bytes
of the per-step backward (see ``nn``).

Evaluation and the SL holdout need no backward, so a ``Lockstep`` walks
many requests greedily together instead, in slices of at most
LOCKSTEP_SLICE walks taken in size-sorted order, so one slice may hold
graphs of several node counts.  A slice encodes each distinct segment once,
in stacks of at most ENCODE_STACK segments of one node count: a segment's
encoding depends only on its graph object, the request's endpoints and the
pending type, so segments that share those share one encoding (graphs are
told apart by identity, never by content).  The encodings of every node
count are kept in one flat (encoding * node, H) array.  Each decode step
gathers every live walk's input from it and from a per-segment table of
[v_all | v_now], advances all live walks with one ``nn.gru_cell`` on their
(L, 1, d) stack, and runs ``score``, the scorer ``decode_step`` calls too,
once per node count on that count's contiguous rows: padded to a larger
node count, a graph's rows would lose their bits, since both the scorer's
products and the softmax's sum depend on the row length.  Each walk keeps
the bits of its own ``rollout`` (see the ``nn`` docstring for the stacking
rules).  The environment steps stay per episode; the masks depend only on
the current node and the pending type, so they are kept once per graph
object.  A lockstep keeps no caches and computes no log-probs: evaluation
and the holdout read only whether a walk succeeded and its delay, so a
lockstep walk is its ``PathResult``.  ``rollout(..., lockstep=)`` takes one
request's walk from a lockstep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import nn
from .environment import (
    Action,
    EnvState,
    PathResult,
    RewardConfig,
    SfcRequest,
    reset,
    step as env_step,
    valid_actions,
)
from .nn import GradSet, ParamSet
from .topology import Topology, adjacency_matrix, json_int

SCORER_VARIANT = "additive-tanh"
ROLLOUT_MODES = ("greedy", "epsilon_greedy")
# the most encoder segments a Lockstep propagates as one stack: a fixed
# cap on its per-round GRU arrays, and so on peak memory
ENCODE_STACK = 16
# the most walks a Lockstep advances together: a fixed cap on its
# encodings, and so on peak memory
LOCKSTEP_SLICE = 64
# the most decode steps episode_gradients stacks at once: a fixed cap on
# its scorer's (T, n, H) arrays, the only ones that grow with the node
# count (the outer products' inputs take one row per step of the episode).
# Of the 465 episodes one bench train pass backpropagates, 464 have at most
# 15 steps and one has 38, so nearly every episode is one stack
BACKWARD_STACK = 16
# every encode runs t_prop GRU rounds, so a checkpoint or flag asking for
# more than this is refused rather than run (the default is 5)
MAX_T_PROP = 100


@dataclass(frozen=True)
class PolicyConfig:
    """Architecture knobs; annotation width K+3 must fit the hidden width,
    and t_prop (propagation rounds) lies in 0..MAX_T_PROP."""

    hidden_dim: int = 32
    vnf_type_count: int = 5
    t_prop: int = 5

    def __post_init__(self) -> None:
        if self.hidden_dim < 1 or self.vnf_type_count < 1:
            raise ValueError("hidden_dim, vnf_type_count must be >= 1")
        if not 0 <= self.t_prop <= MAX_T_PROP:
            raise ValueError(f"t_prop {self.t_prop} is outside 0..{MAX_T_PROP}")
        if self.feature_width > self.hidden_dim:
            raise ValueError(
                f"annotation width {self.feature_width} (K+3) exceeds "
                f"hidden_dim {self.hidden_dim}"
            )

    @property
    def feature_width(self) -> int:
        return self.vnf_type_count + 3

    @property
    def decoder_input_width(self) -> int:
        return 2 * self.vnf_type_count + self.hidden_dim

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Each parameter's shape, in the order init_policy_params draws them."""
        h = self.hidden_dim
        shapes: dict[str, tuple[int, ...]] = {}
        for prefix, d_in in (("enc.", h), ("dec.", self.decoder_input_width)):
            shapes.update((prefix + name, s) for name, s in nn.gru_param_shapes(d_in, h).items())
        shapes.update({"score.W_emb": (h, h), "score.W_hid": (h, h), "score.v": (h,),
                       "proc.w": (h,), "proc.b": (1,)})
        return shapes


def init_policy_params(cfg: PolicyConfig, seed: int = 0) -> ParamSet:
    """Fresh parameters: uniform +-1/sqrt(fan-in) weights, zero biases."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in cfg.param_shapes().items():
        # biases (enc.b_z, ..., proc.b) start at zero and draw nothing from rng
        is_bias = name.split(".")[1].startswith("b")
        tensors[name] = np.zeros(shape) if is_bias else nn.uniform_init(shape, rng)
    return ParamSet(tensors)


# ---------------------------------------------------------------------------
# encoder

def annotate(t: Topology, req: SfcRequest, chain_index: int, cfg: PolicyConfig) -> np.ndarray:
    """Initial node states: [availability bits | is-src | is-dst | hosts-pending | 0-pad]."""
    if t.vnf_type_count != cfg.vnf_type_count:
        raise ValueError(
            f"topology declares {t.vnf_type_count} VNF types, policy expects "
            f"{cfg.vnf_type_count}"
        )
    n = t.num_nodes
    h0 = np.zeros((n, cfg.hidden_dim))
    for inst in t.instances:
        h0[inst.node, inst.vnf_type] = 1.0
    k = cfg.vnf_type_count
    h0[req.source, k] = 1.0
    h0[req.destination, k + 1] = 1.0
    if chain_index < len(req.chain):
        pending = req.chain[chain_index]
        for inst in t.instances:
            if inst.vnf_type == pending:
                h0[inst.node, k + 2] = 1.0
    return h0


def encode(
    annotations: np.ndarray,
    a: np.ndarray,
    t_prop: int,
    gru: nn.GruWeights,
    keep_caches: bool = True,
) -> tuple[np.ndarray, list]:
    """T_prop propagation rounds through the fused ``enc.`` GRU; returns
    final node embeddings and caches.

    annotations are one segment's (n, H) node states or an (S, n, H) stack
    of segments on the same graph.  For a forward alone, a may be an
    (S, n, n) stack, one adjacency per segment, and keep_caches False keeps
    no round's cache past the round (the caches list is then empty).
    """
    n = annotations.shape[-2]
    if a.shape[-2:] != (n, n):
        raise ValueError(f"adjacency shape {a.shape} does not match {n} annotations")
    h = annotations
    caches = []
    for _ in range(t_prop):
        h, gru_cache = nn.gru_cell(a @ h, h, gru)
        if keep_caches:
            caches.append((a, gru_cache))
    return h, caches


def encode_backward(
    grad_h: np.ndarray, caches: list
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Backprop through the propagation rounds; returns (grad_annotations,
    param grads, one slice per segment of a stack, rounds added last first)."""
    grads = [0.0] * 4  # the gates side by side (see nn.gru_param_grads)
    dh = grad_h
    for a, gru_cache in reversed(caches):
        dmsg, dh_prev, da = nn.gru_cell_backward(dh, gru_cache)
        products = nn.gru_param_grads(*(gru_cache[i] for i in (0, 1, 4)), da)
        grads = [g + p for g, p in zip(grads, products)]
        dh = a.T @ dmsg + dh_prev
    names = nn.gru_grads_by_name(*grads) if caches else {}
    return dh, {"enc." + name: g for name, g in names.items()}


# ---------------------------------------------------------------------------
# decoder

class ActionDistribution(NamedTuple):
    """Per-node move distribution and per-node process logits; the process
    probability at u is sigmoid(process_logits[u]) where process_mask[u]
    holds and 0 elsewhere.  A batched ``decode_step`` returns one whose
    fields carry a leading axis of rows."""

    node_probs: np.ndarray
    move_mask: np.ndarray
    process_mask: np.ndarray
    process_logits: np.ndarray


def _log_sigmoid(x: float) -> float:
    if x >= 0:
        return -np.log1p(np.exp(-x))
    return x - np.log1p(np.exp(x))


def action_log_prob(dist: ActionDistribution, a: Action) -> float:
    """log pi(a) = log P(node) + log P(process decision at that node)."""
    if not dist.move_mask[a.next_node]:
        raise ValueError(f"action moves to masked node {a.next_node}")
    logp = float(np.log(dist.node_probs[a.next_node]))
    if dist.process_mask[a.next_node]:
        x = float(dist.process_logits[a.next_node])
        logp += _log_sigmoid(x) if a.process else _log_sigmoid(-x)
    elif a.process:
        raise ValueError(f"processing at node {a.next_node} is masked (probability 0)")
    return logp


def score(
    enc_scores: np.ndarray,
    hidden: np.ndarray,
    move_mask: np.ndarray,
    process_mask: np.ndarray,
    params: ParamSet,
) -> tuple[ActionDistribution, np.ndarray]:
    """Score the nodes from an advanced hidden state, mask, normalize;
    returns the action distribution and the scorer's activations s.

    enc_scores is enc_h @ score.W_emb, which changes only with the encoder
    segment.  The masks are kept, not copied.  Every argument may carry a
    leading batch axis of L episodes on graphs of one node count n:
    enc_scores (L, n, H), hidden (L, 1, H) and masks (L, n).  Each row then
    gets the bits of its own 1-D call (see the ``nn`` docstring); rows of
    another node count would not, so a lockstep scores each count apart.
    """
    s = enc_scores + hidden @ params["score.W_hid"]
    np.tanh(s, out=s)
    node_probs = nn.masked_softmax(s @ params["score.v"], move_mask)
    process_logits = s @ params["proc.w"]
    process_logits += params["proc.b"][0]
    return ActionDistribution(node_probs, move_mask, process_mask, process_logits), s


def decode_step(
    enc_h: np.ndarray,
    enc_scores: np.ndarray,
    hidden: np.ndarray,
    x: np.ndarray,
    move_mask: np.ndarray,
    process_mask: np.ndarray,
    params: ParamSet,
    gru: nn.GruWeights,
) -> tuple[ActionDistribution, np.ndarray, tuple]:
    """One decoder step: advance the fused ``dec.`` GRU, then ``score``.

    x is the step input [v_all | v_now | node_embedding]: the remaining
    chain as a multi-hot, the pending type as a one-hot, and the encoder row
    of the current node.  Returns the action distribution, the advanced
    hidden state, and a cache for the backward pass.  hidden (L, 1, H) and
    x (L, 1, d) may carry the batch axis that score's arguments do; enc_h is
    read only by the backward, so a batched step, which has none, passes
    None.
    """
    hidden, gru_cache = nn.gru_cell(x, hidden, gru)
    dist, s = score(enc_scores, hidden, move_mask, process_mask, params)
    return dist, hidden, (enc_h, hidden, s, gru_cache, dist)


def decode_step_backward(
    grad_hidden: np.ndarray, cache: tuple, grad_hidden_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The recurrence of one decode step's backward: from the scorer's and
    the downstream gradient on its hidden state, (grad_hidden_prev, gates)."""
    _, dh_prev, da = nn.gru_cell_backward(grad_hidden + grad_hidden_out, cache[3],
                                          input_grad=False)
    return dh_prev, da


# ---------------------------------------------------------------------------
# episode driver

def _decoder_head(req: SfcRequest, chain_index: int, k: int) -> np.ndarray:
    """[v_all | v_now] of the decoder input; the node embedding follows."""
    head = np.zeros(2 * k)
    for entry in req.chain[chain_index:]:
        head[entry] = 1.0
    if chain_index < len(req.chain):
        head[k + req.chain[chain_index]] = 1.0
    return head


def _masks(state: EnvState, t: Topology) -> tuple[np.ndarray, np.ndarray, tuple[Action, ...]]:
    """Move and process masks plus the valid actions; the masks are
    read-only, so they can be reused at every visit to the same node with
    the same pending type."""
    acts = valid_actions(state, t)
    move = np.zeros(t.num_nodes, dtype=bool)
    proc = np.zeros(t.num_nodes, dtype=bool)
    for a in acts:
        move[a.next_node] = True
        if a.process:
            proc[a.next_node] = True
    move.flags.writeable = False
    proc.flags.writeable = False
    return move, proc, acts


@dataclass(frozen=True)
class TraceStep:
    """One transition: what the agent did and what it got, with the decode
    cache, encoder segment and current node its backward needs."""

    action: Action
    reward: float
    log_prob: float
    cache: tuple = field(repr=False, compare=False)
    segment: int = field(repr=False, compare=False)
    node: int = field(repr=False, compare=False)


@dataclass(frozen=True)
class EpisodeTrace:
    """One episode under the policy, with the caches of the forward pass
    that made it: the params it ran with, the stacked encoder caches of
    every chain segment, and each step's own caches.

    The caches do not refer back to the trace, so dropping the trace frees
    both without waiting for the cycle collector.
    """

    topology: Topology
    request: SfcRequest
    steps: tuple[TraceStep, ...]
    path: PathResult
    params: ParamSet = field(repr=False, compare=False)
    encoder: list = field(repr=False, compare=False)

    @property
    def success(self) -> bool:
        return self.path.success

    @property
    def total_delay(self) -> int:
        return self.path.total_delay

    @property
    def rewards(self) -> tuple[float, ...]:
        return tuple(s.reward for s in self.steps)


def _run_episode(
    params: ParamSet,
    cfg: PolicyConfig,
    t: Topology,
    req: SfcRequest,
    reward_cfg: RewardConfig,
    max_steps: int | None,
    select,                    # (dist, acts) -> Action
) -> EpisodeTrace:
    a_matrix = adjacency_matrix(t)
    # fused per episode, never stored: training replaces params after each update
    enc_gru = nn.fuse_gru(params, "enc.")
    dec_gru = nn.fuse_gru(params, "dec.")
    state = reset(t, req, max_steps)
    hidden = np.zeros(cfg.hidden_dim)

    segments = range(len(req.chain) + 1)
    h0 = np.stack([annotate(t, req, i, cfg) for i in segments])
    enc_h, enc_caches = encode(h0, a_matrix, cfg.t_prop, enc_gru)
    enc_scores = enc_h @ params["score.W_emb"]
    heads = [_decoder_head(req, i, cfg.vnf_type_count) for i in segments]

    trace_steps: list[TraceStep] = []
    masks: dict[tuple[int, int], tuple] = {}  # by (current node, chain index)

    while not state.done:
        seg = state.chain_index
        key = (state.current_node, seg)
        if key not in masks:
            masks[key] = _masks(state, t)
        move_mask, proc_mask, acts = masks[key]
        x = np.concatenate([heads[seg], enc_h[seg, state.current_node]])
        dist, hidden, cache = decode_step(enc_h[seg], enc_scores[seg], hidden, x, move_mask,
                                          proc_mask, params, dec_gru)

        action = select(dist, acts)
        logp = action_log_prob(dist, action)
        node = state.current_node
        state, reward, _ = env_step(state, action, t, reward_cfg)
        trace_steps.append(TraceStep(action=action, reward=reward, log_prob=logp,
                                     cache=cache, segment=seg, node=node))

    return EpisodeTrace(
        topology=t,
        request=req,
        steps=tuple(trace_steps),
        path=state.path_so_far,
        params=params,
        encoder=enc_caches,
    )


def _greedy_action(dist: ActionDistribution) -> Action:
    node = int(np.argmax(dist.node_probs))
    # the chosen node's sigmoid alone; episode_gradients' batched call keeps its bits
    process = bool(dist.process_mask[node]
                   and nn.sigmoid(dist.process_logits[node : node + 1])[0] >= 0.5)
    return Action(node, process)


def rollout(
    params: ParamSet,
    cfg: PolicyConfig,
    t: Topology,
    req: SfcRequest,
    reward_cfg: RewardConfig | None = None,
    mode: str = "greedy",
    rng: np.random.Generator | None = None,
    epsilon: float | None = None,
    lockstep: Lockstep | None = None,
) -> EpisodeTrace | PathResult:
    """Run one episode under the policy.

    greedy: argmax node, process iff its probability >= 0.5 (deterministic).
    epsilon_greedy: with probability epsilon take a uniform valid action,
    otherwise the greedy one; log-probs always record the policy's own
    probability of the taken action.  It needs both an rng and an epsilon.

    With a lockstep that holds (t, req), the greedy walk is taken from it:
    this call advances the lockstep's walks together until this one ends.
    That walk keeps no caches and records no rewards or log-probs, so it is
    returned as its ``PathResult``, equal to the trace's path.
    """
    if mode not in ROLLOUT_MODES:
        raise ValueError(f"unknown rollout mode {mode!r}")
    if lockstep is not None:
        if mode != "greedy" or params is not lockstep.params or cfg != lockstep.cfg:
            raise ValueError("a lockstep walk is greedy, under the lockstep's params and config")
        return lockstep.walk(t, req)
    if mode != "greedy" and rng is None:
        raise ValueError(f"mode {mode!r} needs an rng")
    if mode != "greedy" and epsilon is None:
        raise ValueError(f"mode {mode!r} needs an epsilon")
    if reward_cfg is None:
        reward_cfg = RewardConfig()
    greedy = mode == "greedy"

    def select(dist: ActionDistribution, acts: tuple[Action, ...]) -> Action:
        if not greedy and rng.random() < epsilon:
            return acts[int(rng.integers(len(acts)))]
        return _greedy_action(dist)

    return _run_episode(params, cfg, t, req, reward_cfg, None, select)


class Lockstep:
    """The greedy walks of many (topology, request) pairs, advanced in
    lockstep (see the module docstring).

    ``walk(t, req)`` returns the path of that pair's walk.  The pairs are
    sorted by node count, stably, and cut in that order into slices of at
    most LOCKSTEP_SLICE, so one slice may hold several node counts: a pool
    test spreads its requests over variants of several sizes.  The first
    walk asked for in a slice advances the whole slice together to its end,
    and keeps the paths for their own calls; so one slice's encodings are
    alive at a time.  Each step advances the decoder GRU
    of every live walk as one stack, then runs one ``score`` per node count
    on that count's rows.  Each row of every step has the bytes of that
    walk's own ``rollout(params, cfg, *pair, mode="greedy")`` step, and so
    each walk has that rollout's path, whichever walks share its slice.
    Every request is validated here, in order, before any walk.
    """

    def __init__(
        self, params: ParamSet, cfg: PolicyConfig, pairs: Sequence[tuple[Topology, SfcRequest]]
    ) -> None:
        self.params, self.cfg = params, cfg
        pairs = list(pairs)
        states = [reset(t, req) for t, req in pairs]  # validates each request first
        order = sorted(range(len(pairs)), key=lambda i: pairs[i][0].num_nodes)
        # in size-sorted order from here on; the pairs keep the ids of the index alive
        self._pairs = [pairs[i] for i in order]
        self._states = [states[i] for i in order]
        self._walks: list[PathResult | None] = [None] * len(pairs)
        # a pair is found by the identity of the objects passed; a repeated
        # pair is found at its first position, its walks being equal
        self._index: dict[tuple[int, int], int] = {}
        for p, (t, req) in enumerate(self._pairs):
            self._index.setdefault((id(t), id(req)), p)

    def walk(self, t: Topology, req: SfcRequest) -> PathResult:
        p = self._index.get((id(t), id(req)))
        if p is None:
            raise ValueError("the lockstep holds no walk of this (topology, request) pair")
        if self._walks[p] is None:
            lo = p // LOCKSTEP_SLICE * LOCKSTEP_SLICE
            at = slice(lo, lo + LOCKSTEP_SLICE)
            self._walks[at] = _lockstep(self.params, self.cfg, self._pairs[at], self._states[at])
        return self._walks[p]


def _lockstep(
    params: ParamSet,
    cfg: PolicyConfig,
    pairs: list[tuple[Topology, SfcRequest]],
    states: list[EnvState],
) -> list[PathResult]:
    """The paths of the greedy walks of pairs, whose topologies of one node
    count are contiguous, from their reset states."""
    enc_gru = nn.fuse_gru(params, "enc.")
    dec_gru = nn.fuse_gru(params, "dec.")
    k, hd = cfg.vnf_type_count, cfg.hidden_dim
    nodes = [t.num_nodes for t, _ in pairs]
    runs = _runs(nodes)
    # chain index i of pair j is segment g = seg[j] + i.  Segments of one
    # node count that agree in all that annotate and adjacency_matrix read,
    # the graph object (never its content), the endpoints and the pending
    # type, share one encoding: row enc_row[g] of those of its node count
    seg = np.cumsum([0] + [len(req.chain) + 1 for _, req in pairs]).tolist()
    heads = np.array([_decoder_head(req, i, k) for _, req in pairs
                      for i in range(len(req.chain) + 1)])
    distinct: dict[tuple, int] = {}
    encoded: list[list[tuple[int, int]]] = []  # per run, (pair, chain index) of each encoding
    enc_row: list[int] = []
    for lo, hi in runs:
        encoded.append([])
        for j in range(lo, hi):
            t, req = pairs[j]
            for i in range(len(req.chain) + 1):
                key = (id(t), req.source, req.destination, req.chain[i : i + 1])
                if key not in distinct:
                    distinct[key] = len(encoded[-1])
                    encoded[-1].append((j, i))
                enc_row.append(distinct[key])
    # every node count's encodings in one flat (encoding * node, H) array:
    # segment g's node u is row enc_at[g] + u; and per node count, enc_scores
    base = np.cumsum([0] + [len(e) * nodes[lo] for e, (lo, _) in zip(encoded, runs)]).tolist()
    enc = np.empty((base[-1], hd))
    enc_scores, enc_at = [], []
    for (lo, hi), stacks, b in zip(runs, encoded, base):
        n = nodes[lo]
        enc_h = enc[b : b + len(stacks) * n].reshape(len(stacks), n, hd)
        for s0 in range(0, len(stacks), ENCODE_STACK):
            stack = stacks[s0 : s0 + ENCODE_STACK]
            h0 = np.stack([annotate(*pairs[j], i, cfg) for j, i in stack])
            a = np.stack([adjacency_matrix(pairs[j][0]) for j, _ in stack])
            enc_h[s0 : s0 + len(stack)], _ = encode(h0, a, cfg.t_prop, enc_gru, keep_caches=False)
        enc_scores.append(enc_h @ params["score.W_emb"])
        enc_at += [b + r * n for r in enc_row[seg[lo] : seg[hi]]]

    reward_cfg = RewardConfig()
    graph_masks: dict[int, dict] = {}  # per graph object, by (current node, pending type)
    masks = [graph_masks.setdefault(id(t), {}) for t, _ in pairs]
    counts = [hi - lo for lo, hi in runs]  # the live walks of each node count
    run_of = [run for run, (lo, hi) in enumerate(runs) for _ in range(lo, hi)]
    live = list(range(len(pairs)))
    hidden = np.zeros((len(pairs), 1, hd))
    while live:
        segments, cells, score_rows, step_masks = [], [], [], []
        for j in live:
            s = states[j]
            key = (s.current_node, s.pending_type)
            if key not in masks[j]:
                masks[j][key] = _masks(s, pairs[j][0])
            step_masks.append(masks[j][key])
            g = seg[j] + s.chain_index
            segments.append(g)
            cells.append(enc_at[g] + s.current_node)
            score_rows.append(enc_row[g])
        # the decoder inputs [v_all | v_now | embedding], gathered from heads and enc
        x = np.concatenate([heads.take(segments, axis=0), enc.take(cells, axis=0)], axis=1)
        hidden, _ = nn.gru_cell(x[:, None, :], hidden, dec_gru)

        # _greedy_action of each row, its logit gathered after the product
        chosen, allowed, logits, lo = [], [], [], 0
        for run, count in enumerate(counts):
            if count:
                at = slice(lo, lo + count)
                proc = np.array([m[1] for m in step_masks[at]])
                dist, _ = score(enc_scores[run].take(score_rows[at], axis=0), hidden[at],
                                np.array([m[0] for m in step_masks[at]]), proc, params)
                rows = np.arange(count)
                chosen.append(dist.node_probs.argmax(axis=1))
                allowed.append(proc[rows, chosen[-1]])
                logits.append(dist.process_logits[rows, chosen[-1]])
                lo += count
        process = np.concatenate(allowed) & (nn.sigmoid(np.concatenate(logits)) >= 0.5)
        kept = []
        for r, (j, u, p) in enumerate(zip(live, np.concatenate(chosen).tolist(), process.tolist())):
            states[j], _, done = env_step(states[j], Action(u, p), pairs[j][0], reward_cfg)
            if done:
                counts[run_of[j]] -= 1
            else:
                kept.append(r)
        if len(kept) < len(live):
            live = [live[r] for r in kept]
            hidden = hidden[kept]
    return [s.path_so_far for s in states]


def _runs(values: list) -> list[tuple[int, int]]:
    """The (start, stop) of each run of equal values, in order."""
    cuts = [i for i in range(1, len(values)) if values[i] != values[i - 1]]
    return list(zip([0] + cuts, cuts + [len(values)]))


def teacher_force(
    params: ParamSet,
    cfg: PolicyConfig,
    t: Topology,
    req: SfcRequest,
    actions: tuple[Action, ...],
) -> EpisodeTrace:
    """Run the given actions (a solver label) through the policy.

    The forward pass is the one rollouts run, so forcing a recorded walk
    reproduces its log-probs bit for bit.  The step budget is the action
    count, so a walk that would end earlier is refused, and so is an action
    the policy masks.
    """
    it = iter(actions)
    trace = _run_episode(params, cfg, t, req, RewardConfig(), len(actions),
                         lambda dist, acts: next(it))
    if len(trace.steps) != len(actions):
        raise ValueError(
            f"episode terminated after {len(trace.steps)} of {len(actions)} actions"
        )
    return trace


def episode_gradients(trace: EpisodeTrace, coeffs: np.ndarray | list[float]) -> GradSet:
    """Backprop sum_t coeff_t * log pi(a_t) through the trace's own caches
    to the params it ran under (see the module docstring), through the
    encoder for the segments decoded from, 0 through the last step's."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    steps, params = trace.steps, trace.params
    if len(coeffs) != len(steps):
        raise ValueError(f"{len(steps)} steps but {len(coeffs)} coefficients")
    reached = steps[-1].segment + 1
    grads = GradSet(params)
    h = len(params["score.v"])
    grad_enc = np.zeros((reached, trace.topology.num_nodes, h))
    dh = np.zeros(h)
    # the steps, and the decoder's gate and summed scorer gradients of each, last first
    steps, coeffs = steps[::-1], coeffs[::-1]
    gates, ds_sum = np.empty((len(steps), 3 * h)), np.empty((len(steps), h))
    for lo in range(0, len(steps), BACKWARD_STACK):
        at = slice(lo, lo + BACKWARD_STACK)
        dh = _decoder_stack_backward(steps[at], coeffs[at], params, grads, grad_enc, dh,
                                     gates[at], ds_sum[at])
    # the outer-product gradients over the whole episode, from their inputs
    # gathered out of the step caches
    caches = [step.cache for step in steps]  # (enc_h, hidden, s, gru_cache, dist)
    nn.outer_sum(np.stack([c[1] for c in caches]), ds_sum, out=grads["score.W_hid"])
    x, h_prev, rh = (np.stack([c[3][i] for c in caches]) for i in (0, 1, 4))
    for name, grad in nn.gru_step_grads(x, h_prev, rh, gates).items():
        grads["dec." + name][...] = grad
    # each round's GRU cache arrays, cut to the reached segments
    encoder = [(a, (*(c[:reached] for c in gru_cache[:6]), gru_cache[6]))
               for a, gru_cache in trace.encoder]
    for name, per_segment in encode_backward(grad_enc, encoder)[1].items():
        grads.add_stack(name, per_segment)
    return grads


def _decoder_stack_backward(steps, coeffs, params, grads, grad_enc, dh, gates, ds_sum):
    """One stack of decode steps, given last first: adds its scorer and
    process-head gradients to grads and its encoder gradients to grad_enc,
    writes each step's GRU gate gradients into the rows of gates and its
    scorer gradient summed over the nodes into those of ds_sum, for
    episode_gradients' outer products; returns the gradient on the hidden
    state before it."""
    caches = [step.cache for step in steps]  # (enc_h, hidden, s, gru_cache, dist)
    nodes = [step.action.next_node for step in steps]
    # each process decision's sigmoid, in one call whose elements have the
    # bits of _greedy_action's 1-element calls
    rows = [k for k, (c, u) in enumerate(zip(caches, nodes)) if c[4].process_mask[u]]
    at = [nodes[k] for k in rows]
    sig = nn.sigmoid(np.array([caches[k][4].process_logits[u] for k, u in zip(rows, at)]))
    processed = np.array([steps[k].action.process for k in rows], dtype=bool)
    dp = (coeffs[rows] * np.where(processed, 1.0 - sig, -sig))[:, None]
    s = np.stack([c[2] for c in caches])
    dlogits = nn.log_prob_grad(np.stack([c[4].node_probs for c in caches]), nodes)
    dlogits *= coeffs[:, None]
    grads.add_stack("score.v", (np.swapaxes(s, 1, 2) @ dlogits[:, :, None])[:, :, 0])
    ds = dlogits[:, :, None] * params["score.v"]
    ds[rows, at] += dp * params["proc.w"]
    grads.add_stack("proc.w", dp * s[rows, at])
    grads.add_stack("proc.b", dp)
    np.multiply(s, s, out=s)
    ds *= np.subtract(1.0, s, out=s)  # ds_pre = ds * (1 - s*s)
    ds_sum[...] = ds.sum(axis=1)
    grads.add_stack("score.W_emb", np.stack([c[0].T @ d for c, d in zip(caches, ds)]))
    genc = np.matmul(ds, params["score.W_emb"].T, out=s)
    grad_hidden = (ds_sum[:, None, :] @ params["score.W_hid"].T)[:, 0]
    for k, cache in enumerate(caches):
        dh, gates[k] = decode_step_backward(grad_hidden[k], cache, dh)
    gnode = nn.gru_input_grad(gates[:, None, :], caches[0][3][6])[:, 0, -len(dh) :]
    for k, step in enumerate(steps):
        grad_enc[step.segment] += genc[k]
        grad_enc[step.segment][step.node] += gnode[k]
    return dh


# ---------------------------------------------------------------------------
# checkpoints

def save_policy(
    params: ParamSet,
    cfg: PolicyConfig,
    path: str | Path,
    seed: int,
    training_stage: str,
) -> None:
    """JSON checkpoint: metadata plus each tensor as its shape and flat data.

    JSON floats round-trip float64 exactly (shortest repr), so a load gives
    bit-identical parameters; there are no timestamps, so the same inputs
    give the same bytes.
    """
    doc = {
        "metadata": {
            "hidden_dim": cfg.hidden_dim,
            "K": cfg.vnf_type_count,
            "propagation_steps": cfg.t_prop,
            "T_prop": cfg.t_prop,
            "seed": seed,
            "training_stage": training_stage,
            "scorer_variant": SCORER_VARIANT,
        },
        "tensors": {
            name: {"shape": list(v.shape), "data": v.reshape(-1).tolist()}
            for name, v in params.items()
        },
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_policy(path: str | Path) -> tuple[ParamSet, PolicyConfig, dict]:
    """A checkpoint's parameters, architecture and metadata; a checkpoint
    that does not parse, holds a non-finite entry, whose tensors do not have
    its architecture's shapes, whose T_prop and propagation_steps disagree,
    or whose scorer_variant is not this scorer is refused naming the file."""
    try:
        doc = json.loads(Path(path).read_text())
        metadata, tensors = doc["metadata"], doc["tensors"]
        if not isinstance(metadata, dict) or not isinstance(tensors, dict):
            raise TypeError("metadata and tensors must be JSON objects")
        cfg = PolicyConfig(
            hidden_dim=json_int(metadata["hidden_dim"]),
            vnf_type_count=json_int(metadata["K"]),
            t_prop=json_int(metadata.get("propagation_steps", metadata.get("T_prop"))),
        )
        if "T_prop" in metadata and json_int(metadata["T_prop"]) != cfg.t_prop:
            raise ValueError(f"T_prop {metadata['T_prop']!r} disagrees with "
                             f"propagation_steps {cfg.t_prop}")
        if metadata.get("scorer_variant", SCORER_VARIANT) != SCORER_VARIANT:
            raise ValueError(f"scorer_variant {metadata['scorer_variant']!r} is not "
                             f"{SCORER_VARIANT!r}")
        params = ParamSet({name: np.array(rec["data"], dtype=np.float64).reshape(rec["shape"])
                           for name, rec in tensors.items()})
        expected, actual = cfg.param_shapes(), params.shapes()
        for name in sorted(set(expected) | set(actual)):
            if expected.get(name) != actual.get(name):
                raise ValueError(f"checkpoint tensor {name!r} has shape {actual.get(name)}, "
                                 f"architecture expects {expected.get(name)}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed checkpoint {path}: {exc}") from exc
    return params, cfg, metadata
