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
from a label.  The trace carries the caches of that pass, each step its
own, and ``episode_gradients`` is the backward over them alone: exact
analytic backprop of sum_t c_t log pi(a_t).  Supervised learning ascends
it with c_t = 1 along a label, REINFORCE with c_t = G_t along a rollout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

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
from .topology import Topology, adjacency_matrix

SCORER_VARIANT = "additive-tanh"
ROLLOUT_MODES = ("greedy", "epsilon_greedy")


@dataclass(frozen=True)
class PolicyConfig:
    """Architecture knobs; annotation width K+3 must fit the hidden width."""

    hidden_dim: int = 32
    vnf_type_count: int = 5
    t_prop: int = 5

    def __post_init__(self) -> None:
        if self.hidden_dim < 1 or self.t_prop < 0 or self.vnf_type_count < 1:
            raise ValueError("hidden_dim, vnf_type_count must be >= 1 and t_prop >= 0")
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


def init_policy_params(cfg: PolicyConfig, seed: int = 0) -> ParamSet:
    """Fresh parameters: uniform +-1/sqrt(fan-in) weights, zero biases."""
    rng = np.random.default_rng(seed)
    h = cfg.hidden_dim
    tensors: dict[str, np.ndarray] = {}
    tensors.update(nn.init_gru_params(h, h, rng, prefix="enc."))
    tensors.update(nn.init_gru_params(cfg.decoder_input_width, h, rng, prefix="dec."))
    tensors["score.W_emb"] = nn.uniform_init((h, h), rng)
    tensors["score.W_hid"] = nn.uniform_init((h, h), rng)
    tensors["score.v"] = nn.uniform_init((h,), rng)
    tensors["proc.w"] = nn.uniform_init((h,), rng)
    tensors["proc.b"] = np.zeros(1)
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
) -> tuple[np.ndarray, list]:
    """T_prop propagation rounds through the fused ``enc.`` GRU; returns
    final node embeddings and caches.

    annotations are one segment's (n, H) node states or an (S, n, H) stack
    of segments on the same graph.
    """
    n = annotations.shape[-2]
    if a.shape != (n, n):
        raise ValueError(f"adjacency shape {a.shape} does not match {n} annotations")
    h = annotations
    caches = []
    for _ in range(t_prop):
        msg = a @ h
        h_new, gru_cache = nn.gru_cell(msg, h, gru)
        caches.append((a, gru_cache))
        h = h_new
    return h, caches


def encode_backward(
    grad_h: np.ndarray, caches: list
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Backprop through the propagation rounds; returns (grad_annotations,
    param grads).  For a stack, each parameter gradient has one slice per
    segment."""
    grads: dict[str, np.ndarray] = {}
    dh = grad_h
    for a, gru_cache in reversed(caches):
        dmsg, dh_prev, g = nn.gru_cell_backward(dh, gru_cache)
        for name, value in g.items():
            grads[name] = grads.get(name, 0.0) + value
        dh = a.T @ dmsg + dh_prev
    return dh, grads


# ---------------------------------------------------------------------------
# decoder

@dataclass(frozen=True)
class ActionDistribution:
    """Per-node move distribution and per-node process logits; the process
    probability at u is sigmoid(process_logits[u]) where process_mask[u]
    holds and 0 elsewhere."""

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
    """One decoder step: advance the fused ``dec.`` GRU, score nodes, mask,
    normalize.

    enc_scores is enc_h @ score.W_emb, which changes only with the encoder
    segment.  x is the step input [v_all | v_now | node_embedding]: the
    remaining chain as a multi-hot, the pending type as a one-hot, and the
    encoder row of the current node.  The masks are kept, not copied.
    Returns the action distribution, the advanced hidden state, and a cache
    for the backward pass.
    """
    hidden, gru_cache = nn.gru_cell(x, hidden, gru)
    s_pre = enc_scores + hidden @ params["score.W_hid"]
    s = np.tanh(s_pre)
    node_logits = s @ params["score.v"]
    node_probs = nn.masked_softmax(node_logits, move_mask)
    process_logits = s @ params["proc.w"] + params["proc.b"][0]
    dist = ActionDistribution(
        node_probs=node_probs,
        move_mask=move_mask,
        process_mask=process_mask,
        process_logits=process_logits,
    )
    cache = (enc_h, hidden, s, gru_cache, dist)
    return dist, hidden, cache


def decode_step_backward(
    coeff: float,
    action: Action,
    cache: tuple,
    params: ParamSet,
    grad_hidden_out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Gradient of coeff * log pi(action) for one decode step.

    grad_hidden_out carries the downstream gradient flowing into this step's
    advanced hidden state (the recurrence; zeros at an episode's last step);
    it is folded in before the GRU backward.  Returns (grad_enc_h,
    grad_hidden_prev, grad_node_embedding_input, grads); grad_enc_h covers
    the scorer's use of all embeddings, while the node-embedding input
    gradient belongs at the current node's row.
    """
    enc_h, hidden, s, gru_cache, dist = cache
    i = action.next_node

    dlogits = coeff * nn.log_prob_grad(dist.node_probs, i)
    ds = np.outer(dlogits, params["score.v"])
    grads: dict[str, np.ndarray] = {"score.v": s.T @ dlogits}

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

    dx, dh_prev, gru_grads = nn.gru_cell_backward(dhidden, gru_cache)
    for name, value in gru_grads.items():
        grads[name] = grads.get(name, 0.0) + value
    k2 = dx.shape[0] - hidden.shape[0]
    grad_node_embedding = dx[k2:]
    return grad_enc_h, dh_prev, grad_node_embedding, grads


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
    read-only, so one episode can reuse them at every visit."""
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
    # fused per episode, never stored: training replaces params after each
    # update and finite_diff_check probes them in place
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
    # the chosen node's sigmoid alone, as decode_step_backward takes it
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
    epsilon: float = 0.01,
) -> EpisodeTrace:
    """Run one episode under the policy.

    greedy: argmax node, process iff its probability >= 0.5 (deterministic).
    epsilon_greedy: with probability epsilon take a uniform valid action,
    otherwise the greedy one; log-probs always record the policy's own
    probability of the taken action.
    """
    if mode not in ROLLOUT_MODES:
        raise ValueError(f"unknown rollout mode {mode!r}")
    if mode != "greedy" and rng is None:
        raise ValueError(f"mode {mode!r} needs an rng")
    if reward_cfg is None:
        reward_cfg = RewardConfig()
    greedy = mode == "greedy"

    def select(dist: ActionDistribution, acts: tuple[Action, ...]) -> Action:
        if not greedy and rng.random() < epsilon:
            return acts[int(rng.integers(len(acts)))]
        return _greedy_action(dist)

    return _run_episode(params, cfg, t, req, reward_cfg, None, select)


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


def episode_gradients(
    params: ParamSet,
    cfg: PolicyConfig,
    trace: EpisodeTrace,
    coeffs: np.ndarray | list[float],
) -> GradSet:
    """Backprop sum_t coeff_t * log pi(a_t) through the trace's own caches.

    The trace must come from a forward pass under these params.  Only the
    segments the episode decoded from, 0 through the last step's, are
    backpropagated through the encoder; each slice of the stack keeps its
    bits (see the ``nn`` docstring) and is added in segment order, as when
    each segment was encoded on its own.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if trace.params is not params:
        raise ValueError("the trace was recorded under other parameters")
    if len(coeffs) != len(trace.steps):
        raise ValueError(f"{len(trace.steps)} steps but {len(coeffs)} coefficients")

    reached = trace.steps[-1].segment + 1
    grads = GradSet(params)
    grad_enc = np.zeros((reached, trace.topology.num_nodes, cfg.hidden_dim))
    dh_next = np.zeros(cfg.hidden_dim)
    for step, coeff in zip(reversed(trace.steps), reversed(coeffs)):
        genc, dh_next, gnode, step_grads = decode_step_backward(
            coeff, step.action, step.cache, params, dh_next
        )
        grads.add_all(step_grads)
        grad_enc[step.segment] += genc
        grad_enc[step.segment][step.node] += gnode

    # each round's GRU cache arrays, cut to the reached segments
    encoder = [(a, tuple(c[:reached] if isinstance(c, np.ndarray) else c for c in gru_cache))
               for a, gru_cache in trace.encoder]
    _, enc_grads = encode_backward(grad_enc, encoder)
    for seg in range(reached):
        grads.add_all({name: g[seg] for name, g in enc_grads.items()})
    return grads


# ---------------------------------------------------------------------------
# checkpoints

def save_policy(
    params: ParamSet,
    cfg: PolicyConfig,
    path: str | Path,
    seed: int,
    training_stage: str,
) -> None:
    metadata = {
        "hidden_dim": cfg.hidden_dim,
        "K": cfg.vnf_type_count,
        "propagation_steps": cfg.t_prop,
        "T_prop": cfg.t_prop,
        "seed": seed,
        "training_stage": training_stage,
        "scorer_variant": SCORER_VARIANT,
    }
    nn.save_checkpoint(params, metadata, path)


def load_policy(path: str | Path) -> tuple[ParamSet, PolicyConfig, dict]:
    params, metadata = nn.load_checkpoint(path)
    try:
        hidden_dim, k = int(metadata["hidden_dim"]), int(metadata["K"])
        t_prop = int(metadata.get("propagation_steps", metadata.get("T_prop")))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed checkpoint metadata in {path}: {exc}") from exc
    cfg = PolicyConfig(hidden_dim=hidden_dim, vnf_type_count=k, t_prop=t_prop)
    expected = init_policy_params(cfg, seed=0).shapes()
    actual = params.shapes()
    if expected != actual:
        for name in sorted(set(expected) | set(actual)):
            if expected.get(name) != actual.get(name):
                raise ValueError(
                    f"checkpoint tensor {name!r} has shape {actual.get(name)}, "
                    f"architecture expects {expected.get(name)}"
                )
    return params, cfg, metadata
