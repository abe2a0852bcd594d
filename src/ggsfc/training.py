"""Supervised pre-training on solver labels and REINFORCE fine-tuning.

Both stages make the same update, ``ascend``: one SGD step up
sum_t c_t log pi(a_t | s_t) over one episode, from the params it ran under,
backpropagated by ``episode_gradients`` through the caches of the episode's
own forward pass, so each episode is decoded once and its trace is the
update's only input besides c_t and the step size.  SL teacher-forces a
solver label with c_t = 1, which descends the cross-entropy, one example per
step, epochs shuffled.  RL is plain per-episode REINFORCE: an epsilon-greedy
rollout with c_t = G_t, its discounted returns.  No baseline, no batching,
no reward normalization; a non-finite gradient skips the update with a
warning.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .environment import (
    DEFAULT_CHAIN_LEN_RANGE,
    RewardConfig,
    SfcRequest,
    generate_requests,
)
from .nn import NonFiniteGradientError, ParamSet, sgd_update
from .oracle import LabeledDataset, check_topology_ids
from .evaluation import greedy_walks
from .policy import EpisodeTrace, PolicyConfig, episode_gradients, rollout, teacher_force
from .topology import Topology, TopologyPool, as_topology_list

logger = logging.getLogger(__name__)

DEFAULT_ROLLING_WINDOW = 200


@dataclass(frozen=True)
class HyperParams:
    alpha_sl: float = 0.001
    alpha_rl: float = 0.00001
    gamma: float = 0.999
    epsilon: float = 0.01
    lam: float = 0.0
    episodes: int = 5000
    sl_epochs: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha_sl) and math.isfinite(self.alpha_rl)):
            raise ValueError("learning rates must be finite")
        if self.alpha_sl <= 0 or self.alpha_rl <= 0:
            raise ValueError("learning rates must be > 0")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.episodes < 0 or self.sl_epochs < 0:
            raise ValueError("episodes and sl_epochs must be >= 0")


def check_stop(name: str, value: float | None) -> None:
    """Refuse a NaN early-stop threshold, which no rate ever reaches."""
    if value is not None and math.isnan(value):
        raise ValueError(f"{name} must not be NaN")


@dataclass(frozen=True)
class HistoryRow:
    index: int
    success_rate: float
    mean_delay: float
    loss: float


def format_history_row(kind: str, row: HistoryRow) -> str:
    """One progress line; kind is 'epoch' (SL) or 'episode' (RL)."""
    # + 0.0 turns the -0.0 loss of a failed episode into 0
    return (f"{kind} {row.index}: success_rate {row.success_rate:.4f} "
            f"mean_delay {row.mean_delay:.1f} loss {row.loss + 0.0:.4f}")


def save_history(rows: Sequence[HistoryRow], path: str | Path, index_name: str) -> None:
    """CSV of the training curve; index_name is 'epoch' (SL) or 'episode' (RL)."""
    lines = [f"{index_name},success_rate,mean_delay,loss"]
    for r in rows:
        # + 0.0 turns the -0.0 loss of a failed episode into 0
        lines.append(f"{r.index},{r.success_rate:.6g},{r.mean_delay:.6g},{r.loss + 0.0:.6g}")
    Path(path).write_text("\n".join(lines) + "\n")


def compute_returns(rewards: Sequence[float], gamma: float) -> np.ndarray:
    """Discounted returns G_t = r_t + gamma * G_{t+1}, G after the end = 0."""
    out = np.zeros(len(rewards))
    acc = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + gamma * acc
        out[i] = acc
    return out


def ascend(trace: EpisodeTrace, coeffs: np.ndarray, alpha: float) -> ParamSet:
    """One SGD step from the trace's params up sum_t coeffs[t] * log pi(a_t),
    backpropagated through the trace's own caches.  A non-finite gradient
    rejects the step: the trace's params come back and a warning is logged."""
    grads = episode_gradients(trace, coeffs)
    try:
        return sgd_update(trace.params, grads, alpha)
    except NonFiniteGradientError:
        req = trace.request
        logger.warning("skipping non-finite update (request %s->%s)", req.source, req.destination)
        return trace.params


def reinforce_update(trace: EpisodeTrace, returns: np.ndarray, alpha: float) -> ParamSet:
    """One policy-gradient step from an epsilon-greedy rollout, with its
    discounted returns as coefficients.  Failure episodes (all returns zero)
    change nothing and skip the backward entirely."""
    if not returns.any():
        return trace.params
    return ascend(trace, returns, alpha)


# ---------------------------------------------------------------------------
# supervised learning

def greedy_failure_ratio(
    params: ParamSet,
    cfg: PolicyConfig,
    pairs: Sequence[tuple[Topology, SfcRequest]],
) -> tuple[float, float]:
    """(failure ratio, mean success delay) of the pairs' greedy walks, taken
    together by ``evaluation.greedy_walks``."""
    if not pairs:
        return float("nan"), float("nan")
    delays = [delay for success, delay in greedy_walks(params, cfg, pairs) if success]
    mean_delay = float(np.mean(delays)) if delays else float("nan")
    return (len(pairs) - len(delays)) / len(pairs), mean_delay


def train_sl(
    params: ParamSet,
    cfg: PolicyConfig,
    topologies: Topology | TopologyPool | Sequence[Topology],
    dataset: LabeledDataset,
    hp: HyperParams,
    holdout: LabeledDataset | None = None,
    stop_failure_ratio: float | None = None,
    progress: Callable[[HistoryRow], None] | None = None,
) -> tuple[ParamSet, list[HistoryRow]]:
    """Teacher-forced cross-entropy over the labeled dataset.

    Per epoch: shuffle, then one ``ascend`` step per example up
    sum_t log pi(label action_t), which descends its negation, the loss.
    History rows carry the epoch mean loss and the greedy failure ratio on
    the holdout (nan without one).
    stop_failure_ratio ends training early once the holdout is good enough.
    Topology ids index ``topologies`` as ``label_dataset`` assigned them.
    """
    check_stop("stop_failure_ratio", stop_failure_ratio)
    if not dataset.examples:
        raise ValueError("dataset is empty")
    topo_list = as_topology_list(topologies)
    check_topology_ids(dataset, len(topo_list), "dataset")
    pairs = []
    if holdout is not None:
        check_topology_ids(holdout, len(topo_list), "holdout")
        pairs = [(topo_list[ex.topology_id], ex.request) for ex in holdout.examples]
    rng = np.random.default_rng(hp.seed)
    history: list[HistoryRow] = []

    for epoch in range(1, hp.sl_epochs + 1):
        order = rng.permutation(len(dataset.examples))
        losses = np.empty(len(order))
        for j, idx in enumerate(order):
            ex = dataset.examples[idx]
            trace = teacher_force(params, cfg, topo_list[ex.topology_id], ex.request,
                                  ex.actions)
            losses[j] = -sum(s.log_prob for s in trace.steps)
            params = ascend(trace, np.ones(len(ex.actions)), hp.alpha_sl)
        fr, mean_delay = greedy_failure_ratio(params, cfg, pairs)
        row = HistoryRow(
            index=epoch,
            success_rate=1.0 - fr if pairs else float("nan"),
            mean_delay=mean_delay,
            loss=float(losses.mean()),
        )
        history.append(row)
        if progress is not None:
            progress(row)
        if stop_failure_ratio is not None and pairs and fr <= stop_failure_ratio:
            break
    return params, history


# ---------------------------------------------------------------------------
# reinforcement learning

def train_rl(
    params: ParamSet,
    topologies: Topology | TopologyPool | Sequence[Topology],
    hp: HyperParams,
    cfg: PolicyConfig,
    rolling_window: int = DEFAULT_ROLLING_WINDOW,
    stop_success_rate: float | None = None,
    progress: Callable[[HistoryRow], None] | None = None,
) -> tuple[ParamSet, list[HistoryRow]]:
    """REINFORCE over random episodes.

    Each episode draws a topology uniformly (from the pool's variants, or
    the single given topology), draws a fresh request on it with a chain
    length in DEFAULT_CHAIN_LEN_RANGE, rolls out with epsilon-greedy
    exploration, and applies one return-weighted update.
    History rows carry the rolling success rate and rolling mean success
    delay over the trailing window, plus the episode's surrogate loss
    -sum_t G_t log pi(a_t).  stop_success_rate ends training early once the
    rolling window is full and good enough.
    """
    check_stop("stop_success_rate", stop_success_rate)
    topos = as_topology_list(topologies)
    if not topos:
        raise ValueError("no topologies to train on")
    if rolling_window < 1:
        raise ValueError(f"rolling_window must be >= 1, got {rolling_window}")

    rng = np.random.default_rng(hp.seed)
    reward_cfg = RewardConfig(lam=hp.lam)
    recent_success: deque[bool] = deque(maxlen=rolling_window)
    recent_delays: deque[int] = deque(maxlen=rolling_window)
    history: list[HistoryRow] = []

    for episode in range(1, hp.episodes + 1):
        t = topos[int(rng.integers(len(topos)))]
        req = generate_requests(t, 1, DEFAULT_CHAIN_LEN_RANGE, rng)[0]
        trace = rollout(
            params, cfg, t, req, reward_cfg,
            mode="epsilon_greedy", rng=rng, epsilon=hp.epsilon,
        )
        returns = compute_returns(trace.rewards, hp.gamma)
        loss = -float(np.dot(returns, [s.log_prob for s in trace.steps]))
        params = reinforce_update(trace, returns, hp.alpha_rl)

        recent_success.append(trace.success)
        if trace.success:
            recent_delays.append(trace.total_delay)
        rate = sum(recent_success) / len(recent_success)
        mean_delay = float(np.mean(recent_delays)) if recent_delays else float("nan")
        row = HistoryRow(index=episode, success_rate=rate, mean_delay=mean_delay, loss=loss)
        history.append(row)
        if progress is not None:
            progress(row)
        if (
            stop_success_rate is not None
            and len(recent_success) == rolling_window
            and rate >= stop_success_rate
        ):
            break
    return params, history
