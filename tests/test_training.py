"""Returns, REINFORCE updates, and the two training loops."""

import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ggsfc.evaluation as evaluation
import ggsfc.training as training
from ggsfc.environment import (
    RewardConfig,
    SfcRequest,
    generate_pool_requests,
    generate_requests,
)
from ggsfc.nn import NonFiniteGradientError, ParamSet
from ggsfc.oracle import label_dataset
from ggsfc.policy import (
    LOCKSTEP_SLICE,
    PolicyConfig,
    episode_gradients,
    init_policy_params,
    load_policy,
    rollout,
    teacher_force,
)
from ggsfc.topology import generate_pool, internet2_fixture
from ggsfc.training import (
    HistoryRow,
    HyperParams,
    compute_returns,
    greedy_failure_ratio,
    reinforce_update,
    save_history,
    train_rl,
    train_sl,
)
from support import (
    briefly_trained_policy,
    check_lockstep_rows,
    tiny_cfg,
    tiny_topology,
    walk_lockstep,
)

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# hyperparameters

@pytest.mark.parametrize("bad", [
    {"alpha_sl": 0.0},
    {"alpha_rl": -1e-5},
    {"gamma": 0.0},
    {"gamma": 1.5},
    {"epsilon": -0.1},
    {"epsilon": 1.01},
    {"lam": -1.0},
    {"episodes": -1},
])
def test_hyperparams_validation(bad):
    with pytest.raises(ValueError):
        HyperParams(**bad)


# ---------------------------------------------------------------------------
# returns

def test_returns_hand_case():
    # G2 = 3, G1 = 2 + 0.5*3 = 3.5, G0 = 1 + 0.5*3.5 = 2.75
    assert compute_returns([1.0, 2.0, 3.0], 0.5).tolist() == [2.75, 3.5, 3.0]


def test_returns_gamma_one_is_suffix_sums():
    assert compute_returns([1.0, 2.0, 3.0], 1.0).tolist() == [6.0, 5.0, 3.0]


def test_returns_terminal_reward_decays_geometrically():
    g = compute_returns([0.0, 0.0, 0.0, 8.0], 0.5)
    assert g.tolist() == [1.0, 2.0, 4.0, 8.0]


def test_returns_of_failure_episode_are_zero():
    assert not compute_returns([0.0, 0.0, 0.0], 0.999).any()


def test_returns_empty():
    assert compute_returns([], 0.9).shape == (0,)


# ---------------------------------------------------------------------------
# reinforce_update

def successful_trace(params, cfg, t):
    rng = np.random.default_rng(0)
    req = SfcRequest(0, 3, (0,))
    for _ in range(50):
        trace = rollout(params, cfg, t, req, RewardConfig(),
                        mode="epsilon_greedy", rng=rng, epsilon=0.3)
        if trace.success:
            return trace
    raise AssertionError("random policy never succeeded on the tiny case")


def test_update_skips_failure_episodes():
    t = tiny_topology()
    cfg = tiny_cfg()
    params = init_policy_params(cfg, seed=0)
    rng = np.random.default_rng(1)
    req = SfcRequest(0, 3, (0, 1))
    for _ in range(200):
        trace = rollout(params, cfg, t, req, RewardConfig(),
                        mode="epsilon_greedy", rng=rng, epsilon=0.5)
        if not trace.success:
            break
    else:
        raise AssertionError("never saw a failure")
    hp = HyperParams()
    returns = compute_returns(trace.rewards, hp.gamma)
    assert reinforce_update(trace, returns, hp.alpha_rl) is params


def test_update_raises_weighted_log_likelihood():
    t = tiny_topology()
    cfg = tiny_cfg()
    params = init_policy_params(cfg, seed=2)
    trace = successful_trace(params, cfg, t)
    hp = HyperParams(alpha_rl=1e-9)  # small enough to stay first-order
    returns = compute_returns(trace.rewards, hp.gamma)
    actions = tuple(s.action for s in trace.steps)

    def weighted(p):
        forced = teacher_force(p, cfg, t, trace.request, actions)
        return float(np.dot(returns, [s.log_prob for s in forced.steps]))

    before = weighted(params)
    updated = reinforce_update(trace, returns, hp.alpha_rl)
    assert updated is not params
    assert weighted(updated) > before


def test_cache_based_update_is_bit_identical_to_a_replayed_one():
    """reinforce_update backprops through the rollout's caches; its
    parameters equal, byte for byte, those of a teacher-forced replay of the
    same actions followed by the per-tensor step value + alpha * g."""
    t = internet2_fixture()
    cfg = PolicyConfig()
    hp = HyperParams(alpha_rl=1e-3, lam=0.5)
    checked = 0
    for seed in range(3):
        params = init_policy_params(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        for req in generate_requests(t, 25, (1, 3), rng):
            trace = rollout(params, cfg, t, req, RewardConfig(lam=hp.lam),
                            mode="epsilon_greedy", rng=rng, epsilon=0.3)
            if not trace.success:
                continue
            returns = compute_returns(trace.rewards, hp.gamma)
            actions = tuple(s.action for s in trace.steps)
            forced = teacher_force(params, cfg, t, req, actions)
            grads = episode_gradients(forced, returns)
            updated = reinforce_update(trace, returns, hp.alpha_rl)
            for name, value in params.items():
                expected = value + 1.0 * hp.alpha_rl * grads[name]
                assert updated[name].tobytes() == expected.tobytes(), name
            checked += 1
    assert checked >= 15


def test_update_rejects_non_finite_gradients(monkeypatch, caplog):
    t = tiny_topology()
    cfg = tiny_cfg()
    params = init_policy_params(cfg, seed=2)
    trace = successful_trace(params, cfg, t)
    hp = HyperParams()

    def explode(*args, **kwargs):
        raise NonFiniteGradientError("nan in enc.W_z")

    monkeypatch.setattr(training, "sgd_update", explode)
    with caplog.at_level("WARNING", logger="ggsfc.training"):
        out = reinforce_update(trace, compute_returns(trace.rewards, hp.gamma), hp.alpha_rl)
    assert out is params
    assert "non-finite" in caplog.text


# ---------------------------------------------------------------------------
# supervised loop

def fixture_sl_setup(n_requests=40, seed=5):
    t = internet2_fixture()
    rng = np.random.default_rng(seed)
    dataset = label_dataset(t, generate_requests(t, n_requests, (1, 2), rng))
    return t, dataset


def test_train_sl_rejects_empty_dataset():
    t, dataset = fixture_sl_setup(2)
    empty = type(dataset)(examples=(), dropped_infeasible=0, dropped_over_budget=0)
    with pytest.raises(ValueError, match="empty"):
        train_sl(init_policy_params(PolicyConfig(), seed=0), PolicyConfig(),
                 t, empty, HyperParams())


def test_train_sl_loss_decreases():
    t, dataset = fixture_sl_setup()
    cfg = PolicyConfig()
    params, history = train_sl(
        init_policy_params(cfg, seed=0), cfg, t, dataset,
        HyperParams(sl_epochs=3, seed=0),
    )
    assert len(history) == 3
    assert history[-1].loss < history[0].loss
    # no holdout: the accuracy columns stay empty
    assert all(np.isnan(r.success_rate) and np.isnan(r.mean_delay) for r in history)


def test_train_sl_holdout_and_early_stop():
    t, dataset = fixture_sl_setup()
    cfg = PolicyConfig()
    holdout = label_dataset(
        t, generate_requests(t, 10, (1, 2), np.random.default_rng(77)))
    # any failure ratio passes a threshold of 1.0, so epoch 1 stops the run
    params, history = train_sl(
        init_policy_params(cfg, seed=0), cfg, t, dataset,
        HyperParams(sl_epochs=30, seed=0), holdout=holdout,
        stop_failure_ratio=1.0,
    )
    assert len(history) == 1
    assert 0.0 <= history[0].success_rate <= 1.0


def test_train_sl_on_a_pool_labelled_dataset():
    pool = generate_pool(internet2_fixture(), "cs2", pool_size=3, seed=2)
    rng = np.random.default_rng(4)
    requests = []
    for tid, t in enumerate(pool.variants):
        requests += [(tid, req) for req in generate_requests(t, 3, (1, 2), rng)]
    dataset = label_dataset(pool, requests)
    assert {ex.topology_id for ex in dataset.examples} == {0, 1, 2}
    cfg = PolicyConfig()
    params, history = train_sl(
        init_policy_params(cfg, seed=0), cfg, pool, dataset,
        HyperParams(sl_epochs=1, seed=0), holdout=dataset,
    )
    assert len(history) == 1 and np.isfinite(history[0].loss)
    assert 0.0 <= history[0].success_rate <= 1.0


def test_train_sl_rejects_topology_ids_outside_the_list():
    t, dataset = fixture_sl_setup(3)
    cfg = PolicyConfig()
    bad = type(dataset)(
        examples=dataset.examples[:-1] + (replace(dataset.examples[-1], topology_id=-1),),
        dropped_infeasible=0, dropped_over_budget=0,
    )
    for ds, holdout, name in ((bad, None, "dataset"), (dataset, bad, "holdout")):
        message = (f"{name}: example 2 (topology_id -1) is out of range: "
                   "expected 0 <= id < 1, the number of topologies given")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train_sl(init_policy_params(cfg, seed=0), cfg, t, ds,
                     HyperParams(sl_epochs=1), holdout=holdout)


def test_train_sl_is_deterministic():
    t, dataset = fixture_sl_setup(12)
    cfg = PolicyConfig()
    runs = []
    for _ in range(2):
        params, history = train_sl(
            init_policy_params(cfg, seed=3), cfg, t, dataset,
            HyperParams(sl_epochs=1, seed=3),
        )
        runs.append((params, [r.loss for r in history]))
    assert runs[0][1] == runs[1][1]
    assert all(np.array_equal(runs[0][0][n], runs[1][0][n])
               for n in runs[0][0].names())


def test_train_sl_is_bit_identical_to_descending_the_loss():
    """train_sl ascends with coefficients of +1; its parameters and losses
    equal, byte for byte, those of the reference kept here, which takes the
    loss gradient (coefficients of -1) and steps p + (-alpha) * g on the flat
    buffer."""
    t, dataset = fixture_sl_setup(20)
    cfg = PolicyConfig()
    hp = HyperParams(sl_epochs=1, seed=3)
    start = init_policy_params(cfg, seed=3)
    params, history = train_sl(start, cfg, t, dataset, hp)

    ref = start
    losses = []
    for idx in np.random.default_rng(hp.seed).permutation(len(dataset.examples)):
        ex = dataset.examples[idx]
        trace = teacher_force(ref, cfg, t, ex.request, ex.actions)
        losses.append(-sum(s.log_prob for s in trace.steps))
        g = episode_gradients(trace, -np.ones(len(ex.actions)))
        ref = ParamSet._from_flat(ref._flat + (-hp.alpha_sl) * g._flat, ref._layout)
    assert len(dataset.examples) >= 15
    assert params._flat.tobytes() == ref._flat.tobytes()
    assert history[0].loss == float(np.mean(losses))


def test_train_sl_skips_a_non_finite_update(monkeypatch, caplog):
    t, dataset = fixture_sl_setup(3)
    cfg = PolicyConfig()
    params = init_policy_params(cfg, seed=0)
    before = params._flat.tobytes()

    def explode(*args, **kwargs):
        raise NonFiniteGradientError("nan in enc.W_z")

    monkeypatch.setattr(training, "sgd_update", explode)
    with caplog.at_level("WARNING", logger="ggsfc.training"):
        out, history = train_sl(params, cfg, t, dataset, HyperParams(sl_epochs=1))
    assert out is params and out._flat.tobytes() == before
    assert len(history) == 1
    assert caplog.text.count("non-finite") == len(dataset.examples)


def test_greedy_failure_ratio_empty_pairs():
    fr, mean_delay = greedy_failure_ratio(
        init_policy_params(PolicyConfig(), seed=0), PolicyConfig(), [])
    assert np.isnan(fr) and np.isnan(mean_delay)


def test_greedy_failure_ratio_equals_a_per_request_rollout_loop():
    """The lockstep FR and mean delay equal a per-request rollout loop's,
    bit for bit, for a briefly trained policy on pairs on the fixture and
    on cs2 variants, some of which it walks to success and some not, and
    for untrained params on the fixture, which fail every pair: FR 1.0 and
    a NaN mean delay."""
    fixture = internet2_fixture()
    params, cfg = briefly_trained_policy()
    rng = np.random.default_rng(9)
    graphs = [fixture, *generate_pool(fixture, "cs2", pool_size=3, seed=1).variants]
    pairs = [(t, req) for t in graphs for req in generate_requests(t, 8, (1, 3), rng)]
    untrained = init_policy_params(cfg, seed=0)
    all_fail = [(fixture, req) for req in generate_requests(fixture, 8, (2, 4), rng)]
    for params, pairs, mixed in ((params, pairs, True), (untrained, all_fail, False)):
        fr, mean_delay = greedy_failure_ratio(params, cfg, pairs)
        traces = [rollout(params, cfg, t, req) for t, req in pairs]
        delays = [trace.total_delay for trace in traces if trace.success]
        assert fr.hex() == ((len(pairs) - len(delays)) / len(pairs)).hex()
        if mixed:
            assert 0 < len(delays) < len(pairs)
            assert mean_delay.hex() == float(np.mean(delays)).hex()
        else:
            assert not delays and fr == 1.0 and np.isnan(mean_delay)


def test_a_large_holdout_walks_in_bounded_memory_and_keeps_every_walks_bits(monkeypatch):
    """500 fixture requests are one node-count group; walked in slices of
    LOCKSTEP_SLICE, the holdout's tracemalloc peak stays small (2.3 MiB
    measured, against 0.9 MiB for per-request walks), and each walk equals its own rollout row by row."""
    params, cfg, _ = load_policy(ROOT / "bench" / "checkpoints" / "sl.ckpt")
    fixture = internet2_fixture()
    pairs = [(fixture, req)
             for req in generate_requests(fixture, 500, (1, 4), np.random.default_rng(0))]
    walks = []
    real_rollout = evaluation.rollout

    def spy(*args, **kwargs):
        walks.append(real_rollout(*args, **kwargs))
        return walks[-1]

    monkeypatch.setattr(evaluation, "rollout", spy)
    tracemalloc.start()
    try:
        fr, _ = greedy_failure_ratio(params, cfg, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
    assert len(walks) == len(pairs) and 0 < fr < 0.1
    # the rows are checked on a second lockstep, outside the measured window
    lockstep, calls = walk_lockstep(params, cfg, pairs)
    assert check_lockstep_rows(lockstep, calls) > len(pairs)
    assert walks == lockstep._walks


def test_a_large_mixed_size_holdout_walks_in_bounded_memory_and_keeps_every_walks_bits(
        monkeypatch):
    """500 requests over 20 cs1 pool variants of several node counts are
    walked in size-sorted slices of LOCKSTEP_SLICE, several of them over
    more than one node count; the holdout's tracemalloc peak stays under the
    fixture holdout's bound (3.1 MiB measured), and each walk equals its own
    rollout row by row."""
    params, cfg, _ = load_policy(ROOT / "bench" / "checkpoints" / "sl.ckpt")
    pool = generate_pool(internet2_fixture(), "cs1", pool_size=20, seed=7)
    pairs = [(pool.variants[i], req) for i, req in
             generate_pool_requests(pool.variants, 500, (1, 4), np.random.default_rng(0))]
    walks = []
    real_rollout = evaluation.rollout

    def spy(*args, **kwargs):
        walks.append(real_rollout(*args, **kwargs))
        return walks[-1]

    monkeypatch.setattr(evaluation, "rollout", spy)
    tracemalloc.start()
    try:
        fr, _ = greedy_failure_ratio(params, cfg, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
    assert len(walks) == len(pairs) and 0 < fr < 1
    # the rows are checked on a second lockstep, outside the measured window
    lockstep, calls = walk_lockstep(params, cfg, pairs)
    assert check_lockstep_rows(lockstep, calls) > len(pairs)
    assert walks == [lockstep.walk(t, req) for t, req in pairs]
    sizes = [{lockstep._pairs[p][0].num_nodes for p in filled} for filled, _ in calls if filled]
    assert len(sizes) == -(-len(pairs) // LOCKSTEP_SLICE)
    assert sum(len(s) > 1 for s in sizes) > 1


def test_each_holdout_walk_is_one_rollout_from_the_epochs_lockstep(monkeypatch):
    """train_sl takes each holdout walk with one evaluation.rollout call, all
    of an epoch's from one lockstep under that epoch's params."""
    t, dataset = fixture_sl_setup(6)
    holdout = label_dataset(t, generate_requests(t, 5, (1, 2), np.random.default_rng(3)))
    calls = []
    real_rollout = evaluation.rollout

    def spy(params, cfg, graph, req, *args, **kwargs):
        calls.append((params, graph, req, kwargs.get("lockstep")))
        return real_rollout(params, cfg, graph, req, *args, **kwargs)

    monkeypatch.setattr(evaluation, "rollout", spy)
    cfg = PolicyConfig()
    train_sl(init_policy_params(cfg, seed=0), cfg, t, dataset, HyperParams(sl_epochs=2),
             holdout=holdout)
    count = len(holdout.examples)
    assert len(calls) == 2 * count
    for epoch in (calls[:count], calls[count:]):
        assert [req for _, _, req, _ in epoch] == [ex.request for ex in holdout.examples]
        assert all(graph is t for _, graph, _, _ in epoch)
        lockstep = epoch[0][3]
        assert lockstep is not None and lockstep.params is epoch[0][0]
        assert all(ls is lockstep and p is lockstep.params for p, _, _, ls in epoch)
    assert calls[0][3] is not calls[count][3]


# ---------------------------------------------------------------------------
# reinforcement loop

def test_train_rl_history_covers_every_episode():
    t = tiny_topology()
    cfg = tiny_cfg()
    params, history = train_rl(
        init_policy_params(cfg, seed=0), t,
        HyperParams(episodes=30, seed=0), cfg,
    )
    assert [r.index for r in history] == list(range(1, 31))
    assert all(0.0 <= r.success_rate <= 1.0 for r in history)
    # window of one episode: the first rate is all-or-nothing
    assert history[0].success_rate in (0.0, 1.0)


def test_train_rl_early_stop_waits_for_a_full_window():
    t = tiny_topology()
    cfg = tiny_cfg()
    params, history = train_rl(
        init_policy_params(cfg, seed=0), t,
        HyperParams(episodes=50, seed=0), cfg,
        rolling_window=5, stop_success_rate=0.0,
    )
    assert len(history) == 5  # any rate passes 0.0 once the window fills


def test_train_rl_rejects_empty_topology_list():
    with pytest.raises(ValueError, match="no topologies"):
        train_rl(init_policy_params(tiny_cfg(), seed=0), [],
                 HyperParams(episodes=1), tiny_cfg())


@pytest.mark.parametrize("window", [0, -1])
def test_train_rl_rejects_a_rolling_window_below_one(window):
    with pytest.raises(ValueError, match=f"rolling_window must be >= 1, got {window}"):
        train_rl(init_policy_params(tiny_cfg(), seed=0), tiny_topology(),
                 HyperParams(episodes=1), tiny_cfg(), rolling_window=window)


def test_train_rl_zero_episodes_is_a_no_op():
    t = tiny_topology()
    cfg = tiny_cfg()
    params = init_policy_params(cfg, seed=0)
    out, history = train_rl(params, t, HyperParams(episodes=0), cfg)
    assert history == []
    assert all(np.array_equal(out[n], params[n]) for n in params.names())


def test_train_rl_draws_from_pool_variants(monkeypatch):
    pool = generate_pool(internet2_fixture(), "cs1", pool_size=5, seed=9)
    cfg = PolicyConfig()
    seen = []

    def spy_requests(topo, *args):
        seen.append(topo)
        return generate_requests(topo, *args)

    monkeypatch.setattr(training, "generate_requests", spy_requests)
    train_rl(init_policy_params(cfg, seed=0), pool,
             HyperParams(episodes=25, seed=4), cfg)
    assert len(seen) == 25
    assert len({id(t) for t in seen}) > 1  # more than one variant drawn


def test_train_rl_is_deterministic():
    t = tiny_topology()
    cfg = tiny_cfg()
    runs = []
    for _ in range(2):
        params, history = train_rl(
            init_policy_params(cfg, seed=1), t,
            HyperParams(episodes=40, seed=7), cfg,
        )
        runs.append((params, [(r.success_rate, r.loss) for r in history]))
    assert runs[0][1] == runs[1][1]
    assert all(np.array_equal(runs[0][0][n], runs[1][0][n])
               for n in runs[0][0].names())


def test_train_rl_progress_callback_sees_every_row():
    t = tiny_topology()
    cfg = tiny_cfg()
    rows = []
    _, history = train_rl(
        init_policy_params(cfg, seed=0), t,
        HyperParams(episodes=10, seed=0), cfg,
        progress=rows.append,
    )
    assert rows == history


# ---------------------------------------------------------------------------
# history files

def test_save_history_format(tmp_path):
    rows = [
        HistoryRow(index=1, success_rate=0.5, mean_delay=12.0, loss=3.25),
        HistoryRow(index=2, success_rate=0.875, mean_delay=10.5, loss=-41000.0),
    ]
    path = tmp_path / "curve.csv"
    save_history(rows, path, "episode")
    assert path.read_text() == (
        "episode,success_rate,mean_delay,loss\n"
        "1,0.5,12,3.25\n"
        "2,0.875,10.5,-41000\n"
    )


def test_save_history_writes_a_failed_episode_loss_as_zero(tmp_path):
    path = tmp_path / "curve.csv"
    save_history([HistoryRow(index=1, success_rate=0.0, mean_delay=float("nan"), loss=-0.0)],
                 path, "episode")
    assert path.read_text().splitlines()[1] == "1,0,nan,0"
