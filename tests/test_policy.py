"""Encoder/decoder policy: annotations, distributions, rollouts, gradients."""

import gc
import json
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggsfc.environment import (
    Action,
    RewardConfig,
    SfcRequest,
    generate_requests,
    reset,
    total_delay,
)
from ggsfc import nn, policy
from ggsfc.nn import ParamSet, fuse_gru
from ggsfc.oracle import solve_optimal
from ggsfc.policy import (
    BACKWARD_STACK,
    ENCODE_STACK,
    LOCKSTEP_SLICE,
    MAX_T_PROP,
    ActionDistribution,
    Lockstep,
    PolicyConfig,
    _greedy_action,
    _masks,
    action_log_prob,
    annotate,
    decode_step,
    encode,
    encode_backward,
    episode_gradients,
    init_policy_params,
    load_policy,
    rollout,
    save_policy,
    teacher_force,
)
from ggsfc.topology import (
    Topology,
    adjacency_matrix,
    generate_pool,
    internet2_fixture,
)
from support import (
    FUZZ,
    check_lockstep_rows,
    deploy_vnfs,
    finite_diff_check,
    fixture_like_graph,
    graph_requests,
    leaf_paths,
    one_leaf_replaced,
    random_connected_graph,
    reference_encode_backward,
    reference_episode_gradients,
    tiny_cfg,
    tiny_topology,
    walk_lockstep,
)

E2E_TOL = 1e-5


# ---------------------------------------------------------------------------
# config and parameters

def test_config_rejects_annotations_wider_than_hidden():
    with pytest.raises(ValueError, match="exceeds"):
        PolicyConfig(hidden_dim=6, vnf_type_count=5, t_prop=1)  # K+3 = 8 > 6


@pytest.mark.parametrize("t_prop", [-1, MAX_T_PROP + 1, 10**9])
def test_config_refuses_t_prop_outside_its_bound(t_prop):
    with pytest.raises(ValueError, match=rf"^t_prop {t_prop} is outside 0\.\.{MAX_T_PROP}$"):
        PolicyConfig(t_prop=t_prop)


def test_config_widths():
    cfg = PolicyConfig(hidden_dim=32, vnf_type_count=5, t_prop=5)
    assert cfg.feature_width == 8
    assert cfg.decoder_input_width == 42


def test_init_policy_params_shapes_and_determinism():
    cfg = tiny_cfg()
    p = init_policy_params(cfg, seed=3)
    q = init_policy_params(cfg, seed=3)
    assert p.names() == q.names()
    assert all(np.array_equal(p[n], q[n]) for n in p.names())
    shapes = p.shapes()
    assert shapes["enc.W_z"] == (8, 8)
    assert shapes["dec.W_z"] == (cfg.decoder_input_width, 8)
    assert shapes["score.W_emb"] == (8, 8)
    assert shapes["score.v"] == (8,)
    assert shapes["proc.w"] == (8,)
    assert shapes["proc.b"] == (1,)
    assert np.all(p["proc.b"] == 0.0)


# ---------------------------------------------------------------------------
# annotations and encoding

def test_annotate_bit_layout():
    t = tiny_topology()
    cfg = tiny_cfg()
    req = SfcRequest(0, 3, (0, 1))
    h0 = annotate(t, req, 0, cfg)
    assert h0.shape == (4, 8)
    expect = np.zeros((4, 8))
    expect[1, 0] = 1.0  # node 1 hosts type 0
    expect[2, 1] = 1.0  # node 2 hosts type 1
    expect[0, 2] = 1.0  # source flag
    expect[3, 3] = 1.0  # destination flag
    expect[1, 4] = 1.0  # node 1 hosts the pending type (0)
    assert np.array_equal(h0, expect)


def test_annotate_tracks_chain_progress():
    t = tiny_topology()
    cfg = tiny_cfg()
    req = SfcRequest(0, 3, (0, 1))
    h1 = annotate(t, req, 1, cfg)
    assert h1[2, 4] == 1.0 and h1[1, 4] == 0.0  # pending moved to type 1
    h2 = annotate(t, req, 2, cfg)
    assert np.all(h2[:, 4] == 0.0)  # chain complete, nothing pending


def test_annotate_rejects_type_count_mismatch():
    t = tiny_topology()
    cfg = PolicyConfig(hidden_dim=8, vnf_type_count=3, t_prop=1)
    with pytest.raises(ValueError, match="VNF types"):
        annotate(t, SfcRequest(0, 3, (0,)), 0, cfg)


def test_encode_zero_rounds_returns_annotations():
    t = tiny_topology()
    cfg = tiny_cfg(t_prop=0)
    params = init_policy_params(cfg, seed=0)
    h0 = annotate(t, SfcRequest(0, 3, (0,)), 0, cfg)
    h, caches = encode(h0, adjacency_matrix(t), 0, fuse_gru(params, "enc."))
    assert np.array_equal(h, h0)
    assert caches == []


def test_encode_shape_and_determinism():
    t = tiny_topology()
    cfg = tiny_cfg()
    params = init_policy_params(cfg, seed=0)
    h0 = annotate(t, SfcRequest(0, 3, (0,)), 0, cfg)
    a = adjacency_matrix(t)
    gru = fuse_gru(params, "enc.")
    h1, _ = encode(h0, a, cfg.t_prop, gru)
    h2, _ = encode(h0, a, cfg.t_prop, gru)
    assert h1.shape == (4, 8)
    assert np.array_equal(h1, h2)
    h3, _ = encode(h0, a, cfg.t_prop + 1, gru)
    assert not np.array_equal(h1, h3)


def _bench_graphs():
    fixture = internet2_fixture()
    return [fixture,
            *generate_pool(fixture, "cs1", 2, seed=11).variants,
            *generate_pool(fixture, "cs2", 2, seed=12).variants]


def test_stacked_encoder_is_bit_identical_to_per_segment_calls():
    """Byte-equal embeddings, input gradients and per-segment parameter
    gradients, on this numpy build, at every chain index of requests on the
    fixture and on cs1 and cs2 variants.  The reference is the per-segment
    encode and round-by-round backward the episode ran before segments were
    stacked."""
    cfg = PolicyConfig()
    params = init_policy_params(cfg, seed=4)
    gru = fuse_gru(params, "enc.")
    rng = np.random.default_rng(21)
    segments = 0
    for t in _bench_graphs():
        a = adjacency_matrix(t)
        for req in generate_requests(t, 3, (1, 4), rng):
            n_seg = len(req.chain) + 1
            h0 = np.stack([annotate(t, req, i, cfg) for i in range(n_seg)])
            grad = rng.normal(size=h0.shape)
            enc_h, caches = encode(h0, a, cfg.t_prop, gru)
            d_h0, grads = encode_backward(grad, caches)
            for i in range(n_seg):
                ref_h, ref_caches = encode(h0[i], a, cfg.t_prop, gru)
                ref_d_h0, ref_grads = reference_encode_backward(grad[i], ref_caches, params)
                assert enc_h[i].tobytes() == ref_h.tobytes()
                assert d_h0[i].tobytes() == ref_d_h0.tobytes()
                assert grads.keys() == ref_grads.keys()
                for name, g in ref_grads.items():
                    assert grads[name][i].tobytes() == g.tobytes(), name
                segments += 1
    assert segments > 40


def test_encode_rejects_adjacency_mismatch():
    cfg = tiny_cfg()
    params = init_policy_params(cfg, seed=0)
    with pytest.raises(ValueError, match="adjacency"):
        encode(np.zeros((4, 8)), np.zeros((3, 3)), 1, fuse_gru(params, "enc."))


# ---------------------------------------------------------------------------
# action distributions

def run_one_decode(seed=0):
    t = tiny_topology()
    cfg = tiny_cfg()
    params = init_policy_params(cfg, seed=seed)
    req = SfcRequest(0, 3, (0,))
    h0 = annotate(t, req, 0, cfg)
    enc_h, _ = encode(h0, adjacency_matrix(t), cfg.t_prop, fuse_gru(params, "enc."))
    move = np.array([False, True, False, True])
    proc = np.array([False, True, False, False])
    hidden = np.zeros(8)
    x = np.concatenate([[1.0, 0.0], [1.0, 0.0], enc_h[0]])  # v_all, v_now, node row
    dist, hidden2, _ = decode_step(enc_h, enc_h @ params["score.W_emb"], hidden, x,
                                   move, proc, params, fuse_gru(params, "dec."))
    return dist, hidden, hidden2


def test_decode_step_masks_and_normalizes():
    dist, hidden, hidden2 = run_one_decode()
    assert dist.node_probs[0] == 0.0 and dist.node_probs[2] == 0.0
    assert dist.node_probs.sum() == pytest.approx(1.0)
    assert np.all(dist.node_probs[[1, 3]] > 0)
    # where processing is invalid, the move alone carries the whole log-prob
    assert action_log_prob(dist, Action(3, False)) == np.log(dist.node_probs[3])
    p_process = np.exp(action_log_prob(dist, Action(1, True))) / dist.node_probs[1]
    assert 0.0 < p_process < 1.0
    # the recurrent state advanced
    assert not np.array_equal(hidden, hidden2)


def out_of_place_scorer(enc_scores, hidden, move_mask, params):
    """decode_step's scorer as it was before it wrote in place: the cached
    activations s, node probs and process logits from the advanced hidden
    state."""
    s = np.tanh(enc_scores + hidden @ params["score.W_hid"])
    logits = s @ params["score.v"]
    e = np.where(move_mask, np.exp(logits - logits.max(axis=-1, keepdims=True, where=move_mask,
                                                       initial=-np.inf)), 0.0)
    return s, e / e.sum(axis=-1, keepdims=True), s @ params["proc.w"] + params["proc.b"][0]


@pytest.mark.parametrize("live", [None, 1, 6, 37])
def test_decode_step_keeps_the_out_of_place_bytes_and_its_arguments(live):
    """Byte-equal node probs, process logits, hidden state and cached scorer
    activations for a 1-D step (live None) and an (L, ...) stack; no
    argument is written, enc_scores being a view of a larger array as in an
    episode."""
    rng = np.random.default_rng(live or 0)
    cfg = PolicyConfig()
    n, h, d = 12, cfg.hidden_dim, cfg.decoder_input_width
    lead = () if live is None else (live,)
    for seed in range(5):
        params = init_policy_params(cfg, seed=seed)
        table = rng.normal(size=(3,) + lead + (n, h))
        enc_scores = table[1]
        hidden = np.tanh(rng.normal(size=lead + (1,) * bool(lead) + (h,)))
        x = rng.normal(size=lead + (1,) * bool(lead) + (d,))
        move = rng.random(lead + (n,)) < 0.4
        move[..., seed] = True
        proc = move & (rng.random(lead + (n,)) < 0.5)
        args = (table, hidden, x, move, proc, params._flat)
        before = [a.copy() for a in args]
        dist, new_hidden, cache = decode_step(None, enc_scores, hidden, x, move, proc, params,
                                              fuse_gru(params, "dec."))
        want_hidden, _ = nn.gru_cell(x, hidden, fuse_gru(params, "dec."))
        want_s, want_probs, want_process = out_of_place_scorer(enc_scores, want_hidden, move,
                                                               params)
        assert new_hidden.tobytes() == want_hidden.tobytes()
        assert cache[2].tobytes() == want_s.tobytes()
        assert dist.node_probs.tobytes() == want_probs.tobytes()
        assert dist.process_logits.tobytes() == want_process.tobytes()
        assert dist.move_mask is move and dist.process_mask is proc and cache[4] is dist
        assert [a.tobytes() for a in args] == [a.tobytes() for a in before]


def test_masks_are_read_only():
    # one episode hands the same mask arrays to every visit of a node
    t = tiny_topology()
    move, proc, acts = _masks(reset(t, SfcRequest(0, 3, (0,))), t)
    assert move.tolist() == [False, True, False, True]
    assert proc.tolist() == [False, True, False, False]
    assert len(acts) == 3
    for mask in (move, proc):
        with pytest.raises(ValueError, match="read-only"):
            mask[0] = True


def test_action_probs_sum_to_one_over_valid_actions():
    dist, _, _ = run_one_decode()
    acts = [Action(1, False), Action(1, True), Action(3, False)]
    total = sum(np.exp(action_log_prob(dist, a)) for a in acts)
    assert total == pytest.approx(1.0)


def _action_prob(dist, a):
    """pi(a) from its definition: P(node) times P(process decision there)."""
    node_p = dist.node_probs[a.next_node]
    if not dist.process_mask[a.next_node]:
        return node_p if not a.process else 0.0
    proc_p = 1.0 / (1.0 + np.exp(-dist.process_logits[a.next_node]))
    return node_p * (proc_p if a.process else 1.0 - proc_p)


def test_action_log_prob_matches_action_prob():
    dist, _, _ = run_one_decode()
    for a in (Action(1, False), Action(1, True), Action(3, False)):
        assert action_log_prob(dist, a) == pytest.approx(np.log(_action_prob(dist, a)))


def test_action_log_prob_rejects_masked_actions():
    dist, _, _ = run_one_decode()
    with pytest.raises(ValueError, match="masked node"):
        action_log_prob(dist, Action(0, False))
    with pytest.raises(ValueError, match="masked"):
        action_log_prob(dist, Action(3, True))


def test_greedy_process_decision_matches_the_full_width_sigmoid():
    """The greedy action takes the chosen node's sigmoid alone; its process
    decision equals the one read from a sigmoid over every node."""
    rng = np.random.default_rng(5)
    n = 12
    move = np.ones(n, dtype=bool)
    tiny = np.array([0.0, -0.0, 1e-17, -1e-17, 5e-324, -5e-324, 1e-300, -1e-300])
    decisions = set()
    for trial in range(400):
        logits = rng.normal(scale=10.0 ** rng.integers(-18, 2), size=n)
        logits[rng.integers(n, size=3)] = rng.choice(tiny, size=3)
        proc = rng.random(n) < 0.7
        for node in range(n):
            node_probs = np.full(n, 0.5 / (n - 1))
            node_probs[node] = 0.5
            dist = ActionDistribution(node_probs, move, proc, logits)
            full = np.where(proc, nn.sigmoid(logits), 0.0)
            assert _greedy_action(dist) == Action(node, bool(full[node] >= 0.5))
            decisions.add(_greedy_action(dist).process)
    assert decisions == {False, True}


# ---------------------------------------------------------------------------
# rollouts

def test_greedy_rollout_is_deterministic():
    t = internet2_fixture()
    cfg = PolicyConfig()
    params = init_policy_params(cfg, seed=1)
    req = SfcRequest(0, 11, (1, 2))
    a = rollout(params, cfg, t, req, RewardConfig(), mode="greedy")
    b = rollout(params, cfg, t, req, RewardConfig(), mode="greedy")
    assert [s.action for s in a.steps] == [s.action for s in b.steps]
    assert a.path == b.path


def test_sample_rollout_is_seeded():
    t = internet2_fixture()
    cfg = PolicyConfig()
    params = init_policy_params(cfg, seed=1)
    req = SfcRequest(2, 9, (0, 3))
    a = rollout(params, cfg, t, req, mode="epsilon_greedy",
                rng=np.random.default_rng(4), epsilon=0.5)
    b = rollout(params, cfg, t, req, mode="epsilon_greedy",
                rng=np.random.default_rng(4), epsilon=0.5)
    assert [s.action for s in a.steps] == [s.action for s in b.steps]


def test_epsilon_zero_matches_greedy():
    t = internet2_fixture()
    cfg = PolicyConfig()
    params = init_policy_params(cfg, seed=1)
    req = SfcRequest(4, 8, (2,))
    g = rollout(params, cfg, t, req, mode="greedy")
    e = rollout(params, cfg, t, req, mode="epsilon_greedy",
                rng=np.random.default_rng(0), epsilon=0.0)
    assert [s.action for s in g.steps] == [s.action for s in e.steps]


def test_rollout_argument_validation():
    t = tiny_topology()
    cfg = tiny_cfg()
    params = init_policy_params(cfg, seed=0)
    req = SfcRequest(0, 3, (0,))
    with pytest.raises(ValueError, match="mode"):
        rollout(params, cfg, t, req, mode="thermal")
    with pytest.raises(ValueError, match="rng"):
        rollout(params, cfg, t, req, mode="epsilon_greedy", epsilon=0.5)
    with pytest.raises(ValueError, match="epsilon"):
        rollout(params, cfg, t, req, mode="epsilon_greedy", rng=np.random.default_rng(0))


@pytest.mark.parametrize("kind", ["greedy", "epsilon_greedy", "teacher_forced"])
def test_a_trace_is_freed_without_the_cycle_collector(kind):
    # its caches must not refer back to it, or every episode's forward pass
    # would live until the next gc cycle
    t = internet2_fixture()
    cfg = PolicyConfig()
    params = init_policy_params(cfg, seed=2)
    req = SfcRequest(1, 10, (0, 4))
    if kind == "teacher_forced":
        trace = teacher_force(params, cfg, t, req, solve_optimal(t, req).actions)
    else:
        trace = rollout(params, cfg, t, req, mode=kind,
                        rng=np.random.default_rng(8), epsilon=0.5)
    step = trace.steps[-1]
    # cache[2] is the scorer activation array, which only that step holds
    refs = [weakref.ref(x) for x in (trace, step, step.cache[2])]
    del step
    gc.disable()
    try:
        del trace
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def test_rollout_log_probs_are_log_probabilities():
    t = internet2_fixture()
    cfg = PolicyConfig()
    params = init_policy_params(cfg, seed=2)
    req = SfcRequest(1, 10, (0, 4))
    trace = rollout(params, cfg, t, req, mode="epsilon_greedy",
                    rng=np.random.default_rng(8), epsilon=0.5)
    assert all(s.log_prob <= 0.0 for s in trace.steps)


def test_greedy_actions_carry_plain_bools():
    t = internet2_fixture()
    cfg = PolicyConfig()
    params = init_policy_params(cfg, seed=0)  # greedy picks process-capable nodes
    for req in generate_requests(t, 5, (1, 4), np.random.default_rng(0)):
        trace = rollout(params, cfg, t, req, mode="greedy")
        assert all(type(s.action.process) is bool for s in trace.steps)
        json.dumps([[s.action.next_node, s.action.process] for s in trace.steps])


def test_one_parameter_set_runs_on_different_graph_sizes():
    cfg = PolicyConfig(hidden_dim=16, vnf_type_count=3, t_prop=3)
    params = init_policy_params(cfg, seed=0)
    rng = np.random.default_rng(6)
    for n in (8, 12, 20):
        t = deploy_vnfs(random_connected_graph(n, n - 1, rng), 2, (1, 10), rng, vnf_type_count=3)
        req = generate_requests(t, 1, (1, 2), rng)[0]
        trace = rollout(params, cfg, t, req, mode="greedy")
        assert len(trace.steps) >= 1


# ---------------------------------------------------------------------------
# gradients

def test_replayed_log_probs_are_bit_identical():
    t = internet2_fixture()
    cfg = PolicyConfig()
    params = init_policy_params(cfg, seed=5)
    rng = np.random.default_rng(12)
    for req in generate_requests(t, 5, (1, 3), rng):
        trace = rollout(params, cfg, t, req, mode="epsilon_greedy", rng=rng, epsilon=0.5)
        forced = teacher_force(params, cfg, t, req, tuple(s.action for s in trace.steps))
        assert [s.log_prob for s in forced.steps] == [s.log_prob for s in trace.steps]  # exact


def test_episode_gradients_match_finite_differences():
    t = tiny_topology()
    cfg = tiny_cfg()
    params = init_policy_params(cfg, seed=7)
    req = SfcRequest(0, 3, (0, 1))
    trace = rollout(params, cfg, t, req, mode="epsilon_greedy",
                    rng=np.random.default_rng(3), epsilon=0.5)
    actions = tuple(s.action for s in trace.steps)
    rng = np.random.default_rng(9)
    coeffs = rng.normal(size=len(actions))

    def f(p):
        forced = teacher_force(p, cfg, t, req, actions)
        log_probs = [s.log_prob for s in forced.steps]
        return float(np.dot(coeffs, log_probs)), episode_gradients(forced, coeffs)

    report = finite_diff_check(
        f, params, tolerance=E2E_TOL, max_coords_per_tensor=25,
        rng=np.random.default_rng(1),
    )
    assert report.passed, str(report)


def test_episode_gradients_validates_lengths():
    t = tiny_topology()
    cfg = tiny_cfg()
    params = init_policy_params(cfg, seed=0)
    trace = teacher_force(params, cfg, t, SfcRequest(0, 3, (0,)), (Action(1, True),))
    with pytest.raises(ValueError, match="coefficients"):
        episode_gradients(trace, [1.0, 2.0])


def test_teacher_force_refuses_a_walk_that_ends_early_or_a_masked_action():
    t = tiny_topology()
    cfg = tiny_cfg()
    params = init_policy_params(cfg, seed=0)
    req = SfcRequest(0, 3, (0,))
    # the walk succeeds on the third action; a fourth cannot be replayed
    actions = (Action(1, True), Action(2, False), Action(3, False), Action(2, False))
    with pytest.raises(ValueError, match="terminated after 3 of 4 actions"):
        teacher_force(params, cfg, t, req, actions)
    with pytest.raises(ValueError, match="moves to masked node 2"):
        teacher_force(params, cfg, t, req, (Action(2, False),))
    with pytest.raises(ValueError, match="processing at node 3 is masked"):
        teacher_force(params, cfg, t, req, (Action(3, True),))


def test_greedy_caches_give_the_teacher_forced_gradients_bit_for_bit():
    """Byte-equal gradients, on this numpy build, from a greedy rollout's
    caches, from teacher_force on its actions, and from the per-step
    reference with the encoder backward run over unreached segments too, on
    the fixture and on one cs1 and one cs2 variant."""
    cfg = PolicyConfig()
    graphs = _bench_graphs()
    rng = np.random.default_rng(5)
    unreached = 0
    for t in (graphs[0], graphs[1], graphs[3]):
        for seed in range(3):
            params = init_policy_params(cfg, seed=seed)
            for req in generate_requests(t, 4, (1, 4), rng):
                trace = rollout(params, cfg, t, req, mode="greedy")
                forced = teacher_force(params, cfg, t, req,
                                       tuple(s.action for s in trace.steps))
                coeffs = rng.normal(size=len(trace.steps))
                grads = episode_gradients(trace, coeffs)
                forced_grads = episode_gradients(forced, coeffs)
                ref = reference_episode_gradients(forced, coeffs, every_segment=True)
                for name, value in ref.items():
                    assert grads[name].tobytes() == value.tobytes(), name
                    assert forced_grads[name].tobytes() == value.tobytes(), name
                unreached += trace.steps[-1].segment < len(req.chain)
    assert unreached > 5


def _assert_reference_bytes(trace, coeffs):
    grads = episode_gradients(trace, coeffs)
    ref = reference_episode_gradients(trace, coeffs)
    for name, value in ref.items():
        assert grads[name].tobytes() == value.tobytes(), name


COEFFICIENTS = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 1.0, 1e4, -1e4, 9999.999]),
                         st.floats(-1e4, 1e4))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(graph_requests(nodes=(3, 20)), st.integers(0, 3), st.sampled_from([None, 0.3, 1.0]),
       st.data())
def test_episode_gradients_equal_the_per_step_reference_byte_for_byte(pair, seed, epsilon, data):
    """Every parameter's gradient has the bytes of the per-step backward, on
    this numpy build, for a greedy or epsilon-greedy walk on a random graph
    with a chain of 0-4 entries, or a prefix of it down to one step, under
    coefficients drawn with zeros, negatives and values near 1e4."""
    t, req = pair
    cfg = PolicyConfig()
    params = init_policy_params(cfg, seed=seed)
    if epsilon is None:
        trace = rollout(params, cfg, t, req)
    else:
        trace = rollout(params, cfg, t, req, mode="epsilon_greedy",
                        rng=np.random.default_rng(seed), epsilon=epsilon)
    k = data.draw(st.integers(1, len(trace.steps)))
    if k < len(trace.steps):
        trace = teacher_force(params, cfg, t, req, tuple(s.action for s in trace.steps[:k]))
    _assert_reference_bytes(trace, data.draw(st.lists(COEFFICIENTS, min_size=k, max_size=k)))


def test_every_kind_of_episode_keeps_the_per_step_reference_bytes():
    """Byte-equal gradients for chains of 0-4 entries, one-step episodes,
    walks with and without process decisions, walks over several backward
    stacks, and coefficients with zeros, negatives and values near 1e4."""
    cfg = PolicyConfig()
    rng = np.random.default_rng(8)
    kinds = {"one step": 0, "decided": 0, "undecided": 0, "stacks": 0}
    chains = set()
    for n in (5, 9, 40):
        t = fixture_like_graph(n, 1, n)
        params = init_policy_params(cfg, seed=n)
        for length in range(5):
            req = SfcRequest(0, n - 1, tuple(int(k) for k in rng.integers(0, 5, size=length)))
            for trace in (rollout(params, cfg, t, req),
                          rollout(params, cfg, t, req, mode="epsilon_greedy", rng=rng,
                                  epsilon=0.5)):
                actions = tuple(s.action for s in trace.steps)
                for forced in (trace, teacher_force(params, cfg, t, req, actions[:1])):
                    coeffs = rng.choice([0.0, -0.0, -1.0, 1e4, -9999.5, 0.25], len(forced.steps))
                    _assert_reference_bytes(forced, coeffs)
                    decided = any(s.cache[4].process_mask[s.action.next_node]
                                  for s in forced.steps)
                    kinds["one step"] += len(forced.steps) == 1
                    kinds["decided" if decided else "undecided"] += 1
                    kinds["stacks"] += len(forced.steps) > BACKWARD_STACK
                    chains.add(length)
    assert min(kinds.values()) > 0 and chains == set(range(5)), kinds


def test_a_long_walks_backward_runs_in_bounded_memory():
    """The backward of a 608-step greedy walk on a 200-node graph stacks a
    bounded number of steps at a time: its tracemalloc peak stays small
    (2.6 MiB measured with the decoder's outer products taken over the whole
    episode, against 71 MiB for one stack of the whole walk), and it keeps
    the per-step reference's bytes."""
    cfg = PolicyConfig()
    params = init_policy_params(cfg, 0)
    t = fixture_like_graph(200, 33, 1)
    requests = generate_requests(t, 10, (4, 4), np.random.default_rng(0))
    trace = next(tr for tr in (rollout(params, cfg, t, req) for req in requests)
                 if len(tr.steps) > 300)
    coeffs = np.linspace(-1.0, 1.0, len(trace.steps))
    assert len(trace.steps) == 608
    tracemalloc.start()
    try:
        episode_gradients(trace, coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
    _assert_reference_bytes(trace, coeffs)


# ---------------------------------------------------------------------------
# lockstep greedy walks

@st.composite
def mixed_size_pairs(draw):
    """Requests on random connected graphs of three or four node counts, in
    a drawn order, with chains of 0-4 entries: ENCODE_STACK + 1 requests on
    graphs of the first count, so that its segments cross an encoder stack
    boundary, and 1-8 on each other; at most 41 requests, one slice."""
    sizes = draw(st.lists(st.integers(3, 14), min_size=3, max_size=4, unique=True))
    counts = [ENCODE_STACK + 1] + [draw(st.integers(1, 8)) for _ in sizes[1:]]
    pairs = []
    for n, count in zip(sizes, counts):
        graphs = [fixture_like_graph(n, draw(st.integers(1, 2)), draw(st.integers(0, 2**16)))
                  for _ in range(draw(st.integers(1, 3)))]
        node = st.integers(0, n - 1)
        for _ in range(count):
            chain = draw(st.lists(st.integers(0, 4), max_size=4))
            pairs.append((draw(st.sampled_from(graphs)),
                          SfcRequest(draw(node), draw(node), tuple(chain))))
    return draw(st.permutations(pairs))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(mixed_size_pairs(), st.integers(0, 2**16))
def test_lockstep_walks_equal_per_request_rollouts_row_by_row(pairs, seed):
    """All node counts share one slice; every row of every step, and so each
    walk's actions, log-probs (float.hex) and path, equal its own rollout's."""
    cfg = PolicyConfig()
    params = init_policy_params(cfg, seed=seed)
    lockstep, calls = walk_lockstep(params, cfg, pairs)
    assert calls[0][0] == list(range(len(pairs)))
    assert check_lockstep_rows(lockstep, calls) >= len(pairs)
    for t, req in pairs:
        walk = lockstep.walk(t, req)
        assert walk == rollout(params, cfg, t, req).path
        assert walk.total_delay == total_delay(walk, t)


def test_rollout_takes_its_walk_from_a_lockstep():
    """Asked in any order, and twice for a repeated pair, each walk a
    lockstep gives rollout equals that request's own rollout; both node
    counts share one slice, so the first call walks every pair."""
    big, small = internet2_fixture(), fixture_like_graph(7, 2, seed=3)
    rng = np.random.default_rng(5)
    pairs = ([(big, r) for r in generate_requests(big, 5, (1, 3), rng)]
             + [(small, r) for r in generate_requests(small, 4, (1, 3), rng)])
    pairs.append(pairs[1])
    cfg = PolicyConfig()
    params = init_policy_params(cfg, seed=2)
    order = [pairs[3], pairs[1], pairs[0], pairs[-1], pairs[4], pairs[2], pairs[6]]
    lockstep, calls = walk_lockstep(params, cfg, pairs, order)
    assert check_lockstep_rows(lockstep, calls) > 0
    # size-sorted: the 7-node walks first, then the fixture's, the repeat last
    assert [filled for filled, _ in calls] == [list(range(10))] + [[]] * 6
    assert lockstep._pairs == pairs[5:9] + pairs[:5] + pairs[9:]
    for t, req in pairs:
        assert rollout(params, cfg, t, req, lockstep=lockstep) == rollout(params, cfg, t, req).path


def test_a_lockstep_walks_only_the_slice_that_holds_the_pair():
    """The pairs, sorted by node count, are cut into slices of
    LOCKSTEP_SLICE walks; asking for one walk advances its slice alone, a
    slice may hold two node counts, and the walks of a slice equal their own
    rollouts."""
    big, small = internet2_fixture(), fixture_like_graph(7, 2, seed=3)
    rng = np.random.default_rng(8)
    pairs = [(big, r) for r in generate_requests(big, LOCKSTEP_SLICE + 6, (1, 2), rng)]
    pairs.append((small, generate_requests(small, 1, (1, 2), rng)[0]))
    cfg = PolicyConfig()
    params = init_policy_params(cfg, seed=1)
    # sorted, the small pair comes first, so the last seven fixture pairs
    # make the second slice
    order = pairs[LOCKSTEP_SLICE - 1 : LOCKSTEP_SLICE + 6] + [pairs[-1]]
    lockstep, calls = walk_lockstep(params, cfg, pairs, order)
    assert check_lockstep_rows(lockstep, calls) > 0
    second = list(range(LOCKSTEP_SLICE, len(pairs)))
    assert [filled for filled, _ in calls] == [second] + [[]] * 6 + [list(range(LOCKSTEP_SLICE))]
    assert lockstep._pairs[:LOCKSTEP_SLICE] == [pairs[-1]] + pairs[: LOCKSTEP_SLICE - 1]
    assert {t.num_nodes for t, _ in lockstep._pairs[:LOCKSTEP_SLICE]} == {7, 12}
    assert None not in lockstep._walks


def test_a_slice_over_k_node_counts_makes_one_decoder_gru_call_per_step(monkeypatch):
    """A slice over three node counts advances all its live walks with one
    decoder ``nn.gru_cell`` call per step and scores them with at most three
    ``score`` calls, one per node count still walking; it encodes in one
    ``encode`` per ENCODE_STACK distinct segments of one node count."""
    graphs = [internet2_fixture(), fixture_like_graph(7, 2, seed=3),
              fixture_like_graph(9, 2, seed=4)]
    rng = np.random.default_rng(11)
    pairs = [(t, r) for t, count in zip(graphs, (24, 5, 3))
             for r in generate_requests(t, count, (1, 4), rng)]
    distinct = {t.num_nodes: {(r.source, r.destination, r.chain[i : i + 1])
                              for u, r in pairs if u is t for i in range(len(r.chain) + 1)}
                for t in graphs}
    assert len(distinct[12]) > 2 * ENCODE_STACK
    encoded = []
    real_encode = policy.encode

    def spy_encode(annotations, *args, **kwargs):
        encoded.append(annotations.shape[:2])
        return real_encode(annotations, *args, **kwargs)

    monkeypatch.setattr(policy, "encode", spy_encode)
    cfg = PolicyConfig()
    params = init_policy_params(cfg, seed=6)
    lockstep, calls = walk_lockstep(params, cfg, pairs)
    monkeypatch.undo()

    assert check_lockstep_rows(lockstep, calls) > 0
    (filled, steps), = [call for call in calls if call[0]]
    assert filled == list(range(len(pairs)))
    walks = {p: rollout(params, cfg, *lockstep._pairs[p]) for p in filled}
    # the walks do not all end together, so some steps score fewer counts
    assert len(steps) == max(len(tr.steps) for tr in walks.values())
    for k, (_, scored, _) in enumerate(steps):
        live = {lockstep._pairs[p][0].num_nodes for p in filled if len(walks[p].steps) > k}
        assert len(scored) == len(live) <= len(graphs)
    assert min(len(scored) for _, scored, _ in steps) < len(graphs) == len(steps[0][1])
    for n, segments in distinct.items():
        stacks = [s for s, m in encoded if m == n]
        assert len(stacks) == -(-len(segments) // ENCODE_STACK)
        assert sum(stacks) == len(segments)
        assert all(s == ENCODE_STACK for s in stacks[:-1])


def test_lockstep_encodes_each_distinct_segment_once_and_shares_masks_per_graph(monkeypatch):
    """Segments with the same graph object, endpoints and pending type are
    encoded once, a repeated type within a chain included, while an equal
    but distinct copy of the graph is encoded on its own; valid_actions runs
    once per (graph, node, pending type) any walk visits.  Every walk still
    equals its own rollout."""
    t = internet2_fixture()
    copy = Topology(t.num_nodes, t.edges, t.instances, t.vnf_type_count)
    assert copy == t and copy is not t
    pairs = [
        (t, SfcRequest(0, 11, (1, 2))),   # keys (t, 0, 11, 1 | 2 | None): 3 new
        (t, SfcRequest(0, 11, (2,))),     # (t, 0, 11, 2 | None): none new
        (t, SfcRequest(0, 11, (3, 3))),   # (t, 0, 11, 3) twice, then None: 1 new
        (copy, SfcRequest(0, 11, (1, 2))),  # the copy is not merged: 3 new
        (t, SfcRequest(4, 7, (1,))),      # other endpoints: 2 new
    ]
    segments, distinct = 13, 9
    encoded, annotated, visited = [], [], []
    real_encode, real_annotate, real_valid = policy.encode, policy.annotate, policy.valid_actions

    def spy_encode(annotations, *args, **kwargs):
        encoded.append(annotations.shape[0])
        return real_encode(annotations, *args, **kwargs)

    def spy_annotate(graph, *args):
        annotated.append(graph)
        return real_annotate(graph, *args)

    def spy_valid(state, graph):
        visited.append((id(graph), state.current_node, state.pending_type))
        return real_valid(state, graph)

    monkeypatch.setattr(policy, "encode", spy_encode)
    monkeypatch.setattr(policy, "annotate", spy_annotate)
    monkeypatch.setattr(policy, "valid_actions", spy_valid)
    cfg = PolicyConfig()
    params = init_policy_params(cfg, seed=4)
    lockstep, calls = walk_lockstep(params, cfg, pairs)
    monkeypatch.undo()

    assert sum(encoded) == len(annotated) == distinct < segments
    assert sum(g is copy for g in annotated) == 3
    assert len(visited) == len(set(visited))
    assert check_lockstep_rows(lockstep, calls) > 0
    per_walk, per_graph = set(), set()
    for w, (graph, req) in enumerate(pairs):
        node, index = req.source, 0
        for step in rollout(params, cfg, graph, req).steps:
            pending = req.chain[index] if index < len(req.chain) else None
            per_walk.add((w, node, index))
            per_graph.add((id(graph), node, pending))
            node, index = step.action.next_node, index + step.action.process
    assert set(visited) == per_graph
    assert len(per_graph) < len(per_walk)


def test_rollout_refuses_a_lockstep_that_cannot_give_its_walk():
    t = internet2_fixture()
    cfg = PolicyConfig()
    params = init_policy_params(cfg)
    req = SfcRequest(0, 3, (0,))
    lockstep = Lockstep(params, cfg, [(t, req)])
    with pytest.raises(ValueError, match="no walk"):
        rollout(params, cfg, t, SfcRequest(0, 3, (0,)), lockstep=lockstep)
    with pytest.raises(ValueError, match="lockstep's params"):
        rollout(init_policy_params(cfg), cfg, t, req, lockstep=lockstep)
    with pytest.raises(ValueError, match="lockstep's params"):
        rollout(params, cfg, t, req, mode="epsilon_greedy",
                rng=np.random.default_rng(0), lockstep=lockstep)


def test_a_lockstep_of_no_pairs_gives_no_walk():
    cfg = tiny_cfg()
    params = init_policy_params(cfg)
    lockstep = Lockstep(params, cfg, [])
    with pytest.raises(ValueError, match="no walk"):
        rollout(params, cfg, tiny_topology(), SfcRequest(0, 3, (0,)), lockstep=lockstep)


@pytest.mark.parametrize("req", [SfcRequest(-1, 3, (0,)), SfcRequest(0, 12, ()),
                                 SfcRequest(0, 3, (0, 5))])
def test_greedy_walks_refuse_a_request_as_rollout_does(req):
    t = internet2_fixture()
    cfg = PolicyConfig()
    params = init_policy_params(cfg)
    with pytest.raises(ValueError) as want:
        rollout(params, cfg, t, req)
    good = SfcRequest(0, 3, (0,))
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        Lockstep(params, cfg, [(t, good), (t, req)])


def test_a_lockstep_decides_processing_from_the_batched_logits():
    """Each process decision reads the chosen node's entry of the step's
    (L, n) process logits, gathered after the (L, n, H) @ proc.w product,
    never a product of gathered rows (see the ``nn`` docstring): the row
    check compares the logit each decision read with its rollout's."""
    t = internet2_fixture()
    cfg = PolicyConfig()
    params = init_policy_params(cfg, seed=1)
    pairs = [(t, req) for req in generate_requests(t, 12, (1, 4), np.random.default_rng(3))]
    lockstep, calls = walk_lockstep(params, cfg, pairs)
    assert len(calls[0][1]) >= 3 * t.num_nodes  # an untrained walk uses its whole budget
    assert check_lockstep_rows(lockstep, calls) > 3 * t.num_nodes


# ---------------------------------------------------------------------------
# checkpoints

def test_policy_checkpoint_round_trip(tmp_path):
    cfg = PolicyConfig(hidden_dim=16, vnf_type_count=4, t_prop=3)
    params = init_policy_params(cfg, seed=11)
    path = tmp_path / "policy.ckpt"
    save_policy(params, cfg, path, seed=11, training_stage="rl")
    loaded, loaded_cfg, meta = load_policy(path)
    assert loaded_cfg == cfg
    assert meta["training_stage"] == "rl"
    assert meta["seed"] == 11
    assert meta["K"] == 4
    assert meta["propagation_steps"] == 3
    assert meta["scorer_variant"] == "additive-tanh"
    assert all(np.array_equal(loaded[n], params[n]) for n in params.names())


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    cfg = tiny_cfg()
    rng = np.random.default_rng(9)
    # tensors alternate between magnitudes 1e-7 and 1e3
    params = ParamSet({name: rng.normal(size=shape) * (1e-7 if i % 2 else 1e3)
                       for i, (name, shape) in enumerate(cfg.param_shapes().items())})
    path = tmp_path / "model.ckpt"
    save_policy(params, cfg, path, seed=9, training_stage="sl")
    loaded, loaded_cfg, meta = load_policy(path)
    assert loaded_cfg == cfg
    assert (meta["seed"], meta["training_stage"]) == (9, "sl")
    for name in params.names():
        assert np.array_equal(loaded[name], params[name])  # exact, not approx


def test_checkpoint_bytes_are_deterministic(tmp_path):
    cfg = tiny_cfg()
    params = init_policy_params(cfg, seed=0)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_policy(params, cfg, a, seed=0, training_stage="sl")
    save_policy(params, cfg, b, seed=0, training_stage="sl")
    assert a.read_bytes() == b.read_bytes()


def test_load_policy_rejects_mismatched_architecture(tmp_path):
    cfg = tiny_cfg()
    params = init_policy_params(cfg, seed=0)
    path = tmp_path / "policy.ckpt"
    save_policy(params, cfg, path, seed=0, training_stage="sl")
    doc = json.loads(path.read_text())
    doc["metadata"]["hidden_dim"] = 16  # lies about the architecture
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="checkpoint tensor"):
        load_policy(path)


@FUZZ
@given(st.data())
def test_a_fuzzed_checkpoint_loads_or_is_refused_by_name(tmp_path, data):
    cfg = tiny_cfg()
    path = tmp_path / "policy.ckpt"
    save_policy(init_policy_params(cfg), cfg, path, seed=0, training_stage="sl")
    doc = json.loads(path.read_text())
    # one entry of each tensor's data stands for the rest, so that the
    # metadata and the shapes are drawn as often as the data
    paths = [p for p in leaf_paths(doc) if p[-2] != "data" or p[-1] == 0]
    path.write_text(data.draw(one_leaf_replaced(doc, paths)))
    try:
        load_policy(path)
    except ValueError as exc:
        assert str(path) in str(exc)
