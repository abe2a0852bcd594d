"""Encoder/decoder policy: annotations, distributions, rollouts, gradients."""

import gc
import json
import weakref

import numpy as np
import pytest

from ggsfc.environment import Action, RewardConfig, SfcRequest, generate_requests, reset
from ggsfc import nn
from ggsfc.nn import GradSet, finite_diff_check, fuse_gru
from ggsfc.oracle import solve_optimal
from ggsfc.policy import (
    ActionDistribution,
    PolicyConfig,
    _greedy_action,
    _masks,
    action_log_prob,
    annotate,
    decode_step,
    decode_step_backward,
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
    VnfInstance,
    adjacency_matrix,
    deploy_vnfs,
    generate_pool,
    internet2_fixture,
)

E2E_TOL = 1e-5


def tiny_topology():
    return Topology(
        num_nodes=4,
        edges=((0, 1, 2), (1, 2, 3), (2, 3, 1), (0, 3, 9)),
        instances=(
            VnfInstance(1, 0, 7),
            VnfInstance(1, 0, 3),
            VnfInstance(2, 1, 5),
        ),
        vnf_type_count=2,
    )


def tiny_cfg(hidden=8, t_prop=2):
    return PolicyConfig(hidden_dim=hidden, vnf_type_count=2, t_prop=t_prop)


# ---------------------------------------------------------------------------
# config and parameters

def test_config_rejects_annotations_wider_than_hidden():
    with pytest.raises(ValueError, match="exceeds"):
        PolicyConfig(hidden_dim=6, vnf_type_count=5, t_prop=1)  # K+3 = 8 > 6


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
    encode / encode_backward the episode ran before segments were stacked."""
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
                ref_d_h0, ref_grads = encode_backward(grad[i], ref_caches)
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
        rollout(params, cfg, t, req, mode="epsilon_greedy")


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
        edges = {}
        for v in range(1, n):
            u = int(rng.integers(0, v))
            edges[(u, v)] = int(rng.integers(1, 11))
        base = Topology(n, tuple((u, v, d) for (u, v), d in edges.items()), (), 0)
        t = deploy_vnfs(base, 2, (1, 10), rng, vnf_type_count=3)
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
        return float(np.dot(coeffs, log_probs)), episode_gradients(p, cfg, forced, coeffs)

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
        episode_gradients(params, cfg, trace, [1.0, 2.0])


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


def _reference_gradients(params, cfg, trace, coeffs):
    """The backward over every encoded segment, reached or not: each step's
    decode backward, then one encode_backward over the whole stack, whose
    reached slices are added in segment order."""
    grads = GradSet(params)
    grad_enc = np.zeros((len(trace.request.chain) + 1, trace.topology.num_nodes,
                         cfg.hidden_dim))
    dh = np.zeros(cfg.hidden_dim)
    for step, coeff in zip(reversed(trace.steps), reversed(coeffs)):
        genc, dh, gnode, step_grads = decode_step_backward(
            coeff, step.action, step.cache, params, dh
        )
        grads.add_all(step_grads)
        grad_enc[step.segment] += genc
        grad_enc[step.segment][step.node] += gnode
    _, enc_grads = encode_backward(grad_enc, trace.encoder)
    for seg in range(trace.steps[-1].segment + 1):
        grads.add_all({name: g[seg] for name, g in enc_grads.items()})
    return grads


def test_greedy_caches_give_the_teacher_forced_gradients_bit_for_bit():
    """Byte-equal gradients, on this numpy build, from a greedy rollout's
    caches, from teacher_force on its actions, and from the reference that
    runs the encoder backward over unreached segments too, on the fixture
    and on one cs1 and one cs2 variant."""
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
                grads = episode_gradients(params, cfg, trace, coeffs)
                forced_grads = episode_gradients(params, cfg, forced, coeffs)
                ref = _reference_gradients(params, cfg, forced, coeffs)
                for name, value in ref.items():
                    assert grads[name].tobytes() == value.tobytes(), name
                    assert forced_grads[name].tobytes() == value.tobytes(), name
                unreached += trace.steps[-1].segment < len(req.chain)
    assert unreached > 5


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


def test_load_policy_rejects_mismatched_architecture(tmp_path):
    import json

    cfg = tiny_cfg()
    params = init_policy_params(cfg, seed=0)
    path = tmp_path / "policy.ckpt"
    save_policy(params, cfg, path, seed=0, training_stage="sl")
    doc = json.loads(path.read_text())
    doc["metadata"]["hidden_dim"] = 16  # lies about the architecture
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="checkpoint tensor"):
        load_policy(path)
