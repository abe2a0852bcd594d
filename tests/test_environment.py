"""Episode semantics: reset/step/valid_actions, delays, rewards, requests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggsfc.environment import (
    Action,
    EnvState,
    InvalidActionError,
    PathResult,
    RewardConfig,
    SfcRequest,
    default_max_steps,
    generate_requests,
    reset,
    step,
    total_delay,
    valid_actions,
    validate_request,
)
from ggsfc.topology import Topology, TopologyError, VnfInstance, internet2_fixture
from support import small_requests, tiny_topology


def walk(t, req, actions, lam=0.0, max_steps=None):
    s = reset(t, req, max_steps)
    cfg = RewardConfig(lam=lam)
    rewards = []
    for a in actions:
        s, r, done = step(s, a, t, cfg)
        rewards.append(r)
    return s, rewards


# ---------------------------------------------------------------------------
# reset and request validation

def test_reset_initial_state():
    t = tiny_topology()
    req = SfcRequest(0, 3, (0,))
    s = reset(t, req)
    assert s.current_node == 0
    assert s.chain_index == 0
    assert s.steps_taken == 0
    assert not s.done
    assert s.path_so_far.total_delay == 0
    assert s.max_steps == default_max_steps(t, req) == 3 * 4 + 2 * 1
    assert s.pending_type == 0


def test_reset_rejects_nonpositive_budget():
    with pytest.raises(ValueError, match="max_steps"):
        reset(tiny_topology(), SfcRequest(0, 3, (0,)), max_steps=0)


@pytest.mark.parametrize(
    "req, message",
    [
        (SfcRequest(9, 3, (0,)), "source"),
        (SfcRequest(0, -1, (0,)), "destination"),
        (SfcRequest(0, 3, (-1,)), "VNF type"),
        (SfcRequest(0, 3, (5,)), "VNF type"),
    ],
)
def test_bad_requests_are_rejected(req, message):
    with pytest.raises(ValueError, match=message):
        validate_request(tiny_topology(), req)


def test_an_empty_chain_succeeds_at_the_destination():
    t = tiny_topology()
    s = reset(t, SfcRequest(0, 3, ()))
    assert s.pending_type is None
    assert valid_actions(s, t) == (Action(1, False), Action(3, False))
    s, reward, done = step(s, Action(3, False), t, RewardConfig())
    assert done and s.path_so_far.success and reward > 0


def test_request_chain_coerces_to_ints():
    req = SfcRequest(0, 1, (np.int64(2), np.int64(0)))
    assert req.chain == (2, 0)
    assert all(type(k) is int for k in req.chain)


# ---------------------------------------------------------------------------
# valid_actions

def test_valid_actions_lists_moves_and_process_variants():
    t = tiny_topology()
    s = reset(t, SfcRequest(0, 3, (0,)))
    # neighbor 1 hosts the pending type, neighbor 3 does not
    assert valid_actions(s, t) == (Action(1, False), Action(1, True), Action(3, False))


def test_valid_actions_without_pending_type_offers_only_moves():
    t = tiny_topology()
    s, _ = walk(t, SfcRequest(0, 3, (0,)), [Action(1, True)])
    assert s.pending_type is None
    assert valid_actions(s, t) == (Action(0, False), Action(2, False))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(small_requests(), st.data())
def test_environment_matches_its_source_data(case, data):
    # a reference read straight from t.edges and t.instances; the drawn
    # instance lists often put two instances of one type on one node
    t, req = case
    s = reset(t, req)
    while not s.done:
        node, want = s.current_node, s.pending_type
        neighbors = sorted({v for u, v, _ in t.edges if u == node}
                           | {u for u, v, _ in t.edges if v == node})
        expected = []
        for v in neighbors:
            expected.append(Action(v, False))
            if any((i.node, i.vnf_type) == (v, want) for i in t.instances):
                expected.append(Action(v, True))
        actions = valid_actions(s, t)
        assert actions == tuple(expected)
        a = actions[data.draw(st.integers(0, len(actions) - 1))]
        s, _, _ = step(s, a, t, RewardConfig())
        path = s.path_so_far
        if a.process:
            hosted = [i for i in t.instances if (i.node, i.vnf_type) == (a.next_node, want)]
            assert path.instance_uses[-1] == min(hosted, key=lambda i: i.proc_delay)
        assert total_delay(path, t) == path.total_delay


def test_valid_actions_on_finished_episode_raises():
    t = tiny_topology()
    s, _ = walk(t, SfcRequest(0, 3, (0,)), [Action(1, True), Action(2, False), Action(3, False)])
    assert s.done
    with pytest.raises(InvalidActionError):
        valid_actions(s, t)


# ---------------------------------------------------------------------------
# step

def test_step_accumulates_edge_and_processing_delay():
    t = tiny_topology()
    s, _ = walk(t, SfcRequest(0, 3, (0,)), [Action(1, True)])
    # edge 0-1 (2) plus the cheaper type-0 instance on node 1 (3)
    assert s.path_so_far.total_delay == 5
    assert s.chain_index == 1
    assert s.path_so_far.instance_uses == (VnfInstance(1, 0, 3),)


def test_step_success_requires_destination_and_full_chain():
    t = tiny_topology()
    req = SfcRequest(0, 3, (0,))
    # reaching the destination with the chain unprocessed is not success
    s, _ = walk(t, req, [Action(3, False)])
    assert not s.done and not s.path_so_far.success
    # completing the chain away from the destination is not success either
    s, rewards = walk(t, req, [Action(1, True), Action(2, False), Action(3, False)])
    assert s.done and s.path_so_far.success
    assert s.path_so_far.total_delay == 2 + 3 + 3 + 1
    assert rewards == [0.0, 0.0, 10000.0]


def test_step_reward_subtracts_weighted_delay():
    t = tiny_topology()
    _, rewards = walk(t, SfcRequest(0, 3, (0,)),
                      [Action(1, True), Action(2, False), Action(3, False)], lam=2.0)
    assert rewards[-1] == 10000.0 - 2.0 * 9


def test_step_budget_exhaustion_fails_with_zero_reward():
    t = tiny_topology()
    s, rewards = walk(t, SfcRequest(0, 3, (0,)), [Action(1, False)], max_steps=1)
    assert s.done and not s.path_so_far.success
    assert rewards == [0.0]


def test_success_on_the_last_budgeted_step_still_succeeds():
    t = tiny_topology()
    s, rewards = walk(t, SfcRequest(0, 3, (0,)),
                      [Action(1, True), Action(2, False), Action(3, False)], max_steps=3)
    assert s.done and s.path_so_far.success
    assert rewards[-1] == 10000.0


def test_step_rejects_non_neighbor_move():
    t = tiny_topology()
    s = reset(t, SfcRequest(0, 3, (0,)))
    for node in (2, 0, -1, 4, 2.5, np.int64(2)):
        with pytest.raises(InvalidActionError, match=f"no edge from node 0 to node {node}$"):
            step(s, Action(node, False), t, RewardConfig())


def test_step_rejects_process_without_instance():
    t = tiny_topology()
    s = reset(t, SfcRequest(0, 3, (0,)))
    with pytest.raises(InvalidActionError, match="no instance"):
        step(s, Action(3, True), t, RewardConfig())


def test_step_rejects_process_after_chain_complete():
    t = tiny_topology()
    s, _ = walk(t, SfcRequest(0, 3, (0, 1)), [Action(1, True), Action(2, True)])
    with pytest.raises(InvalidActionError, match="fully processed"):
        step(s, Action(1, True), t, RewardConfig())


def test_step_on_finished_episode_raises():
    t = tiny_topology()
    s, _ = walk(t, SfcRequest(0, 3, (0,)), [Action(1, False)], max_steps=1)
    with pytest.raises(InvalidActionError, match="finished"):
        step(s, Action(0, False), t, RewardConfig())


def test_records_are_immutable():
    t = tiny_topology()
    s, _ = walk(t, SfcRequest(0, 3, (0,)), [Action(1, True)])
    for record, name in ((s, "current_node"), (s, "done"), (s.path_so_far, "total_delay"),
                         (s.path_so_far, "edge_uses"), (Action(1, True), "process")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


def test_record_reprs_name_every_field():
    t = tiny_topology()
    s, _ = walk(t, SfcRequest(0, 3, (0,)), [Action(1, True)])
    path = ("PathResult(edge_uses=((0, 1),), instance_uses=(VnfInstance(node=1, vnf_type=0, "
            "proc_delay=3),), total_delay=5, success=False)")
    assert repr(Action(1, True)) == "Action(next_node=1, process=True)"
    assert repr(s.path_so_far) == path
    assert repr(s) == (
        "EnvState(request=SfcRequest(source=0, destination=3, chain=(0,)), current_node=1, "
        f"chain_index=1, steps_taken=1, path_so_far={path}, done=False, max_steps=14)")


def assert_same_record(got, cls, want):
    """got is a cls of every field, equal to want, a cls built by keyword."""
    assert type(got) is cls
    assert len(got) == len(cls._fields)
    assert got == want
    for name in cls._fields:
        assert getattr(got, name) == getattr(want, name)


def assert_same_state(got, want):
    assert_same_record(got, EnvState, want)
    assert_same_record(got.path_so_far, PathResult, want.path_so_far)
    for inst, want_inst in zip(got.path_so_far.instance_uses, want.path_so_far.instance_uses,
                               strict=True):
        assert_same_record(inst, VnfInstance, want_inst)


REQ = SfcRequest(0, 3, (0,))
USED = VnfInstance(node=1, vnf_type=0, proc_delay=3)


@pytest.mark.parametrize("actions, max_steps, want", [
    ((), None, EnvState(
        request=REQ, current_node=0, chain_index=0, steps_taken=0,
        path_so_far=PathResult(edge_uses=(), instance_uses=(), total_delay=0, success=False),
        done=False, max_steps=14)),
    ([Action(1, False)], None, EnvState(
        request=REQ, current_node=1, chain_index=0, steps_taken=1,
        path_so_far=PathResult(edge_uses=((0, 1),), instance_uses=(), total_delay=2,
                               success=False),
        done=False, max_steps=14)),
    ([Action(1, True)], None, EnvState(
        request=REQ, current_node=1, chain_index=1, steps_taken=1,
        path_so_far=PathResult(edge_uses=((0, 1),), instance_uses=(USED,), total_delay=5,
                               success=False),
        done=False, max_steps=14)),
    ([Action(1, True), Action(2, False), Action(3, False)], None, EnvState(
        request=REQ, current_node=3, chain_index=1, steps_taken=3,
        path_so_far=PathResult(edge_uses=((0, 1), (1, 2), (2, 3)), instance_uses=(USED,),
                               total_delay=9, success=True),
        done=True, max_steps=14)),
    ([Action(1, True), Action(0, False)], 2, EnvState(
        request=REQ, current_node=0, chain_index=1, steps_taken=2,
        path_so_far=PathResult(edge_uses=((0, 1), (1, 0)), instance_uses=(USED,),
                               total_delay=7, success=False),
        done=True, max_steps=2)),
], ids=["reset", "move", "process", "success", "budget"])
def test_reset_and_step_build_whole_records(actions, max_steps, want):
    s, rewards = walk(tiny_topology(), REQ, actions, max_steps=max_steps)
    assert_same_state(s, want)
    assert sum(rewards) == (10000.0 if want.path_so_far.success else 0.0)


def test_random_walks_keep_bookkeeping_consistent():
    t = internet2_fixture()
    rng = np.random.default_rng(3)
    cfg = RewardConfig(lam=1.0)
    for _ in range(50):
        req = generate_requests(t, 1, (1, 3), rng)[0]
        s = reset(t, req)
        done = False
        while not done:
            acts = valid_actions(s, t)
            a = acts[int(rng.integers(len(acts)))]
            s, r, done = step(s, a, t, cfg)
            assert (r != 0.0) == (done and s.path_so_far.success)
        assert s.steps_taken <= s.max_steps
        assert total_delay(s.path_so_far, t) == s.path_so_far.total_delay
        assert s.path_so_far.success == (
            s.current_node == req.destination and s.chain_index == len(req.chain)
        )


# ---------------------------------------------------------------------------
# delays, rewards, state plumbing

def test_total_delay_rejects_foreign_instances():
    t = tiny_topology()
    p = PathResult(edge_uses=(), instance_uses=(VnfInstance(0, 0, 2),),
                   total_delay=2, success=False)
    with pytest.raises(TopologyError, match="does not exist"):
        total_delay(p, t)


def test_reward_config_validation():
    with pytest.raises(ValueError, match="lam"):
        RewardConfig(lam=-1.0)


def test_pending_type_walks_the_chain():
    t = tiny_topology()
    req = SfcRequest(0, 3, (0, 1))
    s = reset(t, req)
    assert s.pending_type == 0
    s, _, _ = step(s, Action(1, True), t, RewardConfig())
    assert s.pending_type == 1
    s, _, _ = step(s, Action(2, True), t, RewardConfig())
    assert s.pending_type is None


# ---------------------------------------------------------------------------
# request generation

def test_generate_requests_respects_bounds():
    t = internet2_fixture()
    rng = np.random.default_rng(0)
    reqs = generate_requests(t, 200, (2, 3), rng)
    assert len(reqs) == 200
    deployed = set(t.deployed_types)
    for r in reqs:
        assert r.source != r.destination
        assert 0 <= r.source < 12 and 0 <= r.destination < 12
        assert 2 <= len(r.chain) <= 3
        assert set(r.chain) <= deployed
    # both lengths actually occur
    assert {len(r.chain) for r in reqs} == {2, 3}


def test_generate_requests_is_deterministic_for_a_seed():
    t = internet2_fixture()
    a = generate_requests(t, 20, (1, 4), np.random.default_rng(5))
    b = generate_requests(t, 20, (1, 4), np.random.default_rng(5))
    assert a == b


def test_generate_requests_validation():
    t = internet2_fixture()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="count"):
        generate_requests(t, -1, (1, 2), rng)
    with pytest.raises(ValueError, match="range"):
        generate_requests(t, 1, (0, 2), rng)
    with pytest.raises(ValueError, match="range"):
        generate_requests(t, 1, (3, 2), rng)
    bare = Topology(2, ((0, 1, 1),), (), 0)
    with pytest.raises(ValueError, match="no deployed"):
        generate_requests(bare, 1, (1, 2), rng)
    single = Topology(1, (), (), 0)
    with pytest.raises(ValueError, match="2 nodes"):
        generate_requests(single, 1, (1, 2), rng)
